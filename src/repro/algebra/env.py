"""The Env abstract data type: variable bindings derived from NestedLists.

Figure 2 of the paper shows the data flow ``NestedList --variable
binding--> Env --construction--> XMLTree``.  An :class:`Env` is one
tuple of the FLWOR iteration: every for-variable is bound to a single
match of its pattern vertex (descendant variables anchor their own
enumeration at it), and every let-variable to a match sequence.

An Env is a persistent chain, one slotted link per binding: binding a
variable allocates one object and shares the whole outer tuple, so the
bind phase keeps one object alive per binding rather than a copy of
every earlier binding.  Node sequences are read off the matches only
when the finish phase asks (:meth:`Env.as_variables`), in the
representation of the vertex the link names.
"""

from __future__ import annotations

from repro.xmlkit.tree import Node
from repro.pattern.blossom import BlossomVertex
from repro.algebra.nested_list import Match

__all__ = ["Env"]


class Env:
    """One binding tuple: this link's binding plus the tuple it extends.

    ``Env()`` is the empty tuple.  A for-binding holds one match of
    ``vertex``, a let-binding its (possibly empty) match list — an
    :class:`~repro.algebra.nested_list.NLEntry` per match of a grouped
    vertex, the node itself for any other; a later binding of a name
    shadows an earlier one.
    """

    __slots__ = ("parent", "name", "vertex", "binding")

    def __init__(self, parent: Env | None = None, name: str = "",
                 vertex: BlossomVertex | None = None,
                 binding: Match | list[Match] | None = None) -> None:
        self.parent = parent
        self.name = name
        self.vertex = vertex
        self.binding = binding

    def bind_for(self, name: str, vertex: BlossomVertex, match: Match) -> Env:
        """Extend with a for-binding to one match of ``vertex`` (this
        tuple is not changed)."""
        return Env(self, name, vertex, match)

    def bind_let(self, name: str, vertex: BlossomVertex,
                 matches: list[Match]) -> Env:
        """Extend with a let-binding over a (possibly empty) list of
        ``vertex``'s matches."""
        return Env(self, name, vertex, matches)

    def anchor(self, name: str) -> list[Match]:
        """The matches ``name`` is bound to (one for a for-variable),
        where the executor starts a dependent variable's walk; ``[]``
        when ``name`` is unbound."""
        env = self
        while env.parent is not None:
            if env.name == name:
                binding = env.binding
                return binding if isinstance(binding, list) \
                    else [binding]  # type: ignore[list-item]
            env = env.parent
        return []

    def as_variables(self) -> dict[str, list[Node]]:
        """The mapping handed to the XPath evaluator for residual checks,
        order-by keys and return construction: a fresh dict, keyed in
        binding order, of node sequences (singletons for for-variables)."""
        links: list[Env] = []
        env = self
        while env.parent is not None:
            links.append(env)
            env = env.parent
        variables: dict[str, list[Node]] = {}
        for link in reversed(links):
            binding = link.binding
            grouped = link.vertex.grouped  # type: ignore[union-attr]
            nodes: list[Node]
            if isinstance(binding, list):
                nodes = [e.node for e in binding] if grouped else binding[:]  # type: ignore
            else:
                nodes = [binding.node] if grouped else [binding]  # type: ignore
            variables[link.name] = nodes
        return variables
