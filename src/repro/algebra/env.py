"""The Env abstract data type: variable bindings derived from NestedLists.

Figure 2 of the paper shows the data flow ``NestedList --variable
binding--> Env --construction--> XMLTree``.  An :class:`Env` is one
tuple of the FLWOR iteration: every for-variable is bound to a single
NestedList entry (descendant variables anchor their own enumeration at
it), and every let-variable to an entry sequence.

An Env is a persistent chain, one slotted link per binding: binding a
variable allocates one object and shares the whole outer tuple, so the
bind phase keeps one object alive per binding rather than a copy of
every earlier binding.  Node sequences are read off the entries only
when the finish phase asks (:meth:`Env.as_variables`).
"""

from __future__ import annotations

from repro.xmlkit.tree import Node
from repro.algebra.nested_list import NLEntry

__all__ = ["Env"]


class Env:
    """One binding tuple: this link's binding plus the tuple it extends.

    ``Env()`` is the empty tuple.  A for-binding holds its
    :class:`NLEntry`, a let-binding its (possibly empty) entry list; a
    later binding of a name shadows an earlier one.
    """

    __slots__ = ("parent", "name", "binding")

    def __init__(self, parent: Env | None = None, name: str = "",
                 binding: NLEntry | list[NLEntry] | None = None) -> None:
        self.parent = parent
        self.name = name
        self.binding = binding

    def bind_for(self, name: str, entry: NLEntry) -> Env:
        """Extend with a for-binding (this tuple is not changed)."""
        return Env(self, name, entry)

    def bind_let(self, name: str, entries: list[NLEntry]) -> Env:
        """Extend with a let-binding over a (possibly empty) entry list."""
        return Env(self, name, entries)

    def anchor(self, name: str) -> list[NLEntry]:
        """The entries ``name`` is bound to (one for a for-variable),
        where the executor starts a dependent variable's walk; ``[]``
        when ``name`` is unbound."""
        env = self
        while env.parent is not None:
            if env.name == name:
                binding = env.binding
                return [binding] if isinstance(binding, NLEntry) \
                    else binding or []
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
            if isinstance(binding, NLEntry):
                variables[link.name] = \
                    [] if binding.node is None else [binding.node]
            else:
                variables[link.name] = [e.node for e in binding or ()
                                        if e.node is not None]
        return variables
