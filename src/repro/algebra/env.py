"""The Env abstract data type: variable bindings derived from NestedLists.

Figure 2 of the paper shows the data flow ``NestedList --variable
binding--> Env --construction--> XMLTree``.  An :class:`Env` is one
tuple of the FLWOR iteration: every for-variable is bound to a single
match of its pattern vertex (descendant variables anchor their own
enumeration at it), and every let-variable to a match sequence.

An Env is a persistent chain, one slotted link per binding: binding a
variable allocates one object and shares the whole outer tuple, so the
bind phase keeps one object alive per binding rather than a copy of
every earlier binding.  Every clause adds one link to each tuple, so
the executor reads a clause variable's binding a fixed number of links
up; a match is its node, so the finish reads node sequences straight
off the links, and builds the variable mapping the XPath evaluator
takes (:meth:`Env.as_variables`) only for a tuple an expression needs
it for.
"""

from __future__ import annotations

from typing import cast

from repro.xmlkit.tree import Node

__all__ = ["Env"]


class Env:
    """One binding tuple: this link's binding plus the tuple it extends.

    ``Env()`` is the empty tuple.  A for-binding holds one matched
    node, a let-binding its (possibly empty) node list; a later binding
    of a name shadows an earlier one.
    """

    __slots__ = ("parent", "name", "binding")

    def __init__(self, parent: Env | None = None, name: str = "",
                 binding: Node | list[Node] | None = None) -> None:
        self.parent = parent
        self.name = name
        self.binding = binding

    def bind_for(self, name: str, node: Node) -> Env:
        """Extend with a for-binding to one node (this tuple is not
        changed)."""
        return Env(self, name, node)

    def bind_let(self, name: str, nodes: list[Node]) -> Env:
        """Extend with a let-binding over a (possibly empty) node list."""
        return Env(self, name, nodes)

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
            variables[link.name] = (binding[:] if isinstance(binding, list)
                                    else [cast(Node, binding)])
        return variables
