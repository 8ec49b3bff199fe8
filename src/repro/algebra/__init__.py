"""Algebraic layer: NestedList ADT, Env and the σ the executor runs (Section 3).

The NestedLists and the Env chain are what a query keeps alive from its
match phase to its finish, so both hold as few Python objects as they
can: every match is its node, a child-pointer slot is one run table per
pattern vertex per execution, σ replaces only the tables it changes,
and a binding is one slotted Env link.
"""

from repro.algebra.env import Env
from repro.algebra.nested_list import Groups, project, projection_path
from repro.algebra.operators import select

__all__ = [
    "Env",
    "Groups",
    "project",
    "projection_path",
    "select",
]
