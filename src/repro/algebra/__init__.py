"""Algebraic layer: NestedList ADT, Env and the σ the executor runs (Section 3).

The NestedList entries and the Env chain are what a query keeps alive
from its match phase to its finish, so both hold as few Python objects
as they can: a match of a vertex with no slot to fill is its node, an
entry with no filled slot shares one empty ``groups`` tuple, a slot
gets a list only when a match goes in, σ returns what it does not
change, and a binding is one slotted Env link.
"""

from repro.algebra.env import Env
from repro.algebra.nested_list import NLEntry, project, project_entries, sexpr_sequence
from repro.algebra.operators import select

__all__ = [
    "Env",
    "NLEntry",
    "project",
    "project_entries",
    "select",
    "sexpr_sequence",
]
