"""Algebraic layer: NestedList ADT, Env and the σ the executor runs (Section 3)."""

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
