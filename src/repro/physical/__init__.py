"""Physical operators: NoK matching, merged scans, structural joins,
nested loops, TwigStack (paper Section 4)."""

from repro.physical.nested_loop import (
    bounded_nested_loop_join,
    naive_nested_loop_join,
    nested_loop_pairs,
)
from repro.physical.nok import NoKMatcher
from repro.physical.nok_merge import merged_scan
from repro.physical.pipelined_join import pipelined_desc_join
from repro.physical.stack_join import stack_desc_join
from repro.physical.structural import JoinResult, left_projection
from repro.physical.twigstack import TwigStackOperator, twig_supported

__all__ = [
    "JoinResult",
    "NoKMatcher",
    "TwigStackOperator",
    "bounded_nested_loop_join",
    "left_projection",
    "merged_scan",
    "naive_nested_loop_join",
    "nested_loop_pairs",
    "pipelined_desc_join",
    "stack_desc_join",
    "twig_supported",
]
