"""Reusable pattern-compilation artifacts.

Building a BlossomTree and decomposing it into NoK pattern trees
(Algorithm 1) are pure functions of the query — no document is
consulted — so their outputs can be computed once at ``prepare()`` time
and replayed across executions.  This module bundles them into one
value object, :class:`PatternArtifacts`, which the plan cache stores and
the executor accepts in place of rebuilding.

Returning nodes are named by their :class:`BlossomVertex` (the paper's
global Dewey IDs of Section 3.3 play that role there) and ordered by
document node ``nid`` and region labels, so the decomposition is the
whole artifact: the tree is read through it, and a tree and a
decomposition from different compiles cannot be paired.

Reuse safety: the executor's match phase only *reads* the pattern tree
(``select`` filters produce copies, merged scans allocate fresh entry
lists per run), so one ``PatternArtifacts`` instance can back any
number of concurrent or sequential executions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pattern.blossom import BlossomTree
from repro.pattern.decompose import Decomposition, decompose

__all__ = ["PatternArtifacts", "prepare_artifacts"]


@dataclass(frozen=True)
class PatternArtifacts:
    """Everything the pattern layer derives from one query."""

    decomposition: Decomposition

    @property
    def tree(self) -> BlossomTree:
        """The BlossomTree the decomposition was computed from."""
        return self.decomposition.tree


def prepare_artifacts(tree: BlossomTree) -> PatternArtifacts:
    """Run the decomposition once, for replay."""
    return PatternArtifacts(decompose(tree))
