"""Pattern layer: BlossomTree, construction, decomposition."""

from repro.pattern.blossom import (
    MODE_MANDATORY,
    MODE_OPTIONAL,
    BlossomTree,
    BlossomVertex,
    CrossingEdge,
    TreeEdge,
)
from repro.pattern.artifact import PatternArtifacts, prepare_artifacts
from repro.pattern.build import build_blossom_tree, build_from_path, path_as_flwor
from repro.pattern.decompose import Decomposition, InterEdge, NoKTree, decompose

__all__ = [
    "MODE_MANDATORY",
    "MODE_OPTIONAL",
    "BlossomTree",
    "BlossomVertex",
    "CrossingEdge",
    "Decomposition",
    "InterEdge",
    "NoKTree",
    "PatternArtifacts",
    "TreeEdge",
    "build_blossom_tree",
    "build_from_path",
    "decompose",
    "path_as_flwor",
    "prepare_artifacts",
]
