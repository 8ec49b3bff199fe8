"""The strategy table: every ``strategy=`` name, spelled once.

The paper states its physical-plan policy in one paragraph (Section
5.2) and one cost sketch (Section 6).  What the *names* in that policy
are — which family a name belongs to, which join it pins, what it needs
of the compiled query — is data, and this table is its one copy: the
chooser (:mod:`repro.engine.optimizer`), the executor's join dispatch,
the plan verifier, the cost model, the backend default and the Table-3
harness all read rows instead of keeping their own name lists
(``tests/test_strategy_table.py`` holds them to it).

Like :mod:`repro.errors` and :mod:`repro.engine.backend`, this module
imports nothing from the rest of the package, so every layer can read it
without a cycle — it sits beside ``errors`` rather than inside
``repro.engine`` because :mod:`repro.analysis`, which the engine's
compiler imports, reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["STRATEGIES", "Strategy"]


@dataclass(frozen=True)
class Strategy:
    """One ``strategy=`` name and what every consumer needs to know of it."""

    name: str
    #: ``meta`` (a chooser, never executed), ``baseline`` (a navigational
    #: oracle: no lint, no pattern artifacts — it must stay a faithful
    #: differential reference for the rewrites), ``pattern`` (the
    #: BlossomTree pipeline: NoK scans + ``//``-joins), ``holistic``
    #: (one twig join over the tag index, pattern artifacts all the
    #: same) or ``internal`` (chosen by a rewrite, never requestable).
    family: str
    #: The row of the ``strategy`` table in the documentation.
    meaning: str
    #: The join algorithm this row pins on every ``//``-edge; ``None``:
    #: no ``//``-joins of its own.
    join: str | None = None
    #: What the pinned join re-reads per outer match — ``None`` (a merge
    #: of the two ordered streams), ``"subtree"`` or ``"document"``.
    rescans: str | None = None
    #: The pinned join is a merge under Theorem 2's precondition: ordered
    #: output needs a left input that cannot nest (Example 5).
    theorem2: bool = False
    #: What the name requires of the compiled query when requested:
    #: ``"tree"`` (a pattern tree), ``"flwor"`` (a FLWOR core to run the
    #: pipeline over), ``"twig"`` (the pattern is a single ``//``-twig).
    requires: tuple[str, ...] = ()
    #: The match phase runs partition-parallel (always at least two ways).
    partitions: bool = False
    #: Column label in the paper's Table 3.
    label: str | None = None

    @property
    def executable(self) -> bool:
        """A plan can run under this name (what the verifier accepts)."""
        return self.family in ("baseline", "pattern", "holistic")

    @property
    def patterned(self) -> bool:
        """Executes over pattern artifacts (the NoK decomposition)."""
        return self.family in ("pattern", "holistic")

    @property
    def lints(self) -> bool:
        """The query lint (and its static-empty rewrite) applies here."""
        return self.family != "baseline"


_PIPELINE = ("tree", "flwor")

#: name -> row, in documentation order.
STRATEGIES: dict[str, Strategy] = {row.name: row for row in (
    Strategy("auto", "meta",
             "optimizer picks per the Section-5.2 rules (default)"),
    Strategy("pipelined", "pattern",
             "BlossomTree with pipelined merge ``//``-joins (PL)",
             join="pipelined", theorem2=True, requires=_PIPELINE,
             label="PL"),
    Strategy("stack", "pattern",
             "BlossomTree with region range joins, sound on nesting input",
             join="stack", requires=_PIPELINE),
    Strategy("bnlj", "pattern",
             "BlossomTree with bounded nested-loop joins (BNLJ)",
             join="bnlj", rescans="subtree", requires=_PIPELINE),
    Strategy("nl", "pattern",
             "BlossomTree with naive nested-loop joins (Table 3's NL column)",
             join="nl", rescans="document", requires=_PIPELINE, label="NL"),
    Strategy("twigstack", "holistic",
             "holistic twig join over the tag index (TS)",
             requires=("tree", "twig"), label="TS"),
    Strategy("parallel", "pattern",
             "BlossomTree with partition-parallel merged NoK scans",
             join="stack", requires=_PIPELINE, partitions=True),
    Strategy("naive", "baseline",
             "direct per-iteration FLWOR semantics (the Section-1 strawman)"),
    Strategy("xhive", "baseline",
             "simulated commercial navigational engine (XH stand-in)",
             label="XH"),
    Strategy("static-empty", "internal",
             "query lint proved the result empty: answered without a scan"),
)}
