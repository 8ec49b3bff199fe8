"""The observation grid behind ``tests/data/strategy_golden.json``.

One observation is what a caller can see of the plan decision: the
``explain`` text, then — from one execution on a fresh engine — the
executed strategy, the plan text and the answer, or the error's type and
message.  ``test_strategy_table.py`` replays the grid over every row of
the strategy table and compares with the golden, which was captured at
the commit *before* the table existed (PR 21) by running this module
with that commit's ``src`` on the path::

    PYTHONPATH=<parent>/src python tests/strategy_cases.py name... > golden

It has been regenerated once, for an intended decision change: ``auto``
stopped choosing TwigStack on recursive documents (``stack`` answers
the same) and the ``cost`` strategy was deleted.  The diff was the two
recursive ``auto`` path rows (now ``stack``), the ``cost`` entries
(gone) and the ``explain`` texts, which lost their ranked cost
estimates; no answer changed.

It was regenerated a second time when ``auto`` stopped reading the
executor: the two ``auto``-under-``threads:2`` extras plan ``pipelined``
(no upgrade, no withdrawal), ``parallel``'s reason lost its
``(N partitions)`` suffix, its scan note on the grid's small documents
names the one merged scan that ran, and PL004's hint no longer mentions
a withdrawal.  No answer changed.

It was regenerated a third time, for one row only, when analyzer rule
PL004 was retired: ``requested parallel is refused (PL004)`` (the label
stays as a stable id) now answers — a partitioned scan over 2
partitions, byte-identical to ``naive`` and to the ``pipelined`` answer
of the row above it — where it raised ``PlanInvariantError``.  The
partitioned scan matches the ``#root`` NoK of ``/r/a/b`` only in the
partition that starts at slot 0, so there was nothing to refuse.

It was regenerated a fourth time when ``auto`` began running the region
range join on every ``//`` edge: the flat-document ``auto`` rows and
extras plan ``stack`` instead of ``pipelined``, every ``auto`` reason
(the recursive rows' too, since the chooser no longer reads the
recursion bit) is the range join's, the flat rows' join notes say
``stack``, and so do the ``parallel`` rows' (the row pins the range
join).  No answer changed.

It was regenerated a fifth time when return-clause paths became
pattern vertices: only ``explain`` texts changed, in the ``flwor`` and
``crossing flwor`` rows and the optional-branch extra — each gained the
optional ``-child,l->`` vertex of its ``return $a/c`` / ``$x/b`` /
``$y/b`` / ``$a/b`` and lists it in its NoK.  No strategy, plan text or
answer changed.
"""

from __future__ import annotations

import json
import sys

from repro import Engine, parse

#: No tag nests in itself / ``a`` nests in ``a``.
DOCUMENTS = {
    "flat": ('<r><a k="1"><b>1</b><c>x</c></a><a k="2"><b>2</b><c>y</c>'
             '<c>z</c></a><a k="3"><b>3</b></a></r>'),
    "recursive": ('<r><a k="1"><b>1</b><a k="2"><b>2</b><c>x</c></a></a>'
                  '<a k="3"><b>3</b><c>y</c></a></r>'),
}

SHAPES = {
    "bare path": "//a[b]/c",
    "twig path": "//a[//b]//c",
    "flwor": "for $a in //a where $a/b > 1 return $a/c",
    "crossing flwor": ("for $x in //a, $y in //a where $x << $y "
                       "return <p>{$x/b}{$y/b}</p>"),
    "outside the subset": "for $a in //a[2] return $a/b",
    "no FLWOR core": "count(//a)",
    "provably empty": "//a/zzz",
}

#: Decisions the small grid cannot reach: (label, document, query,
#: query options).  ``wide`` is large enough to cut into partitions.
#: The first two labels name the executor-driven ``parallel`` upgrade
#: (and its PL004 withdrawal) that ``auto`` once performed; they stay
#: as stable test ids and now pin its absence — both plan ``stack``,
#: exactly as without an executor.  The third names the
#: retired rule PL004's refusal and now pins the partitioned answer.
WIDE = "<r>" + "<a><b>1</b></a>" * 1400 + "</r>"
EXTRAS = [
    ("auto upgrades to parallel", WIDE, "//a/b", {"executor": "threads:2"}),
    ("auto withdraws the upgrade (PL004)", WIDE, "/r/a/b",
     {"executor": "threads:2"}),
    ("requested parallel is refused (PL004)", WIDE, "/r/a/b",
     {"strategy": "parallel", "executor": "threads:2"}),
    ("lint reports an optional branch it cannot prune", DOCUMENTS["flat"],
     "for $a in //a let $z := $a/zzz/q return $a/b", {}),
    ("auto takes stack under a * left vertex", "<r><a><c/></a></r>",
     "for $x in //* for $y in $x//c return $y", {}),
]


def observe(xml: str, text: str, **options) -> dict:
    """What ``explain`` says and what one execution did."""
    seen: dict = {}
    explain_options = {k: v for k, v in options.items() if k == "strategy"}
    try:
        seen["explain"] = Engine(parse(xml)).explain(text, **explain_options)
    except Exception as exc:
        seen["explain_error"] = [type(exc).__name__, str(exc)]
    try:
        result = Engine(parse(xml)).query(text, **options)
    except Exception as exc:
        seen["error"] = [type(exc).__name__, str(exc)]
    else:
        seen.update(strategy=result.strategy, plan=result.plan,
                    answer=result.serialize())
    return seen


def grid(names: list[str]) -> dict:
    """``{row: {document: {shape: observation}}}`` plus the extras."""
    rows = {name: {doc: {shape: observe(xml, text, strategy=name)
                         for shape, text in SHAPES.items()}
                   for doc, xml in DOCUMENTS.items()}
            for name in names}
    extras = {label: observe(xml, text, **options)
              for label, xml, text, options in EXTRAS}
    return {"rows": rows, "extras": extras}


if __name__ == "__main__":
    json.dump(grid(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
