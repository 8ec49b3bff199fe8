"""The strategy table is the one place strategy names are spelled.

* The *golden* test replays ``strategy_cases.grid`` — every row of the
  table × query shape × document class, plus the decisions that small
  grid cannot reach — and compares executed strategy, plan text,
  ``explain`` and refusals (error type + message) with what the commit
  before the table (PR 21) produced: the refactor moved the decision,
  not one byte of it.
* The *documentation* test checks the ``strategy`` table in
  ``engine/session.py``'s docstring against the rows.
* The *spelled once* test walks the ``src`` tree's ASTs: no module but
  the table holds a literal collection of three or more strategy names.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import repro
from repro.bench.harness import SYSTEMS
from repro.engine import executor, session
from repro.strategy import STRATEGIES
from tests import strategy_cases

GOLDEN = json.loads((Path(__file__).parent / "data" / "strategy_golden.json")
                    .read_text(encoding="utf-8"))
SRC = Path(repro.__file__).parent


def test_golden_covers_exactly_the_rows():
    assert set(GOLDEN["rows"]) == set(STRATEGIES)
    assert set(GOLDEN["extras"]) == {case[0] for case in
                                     strategy_cases.EXTRAS}


@pytest.mark.parametrize("document", strategy_cases.DOCUMENTS)
@pytest.mark.parametrize("shape", strategy_cases.SHAPES)
@pytest.mark.parametrize("name", STRATEGIES)
def test_decision_is_byte_identical_to_the_parent(name, shape, document):
    seen = strategy_cases.observe(strategy_cases.DOCUMENTS[document],
                                  strategy_cases.SHAPES[shape],
                                  strategy=name)
    assert seen == GOLDEN["rows"][name][document][shape]


@pytest.mark.parametrize("case", strategy_cases.EXTRAS,
                         ids=[case[0] for case in strategy_cases.EXTRAS])
def test_decisions_the_grid_cannot_reach(case):
    label, xml, text, options = case
    assert strategy_cases.observe(xml, text, **options) \
        == GOLDEN["extras"][label]


def test_session_docstring_table_is_the_rows():
    _head, _titles, body, _rest = re.split(r"^=+ =+$", session.__doc__,
                                           flags=re.MULTILINE)
    documented = dict(re.findall(r"^``([a-z-]+)``\s+(.+)$", body,
                                 flags=re.MULTILINE))
    assert documented == {row.name: row.meaning
                          for row in STRATEGIES.values()
                          if row.family != "internal"}


def test_consumers_follow_the_rows():
    joins = {row.join for row in STRATEGIES.values() if row.join}
    assert set(executor._JOIN_OPERATORS) == joins
    assert SYSTEMS == {"XH": "xhive", "TS": "twigstack", "NL": "nl",
                       "PL": "pipelined"}


def _names_in(node: ast.AST) -> set[str]:
    """The strategy names a literal collection spells.  A dict whose
    values are code (``{"stack": stack_desc_join}``) binds names to
    operators — the table cannot import them — and is checked against
    the rows above instead."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        parts = node.elts
    elif isinstance(node, ast.Dict):
        constant_values = [v for v in node.values
                           if isinstance(v, ast.Constant)]
        if not constant_values:
            return set()
        parts = [*node.keys, *constant_values]
    else:
        return set()
    return {part.value for part in parts if isinstance(part, ast.Constant)
            and isinstance(part.value, str)} & set(STRATEGIES)


def test_strategy_names_are_spelled_once():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "strategy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = _names_in(node)
            if len(names) >= 3:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                 f"{sorted(names)}")
    assert not offenders, offenders
