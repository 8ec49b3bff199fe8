"""``explain`` and ``explain_analyze``: the plan decision, rendered.

Presentation only: :func:`render_explain` prints what
:func:`~repro.engine.optimizer.plan_query` decided (without executing
it); :func:`render_explain_analyze` lays one traced execution's operator
spans beside the cost model's estimates.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

from repro.obs.export import format_table
from repro.pattern.decompose import decompose
from repro.xquery.ast import QueryExpr
from repro.engine.compiler import compile_query
from repro.engine.cost import CostModel
from repro.engine.optimizer import plan_query
from repro.engine.request import QueryKey, QueryOptions
from repro.engine.result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session -> explain)
    from repro.engine.session import Engine

__all__ = ["render_explain", "render_explain_analyze"]


def render_explain(engine: Engine, text: str | QueryExpr,
                   strategy: str) -> str:
    """The text of :meth:`Engine.explain`."""
    options = QueryOptions(strategy)
    compiled = compile_query(text)
    plan = plan_query(compiled, QueryKey(text, options), engine)
    lines = [f"strategy: {plan.choice}"]
    if plan.lint is not None and plan.lint.report.findings:
        lines.append("query lint:")
        lines.extend(f"  {line}" for line in plan.lint.describe())
    if plan.choice.strategy == "static-empty" and plan.lint is not None:
        lines.append("rewrite: short-circuit to static empty result: "
                     f"{plan.lint.static_empty}")
    correlations = (compiled.static.correlations
                    if compiled.static is not None else ())
    if correlations:
        lines.append("correlations:")
        for corr in correlations:
            variables = ", ".join(f"${v}" for v in corr.variables)
            lines.append(f"  [{corr.relation}] {variables}: "
                         f"{corr.description}")
    if compiled.tree is not None:
        lines.append("BlossomTree:")
        lines.append(compiled.tree.describe())
        lines.append("decomposition:")
        lines.append(decompose(compiled.tree).describe())
    elif compiled.compile_error:
        lines.append(f"fallback reason: {compiled.compile_error}")
    return "\n".join(lines)


def _scan_label(attrs: Mapping[str, Any]) -> str:
    shared = " (shared scan)" if attrs.get("shared_scan") else ""
    if "shared_with" in attrs:  # a twin: not matched, relabelled
        shared = f" (= NoK#{attrs['shared_with']})"
    return f"scan NoK#{attrs.get('nok_id')} [{attrs.get('root_tag')}]{shared}"


def _join_label(attrs: Mapping[str, Any]) -> str:
    return (f"join V{attrs.get('parent_vid')}->V{attrs.get('child_vid')} "
            f"[{attrs.get('algorithm', '?')}]")


_Estimate = Callable[[CostModel, Mapping[str, Any]], tuple[float, float]]

#: One entry per operator span kind: (span name, row label, the cost
#: model's (nodes, rows) estimate or ``None``, output-cardinality attr).
_OPERATOR_SPANS: tuple[tuple[str, Callable[[Mapping[str, Any]], str],
                             _Estimate | None, str], ...] = (
    ("nok-scan", _scan_label,
     lambda model, attrs: model.nok_estimate(
         str(attrs.get("root_tag", "*"))), "matches"),
    ("inter-join", _join_label,
     lambda model, attrs: model.edge_estimate(
         str(attrs.get("parent_tag", "*")), str(attrs.get("child_tag", "*")),
         str(attrs.get("algorithm", "?"))), "pairs"),
    ("twigstack", lambda attrs: "twigstack (holistic)", None, "matches"),
)


def render_explain_analyze(engine: Engine, result: QueryResult) -> str:
    """The text of :meth:`Engine.explain_analyze` for one traced run."""
    trace, counters = result.trace, result.counters
    assert trace is not None and counters is not None
    model = CostModel(engine.doc)
    rows: list[dict[str, object]] = []
    for name, label, estimate, cardinality in _OPERATOR_SPANS:
        for span in trace.find_all(name):
            attrs = span.attrs
            est_nodes, est_rows = ("-", "-") if estimate is None else tuple(
                f"{value:,.0f}" for value in estimate(model, attrs))
            rows.append({
                "operator": label(attrs),
                "time ms": f"{attrs.get('wall_ms', span.duration_ms):.3f}",
                "nodes": attrs.get("nodes_scanned", 0),
                "est.nodes": est_nodes,
                "cmp": attrs.get("comparisons", 0),
                "rows": attrs.get(cardinality, 0),
                "est.rows": est_rows,
            })

    lines = ["EXPLAIN ANALYZE"]
    root = trace.root
    if root is not None and "source" in root.attrs:
        lines.append(f"query: {root.attrs['source']}")
    lines.append(f"plan: {result.plan}")
    lines.append(f"total: {trace.total_ms:.3f} ms, {len(result)} item(s)")
    lines.append("")
    if rows:
        lines.append(format_table(
            rows, right_align=("time ms", "nodes", "est.nodes", "cmp",
                               "rows", "est.rows")))
    else:
        lines.append("(no per-operator spans: plan ran outside the "
                     "BlossomTree pipeline)")
    phases = [s for name in ("match-phase", "join-phase", "bind-phase",
                             "finish-phase")
              for s in trace.find_all(name)]
    if phases:
        lines.append("")
        lines.append("phases: " + "  ".join(
            f"{s.name.removesuffix('-phase')}={s.duration_ms:.3f}ms"
            for s in phases) + "".join(
            f"  where_conjuncts={s.attrs['where_conjuncts']}"
            for s in phases if "where_conjuncts" in s.attrs))
    lines.append("counters: " + " ".join(
        f"{k}={v}" for k, v in counters.snapshot().items()))
    return "\n".join(lines)
