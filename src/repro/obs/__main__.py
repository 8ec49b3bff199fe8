"""Command-line introspection: ``python -m repro.obs``.

Two subcommands over the runtime statistics surface:

``report``
    Render a saved statistics snapshot as text tables.  Accepts (via
    ``--stats FILE``, or ``-`` for stdin) any of the JSON shapes this
    package produces: a ``Database.stats()`` dict, a
    ``QueryService.stats()`` dict, a raw :meth:`StatsStore.snapshot
    <repro.obs.statstore.StatsStore.snapshot>`, or the JSON-lines
    export of :meth:`StatsStore.to_jsonl
    <repro.obs.statstore.StatsStore.to_jsonl>`.

``demo``
    Build a small in-memory corpus, run a workload against it (each
    query under ``auto``; each bare path once more under an explicit
    second strategy, so the win/loss table has contested rows), and
    render the resulting report.  ``--export FILE`` saves the
    ``Database.stats()`` snapshot as JSON, ``--jsonl FILE`` the
    per-plan JSON-lines export.

Run with::

    python -m repro.obs demo
    python -m repro.obs report --stats stats.json [--top 10] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.export import format_table

_RIGHT = ("execs", "errors", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
          "total_ms", "items", "cache_hits", "wins", "losses", "executions")
_QUERY_WIDTH = 48

#: The ``stats()`` schema version this CLI understands.  Both
#: ``Database.stats()`` and ``QueryService.stats()`` stamp their
#: payloads with ``"schema": 1``; ``report`` rejects anything newer
#: (or otherwise unknown) instead of silently mis-rendering it.  Keys
#: this reader does not render (older payloads carried strategy
#: demotions and a result-size histogram) are ignored.
STATS_SCHEMA = 1


def _clip(text: object, width: int = _QUERY_WIDTH) -> str:
    text = str(text)
    return text if len(text) <= width else text[:width - 1] + "…"


def _plan_rows(plans: list[dict], top: int) -> list[dict[str, object]]:
    rows = []
    for plan in plans[:top]:
        rows.append({
            "query": _clip(plan.get("query", "?")),
            "strategy": plan.get("strategy", "?"),
            "executor": plan.get("executor", "serial"),
            "execs": plan.get("executions", 0),
            "errors": plan.get("errors", 0),
            "mean_ms": plan.get("mean_ms", ""),
            "p50_ms": _opt(plan.get("p50_ms")),
            "p99_ms": _opt(plan.get("p99_ms")),
            "total_ms": plan.get("total_ms", ""),
            "items": plan.get("items_total", 0),
            "cache_hits": plan.get("cache_hits", 0),
        })
    return rows


def _opt(value: object) -> object:
    return "-" if value is None else value


def _strategy_rows(by_strategy: list[dict]) -> list[dict[str, object]]:
    rows = []
    for row in by_strategy:
        rows.append({
            "strategy": row.get("strategy", "?"),
            "executions": row.get("executions", 0),
            "errors": row.get("errors", 0),
            "wins": row.get("wins", 0),
            "losses": row.get("losses", 0),
            "mean_ms": row.get("mean_ms", ""),
            "p50_ms": _opt(row.get("p50_ms")),
            "p95_ms": _opt(row.get("p95_ms")),
            "p99_ms": _opt(row.get("p99_ms")),
            "total_ms": row.get("total_ms", ""),
        })
    return rows


def _cache_line(cache: dict | None) -> str:
    if not cache:
        return "(no plan cache data)"
    ratio = cache.get("hit_ratio")
    ratio_text = "-" if ratio is None else f"{ratio:.2%}"
    return (f"size {cache.get('size', '?')}/{cache.get('capacity', '?')}  "
            f"hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}  "
            f"evictions {cache.get('evictions', 0)}  hit ratio {ratio_text}")


def _ratio_text(ratio) -> str:
    return "-" if ratio is None else f"{ratio:.2%}"


def _result_cache_line(cache: dict) -> str:
    """Render the byte-accounted result-cache section of ``stats()``."""
    if not cache.get("enabled", True) and "size" not in cache:
        return "disabled"
    audit = cache.get("audit") or {}
    return (f"{cache.get('size', 0)} entries  "
            f"{cache.get('bytes', 0)}/{cache.get('capacity_bytes', '?')} B  "
            f"hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}  "
            f"hit ratio {_ratio_text(cache.get('hit_ratio'))}  "
            f"evictions {cache.get('evictions', 0)}  "
            f"expirations {cache.get('expirations', 0)}  "
            f"invalidated {cache.get('invalidated', 0)} "
            f"({audit.get('snapshots_invalidated', 0)} snapshots, "
            f"{audit.get('survivors', 0)} audit survivors)")


def render_statstore(snapshot: dict, top: int = 10) -> str:
    """Text tables over one :meth:`StatsStore.snapshot` dict."""
    lines = [f"runtime statistics: {snapshot.get('records', 0)} recorded "
             f"executions over {snapshot.get('n_plans', 0)} plans"]
    plans = snapshot.get("plans") or []
    if plans:
        lines.append("")
        lines.append(f"top {min(top, len(plans))} plans by accumulated time:")
        lines.append(format_table(_plan_rows(plans, top), right_align=_RIGHT))
    by_strategy = snapshot.get("by_strategy") or []
    if by_strategy:
        lines.append("")
        lines.append("per-strategy win/loss (win = fastest measured mean of "
                     "a contested query):")
        lines.append(format_table(_strategy_rows(by_strategy),
                                  right_align=_RIGHT))
    return "\n".join(lines)


def render_service(stats: dict, top: int = 10) -> str:
    """Text report over one ``QueryService.stats()`` dict."""
    counters = stats.get("counters") or {}
    lines = ["query service:"]
    lines.append(
        f"  workers {stats.get('workers', '?')}  "
        f"queue depth {stats.get('queue_depth', '?')}  "
        f"inflight {stats.get('inflight', '?')}  "
        f"utilization {stats.get('worker_utilization', 0.0):.1%}  "
        f"uptime {stats.get('uptime_s', 0.0):.1f}s")
    if counters:
        pairs = "  ".join(f"{name} {value}"
                          for name, value in sorted(counters.items()))
        lines.append(f"  counters: {pairs}")
    result_cache = stats.get("result_cache")
    if isinstance(result_cache, dict):
        lines.append(f"  result cache: {_result_cache_line(result_cache)}")
    for name, doc in sorted((stats.get("documents") or {}).items()):
        lines.append("")
        lines.append(f"document {name!r} (snapshot "
                     f"{doc.get('snapshot_id', '?')}):")
        lines.append(f"  plan cache: {_cache_line(doc.get('plan_cache'))}")
        store = doc.get("statstore")
        if store:
            lines.append(_indent(render_statstore(store, top)))
    return "\n".join(lines)


def render_report(payload: dict, top: int = 10) -> str:
    """Dispatch on the payload shape and render the full text report."""
    if "documents" in payload and "statstore" not in payload:
        return render_service(payload, top)
    lines = []
    document = payload.get("document")
    if document:
        lines.append(
            f"document: {document.get('n_elements', '?')} elements, "
            f"{document.get('n_distinct_tags', '?')} tags, depth "
            f"{document.get('max_depth', '?')}, "
            f"{'recursive' if document.get('recursive') else 'flat'} "
            f"(fingerprint {document.get('fingerprint', '?')})")
    if "plan_cache" in payload:
        lines.append(f"plan cache: {_cache_line(payload.get('plan_cache'))}")
    slow = payload.get("slow_queries")
    if isinstance(slow, dict):
        lines.append(f"slow-query log: {slow.get('entries', 0)} entries over "
                     f"{slow.get('threshold_ms', '?')} ms")
    store = payload.get("statstore",
                        payload if "plans" in payload else None)
    if store is not None:
        if lines:
            lines.append("")
        lines.append(render_statstore(store, top))
    service = payload.get("service")
    if isinstance(service, dict):
        lines.append("")
        lines.append(render_service(service, top))
    if not lines:
        return "(nothing to report: unrecognized stats payload)"
    return "\n".join(lines)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line if line else line
                     for line in text.splitlines())


def _load_payload(path: str) -> dict:
    """Read a stats payload: JSON dict or the JSONL per-plan export."""
    text = (sys.stdin.read() if path == "-"
            else Path(path).read_text(encoding="utf-8"))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "kind" not in payload:
        return payload
    # JSON-lines export: one dict per line, tagged with "kind"; only
    # "plan" lines are rendered.
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    plans = [record for record in records if record.get("kind") == "plan"]
    plans.sort(key=lambda p: p.get("total_ms", 0.0), reverse=True)
    return {"plans": plans, "n_plans": len(plans),
            "records": sum(p.get("executions", 0) for p in plans),
            "by_strategy": []}


# ----------------------------------------------------------------------
# The demo workload.
# ----------------------------------------------------------------------

_DEMO_BOOKS = 400


def _demo_document() -> str:
    """A small bibliography with skewed predicates (deterministic)."""
    books = []
    for i in range(_DEMO_BOOKS):
        price = 10 + (i * 7) % 60
        year = 1990 + i % 12
        extra = (f"<editor><last>E{i % 5}</last></editor>"
                 if i % 4 == 0 else "")
        books.append(
            f"<book><title>T{i}</title>"
            f"<author><first>F{i % 13}</first><last>L{i % 7}</last></author>"
            f"{extra}<price>{price}</price><year>{year}</year></book>")
    return "<bib>" + "".join(books) + "</bib>"


#: ``(query, explicit second strategy or None)``: each query runs under
#: ``auto``; a bare path runs once more under TwigStack, so the
#: per-strategy win/loss table has contested rows.
_DEMO_QUERIES = (
    ("//book[author]/title", "twigstack"),
    ("//book//last", "twigstack"),
    ("for $b in //book where $b/price > 40 return $b/title", None),
)


def _run_demo(args: argparse.Namespace) -> int:
    import repro

    print("building demo corpus and running the workload "
          f"({args.rounds} rounds x {len(_DEMO_QUERIES)} queries)...\n")
    with repro.connect(_demo_document(), slow_query_ms=250.0) as db:
        for _ in range(args.rounds):
            for query, second in _DEMO_QUERIES:
                db.query(query)
                if second is not None:
                    db.query(query, strategy=second)
        stats = db.stats(top=args.top)
        if args.export:
            Path(args.export).write_text(json.dumps(stats, indent=2),
                                         encoding="utf-8")
            print(f"wrote {args.export}")
        if args.jsonl:
            written = db.engine.stats_store.export_jsonl(args.jsonl)
            print(f"wrote {args.jsonl} ({written} lines)")
        print(render_report(stats, top=args.top))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    try:
        payload = _load_payload(args.stats)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read stats from {args.stats!r}: {exc}",
              file=sys.stderr)
        return 2
    if payload.get("tool") == "repro.analysis":
        print("error: this is a repro.analysis report, not a stats "
              "snapshot; validate it with "
              "'python -m repro.analysis --check-report'", file=sys.stderr)
        return 2
    schema = payload.get("schema", STATS_SCHEMA)
    if schema != STATS_SCHEMA:
        print(f"error: stats payload declares schema {schema!r}; this "
              f"reader understands schema {STATS_SCHEMA} only (upgrade "
              "repro, or re-export the snapshot)", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(payload, top=args.top))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render runtime statistics reports.")
    sub = parser.add_subparsers(dest="command")

    report = sub.add_parser("report", help="render a saved stats snapshot")
    report.add_argument("--stats", required=True,
                        help="JSON stats file ('-' for stdin): Database."
                             "stats(), QueryService.stats(), a raw store "
                             "snapshot, or a JSONL export")
    report.add_argument("--top", type=int, default=10,
                        help="plans to show (default 10)")
    report.add_argument("--json", action="store_true",
                        help="echo the normalized payload as JSON instead "
                             "of tables")

    demo = sub.add_parser("demo", help="run a demo workload and "
                                       "render its report (default)")
    demo.add_argument("--rounds", type=int, default=8,
                      help="workload rounds (default 8)")
    demo.add_argument("--top", type=int, default=10)
    demo.add_argument("--export", help="also write Database.stats() JSON here")
    demo.add_argument("--jsonl", help="also write the per-plan JSONL export")

    args = parser.parse_args(argv)
    if args.command == "report":
        return _run_report(args)
    if args.command is None:
        args = demo.parse_args([])
    return _run_demo(args)


if __name__ == "__main__":
    sys.exit(main())
