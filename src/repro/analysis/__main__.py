"""CLI: lint compiled query plans.

Usage::

    python -m repro.analysis query.xq [more.xq ...]
    python -m repro.analysis --examples --workloads
    python -m repro.analysis --examples --json report.json
    python -m repro.analysis --lint --examples --workloads
    python -m repro.analysis --check-report report.json
    python -m repro.analysis --rules

Default mode: each query is compiled (parse → BlossomTree → NoK
decomposition) and every analyzer pass runs over the artifacts.
Findings print lint style (``source:RULE: severity: message``); the
process exits non-zero when any error-severity finding fired, so the
command slots directly into CI.  Queries outside the pattern-matching
subset compile to no artifacts and are reported as skipped — that is
the engine's navigational fallback, not a defect.

``--lint`` switches to the QL query-vs-data satisfiability lint: each
query is checked against the structural summary of a representative
document (the datagen workloads lint against their own generated
datasets; files and the examples corpus against a built-in bibliography
document covering the corpus tags).  A QL error here means the query
provably matches nothing on that document — the engine would rewrite
it to a static-empty plan — so a clean corpus proves the lint fires on
none of the queries we actually serve.

``--json`` payloads are versioned (``"schema": 1``, the convention
shared with ``Database.stats()``); ``--check-report`` re-reads such a
payload (the CI artifact) and refuses unknown schema versions.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.analysis.analyzer import analyze_artifacts
from repro.analysis.corpus import EXAMPLE_QUERIES
from repro.analysis.passes import ast_pass
from repro.analysis.report import AnalysisReport
from repro.analysis.rules import rule_table
from repro.errors import QuerySyntaxError

if TYPE_CHECKING:  # pragma: no cover - the engine imports this package
    from repro.engine.compiler import CompiledQuery
    from repro.xmlkit.summary import StructuralSummary

__all__ = ["main", "analyze_query_text"]

#: JSON report schema version (the ``Database.stats()`` convention):
#: bump when the payload shape changes incompatibly; readers refuse
#: versions they do not know.
REPORT_SCHEMA = 1

#: Built-in document the examples corpus (and ad-hoc query files) lint
#: against in ``--lint`` mode: one bibliography covering every tag and
#: attribute the corpus queries touch, so a lint finding on the corpus
#: means the *lint* regressed, not the document.
_EXAMPLE_DOC = """\
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Buneman</last><first>Peter</first></author>
    <price>39.95</price>
  </book>
  <item>
    <subtitle>A survey</subtitle>
    <isbn>1-55860-622-X</isbn>
  </item>
</bib>
"""


def analyze_query_text(text: str,
                       source: str = "<query>") -> AnalysisReport | None:
    """Compile one query and analyze its artifacts.

    Returns ``None`` when the query falls outside the pattern-matching
    subset (navigational fallback: nothing to verify).  Raises
    :class:`~repro.errors.QuerySyntaxError` for unparseable input.
    """
    from repro.engine.compiler import compile_query

    compiled = compile_query(text)
    if compiled.tree is None:
        return None
    return _invariant_report(compiled, source)


def _invariant_report(compiled: CompiledQuery,
                      source: str) -> AnalysisReport:
    """Every analyzer pass over one compiled query's artifacts."""
    from repro.pattern.artifact import prepare_artifacts

    report = AnalysisReport(source=source)
    if compiled.flwor is not None:
        ast_pass(compiled.flwor, report, external=compiled.parameters)
    report.extend(analyze_artifacts(prepare_artifacts(compiled.tree),
                                    source=source))
    return report


def _check_report(path: str) -> int:
    """Validate a ``--json`` report written by an earlier run.

    An unknown ``schema`` means a newer (or older) writer produced the
    payload and this reader must not guess at its shape.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict) or payload.get("tool") != "repro.analysis":
        print(f"error: {path} is not a repro.analysis report "
              "(missing tool marker)", file=sys.stderr)
        return 2
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        print(f"error: report declares schema {schema!r}; this reader "
              f"understands schema {REPORT_SCHEMA} only (upgrade repro, "
              "or regenerate the report)", file=sys.stderr)
        return 2
    errors = int(payload.get("errors", 0))
    warnings = int(payload.get("warnings", 0))
    parse_failures = int(payload.get("parse_failures", 0))
    print(f"report {path}: schema {schema}, mode {payload.get('mode')}, "
          f"{payload.get('queries_analyzed', 0)} analyzed, "
          f"{errors} error(s), {warnings} warning(s), "
          f"{parse_failures} parse failure(s)")
    if parse_failures:
        return 2
    return 1 if errors else 0


def _queries(args: argparse.Namespace
             ) -> dict[str, tuple[str, StructuralSummary | None]]:
    """``source -> (text, summary)`` for every query the command names.

    Under ``--lint``, ad-hoc files and the examples corpus lint against
    the built-in bibliography; each workload query lints against the
    structural summary of its *own* generated dataset, so the lint
    judges the query on the document it actually runs over.  The
    invariant passes read no document (the summary is ``None``).
    """
    from repro.xmlkit.parser import parse
    from repro.xmlkit.summary import build_summary

    queries: dict[str, tuple[str, StructuralSummary | None]] = {}
    example_summary = None
    if args.lint and (args.files or args.examples):
        example_summary = build_summary(parse(_EXAMPLE_DOC))
    for path in args.files:
        with open(path, encoding="utf-8") as handle:
            queries[path] = (handle.read(), example_summary)
    if args.examples:
        for source, text in EXAMPLE_QUERIES.items():
            queries[source] = (text, example_summary)
    if args.workloads:
        from repro.datagen.workload import DATASETS

        for name, dataset in DATASETS.items():
            summary = (build_summary(dataset.generate(scale=args.scale))
                       if args.lint else None)
            for spec in dataset.queries:
                queries[f"{name}:{spec.qid}"] = (spec.text, summary)
    return queries


def _run(args: argparse.Namespace) -> int:
    """Analyze every query: the artifact invariants, or (``--lint``)
    the QL query-vs-data satisfiability lint."""
    from repro.analysis.query import analyze_query
    from repro.engine.compiler import compile_query

    try:
        queries = _queries(args)
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc}", file=sys.stderr)
        return 2

    reports: list[AnalysisReport] = []
    skipped: dict[str, str] = {}
    parse_failures = 0
    static_empty = 0
    for source, (text, summary) in queries.items():
        try:
            compiled = compile_query(text)
        except QuerySyntaxError as exc:
            parse_failures += 1
            print(f"{source}: parse error: {exc}", file=sys.stderr)
            continue
        if compiled.tree is None:
            skipped[source] = ("navigational fallback (no pattern to lint)"
                               if args.lint else "navigational fallback "
                               "(no pattern artifacts)")
            if not args.quiet:
                print(f"{source}: skipped (outside the pattern-matching "
                      "subset)")
            continue
        if args.lint:
            lint = analyze_query(
                compiled.tree, summary,
                flwor=None if compiled.is_bare_path else compiled.flwor,
                source=source)
            report = lint.report
            static_empty += bool(lint.static_empty)
        else:
            report = _invariant_report(compiled, source)
        reports.append(report)
        for finding in report.findings:
            print(finding.format(source))
        if not args.quiet and report.clean:
            print(f"{source}: ok" if args.lint else
                  f"{source}: ok ({', '.join(report.passes_run)})")

    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    print(f"{'linted' if args.lint else 'analyzed'} {len(reports)} "
          f"quer{'y' if len(reports) == 1 else 'ies'}"
          f" ({len(skipped)} skipped): {errors} error(s), "
          f"{warnings} warning(s)"
          + (f", {static_empty} statically empty" if args.lint else ""))

    if args.json:
        payload = {
            "tool": "repro.analysis",
            "schema": REPORT_SCHEMA,
            "mode": "lint" if args.lint else "invariants",
            "queries_analyzed": len(reports),
            "queries_skipped": len(skipped),
            "parse_failures": parse_failures,
            "errors": errors,
            "warnings": warnings,
            **({"static_empty": static_empty} if args.lint else {}),
            "skipped": skipped,
            "reports": [report.to_dict() for report in reports],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        if not args.quiet:
            print(f"wrote JSON report to {args.json}")

    if parse_failures:
        return 2
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static invariant analysis of compiled query plans.")
    parser.add_argument("files", nargs="*", metavar="QUERY_FILE",
                        help="files containing one query each")
    parser.add_argument("--examples", action="store_true",
                        help="analyze the built-in examples corpus")
    parser.add_argument("--workloads", action="store_true",
                        help="analyze the datagen benchmark workloads (d1-d5)")
    parser.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--lint", action="store_true",
                        help="run the QL query-vs-data lint against "
                             "generated documents instead of the artifact "
                             "invariants")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="datagen scale factor for --lint --workloads "
                             "documents (default 0.1; below that the rare "
                             "high-selectivity labels vanish and the lint "
                             "correctly flags the workload queries)")
    parser.add_argument("--check-report", metavar="PATH", default=None,
                        help="validate a previously written --json report "
                             "(refuses unknown schema versions) and exit")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write a machine-readable JSON report")
    parser.add_argument("--quiet", action="store_true",
                        help="only print findings and the final summary")
    args = parser.parse_args(argv)

    if args.rules:
        print(rule_table())
        return 0
    if args.check_report is not None:
        return _check_report(args.check_report)
    if not (args.files or args.examples or args.workloads):
        parser.error("nothing to analyze: pass query files, --examples "
                     "and/or --workloads")
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
