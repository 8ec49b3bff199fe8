"""Query compilation: text → (query expression, FLWOR core, BlossomTree).

The compiler normalizes the three query shapes the public API accepts —
bare path expressions, FLWOR expressions, and element constructors
wrapping a FLWOR — into one :class:`CompiledQuery` that the session
executes.  Compilation of the BlossomTree may fail with
:class:`~repro.errors.CompileError` for constructs outside the
pattern-matching subset; the failure is *recorded*, not raised, so the
session can fall back to direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import verify_tree
from repro.errors import CompileError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pattern.blossom import BlossomTree
from repro.pattern.build import build_blossom_tree, path_as_flwor
from repro.xpath.ast import LocationPath, RootContext
from repro.xquery.ast import FLWOR, QueryExpr, locate_flwor
from repro.xquery.parser import parse_query
from repro.xquery.semantics import StaticReport, scope

__all__ = ["CompiledQuery", "compile_query"]


@dataclass
class CompiledQuery:
    """A parsed query, its FLWOR core (if any), and its BlossomTree."""

    source: str
    query: QueryExpr                   # the full query expression
    flwor: FLWOR | None             # the FLWOR to optimize (None: static)
    is_bare_path: bool                 # query was a single path expression
    tree: BlossomTree | None        # None when compilation failed
    compile_error: str | None       # reason for fallback, if any
    #: External ``$parameters`` — variables the query references but never
    #: binds; execution requires a binding for each (prepared queries).
    parameters: frozenset[str] = frozenset()
    #: The static analysis of a user-written FLWOR (``None`` for bare
    #: paths and static queries); ``explain`` reads its correlations.
    static: StaticReport | None = None

    @property
    def optimizable(self) -> bool:
        return self.flwor is not None and self.tree is not None


def compile_query(text: str | QueryExpr,
                  tracer: Tracer | None = None) -> CompiledQuery:
    """Parse and compile a query string (or pre-parsed expression).

    Free variables are detected and recorded as the query's external
    ``parameters`` — the BlossomTree builder turns a where-conjunct on
    one into a late-bound vertex test (or leaves it to the per-tuple
    test), so the compiled plan has execution-time slots instead of
    baked-in values.

    One scoping walk over the query yields both those parameters and the
    static report of a user-written FLWOR, *before* its pattern is
    built: a scoping error (e.g. a variable bound twice) raises
    :class:`~repro.errors.StaticError` here, whatever strategy will run.

    ``tracer`` (optional) records a ``compile`` span covering parse and
    BlossomTree construction, with the outcome as attributes.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("compile") as span:
        source = text if isinstance(text, str) else str(text)
        query = parse_query(text) if isinstance(text, str) else text

        is_bare_path = isinstance(query, LocationPath)
        if is_bare_path:
            # A top-level path starting with '/' parses with a non-absolute
            # root (predicate convention); at query top level the context
            # item is the document node, so absolutizing is an identity.
            query = _absolutize(query)
            flwor: FLWOR | None = path_as_flwor(query)
            # The query to evaluate IS the synthetic wrapper.
            query = flwor
        else:
            # Nested or multiple FLWORs are left to direct evaluation.
            flwor = locate_flwor(query)

        facts = scope(query)
        parameters = facts.free
        static: StaticReport | None = None
        if flwor is not None and not is_bare_path:
            # Bare paths skip this: their FLWOR is synthesized right
            # here, so user-variable scoping cannot be violated.
            static = facts.report(flwor, external=parameters)
            static.raise_errors(source)
        tree: BlossomTree | None = None
        error: str | None = None
        if flwor is not None:
            try:
                tree = build_blossom_tree(flwor, external=parameters)
            except CompileError as exc:
                error = str(exc)
        if tree is not None:
            # Validate-on-compile: a malformed tree is an internal bug,
            # not a fallback condition — PlanInvariantError propagates.
            verify_report = verify_tree(tree, source=source)
            span.set(verify_findings=len(verify_report.findings))
        span.set(bare_path=is_bare_path, optimizable=tree is not None)
        if parameters:
            span.set(parameters=",".join(sorted(parameters)))
        if error:
            span.set(compile_error=error)
    return CompiledQuery(source, query, flwor, is_bare_path, tree, error,
                         parameters, static)


def _absolutize(path: LocationPath) -> LocationPath:
    if isinstance(path.root, RootContext) and not path.root.absolute:
        return LocationPath(RootContext(absolute=True), path.steps)
    return path
