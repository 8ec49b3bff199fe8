"""The BlossomTree FLWOR executor.

Execution pipeline (Figure 2's data flow, made concrete):

1. **Match** — every NoK pattern tree is evaluated with the merged
   sequential scan (one pass over the document, Section 4.2 technique
   1), producing per-NoK NestedList sequences in document order.  The
   request's bindings go with every scan and re-scan: pushed
   ``$v/path op $p`` where-conjuncts are decided here.
2. **Join** — every inter-NoK edge is evaluated with the physical join
   the plan pins (the range join unless a strategy row names another),
   producing one run of the right input per ancestor.  Mandatory
   inter edges then run a bottom-up semi-join reduction: nodes without
   a partner are σ-filtered out of their NestedLists, cascading through
   the mandatory-edge rules.
3. **Bind** — tuples are enumerated in clause order.  A for-variable's
   candidates are found by walking its vertex chain from its anchor
   (the variable it dereferences, or the document root), moving through
   NestedList run tables on local edges and through join runs on cut
   edges; a let-variable binds the whole candidate sequence.  A cut
   hop yields the union of its left nodes' runs, unique and in document
   order; only a group hop from nodes that may nest deduplicates by
   node (XPath's set semantics).  An ``=`` crossing edge between two
   for-variables is a hash value join (:class:`_ValueJoin`), so only
   joined pairs are bound.  A *projection* (one root-anchored ``for``
   returning its variable or a path off it that is a pattern vertex,
   nothing to verify, join or order: every bare path) binds no tuple:
   its answer is the concatenation of its candidates' runs.
4. **Finish** — the where-conjuncts the scan did not decide exactly
   are verified per tuple (every crossing edge is, joined or not:
   ``<<``/``!=``/``deep-equal`` pairs are found by enumeration, the
   paper's nested-loop value join; ``pushed-exact`` conjuncts are not
   evaluated again), then order by and return-clause construction run.
   Return-clause paths and ``order by`` keys off a clause variable are
   optional vertices of the pattern (``BlossomTree.path_vertex``): the
   finish reads their runs off the tuple, walked like a let, and keys
   numbers off the typed-value column; only a residual where or a
   leaf that stays XPath builds the tuple's variable mapping.

Nothing in the loops of phases 1, 3 and 4 interprets the plan: the NoK
matchers (:func:`~repro.physical.nok.matcher_for`), each variable's
bind walk and the finish are compiled on the plan's first execution and
kept with its pattern, for every later execution, binding and thread.
The oracle's :class:`~repro.engine.construct.DirectEvaluator` shares
the comparison rules, order key and result builder with them.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from operator import attrgetter
from typing import Any, NamedTuple, cast

from repro.errors import CompileError, UsageError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.pattern.artifact import PatternArtifacts, prepare_artifacts
from repro.pattern.blossom import (MODE_MANDATORY, BlossomTree,
                                   BlossomVertex, CrossingEdge, TreeEdge)
from repro.pattern.build import RESULT_VAR, build_blossom_tree
from repro.pattern.decompose import Decomposition, InterEdge, NoKTree
from repro.xmlkit.partition import partition_document
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Constructed, Document, Node
from repro.xpath.ast import BooleanExpr, LocationPath, RootVariable
from repro.xpath.compile import (Bindings, Test, compile_expr, compile_test,
                                 typed_number)
from repro.xquery.ast import FLWOR, ForClause, OrderSpec, QueryExpr
from repro.algebra.env import Env
from repro.algebra.nested_list import Groups, project, projection_path
from repro.algebra.operators import select
from repro.physical.nested_loop import (
    bounded_nested_loop_join,
    naive_nested_loop_join,
)
from repro.physical.nok_merge import merged_scan
from repro.physical.parallel_scan import ScanPools, parallel_merged_scan
from repro.physical.pipelined_join import pipelined_desc_join
from repro.physical.stack_join import stack_desc_join
from repro.physical.structural import JoinResult, left_projection
from repro.physical.twigstack import TwigStackOperator, twig_supported
from repro.engine.backend import ExecutionBackend
from repro.engine.construct import (DirectEvaluator, Emitter, compile_emitter,
                                    order_key, run_key, sort_tuples)
from repro.engine.result import Item
from repro.strategy import STRATEGIES

__all__ = ["FLWORExecutor"]

#: The physical operator behind each join a strategy row can pin
#: (``Strategy.join``; the table test holds the two in step).  Merge
#: joins take the two ordered streams, rescanning joins the inner NoK.
_JOIN_OPERATORS: dict[str, Callable[..., JoinResult]] = {
    "pipelined": pipelined_desc_join,
    "stack": stack_desc_join,
    "bnlj": bounded_nested_loop_join,
    "nl": naive_nested_loop_join,
}

_JOIN_SELECTED = REGISTRY.counter(
    "repro_join_selected_total",
    "Per-edge physical join algorithm selections")


#: A walk down a vertex chain: one ``(cut, edge)`` hop per chain
#: vertex, ``edge`` = (parent vid, child vid) — through the join keyed
#: ``edge`` on a cut edge, else through the child's run table.
_Hops = tuple[tuple[bool, tuple[int, int]], ...]
_Joins = dict[tuple[int, int], JoinResult]
#: A clause variable's nodes in a tuple, walked down a vertex chain:
#: ``fn(env, groups, joins)``, unique and in document order.
_Nodes = Callable[[Env, Groups, _Joins], list[Node]]
#: One clause variable's candidate walk ``(var, iterates, anchor,
#: hops)``, resolved from the pattern: ``iterates`` tells ``for`` from
#: ``let``; ``anchor`` walks ``hops`` from an earlier variable's nodes
#: in the outer tuple, or is the vid of the root NoK whose matches the
#: walk starts at.
_Bind = tuple[str, bool, "_Nodes | int", _Hops]


class _ValueJoin(NamedTuple):
    """A non-negated ``=`` crossing edge, hash-joined while the later of
    its two for-variables — root-anchored: one candidate list per
    execution, the build side — is bound.  A side's atoms are the typed
    values of its endpoint's matches inside its variable's match (π
    compiled per side into a table path); key equality is ``=`` on such
    atoms and general comparison is existential, so a candidate sharing
    no key cannot satisfy the conjunct (which the finish verifies all
    the same)."""

    text: str
    #: The earlier variable's node in an outer tuple.
    probe: Callable[[Env], Node]
    #: From a match of the probe (build) variable to its side's nodes.
    probe_side: tuple[int, ...]
    build_side: tuple[int, ...]


class _Finish(DirectEvaluator):
    """The finish's evaluator: the oracle's, plus the run tables and
    joins of this execution, which the compiled leaves read."""

    def __init__(self, doc: Document, groups: Groups, joins: _Joins
                 ) -> None:
        super().__init__(doc)
        self.groups = groups
        self.joins = joins


#: One surviving tuple as the finish's leaves read it: its links, and
#: its variables over the request's (``None`` when neither the where
#: test nor any leaf reads them).
_Row = tuple[Env, "Bindings | None"]
#: A compiled ``order by``: the sortable key of one tuple.
_Key = Callable[[_Finish, _Row], object]


class _Program(NamedTuple):
    """What :attr:`BlossomTree.compiled` holds: the bind walk and the
    finish of the FLWOR the tree was built from."""

    binds: tuple[_Bind, ...]
    #: bind index of the build variable -> the join run there.
    joins: dict[int, _ValueJoin]
    #: The conjuncts the scan did not decide exactly; ``None``: none.
    where: Test | None
    where_conjuncts: int
    #: ``None``: no order by.
    order: _Key | None
    emit: Emitter
    #: Whether the where test or a leaf of the finish reads the tuple's
    #: variable mapping (:meth:`Env.as_variables`).
    variables: bool
    #: One root-anchored ``for`` returning its variable or a path off it
    #: that is a pattern vertex, with nothing to verify, join or order:
    #: the answer is the concatenation of each candidate's run.
    projection: bool
    #: From a candidate to the nodes its tuple returns (``()``: itself).
    output: _Hops


def _compile(flwor: FLWOR, tree: BlossomTree) -> _Program:
    binds: list[_Bind] = []
    position: dict[str, int] = {}
    for at, clause in enumerate(flwor.clauses):
        vertex = tree.var_vertex[clause.var]
        top = vertex
        while top.parent_edge is not None:
            top = top.parent_edge.parent
            if top.variables:
                break
        hops = _hops(vertex, top)
        binds.append((
            clause.var, isinstance(clause, ForClause),
            # A variable bound at a pattern root (``$d in doc("x")``)
            # walks from that root's own matches.
            _nodes(binds, position[top.variables[0]], at, hops)
            if hops and top.variables else top.vid, hops))
        position[clause.var] = at
    joins: dict[int, _ValueJoin] = {}
    for conjunct in tree.where:
        edge = conjunct.target
        if isinstance(edge, CrossingEdge) and edge.relation == "=" \
                and not edge.negated:
            sides = sorted((position[var], var, side.vid, side)
                           for side in (edge.u, edge.v)
                           for var in (_owner(side),) if var)
            if len(sides) == 2 and sides[0][0] < sides[1][0] \
                    and isinstance(binds[sides[1][0]][2], int):
                (k, probe, _, probe_side), (at, build, _, build_side) = sides
                joins.setdefault(at, _ValueJoin(
                    str(conjunct.expr), _link(at - 1 - k),
                    projection_path(tree.var_vertex[probe], probe_side),
                    projection_path(tree.var_vertex[build], build_side)))
    verify = [c.expr for c in tree.where if c.disposition != "pushed-exact"]

    def reads(expr: object) -> tuple[int, _Hops] | None:
        """``(clause index, hops)`` when ``expr`` is a clause variable,
        or a path off one whose leaf is a pattern vertex: the finish
        reads the variable's nodes, walked down ``hops``."""
        if not isinstance(expr, LocationPath) \
                or not isinstance(expr.root, RootVariable) \
                or expr.root.name not in position:
            return None
        var = expr.root.name
        if not expr.steps:
            return position[var], ()
        leaf = tree.path_vertex.get(expr)
        return None if leaf is None \
            else (position[var], _hops(leaf, tree.var_vertex[var]))

    mapped = bool(verify)

    def leaf(expr: QueryExpr) -> Emitter:
        nonlocal mapped
        read = reads(expr)
        if read is not None:
            nodes = _nodes(binds, read[0], len(binds), read[1])
            return lambda direct, row: nodes(row[0], direct.groups,
                                             direct.joins)
        mapped = True
        if isinstance(expr, FLWOR):
            return lambda direct, row: direct.eval_flwor(expr, row[1])
        value = compile_expr(expr)

        def items(direct: DirectEvaluator, row: _Row) -> list[Item]:
            result = value(direct.doc.document_node,
                           cast(Bindings, row[1]), direct.resolve)
            return list(result) if isinstance(result, list) else [result]
        return items

    def key(spec: OrderSpec) -> _Key:
        nonlocal mapped
        read, descending = reads(spec.key), spec.descending
        if read is not None:
            nodes = _nodes(binds, read[0], len(binds), read[1])
            return lambda direct, row: run_key(
                nodes(row[0], direct.groups, direct.joins), descending)
        mapped = True
        value = compile_expr(spec.key)
        return lambda direct, row: order_key(value(
            direct.doc.document_node, cast(Bindings, row[1]),
            direct.resolve), descending)

    keys = [key(spec) for spec in flwor.order_by]
    # One key sorts as itself, several as a list.
    order: _Key | None = None if not keys else keys[0] if len(keys) == 1 \
        else lambda direct, row: [each(direct, row) for each in keys]
    emit = compile_emitter(flwor.return_expr, leaf)
    var, iterates, anchor, _ = binds[0]
    output = reads(flwor.return_expr)
    return _Program(
        tuple(binds), joins,
        None if not verify else compile_test(
            verify[0] if len(verify) == 1
            else BooleanExpr("and", tuple(verify))),
        len(verify), order, emit, mapped,
        len(binds) == 1 and iterates and isinstance(anchor, int)
        and output is not None and not verify and not keys and not joins,
        output[1] if output is not None else ())


def _hops(vertex: BlossomVertex, top: BlossomVertex) -> _Hops:
    """The walk from ``top``'s matches down to ``vertex``'s."""
    hops = []
    while vertex is not top:
        edge = cast(TreeEdge, vertex.parent_edge)
        hops.append((edge.cut, (edge.parent.vid, vertex.vid)))
        vertex = edge.parent
    return tuple(reversed(hops))


def _link(depth: int) -> Callable[[Env], Any]:
    """The binding ``depth`` links up a tuple: every clause adds one
    link to each tuple, so a clause variable sits at a fixed depth."""
    return attrgetter("parent." * depth + "binding")


def _nodes(binds: list[_Bind], at: int, below: int, hops: _Hops) -> _Nodes:
    """Clause ``at``'s nodes in a tuple of ``below`` clauses, walked
    down ``hops``."""
    binding = _link(below - 1 - at)
    if not binds[at][1]:
        return lambda env, groups, joins: _walk(groups, joins,
                                                binding(env), hops)
    if len(hops) == 1 and not hops[0][0]:
        # One group hop from one node: its run.
        vid = hops[0][1][1]
        return lambda env, groups, joins: groups.get(vid, _NO_RUNS).get(
            binding(env)) or []
    return lambda env, groups, joins: _walk(groups, joins, [binding(env)],
                                            hops)


#: What a vertex without a run table reads (never written).
_NO_RUNS: dict[Node, list[Node]] = {}


def _owner(vertex: BlossomVertex) -> str | None:
    """The for-variable ``vertex`` hangs under by uncut edges, if any
    (``None`` past a cut edge, under a let, or under no variable)."""
    while not vertex.variables:
        edge = vertex.parent_edge
        if edge is None or edge.cut:
            return None
        vertex = edge.parent
    var = vertex.variables[0]
    return var if len(vertex.variables) == 1 \
        and vertex.var_kinds[var] == "for" else None


def _join_keys(node: Node, side: tuple[int, ...], groups: Groups
               ) -> set[object]:
    """The atoms a value-join side compares, for one match of its
    variable: each match's typed value, read off the typed-value column
    (NaN: text, its stripped string)."""
    keys: set[object] = set()
    for match in project((node,), side, groups):
        number = typed_number(match)
        keys.add(number if number == number
                 else match.string_value().strip())
    return keys


class FLWORExecutor:
    """Executes one FLWOR expression through the BlossomTree pipeline.

    Parameters
    ----------
    doc:
        The document every pattern root scans, ``doc(uri)`` or not.
    join_algorithm:
        The join every ``//``-edge runs (a strategy row's ``join``); the
        default, ``stack``, is the range join, sound on any input.
    counters:
        Shared work counters (created if omitted; exposed as
        ``self.counters``).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When given, each of
        the four pipeline phases opens a span, with one child span per
        NoK scan and per inter-NoK join; defaults to the no-op tracer.
    backend:
        Run the match phase partition-parallel on this
        :class:`~repro.engine.backend.ExecutionBackend`
        (:func:`~repro.physical.parallel_scan.parallel_merged_scan`);
        ``None``, the default, keeps the serial merged scan.
    scan_pools:
        The owning stack's
        :class:`~repro.physical.parallel_scan.ScanPools` (``None`` uses
        the process-wide fallback).
    """

    def __init__(self, doc: Document,
                 join_algorithm: str = "stack",
                 counters: ScanCounters | None = None,
                 tracer: Tracer | None = None,
                 *, backend: ExecutionBackend | None = None,
                 scan_pools: ScanPools | None = None) -> None:
        self.doc = doc
        if join_algorithm not in _JOIN_OPERATORS:
            raise UsageError(f"unknown join algorithm {join_algorithm!r}")
        self.join_algorithm = join_algorithm
        self.counters = counters if counters is not None else ScanCounters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer is not NULL_TRACER
        self.backend = backend
        self.scan_pools = scan_pools
        #: (parent_vid, child_vid) -> JoinResult, filled during execute()
        self._joins: _Joins = {}
        #: The run tables of every NoK, filled by the match phase of
        #: execute() and replaced in part by σ.
        self._groups: Groups = {}
        #: The request's bindings, as every scan and re-scan is given them
        #: (late-bound vertex tests read them); set by execute().
        self._variables: Bindings = {}
        #: filled during execute(), for explain()
        self.plan_notes: list[str] = []

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def execute(self, flwor: FLWOR,
                artifacts: PatternArtifacts | None = None,
                bindings: dict | None = None) -> list[Item]:
        """Run the full pipeline; raises CompileError for unsupported
        constructs (callers fall back to direct evaluation).

        ``artifacts`` replays a precomputed pattern compilation (tree +
        NoK decomposition) instead of rebuilding it — the
        prepared-query / plan-cache hot path.  ``bindings`` supplies
        values for the query's external ``$parameters``; the scans read
        them for late-bound vertex tests, and they are merged under
        every tuple's own bindings for where verification, order by and
        return construction (query variables shadow externals, matching
        static scoping).
        """
        if artifacts is None:
            external = frozenset(bindings) if bindings else frozenset()
            tree = build_blossom_tree(flwor, external=external)
            artifacts = prepare_artifacts(tree)
        tree = artifacts.tree
        dec = artifacts.decomposition
        base = dict(bindings) if bindings else {}
        self._variables = base
        program = cast("_Program | None", tree.compiled)
        if program is None:
            # First execution of this plan: compile the bind walk and
            # the finish once; later executions, bindings and threads
            # reuse them (a race only compiles an equal program twice).
            program = tree.compiled = _compile(flwor, tree)

        with self.tracer.span("match-phase") as span:
            matches = self._match_phase(dec)
            span.set(noks=len(dec.noks),
                     entries=sum(len(v) for v in matches.values()))
        with self.tracer.span("join-phase") as span:
            matches = self._join_phase(dec, matches)
            span.set(edges=len(dec.inter_edges))
        roots = {nok.root.vid: matches.get(nok.nok_id, [])
                 for nok in dec.root_noks()}
        with self.tracer.span("bind-phase") as span:
            if program.projection:
                # Theorem 1: the candidates are ordered, once each.
                (_, _, anchor, hops), = program.binds
                candidates = _walk(self._groups, self._joins,
                                   roots.get(cast(int, anchor), []), hops)
                span.set(tuples=len(candidates), value_joins=[])
            else:
                envs = self._bind_phase(program, roots, span)

        # Finish: where verification, order by, return construction.
        # Without order by a tuple is emitted as soon as where accepts
        # it.  Return and order-by paths that are pattern vertices read
        # the tuple's runs; only a where test or another leaf needs the
        # variable mapping.
        with self.tracer.span("finish-phase") as span:
            if program.projection:
                self.counters.comparisons += len(candidates)
                answer = cast("list[Item]", self._concatenation(
                    candidates, program.output))
                span.set(surviving=len(candidates), items=len(answer),
                         where_conjuncts=0, constructed=0)
                return answer
            where, order, emit = program.where, program.order, program.emit
            mapped = program.variables
            direct = _Finish(self.doc, self._groups, self._joins)
            item, resolve = self.doc.document_node, direct.resolve
            items: list[Item] = []
            survivors = 0
            rows: list[_Row] = []
            merged = None
            for env in envs:
                self.counters.comparisons += 1
                if mapped:
                    merged = {**base, **env.as_variables()} if base \
                        else env.as_variables()
                    if where is not None \
                            and not where(item, merged, resolve):
                        continue
                survivors += 1
                if order is None:
                    items.extend(emit(direct, (env, merged)))
                else:
                    rows.append((env, merged))
            if order is not None:
                for row in sort_tuples(rows, lambda row: order(direct, row)):
                    items.extend(emit(direct, row))
            span.set(surviving=survivors, items=len(items),
                     where_conjuncts=program.where_conjuncts,
                     constructed=sum(type(item) is Constructed
                                     for item in items))
        return items

    def execute_twigstack(self, flwor: FLWOR,
                          artifacts: PatternArtifacts | None = None,
                          ) -> list[Item]:
        """Evaluate a bare-path FLWOR holistically with TwigStack.

        Only applicable when the BlossomTree is a single twig and the
        query is the synthetic ``for $#result in path return $#result``
        wrapper (Table 3's TS column runs path queries).
        """
        tree = artifacts.tree if artifacts is not None \
            else build_blossom_tree(flwor)
        if not twig_supported(tree):
            raise CompileError("TwigStack requires a single //-twig pattern")
        if set(tree.var_vertex) != {RESULT_VAR} or flwor.where or flwor.order_by:
            raise CompileError("TwigStack strategy only runs bare path queries")
        with self.tracer.span("twigstack") as span:
            before = self.counters.snapshot()
            operator = TwigStackOperator(tree, self.doc,
                                         counters=self.counters)
            output = tree.var_vertex[RESULT_VAR]
            nodes = list(operator.matching_nodes(output))
            span.set(matches=len(nodes),
                     nodes_scanned=self.counters.nodes_scanned
                     - before["nodes_scanned"],
                     comparisons=self.counters.comparisons
                     - before["comparisons"])
        return nodes

    # ------------------------------------------------------------------
    # Phase 1: NoK matching (merged scans, Section 4.2 technique 1).
    # ------------------------------------------------------------------

    def _match_phase(self, dec: Decomposition) -> dict[int, list[Node]]:
        noks, doc, backend = dec.noks, self.doc, self.backend
        parallelism = backend.parallelism if backend is not None else 1
        partitions = (partition_document(doc, parallelism)
                      if backend is not None else [])
        self.plan_notes.append(
            (f"partition-parallel scan over {len(partitions)} partitions"
             if len(partitions) > 1 else "merged scan")
            + f": {len(noks)} NoK(s) in one pass over "
            f"{len(doc.nodes)} nodes")
        with self.tracer.span("merged-scan", noks=len(noks),
                              doc_nodes=len(doc.nodes),
                              parallelism=parallelism) as scan_span:
            before_nodes = self.counters.nodes_scanned
            before_cmp = self.counters.comparisons
            per_nok: dict[int, ScanCounters] | None = (
                {} if self._tracing else None)
            started = time.perf_counter_ns()
            self._groups = groups = {}
            if backend is not None:
                matches = parallel_merged_scan(
                    noks, doc, self.counters, per_nok,
                    variables=self._variables,
                    backend=backend, pools=self.scan_pools,
                    partitions=partitions,
                    tracer=self.tracer if self._tracing else None,
                    groups=groups)
            else:
                matches = merged_scan(noks, doc, self.counters, per_nok,
                                      variables=self._variables,
                                      groups=groups)
            wall_ms = (time.perf_counter_ns() - started) / 1e6
            scan_nodes = self.counters.nodes_scanned - before_nodes
            scan_span.set(
                nodes_scanned=scan_nodes,
                comparisons=self.counters.comparisons - before_cmp)
            roots = sorted({nok.root.name for nok in noks} - {"#root"})
            if roots and "*" not in roots:
                # Every root a name test: the scan walked postings, and
                # over the whole document delivered all of them.
                found = [doc.derived.index.cardinality(tag) for tag in roots]
                scan_span.set(candidates=sum(found))
                self.plan_notes.append(
                    "candidates from postings: " + ", ".join(
                        f"{tag}\u00d7{n}" for tag, n in zip(roots, found)))
            if self._tracing:
                self._trace_noks(noks, matches, per_nok or {},
                                 scan_nodes, wall_ms)
        for entries in matches.values():
            self.counters.intermediate_results += len(entries)
        return matches

    def _trace_noks(self, noks: list[NoKTree],
                    result: dict[int, list[Node]],
                    per_nok: dict[int, ScanCounters],
                    scan_nodes: int, wall_ms: float) -> None:
        """One child span per NoK tree under the merged-scan span.

        The driving scan is shared across the NoKs (that is the point of
        merging), so each span reports the shared scan's node count and
        wall time with ``shared_scan=True``, plus the per-NoK work
        (comparisons, matches) attributed privately by ``merged_scan``
        — none for a twin, whose list is its ``shared_with`` NoK's.
        """
        for nok in noks:
            entries = result.get(nok.nok_id, [])
            private = per_nok.get(nok.nok_id)
            with self.tracer.span("nok-scan") as span:
                span.set(nok_id=nok.nok_id,
                         root_tag=nok.root.name,
                         matches=len(entries),
                         nodes_scanned=scan_nodes,
                         comparisons=private.comparisons if private else 0,
                         shared_scan=True,
                         wall_ms=round(wall_ms, 3))
                if nok.twin_of is not None:
                    span.set(shared_with=nok.twin_of)

    # ------------------------------------------------------------------
    # Phase 2: structural joins + bottom-up semi-join reduction.
    # ------------------------------------------------------------------

    def _join_phase(self, dec: Decomposition,
                    matches: dict[int, list[Node]]) -> dict[int, list[Node]]:
        self._joins = {}
        depth = _nok_depths(dec)
        # Deepest NoKs first, so every edge sees an already-reduced
        # right side and reductions cascade toward the roots.
        edges = sorted(dec.inter_edges, key=lambda e: depth[e.nok_to], reverse=True)
        for edge in edges:
            right = matches.get(edge.nok_to, [])
            left = matches.get(edge.nok_from, [])
            with self.tracer.span("inter-join",
                                  parent_vid=edge.parent.vid,
                                  child_vid=edge.child.vid,
                                  parent_tag=edge.parent.name,
                                  child_tag=edge.child.name,
                                  axis=edge.axis) as span:
                before_nodes = self.counters.nodes_scanned
                before_cmp = self.counters.comparisons
                result = self._run_join(dec, edge, left, right, span)
                span.set(left=len(left), right=len(right),
                         pairs=result.pairs,
                         nodes_scanned=self.counters.nodes_scanned
                         - before_nodes,
                         comparisons=self.counters.comparisons - before_cmp)
            self._joins[(edge.parent.vid, edge.child.vid)] = result
            if edge.mode == MODE_MANDATORY:
                ranges = result.ranges
                matches[edge.nok_from] = select(
                    left, self._groups, dec.noks[edge.nok_from].root,
                    edge.parent, lambda node: node.nid in ranges)
        return matches

    def _run_join(self, dec: Decomposition, edge: InterEdge,
                  left: list[Node], right: list[Node],
                  span: Span | None = None) -> JoinResult:
        if edge.axis != "descendant":
            raise CompileError(f"inter-NoK axis {edge.axis!r} has no join "
                               "operator (navigational fallback required)")
        if not left or not right:
            if span is not None:
                span.set(algorithm="empty-input")
            return JoinResult(edge)

        # Vacuous join: everything is a descendant of the document node.
        if edge.parent.name == "#root":
            result = JoinResult(edge, right,
                                {self.doc.document_node.nid: (0, len(right))},
                                len(right))
            self.plan_notes.append(
                f"join V{edge.parent.vid}->V{edge.child.vid}: vacuous (document root)")
            if span is not None:
                span.set(algorithm="vacuous")
            return result

        algorithm = self.join_algorithm
        self.plan_notes.append(
            f"join V{edge.parent.vid}->V{edge.child.vid}: {algorithm}")
        _JOIN_SELECTED.inc(algorithm=algorithm)
        if span is not None:
            span.set(algorithm=algorithm)
        projection = left_projection(left, edge, self._groups)
        operator = _JOIN_OPERATORS[algorithm]
        if STRATEGIES[algorithm].rescans is None:
            return operator(projection, right, edge, self.counters)
        # The nested loops re-discover inner matches by scanning and keep
        # those the bottom-up-reduced right entries hold, so deeper
        # mandatory joins stay enforced.
        return operator(projection, right, dec.nok_of(edge.child), self.doc,
                        edge, self.counters, variables=self._variables)

    # ------------------------------------------------------------------
    # Phase 3: tuple enumeration (variable binding).
    # ------------------------------------------------------------------

    def _bind_phase(self, program: _Program,
                    roots: dict[int, list[Node]], span: Span) -> list[Env]:
        """Tuples in clause order, one clause variable per level."""
        tallies = []
        envs = [Env()]
        groups, joins = self._groups, self._joins
        for at, (var, iterates, anchor, hops) in enumerate(program.binds):
            # A root-anchored variable has one candidate list, whatever
            # the outer tuple; a value join hashes it once, by atom.
            fixed = (_walk(groups, joins, roots.get(anchor, []), hops)
                     if isinstance(anchor, int) else None)
            join = program.joins.get(at)
            table: dict[object, list[int]] = {}
            if join is not None:
                assert fixed is not None    # _compile's condition
                for position, node in enumerate(fixed):
                    for key in _join_keys(node, join.build_side, groups):
                        table.setdefault(key, []).append(position)
            outer, envs = envs, []
            for env in outer:
                candidates = fixed if fixed is not None \
                    else cast(_Nodes, anchor)(env, groups, joins)
                if join is not None:
                    hits = [table[key] for key in _join_keys(
                        join.probe(env), join.probe_side, groups)
                        if key in table]
                    candidates = [candidates[position] for position in (
                        hits[0] if len(hits) == 1
                        else sorted(set().union(*hits)))]
                if iterates:
                    envs.extend(env.bind_for(var, node)
                                for node in candidates)
                else:
                    envs.append(env.bind_let(var, candidates))
            if join is not None:
                tallies.append({"build": len(fixed or ()),
                                "probe": len(outer), "pairs": len(envs)})
                self.plan_notes.append(
                    "value join {}: hash (build {build}, probe {probe}, "
                    "pairs {pairs})".format(join.text, **tallies[-1]))
        span.set(tuples=len(envs), value_joins=tallies)
        return envs

    def _concatenation(self, nodes: list[Node], hops: _Hops) -> list[Node]:
        """Each node's walk down ``hops``, concatenated (no dedup across
        nodes: a ``for``'s tuples each return their own)."""
        groups, joins = self._groups, self._joins
        if any(cut for cut, _ in hops):
            return [node for parent in nodes
                    for node in _walk(groups, joins, [parent], hops)]
        # Group hops from one node stay disjoint and unique: walking
        # them from all nodes at once is the concatenation.
        for _, (_, vid) in hops:
            table = groups.get(vid, _NO_RUNS)
            nodes = [node for parent in nodes for node in table.get(parent, ())]
        return nodes


def _walk(groups: Groups, joins: _Joins, frontier: list[Node], hops: _Hops
          ) -> list[Node]:
    """Walk a vertex chain from the ordered, unique matches ``frontier``
    through run tables and joins, producing the document-ordered,
    deduplicated matches of its last vertex."""
    ordered = True
    # Pairwise unnested nodes in document order: so are the runs of
    # their children, parent by parent.
    disjoint = len(frontier) <= 1
    for cut, edge in hops:
        if cut:
            frontier = _run_union(joins[edge], frontier, ordered)
            ordered, disjoint = True, len(frontier) <= 1
        else:
            table = groups.get(edge[1], _NO_RUNS)
            frontier = [node for parent in frontier
                        for node in table.get(parent, ())]
            ordered = disjoint
    if ordered:
        return frontier

    # Child and sibling groups out of a recursive document can be
    # out of order or overlap: deduplicate by node, restore order.
    unique = {node.nid: node for node in frontier}
    return [unique[nid] for nid in sorted(unique)]


def _run_union(joined: JoinResult, nodes: Sequence[Node], ordered: bool
               ) -> list[Node]:
    """The right matches of ``joined`` under any of ``nodes``, once each
    and in document order: two runs nest or are disjoint, so in ``lo``
    order (unsorted only after a group hop) a running end skips repeats."""
    ranges, right = joined.ranges, joined.right
    runs = list(filter(None, map(ranges.get, [node.nid for node in nodes])))
    if not ordered:
        runs.sort()
    union: list[Node] = []
    end = 0
    for lo, hi in runs:
        if hi > end:
            union.extend(right[max(lo, end):hi])
            end = hi
    return union


def _nok_depths(dec: Decomposition) -> dict[int, int]:
    """Distance of each NoK from its root NoK in the inter-edge forest."""
    depth: dict[int, int] = {nok.nok_id: 0 for nok in dec.root_noks()}
    changed = True
    while changed:
        changed = False
        for edge in dec.inter_edges:
            if edge.nok_from in depth:
                want = depth[edge.nok_from] + 1
                if depth.get(edge.nok_to, -1) < want:
                    depth[edge.nok_to] = want
                    changed = True
    for nok in dec.noks:
        depth.setdefault(nok.nok_id, 0)
    return depth
