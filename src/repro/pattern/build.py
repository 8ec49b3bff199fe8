"""Build a BlossomTree from a FLWOR expression (paper Section 3.1).

Construction rules
------------------
* Every for/let clause path contributes a fresh chain of vertices from
  its anchor — the document root (``doc(...)`` / absolute paths) or the
  vertex of the variable it dereferences (``$v/...``).  Chains are never
  shared between clauses: sharing would let one clause's mandatory-match
  pruning corrupt another clause's binding (e.g. an ``f``-pruned chain
  shrinking a ``let`` sequence).
* Edge modes: for-clause steps are mandatory (``f``), let-clause steps
  optional (``l``) — see the mode-policy note in
  :mod:`repro.pattern.blossom`.
* A return-clause path or ``order by`` key rooted at a clause variable
  (``_finish_paths``) gets an optional returning chain under that
  variable's vertex, built as a ``let`` chain is (the paper draws the
  return clause's paths into the tree too) and recorded in
  ``BlossomTree.path_vertex``, so the finish reads the leaf's runs
  instead of walking the path per tuple.  A path the pattern subset
  rejects is rolled back and stays with the XPath evaluator.
* Step predicates become: value predicates on the vertex (comparisons
  against literals on ``.``, ``text()`` or ``@attr``), existential
  mandatory subtrees (bare relative paths), or a combination (path
  compared to a literal).  Anything else (positional predicates,
  ``or``-expressions over paths, functions) is unsupported by the
  pattern matcher and raises :class:`~repro.errors.CompileError`; the
  engine then falls back to the navigational evaluator.
* Every distinct top-level ``and``-conjunct of the where clause gets one
  disposition (``BlossomTree.where``).  ``crossing``: both sides are
  variable-rooted paths (``<<``, ``>>``, value comparisons,
  ``deep-equal``, their negations) — a crossing edge, which only prunes.
  ``pushed-exact`` / ``pushed``: ``$v/steps op X`` (either operand
  order; ``X`` a literal or a bare external ``$p``) over a for-bound
  ``$v`` is attached to ``$v``'s vertex by the routine that attaches the
  step predicate ``[steps op X]``.  ``residual``: everything else —
  negated and let-bound conjuncts (pruning a let sequence would change
  it), ``or``, functions, quantifiers, and paths with a step the pattern
  subset rejects (the half-built chain is rolled back, rule BT006).

Why the finish does not evaluate a ``pushed-exact`` conjunct
------------------------------------------------------------
The interpreter's general comparison is existential over the atom pairs
of both sides, so ``$v/steps op X`` holds for a tuple iff *some* match
of ``steps`` below ``$v``'s node satisfies ``. op X`` — the Definition-1
reading of the mandatory chain with that test on its leaf, decided in
the NoK scan by the same compiled comparison (for ``$p``: against the
request's bindings, whatever their type; a ``following-sibling`` step
in the chain included, now that the matcher decides sibling order by
position).  The exception stays ``pushed``, pruned in the scan *and*
verified per tuple: a vertex that binds several variables.  Crossing and
residual conjuncts are verified per tuple as ever.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.xpath.ast import (
    Comparison,
    Expr,
    FunctionCall,
    Literal,
    LocationPath,
    NameTest,
    NotExpr,
    NumberLiteral,
    RootContext,
    RootDoc,
    RootVariable,
    Step,
    TextTest,
    conjuncts,
    mentions_variable,
    walk,
)
from repro.xquery.ast import FLWOR, ForClause, LetClause, emitted_leaves
from repro.pattern.blossom import (
    MODE_MANDATORY,
    MODE_OPTIONAL,
    BlossomTree,
    BlossomVertex,
    WhereConjunct,
)

__all__ = ["build_blossom_tree", "build_from_path", "path_as_flwor"]

#: Variable name used when a bare path query is wrapped in a FLWOR.
RESULT_VAR = "#result"

_VALUE_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: The context node, as a path: what a leaf's own value test compares.
_HERE = LocationPath(RootContext(False), ())
_ORDER_OPS = ("<<", ">>", "is", "isnot")


def path_as_flwor(path: LocationPath) -> FLWOR:
    """Wrap a bare path query as ``for $#result in <path> return $#result``."""
    result_ref = LocationPath(RootVariable(RESULT_VAR), ())
    return FLWOR((ForClause(RESULT_VAR, path),), None, (), result_ref)


def build_from_path(path: LocationPath) -> BlossomTree:
    """Build the BlossomTree of a bare path query."""
    return build_blossom_tree(path_as_flwor(path))


def build_blossom_tree(flwor: FLWOR,
                       external: frozenset[str] = frozenset()) -> BlossomTree:
    """Translate a FLWOR expression into a BlossomTree.

    ``external`` names the query's external ``$parameters`` (values
    supplied at execution time, unknown at compile time).  A bare
    ``$p`` may be the operand of a pushed where-conjunct — the vertex
    test then reads the request's bindings during the scan — but it is
    never a crossing-edge endpoint, and a *clause* rooted at one has no
    pattern-tree anchor at all and raises
    :class:`~repro.errors.CompileError` (navigational fallback).

    Raises :class:`~repro.errors.CompileError` when the expression uses
    constructs outside the pattern-matching subset (the engine catches
    this and falls back to navigational evaluation).
    """
    builder = _Builder(external)
    for clause in flwor.clauses:
        if isinstance(clause, ForClause):
            builder.add_clause_path(clause.var, clause.source, "for")
        else:
            assert isinstance(clause, LetClause)
            builder.add_clause_path(clause.var, clause.source, "let")
    if flwor.where is not None:
        builder.add_where(flwor.where)
    for path in _finish_paths(flwor):
        builder.add_finish_path(path)
    builder.finalize()
    return builder.tree


def _finish_paths(flwor: FLWOR) -> list[LocationPath]:
    """The paths the finish reads per tuple that may be pattern
    vertices: every path the return clause emits (not one inside a
    nested FLWOR or another expression) and every ``order by`` key that
    is a path, when rooted at a clause variable and with steps — once
    each, in that order."""
    bound = {clause.var for clause in flwor.clauses}
    found = [*emitted_leaves(flwor.return_expr),
             *(spec.key for spec in flwor.order_by)]
    return list(dict.fromkeys(
        path for path in found
        if isinstance(path, LocationPath) and path.steps
        and isinstance(path.root, RootVariable) and path.root.name in bound))


class _Builder:
    def __init__(self, external: frozenset[str] = frozenset()) -> None:
        self.tree = BlossomTree()
        self._external = external
        #: document uri -> its #root vertex (shared so all absolute paths
        #: over one document form a single interconnected pattern tree,
        #: enabling the merged-scan optimization of Section 4.2).
        self._doc_roots: dict[str, BlossomVertex] = {}

    # ------------------------------------------------------------------
    # Clause paths.
    # ------------------------------------------------------------------

    def add_clause_path(self, var: str, path: LocationPath, kind: str) -> None:
        mode = MODE_MANDATORY if kind == "for" else MODE_OPTIONAL
        anchor = self._anchor_vertex(path)
        leaf = self._extend_chain(anchor, path.steps, mode)
        if leaf is anchor and isinstance(path.root, RootVariable):
            # ``let $y := $x`` — aliasing a variable to another vertex.
            raise CompileError("variable aliasing without steps is not "
                               "supported by the pattern matcher")
        self.tree.bind_variable(var, leaf, kind)

    def add_finish_path(self, path: LocationPath) -> None:
        """An optional returning chain for ``path``, or — when a step is
        outside the pattern subset — nothing."""
        mark = self.tree.checkpoint()
        anchor = self._anchor_vertex(path)
        try:
            leaf = self._extend_chain(anchor, path.steps, MODE_OPTIONAL)
        except CompileError:
            leaf = anchor
        if leaf is anchor:
            # Rejected, or only ``self`` steps, whose predicates would
            # have landed on the variable's own vertex.
            self.tree.rollback(mark)
            return
        leaf.returning = True
        self.tree.path_vertex[path] = leaf

    def _anchor_vertex(self, path: LocationPath) -> BlossomVertex:
        root = path.root
        if isinstance(root, RootDoc):
            return self._doc_root(root.uri)
        if isinstance(root, RootVariable):
            vertex = self.tree.var_vertex.get(root.name)
            if vertex is None:
                if root.name in self._external:
                    raise CompileError(
                        f"clause rooted at external parameter ${root.name} "
                        "has no pattern-tree anchor (navigational fallback "
                        "required)")
                raise CompileError(f"path references unbound variable ${root.name}")
            return vertex
        assert isinstance(root, RootContext)
        if not root.absolute:
            raise CompileError("relative clause paths need a context item, "
                               "which the pattern matcher does not model")
        return self._doc_root("")

    def _doc_root(self, uri: str) -> BlossomVertex:
        vertex = self._doc_roots.get(uri)
        if vertex is None:
            vertex = self.tree.new_root("#root")
            vertex.returning = True
            vertex.doc_uri = uri
            self._doc_roots[uri] = vertex
        return vertex

    # ------------------------------------------------------------------
    # Steps.
    # ------------------------------------------------------------------

    def _extend_chain(self, anchor: BlossomVertex, steps: tuple[Step, ...],
                      mode: str) -> BlossomVertex:
        """Append a fresh vertex chain for ``steps`` below ``anchor``."""
        current = anchor
        for step in steps:
            current = self._apply_step(current, step, mode)
        return current

    def _apply_step(self, parent: BlossomVertex, step: Step, mode: str) -> BlossomVertex:
        axis = step.axis
        if axis == "self":
            # ``.`` — predicates attach to the current vertex.
            self._attach_predicates(parent, step.predicates)
            return parent
        if axis not in ("child", "descendant", "following-sibling"):
            raise CompileError(f"axis {axis!r} is outside the pattern-matching "
                               "subset (navigational fallback required)")
        if not isinstance(step.test, NameTest):
            raise CompileError(f"node test {step.test} is outside the "
                               "pattern-matching subset")

        if axis == "following-sibling":
            edge_in = parent.parent_edge
            if edge_in is None or edge_in.axis != "child":
                # Sibling constraints are only local when the current
                # vertex is anchored by a child edge; //a/following-
                # sibling::b would need the sibling's parent to be "any
                # a-ancestor", which is not a NoK-expressible shape.
                raise CompileError("following-sibling is only supported "
                                   "after a child step")
            if parent.variables:
                # NestedList groups keep the *sets* of predecessor and
                # successor matches; a successor per bound predecessor
                # would need the pairs.
                raise CompileError("following-sibling from a bound variable "
                                   "pairs siblings, which the pattern "
                                   "matcher does not model")
            if mode == MODE_MANDATORY and edge_in.mode == MODE_OPTIONAL:
                # The sibling hangs under the grandparent: a mandatory
                # one would escape its predecessor's optional branch and
                # prune the grandparent instead of emptying the branch.
                raise CompileError("a required following-sibling of an "
                                   "optional step is outside the "
                                   "pattern-matching subset")
            grand = edge_in.parent
            vertex = self.tree.new_vertex(step.test.name)
            self.tree.add_edge(grand, vertex, "child", mode)
            vertex.after_vid = parent.vid
        else:
            vertex = self.tree.new_vertex(step.test.name)
            self.tree.add_edge(parent, vertex, axis, mode)

        self._attach_predicates(vertex, step.predicates)
        return vertex

    # ------------------------------------------------------------------
    # Step predicates.
    # ------------------------------------------------------------------

    def _attach_predicates(self, vertex: BlossomVertex,
                           predicates: tuple[Expr, ...]) -> None:
        for predicate in predicates:
            for conjunct in conjuncts(predicate):
                self._attach_predicate(vertex, conjunct)

    def _attach_predicate(self, vertex: BlossomVertex, predicate: Expr) -> None:
        """Translate one step predicate (or ``and``-conjunct of one) onto
        ``vertex``.

        The predicate was written in a context where ``vertex``'s match
        is the context node; existence requirements inside it are always
        mandatory relative to the vertex regardless of the clause mode.
        """
        if isinstance(predicate, LocationPath):
            # Existential: [p] requires a match of p below the vertex.
            self._build_existential(vertex, predicate, value_pred=None)
            return
        if isinstance(predicate, Comparison) and predicate.op in _VALUE_OPS:
            # Literal operands only: a step predicate on a variable is
            # outside the subset (the stream operators have no bindings).
            path = _tested_path(predicate)
            if path is not None and path.root == _HERE.root:
                self._attach_comparison(vertex, predicate, path)
                return
        if isinstance(predicate, NumberLiteral):
            raise CompileError("positional predicates are outside the "
                               "pattern-matching subset")
        if _mentions_position(predicate):
            raise CompileError("position()/last() predicates are outside the "
                               "pattern-matching subset")
        if mentions_variable(predicate):
            raise CompileError("variable references inside step predicates are "
                               "outside the pattern-matching subset")
        # Anything else (boolean mixes, functions, negated existence) is
        # checked navigationally per candidate node during NoK matching;
        # the full XPath evaluator runs with the candidate as context.
        vertex.value_predicates.append(predicate)

    def _attach_comparison(self, vertex: BlossomVertex, cmp: Comparison,
                          path: LocationPath) -> BlossomVertex:
        """Attach ``path op X`` (either operand order; ``path`` the side
        of ``cmp`` relative to ``vertex``'s match); returns the vertex
        that took the constraint."""
        steps = path.steps
        if not steps or (len(steps) == 1 and not steps[0].predicates and (
                steps[0].axis in ("attribute", "self")
                or (steps[0].axis == "child"
                    and isinstance(steps[0].test, TextTest)))):
            # [. op X], [@attr op X], [text() op X]: tested on the vertex.
            vertex.value_predicates.append(cmp)
            return vertex
        # [a/b op X] — existential subtree with a value-constrained leaf.
        return self._build_existential(vertex, path,
                                       _with_path(cmp, path, _HERE))

    def _build_existential(self, vertex: BlossomVertex, path: LocationPath,
                           value_pred: Expr | None) -> BlossomVertex:
        """Build a mandatory, non-returning subtree below ``vertex``;
        returns its leaf."""
        if not isinstance(path.root, RootContext) or path.root.absolute:
            raise CompileError("predicate paths must be relative to the "
                               "context node")
        leaf = self._extend_chain(vertex, path.steps, MODE_MANDATORY)
        if leaf is vertex:
            raise CompileError("empty predicate path")
        if value_pred is not None:
            leaf.value_predicates.append(value_pred)
        return leaf

    # ------------------------------------------------------------------
    # Where clause.
    # ------------------------------------------------------------------

    def add_where(self, where: Expr) -> None:
        # A repeated conjunct is one conjunct ([p and p] is [p]).
        for conjunct in dict.fromkeys(conjuncts(where)):
            self.tree.where.append(self._place_conjunct(conjunct))

    def _place_conjunct(self, conjunct: Expr) -> WhereConjunct:
        tree = self.tree
        inner, negated = _strip_not(conjunct)
        pair: tuple[Expr, ...] = ()
        relation = ""
        if isinstance(inner, FunctionCall) and inner.name == "deep-equal":
            pair, relation = inner.args, inner.name
        elif isinstance(inner, Comparison) \
                and (inner.op in _ORDER_OPS or inner.op in _VALUE_OPS):
            pair, relation = (inner.left, inner.right), inner.op
        if len(pair) == 2 and isinstance(pair[0], LocationPath) \
                and isinstance(pair[1], LocationPath):
            # One endpoint may resolve (building its chain) while the
            # other does not; abandon the pair atomically or the
            # half-built chain stays behind (rule BT006).
            mark = tree.checkpoint()
            u = self._where_endpoint(pair[0])
            v = self._where_endpoint(pair[1])
            if u is not None and v is not None:
                return WhereConjunct(conjunct, "crossing", tree.add_crossing(
                    u, v, relation, negated))
            tree.rollback(mark)
        if isinstance(inner, Comparison) and inner.op in _VALUE_OPS \
                and not negated:
            return self._push_selection(conjunct, inner)
        return WhereConjunct(conjunct, "residual")

    def _where_endpoint(self, expr: Expr) -> BlossomVertex | None:
        """Resolve a where-side expression to a vertex (building an
        optional chain for ``$v/steps`` forms).  None if not a
        variable-rooted path."""
        if not isinstance(expr, LocationPath):
            return None
        if not isinstance(expr.root, RootVariable):
            return None
        anchor = self._where_anchor(expr.root.name)
        if anchor is None or not expr.steps:
            return anchor
        mark = self.tree.checkpoint()
        try:
            leaf = self._extend_chain(anchor, expr.steps, MODE_OPTIONAL)
        except CompileError:
            # An untranslatable step may fail mid-chain; drop the
            # vertices already built or they survive as inert optional
            # leaves (rule BT006) and the conjunct is checked twice.
            self.tree.rollback(mark)
            return None
        leaf.returning = True
        return leaf

    def _where_anchor(self, name: str) -> BlossomVertex | None:
        """The vertex ``$name`` is bound to; ``None`` for an external
        parameter (its value is unknown until ``execute()``)."""
        anchor = self.tree.var_vertex.get(name)
        if anchor is None and name not in self._external:
            raise CompileError(f"where references unbound variable ${name}")
        return anchor

    def _push_selection(self, conjunct: Expr,
                        cmp: Comparison) -> WhereConjunct:
        """``$v/steps op X`` over a for-bound ``$v`` becomes the step
        predicate ``[steps op X]`` on ``$v``'s vertex."""
        residual = WhereConjunct(conjunct, "residual")
        path = _tested_path(cmp, self._external)
        if path is None or not isinstance(path.root, RootVariable):
            return residual
        anchor = self._where_anchor(path.root.name)
        if anchor is None or anchor.var_kinds[path.root.name] != "for":
            return residual  # pruning a let-bound sequence would change it
        relative = LocationPath(_HERE.root, path.steps)
        mark = self.tree.checkpoint()
        try:
            target = self._attach_comparison(
                anchor, _with_path(cmp, path, relative), relative)
        except CompileError:
            # A partially built *mandatory* chain would keep pruning
            # tuples although the conjunct is only checked per tuple;
            # roll it back (rule BT006).
            self.tree.rollback(mark)
            return residual
        reason = "shared vertex" if len(anchor.variables) > 1 else ""
        return WhereConjunct(conjunct, "pushed" if reason else "pushed-exact",
                             target, target.value_predicates[-1], reason)

    # ------------------------------------------------------------------
    # Finalization.
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Mark which vertices must be kept in NestedList output."""
        tree = self.tree
        # Returning-ness propagates up: any vertex with a returning
        # descendant must be kept so projections can navigate to it.
        changed = True
        while changed:
            changed = False
            for edge in tree.tree_edges:
                if edge.child.returning and not edge.parent.returning:
                    edge.parent.returning = True
                    changed = True


# ----------------------------------------------------------------------
# Expression shape helpers.
# ----------------------------------------------------------------------

def _strip_not(expr: Expr) -> tuple[Expr, bool]:
    negated = False
    while True:
        if isinstance(expr, NotExpr):
            expr = expr.operand
            negated = not negated
        elif isinstance(expr, FunctionCall) and expr.name == "not" and len(expr.args) == 1:
            expr = expr.args[0]
            negated = not negated
        else:
            return expr, negated


def _tested_path(cmp: Comparison, late: frozenset[str] = frozenset()
                 ) -> LocationPath | None:
    """The path side of ``path op X`` / ``X op path``, ``X`` a literal or
    a bare ``$name`` with ``name`` in ``late``; ``None`` for any other
    comparison."""
    for path, operand in ((cmp.left, cmp.right), (cmp.right, cmp.left)):
        if isinstance(path, LocationPath) and not _is_parameter(path, late) \
                and (isinstance(operand, (Literal, NumberLiteral))
                     or _is_parameter(operand, late)):
            return path
    return None


def _with_path(cmp: Comparison, path: LocationPath,
               other: LocationPath) -> Comparison:
    """``cmp`` with its side ``path`` replaced by ``other``."""
    return Comparison(cmp.op, other, cmp.right) if path is cmp.left \
        else Comparison(cmp.op, cmp.left, other)


def _is_parameter(expr: Expr, late: frozenset[str]) -> bool:
    return (isinstance(expr, LocationPath) and not expr.steps
            and isinstance(expr.root, RootVariable)
            and expr.root.name in late)


def _mentions_position(expr: Expr) -> bool:
    return any(isinstance(node, FunctionCall)
               and node.name in ("position", "last") for node in walk(expr))
