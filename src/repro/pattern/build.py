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
* Step predicates become: value predicates on the vertex (comparisons
  against literals on ``.``, ``text()`` or ``@attr``), existential
  mandatory subtrees (bare relative paths), or a combination (path
  compared to a literal).  Anything else (positional predicates,
  ``or``-expressions over paths, functions) is unsupported by the
  pattern matcher and raises :class:`~repro.errors.CompileError`; the
  engine then falls back to the navigational evaluator.
* Top-level ``and``-conjuncts of the where clause become crossing edges
  (``<<``, ``>>``, value comparisons, ``deep-equal``, their negations)
  when both sides are variable-rooted paths; single-variable comparisons
  against literals become mandatory pruning chains when the variable is
  for-bound.  Remaining conjuncts go to ``residual_where``.  The
  executor re-verifies the complete where clause per tuple, so all of
  this is sound pruning, never a semantic shortcut.
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
    walk,
)
from repro.xquery.ast import FLWOR, ForClause, LetClause
from repro.pattern.blossom import (
    MODE_MANDATORY,
    MODE_OPTIONAL,
    BlossomTree,
    BlossomVertex,
)

__all__ = ["build_blossom_tree", "build_from_path", "path_as_flwor"]

#: Variable name used when a bare path query is wrapped in a FLWOR.
RESULT_VAR = "#result"

_VALUE_OPS = ("=", "!=", "<", "<=", ">", ">=")
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
    supplied at execution time, unknown at compile time).  Where-clause
    conjuncts that mention them cannot become crossing edges or pruning
    chains — their values do not exist yet — so they are routed to
    ``residual_where``, which the executor re-verifies per tuple with
    the actual bindings merged in.  A *clause* rooted at an external
    parameter has no pattern-tree anchor at all and raises
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
    builder.finalize()
    return builder.tree


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
            handled = self._attach_comparison(vertex, predicate)
            if handled:
                return
        if isinstance(predicate, NumberLiteral):
            raise CompileError("positional predicates are outside the "
                               "pattern-matching subset")
        if _mentions_position(predicate):
            raise CompileError("position()/last() predicates are outside the "
                               "pattern-matching subset")
        if _mentions_variable(predicate):
            raise CompileError("variable references inside step predicates are "
                               "outside the pattern-matching subset")
        # Anything else (boolean mixes, functions, negated existence) is
        # checked navigationally per candidate node during NoK matching;
        # the full XPath evaluator runs with the candidate as context.
        vertex.value_predicates.append(predicate)

    def _attach_comparison(self, vertex: BlossomVertex, cmp: Comparison) -> bool:
        """Handle ``path op literal`` predicates; returns True if consumed."""
        path, literal, op = _split_path_literal(cmp)
        if path is None or literal is None:
            return False
        if not isinstance(path.root, RootContext) or path.root.absolute:
            return False
        if not path.steps:
            # [. op literal]
            vertex.value_predicates.append(cmp)
            return True
        if len(path.steps) == 1 and path.steps[0].axis in ("attribute", "self") \
                and not path.steps[0].predicates:
            vertex.value_predicates.append(cmp)
            return True
        if len(path.steps) == 1 and isinstance(path.steps[0].test, TextTest) \
                and path.steps[0].axis == "child" and not path.steps[0].predicates:
            vertex.value_predicates.append(cmp)
            return True
        # [a/b op literal] — existential subtree with a value-constrained leaf.
        leaf_pred = Comparison(op, LocationPath(RootContext(False), ()), literal) \
            if _path_is_left(cmp) else \
            Comparison(op, literal, LocationPath(RootContext(False), ()))
        self._build_existential(vertex, path, value_pred=leaf_pred)
        return True

    def _build_existential(self, vertex: BlossomVertex, path: LocationPath,
                           value_pred: Expr | None) -> None:
        """Build a mandatory, non-returning subtree below ``vertex``."""
        if not isinstance(path.root, RootContext) or path.root.absolute:
            raise CompileError("predicate paths must be relative to the "
                               "context node")
        leaf = self._extend_chain(vertex, path.steps, MODE_MANDATORY)
        if leaf is vertex:
            raise CompileError("empty predicate path")
        if value_pred is not None:
            leaf.value_predicates.append(value_pred)

    # ------------------------------------------------------------------
    # Where clause.
    # ------------------------------------------------------------------

    def add_where(self, where: Expr) -> None:
        for conjunct in conjuncts(where):
            self._add_conjunct(conjunct)

    def _add_conjunct(self, conjunct: Expr) -> None:
        tree = self.tree
        inner, negated = _strip_not(conjunct)

        if isinstance(inner, FunctionCall) and inner.name == "deep-equal" \
                and len(inner.args) == 2:
            if isinstance(inner.args[0], LocationPath) \
                    and isinstance(inner.args[1], LocationPath):
                # One endpoint may resolve (building its chain) while the
                # other does not; abandon the pair atomically or the
                # half-built chain stays behind (rule BT006).
                mark = tree.checkpoint()
                u = self._where_endpoint(inner.args[0])
                v = self._where_endpoint(inner.args[1])
                if u is not None and v is not None:
                    tree.add_crossing(u, v, "deep-equal", negated)
                    return
                tree.rollback(mark)
            tree.residual_where.append(conjunct)
            return

        if isinstance(inner, Comparison):
            op = inner.op
            if (op in _ORDER_OPS or op in _VALUE_OPS) \
                    and isinstance(inner.left, LocationPath) \
                    and isinstance(inner.right, LocationPath):
                mark = tree.checkpoint()
                u = self._where_endpoint(inner.left)
                v = self._where_endpoint(inner.right)
                if u is not None and v is not None:
                    tree.add_crossing(u, v, op, negated)
                    return
                tree.rollback(mark)
            if op in _VALUE_OPS and not negated:
                if self._try_prune_literal(inner):
                    # Conjunct kept in residual_where too: the crossing
                    # machinery only prunes, the executor re-verifies.
                    return
        tree.residual_where.append(conjunct)

    def _where_endpoint(self, expr: Expr) -> BlossomVertex | None:
        """Resolve a where-side expression to a vertex (building an
        optional chain for ``$v/steps`` forms).  None if not a
        variable-rooted path."""
        if not isinstance(expr, LocationPath):
            return None
        if not isinstance(expr.root, RootVariable):
            return None
        anchor = self.tree.var_vertex.get(expr.root.name)
        if anchor is None:
            if expr.root.name in self._external:
                return None    # value unknown until execute(): residual
            raise CompileError(f"where references unbound variable ${expr.root.name}")
        if not expr.steps:
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

    def _try_prune_literal(self, cmp: Comparison) -> bool:
        """``$v/steps op literal`` where $v is for-bound: add a mandatory
        pruning chain with the value constraint on its leaf."""
        path, literal, _ = _split_path_literal(cmp)
        if path is None or literal is None:
            return False
        if not isinstance(path.root, RootVariable):
            return False
        anchor = self.tree.var_vertex.get(path.root.name)
        if anchor is None:
            if path.root.name in self._external:
                return False   # value unknown until execute(): residual
            raise CompileError(f"where references unbound variable ${path.root.name}")
        if anchor.var_kinds.get(path.root.name) != "for":
            return False  # pruning a let-bound sequence would change it
        if not path.steps:
            anchor.value_predicates.append(
                Comparison(cmp.op,
                           LocationPath(RootContext(False), ()) if _path_is_left(cmp)
                           else literal,
                           literal if _path_is_left(cmp)
                           else LocationPath(RootContext(False), ())))
            self.tree.residual_where.append(cmp)
            return True
        leaf_pred = (Comparison(cmp.op, LocationPath(RootContext(False), ()), literal)
                     if _path_is_left(cmp)
                     else Comparison(cmp.op, literal, LocationPath(RootContext(False), ())))
        mark = self.tree.checkpoint()
        try:
            self._build_existential(anchor, LocationPath(RootContext(False), path.steps),
                                    value_pred=leaf_pred)
        except CompileError:
            # A partially built *mandatory* chain would keep pruning
            # tuples even though the conjunct fell back to residual
            # re-verification; roll it back (rule BT006).
            self.tree.rollback(mark)
            return False
        self.tree.residual_where.append(cmp)
        return True

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


def _split_path_literal(cmp: Comparison):
    """Return (path, literal, op) when one side is a path and the other a
    literal; (None, None, op) otherwise."""
    literal_types = (Literal, NumberLiteral)
    if isinstance(cmp.left, LocationPath) and isinstance(cmp.right, literal_types):
        return cmp.left, cmp.right, cmp.op
    if isinstance(cmp.right, LocationPath) and isinstance(cmp.left, literal_types):
        return cmp.right, cmp.left, cmp.op
    return None, None, cmp.op


def _path_is_left(cmp: Comparison) -> bool:
    return isinstance(cmp.left, LocationPath)


def _mentions_position(expr: Expr) -> bool:
    return any(isinstance(node, FunctionCall)
               and node.name in ("position", "last") for node in walk(expr))


def _mentions_variable(expr: Expr) -> bool:
    """Any variable reference at all — a quantifier's own variable
    included: the matcher evaluates predicates without bindings."""
    return any(isinstance(node, LocationPath)
               and isinstance(node.root, RootVariable) for node in walk(expr))
