"""Shared query-expression evaluation: construction, ordering, where checks.

:class:`DirectEvaluator` is the per-tuple reference: the naive oracle
runs clause expansion, where checks, order-by keys and return-clause
construction through it, on the XPath interpreter.  The BlossomTree
executor runs the same finish steps as closures compiled once per FLWOR
(:func:`compile_emitter`), whose leaves read pattern-vertex runs where
the pattern holds the path; both sides share the order-key tuple
(:func:`order_key`, :func:`run_key`), :func:`sort_tuples`,
:func:`~repro.engine.result.content_pieces` and every comparison rule,
so the engines cannot drift apart in anything except how they find the
binding tuples and the nodes their paths select.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, TypeVar

from repro.errors import DNFError
from repro.xmlkit.tree import Constructed, Document, DocumentBuilder, Node, parse_number
from repro.xpath.ast import Expr, mentions_variable
from repro.xpath.compile import typed_number
from repro.xpath.evaluator import EvalContext, XPathEvaluator, boolean_value
from repro.xquery.ast import (
    ElementConstructor,
    Enclosed,
    FLWOR,
    ForClause,
    LetClause,
    OrderSpec,
    QueryExpr,
    Sequence,
    TextItem,
)
from repro.engine.result import Item, content_pieces

__all__ = ["DirectEvaluator", "Emitter", "compile_emitter", "order_key",
           "run_key", "sort_tuples", "SubstitutingEvaluator"]

_Row = TypeVar("_Row")


class DirectEvaluator:
    """Evaluates any query expression under a given binding environment
    — the paper's strawman and the engine's oracle (``strategy="naive"``).

    Section 1 of the paper describes the naive strategy: "follow the
    semantics of FLWOR expression and evaluate the path expressions for
    each iteration in the for-loop".  :meth:`eval_flwor` does exactly
    that — nested loops that re-evaluate every correlated clause path
    (one naming a variable) per iteration of the enclosing loops, a
    where check per tuple, order-by over the surviving tuples, and
    return-clause construction per tuple.  A clause path naming no
    variable has one value per evaluator, so it is evaluated once.

    This is deliberately redundant — that redundancy is what BlossomTree
    evaluation removes — but it is *obviously correct*, which makes it
    the differential-testing oracle for the whole engine and the
    performance strawman the Section 1 motivation refers to.  The
    BlossomTree executor uses this class only for the *inner* pieces
    (where/order-by/return of an already-enumerated tuple).

    Parameters
    ----------
    doc:
        The document every path reads; ``doc("uri")`` resolves to it.
    work_budget:
        Optional cap on examined for-loop tuples; exceeding it raises
        :class:`~repro.errors.DNFError`, which the benchmark harness
        reports as a ``DNF`` entry (the paper's 15-minute timeouts).
    """

    def __init__(self, doc: Document, work_budget: int | None = None) -> None:
        self.doc = doc
        #: The XPath layer's ``doc(uri)`` resolver: this one document.
        self.resolve: Callable[[str], Document] = lambda uri: doc
        self.work_budget = work_budget
        self.tuples_examined = 0
        self.xpath = XPathEvaluator()
        #: id(clause source) -> (source, its items): a source naming no
        #: variable has one value per evaluator, whatever the loops
        #: around it have bound.
        self._invariant: dict[int, tuple[Expr, tuple]] = {}

    # ------------------------------------------------------------------
    # Expression dispatch.
    # ------------------------------------------------------------------

    def eval_query_expr(self, expr: QueryExpr, bindings: dict) -> list[Item]:
        if isinstance(expr, FLWOR):
            return self.eval_flwor(expr, bindings)
        if isinstance(expr, ElementConstructor):
            return [self.construct(expr, bindings)]
        if isinstance(expr, Sequence):
            items: list[Item] = []
            for sub in expr.exprs:
                items.extend(self.eval_query_expr(sub, bindings))
            return items
        value = self.xpath.evaluate(expr, self.context(bindings))
        if isinstance(value, list):
            return list(value)
        return [value]

    def context(self, bindings: dict) -> EvalContext:
        return EvalContext(self.doc.document_node, variables=bindings,
                           resolve_doc=self.resolve)

    def check_where(self, where: Expr | None, bindings: dict) -> bool:
        """Effective boolean value of a where clause under bindings."""
        if where is None:
            return True
        return boolean_value(self.xpath.evaluate(where, self.context(bindings)))

    # ------------------------------------------------------------------
    # FLWOR by direct iteration.
    # ------------------------------------------------------------------

    def eval_flwor(self, flwor: FLWOR, outer: dict) -> list[Item]:
        tuples: list[dict] = []
        self._expand_clauses(flwor.clauses, 0, dict(outer), tuples, flwor.where)
        tuples = self.order_tuples(flwor.order_by, tuples)
        items: list[Item] = []
        for bindings in tuples:
            items.extend(self.eval_query_expr(flwor.return_expr, bindings))
        return items

    def _expand_clauses(self, clauses: tuple, index: int, bindings: dict,
                        out: list[dict], where: Expr | None) -> None:
        if index == len(clauses):
            self.tuples_examined += 1
            if self.work_budget is not None and self.tuples_examined > self.work_budget:
                raise DNFError("direct FLWOR evaluation exceeded its work budget",
                               budget=self.work_budget)
            if self.check_where(where, bindings):
                out.append(dict(bindings))
            return
        clause = clauses[index]
        sequence = self._clause_items(clause.source, bindings)
        if isinstance(clause, ForClause):
            for item in sequence:
                bindings[clause.var] = [item]
                self._expand_clauses(clauses, index + 1, bindings, out, where)
            bindings.pop(clause.var, None)
        else:
            assert isinstance(clause, LetClause)
            bindings[clause.var] = sequence
            self._expand_clauses(clauses, index + 1, bindings, out, where)
            bindings.pop(clause.var, None)

    def _clause_items(self, source: Expr, bindings: dict) -> list:
        """A ``for``/``let`` source's items: evaluated once when it
        names no variable, per iteration when it is correlated."""
        cached = self._invariant.get(id(source))
        if cached is not None:
            return list(cached[1])
        items = self.xpath.evaluate_path(source, self.context(bindings))
        if not mentions_variable(source):
            self._invariant[id(source)] = (source, tuple(items))
        return items

    # ------------------------------------------------------------------
    # Ordering.
    # ------------------------------------------------------------------

    def order_tuples(self, specs: tuple[OrderSpec, ...],
                     tuples: list[dict]) -> list[dict]:
        """Stable order-by over binding tuples (no-op without specs)."""
        if not specs:
            return tuples
        return sort_tuples(tuples, lambda bindings: [
            order_key(self.xpath.evaluate(s.key, self.context(bindings)),
                      s.descending) for s in specs])

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def construct(self, ctor: ElementConstructor, bindings: dict) -> Node:
        """The constructed element, copied at once (the oracle is eager)."""
        builder = DocumentBuilder()
        builder.append(_constructor(ctor, lambda sub: lambda direct, env:
                                    direct.eval_query_expr(sub, env))(self, bindings))
        return builder.finish().nodes[1]


class SubstitutingEvaluator(DirectEvaluator):
    """DirectEvaluator that substitutes a precomputed value for one
    specific FLWOR node (the one the BlossomTree executor ran) while it
    evaluates the expression around it."""

    def __init__(self, doc: Document, target: FLWOR | None,
                 items: list[Item]) -> None:
        super().__init__(doc)
        self._target = target
        self._items = items

    def eval_query_expr(self, expr: QueryExpr, bindings: dict) -> list[Item]:
        if expr is self._target:
            return list(self._items)
        return super().eval_query_expr(expr, bindings)


def sort_tuples(tuples: list[_Row],
                keys_of: Callable[[_Row], Any]) -> list[_Row]:
    """``tuples`` ordered by their keys (a key list, or one key);
    ties keep their place (the sort is stable)."""
    return sorted(tuples, key=keys_of)


class _Descending:
    """An order key under the reversed comparison: ``descending`` is the
    exact mirror of the ascending order, whatever the key holds."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: _Descending) -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.key == other.key


def order_key(value: object, descending: bool) -> object:
    """Sortable key for one order-by value.

    Numbers sort numerically and before other strings, which sort
    lexicographically (the empty key first among them); a leading type
    tag keeps mixed keys comparable — ``(0, number)`` or ``(1, text)``.
    A descending key is the same key under the reversed comparison.
    """
    if isinstance(value, list):
        text = value[0].string_value() if value else ""
    elif isinstance(value, bool):
        text = "1" if value else "0"
    else:
        text = str(value)
    text = text.strip()
    number = parse_number(text)
    key = (1, text) if number is None else (0, number)
    return _Descending(key) if descending else key


#: The key of an empty sequence: the empty string's.
_EMPTY_KEY = (1, "")


def run_key(run: list[Node], descending: bool) -> object:
    """:func:`order_key` of a key path's nodes, a pattern vertex's run:
    the same tuple, the number read off the typed-value column of the
    first node's version (NaN: text, keyed by its stripped string)."""
    if not run:
        key: tuple = _EMPTY_KEY
    else:
        first = run[0]
        number = typed_number(first)
        key = (0, number) if number == number \
            else (1, first.string_value().strip())
    return _Descending(key) if descending else key


#: A compiled return expression: ``emit(direct, row)`` is the items one
#: binding tuple contributes.  The evaluator supplies the context
#: document, the ``doc()`` resolver and, for a nested FLWOR, iteration;
#: what the row is — a variable mapping, a tuple of pattern matches — is
#: the leaves' business.
Emitter = Callable[[DirectEvaluator, Any], list[Item]]


def compile_emitter(expr: QueryExpr,
                    leaf: Callable[[QueryExpr], Emitter]) -> Emitter:
    """:meth:`DirectEvaluator.eval_query_expr` with the dispatch done
    once: sequences and constructors here, every other expression —
    a path, a nested FLWOR — by ``leaf``."""
    if isinstance(expr, Sequence):
        parts = [compile_emitter(sub, leaf) for sub in expr.exprs]
        return parts[0] if len(parts) == 1 else lambda direct, row: [
            item for part in parts for item in part(direct, row)]
    if isinstance(expr, ElementConstructor):
        construct = _constructor(
            expr, lambda sub: compile_emitter(sub, leaf))
        return lambda direct, row: [construct(direct, row)]
    return leaf(expr)


def _constructor(expr: ElementConstructor, part: Callable[[QueryExpr], Emitter]
                 ) -> Callable[[DirectEvaluator, Any], Constructed]:
    """The element ``expr`` builds, by reference; ``part`` emits each
    enclosed expression as one content sequence (atoms space-separated)."""
    tag, attrs = expr.tag, dict(expr.attrs)
    content = [item.text if isinstance(item, TextItem) else
               part(Sequence(item.exprs) if isinstance(item, Enclosed) else item)
               for item in expr.content
               if not isinstance(item, TextItem) or item.text]

    def construct(direct: DirectEvaluator, row: Any) -> Constructed:
        pieces: list[str | Node] = []
        for piece in content:
            if isinstance(piece, str):
                pieces.append(piece)
            else:
                content_pieces(piece(direct, row), pieces)
        return Constructed(tag, dict(attrs), pieces)
    return construct
