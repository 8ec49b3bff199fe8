"""Shared query-expression evaluation: construction, ordering, where checks.

:class:`DirectEvaluator` is the per-tuple reference: the naive oracle
runs clause expansion, where checks, order-by keys and return-clause
construction through it, on the XPath interpreter.  The BlossomTree
executor runs the same finish steps as closures compiled once per FLWOR
(:func:`compile_emitter`); both sides share :func:`order_key`,
:func:`sort_tuples`, :func:`~repro.engine.result.content_pieces` and
every comparison rule, so the engines cannot drift apart in anything
except how they find the binding tuples.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import DNFError
from repro.xmlkit.tree import Constructed, Document, DocumentBuilder, Node, parse_number
from repro.xpath.ast import Expr
from repro.xpath.compile import compile_expr
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
           "sort_tuples", "SubstitutingEvaluator"]


class DirectEvaluator:
    """Evaluates any query expression under a given binding environment.

    FLWOR expressions are expanded by direct iteration (the Section 1
    semantics); the BlossomTree executor uses this class only for the
    *inner* pieces (where/order-by/return of an already-enumerated
    tuple), while the oracle uses it for everything.

    Parameters mirror :class:`repro.baseline.naive_flwor.NaiveInterpreter`.
    """

    def __init__(self, doc: Document,
                 resolve_doc: Callable[[str], Document] | None = None,
                 work_budget: int | None = None) -> None:
        self.doc = doc
        self.resolve_doc = resolve_doc if resolve_doc is not None else (lambda uri: doc)
        self.work_budget = work_budget
        self.tuples_examined = 0
        self.xpath = XPathEvaluator()

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
                           resolve_doc=self.resolve_doc)

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
        sequence = self.xpath.evaluate_path(clause.source, self.context(bindings))
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

    def __init__(self, doc: Document, resolve_doc: Callable[[str], Document],
                 target: FLWOR | None, items: list[Item]) -> None:
        super().__init__(doc, resolve_doc)
        self._target = target
        self._items = items

    def eval_query_expr(self, expr: QueryExpr, bindings: dict) -> list[Item]:
        if expr is self._target:
            return list(self._items)
        return super().eval_query_expr(expr, bindings)


def sort_tuples(tuples: list[dict],
                keys_of: Callable[[dict], list]) -> list[dict]:
    """``tuples`` ordered by their key lists; ties keep their place."""
    keys = [keys_of(bindings) for bindings in tuples]
    order = sorted(range(len(tuples)), key=lambda index: (keys[index], index))
    return [tuples[index] for index in order]


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
    tag keeps mixed keys comparable.  A descending key is the same key
    under the reversed comparison.
    """
    if isinstance(value, list):
        text = value[0].string_value() if value else ""
    elif isinstance(value, bool):
        text = "1" if value else "0"
    else:
        text = str(value)
    text = text.strip()
    number = parse_number(text)
    key = (1, 0.0, text) if number is None else (0, number, "")
    return _Descending(key) if descending else key


#: A compiled return expression: ``emit(direct, bindings)`` is the items
#: one binding tuple contributes.  The evaluator supplies the context
#: document, the ``doc()`` resolver and, for a nested FLWOR, iteration.
Emitter = Callable[[DirectEvaluator, dict], list[Item]]


def compile_emitter(expr: QueryExpr) -> Emitter:
    """:meth:`DirectEvaluator.eval_query_expr` with the dispatch done
    once, over compiled XPath expressions."""
    if isinstance(expr, FLWOR):
        return lambda direct, bindings: direct.eval_flwor(expr, bindings)
    if isinstance(expr, Sequence):
        parts = [compile_emitter(sub) for sub in expr.exprs]
        return parts[0] if len(parts) == 1 else lambda direct, bindings: [
            item for part in parts for item in part(direct, bindings)]
    if isinstance(expr, ElementConstructor):
        construct = _constructor(expr, compile_emitter)
        return lambda direct, bindings: [construct(direct, bindings)]
    value = compile_expr(expr)

    def items(direct: DirectEvaluator, bindings: dict) -> list[Item]:
        result = value(direct.doc.document_node, bindings, direct.resolve_doc)
        return list(result) if isinstance(result, list) else [result]
    return items


def _constructor(expr: ElementConstructor, part: Callable[[QueryExpr], Emitter]
                 ) -> Callable[[DirectEvaluator, dict], Constructed]:
    """The element ``expr`` builds, by reference; ``part`` emits each
    enclosed expression as one content sequence (atoms space-separated)."""
    tag, attrs = expr.tag, dict(expr.attrs)
    content = [item.text if isinstance(item, TextItem) else
               part(Sequence(item.exprs) if isinstance(item, Enclosed) else item)
               for item in expr.content
               if not isinstance(item, TextItem) or item.text]

    def construct(direct: DirectEvaluator, bindings: dict) -> Constructed:
        pieces: list[str | Node] = []
        for piece in content:
            if isinstance(piece, str):
                pieces.append(piece)
            else:
                content_pieces(piece(direct, bindings), pieces)
        return Constructed(tag, dict(attrs), pieces)
    return construct
