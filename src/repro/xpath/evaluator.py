"""Navigational XPath evaluator — the reference semantics.

This evaluator defines what every other operator in the repository must
agree with: the differential tests run the BlossomTree engine, the
TwigStack pipeline and the pipelined joins against it.  It is also the
core of the simulated commercial navigational engine
(:mod:`repro.baseline.xhive`), which deliberately evaluates step by
step with materialized, deduplicated intermediate node sets — the
architecture the paper compares against.

Value model
-----------
An expression evaluates to one of: a node list (document order, no
duplicates), ``str``, ``float`` or ``bool``.  Comparisons over node
lists are existential (any pair may satisfy the operator), following
XPath 1.0.  Effective boolean value: non-empty list / non-empty string /
non-zero number / the bool itself.
"""

from __future__ import annotations

import math
import operator

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.errors import ExecutionError
from repro.xpath.ast import (
    BooleanExpr,
    Arithmetic,
    Comparison,
    Conditional,
    Expr,
    FunctionCall,
    Literal,
    LocationPath,
    NameTest,
    NotExpr,
    NumberLiteral,
    RootContext,
    RootDoc,
    Quantified,
    RootVariable,
    Step,
    TextTest,
)
from repro.xmlkit.tree import (ELEMENT, TEXT, Document, Node,
                               deep_equal_sequences, parse_number)

__all__ = ["AttrNode", "EvalContext", "XPathEvaluator", "evaluate_xpath",
           "boolean_value", "parse_number", "string_value"]

Value = list | str | float | bool


class AttrNode:
    """A lightweight stand-in node for attribute-axis results.

    Carries enough of the :class:`~repro.xmlkit.tree.Node` protocol for
    value comparison and output; attributes have no children and are not
    part of the document-order node arena.
    """

    __slots__ = ("owner", "name", "value")

    def __init__(self, owner: Node, name: str, value: str) -> None:
        self.owner = owner
        self.name = name
        self.value = value

    @property
    def nid(self) -> int:
        # Attributes sort with their owner element for document order.
        return self.owner.nid

    def string_value(self) -> str:
        return self.value

    def typed_value(self) -> object:
        number = parse_number(self.value)
        return self.value if number is None else number

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AttrNode {self.name}={self.value!r} of {self.owner.tag}>"


AnyNode = Node | AttrNode


@dataclass
class EvalContext:
    """Dynamic context for one expression evaluation."""

    item: AnyNode
    position: int = 1
    size: int = 1
    variables: dict[str, Value] = field(default_factory=dict)
    resolve_doc: Callable[[str], Document] | None = None

    def with_item(self, item: AnyNode, position: int, size: int) -> EvalContext:
        return EvalContext(item, position, size, self.variables, self.resolve_doc)


class XPathEvaluator:
    """Evaluates the XPath-subset AST over the tree model.

    Instances are stateless apart from optional work counters, so a
    single evaluator can be shared across queries.

    Parameters
    ----------
    count_work:
        Optional callable invoked with the number of candidate nodes
        examined at each step; the X-Hive simulation uses this to report
        navigation effort.
    """

    def __init__(self, count_work: Callable[[int], None] | None = None) -> None:
        self._count_work = count_work
        self._examined = 0

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------

    def evaluate_path(self, path: LocationPath, context: EvalContext) -> list[AnyNode]:
        """Evaluate a location path to a document-ordered node list."""
        current = self._root_items(path, context)
        for step in path.steps:
            current = self._apply_step(step, current, context)
        return current

    def evaluate(self, expr: Expr, context: EvalContext) -> Value:
        """Evaluate any expression to its value."""
        if isinstance(expr, LocationPath):
            # A bare ``$v`` bound to an atomic (string/number/boolean —
            # e.g. an external query parameter) is the atomic itself;
            # only step application requires a node sequence.
            if not expr.steps and isinstance(expr.root, RootVariable):
                value = context.variables.get(expr.root.name)
                if value is not None and not isinstance(value, list):
                    return value
            return self.evaluate_path(expr, context)
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, NotExpr):
            return not boolean_value(self.evaluate(expr.operand, context))
        if isinstance(expr, BooleanExpr):
            if expr.op == "and":
                return all(boolean_value(self.evaluate(o, context)) for o in expr.operands)
            return any(boolean_value(self.evaluate(o, context)) for o in expr.operands)
        if isinstance(expr, Comparison):
            return self._compare(expr, context)
        if isinstance(expr, FunctionCall):
            return self._call(expr, context)
        if isinstance(expr, Arithmetic):
            left = _to_number(self.evaluate(expr.left, context))
            right = _to_number(self.evaluate(expr.right, context))
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "div":
                if right == 0:
                    return float("inf") if left > 0 else (
                        float("-inf") if left < 0 else float("nan"))
                return left / right
            assert expr.op == "mod"
            if right == 0:
                return float("nan")
            return math.fmod(left, right)
        if isinstance(expr, Quantified):
            return self._quantified(expr, context)
        if isinstance(expr, Conditional):
            branch = (expr.then_branch
                      if boolean_value(self.evaluate(expr.condition, context))
                      else expr.else_branch)
            return self.evaluate(branch, context)
        raise ExecutionError(f"cannot evaluate expression of type {type(expr).__name__}")

    def _quantified(self, expr: Quantified, context: EvalContext) -> bool:
        source = self.evaluate(expr.source, context)
        if not isinstance(source, list):
            raise ExecutionError("quantifier source must be a node sequence")
        for item in source:
            inner = EvalContext(context.item, context.position, context.size,
                                dict(context.variables), context.resolve_doc)
            inner.variables[expr.var] = [item]
            holds = boolean_value(self.evaluate(expr.satisfies, inner))
            if expr.kind == "some" and holds:
                return True
            if expr.kind == "every" and not holds:
                return False
        return expr.kind == "every"

    # ------------------------------------------------------------------
    # Path machinery.
    # ------------------------------------------------------------------

    def _root_items(self, path: LocationPath, context: EvalContext) -> list[AnyNode]:
        root = path.root
        if isinstance(root, RootDoc):
            if context.resolve_doc is None:
                raise ExecutionError(f'no document resolver for doc("{root.uri}")')
            return [context.resolve_doc(root.uri).document_node]
        if isinstance(root, RootVariable):
            value = context.variables.get(root.name)
            if value is None:
                raise ExecutionError(f"unbound variable ${root.name}")
            if isinstance(value, list):
                return list(value)
            raise ExecutionError(
                f"variable ${root.name} is not a node sequence and cannot root a path")
        assert isinstance(root, RootContext)
        if root.absolute:
            item = context.item
            doc = item.doc if isinstance(item, Node) else item.owner.doc
            return [doc.document_node]
        return [context.item]

    def _apply_step(self, step: Step, items: list[AnyNode],
                    context: EvalContext) -> list[AnyNode]:
        results: list[AnyNode] = []
        seen: set[int] = set()
        for item in items:
            if isinstance(item, AttrNode):
                continue  # no axes out of attributes in this subset
            candidates = self._axis_candidates(step, item)
            if self._count_work is not None:
                # Charge the nodes *examined* along the axis, not just
                # the survivors of the name test — this is the unit of
                # navigation work a step performs.
                self._count_work(self._examined)
            selected = candidates
            for predicate in step.predicates:
                selected = self._filter_predicate(predicate, selected, context)
            for node in selected:
                key = id(node) if isinstance(node, AttrNode) else node.nid
                if key not in seen:
                    seen.add(key)
                    results.append(node)
        results.sort(key=_document_order_key)
        return results

    def _axis_candidates(self, step: Step, item: Node) -> list[AnyNode]:
        axis = step.axis
        test = step.test
        if axis == "attribute":
            assert isinstance(test, NameTest)
            if test.name == "*":
                return [AttrNode(item, k, v) for k, v in item.attrs.items()]
            if test.name in item.attrs:
                return [AttrNode(item, test.name, item.attrs[test.name])]
            return []

        if axis == "child":
            pool: Iterable[Node] = item.children
        elif axis == "descendant":
            pool = item.descendants()
        elif axis == "descendant-or-self":
            pool = item.subtree()
        elif axis == "self":
            pool = [item]
        elif axis == "parent":
            pool = [item.parent] if item.parent is not None else []
        elif axis == "ancestor":
            pool = item.ancestors()
        elif axis == "following-sibling":
            pool = _following_siblings(item)
        elif axis == "preceding":
            pool = (n for n in item.doc.nodes[:item.nid] if n.end < item.start)
        elif axis == "following":
            pool = (n for n in item.doc.nodes[item.nid + 1:] if n.start > item.end)
        else:
            raise ExecutionError(f"unsupported axis {axis!r}")

        examined = 0
        selected: list[Node] = []
        for node in pool:
            examined += 1
            if _test_matches(test, node):
                selected.append(node)
        self._examined = examined
        return selected

    def _filter_predicate(self, predicate: Expr, candidates: list[AnyNode],
                          context: EvalContext) -> list[AnyNode]:
        size = len(candidates)
        kept: list[AnyNode] = []
        for position, node in enumerate(candidates, start=1):
            local = context.with_item(node, position, size)
            value = self.evaluate(predicate, local)
            if isinstance(value, float):
                # Numeric predicate means position() = value.
                if value == position:
                    kept.append(node)
            elif boolean_value(value):
                kept.append(node)
        return kept

    # ------------------------------------------------------------------
    # Comparisons and functions.
    # ------------------------------------------------------------------

    def _compare(self, expr: Comparison, context: EvalContext) -> bool:
        op = expr.op
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)

        if op in ("<<", ">>", "is", "isnot"):
            lnode = _single_node(left, op)
            rnode = _single_node(right, op)
            if lnode is None or rnode is None:
                return False
            if op == "<<":
                return lnode.nid < rnode.nid
            if op == ">>":
                return lnode.nid > rnode.nid
            if op == "is":
                return lnode is rnode
            return lnode is not rnode

        left_atoms = _atomize(left)
        right_atoms = _atomize(right)
        return any(_compare_atoms(op, a, b) for a in left_atoms for b in right_atoms)

    def _call(self, expr: FunctionCall, context: EvalContext) -> Value:
        name = expr.name
        args = expr.args

        if name == "position":
            return float(context.position)
        if name == "last":
            return float(context.size)
        if name == "true":
            return True
        if name == "false":
            return False
        if name == "count":
            value = self.evaluate(args[0], context)
            _require_nodes(value, "count")
            return float(len(value))
        if name in ("empty", "exists"):
            value = self.evaluate(args[0], context)
            _require_nodes(value, name)
            return (len(value) == 0) if name == "empty" else (len(value) > 0)
        if name == "contains":
            haystack = string_value(self.evaluate(args[0], context))
            needle = string_value(self.evaluate(args[1], context))
            return needle in haystack
        if name == "starts-with":
            haystack = string_value(self.evaluate(args[0], context))
            needle = string_value(self.evaluate(args[1], context))
            return haystack.startswith(needle)
        if name == "string-length":
            return float(len(string_value(self.evaluate(args[0], context))))
        if name == "normalize-space":
            target = (self.evaluate(args[0], context) if args
                      else context.item)
            return " ".join(string_value(target).split())
        if name == "concat":
            return "".join(string_value(self.evaluate(a, context)) for a in args)
        if name == "string":
            return string_value(self.evaluate(args[0], context) if args else [context.item])
        if name == "number":
            return _to_number(string_value(
                self.evaluate(args[0], context) if args else [context.item]))
        if name == "name" or name == "local-name":
            value = self.evaluate(args[0], context) if args else [context.item]
            _require_nodes(value, name)
            if not value:
                return ""
            head = value[0]
            if isinstance(head, AttrNode):
                return head.name
            return head.tag or ""
        if name == "deep-equal":
            left = self.evaluate(args[0], context)
            right = self.evaluate(args[1], context)
            _require_nodes(left, "deep-equal")
            _require_nodes(right, "deep-equal")
            return deep_equal_sequences(left, right)
        if name == "not":
            return not boolean_value(self.evaluate(args[0], context))
        if name in ("sum", "avg", "min", "max"):
            return self._aggregate(name, args, context)
        if name in ("floor", "ceiling", "round", "abs"):
            value = _to_number(self.evaluate(args[0], context))
            if value != value:  # NaN propagates
                return value
            if name == "floor":
                return float(math.floor(value))
            if name == "ceiling":
                return float(math.ceil(value))
            if name == "abs":
                return float(abs(value))
            return float(math.floor(value + 0.5))  # XPath round: half up
        if name == "substring":
            text = string_value(self.evaluate(args[0], context))
            start = int(_to_number(self.evaluate(args[1], context)))
            if len(args) >= 3:
                length = int(_to_number(self.evaluate(args[2], context)))
                return text[max(0, start - 1):max(0, start - 1 + length)]
            return text[max(0, start - 1):]
        if name == "substring-before":
            text = string_value(self.evaluate(args[0], context))
            sep = string_value(self.evaluate(args[1], context))
            index = text.find(sep)
            return text[:index] if index >= 0 else ""
        if name == "substring-after":
            text = string_value(self.evaluate(args[0], context))
            sep = string_value(self.evaluate(args[1], context))
            index = text.find(sep)
            return text[index + len(sep):] if index >= 0 else ""
        if name == "translate":
            text = string_value(self.evaluate(args[0], context))
            src = string_value(self.evaluate(args[1], context))
            dst = string_value(self.evaluate(args[2], context))
            table = {}
            for i, ch in enumerate(src):
                if ch not in table:
                    table[ch] = dst[i] if i < len(dst) else None
            return "".join(table.get(ch, ch) for ch in text
                           if table.get(ch, ch) is not None)
        if name == "upper-case":
            return string_value(self.evaluate(args[0], context)).upper()
        if name == "lower-case":
            return string_value(self.evaluate(args[0], context)).lower()
        if name == "boolean":
            return boolean_value(self.evaluate(args[0], context))
        if name == "distinct-values":
            value = self.evaluate(args[0], context)
            _require_nodes(value, "distinct-values")
            seen: list[str] = []
            for node in value:
                text = node.string_value()
                if text not in seen:
                    seen.append(text)
            return seen if False else _StringSequence(seen)
        raise ExecutionError(f"unknown function {name}()")

    def _aggregate(self, name: str, args, context: EvalContext) -> float:
        value = self.evaluate(args[0], context)
        _require_nodes(value, name)
        numbers = [_to_number(n.typed_value()) for n in value]
        if not numbers:
            if name == "sum":
                return 0.0
            raise ExecutionError(f"{name}() of an empty sequence")
        if name == "sum":
            return float(sum(numbers))
        if name == "avg":
            return float(sum(numbers) / len(numbers))
        if name == "min":
            return float(min(numbers))
        return float(max(numbers))


# ----------------------------------------------------------------------
# Helpers shared with other evaluators.
# ----------------------------------------------------------------------

def evaluate_xpath(doc: Document, text_or_path, variables: dict | None = None,
                   resolve_doc: Callable[[str], Document] | None = None) -> list[AnyNode]:
    """One-shot convenience: parse (if needed) and evaluate against a document."""
    from repro.xpath.parser import parse_xpath

    path = text_or_path
    if isinstance(path, str):
        path = parse_xpath(path)
    resolver = resolve_doc if resolve_doc is not None else (lambda uri: doc)
    context = EvalContext(doc.document_node, variables=dict(variables or {}),
                          resolve_doc=resolver)
    return XPathEvaluator().evaluate_path(path, context)


def boolean_value(value: Value) -> bool:
    """Effective boolean value (XPath 1.0 rules)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and value == value  # excludes NaN
    if isinstance(value, str):
        return bool(value)
    return len(value) > 0


def string_value(value: Value) -> str:
    """String value of any expression result (first node for lists).

    The one float-to-text rule, for every surface: XQuery's ``NaN``,
    ``INF``, ``-INF`` and ``-0``; an integral value without a fraction.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value) or value == 0:
            return ("-" if math.copysign(1.0, value) < 0 else "") + (
                "INF" if value else "0")
        return str(int(value)) if value.is_integer() else str(value)
    if isinstance(value, str):
        return value
    if not value:
        return ""
    return value[0].string_value()


def _atomize(value: Value) -> list[object]:
    """Convert a value to the atom list used by existential comparison."""
    if isinstance(value, list):
        return [n.typed_value() for n in value]
    return [value]


def _compare_atoms(op: str, a: object, b: object) -> bool:
    """Compare two atoms with XPath-1.0-flavoured coercion.

    Numbers compare numerically; a number against a string attempts a
    numeric parse of the string first.  Booleans coerce the other side
    to boolean for ``=``/``!=``.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        if op == "=":
            return bool(a) == bool(b)
        if op == "!=":
            return bool(a) != bool(b)
        a, b = float(bool(a)), float(bool(b))
    if isinstance(a, float) or isinstance(b, float):
        fa = a if isinstance(a, float) else parse_number(str(a))
        fb = b if isinstance(b, float) else parse_number(str(b))
        if fa is None or fb is None:
            # Text that is not a number differs from every number and
            # orders against none.
            return op == "!="
        return _numeric_compare(op, fa, fb)
    sa, sb = str(a).strip(), str(b).strip()
    if op == "=":
        return sa == sb
    if op == "!=":
        return sa != sb
    # Order comparison on strings: numeric when both parse, else lexicographic.
    fa, fb = parse_number(sa), parse_number(sb)
    if fa is None or fb is None:
        return _numeric_compare(op, sa, sb)
    return _numeric_compare(op, fa, fb)


#: The six value comparison operators (the compiler binds one at
#: compile time; the interpreter looks it up per comparison).
VALUE_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _numeric_compare(op: str, a, b) -> bool:
    return VALUE_OPERATORS[op](a, b)


def _single_node(value: Value, op: str) -> AnyNode | None:
    if not isinstance(value, list):
        raise ExecutionError(f"operand of {op} must be a node sequence")
    if not value:
        return None
    if len(value) > 1:
        raise ExecutionError(f"operand of {op} must be a single node, got {len(value)}")
    return value[0]


class _StringSequence(list):
    """A sequence of atomized strings (distinct-values results).

    Quacks enough like a node list for boolean tests and counting; each
    item exposes ``string_value``/``typed_value`` via _StringItem.
    """

    def __init__(self, values: list[str]) -> None:
        super().__init__(_StringItem(v) for v in values)


class _StringItem(str):
    def string_value(self) -> str:
        return str(self)

    def typed_value(self) -> object:
        number = parse_number(self)
        return str(self) if number is None else number

    @property
    def nid(self) -> int:
        return -1


def _to_number(value) -> float:
    if isinstance(value, float):
        return value
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, list):
        value = value[0].string_value() if value else ""
    number = parse_number(str(value))
    return float("nan") if number is None else number


def _require_nodes(value: Value, fn: str) -> None:
    if not isinstance(value, list):
        raise ExecutionError(f"{fn}() requires a node sequence argument")


def _test_matches(test, node: Node) -> bool:
    if isinstance(test, NameTest):
        return node.kind == ELEMENT and test.matches_tag(node.tag)
    if isinstance(test, TextTest):
        return node.kind == TEXT
    return True  # AnyKindTest


def _following_siblings(node: Node) -> list[Node]:
    parent = node.parent
    if parent is None:
        return []
    siblings = parent.children
    for i, sib in enumerate(siblings):
        if sib is node:
            return siblings[i + 1:]
    return []


def _document_order_key(node: AnyNode) -> tuple[int, int]:
    if isinstance(node, AttrNode):
        return (node.owner.nid, 1)
    return (node.nid, 0)
