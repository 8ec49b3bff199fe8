"""The expression compiler: ``Expr`` → a closure built once per plan.

The executor asks the same ``price < 35`` or ``$a/author = $b/author``
of every candidate and every tuple of a plan.  :func:`compile_expr`
turns an expression into a plain closure ``fn(item, variables,
resolve_doc) -> Value`` once, so those loops stop dispatching on AST
node types, allocating evaluation contexts and coercing literals.

Specialised is what the traffic has: variable- or context-rooted paths
of predicate-free ``child::name`` / ``child::*`` / ``attribute::name``
steps, value comparisons (a literal is coerced here, once), node
comparisons, ``and`` / ``or`` / ``not`` and literals.  Coverage is total
by **delegation**: every other expression, and every unbound or
ill-typed variable, is answered — or its error worded — by the
interpreter on that sub-expression.  Leaf rules are imported from the
interpreter, not re-spelled; it stays the reference semantics and runs
nothing from this module.  The closures hold no per-call state (the
item, bindings and resolver are arguments; position and size are 1, as
for every top-level predicate): one serves all threads and bindings.

A vertex predicate is compiled instead into a *filter* over a whole
candidate list (:func:`compile_filter`), which the NoK matcher calls
once per pattern vertex and scan.  ``. op literal``, ``. op $p``,
``@name op literal|$p`` and any other context-relative ``path op
literal|$p`` are specialised: the scalar is coerced once per call
(:func:`scalar_filter`), and ``. op number`` reads the version's
typed-value column (``doc.derived.numbers``) instead of parsing each
candidate's text.  Every other predicate is its compiled test per node.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.xmlkit.tree import ELEMENT, Document, Node, parse_number
from repro.xpath.ast import (AnyKindTest, BooleanExpr, Comparison, Expr,
                             Literal, LocationPath, NameTest, NotExpr,
                             NumberLiteral, RootContext, RootVariable, Step)
from repro.xpath.evaluator import (VALUE_OPERATORS, AnyNode, AttrNode,
                                   EvalContext, Value, XPathEvaluator,
                                   _atomize, _compare_atoms,
                                   _document_order_key, _single_node,
                                   _StringItem, boolean_value)

__all__ = ["Bindings", "Compiled", "Filter", "Resolver", "Test",
           "atomized", "compile_expr", "compile_filter", "compile_test",
           "literal_test", "scalar_filter", "typed_number"]

Resolver = Callable[[str], Document]
#: One evaluation's variables: the request's parameters, and under them
#: the tuple's own.
Bindings = dict[str, Value]
#: A compiled expression: ``fn(context item, variables, resolve_doc)``.
Compiled = Callable[[AnyNode, Bindings, Resolver | None], Value]
#: A compiled expression reduced to its effective boolean value.
Test = Callable[[AnyNode, Bindings, Resolver | None], bool]
#: One predicate-free step applied to one non-attribute node.
_Select = Callable[[Node], list[AnyNode]]
#: A compiled vertex predicate: ``fn(candidates, variables)`` is the
#: candidates that satisfy it, in their order.
Filter = Callable[[list[Node], Bindings], list[Node]]
#: A filter whose scalar operand is already coerced.
_Kernel = Callable[[list[Node]], list[Node]]

_NODE_OPERATORS: dict[str, Callable[[AnyNode, AnyNode], bool]] = {
    "<<": lambda a, b: a.nid < b.nid, ">>": lambda a, b: a.nid > b.nid,
    "is": lambda a, b: a is b, "isnot": lambda a, b: a is not b}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_SELF = LocationPath(RootContext(absolute=False))
#: The reference semantics, for what is not specialised (stateless).
_INTERPRETER = XPathEvaluator()


def compile_expr(expr: Expr) -> Compiled:
    """Compile ``expr``; the closure agrees with
    ``XPathEvaluator().evaluate(expr, EvalContext(item, 1, 1, variables,
    resolve_doc))`` in value and in ``ExecutionError`` message."""
    if isinstance(expr, (Literal, NumberLiteral)):
        value = expr.value
        return lambda item, variables, resolve: value
    if isinstance(expr, LocationPath):
        return _compile_path(expr)
    if isinstance(expr, Comparison):
        return _compile_comparison(expr)
    if isinstance(expr, NotExpr):
        operand = compile_test(expr.operand)
        return lambda item, variables, resolve: \
            not operand(item, variables, resolve)
    if isinstance(expr, BooleanExpr):
        tests = tuple(compile_test(operand) for operand in expr.operands)
        stop = expr.op == "or"

        def connective(item: AnyNode, variables: dict[str, Value],
                       resolve: Resolver | None) -> bool:
            for test in tests:
                if test(item, variables, resolve) is stop:
                    return stop
            return not stop
        return connective
    return lambda item, variables, resolve: \
        _interpret(expr, item, variables, resolve)


def compile_test(expr: Expr) -> Test:
    """``expr`` compiled to its effective boolean value."""
    compiled = compile_expr(expr)
    if isinstance(expr, (Comparison, BooleanExpr, NotExpr)):
        return compiled  # type: ignore[return-value]  # already boolean
    return lambda item, variables, resolve: \
        boolean_value(compiled(item, variables, resolve))


def _interpret(expr: Expr, item: AnyNode, variables: dict[str, Value],
               resolve: Resolver | None) -> Value:
    """Delegation: the interpreter on ``expr``."""
    return _INTERPRETER.evaluate(expr,
                                 EvalContext(item, 1, 1, variables, resolve))


# ----------------------------------------------------------------------
# Paths.
# ----------------------------------------------------------------------

def _selector(step: Step) -> _Select | None:
    """The step as a function of one context node; ``None`` (delegated)
    when it has predicates, another axis or another test."""
    test = step.test
    if step.predicates or not isinstance(test, NameTest):
        return None
    name = test.name
    if step.axis == "child":
        if name == "*":
            return lambda node: [c for c in node.children
                                 if c.kind == ELEMENT]
        # Only elements carry a tag, so the name test is the kind test.
        return lambda node: [c for c in node.children if c.tag == name]
    if step.axis == "attribute" and name != "*":
        def attribute(node: Node) -> list[AnyNode]:
            value = node.attrs.get(name)
            return [] if value is None else [AttrNode(node, name, value)]
        return attribute
    return None


def _walk(steps: tuple[_Select, ...], nodes: list[AnyNode]) -> list[AnyNode]:
    for select in steps:
        if len(nodes) == 1:
            # One context node: the step's result is already distinct
            # and in document order.
            node = nodes[0]
            nodes = [] if isinstance(node, AttrNode) else select(node)
            continue
        # Several: no duplicates, document order — what the
        # interpreter's step application guarantees.
        found: dict[int, AnyNode] = {}
        for node in nodes:
            if not isinstance(node, AttrNode):  # no axes out of attributes
                for selected in select(node):
                    found.setdefault(id(selected) if isinstance(
                        selected, AttrNode) else selected.nid, selected)
        nodes = sorted(found.values(), key=_document_order_key)
    return nodes


def _compile_path(path: LocationPath) -> Compiled:
    root = path.root
    selects = [_selector(step) for step in path.steps]
    if None in selects or not (isinstance(root, RootVariable) or (
            isinstance(root, RootContext) and not root.absolute)):
        return lambda item, variables, resolve: \
            _interpret(path, item, variables, resolve)
    steps: tuple[_Select, ...] = tuple(selects)  # type: ignore[arg-type]

    if isinstance(root, RootContext):
        return lambda item, variables, resolve: _walk(steps, [item])

    # Variable-rooted.  Anything but a plain node list — unbound, an
    # atomic under steps, a distinct-values sequence — is the
    # interpreter's to answer or to word the error for.
    name = root.name

    def rooted(item: AnyNode, variables: dict[str, Value],
               resolve: Resolver | None) -> Value:
        value = variables.get(name)
        if type(value) is list:
            return _walk(steps, value) if steps else list(value)
        if steps or value is None or isinstance(value, list):
            return _interpret(path, item, variables, resolve)
        return value  # a bare ``$v`` bound to an atomic is the atomic
    return rooted


# ----------------------------------------------------------------------
# Comparisons.
# ----------------------------------------------------------------------

def literal_test(op: str, literal: str | float) -> Callable[[str], bool]:
    """``observed-string op literal`` with the literal coerced once.

    The closure answers what ``_compare_atoms(op, typed, literal)``
    answers for the typed value of a node whose string value is the
    argument — the one primitive behind vertex predicates and where
    conjuncts.
    """
    compare = VALUE_OPERATORS[op]
    text = None if isinstance(literal, float) else literal.strip()
    number = parse_number(text) if text is not None else literal
    if number is None and op in ("=", "!="):
        # Text that is no number equals its own trimmed spelling only
        # (an id, a genre): the observed string need not be parsed.
        equal = op == "="
        return lambda observed: (observed.strip() == text) is equal

    def test(observed: str) -> bool:
        seen = parse_number(observed)
        if seen is not None and number is not None:
            return compare(seen, number)
        if seen is None and text is not None:
            return compare(observed.strip(), text)
        # A number differs from all text that is not one, and orders
        # against none of it.
        return op == "!="
    return test


def atomized(variables: Bindings) -> Bindings:
    """``variables`` with every node replaced by its atom — all a value
    comparison reads of a binding — so a scan in another process is
    sent strings, never a pickled tree."""
    return {name: [_StringItem(node.string_value()) for node in value]
            if isinstance(value, list) else value
            for name, value in variables.items()}


def _any_node(test: Callable[[str], bool], nodes: list[AnyNode]) -> bool:
    """Existential ``test`` over the nodes' string values (a node's
    typed value is a function of its string value)."""
    for node in nodes:
        if test(node.string_value()):
            return True
    return False


def _compile_comparison(expr: Comparison) -> Compiled:
    op = expr.op
    left, right = compile_expr(expr.left), compile_expr(expr.right)

    relate = _NODE_OPERATORS.get(op)
    if relate is not None:
        def node_comparison(item: AnyNode, variables: dict[str, Value],
                            resolve: Resolver | None) -> bool:
            lvalue = left(item, variables, resolve)
            rvalue = right(item, variables, resolve)
            lnode, rnode = _single_node(lvalue, op), _single_node(rvalue, op)
            return (lnode is not None and rnode is not None
                    and relate(lnode, rnode))
        return node_comparison

    flipped = _FLIPPED[op]
    sides = ((expr.left, expr.right, left, op),
             (expr.right, expr.left, right, flipped))
    # path op literal / literal op path: the literal is coerced here,
    # once.  (A bare ``$v`` may be bound to an atomic: not this shape.)
    for path, literal, nodes, test_op in sides:
        if isinstance(literal, (Literal, NumberLiteral)) \
                and isinstance(path, LocationPath) \
                and (path.steps or isinstance(path.root, RootContext)):
            test = literal_test(test_op, literal.value)
            if path == _SELF:
                # ``. op literal``: the leaf vertex predicate.
                return lambda item, variables, resolve: \
                    test(item.string_value())
            return lambda item, variables, resolve: _any_node(
                test, nodes(item, variables, resolve))  # type: ignore[arg-type]

    def comparison(item: AnyNode, variables: dict[str, Value],
                   resolve: Resolver | None) -> bool:
        lvalue = left(item, variables, resolve)
        rvalue = right(item, variables, resolve)
        # Nodes against one string or number (``$b/price < $p``): the
        # literal primitive again, coerced per call.
        if type(lvalue) is list and type(rvalue) in (float, str):
            return _any_node(literal_test(op, rvalue), lvalue)  # type: ignore[arg-type]
        if type(rvalue) is list and type(lvalue) in (float, str):
            return _any_node(literal_test(flipped, lvalue), rvalue)  # type: ignore[arg-type]
        # Existential over the atom pairs.
        right_atoms = _atomize(rvalue)
        for a in _atomize(lvalue):
            for b in right_atoms:
                if _compare_atoms(op, a, b):
                    return True
        return False

    return comparison


# ----------------------------------------------------------------------
# Vertex filters: one call per pattern vertex and candidate list.
# ----------------------------------------------------------------------

_NAN = float("nan")
_NO_VARIABLES: Bindings = {}


def _typed_column(nodes: list[Node]) -> list[float | None]:
    """The typed-value column of the nodes' document version, with a
    slot filled for each of ``nodes`` (the first reader of a node fills
    it: a race writes an equal float twice)."""
    column = nodes[0].doc.derived.numbers
    for node in [n for n in nodes if column[n.nid] is None]:
        number = parse_number(node.string_value())
        column[node.nid] = _NAN if number is None else number
    return column


def typed_number(node: Node) -> float:
    """The node's slot of its version's typed-value column, filled on
    first read: its typed value as a number, NaN for text that is no
    number."""
    column = node.doc.derived.numbers
    number = column[node.nid]
    if number is None:
        parsed = parse_number(node.string_value())
        number = _NAN if parsed is None else parsed
        column[node.nid] = number
    return number


def scalar_filter(op: str, value: float | str,
                  operand: str | Compiled | None) -> _Kernel:
    """``operand op value`` over a candidate list, ``value`` coerced
    here, once: ``operand`` is ``None`` for the candidate itself (``.``),
    an attribute's name, or a compiled context-relative path."""
    if operand is None and isinstance(value, float):
        # NaN — text that is no number — compares false under every
        # operator but ``!=``: what literal_test answers for such text.
        compare = VALUE_OPERATORS[op]

        def numeric(nodes: list[Node]) -> list[Node]:
            column = _typed_column(nodes) if nodes else []
            return [n for n in nodes if compare(column[n.nid], value)]
        return numeric
    test = literal_test(op, value)
    if operand is None:
        return lambda nodes: [n for n in nodes if test(n.string_value())]
    if isinstance(operand, str):
        return lambda nodes: [n for n in nodes if (
            seen := n.attrs.get(operand)) is not None and test(seen)]
    path = operand
    return lambda nodes: [n for n in nodes if _any_node(
        test, path(n, _NO_VARIABLES, None))]  # type: ignore[arg-type]


def _scalar_shape(expr: Expr
                  ) -> tuple[str, str | Compiled | None,
                             Literal | NumberLiteral | str] | None:
    """``(op, operand, scalar)`` when ``expr`` compares a
    context-relative path with a literal or a ``$name`` (either order,
    the operator flipped to put the path left); ``scalar`` is the
    literal or the variable's name."""
    if not isinstance(expr, Comparison) or expr.op not in _FLIPPED:
        return None
    for path, other, op in ((expr.left, expr.right, expr.op),
                            (expr.right, expr.left, _FLIPPED[expr.op])):
        if not (isinstance(path, LocationPath)
                and path.root == _SELF.root):
            continue
        if isinstance(other, (Literal, NumberLiteral)):
            scalar: Literal | NumberLiteral | str = other
        elif isinstance(other, LocationPath) and not other.steps \
                and isinstance(other.root, RootVariable):
            scalar = other.root.name
        else:
            continue
        # ``self::node()`` of an element is the element.
        steps = [step for step in path.steps if step.predicates
                 or step.axis != "self" or not isinstance(step.test,
                                                          AnyKindTest)]
        if not steps:
            return op, None, scalar
        step = steps[0]
        if len(steps) == 1 and step.axis == "attribute" \
                and not step.predicates and isinstance(step.test, NameTest) \
                and step.test.name != "*":
            return op, step.test.name, scalar
        return op, _compile_path(path), scalar
    return None


def compile_filter(expr: Expr) -> Filter:
    """``expr``, a vertex predicate, as a filter over candidate lists:
    the candidates whose compiled test (:func:`compile_test`) holds,
    in their order.  Compiled once; a ``$name`` is read and coerced once
    per call, and when it is bound to no string or number the filter
    runs the general comparison per candidate."""
    shape = _scalar_shape(expr)
    if shape is None:
        test = compile_test(expr)
        return lambda nodes, variables: [
            n for n in nodes if test(n, variables, None)]
    op, operand, scalar = shape
    if not isinstance(scalar, str):
        kernel = scalar_filter(op, scalar.value, operand)
        return lambda nodes, variables: kernel(nodes)
    name, general = scalar, compile_test(expr)

    def bound(nodes: list[Node], variables: Bindings) -> list[Node]:
        value = variables.get(name)
        if isinstance(value, (float, str)):
            return scalar_filter(op, value, operand)(nodes)
        return [n for n in nodes if general(n, variables, None)]
    return bound
