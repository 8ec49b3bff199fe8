"""Recursive-descent parser for the XPath subset.

Grammar (see :mod:`repro.xpath.ast` for the semantic notes)::

    path       ::= root? relpath?                (at least one of the two)
    root       ::= '/' | '//' | 'doc' '(' STRING ')' | '$' NAME | '.'
    relpath    ::= step (('/' | '//') step)*
    step       ::= (axis '::')? nodetest predicate*
                 | '@' nodetest predicate*
                 | '.' | '..'
    nodetest   ::= NAME | '*' | 'text' '(' ')' | 'node' '(' ')'
    predicate  ::= '[' expr ']'
    expr       ::= orExpr
    orExpr     ::= andExpr ('or' andExpr)*
    andExpr    ::= cmpExpr ('and' cmpExpr)*
    cmpExpr    ::= value (cmpOp value)?
    cmpOp      ::= '=' | '!=' | '<' | '<=' | '>' | '>=' | '<<' | '>>'
                 | 'is' | 'isnot'
    value      ::= STRING | NUMBER | functionCall | path | '(' expr ')'

A lone ``/`` is the document node.  As in XQuery's leading-lone-slash
rule, a ``/`` followed by a token that can start a step (a name, ``*``,
``@``, ``.``, ``..``) begins a longer path: ``for $d in / return $d``
reads ``return`` as a step, while ``for $d in /, $b in $d//b return $b``
binds ``$d`` to the document node.

Paths inside predicates are relative to the context node even when they
start with ``/`` or ``//`` (the convention the paper's Appendix A
queries use).

Every production reads the shared :class:`~repro.xpath.lexer.TokenCursor`
and simply stops at the first token it cannot use, so an expression
embedded in a FLWOR ends where this grammar ends: at a name in operator
position that is not an operator (``return``, ``order``, ...), at ``,``,
``)``, ``}`` or at the end of input.
"""

from __future__ import annotations

from repro.xpath.ast import (
    AXIS_NAMES,
    AnyKindTest,
    BooleanExpr,
    Arithmetic,
    Comparison,
    Conditional,
    Expr,
    FunctionCall,
    Literal,
    LocationPath,
    NameTest,
    NodeTest,
    NotExpr,
    NumberLiteral,
    PathRoot,
    RootContext,
    RootDoc,
    Quantified,
    RootVariable,
    Step,
    TextTest,
)
from repro.xpath.lexer import (
    NAME,
    NUMBER,
    STRING,
    SYMBOL,
    VARIABLE,
    Token,
    TokenCursor,
)

__all__ = ["parse_xpath", "parse_expr", "KNOWN_FUNCTIONS", "MAX_NESTING",
           "XPathParser"]

#: How deep expressions may nest (parentheses, predicates, function
#: arguments, ``not``, quantifier / conditional bodies, and — through
#: the FLWOR parser that shares the counter — nested FLWORs, sequences
#: and constructors).  The parser is recursive descent, at most ten
#: Python frames per level, so this bound is what turns hostile nesting
#: into a :class:`~repro.errors.QuerySyntaxError` instead of a
#: ``RecursionError``; it leaves room under the interpreter's default
#: 1000-frame limit for the caller's own stack and for the recursive
#: walks that later run over the AST.  Hand-written queries nest three
#: or four levels.
MAX_NESTING = 48

#: Functions the evaluator implements.  ``text``/``node`` are node tests,
#: not functions, and are excluded deliberately.
KNOWN_FUNCTIONS = frozenset({
    "position", "last", "count", "contains", "starts-with", "string-length",
    "deep-equal", "empty", "exists", "string", "number", "name", "not",
    "true", "false", "local-name", "normalize-space", "concat",
    "sum", "avg", "min", "max", "floor", "ceiling", "round", "abs",
    "substring", "substring-before", "substring-after", "translate",
    "upper-case", "lower-case", "boolean", "distinct-values",
})

_COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">", "<<", ">>")


def parse_xpath(text: str) -> LocationPath:
    """Parse a complete XPath string; raises ``QuerySyntaxError``."""
    parser = XPathParser(TokenCursor(text))
    path = parser.parse_path(top_level=True)
    parser.expect_end()
    return path


def parse_expr(text: str) -> Expr:
    """Parse a standalone boolean/value expression (e.g. a where clause)."""
    parser = XPathParser(TokenCursor(text))
    expr = parser.parse_or_expr()
    parser.expect_end()
    return expr


class XPathParser:
    """Parses XPath constructs from a shared :class:`TokenCursor`.

    The FLWOR parser extends this class, so the path and boolean
    expressions embedded in for/let/where/order-by/return clauses are
    parsed by these productions, on the one cursor over the whole query.
    """

    def __init__(self, cursor: TokenCursor) -> None:
        self.cursor = cursor
        self._depth = 0

    def expect_end(self) -> None:
        if not self.cursor.at_eof():
            raise self.cursor.error(
                f"unexpected trailing input {self.cursor.current.value!r}")

    def _descend(self, pos: int | None = None) -> None:
        """Enter one nesting level (callers decrement on the way out; a
        syntax error abandons the parser, so no unwinding is needed)."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self.cursor.error(
                f"expression nests deeper than {MAX_NESTING} levels", pos)

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------

    def parse_path(self, top_level: bool = False) -> LocationPath:
        """Parse a location path.

        ``top_level`` controls whether a leading slash makes the path
        absolute (it stays "relative to context" inside predicates).
        """
        cur = self.cursor
        steps: list[Step] = []
        root: PathRoot = RootContext(absolute=False)

        if cur.current.is_name("doc") and cur.peek().is_symbol("("):
            cur.advance()
            cur.expect_symbol("(")
            uri = cur.expect_kind(STRING).value
            cur.expect_symbol(")")
            root = RootDoc(uri)
            if not (cur.current.is_symbol("/") or cur.current.is_symbol("//")):
                return LocationPath(root, ())
            steps.extend(self._parse_rel_steps())
            return LocationPath(root, tuple(steps))

        if cur.current.kind == VARIABLE:
            name = cur.advance().value
            root = RootVariable(name)
            if not (cur.current.is_symbol("/") or cur.current.is_symbol("//")):
                return LocationPath(root, ())
            steps.extend(self._parse_rel_steps())
            return LocationPath(root, tuple(steps))

        if cur.current.is_symbol("/") or cur.current.is_symbol("//"):
            root = RootContext(absolute=top_level)
            if cur.current.is_symbol("/") and not self._at_step(cur.peek()):
                cur.advance()           # a lone '/': the document node
                return LocationPath(root, ())
            steps.extend(self._parse_rel_steps())
            return LocationPath(root, tuple(steps))

        # Plain relative path: step ('/' step)*
        steps.append(self._parse_step())
        steps.extend(self._parse_rel_steps(optional=True))
        return LocationPath(root, tuple(steps))

    @staticmethod
    def _at_step(token: Token) -> bool:
        """Whether ``token`` can start a step (what follows a '/' that
        is not the whole path)."""
        return token.kind == NAME or token.kind == SYMBOL \
            and token.value in (".", "..", "@", "*")

    def _parse_rel_steps(self, optional: bool = False) -> list[Step]:
        """Parse ``(('/'|'//') step)*``; requires one step unless optional."""
        cur = self.cursor
        steps: list[Step] = []
        first = True
        while True:
            if cur.accept_symbol("//"):
                step = self._parse_step()
                if step.axis == "child":
                    step = Step("descendant", step.test, step.predicates)
                elif step.axis == "self":
                    step = Step("descendant-or-self", AnyKindTest(), step.predicates)
                steps.append(step)
            elif cur.accept_symbol("/"):
                steps.append(self._parse_step())
            else:
                if first and not optional:
                    raise cur.error("expected a path step")
                return steps
            first = False

    def _parse_step(self) -> Step:
        cur = self.cursor
        token = cur.current

        if token.is_symbol("."):
            cur.advance()
            return Step("self", AnyKindTest(), self._parse_predicates())
        if token.is_symbol(".."):
            cur.advance()
            return Step("parent", AnyKindTest(), self._parse_predicates())
        if token.is_symbol("@"):
            cur.advance()
            return Step("attribute", self._parse_name_or_star(),
                        self._parse_predicates())
        if token.is_symbol("*"):
            cur.advance()
            return Step("child", NameTest("*"), self._parse_predicates())

        if token.kind != NAME:
            raise cur.error(f"expected a step, got {token.value!r}")

        # Explicit axis?
        if cur.peek().is_symbol("::"):
            axis = token.value
            if axis not in AXIS_NAMES:
                raise cur.error(f"unknown axis {axis!r}")
            cur.advance()
            cur.expect_symbol("::")
            test = self._parse_node_test()
            if axis == "attribute" and isinstance(test, (TextTest, AnyKindTest)):
                raise cur.error("attribute axis requires a name test")
            return Step(axis, test, self._parse_predicates())

        test = self._parse_node_test()
        return Step("child", test, self._parse_predicates())

    def _parse_node_test(self) -> NodeTest:
        cur = self.cursor
        if cur.current.is_symbol("*"):
            cur.advance()
            return NameTest("*")
        token = cur.expect_kind(NAME)
        if token.value == "text" and cur.current.is_symbol("("):
            cur.expect_symbol("(")
            cur.expect_symbol(")")
            return TextTest()
        if token.value == "node" and cur.current.is_symbol("("):
            cur.expect_symbol("(")
            cur.expect_symbol(")")
            return AnyKindTest()
        return NameTest(token.value)

    def _parse_name_or_star(self) -> NameTest:
        cur = self.cursor
        if cur.current.is_symbol("*"):
            cur.advance()
            return NameTest("*")
        return NameTest(cur.expect_kind(NAME).value)

    def _parse_predicates(self) -> tuple[Expr, ...]:
        cur = self.cursor
        predicates: list[Expr] = []
        while cur.accept_symbol("["):
            predicates.append(self.parse_or_expr())
            cur.expect_symbol("]")
        return tuple(predicates)

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def parse_or_expr(self, left: Expr | None = None) -> Expr:
        """Parse one expression.  ``left``, when given, is its first
        operand, already parsed: the FLWOR parser opens a ``(`` before it
        can know whether a sequence or a grouped operand follows."""
        cur = self.cursor
        self._descend()
        expr: Expr
        # Quantified and conditional expressions bind loosest.
        if (left is None and cur.current.kind == NAME
                and cur.current.value in ("some", "every")
                and cur.peek().kind == VARIABLE):
            kind = cur.advance().value
            var = cur.expect_kind(VARIABLE).value
            cur.expect_name("in")
            source = self.parse_path(top_level=False)
            cur.expect_name("satisfies")
            expr = Quantified(kind, var, source, self.parse_or_expr())
        elif (left is None and cur.current.is_name("if")
                and cur.peek().is_symbol("(")):
            cur.advance()
            cur.expect_symbol("(")
            condition = self.parse_or_expr()
            cur.expect_symbol(")")
            cur.expect_name("then")
            then_branch = self.parse_or_expr()
            cur.expect_name("else")
            expr = Conditional(condition, then_branch, self.parse_or_expr())
        else:
            operands = [self.parse_and_expr(left)]
            while cur.current.is_name("or"):
                cur.advance()
                operands.append(self.parse_and_expr())
            expr = (operands[0] if len(operands) == 1
                    else BooleanExpr("or", tuple(operands)))
        self._depth -= 1
        return expr

    def parse_and_expr(self, left: Expr | None = None) -> Expr:
        operands = [self.parse_comparison(left)]
        while self.cursor.current.is_name("and"):
            self.cursor.advance()
            operands.append(self.parse_comparison())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpr("and", tuple(operands))

    def parse_comparison(self, left: Expr | None = None) -> Expr:
        left = self.parse_additive(left)
        token = self.cursor.current
        if (token.value in _COMPARISON_OPS and token.kind == SYMBOL
                or token.value in ("is", "isnot") and token.kind == NAME):
            self.cursor.advance()
            return Comparison(token.value, left, self.parse_additive())
        return left

    def parse_additive(self, left: Expr | None = None) -> Expr:
        left = self.parse_multiplicative(left)
        cur = self.cursor
        while cur.current.is_symbol("+") or cur.current.is_symbol("-"):
            op = cur.advance().value
            left = Arithmetic(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self, left: Expr | None = None) -> Expr:
        if left is None:
            left = self.parse_value()
        cur = self.cursor
        # Paths are parsed greedily by parse_value, so a ``*`` seen here
        # always follows a complete operand: multiplication, never a
        # wildcard step.
        while cur.current.is_symbol("*") or cur.current.is_name("div") \
                or cur.current.is_name("mod"):
            op = cur.advance().value
            left = Arithmetic(op, left, self.parse_value())
        return left

    def parse_value(self) -> Expr:
        cur = self.cursor
        token = cur.current

        if token.kind == STRING:
            cur.advance()
            return Literal(token.value)
        if token.kind == NUMBER:
            cur.advance()
            return NumberLiteral(float(token.value))
        if token.is_symbol("("):
            cur.advance()
            inner = self.parse_or_expr()
            cur.expect_symbol(")")
            return inner
        if token.is_name("not") and cur.peek().is_symbol("("):
            cur.advance()
            cur.expect_symbol("(")
            inner = self.parse_or_expr()
            cur.expect_symbol(")")
            return NotExpr(inner)
        if (token.kind == NAME and cur.peek().is_symbol("(")
                and token.value in KNOWN_FUNCTIONS):
            cur.advance()
            cur.expect_symbol("(")
            args: list[Expr] = []
            if not cur.current.is_symbol(")"):
                args.append(self.parse_or_expr())
                while cur.accept_symbol(","):
                    args.append(self.parse_or_expr())
            cur.expect_symbol(")")
            return FunctionCall(token.value, tuple(args))

        # Otherwise it must be a (relative) path.
        if (token.kind in (NAME, VARIABLE)
                or token.kind == SYMBOL and token.value in ("/", "//", ".", "..", "@", "*")):
            return self.parse_path(top_level=False)
        raise cur.error(f"expected an expression, got {token.value!r}")
