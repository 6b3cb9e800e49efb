"""Recursive-descent parser for the MATLAB subset; binary operators are
parsed by precedence climbing.

Produces the AST of :mod:`repro.frontend.ast_nodes`.  The grammar follows
MATLAB 6 semantics for everything the paper's benchmarks exercise:

* scripts and function files (primary function + subfunctions, ``end``
  termination optional);
* the full expression grammar with MATLAB precedence, including colon
  ranges, matrix literals, ``end`` arithmetic in subscripts, transpose, and
  short-circuit operators;
* single and multi-value assignments, subscripted stores;
* ``if``/``elseif``/``else``, ``for``, ``while``, ``break``, ``continue``,
  ``return``, ``global`` and command-form ``clear``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import Token, TokenKind

# Binary operators by precedence level (higher binds tighter), in the two
# bands colon ranges separate: the loose band's operands are ranges, and
# the tight band's (additive, multiplicative) are unary expressions.
# Unary operators, power and postfix transposes have functions of their own.
_LOOSE: dict[TokenKind, int] = {
    TokenKind.OROR: 1,
    TokenKind.ANDAND: 2,
    TokenKind.OR: 3,
    TokenKind.AND: 4,
    TokenKind.EQ: 5, TokenKind.NE: 5, TokenKind.LT: 5, TokenKind.LE: 5,
    TokenKind.GT: 5, TokenKind.GE: 5,
}
_TIGHT: dict[TokenKind, int] = {
    TokenKind.PLUS: 1, TokenKind.MINUS: 1,
    TokenKind.STAR: 2, TokenKind.SLASH: 2, TokenKind.BACKSLASH: 2,
    TokenKind.DOT_STAR: 2, TokenKind.DOT_SLASH: 2, TokenKind.DOT_BACKSLASH: 2,
}

_SEPARATORS = (TokenKind.NEWLINE, TokenKind.SEMICOLON, TokenKind.COMMA)


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[Token], source: str = "", filename: str = "<input>"):
        self.tokens = tokens
        self.index = 0
        self.source = source
        self.filename = filename
        # True while parsing subscript argument lists, where `end` is an
        # expression and `:` may stand alone.
        self._subscript_depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        # ``advance`` never moves past the closing EOF token.
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if self.index < len(self.tokens) - 1:
            self.index += 1
        return token

    def check(self, kind: TokenKind) -> bool:
        return self.tokens[self.index].kind is kind

    def accept(self, kind: TokenKind) -> Token | None:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, what: str = "") -> Token:
        if not self.check(kind):
            token = self.peek()
            raise ParseError(
                f"expected {what or kind.value!r}, found {token.text!r}",
                token.location,
            )
        return self.advance()

    def accept_kw(self, word: str) -> bool:
        if self.peek().is_kw(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            token = self.peek()
            raise ParseError(
                f"expected '{word}', found {token.text!r}", token.location
            )

    def _skip_separators(self) -> None:
        while self.peek().kind in _SEPARATORS:
            self.advance()

    def at_eof(self) -> bool:
        return self.check(TokenKind.EOF)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        self._skip_separators()
        program = ast.Program(source=self.source, filename=self.filename)
        if self.peek().is_kw("function"):
            while not self.at_eof():
                program.functions.append(self.parse_function())
                self._skip_separators()
        else:
            program.script = self.parse_statements(stop_keywords=frozenset())
            if not self.at_eof():
                token = self.peek()
                raise ParseError(
                    f"unexpected {token.text!r} at top level", token.location
                )
        return program

    def parse_function(self) -> ast.FunctionDef:
        location = self.peek().location
        self.expect_kw("function")
        outputs: list[str] = []
        # Three header shapes: f(...), o = f(...), [o1, o2] = f(...)
        if self.accept(TokenKind.LBRACKET):
            while not self.check(TokenKind.RBRACKET):
                outputs.append(self.expect(TokenKind.IDENT, "output name").text)
                if not self.accept(TokenKind.COMMA):
                    break
            self.expect(TokenKind.RBRACKET)
            self.expect(TokenKind.ASSIGN)
            name = self.expect(TokenKind.IDENT, "function name").text
        else:
            first = self.expect(TokenKind.IDENT, "function name").text
            if self.accept(TokenKind.ASSIGN):
                outputs = [first]
                name = self.expect(TokenKind.IDENT, "function name").text
            else:
                name = first
        params: list[str] = []
        if self.accept(TokenKind.LPAREN):
            while not self.check(TokenKind.RPAREN):
                params.append(self.expect(TokenKind.IDENT, "parameter").text)
                if not self.accept(TokenKind.COMMA):
                    break
            self.expect(TokenKind.RPAREN)
        body = self.parse_statements(
            stop_keywords=frozenset({"function", "end"})
        )
        # Optional `end` that terminates the function definition.
        self.accept_kw("end")
        return ast.FunctionDef(
            name=name, params=params, outputs=outputs, body=body,
            location=location,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statements(self, stop_keywords: frozenset[str]) -> list[ast.Stmt]:
        stop = stop_keywords | {"elseif", "else", "otherwise", "case"}
        body: list[ast.Stmt] = []
        self._skip_separators()
        while not self.at_eof():
            token = self.peek()
            if token.is_keyword and token.text in stop:
                break
            if token.is_kw("end") and "end" not in stop_keywords:
                break
            body.append(self.parse_statement())
            self._skip_separators()
        return body

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.is_keyword:
            handler = {
                "if": self._parse_if,
                "while": self._parse_while,
                "for": self._parse_for,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "return": self._parse_return,
                "global": self._parse_global,
                "clear": self._parse_clear,
            }.get(token.text)
            if handler is None:
                raise ParseError(
                    f"unexpected keyword '{token.text}'", token.location
                )
            return handler()
        if token.kind is TokenKind.LBRACKET:
            multi = self._try_parse_multi_assign()
            if multi is not None:
                return multi
        return self._parse_expression_statement()

    def _statement_display_flag(self) -> bool:
        """Consume the statement terminator; ``;`` suppresses display."""
        if self.accept(TokenKind.SEMICOLON):
            return False
        if self.peek().kind in (TokenKind.NEWLINE, TokenKind.COMMA, TokenKind.EOF):
            if not self.at_eof():
                self.advance()
            return True
        # Statements directly followed by a block keyword (e.g. `end`).
        if self.peek().is_keyword:
            return True
        token = self.peek()
        raise ParseError(
            f"expected end of statement, found {token.text!r}", token.location
        )

    def _parse_expression_statement(self) -> ast.Stmt:
        location = self.peek().location
        expr = self.parse_expression()
        if self.check(TokenKind.ASSIGN):
            target = self._expr_to_lvalue(expr)
            self.advance()
            value = self.parse_expression()
            display = self._statement_display_flag()
            return ast.Assign(
                target=target, value=value, display=display, location=location
            )
        display = self._statement_display_flag()
        return ast.ExprStmt(value=expr, display=display, location=location)

    def _expr_to_lvalue(self, expr: ast.Expr) -> ast.LValue:
        if isinstance(expr, ast.Ident):
            return ast.LValue(name=expr.name, location=expr.location)
        if isinstance(expr, ast.Apply):
            return ast.LValue(
                name=expr.name, indices=expr.args, location=expr.location
            )
        raise ParseError("invalid assignment target", expr.location)

    def _try_parse_multi_assign(self) -> ast.MultiAssign | None:
        """Attempt ``[a, b] = f(...)``; backtrack if it is a matrix literal."""
        saved = self.index
        location = self.peek().location
        self.advance()  # consume '['
        targets: list[ast.LValue] = []
        while True:
            if not self.check(TokenKind.IDENT):
                self.index = saved
                return None
            name = self.advance().text
            indices: list[ast.Expr] | None = None
            if self.check(TokenKind.LPAREN):
                try:
                    indices = self._parse_subscript_args()
                except ParseError:
                    self.index = saved
                    return None
            targets.append(ast.LValue(name=name, indices=indices))
            if self.accept(TokenKind.COMMA):
                continue
            break
        if not (self.accept(TokenKind.RBRACKET) and self.check(TokenKind.ASSIGN)):
            self.index = saved
            return None
        self.advance()  # '='
        call = self.parse_expression()
        display = self._statement_display_flag()
        return ast.MultiAssign(
            targets=targets, call=call, display=display, location=location
        )

    def _parse_if(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("if")
        branches: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        cond = self.parse_expression()
        self._skip_separators()
        body = self.parse_statements(frozenset())
        branches.append((cond, body))
        orelse: list[ast.Stmt] = []
        while True:
            if self.accept_kw("elseif"):
                cond = self.parse_expression()
                self._skip_separators()
                branches.append((cond, self.parse_statements(frozenset())))
                continue
            if self.accept_kw("else"):
                self._skip_separators()
                orelse = self.parse_statements(frozenset())
            break
        self.expect_kw("end")
        return ast.If(branches=branches, orelse=orelse, location=location)

    def _parse_while(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("while")
        cond = self.parse_expression()
        self._skip_separators()
        body = self.parse_statements(frozenset())
        self.expect_kw("end")
        return ast.While(cond=cond, body=body, location=location)

    def _parse_for(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("for")
        var = self.expect(TokenKind.IDENT, "loop variable").text
        self.expect(TokenKind.ASSIGN)
        iterable = self.parse_expression()
        self._skip_separators()
        body = self.parse_statements(frozenset())
        self.expect_kw("end")
        return ast.For(var=var, iterable=iterable, body=body, location=location)

    def _parse_break(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("break")
        self._statement_display_flag()
        return ast.Break(location=location)

    def _parse_continue(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("continue")
        self._statement_display_flag()
        return ast.Continue(location=location)

    def _parse_return(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("return")
        self._statement_display_flag()
        return ast.Return(location=location)

    def _parse_global(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("global")
        names = []
        while self.check(TokenKind.IDENT):
            names.append(self.advance().text)
            self.accept(TokenKind.COMMA)
        self._statement_display_flag()
        return ast.Global(names=names, location=location)

    def _parse_clear(self) -> ast.Stmt:
        location = self.peek().location
        self.expect_kw("clear")
        names = []
        while self.check(TokenKind.IDENT):
            names.append(self.advance().text)
        self._statement_display_flag()
        return ast.Clear(names=names, location=location)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self._parse_loose(1)

    def _parse_loose(self, min_level: int) -> ast.Expr:
        """Short-circuit, elementwise logical and relational operators
        binding at least as tight as ``min_level``, by precedence climbing
        over ranges; every level is left-associative."""
        left = self._parse_range()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            level = _LOOSE.get(token.kind)
            if level is None or level < min_level:
                return left
            self.index += 1  # an operator is never the EOF token
            right = self._parse_loose(level + 1)
            left = ast.BinaryOp(
                op=token.text, left=left, right=right, location=token.location
            )

    def _parse_range(self) -> ast.Expr:
        """Colon level: ``a : b`` and ``a : s : b``."""
        start = self._parse_tight(1)
        if not self.check(TokenKind.COLON):
            return start
        location = self.advance().location
        second = self._parse_tight(1)
        if self.check(TokenKind.COLON):
            self.advance()
            stop = self._parse_tight(1)
            return ast.Range(start=start, step=second, stop=stop, location=location)
        return ast.Range(start=start, stop=second, location=location)

    def _parse_tight(self, min_level: int) -> ast.Expr:
        """Additive and multiplicative operators over unary expressions:
        the loose band's climb, one band tighter."""
        left = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            level = _TIGHT.get(token.kind)
            if level is None or level < min_level:
                return left
            self.index += 1
            right = self._parse_tight(level + 1)
            left = ast.BinaryOp(
                op=token.text, left=left, right=right, location=token.location
            )

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.MINUS:
            self.advance()
            return ast.UnaryOp(
                op=ast.UnaryKind.NEG, operand=self._parse_unary(),
                location=token.location,
            )
        if token.kind is TokenKind.PLUS:
            self.advance()
            return ast.UnaryOp(
                op=ast.UnaryKind.POS, operand=self._parse_unary(),
                location=token.location,
            )
        if token.kind is TokenKind.NOT:
            self.advance()
            return ast.UnaryOp(
                op=ast.UnaryKind.NOT, operand=self._parse_unary(),
                location=token.location,
            )
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_postfix()
        token = self.peek()
        if token.kind in (TokenKind.CARET, TokenKind.DOT_CARET):
            self.advance()
            # MATLAB power is left-associative; exponent may be unary.
            exponent = self._parse_power_operand()
            result = ast.BinaryOp(
                op=token.text, left=base, right=exponent, location=token.location
            )
            while self.peek().kind in (TokenKind.CARET, TokenKind.DOT_CARET):
                op_token = self.advance()
                result = ast.BinaryOp(
                    op=op_token.text,
                    left=result,
                    right=self._parse_power_operand(),
                    location=op_token.location,
                )
            return result
        return base

    def _parse_power_operand(self) -> ast.Expr:
        token = self.peek()
        if token.kind in (TokenKind.MINUS, TokenKind.PLUS, TokenKind.NOT):
            self.advance()
            kind = {
                TokenKind.MINUS: ast.UnaryKind.NEG,
                TokenKind.PLUS: ast.UnaryKind.POS,
                TokenKind.NOT: ast.UnaryKind.NOT,
            }[token.kind]
            return ast.UnaryOp(
                op=kind, operand=self._parse_power_operand(),
                location=token.location,
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self.peek()
            if token.kind is TokenKind.QUOTE:
                self.advance()
                expr = ast.Transpose(
                    operand=expr, conjugate=True, location=token.location
                )
            elif token.kind is TokenKind.DOT_QUOTE:
                self.advance()
                expr = ast.Transpose(
                    operand=expr, conjugate=False, location=token.location
                )
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return ast.Number(value=float(token.text), location=token.location)
        if token.kind is TokenKind.IMAGINARY:
            self.advance()
            return ast.ImagNumber(value=float(token.text), location=token.location)
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.StringLit(text=token.text, location=token.location)
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.check(TokenKind.LPAREN):
                args = self._parse_subscript_args()
                return ast.Apply(name=token.text, args=args, location=token.location)
            return ast.Ident(name=token.text, location=token.location)
        if token.is_kw("end") and self._subscript_depth > 0:
            self.advance()
            return ast.EndMarker(location=token.location)
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(TokenKind.RPAREN)
            return inner
        if token.kind is TokenKind.LBRACKET:
            return self._parse_matrix()
        raise ParseError(f"unexpected token {token.text!r}", token.location)

    def _parse_subscript_args(self) -> list[ast.Expr]:
        """Parse ``( ... )`` where ``end`` and bare ``:`` are permitted."""
        self.expect(TokenKind.LPAREN)
        self._subscript_depth += 1
        args: list[ast.Expr] = []
        try:
            if not self.check(TokenKind.RPAREN):
                while True:
                    if self.check(TokenKind.COLON) and self.peek(1).kind in (
                        TokenKind.COMMA,
                        TokenKind.RPAREN,
                    ):
                        location = self.advance().location
                        args.append(ast.ColonAll(location=location))
                    else:
                        args.append(self.parse_expression())
                    if not self.accept(TokenKind.COMMA):
                        break
            self.expect(TokenKind.RPAREN)
        finally:
            self._subscript_depth -= 1
        return args

    def _parse_matrix(self) -> ast.Expr:
        location = self.expect(TokenKind.LBRACKET).location
        rows: list[list[ast.Expr]] = []
        current: list[ast.Expr] = []
        while not self.check(TokenKind.RBRACKET):
            if self.accept(TokenKind.SEMICOLON) or self.accept(TokenKind.NEWLINE):
                if current:
                    rows.append(current)
                    current = []
                continue
            if self.accept(TokenKind.COMMA):
                continue
            current.append(self.parse_expression())
        self.expect(TokenKind.RBRACKET)
        if current:
            rows.append(current)
        return ast.MatrixLit(rows=rows, location=location)


def parse(source: str, filename: str = "<input>") -> ast.Program:
    """Parse MATLAB source text into a :class:`~repro.frontend.ast_nodes.Program`."""
    return Parser(tokenize(source, filename), source, filename).parse_program()


def parse_file(path) -> ast.Program:
    """Parse a ``.m`` file from disk."""
    import os

    with open(path) as handle:
        text = handle.read()
    return parse(text, filename=os.fspath(path))


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (testing convenience)."""
    parser = Parser(tokenize(source), source)
    expr = parser.parse_expression()
    parser._skip_separators()
    if not parser.at_eof():
        token = parser.peek()
        raise ParseError(f"trailing input {token.text!r}", token.location)
    return expr
