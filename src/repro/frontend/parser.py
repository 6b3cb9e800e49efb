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

from repro.errors import ParseError, SourceLocation
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import (
    AND, ANDAND, ASSIGN, BACKSLASH, CARET, COLON, COMMA, DOT_BACKSLASH,
    DOT_CARET, DOT_QUOTE, DOT_SLASH, DOT_STAR, EOF, EQ, GE, GT, IDENT,
    IMAGINARY, KEYWORD, LBRACKET, LE, LPAREN, LT, MINUS, NE, NEWLINE, NOT,
    NUMBER, OR, OROR, PLUS, QUOTE, RBRACKET, RPAREN, SEMICOLON, SLASH, STAR,
    STRING, Token, TokenKind,
)

# Binary operators by precedence level (higher binds tighter), in the two
# bands colon ranges separate: the loose band's operands are ranges, and
# the tight band's (additive, multiplicative) are unary expressions.
# Unary operators, power and postfix transposes have tables of their own.
_LOOSE: dict[TokenKind, int] = {
    OROR: 1, ANDAND: 2, OR: 3, AND: 4,
    EQ: 5, NE: 5, LT: 5, LE: 5, GT: 5, GE: 5,
}
_TIGHT: dict[TokenKind, int] = {
    PLUS: 1, MINUS: 1,
    STAR: 2, SLASH: 2, BACKSLASH: 2, DOT_STAR: 2, DOT_SLASH: 2,
    DOT_BACKSLASH: 2,
}
_UNARY = {
    MINUS: ast.UnaryKind.NEG, PLUS: ast.UnaryKind.POS, NOT: ast.UnaryKind.NOT,
}
_TRANSPOSES = {QUOTE: True, DOT_QUOTE: False}  # kind -> conjugate

_SEPARATORS = frozenset({NEWLINE, SEMICOLON, COMMA})
# Keywords that close a statement list.
_BLOCK_ENDS = frozenset({"end", "elseif", "else", "otherwise", "case"})


class Parser:
    """One-token-lookahead recursive-descent parser.

    The hot paths read ``self.tokens[self.index]`` and step ``self.index``
    themselves; the closing EOF token is never stepped over.
    """

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
    def accept(self, kind: TokenKind) -> bool:
        if self.tokens[self.index].kind is kind:
            self.index += 1  # ``kind`` is never EOF
            return True
        return False

    def expect(self, kind: TokenKind, what: str = "") -> Token:
        token = self.tokens[self.index]
        if token.kind is not kind:
            raise ParseError(
                f"expected {what or kind.value!r}, found {token.text!r}",
                token.location,
            )
        self.index += 1
        return token

    def _at_keyword(self, word: str) -> bool:
        token = self.tokens[self.index]
        return token.kind is KEYWORD and token.text == word

    def expect_kw(self, word: str) -> None:
        if not self._at_keyword(word):
            token = self.tokens[self.index]
            raise ParseError(
                f"expected '{word}', found {token.text!r}", token.location
            )
        self.index += 1

    def _keyword_location(self) -> SourceLocation:
        """Step over the keyword a statement was dispatched on; where it is."""
        self.index += 1
        return self.tokens[self.index - 1].location

    def _skip_separators(self) -> None:
        tokens = self.tokens
        while tokens[self.index].kind in _SEPARATORS:
            self.index += 1

    def at_eof(self) -> bool:
        return self.tokens[self.index].kind is EOF

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        self._skip_separators()
        program = ast.Program(source=self.source, filename=self.filename)
        if self._at_keyword("function"):
            while not self.at_eof():
                program.functions.append(self.parse_function())
                self._skip_separators()
        else:
            program.script = self.parse_statements(stop_keywords=frozenset())
            if not self.at_eof():
                token = self.tokens[self.index]
                raise ParseError(
                    f"unexpected {token.text!r} at top level", token.location
                )
        return program

    def parse_function(self) -> ast.FunctionDef:
        location = self.tokens[self.index].location
        self.expect_kw("function")
        outputs: list[str] = []
        # Three header shapes: f(...), o = f(...), [o1, o2] = f(...)
        if self.accept(LBRACKET):
            while self.tokens[self.index].kind is not RBRACKET:
                outputs.append(self.expect(IDENT, "output name").text)
                if not self.accept(COMMA):
                    break
            self.expect(RBRACKET)
            self.expect(ASSIGN)
            name = self.expect(IDENT, "function name").text
        else:
            first = self.expect(IDENT, "function name").text
            if self.accept(ASSIGN):
                outputs = [first]
                name = self.expect(IDENT, "function name").text
            else:
                name = first
        params: list[str] = []
        if self.accept(LPAREN):
            while self.tokens[self.index].kind is not RPAREN:
                params.append(self.expect(IDENT, "parameter").text)
                if not self.accept(COMMA):
                    break
            self.expect(RPAREN)
        body = self.parse_statements(
            stop_keywords=frozenset({"function", "end"})
        )
        # Optional `end` that terminates the function definition.
        if self._at_keyword("end"):
            self.index += 1
        return ast.FunctionDef(
            name=name, params=params, outputs=outputs, body=body,
            location=location,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statements(self, stop_keywords: frozenset[str]) -> list[ast.Stmt]:
        """Statements up to EOF or a keyword that ends the list: ``end``
        always (a caller that takes it consumes it), ``elseif`` / ``else``
        / ``otherwise`` / ``case``, and ``stop_keywords``."""
        stop = stop_keywords | _BLOCK_ENDS
        tokens = self.tokens
        body: list[ast.Stmt] = []
        self._skip_separators()
        while True:
            token = tokens[self.index]
            if token.kind is EOF or (
                token.kind is KEYWORD and token.text in stop
            ):
                return body
            body.append(self.parse_statement())
            self._skip_separators()

    def parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.index]
        if token.kind is KEYWORD:
            handler = self._KEYWORD_STATEMENTS.get(token.text)
            if handler is None:
                raise ParseError(
                    f"unexpected keyword '{token.text}'", token.location
                )
            return handler(self)
        if token.kind is LBRACKET:
            multi = self._try_parse_multi_assign()
            if multi is not None:
                return multi
        return self._parse_expression_statement()

    def _statement_display_flag(self) -> bool:
        """Consume the statement terminator; ``;`` suppresses display."""
        token = self.tokens[self.index]
        kind = token.kind
        if kind is SEMICOLON:
            self.index += 1
            return False
        if kind is NEWLINE or kind is COMMA:
            self.index += 1
            return True
        # At EOF, or directly followed by a block keyword (e.g. `end`).
        if kind is EOF or kind is KEYWORD:
            return True
        raise ParseError(
            f"expected end of statement, found {token.text!r}", token.location
        )

    def _parse_expression_statement(self) -> ast.Stmt:
        location = self.tokens[self.index].location
        expr = self.parse_expression()
        if self.tokens[self.index].kind is ASSIGN:
            target = self._expr_to_lvalue(expr)
            self.index += 1
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
        tokens = self.tokens
        saved = self.index
        self.index += 1  # consume '['
        targets: list[ast.LValue] = []
        while True:
            token = tokens[self.index]
            if token.kind is not IDENT:
                self.index = saved
                return None
            self.index += 1
            indices: list[ast.Expr] | None = None
            if tokens[self.index].kind is LPAREN:
                try:
                    indices = self._parse_subscript_args()
                except ParseError:
                    self.index = saved
                    return None
            targets.append(ast.LValue(name=token.text, indices=indices))
            if not self.accept(COMMA):
                break
        if not (self.accept(RBRACKET) and tokens[self.index].kind is ASSIGN):
            self.index = saved
            return None
        self.index += 1  # '='
        call = self.parse_expression()
        display = self._statement_display_flag()
        return ast.MultiAssign(
            targets=targets, call=call, display=display,
            location=tokens[saved].location,
        )

    def _parse_if(self) -> ast.Stmt:
        location = self._keyword_location()
        branches: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        cond = self.parse_expression()
        self._skip_separators()
        body = self.parse_statements(frozenset())
        branches.append((cond, body))
        orelse: list[ast.Stmt] = []
        while True:
            if self._at_keyword("elseif"):
                self.index += 1
                cond = self.parse_expression()
                self._skip_separators()
                branches.append((cond, self.parse_statements(frozenset())))
                continue
            if self._at_keyword("else"):
                self.index += 1
                self._skip_separators()
                orelse = self.parse_statements(frozenset())
            break
        self.expect_kw("end")
        return ast.If(branches=branches, orelse=orelse, location=location)

    def _parse_while(self) -> ast.Stmt:
        location = self._keyword_location()
        cond = self.parse_expression()
        self._skip_separators()
        body = self.parse_statements(frozenset())
        self.expect_kw("end")
        return ast.While(cond=cond, body=body, location=location)

    def _parse_for(self) -> ast.Stmt:
        location = self._keyword_location()
        var = self.expect(IDENT, "loop variable").text
        self.expect(ASSIGN)
        iterable = self.parse_expression()
        self._skip_separators()
        body = self.parse_statements(frozenset())
        self.expect_kw("end")
        return ast.For(var=var, iterable=iterable, body=body, location=location)

    def _parse_break(self) -> ast.Stmt:
        location = self._keyword_location()
        self._statement_display_flag()
        return ast.Break(location=location)

    def _parse_continue(self) -> ast.Stmt:
        location = self._keyword_location()
        self._statement_display_flag()
        return ast.Continue(location=location)

    def _parse_return(self) -> ast.Stmt:
        location = self._keyword_location()
        self._statement_display_flag()
        return ast.Return(location=location)

    def _parse_global(self) -> ast.Stmt:
        location = self._keyword_location()
        names = []
        while self.tokens[self.index].kind is IDENT:
            names.append(self.expect(IDENT).text)
            self.accept(COMMA)
        self._statement_display_flag()
        return ast.Global(names=names, location=location)

    def _parse_clear(self) -> ast.Stmt:
        location = self._keyword_location()
        names = []
        while self.tokens[self.index].kind is IDENT:
            names.append(self.expect(IDENT).text)
        self._statement_display_flag()
        return ast.Clear(names=names, location=location)

    _KEYWORD_STATEMENTS = {
        "if": _parse_if,
        "while": _parse_while,
        "for": _parse_for,
        "break": _parse_break,
        "continue": _parse_continue,
        "return": _parse_return,
        "global": _parse_global,
        "clear": _parse_clear,
    }

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
        tokens = self.tokens
        colon = tokens[self.index]
        if colon.kind is not COLON:
            return start
        self.index += 1
        second = self._parse_tight(1)
        if tokens[self.index].kind is COLON:
            self.index += 1
            stop = self._parse_tight(1)
            return ast.Range(
                start=start, step=second, stop=stop, location=colon.location
            )
        return ast.Range(start=start, stop=second, location=colon.location)

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
        token = self.tokens[self.index]
        op = _UNARY.get(token.kind)
        if op is None:
            return self._parse_power()
        self.index += 1
        return ast.UnaryOp(
            op=op, operand=self._parse_unary(), location=token.location
        )

    def _parse_power(self) -> ast.Expr:
        """``^`` and ``.^`` over postfix expressions; MATLAB power is
        left-associative, and an exponent may be unary."""
        result = self._parse_postfix()
        tokens = self.tokens
        token = tokens[self.index]
        while token.kind is CARET or token.kind is DOT_CARET:
            self.index += 1
            result = ast.BinaryOp(
                op=token.text, left=result,
                right=self._parse_power_operand(), location=token.location,
            )
            token = tokens[self.index]
        return result

    def _parse_power_operand(self) -> ast.Expr:
        token = self.tokens[self.index]
        op = _UNARY.get(token.kind)
        if op is None:
            return self._parse_postfix()
        self.index += 1
        return ast.UnaryOp(
            op=op, operand=self._parse_power_operand(), location=token.location
        )

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            conjugate = _TRANSPOSES.get(token.kind)
            if conjugate is None:
                return expr
            self.index += 1
            expr = ast.Transpose(
                operand=expr, conjugate=conjugate, location=token.location
            )

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.index]
        kind = token.kind
        if kind is IDENT:
            self.index += 1
            if self.tokens[self.index].kind is LPAREN:
                args = self._parse_subscript_args()
                return ast.Apply(name=token.text, args=args, location=token.location)
            return ast.Ident(name=token.text, location=token.location)
        if kind is NUMBER:
            self.index += 1
            return ast.Number(value=float(token.text), location=token.location)
        if kind is IMAGINARY:
            self.index += 1
            return ast.ImagNumber(value=float(token.text), location=token.location)
        if kind is STRING:
            self.index += 1
            return ast.StringLit(text=token.text, location=token.location)
        if kind is KEYWORD and token.text == "end" and self._subscript_depth:
            self.index += 1
            return ast.EndMarker(location=token.location)
        if kind is LPAREN:
            self.index += 1
            inner = self.parse_expression()
            self.expect(RPAREN)
            return inner
        if kind is LBRACKET:
            return self._parse_matrix()
        raise ParseError(f"unexpected token {token.text!r}", token.location)

    def _parse_subscript_args(self) -> list[ast.Expr]:
        """Parse ``( ... )`` where ``end`` and bare ``:`` are permitted;
        the caller has seen the ``(``."""
        tokens = self.tokens
        self.index += 1
        self._subscript_depth += 1
        args: list[ast.Expr] = []
        try:
            if tokens[self.index].kind is not RPAREN:
                while True:
                    token = tokens[self.index]
                    if token.kind is COLON and \
                            tokens[self.index + 1].kind in (COMMA, RPAREN):
                        self.index += 1
                        args.append(ast.ColonAll(location=token.location))
                    else:
                        args.append(self.parse_expression())
                    if tokens[self.index].kind is not COMMA:
                        break
                    self.index += 1
            self.expect(RPAREN)
        finally:
            self._subscript_depth -= 1
        return args

    def _parse_matrix(self) -> ast.Expr:
        """Parse ``[ ... ]``; the caller has seen the ``[``."""
        tokens = self.tokens
        location = tokens[self.index].location
        self.index += 1
        rows: list[list[ast.Expr]] = []
        current: list[ast.Expr] = []
        while True:
            kind = tokens[self.index].kind
            if kind is RBRACKET:
                break
            if kind is SEMICOLON or kind is NEWLINE:
                self.index += 1
                if current:
                    rows.append(current)
                    current = []
            elif kind is COMMA:
                self.index += 1
            else:
                current.append(self.parse_expression())
        self.index += 1
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
        token = parser.tokens[parser.index]
        raise ParseError(f"trailing input {token.text!r}", token.location)
    return expr
