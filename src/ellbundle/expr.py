"""Expression grammar for bundle objects.

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := '~' factor | INT '*' factor | atom ('^' INT)?
            | '(' expr ')' ('^' INT)?
    atom   := 'E' '[' INT ']' | 'L' '[' frac ',' frac ']' | 'T' IDENT
            | 'O' | 'Z'
    frac   := '-'? INT ('/' INT)?

'+' is direct sum and '*' tensor, so '*' binds tighter; '~' (dual) and '^'
(tensor power, exponent >= 0) bind tighter still, and both binary operators
associate to the left.  'n*' with a literal integer is an n-fold direct
sum, 'O' is sugar for the trivial bundle E[1] and 'Z' is the zero object.
Atoms: E[r] is the rank-r Atiyah bundle, L[p/q,p'/q'] a torsion line bundle
class, and T<name> a named free (non-torsion) generator of Pic^0.

All numbers are exact integers or fractions.  `parse` produces a syntax
tree; `parse_object` evaluates it to a canonical BundleObject.  Printing is
the inverse: `parse_object(print_canonical(x)) == x` for every normal form.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from typing import Union

from .bundles import UNIT, ZERO, BundleObject, atiyah
from .picard import line_class

__all__ = [
    "ParseError",
    "ExprValidationError",
    "parse",
    "parse_object",
    "evaluate",
    "print_canonical",
]


class ParseError(ValueError):
    """Syntax error with the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class ExprValidationError(ParseError):
    """Well-formed syntax carrying an invalid value (rank 0, zero denominator)."""


# -- syntax tree -----------------------------------------------------------


@dataclass(frozen=True)
class ENode:
    rank: int


@dataclass(frozen=True)
class LNode:
    t1: Fraction
    t2: Fraction


@dataclass(frozen=True)
class TNode:
    name: str


@dataclass(frozen=True)
class ZNode:
    pass


@dataclass(frozen=True)
class Dual:
    arg: "Expression"


@dataclass(frozen=True)
class Pow:
    arg: "Expression"
    power: int


@dataclass(frozen=True)
class Mult:
    count: int
    arg: "Expression"


@dataclass(frozen=True)
class Tensor:
    args: tuple["Expression", ...]


@dataclass(frozen=True)
class Sum:
    args: tuple["Expression", ...]


Expression = Union[ENode, LNode, TNode, ZNode, Dual, Pow, Mult, Tensor, Sum]


# -- tokenizer -------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    offset: int


_PUNCT = set("+*~^()[],/-")
# ASCII only: str.isdigit and str.isalnum also accept '²' (which int()
# rejects), '٣' (which int() reads as 3) and 'ä' (no valid generator name).
_DIGITS = frozenset(string.digits)
_NAME_START = frozenset(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS

_ATOM_EXPECTED = frozenset({"E", "L", "T<name>", "O", "Z", "INT", "'('", "'~'"})


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        start = pos
        if ch in _DIGITS:
            while pos < size and text[pos] in _DIGITS:
                pos += 1
            tokens.append(_Token("INT", text[start:pos], start))
        elif ch in _NAME_START:
            while pos < size and text[pos] in _NAME_CHARS:
                pos += 1
            # A non-ASCII letter or digit glued to a name is the bad character.
            if pos < size and text[pos].isalnum():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            word = text[start:pos]
            if word in ("E", "L", "O", "Z"):
                tokens.append(_Token(word, word, start))
            elif word[0] == "T" and len(word) > 1:
                tokens.append(_Token("T<name>", word[1:], start))
            elif word == "T":
                raise ParseError("missing generator name after 'T'", start, frozenset({"T<name>"}))
            else:
                raise ParseError(f"unknown symbol {word!r}", start, _ATOM_EXPECTED)
        elif ch in _PUNCT:
            tokens.append(_Token(f"'{ch}'", ch, start))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start, _ATOM_EXPECTED)
    tokens.append(_Token("END", "", size))
    return tokens


# -- recursive descent -----------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            self.fail(frozenset({kind}))
        self.index += 1
        return token

    def fail(self, expected: frozenset[str]):
        token = self.peek()
        found = token.kind if token.kind != "END" else "end of input"
        raise ParseError(f"unexpected {found}", token.offset, expected)

    def parse(self) -> Expression:
        node = self.expr()
        if self.peek().kind != "END":
            self.fail(frozenset({"'+'", "'*'", "END"}))
        return node

    # A chain of two or more operands is one n-ary node; the loops stay
    # inline, since a shared helper would cost stack depth per '(' level.
    def expr(self) -> Expression:
        args = [self.term()]
        while self.peek().kind == "'+'":
            self.take("'+'")
            args.append(self.term())
        return Sum(tuple(args)) if len(args) > 1 else args[0]

    def term(self) -> Expression:
        args = [self.factor()]
        while self.peek().kind == "'*'":
            self.take("'*'")
            args.append(self.factor())
        return Tensor(tuple(args)) if len(args) > 1 else args[0]

    def factor(self) -> Expression:
        token = self.peek()
        if token.kind == "'~'":
            self.take("'~'")
            return Dual(self.factor())
        if token.kind == "INT":
            self.take("INT")
            self.take("'*'")
            return Mult(int(token.value), self.factor())
        if token.kind == "'('":
            self.take("'('")
            node = self.expr()
            self.take("')'")
        else:
            node = self.atom()
        if self.peek().kind == "'^'":
            self.take("'^'")
            power = self.take("INT")
            return Pow(node, int(power.value))
        return node

    def atom(self) -> Expression:
        token = self.peek()
        if token.kind == "E":
            self.take("E")
            self.take("'['")
            rank_token = self.take("INT")
            rank = int(rank_token.value)
            if rank < 1:
                raise ExprValidationError("rank must be at least 1", rank_token.offset)
            self.take("']'")
            return ENode(rank)
        if token.kind == "L":
            self.take("L")
            self.take("'['")
            t1 = self.fraction()
            self.take("','")
            t2 = self.fraction()
            self.take("']'")
            return LNode(t1, t2)
        if token.kind == "T<name>":
            self.take("T<name>")
            return TNode(token.value)
        if token.kind == "O":
            self.take("O")
            return ENode(1)
        if token.kind == "Z":
            self.take("Z")
            return ZNode()
        self.fail(_ATOM_EXPECTED)

    def fraction(self) -> Fraction:
        sign = 1
        if self.peek().kind == "'-'":
            self.take("'-'")
            sign = -1
        numerator = int(self.take("INT").value)
        if self.peek().kind == "'/'":
            self.take("'/'")
            den_token = self.take("INT")
            denominator = int(den_token.value)
            if denominator == 0:
                raise ExprValidationError("zero denominator", den_token.offset)
            return Fraction(sign * numerator, denominator)
        return Fraction(sign * numerator)


def parse(text: str) -> Expression:
    """Parse an expression into a syntax tree (no evaluation)."""
    return _Parser(text).parse()


def evaluate(node: Expression) -> BundleObject:
    """Evaluate a syntax tree to a bundle object in normal form.

    Recursion is as deep as the input's nesting: a chain is one node, a sum
    is normalized once over all its summands, and a tensor chain is folded
    from the left.
    """
    if isinstance(node, ENode):
        return atiyah(node.rank)
    if isinstance(node, LNode):
        return atiyah(1, line_class(node.t1, node.t2))
    if isinstance(node, TNode):
        return atiyah(1, line_class(free={node.name: 1}))
    if isinstance(node, ZNode):
        return ZERO
    if isinstance(node, Dual):
        return evaluate(node.arg).dual()
    if isinstance(node, Pow):
        return reduce(operator.mul, repeat(evaluate(node.arg), node.power), UNIT)
    if isinstance(node, Mult):
        return node.count * evaluate(node.arg)
    if isinstance(node, Tensor):
        return reduce(operator.mul, map(evaluate, node.args))
    if isinstance(node, Sum):
        return BundleObject.of(pair for arg in node.args for pair in evaluate(arg).summands)
    raise TypeError(f"not an expression node: {node!r}")


def parse_object(text: str) -> BundleObject:
    return evaluate(parse(text))


def print_canonical(obj: BundleObject) -> str:
    """Deterministic canonical text; round-trips through `parse_object`."""
    return str(obj)
