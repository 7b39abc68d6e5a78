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

All numbers are exact integers or fractions.  `parse` returns the syntax
tree as plain tuples; `parse_object` evaluates it to a canonical
BundleObject.  Printing is the inverse: `parse_object(print_canonical(x))
== x` for every normal form.
"""

# Syntax tree: each node is a tuple headed by the grammar symbol that made it.
#   ("E", rank)  ("L", t1, t2)  ("T", name)  ("Z",)      atoms; 'O' is ("E", 1)
#   ("~", arg)   ("^", arg, power)   ("n*", count, arg)
#   ("*", arg, arg, ...)  ("+", arg, arg, ...)           one node per chain
# A parenthesised chain stays a nested node.  Ranks, counts and powers are
# ints, t1 and t2 Fractions, and name a str.

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import repeat

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
    """Well-formed syntax carrying an invalid value (rank 0, zero denominator,
    an integer literal longer than int() reads)."""


# -- tokenizer -------------------------------------------------------------


_Token = namedtuple("_Token", ("kind", "value", "offset"))

_PUNCT = set("+*~^()[],/-")
# ASCII only: str.isdigit and str.isalnum also accept '²' (which int()
# rejects), '٣' (which int() reads as 3) and 'ä' (no valid generator name).
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
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

    def parse(self) -> tuple:
        node = self.expr()
        if self.peek().kind != "END":
            self.fail(frozenset({"'+'", "'*'", "END"}))
        return node

    def integer(self, minimum: int = 0, message: str = "") -> int:
        """Read an INT token; a value below `minimum` is refused with `message`."""
        token = self.take("INT")
        try:
            value = int(token.value)
        except ValueError:  # raised only past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ExprValidationError(
                f"integer literal too long ({len(token.value)} digits, limit {limit})",
                token.offset,
            ) from None
        if value < minimum:
            raise ExprValidationError(message, token.offset)
        return value

    # A chain of two or more operands is one n-ary node; the loops stay
    # inline, since a shared helper would cost stack depth per '(' level.
    def expr(self) -> tuple:
        args = [self.term()]
        while self.peek().kind == "'+'":
            self.take("'+'")
            args.append(self.term())
        return ("+", *args) if len(args) > 1 else args[0]

    def term(self) -> tuple:
        args = [self.factor()]
        while self.peek().kind == "'*'":
            self.take("'*'")
            args.append(self.factor())
        return ("*", *args) if len(args) > 1 else args[0]

    def factor(self) -> tuple:
        token = self.peek()
        if token.kind == "'~'":
            self.take("'~'")
            return ("~", self.factor())
        if token.kind == "INT":
            count = self.integer()
            self.take("'*'")
            return ("n*", count, self.factor())
        if token.kind == "'('":
            self.take("'('")
            node = self.expr()
            self.take("')'")
        else:
            node = self.atom()
        if self.peek().kind == "'^'":
            self.take("'^'")
            return ("^", node, self.integer())
        return node

    def atom(self) -> tuple:
        token = self.peek()
        if token.kind == "E":
            self.take("E")
            self.take("'['")
            rank = self.integer(1, "rank must be at least 1")
            self.take("']'")
            return ("E", rank)
        if token.kind == "L":
            self.take("L")
            self.take("'['")
            t1 = self.fraction()
            self.take("','")
            t2 = self.fraction()
            self.take("']'")
            return ("L", t1, t2)
        if token.kind == "T<name>":
            self.take("T<name>")
            return ("T", token.value)
        if token.kind == "O":
            self.take("O")
            return ("E", 1)
        if token.kind == "Z":
            self.take("Z")
            return ("Z",)
        self.fail(_ATOM_EXPECTED)

    def fraction(self) -> Fraction:
        sign = 1
        if self.peek().kind == "'-'":
            self.take("'-'")
            sign = -1
        numerator = self.integer()
        if self.peek().kind == "'/'":
            self.take("'/'")
            return Fraction(sign * numerator, self.integer(1, "zero denominator"))
        return Fraction(sign * numerator)


def parse(text: str) -> tuple:
    """Parse an expression into a tuple syntax tree (no evaluation)."""
    return _Parser(text).parse()


def digit_limit_message() -> str:
    """The error for a result with more digits than Python converts to text."""
    limit = sys.get_int_max_str_digits()
    return f"result has more than {limit} digits (int-to-text limit {limit})"


def evaluate(node: tuple) -> BundleObject:
    """Evaluate a syntax tree to a bundle object in normal form.

    Recursion is as deep as the input's nesting: a chain is one node, a sum
    is normalized once over all its summands, and a tensor chain is folded
    from the left.  A power of a single rank-1 class is computed in closed
    form; any other power is a chain of products, since squaring general
    objects was measured to be slower.  A closed-form c^n with more digits
    than Python converts to text is refused before it is computed.
    """
    head = node[0]
    if head == "E":
        return atiyah(node[1])
    if head == "L":
        return atiyah(1, line_class(node[1], node[2]))
    if head == "T":
        return atiyah(1, line_class(free={node[1]: 1}))
    if head == "Z":
        return ZERO
    if head == "~":
        return evaluate(node[1]).dual()
    if head == "^":
        base, power = evaluate(node[1]), node[2]
        if len(base.summands) == 1 and base.summands[0][0].rank == 1:  # (c*L)^n = c^n * L^n
            (ind, count), = base.summands
            limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
            # c >= 2^(b-1), b its bit length, so c^n has over (b-1) * n * log10(2) digits.
            if limit and (count.bit_length() - 1) * power > 4 * limit:
                raise ValueError(digit_limit_message())
            return count ** power * atiyah(1, ind.twist ** power)
        return reduce(operator.mul, repeat(base, power - 1), base) if power else UNIT
    if head == "n*":
        return node[1] * evaluate(node[2])
    if head == "*":
        return reduce(operator.mul, map(evaluate, node[1:]))
    if head == "+":
        return BundleObject.of(pair for arg in node[1:] for pair in evaluate(arg).summands)
    raise TypeError(f"not an expression node: {node!r}")


def parse_object(text: str) -> BundleObject:
    return evaluate(parse(text))


def print_canonical(obj: BundleObject) -> str:
    """Deterministic canonical text; round-trips through `parse_object`."""
    return str(obj)
