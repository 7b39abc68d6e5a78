"""Expression grammar for bundle objects.

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := '~' factor | INT '*' factor | atom ('^' INT)?
            | '(' expr ')' ('^' INT)?
    atom   := 'E' '[' INT ']' | 'L' '[' frac ',' frac ']' | 'T' IDENT
            | 'O' | 'Z'
    frac   := '-'? INT ('/' INT)?
    IDENT  := [A-Za-z_][A-Za-z0-9_]*

'+' is direct sum and '*' tensor, so '*' binds tighter; '~' (dual) and '^'
(tensor power, exponent >= 0) bind tighter still, and both binary operators
associate to the left.  'n*' with a literal integer is an n-fold direct
sum, 'O' is sugar for the trivial bundle E[1] and 'Z' is the zero object.
Atoms: E[r] is the rank-r Atiyah bundle, L[p/q,p'/q'] a torsion line bundle
class, and T<name> a named free (non-torsion) generator of Pic^0.

All numbers are exact integers or fractions.  `parse` returns the syntax
tree as plain tuples, one node for all equal subtrees however they are
spelled; `parse_object` evaluates it, each node once, to a canonical
BundleObject.  Printing is the inverse: `parse_object(print_canonical(x))
== x` for every normal form.
"""

# Syntax tree: each node is a tuple headed by the grammar symbol that made it.
#   ("E", rank)  ("L", t1, t2)  ("T", name)  ("Z",)      atoms; 'O' is ("E", 1)
#   ("~", arg)   ("^", arg, power)   ("n*", count, arg)
#   ("*", arg, arg, ...)  ("+", arg, arg, ...)           one node per chain
# A parenthesised chain stays a nested node.  Equal subtrees are one node.
# Ranks, counts and powers are ints, t1 and t2 Fractions, and name a str.

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import repeat

from ._budget import draw, metered
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
    an integer literal longer than int() reads, a name starting with a digit)."""


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
                if word[1] in _DIGITS:
                    raise ExprValidationError(f"invalid generator name {word[1:]!r}", start + 1)
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
        # One node per distinct subtree, keyed by its fields with each child
        # replaced by its id: a key is as short as its node.  The table keeps
        # every child alive, so no id in a key is reused.
        self.nodes: dict[tuple, tuple] = {}

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def accept(self, kind: str) -> _Token | None:
        """Consume and return the next token if it has this kind, else None."""
        token = self.tokens[self.index]
        if token.kind != kind:
            return None
        self.index += 1
        return token

    def take(self, kind: str) -> _Token:
        return self.accept(kind) or self.fail(frozenset({kind}))

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
        while self.accept("'+'"):
            args.append(self.term())
        return self.nodes.setdefault(("+", *map(id, args)), ("+", *args)) if len(args) > 1 else args[0]

    def term(self) -> tuple:
        args = [self.factor()]
        while self.accept("'*'"):
            args.append(self.factor())
        return self.nodes.setdefault(("*", *map(id, args)), ("*", *args)) if len(args) > 1 else args[0]

    def factor(self) -> tuple:
        if self.accept("'~'"):
            arg = self.factor()
            return self.nodes.setdefault(("~", id(arg)), ("~", arg))
        if self.peek().kind == "INT":
            count = self.integer()
            self.take("'*'")
            arg = self.factor()
            return self.nodes.setdefault(("n*", count, id(arg)), ("n*", count, arg))
        if self.accept("'('"):
            node = self.expr()
            self.take("')'")
        else:
            atom = self.atom()
            node = self.nodes.setdefault(atom, atom)
        if self.accept("'^'"):
            power = self.integer()
            return self.nodes.setdefault(("^", id(node), power), ("^", node, power))
        return node

    def atom(self) -> tuple:
        if self.accept("E"):
            self.take("'['")
            rank = self.integer(1, "rank must be at least 1")
            self.take("']'")
            return ("E", rank)
        if self.accept("L"):
            self.take("'['")
            t1 = self.fraction()
            self.take("','")
            t2 = self.fraction()
            self.take("']'")
            return ("L", t1, t2)
        token = self.accept("T<name>")
        if token:
            return ("T", token.value)
        if self.accept("O"):
            return ("E", 1)
        if self.accept("Z"):
            return ("Z",)
        self.fail(_ATOM_EXPECTED)

    def fraction(self) -> Fraction:
        sign = -1 if self.accept("'-'") else 1
        numerator = self.integer()
        if self.accept("'/'"):
            return Fraction(sign * numerator, self.integer(1, "zero denominator"))
        return Fraction(sign * numerator)


def parse(text: str) -> tuple:
    """Parse an expression into a tuple syntax tree (no evaluation)."""
    return _Parser(text).parse()


def digit_limit_message() -> str:
    """The error for a result with more digits than Python converts to text."""
    limit = sys.get_int_max_str_digits()
    return f"result has more than {limit} digits (int-to-text limit {limit})"


@metered
def evaluate(node: tuple) -> BundleObject:
    """Evaluate a syntax tree to a bundle object in normal form.

    Recursion is as deep as the input's nesting, one frame per level: a
    chain is one node, a sum merges its arguments' twist-grouped maps at
    once, and a tensor chain is folded from the left.  Each node above the
    atoms is evaluated once per call, so a subtree the parser shares, such
    as each factor of ``(X)*(X)*(X)`` or ``E[2]^40*E[2]^40``, costs one
    evaluation.  No node builds the sorted summands; they are built only if
    the caller reads them.  A power of a single rank-1 class, one twist with
    one rank-1 entry in the map, is computed in closed form, a power n >= 1
    of the zero object is zero, and any other power is a chain of products,
    since squaring general objects was measured to be slower.  A closed-form
    c^n with more digits than Python converts to text is refused before it
    is computed.
    """
    return _evaluate(node, {})


def _evaluate(node: tuple, memo: dict) -> BundleObject:
    """`evaluate`, with ``memo`` mapping the id of each node of the tree
    evaluated so far to its value; the tree keeps every id alive."""
    head = node[0]
    if head == "E":
        return atiyah(node[1])
    if head == "L":
        return atiyah(1, line_class(node[1], node[2]))
    if head == "T":
        return atiyah(1, line_class(free={node[1]: 1}))
    if head == "Z":
        return ZERO
    value = memo.get(id(node))
    if value is not None:
        return value
    if head == "~":
        value = _evaluate(node[1], memo).dual()
    elif head == "^":
        value = _power(_evaluate(node[1], memo), node[2])
    elif head == "n*":
        value = node[1] * _evaluate(node[2], memo)
    elif head == "*" or head == "+":
        args = map(_evaluate, node[1:], repeat(memo))
        value = reduce(operator.mul, args) if head == "*" else BundleObject._sum(args)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = value
    return value


def _power(base: BundleObject, power: int) -> BundleObject:
    if base.is_zero:
        return base if power else UNIT
    (twist, ranks), *others = base._groups.items()
    if not others and ranks.keys() == {1}:  # (c*L)^n = c^n * L^n
        count = ranks[1]
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
        # c >= 2^(b-1), b its bit length, so c^n has over (b-1) * n * log10(2) digits.
        if limit and (count.bit_length() - 1) * power > 4 * limit:
            raise ValueError(digit_limit_message())
        draw(2 * ((count - 1).bit_length() * power // 64 + 1) ** 2)  # c^n < 2^(n*bits(c-1)): words squared
        return count ** power * atiyah(1, twist ** power)
    return reduce(operator.mul, repeat(base, power - 1), base) if power else UNIT


def parse_object(text: str) -> BundleObject:
    return evaluate(parse(text))


def print_canonical(obj: BundleObject) -> str:
    """Deterministic canonical text; round-trips through `parse_object`."""
    return str(obj)
