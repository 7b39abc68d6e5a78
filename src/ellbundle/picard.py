"""Degree-0 line bundle classes on an elliptic curve.

Over an algebraically closed field of characteristic 0 the torsion part of
the degree-0 Picard group of an elliptic curve is (Q/Z)^2.  Classes of
infinite order are modelled formally as monomials in named free generators,
with no relations between distinct generators.  A class is therefore a pair
of fractions in [0, 1) together with a finite exponent map, and structural
equality is equality in the group.

The torsion pair is stored as integers over one denominator: ``(d, a, b)``
with ``t1 = a/d``, ``t2 = b/d``, ``0 <= a, b < d`` and ``gcd(a, b, d) = 1``,
so ``d`` is the order of the torsion part.  Products and powers are integer
arithmetic, and equality, hashing and the sort order of twists all use the
int tuple ``(d, a, b, free)``; ``t1`` and ``t2`` are still read as
``Fraction`` values.

All values are immutable and canonical; operations are pure functions, so
classes can be shared between threads without synchronisation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

__all__ = ["INFINITE", "TRIVIAL", "LineBundleClass", "line_class"]

INFINITE = math.inf
"""Order reported for classes with a nonempty free part."""

FreePart = tuple[tuple[str, int], ...]


def _gen_factor(name: str, exp: int) -> str:
    if exp > 0:
        return f"T{name}^{exp}" if exp != 1 else f"T{name}"
    return f"~T{name}^{-exp}" if exp != -1 else f"~T{name}"


def _merge_free(*parts: Iterable[tuple[str, int]]) -> FreePart:
    acc: dict[str, int] = {}
    for part in parts:
        for name, exp in part:
            acc[name] = acc.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in acc.items() if e))


class LineBundleClass:
    """An element of Pic^0: torsion coordinates plus free generator exponents.

    ``free`` is a name-sorted tuple of ``(generator, nonzero exponent)``
    pairs.  Use :func:`line_class` to build values without worrying about
    canonical form; the constructor itself insists on it.
    """

    # _key is (d, a, b, free) as in the module docstring; _hash is its hash.
    __slots__ = ("_key", "_hash")

    def __init__(
        self, t1: Fraction = Fraction(0), t2: Fraction = Fraction(0), free: FreePart = ()
    ) -> None:
        for t in (t1, t2):
            if not isinstance(t, Fraction) or not 0 <= t < 1:
                raise ValueError(f"torsion coordinate {t!r} is not reduced into [0, 1)")
        if type(free) is not tuple or not all(type(pair) is tuple and len(pair) == 2 for pair in free):
            raise TypeError("free must be a tuple of (name, exponent) tuples")
        names = [name for name, _ in free]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("free part must be strictly sorted by generator name")
        for name, exp in free:
            # [A-Za-z_][A-Za-z0-9_]*; str.isascii raises TypeError on a non-str.
            if not (str.isascii(name) and name.isidentifier()):
                raise ValueError(f"invalid generator name {name!r}")
            if type(exp) is not int or exp == 0:
                raise ValueError("free exponents must be nonzero integers")
        d = math.lcm(t1.denominator, t2.denominator)
        a, b = t1.numerator * (d // t1.denominator), t2.numerator * (d // t2.denominator)
        self._key = key = (d, a, b, tuple(free))
        self._hash = hash(key)

    @property
    def t1(self) -> Fraction:
        return Fraction(self._key[1], self._key[0])

    @property
    def t2(self) -> Fraction:
        return Fraction(self._key[2], self._key[0])

    @property
    def free(self) -> FreePart:
        return self._key[3]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: a stored hash of generator names
        # is only valid in the process that computed it.
        return LineBundleClass, (self.t1, self.t2, self.free)

    @property
    def is_trivial(self) -> bool:
        return self._key == (1, 0, 0, ())

    @property
    def is_torsion(self) -> bool:
        """True iff the class has finite order (no free generators)."""
        return not self._key[3]

    def order(self) -> int | float:
        """Order in Pic^0: the common denominator d, or INFINITE."""
        return INFINITE if self._key[3] else self._key[0]

    def __mul__(self, other: "LineBundleClass") -> "LineBundleClass":
        if not isinstance(other, LineBundleClass):
            return NotImplemented
        d1, a1, b1, f1 = self._key
        d2, a2, b2, f2 = other._key
        d = math.lcm(d1, d2)
        m1, m2 = d // d1, d // d2
        free = _merge_free(f1, f2) if f1 and f2 else f1 or f2
        return _reduced(d, (a1 * m1 + a2 * m2) % d, (b1 * m1 + b2 * m2) % d, free)

    def __pow__(self, n: int) -> "LineBundleClass":
        if type(n) is not int:
            raise TypeError(f"exponents must be integers, not {type(n).__name__}")
        d, a, b, free = self._key
        free = tuple((name, exp * n) for name, exp in free) if n else ()
        return _reduced(d, a * n % d, b * n % d, free)

    def inverse(self) -> "LineBundleClass":
        return self ** -1

    __invert__ = inverse

    def sort_key(self) -> tuple:
        """The canonical order of twists: the key ``(d, a, b, free)``, so by
        the order d of the torsion part, then by the numerators a and b over
        d, then by the free part."""
        return self._key

    def __repr__(self) -> str:
        return f"LineBundleClass(t1={self.t1!r}, t2={self.t2!r}, free={self.free!r})"

    def __str__(self) -> str:
        if self.is_trivial:
            return "O"
        parts = []
        if self._key[1] or self._key[2]:
            parts.append(f"L[{self.t1},{self.t2}]")
        parts.extend(_gen_factor(name, exp) for name, exp in self.free)
        return "*".join(parts)


def _reduced(d: int, a: int, b: int, free: FreePart) -> LineBundleClass:
    """The class (a/d, b/d, free) with 0 <= a, b < d and a canonical free part,
    built without the constructor's checks; only d, a, b are reduced here."""
    g = math.gcd(a, b, d)
    if g != 1:
        d, a, b = d // g, a // g, b // g
    out = object.__new__(LineBundleClass)
    out._key = key = (d, a, b, free)
    out._hash = hash(key)
    return out


TRIVIAL = LineBundleClass()


def line_class(
    t1: int | str | Fraction = 0,
    t2: int | str | Fraction = 0,
    free: Mapping[str, int] | Iterable[tuple[str, int]] | None = None,
) -> LineBundleClass:
    """Build a canonical class from arbitrary exact rational coordinates.

    Coordinates are reduced modulo 1; zero exponents are dropped from the
    free part.  ``free`` may be a mapping or an iterable of pairs.  Floats
    and bools are refused: a float is rarely the fraction it was meant to be.
    """
    if isinstance(t1, (float, bool)) or isinstance(t2, (float, bool)):
        raise TypeError("torsion coordinates must be exact (int, str or Fraction)")
    pairs: list[tuple[str, int]] = []
    if free:
        pairs = list(free.items() if isinstance(free, Mapping) else free)
    if not all(isinstance(pair, Sequence) and len(pair) == 2 for pair in pairs):
        raise TypeError("free must be a mapping or (name, exponent) pairs")
    if any(type(exp) is not int for _, exp in pairs):
        raise TypeError("free exponents must be integers")
    return LineBundleClass(Fraction(t1) % 1, Fraction(t2) % 1, _merge_free(pairs))
