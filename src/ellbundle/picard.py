"""Degree-0 line bundle classes on an elliptic curve.

Over an algebraically closed field of characteristic 0 the torsion part of
the degree-0 Picard group of an elliptic curve is (Q/Z)^2.  Classes of
infinite order are modelled formally as monomials in named free generators,
with no relations between distinct generators.  A class is therefore a pair
of reduced fractions in [0, 1) together with a finite exponent map, and
structural equality is equality in the group.

All values are immutable and canonical; operations are pure functions, so
classes can be shared between threads without synchronisation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = ["INFINITE", "TRIVIAL", "LineBundleClass", "line_class"]

INFINITE = math.inf
"""Order reported for classes with a nonempty free part."""

_GEN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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


@dataclass(frozen=True)
class LineBundleClass:
    """An element of Pic^0: torsion coordinates plus free generator exponents.

    ``free`` is a name-sorted tuple of ``(generator, nonzero exponent)``
    pairs.  Use :func:`line_class` to build values without worrying about
    canonical form; the constructor itself insists on it.
    """

    t1: Fraction = Fraction(0)
    t2: Fraction = Fraction(0)
    free: FreePart = ()

    def __post_init__(self) -> None:
        for t in (self.t1, self.t2):
            if not isinstance(t, Fraction) or not 0 <= t < 1:
                raise ValueError(f"torsion coordinate {t!r} is not reduced into [0, 1)")
        names = [name for name, _ in self.free]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("free part must be strictly sorted by generator name")
        for name, exp in self.free:
            if not _GEN_NAME.match(name):
                raise ValueError(f"invalid generator name {name!r}")
            if type(exp) is not int or exp == 0:
                raise ValueError("free exponents must be nonzero integers")

    @property
    def is_trivial(self) -> bool:
        return not self.free and not self.t1 and not self.t2

    @property
    def is_torsion(self) -> bool:
        """True iff the class has finite order (no free generators)."""
        return not self.free

    def order(self) -> Union[int, float]:
        """Order in Pic^0: lcm of coordinate denominators, or INFINITE."""
        if self.free:
            return INFINITE
        return math.lcm(self.t1.denominator, self.t2.denominator)

    def __mul__(self, other: "LineBundleClass") -> "LineBundleClass":
        if not isinstance(other, LineBundleClass):
            return NotImplemented
        return LineBundleClass(
            (self.t1 + other.t1) % 1,
            (self.t2 + other.t2) % 1,
            _merge_free(self.free, other.free),
        )

    def __pow__(self, n: int) -> "LineBundleClass":
        if type(n) is not int:
            raise TypeError(f"exponents must be integers, not {type(n).__name__}")
        return LineBundleClass(
            (self.t1 * n) % 1,
            (self.t2 * n) % 1,
            tuple((name, exp * n) for name, exp in self.free) if n else (),
        )

    def inverse(self) -> "LineBundleClass":
        return self ** -1

    __invert__ = inverse

    def sort_key(self):
        return (self.t1, self.t2, self.free)

    def __str__(self) -> str:
        if self.is_trivial:
            return "O"
        parts = []
        if self.t1 or self.t2:
            parts.append(f"L[{self.t1},{self.t2}]")
        parts.extend(_gen_factor(name, exp) for name, exp in self.free)
        return "*".join(parts)


TRIVIAL = LineBundleClass()


def line_class(
    t1: Union[int, str, Fraction] = 0,
    t2: Union[int, str, Fraction] = 0,
    free: Union[Mapping[str, int], Iterable[tuple[str, int]], None] = None,
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
    if any(type(exp) is not int for _, exp in pairs):
        raise TypeError("free exponents must be integers")
    return LineBundleClass(Fraction(t1) % 1, Fraction(t2) % 1, _merge_free(pairs))
