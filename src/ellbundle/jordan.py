"""Independent linear-algebra side of the tensor calculus.

The bundle algebra predicts tensor decompositions through the
Clebsch-Gordan index rule.  This module recovers the same answer from raw
matrices: a unipotent block of size n is the n x n Jordan matrix with
eigenvalue 1, the Kronecker product of two blocks is again unipotent in
characteristic 0, and its Jordan type is that of the nilpotent operator
N = N_r (x) 1 + 1 (x) N_s (see :func:`jordan_tensor`), read off from exact
ranks of powers of N:

    #(blocks of size k) = rank(N^(k-1)) - 2*rank(N^k) + rank(N^(k+1)).

The ranks come from iterated images, im(N^k) = N(im(N^(k-1))), without
forming any power of N.  N has at most two ones per column; starting from
the standard basis, each step applies N to every vector of the last
image's basis and inserts the results into a fraction-free echelon basis of
sparse integer vectors, whose size is rank(N^k).  N lowers the degree j+l
of e_(j,l) by one, so every image vector lies in one degree, and so does
its pivot: the echelon basis never reduces across degrees.  There are at
most r+s-1 steps, and no dense (rs) x (rs) matrix is ever stored.  For
r = s = 12 this takes about 7 ms, for 16 about 15 ms and for 30 about
0.2 s (Python 3.11).

Everything is integer/rational arithmetic; floating point is never used.

On top of the block calculus sits the product category of pairs
(character mod m, block size), mirroring representations of mu_m times a
unipotent group: characters add modulo m, blocks combine by
:func:`jordan_tensor`.  :func:`phi_transport` is the dictionary sending
``E_r (x) L`` with ``L`` in the cyclic subgroup generated by the class
``(1/m, 0)`` to the pair ``(character of L, r)``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .bundles import BundleObject, _Frozen

__all__ = [
    "exact_rank",
    "jordan_tensor",
    "ProductObject",
    "product_tensor",
    "phi_transport",
    "ModulusMismatchError",
    "TransportError",
]


class ModulusMismatchError(ValueError):
    """Tensor of product objects that live over different ambient groups."""


class TransportError(ValueError):
    """Bundle twist not representable in the chosen cyclic torsion subgroup."""


Vector = dict[int, int]  # sparse integer vector: index -> nonzero entry


def _insert(basis: dict[int, Vector], vec: Vector) -> None:
    """Add vec to a fraction-free echelon basis unless it is already spanned.

    ``basis`` maps each pivot (the largest index of a vector) to its vector.
    vec is consumed: it is reduced in place by cross-multiples over the gcd
    of the two pivot entries, so every entry stays an integer, and what is
    left is divided by its content before it joins the basis.
    """
    while vec:
        pivot = max(vec)
        row = basis.get(pivot)
        if row is None:
            g = math.gcd(*vec.values())
            if g > 1:
                for i in vec:
                    vec[i] //= g
            basis[pivot] = vec
            return
        g = math.gcd(vec[pivot], row[pivot])
        a, b = row[pivot] // g, vec[pivot] // g
        if a != 1:
            for i in vec:
                vec[i] *= a
        for i, x in row.items():
            y = vec.get(i, 0) - b * x
            if y:
                vec[i] = y
            else:
                del vec[i]


def exact_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over Q of a matrix of int or Fraction entries; any other entry raises TypeError.

    Each row is scaled to integers and inserted into a fraction-free echelon
    basis; the rank is the size of that basis.
    """
    basis: dict[int, Vector] = {}
    for row in rows:
        for x in row:
            if type(x) is not int and type(x) is not Fraction:
                raise TypeError(f"matrix entries must be int or Fraction, not {type(x).__name__}")
        den = math.lcm(*(x.denominator for x in row))
        ints = (int(x * den) for x in row)
        _insert(basis, {i: x for i, x in enumerate(ints) if x})
    return len(basis)


@lru_cache(maxsize=None, typed=True)
def jordan_tensor(r: int, s: int) -> tuple[int, ...]:
    """Jordan type of the product of unipotent blocks of sizes r and s.

    Returns a nonincreasing partition of r*s, the Jordan type of
    N = N_r (x) 1 + 1 (x) N_s with N_n the nilpotent n x n Jordan block.
    In characteristic 0, J_r = exp(M_r) with M_r = log(J_r) nilpotent of
    rank r-1, a single nilpotent block, so J_r (x) J_s = exp(M) with
    M = M_r (x) 1 + 1 (x) M_s.  Then exp(M) - I = M*U with U the sum over
    k >= 0 of M^k / (k+1)!, which is invertible and commutes with M, so all
    powers of exp(M) - I and of M have equal ranks and the two share one
    Jordan type.  M_r = P N_r P^-1 and M_s = Q N_s Q^-1, so M is conjugate
    to N by P (x) Q.  No Clebsch-Gordan rule is used, which keeps this an
    independent oracle.

    Results are memoised; the cache is only ever appended to under the GIL,
    so concurrent callers may duplicate work but always observe complete,
    identical values.  The cache is typed, so ``2.0`` or ``True`` never hit
    the entry of ``2`` or ``1`` and are rejected on every call.
    """
    if type(r) is not int or type(s) is not int:
        raise TypeError("block sizes must be integers")
    if r < 1 or s < 1:
        raise ValueError("block sizes must be positive")
    n = r * s
    # im(N^k) = N(im(N^(k-1))): apply N to a basis of the last image, where
    # N e_(j,l) = e_(j,l-1) + e_(j-1,l) on the index c = j*s + l.
    ranks = [n]
    image: list[Vector] = [{c: 1} for c in range(n)]
    while image:
        basis: dict[int, Vector] = {}
        for vec in image:
            out: Vector = {}
            for c, x in vec.items():
                if c % s:
                    out[c - 1] = out.get(c - 1, 0) + x
                if c >= s:
                    out[c - s] = out.get(c - s, 0) + x
            _insert(basis, {i: x for i, x in out.items() if x})
        image = list(basis.values())
        ranks.append(len(image))
    ranks.append(0)
    parts: list[int] = []
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        parts.extend([k] * mult)
    parts.sort(reverse=True)
    if sum(parts) != n:
        raise ArithmeticError("rank profile does not sum to the dimension")
    return tuple(parts)


Component = tuple[int, int]  # (character mod m, block size)


def _check_modulus(modulus: int) -> None:
    if type(modulus) is not int or modulus < 1:
        raise ValueError("modulus must be a positive integer")


class ProductObject(_Frozen, fields=("modulus", "components")):
    """Multiset of (character mod m, unipotent block size) pairs."""

    def __init__(self, modulus: int, components: tuple[tuple[Component, int], ...] = ()) -> None:
        _check_modulus(modulus)
        if type(components) is not tuple or not all(
            type(item) is tuple and len(item) == 2 and type(item[0]) is tuple and len(item[0]) == 2
            for item in components
        ):
            raise TypeError("components must be a tuple of ((character, block), multiplicity) tuples")
        for (char, block), mult in components:
            if type(char) is not int or not 0 <= char < modulus:
                raise ValueError("characters must be integers reduced modulo the modulus")
            if type(block) is not int or type(mult) is not int or block < 1 or mult < 1:
                raise ValueError("block sizes and multiplicities must be positive integers")
        keys = [comp for comp, _ in components]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("components must be strictly sorted")
        super().__init__(modulus, components)

    @classmethod
    def of(
        cls,
        modulus: int,
        items: Mapping[Component, int] | Iterable[Component] = (),
    ) -> "ProductObject":
        _check_modulus(modulus)
        acc: Counter[Component] = Counter()
        pairs = items.items() if isinstance(items, Mapping) else ((c, 1) for c in items)
        for (char, block), mult in pairs:
            # Reducing or summing would turn a bool into an int unnoticed.
            if type(char) is not int or type(mult) is not int:
                raise ValueError("characters and multiplicities must be integers")
            acc[(char % modulus, block)] += mult
        return cls(modulus, tuple(sorted((c, m) for c, m in acc.items() if m)))

    def dim(self) -> int:
        return sum(block * mult for (_, block), mult in self.components)

    def __str__(self) -> str:
        if not self.components:
            return f"mod {self.modulus}: 0"
        terms = [
            f"{mult}*({char},{block})" if mult != 1 else f"({char},{block})"
            for (char, block), mult in self.components
        ]
        return f"mod {self.modulus}: " + " + ".join(terms)


def product_tensor(a: ProductObject, b: ProductObject) -> ProductObject:
    """Tensor in the product category: characters add, blocks combine."""
    if a.modulus != b.modulus:
        raise ModulusMismatchError(
            f"inconsistent ambient groups: modulus {a.modulus} vs {b.modulus}"
        )
    m = a.modulus
    acc: Counter[Component] = Counter()
    for (ca, ra), ma in a.components:
        for (cb, rb), mb in b.components:
            char = (ca + cb) % m
            for part in jordan_tensor(ra, rb):
                acc[(char, part)] += ma * mb
    return ProductObject.of(m, acc)


def phi_transport(obj: BundleObject, modulus: int) -> ProductObject:
    """Transport a bundle object along the cyclic-subgroup dictionary.

    Each summand twist must be a power of the torsion class ``(1/m, 0)``,
    i.e. have second coordinate zero, no free part, and first-coordinate
    denominator dividing m; otherwise :class:`TransportError` is raised.
    """
    _check_modulus(modulus)
    acc: Counter[Component] = Counter()
    for ind, mult in obj.summands:
        twist = ind.twist
        if twist.free or twist.t2:
            raise TransportError(
                f"twist {twist} lies outside the cyclic subgroup of order {modulus}"
            )
        scaled = twist.t1 * modulus
        if scaled.denominator != 1:
            raise TransportError(
                f"twist {twist} has order not dividing the modulus {modulus}"
            )
        acc[(int(scaled) % modulus, ind.rank)] += mult
    return ProductObject.of(modulus, acc)
