"""Independent linear-algebra side of the tensor calculus.

The bundle algebra predicts tensor decompositions through the
Clebsch-Gordan index rule.  This module recovers the same answer from raw
matrices: a unipotent block of size n is the n x n Jordan matrix with
eigenvalue 1, the Kronecker product of two blocks is again unipotent in
characteristic 0, and its Jordan type is that of the nilpotent operator
N = N_r (x) 1 + 1 (x) N_s (see :func:`jordan_tensor`), read off from exact
ranks of powers of N:

    #(blocks of size k) = rank(N^(k-1)) - 2*rank(N^k) + rank(N^(k+1)).

The ranks come from images of N, without forming any power of it.  N lowers
the degree j+l of e_(j,l) by one, so N^k maps the span A_e of the e_(j,e-j)
into degree e-k, and rank(N^k) is the sum over e of dim N^k(A_e).  The walk
takes each diagonal, the images N^k(A_e) of one source degree e for
k = 0, 1, ..., once, in increasing e.  An image is one fraction-free echelon
basis of dense integer vectors over j, of length at most min(r, s) since the
sizes are swapped so that r <= s.  N keeps the pivot of every vector but the
one whose pivot is j = d in degree d, so a step applies N to each vector and
reduces only that one, by the fraction-free step that :func:`exact_rank` also
runs on the rows of any matrix, and not even that one when the other vectors
already number the dimension of the degree below, and so span it.

A diagonal has three phases.  Pivots are below r, so N keeps every pivot
from degree e down to r-1, and the rank stays dim A_e: those ranks are added
to the totals at once, through a difference array, and the basis at degree
r-1 is written down directly.  N_r (x) 1 and 1 (x) N_s commute, so by the
binomial theorem N^t e_(p,e-p) has the entry C(t, p-j) at e_(j,e-t-j), which
is Pascal's rule for the step y[j] = x[j] + x[j+1].  An image that is all of
some A_d with d < e hands the diagonal over: N^(k+i)(A_e) = N^i(A_d), so the
rest of the diagonal is that of d from step 1 on, already walked, and its
ranks are copied.  Past the prefix that happens only at degrees d < r, since
degree r-1 is full exactly when dim A_e = r and below it the walk goes on
degree by degree; so only the diagonals e < r keep their rank lists, O(r^2)
integers, and no (rs) x (rs) matrix is ever stored.  For r = s = 12 this
takes about 0.8 ms, for 30 about 17 ms and for 60 about 0.24 s, and for the
tall pairs (1, 4000) and (2, 3900) about 5 ms (Python 3.11 on x86-64).

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
from operator import add

from ._budget import draw, metered
from .bundles import BundleObject, _expect, _Frozen

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


def _reduce(basis: dict[int, list[int]], vec: list[int]) -> None:
    """Add vec to a fraction-free echelon basis unless it is already spanned.

    ``basis`` maps each pivot p (the index of a vector's last nonzero entry)
    to its vector, stored as its p+1 leading entries.  vec is consumed: its
    trailing zeros are dropped and it is reduced by cross-multiples over the
    gcd of the two pivot entries (Bareiss), so every entry stays an integer,
    and what is left is divided by its content before it joins the basis.
    """
    while vec:
        if not vec[-1]:
            vec.pop()
            continue
        row = basis.get(len(vec) - 1)
        if row is None:
            g = math.gcd(*vec)
            basis[len(vec) - 1] = [x // g for x in vec] if g > 1 else vec
            return
        g = math.gcd(vec[-1], row[-1])
        a, b = row[-1] // g, vec[-1] // g
        vec = [a * x - b * y for x, y in zip(vec, row)]


def exact_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over Q of a matrix of int or Fraction entries; any other entry raises TypeError.

    Each row is scaled to integers and reduced into a fraction-free echelon
    basis by the oracle's own step; the rank is the size of that basis.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        for x in row:
            if type(x) is not int and type(x) is not Fraction:
                raise TypeError(f"matrix entries must be int or Fraction, not {type(x).__name__}")
        den = math.lcm(*(x.denominator for x in row))
        _reduce(basis, [int(x * den) for x in row])
    return len(basis)


@lru_cache(maxsize=None, typed=True)
@metered
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
    if r > s:
        # The swap e_(j,l) -> e_(l,j) conjugates N to N_s (x) 1 + 1 (x) N_r.
        return jordan_tensor(s, r)
    # At most r+s-1 diagonals of at most r+s-1 steps, each on at most r
    # vectors of r entries: an upper bound, since the prefixes and hand-overs
    # skip most of those steps.
    draw(2 * (r + s) ** 2 * (r * r + 10))
    n = r * s
    # dims[d] vectors e_(j,d-j) span degree d.  A vector of degree d is a
    # dense list x of length p+1, its pivot p, standing for the sum of
    # x[j] e_(j,d-j); N maps it to degree d-1 by y[j] = x[j] + x[j+1],
    # dropping y[d] (e_(d,-1) does not exist).  Diagonal e puts the t+1 ranks
    # of its prefix into `flat` and walks on from degree d = e-t with the
    # binomial rows (unit vectors when t = 0); `rest` collects its ranks from
    # step t+1 on, and `kept` the whole list of each e < r, the only
    # diagonals ever handed over to.
    dims = [min(r, d + 1) - max(0, d - s + 1) for d in range(r + s - 1)]
    ranks = [0] * (r + s + 1)  # ranks[k] = rank(N^k), less the prefixes in flat
    flat = [0] * (r + s + 1)  # difference array of the pivot-keeping prefixes
    kept: list[list[int]] = []  # the rank list of each diagonal e < r
    for e, dim in enumerate(dims):
        t = max(0, e - r + 1)
        flat[0] += dim
        flat[t + 1] -= dim
        if t and dim == r:  # degree r-1 is full
            rest = kept[r - 1][1:]
        else:
            d = e - t
            row = [math.comb(t, i) for i in range(d + 1)]
            basis = {p: row[p::-1] for p in range(max(0, e - s + 1), d + 1)}
            rest = []
            while d:
                lowered = {p: list(map(add, x, x[1:] + [0])) for p, x in basis.items()}
                vec = lowered.pop(d, None)
                d -= 1
                if vec is not None and len(lowered) < dims[d]:
                    _reduce(lowered, vec[:-1])
                rest.append(len(lowered))
                if len(lowered) == dims[d]:  # all of A_d, with d < r
                    rest += kept[d][1:]
                    break
                basis = lowered
        for k, rank in enumerate(rest, t + 1):
            ranks[k] += rank
        if e < r:
            kept.append([dim, *rest])
    total = 0
    for k, step in enumerate(flat):
        total += step
        ranks[k] += total
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
            # Smaller size first: a swapped pair reads the same cache entry.
            for part in jordan_tensor(min(ra, rb), max(ra, rb)):
                acc[(char, part)] += ma * mb
    # Reduced characters, positive blocks and multiplicities: nothing to check.
    return ProductObject._trusted(m, tuple(sorted(acc.items())))


def phi_transport(obj: BundleObject, modulus: int) -> ProductObject:
    """Transport a bundle object along the cyclic-subgroup dictionary.

    Each summand twist must be a power of the torsion class ``(1/m, 0)``,
    i.e. have second coordinate zero, no free part, and first-coordinate
    denominator dividing m; otherwise :class:`TransportError` is raised.
    """
    _expect(obj, BundleObject)
    _check_modulus(modulus)
    acc: Counter[Component] = Counter()
    groups = obj._groups
    # Twists in the order of their first summands (lowest rank, then twist),
    # so an error names the twist of the first summand that fails.
    for twist in sorted(groups, key=lambda t: (min(groups[t]), t.sort_key())):
        # With b = 0, gcd(a, d) = 1, so the twist's order is d.
        d, a, b, free = twist.sort_key()
        if free or b:
            raise TransportError(
                f"twist {twist} lies outside the cyclic subgroup of order {modulus}"
            )
        if modulus % d:
            raise TransportError(
                f"twist {twist} has order not dividing the modulus {modulus}"
            )
        for rank, mult in groups[twist].items():
            acc[(a * (modulus // d), rank)] += mult
    # 0 <= a < d, and an object's multiplicities are positive.
    return ProductObject._trusted(modulus, tuple(sorted(acc.items())))
