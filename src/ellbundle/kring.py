"""The rational representation ring on the indecomposable-bundle basis.

Ring elements are finite rational linear combinations of indecomposables;
addition models direct sum, multiplication the tensor product.  They share
the normal form of :class:`~ellbundle.bundles.BundleObject` through one
base class: a twist-grouped map ``{twist: {rank: numerator}}`` of nonzero
ints over one positive denominator that shares no factor with every
numerator; an object is the case of denominator 1.  The sorted ``terms``,
one ``Fraction`` per class, are built only when read.  A ring product hands
both stored maps to the twist-grouped kernel of :mod:`ellbundle.bundles`
and keeps its output over the product of the denominators, with the
coefficients that cancel dropped and one gcd pass for the common factor;
a sum brings its operands to the lcm of their denominators.
The module also enumerates summand closures S(E) (all indecomposable
summands of all tensor powers of an object) on per-twist rank bitmasks, one
step of the support kernel per power, multiplying each twist pair once per
closure and stopping at the first power that adds no class.  It derives the
closed form of the closure of one indecomposable E_r (x) L with a torsion
twist, and the Tannakian group of the category it generates, from two
invariants: whether r is 1, odd or even, and the cyclic group L generates.
It also classifies the Krull dimension of the generated subring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import count

from ._budget import draw, metered
from .bundles import (BundleObject, Groups, Indecomposable, Rows, _Combination, _Frozen,
                      _grouped_product, _grouped_support, _mask_ranks)
from .picard import INFINITE, TRIVIAL, LineBundleClass

__all__ = [
    "RingElement",
    "RING_ZERO",
    "RING_ONE",
    "SummandClosure",
    "summand_closure",
    "ClosedForm",
    "closed_form_S",
    "krull_dim_class",
    "TannakianLabel",
    "tannakian_label",
]


class RingElement(_Combination, fields=("terms",)):
    """A finite rational combination of indecomposable bundle classes."""

    @cached_property
    def terms(self) -> tuple:
        den = self._den
        return tuple((ind, Fraction(n, den)) for ind, n in self._sorted())

    _valid = staticmethod(lambda coeff: type(coeff) is Fraction and coeff != 0)

    @staticmethod
    def _coerce(coeff: int | Fraction) -> Fraction:
        if type(coeff) is not int and type(coeff) is not Fraction:
            raise TypeError(f"ring coefficients must be int or Fraction, not {type(coeff).__name__}")
        return Fraction(coeff)

    @staticmethod
    def _integral(groups: Groups) -> tuple[Groups, int]:
        """Fractions as numerators over the lcm of their denominators, which
        shares no factor with every numerator."""
        den = math.lcm(*(coeff.denominator for ranks in groups.values() for coeff in ranks.values()))
        return {
            twist: {rank: coeff.numerator * (den // coeff.denominator) for rank, coeff in ranks.items()}
            for twist, ranks in groups.items()
        }, den

    @classmethod
    def from_object(cls, obj: BundleObject) -> "RingElement":
        """The object's class in the ring; it shares the object's rank maps."""
        if not isinstance(obj, BundleObject):
            raise TypeError(f"expected a BundleObject, not {type(obj).__name__}")
        return cls._from_groups(obj._groups)

    def __neg__(self) -> "RingElement":
        return self._scaled(-1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RingElement":
        if type(other) is int or type(other) is Fraction:
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, RingElement):
            return NotImplemented
        return RingElement._from_groups(_grouped_product(self._groups, other._groups), self._den * other._den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{coeff}*[{ind}]" for ind, coeff in self.terms)


RING_ZERO = RingElement()
RING_ONE = RingElement(((Indecomposable(1), Fraction(1)),))


# -- summand closures -----------------------------------------------------


class SummandClosure(_Frozen, fields=("classes", "stabilized")):
    """Indecomposable summands found among the tensor powers of an object.

    ``stabilized`` is True exactly when the discovered set is closed under
    one more tensor step against the generator, which makes it the whole of
    S(E); otherwise the set is a proper prefix limited by the power cutoff.
    """

    def __init__(self, classes: frozenset[Indecomposable], stabilized: bool) -> None:
        if type(classes) is not frozenset:
            raise TypeError("classes must be a frozenset")
        super().__init__(classes, stabilized)


@metered
def summand_closure(obj: BundleObject, max_power: int = 8) -> SummandClosure:
    """Enumerate summands of obj^(x)n for 1 <= n <= max_power.

    Multiplicities are irrelevant for membership, so the iteration works on
    the class sets S_1 = classes(obj) and S_(n+1) = S_n (x) S_1, each kept as
    ``{twist: mask}`` with bit k of the rank bitmask set iff E_k (x) twist
    is in the set, and multiplied by the support kernel ``_grouped_support``.
    The right operand is always S_1, so the kernel's twist rows are computed
    once per closure: each left twist is multiplied by the generator's
    twists when it first appears, and its row is reused at later powers.
    (x) distributes over unions: for seen = S_1 u ... u S_n,
    seen (x) S_1 = S_2 u ... u S_(n+1).  Hence seen is tensor-closed exactly
    when S_(n+1) is a subset of seen.  Enumeration stops at the first power
    that adds no class, found in the same pass that adds S_(n+1) to seen,
    and after the cutoff ``stabilized`` reports whether S_(max_power+1)
    adds none.  Each step first draws its row entries, new or reused, its
    shifts and its growth check, the last two weighted by the length of its
    output, from the query's work budget.
    """
    if type(max_power) is not int:
        raise TypeError(f"max_power must be an int, not {type(max_power).__name__}")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    gens = {twist: sum(1 << rank for rank in ranks) for twist, ranks in obj._groups.items()}
    seen = dict(gens)
    rows: Rows = {}
    step = gens
    # Per step twist: a row entry per generator twist, 7 us in a new row (a twist
    # product), 1.2 us in a reused one; q shifts per rank q and the growth check's
    # three big-int operations, each 50 ns + 3 ns a word.
    shifts, top = 3 + sum(map(sum, obj._groups.values())), max(map(max, obj._groups.values()), default=0)
    for power in range(1, max_power + 1):
        reused = len(step.keys() & rows.keys())  # step twists whose row an earlier power built
        entries = (2400 * (len(step) - reused) + 400 * reused) * len(gens)
        draw(entries + len(step) * shifts * (16 + (power + 1) * top // 64))
        step = _grouped_support(step, gens, rows)  # S_(power+1)
        grown = {twist: seen.get(twist, 0) | mask for twist, mask in step.items() if mask & ~seen.get(twist, 0)}
        if power == max_power or not grown:
            break
        seen.update(grown)
    trusted = Indecomposable._trusted
    classes = frozenset(trusted(rank, twist) for twist, mask in seen.items() for rank in _mask_ranks(mask))
    return SummandClosure(classes, not grown)


# -- closed forms ----------------------------------------------------------

_DESCRIPTIONS = {
    "UNIT_ONLY": "{{E[1]}}",
    "CYCLIC_UNIT": "{{E[1]*L^i : 0 <= i < {m}}} for L = {L}",
    "ODD_RANKS": "{{E[2k-1] : k >= 1}}",
    "CYCLIC_ODD_RANKS": "{{E[2k-1]*L^i : k >= 1, 0 <= i < {m}}} for L = {L}",
    "ALL_RANKS": "{{E[k] : k >= 1}}",
    "CYCLIC_ALL_RANKS": "{{E[k]*L^i : k >= 1, 0 <= i < {m}}} for L = {L}",
    "CYCLIC_RANK_PARITY":
        "{{E[2k-1]*L^(2i), E[2k]*L^(2i+1) : k >= 1, exponents mod {m}}} for L = {L}",
}


class ClosedForm(_Frozen, fields=("rank", "twist")):
    """S(E_r (x) L) for a twist L of finite order m, read off the rank rule.

    E_1^(x)n is E_1, and for r, n >= 2, E_r^(x)n holds every E_k with
    k - 1 = n(r - 1) (mod 2) up to rank n(r - 1) + 1.  So for r >= 2,
    E_k (x) L^i lies in S exactly when k - 1 = n(r - 1) (mod 2) for some
    n >= 1 with n = i (mod m); the parities of such n are those of i and
    i + m.  The kind names the shape this gives for r (1, odd or even) and m.
    """

    def __init__(self, rank: int, twist: LineBundleClass = TRIVIAL) -> None:
        Indecomposable(rank, twist)  # the rank and twist checks of E_rank (x) twist
        if not twist.is_torsion:
            raise ValueError("the twist must have finite order")
        super().__init__(rank, twist)

    @property
    def order(self) -> int:
        return self.twist.order()

    def contains(self, ind: Indecomposable) -> bool:
        # L = (a, b)/d has gcd(a, b, d) = 1, so some a + kb is a unit mod d.
        # L^i = M = (p, q)/e needs e | d, and then (p + kq)d/e = i(a + kb) mod d.
        d, a, b, _ = self.twist.sort_key()
        e, p, q, free = ind.twist.sort_key()
        if free or d % e:
            return False
        k = next(k for k in count() if math.gcd(a + k * b, d) == 1)
        i = (p + k * q) * (d // e) * pow(a + k * b, -1, d) % d
        if self.twist ** i is not ind.twist:
            return False
        if self.rank == 1:
            return ind.rank == 1
        return any((ind.rank - 1 - n * (self.rank - 1)) % 2 == 0 for n in (i, i + d))

    @property
    def kind(self) -> str:
        if self.rank % 2 == 0 and self.order % 2 == 0:
            return "CYCLIC_RANK_PARITY"
        if self.rank == 1:
            return "CYCLIC_UNIT" if self.order > 1 else "UNIT_ONLY"
        return ("CYCLIC_" if self.order > 1 else "") + ("ODD_RANKS" if self.rank % 2 else "ALL_RANKS")

    def description(self) -> str:
        return _DESCRIPTIONS[self.kind].format(m=self.order, L=self.twist)


def closed_form_S(ind: Indecomposable) -> ClosedForm | None:
    """Closed form of S(E) for a generator with a torsion twist; None for a
    twist of infinite order, whose closure is not periodic in the twist."""
    if not ind.twist.is_torsion:
        return None
    return ClosedForm(ind.rank, ind.twist)


# -- Krull dimension and Tannakian labels ----------------------------------


def krull_dim_class(obj: BundleObject) -> int:
    """Krull dimension class of the subring generated by S(obj): the finiteness
    class, 0 iff obj is finite and 1 otherwise, not the exact dimension."""
    if obj.is_zero:
        raise ValueError("the zero object generates no subring")
    return 0 if obj.is_finite else 1


class TannakianLabel(_Frozen, fields=("unipotent", "free_rank", "torsion")):
    """The Tannakian group Ga^u x Gm^free_rank x mu_d1 x ... of a category.

    ``unipotent`` says whether Ga is a factor, ``free_rank`` counts the Gm
    factors and ``torsion`` lists the orders d of the mu_d factors.
    """

    def __init__(self, unipotent: bool, free_rank: int = 0, torsion: tuple[int, ...] = ()) -> None:
        if type(torsion) is not tuple:
            raise TypeError("torsion must be a tuple")
        super().__init__(unipotent, free_rank, torsion)

    def __str__(self) -> str:
        parts = ["Ga"] * self.unipotent + ["Gm"] * self.free_rank + [f"mu_{d}" for d in self.torsion]
        return " x ".join(parts) or "1"


def tannakian_label(ind: Indecomposable) -> TannakianLabel:
    """Label of the group of <E_r (x) L>, the category E_r (x) L generates.

    For r >= 2, <E_r (x) L> = <E_2, L>: E_r (x) E_r^dual = E_r (x) L (x)
    (E_r (x) L)^dual has E_3 as a summand, E_2 is a subobject of E_3, and L
    is a subobject of E_r (x) L; conversely E_r is a summand of
    E_2^(x)(r-1).  The group of <E_2> is Ga, and that of <L> is the Cartier
    dual of the cyclic group L generates: trivial, mu_m for order m, Gm for
    infinite order.  One is unipotent and the other of multiplicative type,
    so they share no nontrivial quotient, and the group of <E_2, L> is
    their product.  For r = 1 the category is <L> alone.
    """
    order = ind.twist.order()
    if order == INFINITE:
        return TannakianLabel(ind.rank > 1, 1)
    return TannakianLabel(ind.rank > 1, 0, (order,) if order > 1 else ())
