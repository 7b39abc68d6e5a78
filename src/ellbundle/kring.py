"""The rational representation ring on the indecomposable-bundle basis.

Ring elements are finite rational linear combinations of indecomposables;
addition models direct sum, multiplication the tensor product.  The module
also enumerates summand closures S(E) (all indecomposable summands of all
tensor powers of an object), knows the closed forms of those closures in
the cases where a closed form exists, classifies the Krull dimension of the
generated subring, and labels the Tannakian group of the category generated
by a single indecomposable.

Two conventions extend the classical statements and are deliberate:

* A rank-1 class with free generators is labelled ``GM(f)`` where f counts
  the distinct generators occurring in the twist, treating named generators
  as independent multiplicative directions.
* For rank >= 3 with a nontrivial twist no group computation is on record;
  the label is the honest placeholder ``MIXED_SEMIFINITE``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .bundles import BundleObject, Indecomposable, clebsch_gordan
from .picard import TRIVIAL, LineBundleClass

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

Terms = tuple[tuple[Indecomposable, Fraction], ...]


@dataclass(frozen=True)
class RingElement:
    """A finite rational combination of indecomposable bundle classes."""

    terms: Terms = ()

    def __post_init__(self) -> None:
        keys = [ind.sort_key() for ind, _ in self.terms]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("terms must be strictly sorted")
        if any(not isinstance(c, Fraction) or not c for _, c in self.terms):
            raise ValueError("coefficients must be nonzero fractions")

    @classmethod
    def of(
        cls,
        items: Union[
            Mapping[Indecomposable, Union[int, Fraction]],
            Iterable[tuple[Indecomposable, Union[int, Fraction]]],
        ],
    ) -> "RingElement":
        acc: dict[Indecomposable, Fraction] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for ind, coeff in pairs:
            acc[ind] = acc.get(ind, Fraction(0)) + Fraction(coeff)
        return cls._from_dict(acc)

    @classmethod
    def from_object(cls, obj: BundleObject) -> "RingElement":
        return cls.of({ind: Fraction(mult) for ind, mult in obj.summands})

    @classmethod
    def _from_dict(cls, acc: Mapping[Indecomposable, Fraction]) -> "RingElement":
        return cls(
            tuple(
                sorted(
                    ((ind, coeff) for ind, coeff in acc.items() if coeff),
                    key=lambda pair: pair[0].sort_key(),
                )
            )
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        acc = dict(self.terms)
        for ind, coeff in other.terms:
            acc[ind] = acc.get(ind, Fraction(0)) + coeff
        return RingElement._from_dict(acc)

    def __neg__(self) -> "RingElement":
        return RingElement(tuple((ind, -coeff) for ind, coeff in self.terms))

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RingElement":
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            if not scalar:
                return RING_ZERO
            return RingElement(tuple((ind, coeff * scalar) for ind, coeff in self.terms))
        if not isinstance(other, RingElement):
            return NotImplemented
        return RingElement._from_dict(clebsch_gordan(self.terms, other.terms))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{coeff}*[{ind}]" for ind, coeff in self.terms)


RING_ZERO = RingElement()
RING_ONE = RingElement(((Indecomposable(1), Fraction(1)),))


# -- summand closures -----------------------------------------------------


def _tensor_classes(
    xs: Iterable[Indecomposable], ys: Iterable[Indecomposable]
) -> set[Indecomposable]:
    """The classes of x (x) y over all x in xs and y in ys, multiplicities dropped."""
    return set(clebsch_gordan(((x, 1) for x in xs), ((y, 1) for y in ys)))


def _tensor_stable(classes: set[Indecomposable], gens: frozenset[Indecomposable]) -> bool:
    return _tensor_classes(classes, gens) <= classes


@dataclass(frozen=True)
class SummandClosure:
    """Indecomposable summands found among the tensor powers of an object.

    ``stabilized`` is True exactly when the discovered set is closed under
    one more tensor step against the generator, which makes it the whole of
    S(E); otherwise the set is a proper prefix limited by the power cutoff.
    """

    classes: frozenset[Indecomposable]
    stabilized: bool


def summand_closure(obj: BundleObject, max_power: int = 8) -> SummandClosure:
    """Enumerate summands of obj^(x)n for 1 <= n <= max_power.

    Multiplicities are irrelevant for membership, so the iteration works on
    sets of classes.  Enumeration stops early once a step adds nothing new
    and the accumulated set is a tensor-closed fixed point.
    """
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    gens = frozenset(obj.classes())
    if not gens:
        return SummandClosure(frozenset(), True)
    seen: set[Indecomposable] = set(gens)
    current: set[Indecomposable] = set(gens)
    stable = False
    for _ in range(2, max_power + 1):
        step = _tensor_classes(current, gens)
        fresh = step - seen
        seen |= fresh
        if not fresh and _tensor_stable(seen, gens):
            stable = True
            break
        current = step
    if not stable:
        stable = _tensor_stable(seen, gens)
    return SummandClosure(frozenset(seen), stable)


# -- closed forms ----------------------------------------------------------

UNIT_ONLY = "UNIT_ONLY"
ALL_RANKS = "ALL_RANKS"
ODD_RANKS = "ODD_RANKS"
CYCLIC_ALL_RANKS = "CYCLIC_ALL_RANKS"
CYCLIC_RANK_PARITY = "CYCLIC_RANK_PARITY"


@dataclass(frozen=True)
class ClosedForm:
    """Symbolic description of a summand closure S(E).

    kind = UNIT_ONLY            {E_1}
           ALL_RANKS            {E_k : k >= 1}
           ODD_RANKS            {E_(2k-1) : k >= 1}
           CYCLIC_ALL_RANKS     {E_k (x) L^i : k >= 1, i mod m}, m odd
           CYCLIC_RANK_PARITY   odd ranks carry even powers of L, even ranks
                                odd powers; m even
    """

    kind: str
    order: int = 1
    twist: LineBundleClass = field(default=TRIVIAL)

    @cached_property
    def _power_index(self) -> dict[LineBundleClass, int]:
        return {self.twist ** i: i for i in range(self.order)}

    def contains(self, ind: Indecomposable) -> bool:
        if self.kind == UNIT_ONLY:
            return ind == Indecomposable(1)
        if self.kind == ALL_RANKS:
            return ind.twist.is_trivial
        if self.kind == ODD_RANKS:
            return ind.twist.is_trivial and ind.rank % 2 == 1
        exp = self._power_index.get(ind.twist)
        if exp is None:
            return False
        if self.kind == CYCLIC_ALL_RANKS:
            return True
        return (ind.rank % 2 == 1) == (exp % 2 == 0)

    def description(self) -> str:
        if self.kind == UNIT_ONLY:
            return "{E[1]}"
        if self.kind == ALL_RANKS:
            return "{E[k] : k >= 1}"
        if self.kind == ODD_RANKS:
            return "{E[2k-1] : k >= 1}"
        if self.kind == CYCLIC_ALL_RANKS:
            return (
                f"{{E[k]*L^i : k >= 1, 0 <= i < {self.order}}} for L = {self.twist}"
            )
        return (
            f"{{E[2k-1]*L^(2i), E[2k]*L^(2i+1) : k >= 1, exponents mod {self.order}}}"
            f" for L = {self.twist}"
        )


def closed_form_S(ind: Indecomposable) -> Optional[ClosedForm]:
    """Closed form of S(E) where one is known; None otherwise.

    Untwisted generators follow the rank-parity dichotomy (the unit only
    ever reproduces itself); rank-2 generators with a torsion twist follow
    the parity of the twist's order.  Other shapes have no recorded closed
    form.
    """
    twist = ind.twist
    if twist.is_trivial:
        if ind.rank == 1:
            return ClosedForm(UNIT_ONLY)
        return ClosedForm(ALL_RANKS if ind.rank % 2 == 0 else ODD_RANKS)
    if ind.rank == 2 and twist.is_torsion:
        order = twist.order()
        kind = CYCLIC_ALL_RANKS if order % 2 else CYCLIC_RANK_PARITY
        return ClosedForm(kind, order=order, twist=twist)
    return None


# -- Krull dimension and Tannakian labels ----------------------------------


def krull_dim_class(obj: BundleObject) -> int:
    """Krull dimension of the subring generated by S(obj): 0 iff finite."""
    if obj.is_zero:
        raise ValueError("the zero object generates no subring")
    return 0 if obj.is_finite else 1


TRIVIAL_GROUP = "TRIVIAL"
MU = "MU"
GM = "GM"
GA = "GA"
GA_X_GM = "GA_X_GM"
GA_X_MU = "GA_X_MU"
MIXED_SEMIFINITE = "MIXED_SEMIFINITE"


@dataclass(frozen=True)
class TannakianLabel:
    """Label of the Tannakian group of the category an indecomposable generates."""

    kind: str
    param: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == TRIVIAL_GROUP:
            return "1"
        if self.kind == MU:
            return f"mu_{self.param}"
        if self.kind == GM:
            return "Gm" if self.param == 1 else f"Gm^{self.param}"
        if self.kind == GA:
            return "Ga"
        if self.kind == GA_X_GM:
            return "Ga x Gm" if self.param == 1 else f"Ga x Gm^{self.param}"
        if self.kind == GA_X_MU:
            return f"Ga x mu_{self.param}"
        return "mixed-semifinite"


def tannakian_label(ind: Indecomposable) -> TannakianLabel:
    twist = ind.twist
    if ind.rank == 1:
        if twist.free:
            return TannakianLabel(GM, len(twist.free))
        order = twist.order()
        if order == 1:
            return TannakianLabel(TRIVIAL_GROUP)
        return TannakianLabel(MU, order)
    if twist.is_trivial:
        return TannakianLabel(GA)
    if ind.rank == 2:
        if twist.free:
            return TannakianLabel(GA_X_GM, 1)
        return TannakianLabel(GA_X_MU, twist.order())
    return TannakianLabel(MIXED_SEMIFINITE)
