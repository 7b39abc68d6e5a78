"""Krull-Schmidt algebra of semifinite degree-0 bundles on an elliptic curve.

Every indecomposable degree-0 bundle is ``E_r (x) L``: the rank-r Atiyah
bundle (the unique indecomposable of rank r and degree 0 with a nonzero
global section, built by iterated self-extensions of the trivial bundle)
twisted by a degree-0 line bundle class.  A general object is a finite
multiset of indecomposables; keeping the multiset sorted makes it a normal
form, so ``==`` decides isomorphism.  The ring elements of
:mod:`ellbundle.kring` share that normal form, with nonzero fractions in
place of multiplicities; :class:`_Combination` holds it for both.

The tensor product follows the Clebsch-Gordan pattern

    (E_r (x) L) (x) (E_s (x) M) = sum over i=1..min(r,s) of
                                  E_{|r-s|+2i-1} (x) LM.

One kernel, :func:`clebsch_gordan`, computes every product in the package
per twist pair: each pair of distinct twists is multiplied once.  Each
``E_r`` is self-dual, ``dim Gamma(E_r (x) L)`` is 1 when L is trivial and 0
otherwise, and ``Hom(A, B) = Gamma(A^dual (x) B)``.  The classifiers
at the bottom express the trichotomy on this curve: finite objects are sums
of torsion line bundles, unipotent objects are sums of the ``E_r``, and
semifinite objects are sums of ``E_r (x) L`` with ``L`` torsion.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, TypeVar, Union

from .picard import TRIVIAL, LineBundleClass

__all__ = [
    "Indecomposable",
    "BundleObject",
    "ZERO",
    "UNIT",
    "atiyah",
    "clebsch_gordan",
    "tensor_rank_indices",
    "tensor",
    "hom_dim",
    "end_dim_projective_check",
]


def tensor_rank_indices(r: int, s: int) -> tuple[int, ...]:
    """Ranks of the indecomposable pieces of E_r (x) E_s, each occurring once."""
    if r < 1 or s < 1:
        raise ValueError("ranks must be positive")
    d = abs(r - s)
    return tuple(d + 2 * i - 1 for i in range(1, min(r, s) + 1))


@dataclass(frozen=True)
class Indecomposable:
    """An Atiyah bundle E_rank twisted by a line bundle class."""

    rank: int
    twist: LineBundleClass = TRIVIAL

    def __post_init__(self) -> None:
        if type(self.rank) is not int or self.rank < 1:
            raise ValueError("rank must be a positive integer")

    def dual(self) -> "Indecomposable":
        return Indecomposable(self.rank, ~self.twist)

    def sort_key(self):
        return (self.rank, self.twist.sort_key())

    def __str__(self) -> str:
        if self.twist.is_trivial:
            return f"E[{self.rank}]"
        return f"E[{self.rank}]*{self.twist}"


Coeff = TypeVar("Coeff", int, Fraction)


def _by_twist(
    items: Iterable[tuple[Indecomposable, Coeff]],
) -> dict[LineBundleClass, dict[int, Coeff]]:
    groups: dict[LineBundleClass, dict[int, Coeff]] = {}
    for ind, coeff in items:
        ranks = groups.setdefault(ind.twist, {})
        ranks[ind.rank] = ranks.get(ind.rank, 0) + coeff
    return groups


def clebsch_gordan(
    xs: Iterable[tuple[Indecomposable, Coeff]], ys: Iterable[tuple[Indecomposable, Coeff]]
) -> dict[Indecomposable, Coeff]:
    """Tensor product of two combinations of indecomposables.

    Each side is an iterable of ``(indecomposable, coefficient)`` pairs; the
    result maps each indecomposable of the product to its coefficient, with
    zero coefficients dropped.  Both sides are grouped by twist first, so
    each pair of twists is multiplied once, and the ranks of the pair are
    combined as plain integers by the rule of :func:`tensor_rank_indices`.
    """
    right = _by_twist(ys)
    products: dict[LineBundleClass, dict[int, Coeff]] = {}
    for s, left_ranks in _by_twist(xs).items():
        for t, right_ranks in right.items():
            ranks = products.setdefault(s * t, {})
            for r, a in left_ranks.items():
                for q, b in right_ranks.items():
                    coeff = a * b
                    for k in range(abs(r - q) + 1, r + q, 2):
                        ranks[k] = ranks.get(k, 0) + coeff
    return {
        Indecomposable(k, twist): coeff
        for twist, ranks in products.items()
        for k, coeff in ranks.items()
        if coeff
    }


class _Combination:
    """Indecomposables with coefficients, strictly sorted by ``sort_key`` and
    with no zero coefficient, so ``==`` decides equality.

    A subclass is a frozen dataclass with one field of pairs, read through
    ``_pairs``; ``_coerce`` converts a coefficient given to :meth:`of` and
    ``_valid`` accepts a stored one.
    """

    def __post_init__(self) -> None:
        keys = [ind.sort_key() for ind, _ in self._pairs]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError(f"{fields(self)[0].name} must be strictly sorted")
        if not all(self._valid(coeff) for _, coeff in self._pairs):
            raise ValueError(f"invalid coefficient in {fields(self)[0].name}")

    @classmethod
    def of(
        cls,
        items: Union[
            Mapping[Indecomposable, Coeff],
            Iterable[Union[Indecomposable, tuple[Indecomposable, Coeff]]],
        ] = (),
    ):
        """The normal form of a mapping or of pairs; a bare indecomposable counts 1."""
        acc: dict = {}
        for item in items.items() if isinstance(items, Mapping) else items:
            ind, coeff = (item, 1) if isinstance(item, Indecomposable) else item
            acc[ind] = acc.get(ind, 0) + cls._coerce(coeff)
        return cls._from_map(acc)

    @classmethod
    def _from_map(cls, acc: Mapping[Indecomposable, Coeff]):
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
        return not self._pairs

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        acc = dict(self._pairs)
        for ind, coeff in other._pairs:
            acc[ind] = acc.get(ind, 0) + coeff
        return self._from_map(acc)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._from_map(clebsch_gordan(self._pairs, other._pairs))


@dataclass(frozen=True)
class BundleObject(_Combination):
    """A direct sum of indecomposables in canonical (sorted multiset) form.

    The empty multiset is the zero object; ``+`` is direct sum, ``*`` is the
    tensor product and ``n * obj`` an n-fold direct sum.
    """

    summands: tuple[tuple[Indecomposable, int], ...] = ()

    _pairs = property(attrgetter("summands"))
    _valid = staticmethod(lambda mult: type(mult) is int and mult > 0)

    @staticmethod
    def _coerce(mult: int) -> int:
        if type(mult) is not int or mult < 0:
            raise ValueError("multiplicities must be nonnegative integers")
        return mult

    # -- structure ----------------------------------------------------

    def classes(self) -> frozenset[Indecomposable]:
        return frozenset(ind for ind, _ in self.summands)

    def multiplicity(self, ind: Indecomposable) -> int:
        for other, mult in self.summands:
            if other == ind:
                return mult
        return 0

    # Own bindings, not inherited ones: bench/tracer.py wraps these by name
    # and would otherwise wrap the base methods that RingElement calls too.
    def __add__(self, other: "BundleObject") -> "BundleObject":
        return super().__add__(other)

    def __mul__(self, other: "BundleObject") -> "BundleObject":
        return super().__mul__(other)

    def __rmul__(self, count: int) -> "BundleObject":
        if not isinstance(count, int):
            return NotImplemented
        if count < 0:
            raise ValueError("multiplicities must be nonnegative")
        return BundleObject(tuple((ind, mult * count) for ind, mult in self.summands) if count else ())

    def dual(self) -> "BundleObject":
        return BundleObject._from_map({ind.dual(): mult for ind, mult in self.summands})

    # -- numerical invariants ------------------------------------------

    def rank(self) -> int:
        return sum(ind.rank * mult for ind, mult in self.summands)

    def det(self) -> LineBundleClass:
        out = TRIVIAL
        for ind, mult in self.summands:
            out = out * ind.twist ** (ind.rank * mult)
        return out

    def gamma_dim(self) -> int:
        """Dimension of the space of global sections."""
        return sum(mult for ind, mult in self.summands if ind.twist.is_trivial)

    # -- classifiers ----------------------------------------------------

    @property
    def is_unipotent(self) -> bool:
        """True iff every summand is an untwisted E_r."""
        return all(ind.twist.is_trivial for ind, _ in self.summands)

    @property
    def is_finite(self) -> bool:
        """True iff the object is a sum of torsion line bundles."""
        return all(ind.rank == 1 and ind.twist.is_torsion for ind, _ in self.summands)

    @property
    def is_semifinite(self) -> bool:
        """True iff every twist is torsion (ranks unconstrained)."""
        return all(ind.twist.is_torsion for ind, _ in self.summands)

    def jh_factors(self) -> "BundleObject":
        """Semisimplification: E_r (x) L filters with r quotients equal to L."""
        return BundleObject.of(
            (Indecomposable(1, ind.twist), ind.rank * mult) for ind, mult in self.summands
        )

    def __str__(self) -> str:
        if not self.summands:
            return "Z"
        return " + ".join(
            f"{mult}*{ind}" if mult != 1 else str(ind) for ind, mult in self.summands
        )


ZERO = BundleObject()
UNIT = BundleObject(((Indecomposable(1), 1),))


def atiyah(rank: int, twist: LineBundleClass = TRIVIAL) -> BundleObject:
    """The object with a single indecomposable summand E_rank (x) twist."""
    return BundleObject(((Indecomposable(rank, twist), 1),))


def tensor(a: BundleObject, b: BundleObject) -> BundleObject:
    return a * b


def hom_dim(a: BundleObject, b: BundleObject) -> int:
    """dim Hom(a, b): on indecomposables min(r, s) gated by equal twists.

    Agrees with ``(a.dual() * b).gamma_dim()``, i.e. with counting sections
    of the internal Hom.
    """
    total = 0
    for x, mx in a.summands:
        for y, my in b.summands:
            if x.twist == y.twist:
                total += mx * my * min(x.rank, y.rank)
    return total


def end_dim_projective_check(rank: int) -> bool:
    """Numerical projectivity criterion: dim End(E_r) must equal r."""
    if rank < 1:
        raise ValueError("rank must be positive")
    e = atiyah(rank)
    return hom_dim(e, e) == rank
