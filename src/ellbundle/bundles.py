"""Krull-Schmidt algebra of semifinite degree-0 bundles on an elliptic curve.

Every indecomposable degree-0 bundle is ``E_r (x) L``: the rank-r Atiyah
bundle (the unique indecomposable of rank r and degree 0 with a nonzero
global section, built by iterated self-extensions of the trivial bundle)
twisted by a degree-0 line bundle class.  A general object is a finite
multiset of indecomposables, stored grouped by twist as
``{twist: {rank: multiplicity}}`` with no zero entry.  By Krull-Schmidt that
map is a normal form, so ``==`` decides isomorphism.  The ring elements of
:mod:`ellbundle.kring` share it, with nonzero integer numerators over one
common denominator in place of multiplicities; :class:`_Combination` holds
it for both, and builds the summands sorted by rank and then by the twist's
``sort_key`` only when they are read.

The tensor product follows the Clebsch-Gordan pattern

    (E_r (x) L) (x) (E_s (x) M) = sum over i=1..min(r,s) of
                                  E_{|r-s|+2i-1} (x) LM.

One kernel, ``_grouped_product``, computes every object and ring product.
It multiplies twist-grouped maps ``{twist: {rank: coefficient}}``, so each
pair of distinct twists is multiplied once, and its output map is the
product's stored form: no indecomposable is built and nothing is sorted
until the summands are read.  The ranks combine along one of two paths,
picked per product by a cost rule from sizes known before any rank is
touched.  The triple loop adds each piece E_k on its own.  The packed path
multiplies SL2 characters packed into integers (the Brauer-Klimyk rule over
Kronecker substitution), one integer product per twist pair.  The rule weighs a bound on the
loop's pieces against the packed path's output fields times limbs, with
one constant set on the kernel calls of the ``tensor`` benchmark round
(``_PACKED_COST``): ``big * big``, where
``big = (E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)^6``, packs and its kernel
time falls from 7.2 to 2.9 ms, while tall-and-thin products such as
``E[100000] * E[100000]`` keep the loop.  Summand closures need only
which classes occur, so they use its support form, ``_grouped_support``,
on ``{twist: rank bitmask}`` maps: the pieces E_{r+q-1-2j}, j < min(r, q),
of E_r (x) E_q are one pair of shifts of a mask per j, and a closure keeps
its twist products across powers.  Each ``E_r`` is self-dual,
``dim Gamma(E_r (x) L)`` is 1 when L is trivial and 0 otherwise, and
``Hom(A, B) = Gamma(A^dual (x) B)``.  The classifiers at the bottom express
the trichotomy on this curve: finite objects are sums of torsion line
bundles, unipotent objects are sums of the ``E_r``, and semifinite objects
are sums of ``E_r (x) L`` with ``L`` torsion.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter, sub

from ._budget import draw
from .picard import TRIVIAL, LineBundleClass

__all__ = [
    "Indecomposable",
    "BundleObject",
    "ZERO",
    "UNIT",
    "atiyah",
    "tensor_rank_indices",
    "hom_dim",
]


def tensor_rank_indices(r: int, s: int) -> tuple[int, ...]:
    """Ranks of the indecomposable pieces of E_r (x) E_s, each occurring once."""
    if type(r) is not int or type(s) is not int or r < 1 or s < 1:
        raise ValueError("ranks must be positive integers")
    return tuple(range(abs(r - s) + 1, r + s, 2))


# Bound once for Indecomposable._trusted, which closures and sorted views call
# for every class they build, for _Combination._from_groups and for the kernel's draw.
_new, _set, _free = object.__new__, object.__setattr__, attrgetter("free")


class _Frozen:
    """Immutable values: a subclass names its fields in its class statement
    (``fields=(...)``) and passes their values, in that order, to
    ``_Frozen.__init__``, which sets each once; equality holds only within one
    class, the hash is that of the field tuple and the repr ``Name(field=...)``."""

    def __init_subclass__(cls, fields: tuple[str, ...] = ()) -> None:
        cls._fields = fields
        if fields:
            get = attrgetter(*fields)
            # attrgetter of one name returns the bare value, not a 1-tuple.
            cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Indecomposable(_Frozen, fields=("rank", "twist")):
    """An Atiyah bundle E_rank twisted by a line bundle class."""

    def __init__(self, rank: int, twist: LineBundleClass = TRIVIAL) -> None:
        if type(rank) is not int or rank < 1:
            raise ValueError("rank must be a positive integer")
        if not isinstance(twist, LineBundleClass):
            raise TypeError("the twist must be a LineBundleClass")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "twist", twist)

    @classmethod
    def _trusted(cls, rank: int, twist: LineBundleClass) -> "Indecomposable":
        """The class E_rank (x) twist built without the constructor's checks,
        as ``picard._reduced`` builds twists; only for a positive int rank and
        a ``LineBundleClass`` twist."""
        out = _new(cls)
        _set(out, "rank", rank)
        _set(out, "twist", twist)
        return out

    # Two named fields, not the base's generic tuple: closures hash every class.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.twist is other.twist

    def __hash__(self) -> int:
        return hash((self.rank, self.twist))

    def sort_key(self):
        return (self.rank, self.twist.sort_key())

    def __str__(self) -> str:
        if self.twist.is_trivial:
            return f"E[{self.rank}]"
        return f"E[{self.rank}]*{self.twist}"


Coeff = int | Fraction
Groups = dict[LineBundleClass, dict[int, Coeff]]


def _by_twist(items: Iterable[tuple[Indecomposable, Coeff]]) -> Groups:
    """Group ``(indecomposable, coefficient)`` pairs as ``{twist: {rank: coeff}}``,
    adding the coefficients of repeated classes."""
    groups: Groups = {}
    for ind, coeff in items:
        ranks = groups.setdefault(ind.twist, {})
        ranks[ind.rank] = ranks.get(ind.rank, 0) + coeff
    return groups


# The packed path runs when the bound on the loop's pieces exceeds this many
# times the packed cost: output fields times limbs, plus one output twist's
# fields for the path's fixed work.  Fitted on the 531 kernel calls of the
# `tensor` round, seeds 1-3, each timed on both paths without the twist table
# (best of 5, interleaved; Python 3.11.7, 2-CPU x86-64 Linux), with `big * big`
# counted three times as the round runs it: 78.4 ms on the loop alone, 39.9 ms
# at 1.5, 39.1 ms at 2.0, 38.7 ms at 2.5.  On the 1,386 calls of seeds 4-10:
# 198.1 ms on the loop, 99.5 ms at 2.0.  At 2.0 the worst call packed takes
# twice the loop's time, and untwisted chains x * E[q], q <= 8, stay on the
# loop.
_PACKED_COST = 2.0

Table = tuple[list[list[dict[int, Coeff]]], Groups]


def _twist_table(left: Groups, right: Groups) -> Table:
    """Every twist pair multiplied once: ``(rows, products)``, where
    ``products`` maps each output twist to an empty rank map, in order of
    first appearance, and ``rows[i][j]`` is the rank map of the i-th left
    twist times the j-th right twist.  A path fills the rank maps in place,
    so a table serves one product.  Handing out the rank maps, not the
    twists, spares each path a lookup by twist per twist pair or per output
    twist."""
    products: Groups = {}
    rows = [[products.setdefault(s * t, {}) for t in right] for s in left]
    return rows, products


def _grouped_product(left: Groups, right: Groups) -> Groups:
    """The Clebsch-Gordan kernel: the tensor product of two twist-grouped maps.

    Each pair of twists is multiplied once, for either of two paths, and a
    cost rule picks the path from sizes known before any rank is combined.
    The loop's cost is a bound on its pieces, the sum of min(r, q) over every
    left rank r and right rank q of every twist pair: with rs and qs the
    lists of those ranks, min(len(rs) * sum(qs), len(qs) * sum(rs)), since
    min(r, q) is at most r and at most q.  The packed path's cost is its
    output fields (output twists, plus one for its fixed work, times fields
    per twist) times the limbs per field.  Both paths return the same
    coefficients, but only the loop keeps coefficients that cancel, as zeros.
    """
    free = sum(map(len, map(_free, left))) * len(right) + sum(map(len, map(_free, right))) * len(left)
    draw(400 * (pairs := len(left) * len(right)) + 120 * free)  # 1.2 us a twist pair, 0.35 us a free generator
    table = _twist_table(left, right)
    rs = list(chain.from_iterable(left.values()))
    qs = list(chain.from_iterable(right.values()))
    top, q, limbs = max(rs, default=1), max(qs, default=1), _limbs(left, right)  # 1: an empty side loops
    fields = (len(table[1]) + 1) * (top + 2 * q - 1)
    bound = min(len(rs) * sum(qs), len(qs) * sum(rs))
    if bound > _PACKED_COST * fields * limbs:  # units: a schoolbook product per twist pair, then the fields
        draw(pairs * (600 + top * q * limbs * limbs // 3) + 100 * fields * limbs)
        return _packed_product(left, right, table, limbs)
    draw((128 + limbs) * len(rs) * len(qs) + (20 + limbs) * bound)  # rank pair 0.4 us, piece 60 ns; 3 ns a limb
    return _loop_product(left, right, table)


def _loop_product(left: Groups, right: Groups, table: Table) -> Groups:
    """The kernel as a triple loop over the twist pairs of ``table``
    (:func:`_twist_table`): the ranks of each pair combine as plain integers
    by the rule of :func:`tensor_rank_indices`.  Coefficients that cancel
    stay as zeros."""
    rows, products = table
    for left_ranks, row in zip(left.values(), rows):
        for right_ranks, ranks in zip(right.values(), row):
            for r, a in left_ranks.items():
                for q, b in right_ranks.items():
                    coeff = a * b
                    for k in range(abs(r - q) + 1, r + q, 2):
                        ranks[k] = ranks.get(k, 0) + coeff
    return products


def _limbs(left: Groups, right: Groups) -> int:
    """64-bit limbs per packed field: every field's absolute value is at most
    the product of the two maps' absolute coefficient sums, and must stay
    below 2^(w-1) for a field of w bits.  A sum is taken as at least 1, so
    each coefficient fits a field too."""
    bound = 1
    for groups in (left, right):
        bound *= sum(map(abs, chain.from_iterable(map(dict.values, groups.values())))) or 1
    return bound.bit_length() // 64 + 1


def _packed_product(left: Groups, right: Groups, table: Table, limbs: int) -> Groups:
    """The kernel on packed SL2 characters (Brauer-Klimyk over Kronecker
    substitution), over the twist pairs of ``table`` (:func:`_twist_table`):
    E_r (x) E_q is the sum of E_(r+v) over the weights v = 1-q, 3-q, ..., q-1
    of E_q, with E_0 = 0 and E_(-m) = -E_m.

    Polynomials in z are packed as integers at z = 2^w, one w-bit field per
    power of z.  Each right twist packs once as its character times z^o,
    where o is the top right rank of the whole map minus 1, so every
    exponent is nonnegative: the numerator sum of b_q (z^(o+q+1) - z^(o-q+1))
    divided exactly by z^2 - 1.  Each left twist packs once as its highest
    weights, the sum of a_r z^r, from its lowest rank m on: the product is
    then shifted by m fields.  One product per twist pair holds E_k at field
    o + k, and is added into the accumulator of its output twist.  Fields
    are ``limbs`` 64-bit words wide (:func:`_limbs`) and hold balanced
    digits, in the operands (:func:`_pack`) as in the accumulators: each
    accumulator starts at 2^(w-1) in every field, so none borrows from the
    next.  Each output twist is unpacked once: the field o - k of a
    negative weight is subtracted from E_k, which cancels the bias, and the
    fields above 2o lose it.
    """
    byteorder = sys.byteorder
    off = max(chain.from_iterable(right.values())) - 1
    top = max(chain.from_iterable(left.values()))
    fields = top + 2 * off + 1
    w, size = 64 * limbs, 8 * limbs
    z2 = (1 << 2 * w) - 1
    chars = [
        _pack({off + e * q + 1: e * b for q, b in ranks.items() for e in (1, -1)}, size) // z2
        for ranks in right.values()
    ]
    heads = []
    for ranks in left.values():
        low = min(ranks)
        heads.append((_pack({r - low: a for r, a in ranks.items()}, size), w * low))
    rows, products = table
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * fields, "little")
    acc: dict[int, int] = {}  # by the identity of an output twist's rank map
    for (h, shift), row in zip(heads, rows):
        for c, ranks in zip(chars, row):
            acc[id(ranks)] = acc.get(id(ranks), bias) + (h * c << shift)
    pad = [1 << w - 1] * top
    for ranks in products.values():
        raw = acc[id(ranks)].to_bytes(size * fields, byteorder)
        if limbs == 1:
            digits = memoryview(raw).cast("Q").tolist()
        else:
            digits = [int.from_bytes(raw[i : i + size], byteorder) for i in range(0, len(raw), size)]
        if byteorder == "big":
            digits.reverse()
        ranks.update((k, c) for k, c in enumerate(map(sub, digits[off:], digits[off::-1] + pad)) if c)
    return products


def _pack(coeffs: dict[int, int], size: int) -> int:
    """The sum of c z^k over ``{k: c}`` at z = 2^(8 size), for k >= 0 and
    |c| < 2^(8 size - 1), written as bytes in time linear in the bytes: as
    balanced digits, each field holds c + 2^(8 size - 1) in a buffer that
    holds that bias in every field, and the biases are subtracted once."""
    bias = (bytes(size - 1) + b"\x80") * (max(coeffs) + 1)
    digits = bytearray(bias)
    half = 1 << 8 * size - 1
    for k, c in coeffs.items():
        digits[k * size : k * size + size] = (c + half).to_bytes(size, "little")
    return int.from_bytes(digits, "little") - int.from_bytes(bias, "little")


Masks = dict[LineBundleClass, int]


def _mask_ranks(mask: int) -> list[int]:
    """The ranks of a rank bitmask, in increasing order."""
    return [k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


Rows = dict[LineBundleClass, list[tuple[LineBundleClass, list[int]]]]


def _grouped_support(left: Masks, right: Masks, rows: Rows) -> Masks:
    """The support of :func:`_grouped_product` when every coefficient is 1.

    Each map is ``{twist: mask}``, with bit k of the mask set iff E_k occurs.
    The rule of :func:`tensor_rank_indices` reads E_r (x) E_q as the pieces
    E_{r+q-1-2j} for j < min(r, q).  So for a right rank q and each j < q,
    the left ranks r > j give their j-th pieces all at once: the mask
    shifted right by j + 1, which drops the ranks r <= j, then left by
    q - j, so each r > j lands on r + q - 1 - 2j.

    The row of a left twist s is ``[(s * t, ranks of t's mask)]`` over the
    right twists t.  ``rows`` keeps the rows across calls that share one
    right operand, as a summand closure's powers do, so each twist pair is
    multiplied once.
    """
    products: Masks = {}
    for s, mask in left.items():
        row = rows.get(s)
        if row is None:
            row = rows[s] = [(s * t, _mask_ranks(m)) for t, m in right.items()]
        for twist, ranks in row:
            out = products.get(twist, 0)
            for q in ranks:
                for j in range(q):
                    out |= mask >> (j + 1) << (q - j)
            products[twist] = out
    return products


class _Combination(_Frozen):
    """Indecomposables with nonzero coefficients, stored twist-grouped as
    ``_groups``, ``{twist: {rank: numerator}}`` with no zero numerator and
    no empty twist, over one positive denominator ``_den`` that shares no
    factor with every numerator.  Objects keep ``_den == 1`` and their
    multiplicities as numerators; ring elements keep fractions this way.
    By Krull-Schmidt the pair is a normal form, so ``==`` compares
    ``(_den, _groups)``.

    A subclass names one field (``fields=("summands",)``) and binds it to a
    ``cached_property``: a read-only view of the pairs strictly sorted by
    ``sort_key`` (:meth:`_sorted`), built on the first read and then kept.
    Printing, the hash, the repr and public iteration read it; every
    operation of the algebra reads the map.  Two threads reading the view
    first may both build it, and each sees an equal tuple.  The stored rank
    maps may be shared between values (``dual`` reuses them, a product keeps
    the kernel's, a ring element made from an object keeps the object's),
    so nothing writes into one after its value is built.

    ``_coerce`` converts a coefficient given to :meth:`of`, ``_valid``
    accepts a stored one and ``_integral`` brings a map of them to
    numerators over one denominator.  Only the constructor, which takes
    outside pairs, checks them; :meth:`_from_groups` trusts its map's keys
    and numerators and only drops zeros and common factors.
    """

    _den = 1

    def __init__(self, pairs: tuple = ()) -> None:
        (field,) = self._fields
        if type(pairs) is not tuple or not all(
            type(pair) is tuple and len(pair) == 2 and isinstance(pair[0], Indecomposable) for pair in pairs
        ):
            raise TypeError(f"{field} must be a tuple of (Indecomposable, coefficient) tuples")
        keys = [ind.sort_key() for ind, _ in pairs]
        if not all(k < l for k, l in zip(keys, keys[1:])):
            raise ValueError(f"{field} must be strictly sorted")
        if not all(self._valid(coeff) for _, coeff in pairs):
            raise ValueError(f"invalid coefficient in {field}")
        groups, den = self._integral(_by_twist(pairs))
        _set(self, "_groups", groups)
        _set(self, "_den", den)
        _set(self, field, pairs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._groups == other._groups

    __hash__ = _Frozen.__hash__

    @staticmethod
    def _integral(groups: Groups) -> tuple[Groups, int]:
        """Coerced coefficients as numerators over one denominator: for
        objects, the map itself over 1."""
        return groups, 1

    def _sorted(self) -> tuple:
        """The pairs ``(indecomposable, numerator)`` of the map, strictly
        sorted by ``sort_key``."""
        rows = []
        for twist, ranks in self._groups.items():
            key = twist.sort_key()
            rows.extend((rank, key, twist, coeff) for rank, coeff in ranks.items())
        rows.sort()  # the keys (rank, twist key) are distinct: no twist is compared
        trusted = Indecomposable._trusted
        return tuple((trusted(rank, twist), coeff) for rank, _, twist, coeff in rows)

    @classmethod
    def of(
        cls,
        items: Mapping[Indecomposable, Coeff]
        | Iterable[Indecomposable | tuple[Indecomposable, Coeff]] = (),
    ):
        """The normal form of a mapping or of pairs; a bare indecomposable counts 1."""

        def pairs():
            for item in items.items() if isinstance(items, Mapping) else items:
                ind, coeff = (item, 1) if isinstance(item, Indecomposable) else item
                yield ind, cls._coerce(coeff)

        return cls._from_groups(*cls._integral(_by_twist(pairs())))

    @classmethod
    def _from_groups(cls, groups: Groups, den: int = 1):
        """The value of a twist-grouped map of int numerators over ``den``;
        zero numerators are dropped, and so is a twist left with no rank,
        and a factor common to ``den`` and every numerator is divided out.

        Trusted: every caller (:meth:`of` after ``_coerce``, ``+``, ``*``,
        ``dual``, ``jh_factors``, ring products) passes positive int ranks,
        valid numerators and a positive ``den``.  The map and its rank maps
        are kept, not copied, unless a factor is divided out; a zero rebuilds
        only the rank map that holds it.  So the caller hands the map over.
        """
        rank_maps = groups.values()
        if not all(rank_maps) or not all(map(all, map(dict.values, rank_maps))):
            groups = {
                twist: kept
                for twist, ranks in groups.items()
                if (kept := ranks if all(ranks.values()) else {r: c for r, c in ranks.items() if c})
            }
        out = _new(cls)
        if den != 1:
            common = math.gcd(den, *chain.from_iterable(map(dict.values, groups.values())))
            if common != 1:
                den //= common
                groups = {t: {rank: n // common for rank, n in ranks.items()} for t, ranks in groups.items()}
            _set(out, "_den", den)
        _set(out, "_groups", groups)
        return out

    def _scaled(self, num: int, den: int = 1):
        """Every coefficient times num / den, for a positive den."""
        return self._from_groups(
            {twist: {rank: n * num for rank, n in ranks.items()} for twist, ranks in self._groups.items()}
            if num
            else {},
            self._den * den,
        )

    @property
    def is_zero(self) -> bool:
        return not self._groups

    @classmethod
    def _sum(cls, values: Iterable):
        """The sum of values of this class, merged map by map over the lcm
        of their denominators.  Each rank map is copied when its twist first
        appears, so no operand's is written."""
        values = list(values)
        den = math.lcm(*(value._den for value in values))
        out: Groups = {}
        for value in values:
            scale = den // value._den
            for twist, ranks in value._groups.items():
                mine = out.get(twist)
                if mine is None:
                    out[twist] = {rank: n * scale for rank, n in ranks.items()} if scale != 1 else dict(ranks)
                else:
                    for rank, n in ranks.items():
                        mine[rank] = mine.get(rank, 0) + n * scale
        return cls._from_groups(out, den)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._sum((self, other))


class BundleObject(_Combination, fields=("summands",)):
    """A direct sum of indecomposables, in the normal form of :class:`_Combination`.

    The empty multiset is the zero object; ``+`` is direct sum, ``*`` is the
    tensor product and ``n * obj`` an n-fold direct sum.
    """

    summands = cached_property(_Combination._sorted)

    _valid = staticmethod(lambda mult: type(mult) is int and mult > 0)

    @staticmethod
    def _coerce(mult: int) -> int:
        if type(mult) is not int or mult < 0:
            raise ValueError("multiplicities must be nonnegative integers")
        return mult

    # -- structure ----------------------------------------------------

    def classes(self) -> frozenset[Indecomposable]:
        trusted = Indecomposable._trusted
        return frozenset(trusted(rank, twist) for twist, ranks in self._groups.items() for rank in ranks)

    # An own binding, not the inherited one: bench/tracer.py wraps it by
    # name and would otherwise wrap the base method that RingElement calls too.
    def __add__(self, other: "BundleObject") -> "BundleObject":
        return super().__add__(other)

    def __mul__(self, other: "BundleObject") -> "BundleObject":
        if not isinstance(other, BundleObject):
            return NotImplemented
        return BundleObject._from_groups(_grouped_product(self._groups, other._groups))

    def __rmul__(self, count: int) -> "BundleObject":
        if type(count) is not int:
            return NotImplemented
        if count < 0:
            raise ValueError("multiplicities must be nonnegative")
        return self._scaled(count)

    def dual(self) -> "BundleObject":
        return BundleObject._from_groups({~t: ranks for t, ranks in self._groups.items()})

    # -- numerical invariants ------------------------------------------

    def rank(self) -> int:
        return sum(rank * mult for ranks in self._groups.values() for rank, mult in ranks.items())

    def det(self) -> LineBundleClass:
        out = TRIVIAL
        for twist, ranks in self._groups.items():
            out = out * twist ** sum(rank * mult for rank, mult in ranks.items())
        return out

    def gamma_dim(self) -> int:
        """Dimension of the space of global sections."""
        return sum(self._groups.get(TRIVIAL, {}).values())

    # -- classifiers ----------------------------------------------------

    @property
    def is_unipotent(self) -> bool:
        """True iff every summand is an untwisted E_r."""
        return all(twist.is_trivial for twist in self._groups)

    @property
    def is_finite(self) -> bool:
        """True iff the object is a sum of torsion line bundles."""
        return all(ranks.keys() == {1} and twist.is_torsion for twist, ranks in self._groups.items())

    @property
    def is_semifinite(self) -> bool:
        """True iff every twist is torsion (ranks unconstrained)."""
        return all(twist.is_torsion for twist in self._groups)

    def jh_factors(self) -> "BundleObject":
        """Semisimplification: E_r (x) L filters with r quotients equal to L."""
        return BundleObject._from_groups(
            {twist: {1: sum(rank * mult for rank, mult in ranks.items())} for twist, ranks in self._groups.items()}
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


def hom_dim(a: BundleObject, b: BundleObject) -> int:
    """dim Hom(a, b): on indecomposables min(r, s) gated by equal twists.

    Agrees with ``(a.dual() * b).gamma_dim()``, i.e. with counting sections
    of the internal Hom.
    """
    right = b._groups
    pairs = sum(len(ranks) * len(right.get(twist, ())) for twist, ranks in a._groups.items())
    draw(pairs * (150 + _limbs(a._groups, right) ** 2 // 3))  # 0.45 us a pair of short multiplicities
    return sum(
        mx * my * min(r, s)
        for twist, left_ranks in a._groups.items()
        for r, mx in left_ranks.items()
        for s, my in right.get(twist, {}).items()
    )
