"""Krull-Schmidt algebra of semifinite degree-0 bundles on an elliptic curve.

Every indecomposable degree-0 bundle is ``E_r (x) L``: the rank-r Atiyah
bundle (the unique indecomposable of rank r and degree 0 with a nonzero
global section, built by iterated self-extensions of the trivial bundle)
twisted by a degree-0 line bundle class.  A general object is a finite
multiset of indecomposables; keeping the multiset sorted, by rank and then
by the twist's ``sort_key``, makes it a normal form, so ``==`` decides
isomorphism.  The ring elements of :mod:`ellbundle.kring` share that normal
form, with nonzero fractions in place of multiplicities; :class:`_Combination`
holds it for both.

The tensor product follows the Clebsch-Gordan pattern

    (E_r (x) L) (x) (E_s (x) M) = sum over i=1..min(r,s) of
                                  E_{|r-s|+2i-1} (x) LM.

One kernel, ``_grouped_product``, computes every object and ring product.
It multiplies twist-grouped maps ``{twist: {rank: coefficient}}``, so each
pair of distinct twists is multiplied once; normal forms are sorted
straight from its groups, and indecomposables are built only for the
result.  The ranks combine along one of two paths, picked per product by a
cost rule from sizes known before any rank is touched.  The triple loop
adds each piece E_k on its own.  The packed path multiplies SL2 characters
packed into integers (the Brauer-Klimyk rule over Kronecker substitution),
one integer product per twist pair.  The rule weighs the loop's pieces
against the packed path's output fields times limbs, with one constant set
on the kernel calls of the ``tensor`` benchmark round (``_PACKED_COST``):
``big * big``, ``big = (E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)^6``, packs and
its kernel time falls from 7.2 to 2.9 ms, while tall-and-thin products such
as ``E[100000] * E[100000]`` keep the loop.  Summand closures need only
which classes occur, so they use its support form, ``_grouped_support``,
on ``{twist: rank bitmask}`` maps: the pieces E_{r+q-1-2j}, j < min(r, q),
of E_r (x) E_q are one shift of a mask per j, and a closure keeps its twist
products across powers.  Each ``E_r`` is self-dual,
``dim Gamma(E_r (x) L)`` is 1 when L is trivial and 0 otherwise, and
``Hom(A, B) = Gamma(A^dual (x) B)``.  The classifiers at the bottom express
the trichotomy on this curve: finite objects are sums of torsion line
bundles, unipotent objects are sums of the ``E_r``, and semifinite objects
are sums of ``E_r (x) L`` with ``L`` torsion.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from operator import attrgetter, sub

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


# Bound once for Indecomposable._trusted, which closures and normal forms
# call for every class they build.
_new, _set = object.__new__, object.__setattr__


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
        return (self.rank, self.twist) == (other.rank, other.twist)

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


# The packed path runs when the loop's pieces exceed this many times the
# packed cost: output fields times limbs, plus one output twist's fields for
# the path's fixed work.  Fitted on the 555 kernel calls of the `tensor`
# round, seeds 1-3, each timed on both paths without the twist table (best
# of 7; Python 3.11.7, 2-CPU x86-64 Linux), with `big * big` counted three
# times as the round runs it: 85.0 ms on the loop alone, 46.4 ms at 1.0,
# 44.8 ms at 1.5, 45.2 ms at 2.0.  At 1.5 the worst call packed takes 1.86
# times the loop's time (2 fields per twist onto 50 output twists), and
# chains x * E[q], q <= 6, such as E[6]^15 * E[6], stay on the loop.
_PACKED_COST = 1.5

Table = tuple[list[list[dict[int, Coeff]]], Groups]


def _twist_table(left: Groups, right: Groups) -> Table:
    """Every twist pair multiplied once: ``(rows, products)``, where
    ``products`` maps each output twist to an empty rank map, in order of
    first appearance, and ``rows[i][j]`` is the rank map of the i-th left
    twist times the j-th right twist.  A path fills the rank maps in place,
    so a table serves one product.  Handing out the rank maps, not the
    twists, spares each path a hash of a twist per twist pair or per output
    twist: building the output keyed by twist again cost 17 us of the 430 us
    kernel time of a ``tensor`` round's CENTRE product (110 output twists on
    average, each hashed by a Python-level ``__hash__``)."""
    products: Groups = {}
    rows = [[products.setdefault(s * t, {}) for t in right] for s in left]
    return rows, products


def _grouped_product(left: Groups, right: Groups) -> Groups:
    """The Clebsch-Gordan kernel: the tensor product of two twist-grouped maps.

    Each pair of twists is multiplied once, for either of two paths, and a
    cost rule picks the path from sizes known before any rank is combined.
    The loop's cost is its piece count, the sum of min(r, q) over every left
    rank r and right rank q of every twist pair.  The packed path's cost is
    its output fields (output twists, plus one for its fixed work, times
    fields per twist) times the limbs per field.  Both paths return the same
    coefficients, but only the loop keeps coefficients that cancel, as zeros.
    """
    table = _twist_table(left, right)
    rs = list(chain.from_iterable(left.values()))
    qs = list(chain.from_iterable(right.values()))
    if rs and qs:
        cost = _PACKED_COST * (len(table[1]) + 1) * (max(rs) + 2 * max(qs) - 1)
        # min(r, q) is at most r and at most q, so most products that stay on
        # the loop are told by a bound, without counting their pieces.
        if min(len(rs) * sum(qs), len(qs) * sum(rs)) > cost:
            pieces = _pieces(rs, qs)
            # The limbs walk every coefficient, so they are counted only
            # when they decide.
            if pieces > cost:
                limbs = _limbs(left, right)
                if pieces > cost * limbs:
                    return _packed_product(left, right, table, limbs)
    return _loop_product(left, right, table)


def _pieces(rs: list[int], qs: list[int]) -> int:
    """The sum of min(r, q) over every r in rs and q in qs: each r adds the
    q below it and r for each q from r up, read off both lists sorted."""
    rs, qs = sorted(rs), sorted(qs)
    pieces = low = j = 0
    for r in rs:
        while j < len(qs) and qs[j] < r:
            low += qs[j]
            j += 1
        pieces += low + r * (len(qs) - j)
    return pieces


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
    then shifted by m fields (one rank: a shifted multiple).  One product per
    twist pair holds E_k at field o + k, and is added into the accumulator
    of its output twist.  Fields are ``limbs`` 64-bit words wide
    (:func:`_limbs`) and hold balanced digits: each accumulator starts at
    2^(w-1) in every field, so none borrows from the next.  Each output
    twist is unpacked once: the field o - k of a negative weight is
    subtracted from E_k, which cancels the bias, and the fields above 2o
    lose it.
    """
    byteorder = sys.byteorder
    off = max(chain.from_iterable(right.values()), default=1) - 1
    top = max(chain.from_iterable(left.values()), default=1)
    fields = top + 2 * off + 1
    w, size = 64 * limbs, 8 * limbs
    z2 = (1 << 2 * w) - 1
    chars = [
        _pack({off + e * q + 1: e * b for q, b in ranks.items() for e in (1, -1)}, size) // z2
        for ranks in right.values()
    ]
    heads = []
    for ranks in left.values():
        low = min(ranks, default=0)
        h = _pack({r - low: a for r, a in ranks.items()}, size) if len(ranks) > 1 else ranks.get(low, 0)
        heads.append((h, w * low))
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
    |c| < 2^(8 size - 1), written as bytes in time linear in the bytes: each
    c into its own field in two's complement, and the borrow a negative
    field takes from the next one is subtracted after."""
    digits = bytearray(size * (max(coeffs) + 2))
    borrows = bytearray(len(digits))
    for k, c in coeffs.items():
        digits[k * size : k * size + size] = c.to_bytes(size, "little", signed=True)
        if c < 0:
            borrows[k * size + size] = 1
    return int.from_bytes(digits, "little") - int.from_bytes(borrows, "little")


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
    the left ranks r > j, the mask with its low j + 1 bits cleared, give
    their j-th pieces all at once: that mask shifted by q - 1 - 2j.

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
                    high = mask >> (j + 1) << (j + 1)
                    shift = q - 1 - 2 * j
                    out |= high << shift if shift >= 0 else high >> -shift
            products[twist] = out
    return products


class _Combination(_Frozen):
    """Indecomposables with coefficients, strictly sorted by ``sort_key`` and
    with no zero coefficient, so ``==`` decides equality.

    A subclass names its one field of pairs (``fields=("summands",)``), read
    through ``_pairs``, and gets the constructor.  ``_coerce`` converts a
    coefficient given to :meth:`of`, ``_valid`` accepts a stored one.  Only
    the constructor, which takes outside pairs, checks them:
    :meth:`_from_groups` sorts rows with distinct keys and coerced
    coefficients, so its normal forms hold without a check.
    """

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
        super().__init__(pairs)

    _pairs = property(lambda self: getattr(self, self._fields[0]))

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

        return cls._from_groups(_by_twist(pairs()))

    @classmethod
    def _from_groups(cls, groups: Groups):
        """The normal form of a twist-grouped map; zero coefficients are dropped.

        Trusted: every caller (:meth:`of` after ``_coerce``, ``+``, ``*``,
        ``dual``, ``jh_factors``, ring products) passes one entry per twist
        and one per rank in it, so the keys ``(rank, twist key)`` are
        distinct, and ``rows.sort()`` never compares twists and sorts
        strictly; a nonzero sum or product of coerced coefficients is valid.
        Every rank comes from a built class or from the kernel's rule, so it
        is a positive int, and the classes are built by ``_trusted``.
        """
        rows = []
        for twist, ranks in groups.items():
            key = twist.sort_key()
            rows.extend((rank, key, twist, coeff) for rank, coeff in ranks.items() if coeff)
        rows.sort()
        pairs = tuple((Indecomposable._trusted(rank, twist), coeff) for rank, _, twist, coeff in rows)
        out = object.__new__(cls)
        object.__setattr__(out, cls._fields[0], pairs)
        return out

    def _scaled(self, c: Coeff):
        """Every coefficient times c, built through the public constructor."""
        return type(self)(tuple((ind, coeff * c) for ind, coeff in self._pairs) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._from_groups(_by_twist(chain(self._pairs, other._pairs)))


class BundleObject(_Combination, fields=("summands",)):
    """A direct sum of indecomposables in canonical (sorted multiset) form.

    The empty multiset is the zero object; ``+`` is direct sum, ``*`` is the
    tensor product and ``n * obj`` an n-fold direct sum.
    """

    _valid = staticmethod(lambda mult: type(mult) is int and mult > 0)

    @staticmethod
    def _coerce(mult: int) -> int:
        if type(mult) is not int or mult < 0:
            raise ValueError("multiplicities must be nonnegative integers")
        return mult

    # -- structure ----------------------------------------------------

    def classes(self) -> frozenset[Indecomposable]:
        return frozenset(ind for ind, _ in self.summands)

    # An own binding, not the inherited one: bench/tracer.py wraps it by
    # name and would otherwise wrap the base method that RingElement calls too.
    def __add__(self, other: "BundleObject") -> "BundleObject":
        return super().__add__(other)

    def __mul__(self, other: "BundleObject") -> "BundleObject":
        if not isinstance(other, BundleObject):
            return NotImplemented
        return BundleObject._from_groups(_grouped_product(_by_twist(self.summands), _by_twist(other.summands)))

    def __rmul__(self, count: int) -> "BundleObject":
        if type(count) is not int:
            return NotImplemented
        if count < 0:
            raise ValueError("multiplicities must be nonnegative")
        return self._scaled(count)

    def dual(self) -> "BundleObject":
        return BundleObject._from_groups({~t: ranks for t, ranks in _by_twist(self.summands).items()})

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


def hom_dim(a: BundleObject, b: BundleObject) -> int:
    """dim Hom(a, b): on indecomposables min(r, s) gated by equal twists.

    Agrees with ``(a.dual() * b).gamma_dim()``, i.e. with counting sections
    of the internal Hom.
    """
    right = _by_twist(b.summands)
    return sum(
        mx * my * min(r, s)
        for twist, left_ranks in _by_twist(a.summands).items()
        for r, mx in left_ranks.items()
        for s, my in right.get(twist, {}).items()
    )
