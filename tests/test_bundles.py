import math
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ellbundle import (
    RING_ONE,
    RING_ZERO,
    TRIVIAL,
    UNIT,
    ZERO,
    BundleObject,
    Indecomposable,
    RingElement,
    atiyah,
    hom_dim,
    line_class,
    parse_object,
    summand_closure,
    tensor_rank_indices,
)
from ellbundle import bundles
from ellbundle.bundles import _grouped_product, _grouped_support

from _strategies import (bundle_objects, finite_objects, indecomposables, line_classes, ring_elements,
                         unipotent_objects)

L13 = line_class(Fraction(1, 3))
L23 = line_class(Fraction(2, 3))
L12 = line_class(Fraction(1, 2))


def E(r, twist=TRIVIAL):
    return atiyah(r, twist)


def rank_sets():
    """``{twist: ranks}`` maps, empty ones included, with torsion and free
    twists and ranks up to 40, so a left rank falls below or above a right one."""
    ranks = st.sets(st.integers(1, 40), min_size=1, max_size=5)
    return st.dictionaries(line_classes(max_order=4), ranks, max_size=3)


class TestTensor:
    def test_e2_squared(self):
        assert E(2) * E(2) == E(1) + E(3)

    def test_e3_times_e2(self):
        assert E(3) * E(2) == E(2) + E(4)

    def test_rank_one_factor_shifts_twist(self):
        assert E(2, L13) * E(1, L13) == E(2, L23)

    def test_unit_law_example(self):
        a = E(3, L13) + 2 * E(1)
        assert UNIT * a == a
        assert a * UNIT == a

    def test_zero_absorbs(self):
        assert ZERO * E(5) == ZERO
        assert ZERO + E(5) == E(5)

    @given(bundle_objects(), bundle_objects())
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(bundle_objects(max_rank=3), bundle_objects(max_rank=3), bundle_objects(max_rank=3))
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(bundle_objects())
    def test_unit(self, a):
        assert UNIT * a == a

    def test_kernel_sums_repeats_and_drops_zeros(self):
        e1, e2 = Indecomposable(1), Indecomposable(2)
        e1l, e2l = Indecomposable(1, L12), Indecomposable(2, L12)
        product = BundleObject.of([(e2, 1), (e2, 1)]) * BundleObject.of([(e1, 3)])
        assert product == BundleObject.of([(e2, 6)])
        left = RingElement.of([(e2, 1), (e2l, -1)])
        assert left * RingElement.of([(e1, 1), (e1l, 1)]) == RING_ZERO

    @given(bundle_objects(max_rank=3), bundle_objects(max_rank=3))
    def test_matches_per_summand_pair_expansion(self, a, b):
        # a * a repeats twists, so the kernel's twist groups hold several ranks.
        for left in (a, a * a):
            expected: dict = {}
            for x, mx in left.summands:
                for y, my in b.summands:
                    twist = x.twist * y.twist
                    for rank in tensor_rank_indices(x.rank, y.rank):
                        key = Indecomposable(rank, twist)
                        expected[key] = expected.get(key, 0) + mx * my
            assert left * b == BundleObject.of(expected)

    @given(rank_sets(), rank_sets())
    def test_support_kernel_is_the_support_of_the_kernel(self, left, right):
        def masks(groups):
            return {twist: sum(1 << rank for rank in ranks) for twist, ranks in groups.items()}

        def ones(sets):
            return {twist: dict.fromkeys(ranks, 1) for twist, ranks in sets.items()}

        assert _grouped_support(masks(left), masks(right), {}) == masks(_grouped_product(ones(left), ones(right)))


def spec_product(left, right) -> dict:
    """The kernel's product by the rule of tensor_rank_indices, rank pair by
    rank pair, with the twists that cancel to nothing dropped."""
    out: dict = {}
    for s, left_ranks in left.items():
        for t, right_ranks in right.items():
            ranks = out.setdefault(s * t, {})
            for r, a in left_ranks.items():
                for q, b in right_ranks.items():
                    for k in tensor_rank_indices(r, q):
                        ranks[k] = ranks.get(k, 0) + a * b
    return nonzero(out)


def nonzero(groups) -> dict:
    """A twist-grouped map without zero coefficients or empty twists."""
    kept = {t: {k: c for k, c in ranks.items() if c} for t, ranks in groups.items()}
    return {t: ranks for t, ranks in kept.items() if ranks}


def coefficient_maps(signed: bool):
    """Pairs of ``{twist: {rank: coefficient}}`` maps as the kernel receives them.

    Coefficients reach 2^70, so two coefficient sums multiply past 2^63 and
    the packed fields take several limbs.  Each map is short (ranks up to
    12, several twists) or, on one side only, tall: 65 to 70 ranks of one
    parity in one twist, so one side packs many more fields than the other.
    """
    def coeffs(high):
        return st.integers(-high if signed else 1, high).filter(bool)

    # One bound per map keeps small and large coefficient sums both common.
    short = st.sampled_from((9, 2**70)).flatmap(lambda high: st.dictionaries(
        line_classes(max_order=4), st.dictionaries(st.integers(1, 12), coeffs(high), min_size=1, max_size=5),
        min_size=1, max_size=4,
    ))
    # Tall coefficients come from one seeded draw each: 65 draws of their own
    # would take most of the test's time.
    tall = st.builds(
        lambda twist, low, count, high, rng: {
            twist: {low + 2 * i: rng.randint(-high if signed else 1, high) or 1 for i in range(count)}
        },
        line_classes(max_order=2, with_free=False), st.integers(1, 10), st.integers(65, 70),
        st.sampled_from((9, 2**70)), st.randoms(use_true_random=False),
    )
    return st.one_of(st.tuples(short, short), st.tuples(tall, short), st.tuples(short, tall))


BIG = "(E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)"


def each_path(left, right) -> list:
    """The product by each path of the kernel, called directly, zeros dropped."""
    return [nonzero(bundles._loop_product(left, right, bundles._twist_table(left, right))),
            nonzero(bundles._packed_product(left, right, bundles._twist_table(left, right),
                                            bundles._limbs(left, right)))]


class TestKernelPaths:
    """Both paths of the kernel, called directly, against the rule of
    tensor_rank_indices, and the path the cost rule picks."""

    @settings(max_examples=80, deadline=None)
    @given(st.booleans().flatmap(coefficient_maps))
    def test_each_path_is_the_spec(self, maps):
        left, right = maps
        expected = spec_product(left, right)
        assert each_path(left, right) == [expected, expected]

    def test_both_paths_meet_the_spec_across_the_rule_boundary(self, monkeypatch):
        # Ranks 1..n, each with coefficient c, times themselves and one more
        # twist: the pieces grow as n^3 and the packed fields as n, so the
        # rule leaves the loop as n grows, at n = 5.  Coefficients of 2^40
        # and 2^70 take two and three limbs, which moves that to 8 and 10.
        chosen = []
        for name in ("_loop_product", "_packed_product"):
            path = getattr(bundles, name)
            monkeypatch.setattr(bundles, name, lambda *a, name=name, path=path: chosen.append(name) or path(*a))
        boundary = {1: (1, 5), -3: (1, 5), 2**40: (2, 8), -(2**70): (3, 10)}  # c: (limbs, first packed n)
        for c, (limbs, first) in boundary.items():
            for n in range(1, 12):
                left = {L12: {r: c for r in range(1, n + 1)}}
                right = {TRIVIAL: {q: c for q in range(1, n + 1)}, L13: {n: 1}}
                expected = spec_product(left, right)
                chosen.clear()
                assert nonzero(bundles._grouped_product(left, right)) == expected
                assert bundles._limbs(left, right) == limbs
                assert chosen == ["_packed_product" if n >= first else "_loop_product"]
                assert each_path(left, right) == [expected, expected]

    @given(line_classes(), line_classes(), st.integers(1, 60), st.integers(1, 60),
           st.integers(-(2**70), 2**70).filter(bool), st.integers(-(2**70), 2**70).filter(bool))
    def test_one_rank_pair_is_the_rule_without_the_table(self, s, t, r, q, a, b):
        # Signed numerators, as ring products pass them.  One entry a side
        # skips the cost rule and the twist table.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bundles, "_twist_table", None)
            product = _grouped_product({s: {r: a}}, {t: {q: b}})
        assert product == {s * t: {k: a * b for k in tensor_rank_indices(r, q)}}

    @pytest.mark.parametrize(
        "left, right, paths",
        [
            ("E[100000]", "E[100000]", ["_loop_product"]),  # three packed fields per piece
            ("E[2]^300", "E[2]", ["_loop_product"]),  # 5-limb fields for about 300 pieces
            (f"{BIG}^6", f"{BIG}^6", ["_packed_product"]),  # 784 twist pairs onto 91 twists
            (BIG, BIG, ["_loop_product"] * 11),  # each step of the chain BIG^12
            ("E[2]^40", "E[2]^40", ["_packed_product"]),  # two-limb fields
        ],
        ids=["tall-and-thin", "multi-limb", "big-times-big", "big-chain", "two-limb"],
    )
    def test_the_rule_picks(self, monkeypatch, left, right, paths):
        # left * right * right ..., one product per path, as a power chain runs.
        a, b = parse_object(left), parse_object(right)  # before the spies: parsing multiplies too
        chosen = []
        for name in ("_loop_product", "_packed_product"):
            kernel = getattr(bundles, name)
            monkeypatch.setattr(bundles, name, lambda *a, name=name, kernel=kernel: chosen.append(name) or kernel(*a))
        product = a
        for _ in paths:
            product = product * b
        assert product.rank() == a.rank() * b.rank() ** len(paths)
        assert chosen == paths


class TestDual:
    def test_twisted_example(self):
        assert E(3, L13).dual() == E(3, L23)

    def test_unit_self_dual(self):
        assert UNIT.dual() == UNIT

    @given(bundle_objects())
    def test_involution(self, a):
        assert a.dual().dual() == a

    @given(bundle_objects(max_rank=3), bundle_objects(max_rank=3))
    def test_tensor_contravariance(self, a, b):
        assert (a * b).dual() == a.dual() * b.dual()


class TestRank:
    def test_additivity(self):
        assert (E(3) + E(2)).rank() == 5

    def test_zero_object(self):
        assert ZERO.rank() == 0

    def test_clebsch_gordan_indices_sum_to_product(self):
        # arithmetic-series oracle: the index list of E_r (x) E_s must sum to rs
        for r in range(1, 11):
            for s in range(1, 11):
                indices = tensor_rank_indices(r, s)
                assert len(indices) == min(r, s)
                assert sum(indices) == r * s
                assert (E(r) * E(s)).rank() == r * s
                assert indices == tuple(abs(r - s) + 2 * i - 1 for i in range(1, min(r, s) + 1))

    @pytest.mark.parametrize("r, s", [(True, 2), (2, True), (2.0, 2), (0, 2), (2, -1)])
    def test_clebsch_gordan_indices_need_positive_int_ranks(self, r, s):
        with pytest.raises(ValueError, match="ranks must be positive integers"):
            tensor_rank_indices(r, s)

    @given(bundle_objects(), bundle_objects())
    def test_multiplicative(self, a, b):
        assert (a * b).rank() == a.rank() * b.rank()

    @given(bundle_objects(), bundle_objects())
    def test_additive(self, a, b):
        assert (a + b).rank() == a.rank() + b.rank()


class TestDet:
    def test_threefold_twist_cancels(self):
        # oracle: three-fold product of the twist
        expected = L13 * L13 * L13
        assert expected == TRIVIAL
        assert E(3, L13).det() == expected

    def test_untwisted_atiyah_bundles(self):
        for r in range(1, 11):
            assert E(r).det() == TRIVIAL

    @given(bundle_objects(), bundle_objects())
    def test_direct_sum(self, a, b):
        assert (a + b).det() == a.det() * b.det()

    @given(bundle_objects(max_rank=3), bundle_objects(max_rank=3))
    def test_tensor_product(self, a, b):
        assert (a * b).det() == a.det() ** b.rank() * b.det() ** a.rank()


class TestGamma:
    def test_atiyah_bundle_has_one_section(self):
        assert E(5).gamma_dim() == 1

    def test_twisted_has_none(self):
        assert E(2, L12).gamma_dim() == 0

    def test_additive_over_summands(self):
        assert (E(2) + E(3) + E(1, L13)).gamma_dim() == 2


class TestHom:
    def test_min_rule(self):
        assert hom_dim(E(3), E(5)) == 3

    def test_endomorphisms(self):
        assert hom_dim(E(4), E(4)) == 4

    def test_unequal_twist_vanishes(self):
        # derived: E(2,L13).dual() * E(2) = (E_1 + E_3) (x) L23, no sections
        assert (E(2, L13).dual() * E(2)).classes() == frozenset(
            {Indecomposable(1, L23), Indecomposable(3, L23)}
        )
        assert hom_dim(E(2, L13), E(2)) == 0

    @given(bundle_objects(), bundle_objects())
    def test_agrees_with_gamma_of_internal_hom(self, a, b):
        assert hom_dim(a, b) == (a.dual() * b).gamma_dim()

    @given(bundle_objects(), bundle_objects())
    def test_symmetric(self, a, b):
        assert hom_dim(a, b) == hom_dim(b, a)

    @given(bundle_objects(max_rank=3), bundle_objects(max_rank=3))
    def test_matches_the_pairwise_formula(self, a, b):
        # a + b and a * b share twists with a and b, so twist groups meet.
        for x, y in ((a, b), (a, a + b), (a * b, b + a * b)):
            pairwise = sum(
                mx * my * min(u.rank, v.rank)
                for u, mx in x.summands
                for v, my in y.summands
                if u.twist == v.twist
            )
            assert hom_dim(x, y) == pairwise

    @given(finite_objects(), finite_objects(), unipotent_objects(), unipotent_objects())
    def test_factorization_through_finite_and_unipotent(self, f1, f2, u1, u2):
        assert hom_dim(f1 * u1, f2 * u2) == hom_dim(f1, f2) * hom_dim(u1, u2)

    def test_factorization_exhaustive_small(self):
        twists = [TRIVIAL, L12, L13, L23]
        lines = [E(1, t) for t in twists]
        unis = [E(r) for r in range(1, 5)]
        for f1 in lines:
            for f2 in lines:
                for u1 in unis:
                    for u2 in unis:
                        assert hom_dim(f1 * u1, f2 * u2) == hom_dim(f1, f2) * hom_dim(u1, u2)


class TestClassifiers:
    def test_unipotent_examples(self):
        assert (E(1) + E(4)).is_unipotent
        assert not E(2, L12).is_unipotent
        assert ZERO.is_unipotent

    def test_finite_examples(self):
        assert (E(1, L12) + E(1, line_class(0, Fraction(1, 3)))).is_finite
        assert not E(2).is_finite
        assert not E(1, line_class(free={"g": 1})).is_finite

    def test_semifinite_examples(self):
        assert E(3, line_class(Fraction(1, 5))).is_semifinite
        assert not E(2, line_class(free={"g": 1})).is_semifinite

    @given(bundle_objects())
    def test_finite_implies_semifinite(self, a):
        if a.is_finite:
            assert a.is_semifinite

    @given(bundle_objects())
    def test_unipotent_implies_semifinite(self, a):
        if a.is_unipotent:
            assert a.is_semifinite

    @given(bundle_objects())
    def test_finite_unipotent_intersection_is_trivial(self, a):
        if a.is_finite and a.is_unipotent:
            assert a.classes() <= {Indecomposable(1)}


class TestJordanHolder:
    def test_twisted_tower(self):
        assert E(3, L12).jh_factors() == 3 * E(1, L12)

    def test_simple_is_fixed(self):
        assert E(1, L13).jh_factors() == E(1, L13)

    @given(bundle_objects())
    def test_idempotent(self, a):
        ss = a.jh_factors()
        assert ss.jh_factors() == ss

    @given(bundle_objects())
    def test_preserves_rank_and_det(self, a):
        ss = a.jh_factors()
        assert ss.rank() == a.rank()
        assert ss.det() == a.det()


def test_projective_generator_criterion():
    # dim End(E_r) = r
    assert all(hom_dim(E(r), E(r)) == r for r in range(1, 51))


def test_normal_form_is_canonical():
    a = BundleObject.of([Indecomposable(3, L13), Indecomposable(1), Indecomposable(1)])
    b = BundleObject.of([(Indecomposable(1), 2), (Indecomposable(3, L13), 1)])
    assert a == b
    assert hash(a) == hash(b)


@given(
    bundle_objects(max_rank=3),
    bundle_objects(max_rank=3),
    st.lists(st.tuples(indecomposables(max_rank=3, max_order=3), st.integers(0, 2)), max_size=4),
)
def test_normal_forms_pass_the_public_constructor(a, b, pairs):
    for x in (a * b, a * a, a + b, a.dual(), (a * b).dual() + a, a.jh_factors(), 3 * a, 0 * a,
              BundleObject.of(pairs), BundleObject.of(dict(pairs)), BundleObject.of(ind for ind, _ in pairs)):
        assert type(x)(x.summands) == x


@given(bundle_objects(max_rank=3), bundle_objects(max_rank=3), st.integers(0, 3))
def test_objects_are_equal_iff_their_summands_are(a, b, n):
    # Each line holds values built by different routes that must be equal.
    routes = [
        [a * b, b * a],
        [a + b, b + a, BundleObject.of(a.summands + b.summands), BundleObject(a.summands) + b],
        [(a * b).dual(), a.dual() * b.dual(), (b.dual() * a.dual()).dual().dual()],
        [n * a, reduce(operator.add, [a] * n, ZERO), BundleObject.of({ind: n * m for ind, m in a.summands})],
        [(a + b).dual(), a.dual() + b.dual()],
    ]
    for same in routes:
        assert all(x == same[0] and hash(x) == hash(same[0]) for x in same)
    values = [x for same in routes for x in same]
    for x in values:
        for y in values:
            assert (x == y) == (x.summands == y.summands)


@given(ring_elements(), ring_elements(), bundle_objects(max_rank=3))
def test_ring_elements_are_equal_iff_their_terms_are(x, y, obj):
    # x*y + (-(x*y)) cancels every coefficient: zeros and the emptied twists
    # must both be dropped for it to be RING_ZERO.
    cancelled = x * y + (-(x * y))
    assert cancelled == RING_ZERO and cancelled.is_zero and cancelled.terms == ()
    routes = [
        [cancelled, RING_ZERO, x - x, x * 0],
        [x * y, y * x, RingElement.of(dict((x * y).terms))],
        [(x + y) * (x - y), x * x - y * y],
        [x + y, RingElement.of(x.terms + y.terms), -(-y - x)],
        [x * Fraction(2), x + x, Fraction(2) * x],
        [RingElement.from_object(obj), RingElement.of(obj.summands)],
        # Numerators that share a factor with the denominator: 1/2 + 1/2 is 1.
        [x, Fraction(1, 2) * x + Fraction(1, 2) * x, x * (2 * RING_ONE) * (Fraction(1, 2) * RING_ONE),
         (3 * x - x) * Fraction(1, 2), x * Fraction(2, 3) * Fraction(3, 2)],
    ]
    for same in routes:
        assert all(v == same[0] and hash(v) == hash(same[0]) for v in same)
    values = [v for same in routes for v in same]
    for v in values:
        numerators = [n for ranks in v._groups.values() for n in ranks.values()]
        assert v._den > 0 and math.gcd(v._den, *numerators) == 1 and all(numerators)
        for w in values:
            assert (v == w) == (v.terms == w.terms)


@given(bundle_objects(max_rank=3), bundle_objects(max_rank=3), ring_elements(), ring_elements())
def test_no_operation_writes_into_a_stored_map(a, b, x, y):
    # Values share rank maps: dual reuses its operand's, a product keeps the
    # kernel's.  Copies rebuilt from the sorted pairs before any operation
    # must still equal every operand and result afterwards.
    # from_object shares its object's rank maps.
    dual, product, ring, shared = a.dual(), a * b, x * y, RingElement.from_object(a)
    values = [a, b, x, y, dual, product, ring, shared]
    copies = [type(v)(v.summands if isinstance(v, BundleObject) else v.terms) for v in values]
    a * b, a + b, a + a, dual + dual, dual * a, product + product, product * dual, 2 * dual
    hom_dim(a, b), hom_dim(dual, product), summand_closure(a, 3), summand_closure(dual, 2)
    x * y, x + y, x - x, ring + ring, ring - ring, -ring, RingElement.from_object(dual) * x
    shared + shared, shared + x, x + shared, shared - x, -shared, shared * x, shared * shared
    2 * shared, shared * Fraction(1, 3), shared * Fraction(2, 1) + x * Fraction(1, 2)
    a.jh_factors(), a.rank(), a.det(), a.gamma_dim(), a.classes()
    assert values == copies


def test_invalid_construction():
    with pytest.raises(ValueError):
        Indecomposable(0)
    with pytest.raises(ValueError):
        BundleObject.of([(Indecomposable(1), -1)])
    with pytest.raises(ValueError):
        (-2) * E(1)
    for bad in (True, 2.0):
        with pytest.raises(ValueError):
            Indecomposable(bad)
    for bad in (1.5, 2.0, Fraction(3, 2), True):
        with pytest.raises(ValueError):
            BundleObject.of([(Indecomposable(2), bad)])
        with pytest.raises(ValueError):
            BundleObject(((Indecomposable(2), bad),))


@pytest.mark.parametrize("twist", [None, Fraction(1, 3), "L[1/3,0]", 1])
def test_twist_must_be_a_line_bundle_class(twist):
    with pytest.raises(TypeError):
        Indecomposable(2, twist)


@pytest.mark.parametrize("count", [True, False, 2.0, Fraction(2)])
def test_non_int_direct_sum_count_is_rejected(count):
    with pytest.raises(TypeError):
        count * E(2)
    with pytest.raises(TypeError):
        E(2) * count
