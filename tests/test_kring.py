import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ellbundle import (
    RING_ONE,
    RING_ZERO,
    TRIVIAL,
    ZERO,
    Indecomposable,
    RingElement,
    atiyah,
    closed_form_S,
    krull_dim_class,
    line_class,
    summand_closure,
    tannakian_label,
    tensor_rank_indices,
)
from ellbundle.kring import (
    ALL_RANKS,
    CYCLIC_ALL_RANKS,
    CYCLIC_RANK_PARITY,
    GA,
    GA_X_GM,
    GA_X_MU,
    GM,
    MIXED_SEMIFINITE,
    MU,
    ODD_RANKS,
    TRIVIAL_GROUP,
    UNIT_ONLY,
)

from _strategies import bundle_objects, ring_elements

L12 = line_class(Fraction(1, 2))
L13 = line_class(Fraction(1, 3))
L14 = line_class(Fraction(1, 4))


def pair_products(x, y):
    """The classes of x (x) y, one summand pair at a time."""
    twist = x.twist * y.twist
    return [Indecomposable(rank, twist) for rank in tensor_rank_indices(x.rank, y.rank)]


def basis(r, twist=TRIVIAL):
    return RingElement.of({Indecomposable(r, twist): 1})


class TestRingOperations:
    def test_like_terms(self):
        assert basis(2) + basis(2) == RingElement.of({Indecomposable(2): 2})

    def test_additive_identity(self):
        a = basis(3) + basis(1)
        assert a + RING_ZERO == a

    def test_cancellation(self):
        assert basis(1) + (-1) * basis(1) == RING_ZERO

    def test_tensor_square_of_e2(self):
        assert basis(2) * basis(2) == basis(1) + basis(3)

    def test_ring_unit(self):
        a = basis(2, L13) + 2 * basis(1)
        assert RING_ONE * a == a

    def test_two_torsion_line_squares_to_one(self):
        assert basis(1, L12) * basis(1, L12) == RING_ONE

    def test_rational_coefficients(self):
        a = Fraction(1, 2) * basis(2)
        assert a + a == basis(2)

    def test_str(self):
        element = basis(2, L13) + Fraction(-1, 2) * basis(1)
        assert str(element) == "-1/2*[E[1]] + 1*[E[2]*L[1/3,0]]"
        assert str(RING_ZERO) == "0"

    @given(ring_elements(), ring_elements())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(ring_elements(), ring_elements(), ring_elements())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(ring_elements(), ring_elements(), ring_elements())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(ring_elements(), ring_elements())
    def test_mul_matches_per_term_pair_expansion(self, a, b):
        # a * a repeats twists, so the kernel's twist groups hold several ranks.
        for left in (a, a * a):
            expected: dict = {}
            for x, cx in left.terms:
                for y, cy in b.terms:
                    for key in pair_products(x, y):
                        expected[key] = expected.get(key, Fraction(0)) + cx * cy
            assert left * b == RingElement.of(expected)

    def test_terms_cancel_within_a_twist_group(self):
        line = basis(1, L12)
        assert (RING_ONE - line) * (RING_ONE + line) == RING_ZERO
        assert (basis(2) - line) * (basis(2) + line) == basis(3)

    @given(ring_elements())
    def test_unit_and_zero(self, a):
        assert RING_ONE * a == a
        assert RING_ZERO * a == RING_ZERO
        assert a - a == RING_ZERO

    @pytest.mark.parametrize("coeff", [0.5, "1/3", 1e-300, True])
    def test_inexact_coefficients_are_rejected(self, coeff):
        with pytest.raises(TypeError):
            RingElement.of({Indecomposable(1): coeff})
        with pytest.raises(ValueError):
            RingElement(((Indecomposable(1), coeff),))


class TestFromObject:
    @given(bundle_objects(), bundle_objects())
    def test_preserves_sums_and_products(self, a, b):
        ring = RingElement.from_object
        assert ring(a + b) == ring(a) + ring(b)
        assert ring(a * b) == ring(a) * ring(b)

    @given(bundle_objects())
    def test_object_never_equals_its_ring_element(self, a):
        element = RingElement.from_object(a)
        assert element.terms == a.summands
        assert a != element and element != a

    @given(bundle_objects(), ring_elements())
    def test_objects_and_ring_elements_do_not_mix(self, a, x):
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(a, x)
            with pytest.raises(TypeError):
                op(x, a)


class TestSummandClosure:
    def test_torsion_line_bundle_stabilizes(self):
        closure = summand_closure(atiyah(1, L12), 4)
        assert closure.classes == frozenset({Indecomposable(1), Indecomposable(1, L12)})
        assert closure.stabilized

    def test_e2_prefix_grows_with_cutoff(self):
        closure = summand_closure(atiyah(2), 6)
        assert closure.classes == frozenset(Indecomposable(k) for k in range(1, 8))
        assert not closure.stabilized

    def test_twisted_e2_prefix(self):
        # reachability: power n contributes ranks k <= n+1 with k = n+1 mod 2
        # and twist exponent n mod 3
        expected = {
            (rank, exp)
            for n in range(1, 7)
            for rank in range(n + 1, 0, -2)
            for exp in [n % 3]
        }
        closure = summand_closure(atiyah(2, L13), 6)
        got = {
            (ind.rank, {L13 ** i: i for i in range(3)}[ind.twist])
            for ind in closure.classes
        }
        assert got == expected
        assert not closure.stabilized

    def test_stabilized_closure_is_tensor_closed_and_stable_under_cutoff(self):
        generator = atiyah(1, L12) + atiyah(1, L13)
        small = summand_closure(generator, 8)
        large = summand_closure(generator, 20)
        assert small.stabilized
        assert small.classes == large.classes
        assert large.stabilized

    @given(bundle_objects(max_rank=3, max_summands=2), st.integers(1, 6))
    def test_matches_per_pair_set_enumeration(self, obj, max_power):
        gens = obj.classes()
        seen, current = set(gens), set(gens)
        for _ in range(2, max_power + 1):
            current = {z for c in current for g in gens for z in pair_products(c, g)}
            seen |= current
        stable = all(z in seen for c in seen for g in gens for z in pair_products(c, g))
        closure = summand_closure(obj, max_power)
        assert (closure.classes, closure.stabilized) == (seen, stable)

    def test_zero_object(self):
        closure = summand_closure(ZERO, 3)
        assert closure.classes == frozenset()
        assert closure.stabilized

    def test_max_power_validation(self):
        with pytest.raises(ValueError):
            summand_closure(atiyah(1), 0)


class TestClosedForm:
    def test_unit_generates_only_itself(self):
        form = closed_form_S(Indecomposable(1))
        assert form.kind == UNIT_ONLY
        assert form.contains(Indecomposable(1))
        assert not form.contains(Indecomposable(3))

    def test_odd_rank_generator(self):
        form = closed_form_S(Indecomposable(3))
        assert form.kind == ODD_RANKS
        assert form.contains(Indecomposable(5))
        assert not form.contains(Indecomposable(2))
        assert not form.contains(Indecomposable(3, L12))

    def test_even_rank_generator(self):
        form = closed_form_S(Indecomposable(2))
        assert form.kind == ALL_RANKS
        assert form.contains(Indecomposable(9))
        assert not form.contains(Indecomposable(1, L12))

    def test_odd_order_twist_admits_all_ranks(self):
        form = closed_form_S(Indecomposable(2, L13))
        assert form.kind == CYCLIC_ALL_RANKS
        assert form.order == 3
        assert form.contains(Indecomposable(2, L13))
        assert form.contains(Indecomposable(4))
        assert form.contains(Indecomposable(5, L13 ** 2))
        assert not form.contains(Indecomposable(1, L12))

    def test_even_order_twist_pairs_rank_and_exponent_parity(self):
        form = closed_form_S(Indecomposable(2, L14))
        assert form.kind == CYCLIC_RANK_PARITY
        assert form.order == 4
        assert form.contains(Indecomposable(1))
        assert form.contains(Indecomposable(2, L14))
        assert form.contains(Indecomposable(3, L14 ** 2))
        assert form.contains(Indecomposable(4, L14 ** 3))
        assert not form.contains(Indecomposable(2))
        assert not form.contains(Indecomposable(1, L14))

    def test_unsupported_shapes(self):
        assert closed_form_S(Indecomposable(3, L13)) is None
        assert closed_form_S(Indecomposable(1, L12)) is None
        assert closed_form_S(Indecomposable(2, line_class(free={"g": 1}))) is None

    def test_descriptions_are_deterministic(self):
        form = closed_form_S(Indecomposable(2, L13))
        assert form.description() == closed_form_S(Indecomposable(2, L13)).description()
        assert "L[1/3,0]" in form.description()


class TestKrullDim:
    def test_torsion_line_bundle(self):
        assert krull_dim_class(atiyah(1, L12)) == 0

    def test_atiyah_rank_two(self):
        assert krull_dim_class(atiyah(2)) == 1

    def test_twisted_rank_two(self):
        assert krull_dim_class(atiyah(2, L13)) == 1

    def test_zero_object_rejected(self):
        with pytest.raises(ValueError):
            krull_dim_class(ZERO)


class TestTannakianLabel:
    def test_trivial(self):
        label = tannakian_label(Indecomposable(1))
        assert label.kind == TRIVIAL_GROUP
        assert str(label) == "1"

    def test_torsion_line(self):
        label = tannakian_label(Indecomposable(1, line_class(Fraction(1, 6))))
        assert (label.kind, label.param) == (MU, 6)
        assert str(label) == "mu_6"

    def test_free_line(self):
        label = tannakian_label(Indecomposable(1, line_class(free={"g": 2})))
        assert (label.kind, label.param) == (GM, 1)
        assert str(label) == "Gm"
        two_gen = tannakian_label(Indecomposable(1, line_class(free={"g": 1, "h": 1})))
        assert (two_gen.kind, two_gen.param) == (GM, 2)
        assert str(two_gen) == "Gm^2"

    def test_unipotent_ranks_collapse(self):
        assert tannakian_label(Indecomposable(2)).kind == GA
        assert tannakian_label(Indecomposable(4)).kind == GA
        assert str(tannakian_label(Indecomposable(2))) == "Ga"

    def test_rank_two_torsion(self):
        label = tannakian_label(Indecomposable(2, line_class(Fraction(1, 5))))
        assert (label.kind, label.param) == (GA_X_MU, 5)
        assert str(label) == "Ga x mu_5"

    def test_rank_two_free(self):
        label = tannakian_label(Indecomposable(2, line_class(free={"g": 1})))
        assert (label.kind, label.param) == (GA_X_GM, 1)
        assert str(label) == "Ga x Gm"

    def test_higher_rank_twisted_is_unclassified(self):
        label = tannakian_label(Indecomposable(3, L13))
        assert label.kind == MIXED_SEMIFINITE
        assert str(label) == "mixed-semifinite"

    def test_rank_one_label_matches_finiteness(self):
        for twist in (TRIVIAL, L12, L13, line_class(free={"g": 1}), line_class(Fraction(1, 2), free={"h": -1})):
            ind = Indecomposable(1, twist)
            finite = atiyah(1, twist).is_finite
            label = tannakian_label(ind)
            assert finite == (label.kind in (TRIVIAL_GROUP, MU))
