import operator
from fractions import Fraction

import ellbundle.kring as kring

import pytest
from hypothesis import given, strategies as st

from ellbundle import (
    RING_ONE,
    RING_ZERO,
    TRIVIAL,
    ZERO,
    ClosedForm,
    Indecomposable,
    RingElement,
    TannakianLabel,
    atiyah,
    closed_form_S,
    krull_dim_class,
    line_class,
    summand_closure,
    tannakian_label,
    tensor_rank_indices,
)

from _strategies import bundle_objects, indecomposables, ring_elements

L12 = line_class(Fraction(1, 2))
L13 = line_class(Fraction(1, 3))
L14 = line_class(Fraction(1, 4))


def pair_products(x, y):
    """The classes of x (x) y, one summand pair at a time."""
    twist = x.twist * y.twist
    return [Indecomposable(rank, twist) for rank in tensor_rank_indices(x.rank, y.rank)]


def signed_ring_elements():
    """Ring elements with mixed denominators and signs, RING_ZERO included."""
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    pairs = st.tuples(indecomposables(max_rank=3, max_order=4), coeffs)
    return st.one_of(st.just(RING_ZERO), st.lists(pairs, max_size=3).map(RingElement.of))


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

    @given(signed_ring_elements(), signed_ring_elements())
    def test_mul_equals_per_pair_fraction_expansion(self, a, b):
        expected: dict = {}
        for x, cx in a.terms:
            for y, cy in b.terms:
                for key in pair_products(x, y):
                    expected[key] = expected.get(key, Fraction(0)) + cx * cy
        terms = sorted(((k, c) for k, c in expected.items() if c), key=lambda kc: kc[0].sort_key())
        product = a * b
        assert product.terms == tuple(terms)
        assert all(type(c) is Fraction for _, c in product.terms)

    @given(signed_ring_elements(), signed_ring_elements(), bundle_objects(max_rank=3))
    def test_normal_forms_pass_the_public_constructor(self, a, b, obj):
        # (a + b) * (a - b) cancels a * b against b * a inside the kernel.
        cancelled = (a + b) * (a - b) - (a * a - b * b)
        assert cancelled == RING_ZERO
        for x in (a * b, b * a, a * RING_ZERO, RING_ZERO * b, (a + b) * (a - b), a + b, a - a,
                  cancelled, RingElement.of(a.terms + b.terms), RingElement.from_object(obj),
                  -a, a * Fraction(2, 3), Fraction(-1, 2) * a, a * 0):
            assert type(x)(x._pairs) == x

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

    @pytest.mark.parametrize("scalar", [True, False, 0.5])
    def test_non_exact_scalars_are_rejected(self, scalar):
        element = RingElement.of({Indecomposable(2): 3})
        with pytest.raises(TypeError):
            element * scalar
        with pytest.raises(TypeError):
            scalar * element


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

    @given(bundle_objects(max_rank=8, max_summands=2), st.integers(1, 6))
    def test_matches_per_pair_set_enumeration(self, obj, max_power):
        gens = obj.classes()
        seen, current = set(gens), set(gens)
        for _ in range(2, max_power + 1):
            current = {z for c in current for g in gens for z in pair_products(c, g)}
            seen |= current
        stable = all(z in seen for c in seen for g in gens for z in pair_products(c, g))
        closure = summand_closure(obj, max_power)
        assert (closure.classes, closure.stabilized) == (seen, stable)

    @staticmethod
    def left_operand_sizes(monkeypatch, obj, max_power):
        """Classes in the left operand of every support-kernel call that
        summand_closure makes, counted as the set bits of its rank masks."""
        sizes = []
        kernel = kring._grouped_support

        def spy(left, right):
            sizes.append(sum(bin(mask).count("1") for mask in left.values()))
            return kernel(left, right)

        monkeypatch.setattr(kring, "_grouped_support", spy)
        summand_closure(obj, max_power)
        return sizes

    def test_one_tensor_step_per_power(self, monkeypatch):
        # S_1 .. S_6 of E[2], the last step deciding stabilization; the
        # accumulated set (7 classes) is never re-tensored
        assert self.left_operand_sizes(monkeypatch, atiyah(2), 6) == [1, 2, 2, 3, 3, 4]

    def test_stops_at_first_power_adding_no_class(self, monkeypatch):
        # S_1 = {L}, S_2 = {O}, S_3 = {L}: closed after the second step
        assert self.left_operand_sizes(monkeypatch, atiyah(1, L12), 4) == [1, 1]

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
        assert form.kind == "UNIT_ONLY"
        assert form.description() == "{E[1]}"
        assert form.contains(Indecomposable(1))
        assert not form.contains(Indecomposable(3))

    def test_odd_rank_generator(self):
        form = closed_form_S(Indecomposable(3))
        assert form.kind == "ODD_RANKS"
        assert form.contains(Indecomposable(5))
        assert not form.contains(Indecomposable(2))
        assert not form.contains(Indecomposable(3, L12))

    def test_even_rank_generator(self):
        form = closed_form_S(Indecomposable(2))
        assert form.kind == "ALL_RANKS"
        assert form.contains(Indecomposable(9))
        assert not form.contains(Indecomposable(1, L12))

    def test_odd_order_twist_admits_all_ranks(self):
        form = closed_form_S(Indecomposable(2, L13))
        assert form.kind == "CYCLIC_ALL_RANKS"
        assert form.order == 3
        assert form.contains(Indecomposable(2, L13))
        assert form.contains(Indecomposable(4))
        assert form.contains(Indecomposable(5, L13 ** 2))
        assert not form.contains(Indecomposable(1, L12))

    def test_even_order_twist_pairs_rank_and_exponent_parity(self):
        form = closed_form_S(Indecomposable(2, L14))
        assert form.kind == "CYCLIC_RANK_PARITY"
        assert form.order == 4
        assert form.contains(Indecomposable(1))
        assert form.contains(Indecomposable(2, L14))
        assert form.contains(Indecomposable(3, L14 ** 2))
        assert form.contains(Indecomposable(4, L14 ** 3))
        assert not form.contains(Indecomposable(2))
        assert not form.contains(Indecomposable(1, L14))

    def test_every_even_rank_follows_the_twist_order(self):
        assert closed_form_S(Indecomposable(4, L13)).kind == "CYCLIC_ALL_RANKS"
        form = closed_form_S(Indecomposable(6, L12))
        assert form.kind == "CYCLIC_RANK_PARITY"
        assert form.contains(Indecomposable(7)) and form.contains(Indecomposable(2, L12))
        assert not form.contains(Indecomposable(6)) and not form.contains(Indecomposable(3, L12))

    def test_torsion_line_bundle_cycles_the_unit(self):
        form = closed_form_S(Indecomposable(1, L13))
        assert form.kind == "CYCLIC_UNIT"
        assert form.description() == "{E[1]*L^i : 0 <= i < 3} for L = L[1/3,0]"
        assert all(form.contains(Indecomposable(1, L13 ** i)) for i in range(3))
        assert not form.contains(Indecomposable(2)) and not form.contains(Indecomposable(1, L12))

    def test_odd_rank_with_torsion_twist_holds_odd_ranks_in_every_power(self):
        form = closed_form_S(Indecomposable(3, L14))
        assert form.kind == "CYCLIC_ODD_RANKS"
        assert form.description() == "{E[2k-1]*L^i : k >= 1, 0 <= i < 4} for L = L[1/4,0]"
        assert all(form.contains(Indecomposable(k, L14 ** i)) for k in (1, 3, 5) for i in range(4))
        assert not form.contains(Indecomposable(2)) and not form.contains(Indecomposable(4, L14))

    def test_unsupported_shapes(self):
        assert closed_form_S(Indecomposable(2, line_class(free={"g": 1}))) is None

    def test_refuses_a_twist_that_is_not_a_torsion_class(self):
        with pytest.raises(TypeError):
            ClosedForm(2, 2)
        with pytest.raises(ValueError):
            ClosedForm(2, line_class(free={"g": 1}))

    @pytest.mark.parametrize("rank", [0, -1, True])
    def test_refuses_a_rank_that_is_not_a_positive_int(self, rank):
        with pytest.raises(ValueError):
            ClosedForm(rank)

    def test_contains_solves_for_the_exponent_at_a_large_prime_order(self):
        p = 10**9 + 7
        twist = line_class(Fraction(3, p), Fraction(5, p))
        form = closed_form_S(Indecomposable(1, twist))
        assert form.order == p
        assert form.contains(Indecomposable(1, twist ** 123456))
        assert not form.contains(Indecomposable(1, line_class(Fraction(1, p))))

    def test_contains_matches_the_power_table_for_every_twist_of_order_at_most_12(self):
        coords = [(Fraction(a, d), Fraction(b, d)) for d in range(1, 13) for a in range(d) for b in range(d)]
        twists = {line_class(t1, t2) for t1, t2 in coords}
        units = [Indecomposable(1, other) for other in twists]
        for twist in twists:
            m = twist.order()
            powers = {twist ** i: i for i in range(m)}
            # A rank-1 generator holds exactly the powers of its twist ...
            form = closed_form_S(Indecomposable(1, twist))
            assert {ind.twist for ind in units if form.contains(ind)} == powers.keys(), twist
            # ... and a rank-2 one pairs each power's exponent with rank parity.
            form = closed_form_S(Indecomposable(2, twist))
            for power, i in powers.items():
                for k in (1, 2):
                    expected = any((k - 1 - n) % 2 == 0 for n in (i, i + m))
                    assert form.contains(Indecomposable(k, power)) == expected, (twist, k, i)

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
        assert label == TannakianLabel(False, 0, ())
        assert str(label) == "1"

    def test_torsion_line(self):
        label = tannakian_label(Indecomposable(1, line_class(Fraction(1, 6))))
        assert label == TannakianLabel(False, 0, (6,))
        assert str(label) == "mu_6"

    def test_free_line(self):
        label = tannakian_label(Indecomposable(1, line_class(free={"g": 2})))
        assert label == TannakianLabel(False, 1, ())
        assert str(label) == "Gm"

    def test_a_product_of_free_generators_generates_one_gm(self):
        # Tg*Th has infinite order, so it generates a copy of Z: one Gm.
        label = tannakian_label(Indecomposable(1, line_class(free={"g": 1, "h": 1})))
        assert label == TannakianLabel(False, 1, ())
        assert str(label) == "Gm"

    def test_unipotent_ranks_collapse(self):
        assert tannakian_label(Indecomposable(2)) == tannakian_label(Indecomposable(4))
        assert str(tannakian_label(Indecomposable(2))) == "Ga"

    def test_rank_two_torsion(self):
        label = tannakian_label(Indecomposable(2, line_class(Fraction(1, 5))))
        assert label == TannakianLabel(True, 0, (5,))
        assert str(label) == "Ga x mu_5"

    def test_rank_two_free(self):
        label = tannakian_label(Indecomposable(2, line_class(free={"g": 1})))
        assert str(label) == "Ga x Gm"

    def test_higher_rank_twisted_reduces_to_rank_two(self):
        # <E_r (x) L> = <E_2, L> for every r >= 2
        assert str(tannakian_label(Indecomposable(3, L13))) == "Ga x mu_3"
        assert str(tannakian_label(Indecomposable(4, line_class(free={"a": 1})))) == "Ga x Gm"
        for r in range(2, 7):
            for twist in (TRIVIAL, L12, L13, line_class(Fraction(1, 2), free={"h": -1})):
                assert tannakian_label(Indecomposable(r, twist)) == tannakian_label(
                    Indecomposable(2, twist)
                )

    def test_label_matches_finiteness(self):
        for rank in (1, 2, 3):
            for twist in (TRIVIAL, L12, L13, line_class(free={"g": 1}), line_class(L12.t1, free={"h": -1})):
                label = tannakian_label(Indecomposable(rank, twist))
                assert atiyah(rank, twist).is_finite == (not label.unipotent and not label.free_rank)
