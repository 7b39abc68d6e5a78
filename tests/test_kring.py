import math
import operator
import sys
import threading
from fractions import Fraction
from itertools import count

import ellbundle.kring as kring
from ellbundle import _budget
from ellbundle._budget import BUDGET
from ellbundle.bundles import _mask_ranks

import pytest
from hypothesis import given, strategies as st

from ellbundle import (
    RING_ONE,
    RING_ZERO,
    TRIVIAL,
    ZERO,
    ClosedForm,
    Indecomposable,
    LineBundleClass,
    RingElement,
    TannakianLabel,
    atiyah,
    closed_form_S,
    krull_dim_class,
    line_class,
    parse_object,
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


def as_dict(x) -> dict:
    """A ring element as ``{(rank, twist): Fraction}``."""
    return {(ind.rank, ind.twist): coeff for ind, coeff in x.terms}


def reference_sum(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for key, coeff in g.items():
        out[key] = out.get(key, 0) + sign * coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def reference_product(f: dict, g: dict) -> dict:
    out: dict = {}
    for (r, s), a in f.items():
        for (q, t), b in g.items():
            for k in tensor_rank_indices(r, q):
                out[k, s * t] = out.get((k, s * t), 0) + a * b
    return {key: coeff for key, coeff in out.items() if coeff}


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

    @given(signed_ring_elements(), signed_ring_elements(), st.integers(-3, 3),
           st.fractions(-3, 3, max_denominator=6))
    def test_operations_agree_with_a_reference_on_fraction_dicts(self, x, y, n, c):
        f, g = as_dict(x), as_dict(y)
        scaled = {key: coeff * c for key, coeff in f.items() if c}
        results = {
            "+": (x + y, reference_sum(f, g)),
            "-": (x - y, reference_sum(f, g, -1)),
            "*": (x * y, reference_product(f, g)),
            "n*": (n * x, {key: coeff * n for key, coeff in f.items() if n}),
            "*n": (x * n, {key: coeff * n for key, coeff in f.items() if n}),
            "Fraction*": (c * x, scaled),
            "*Fraction": (x * c, scaled),
        }
        for op, (value, want) in results.items():
            assert as_dict(value) == want, op
            assert all(type(coeff) is Fraction for _, coeff in value.terms), op

    @given(signed_ring_elements(), signed_ring_elements(), bundle_objects(max_rank=3))
    def test_normal_forms_pass_the_public_constructor(self, a, b, obj):
        # (a + b) * (a - b) cancels a * b against b * a inside the kernel.
        cancelled = (a + b) * (a - b) - (a * a - b * b)
        assert cancelled == RING_ZERO
        for x in (a * b, b * a, a * RING_ZERO, RING_ZERO * b, (a + b) * (a - b), a + b, a - a,
                  cancelled, RingElement.of(a.terms + b.terms), RingElement.from_object(obj),
                  -a, a * Fraction(2, 3), Fraction(-1, 2) * a, a * 0):
            assert type(x)(x.terms) == x

    def test_terms_cancel_within_a_twist_group(self):
        line = basis(1, L12)
        assert (RING_ONE - line) * (RING_ONE + line) == RING_ZERO
        assert (basis(2) - line) * (basis(2) + line) == basis(3)

    def test_a_cancelled_twist_leaves_the_other_rank_maps_as_the_kernel_built_them(self, monkeypatch):
        built = []
        kernel = kring._grouped_product
        monkeypatch.setattr(kring, "_grouped_product", lambda l, r: built.append(kernel(l, r)) or built[-1])
        # (E1 + E1*L)(E2 - E2*L) = E2 - E2*L^2: the twist L cancels, the others do not.
        product = (basis(1) + basis(1, L13)) * (basis(2) - basis(2, L13))
        (out,) = built
        assert out[L13] == {2: 0} and L13 not in product._groups
        assert product._groups[TRIVIAL] is out[TRIVIAL] and product._groups[L13 * L13] is out[L13 * L13]
        assert product == basis(2) - basis(2, L13 * L13)

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

    def test_a_closure_past_the_mask_limit_is_refused(self):
        # E[r] at power 1 takes one step: one row entry, and r shifts of its
        # mask and the growth check's three operations on the 2r bits of
        # E[r] (x) E[r], so the budget fixes the largest rank mask that answers.
        def units(r):
            return 1100 + (r + 3) * (16 + 2 * r // 64)

        r = next(r for r in count(math.isqrt(32 * BUDGET), -1) if units(r) <= BUDGET)
        assert summand_closure(atiyah(r), 1).classes == {Indecomposable(r)}
        with pytest.raises(ValueError) as info:
            summand_closure(atiyah(r + 1), 1)
        assert str(info.value) == (
            f"query too large for its work budget ({units(r + 1)} units asked, {BUDGET} of {BUDGET} left)"
        )

    def test_a_closure_past_the_work_limit_is_refused(self):
        # E[1] + ... + E[k] is one twist whose ranks sum to k(k+1)/2, so its
        # first step makes one row entry and k(k+1)/2 shifts into 2k bits,
        # plus the growth check's three operations.  The closure draws from
        # what its caller's budget has left.
        def units(k):
            return 1100 + (k * (k + 1) // 2 + 3) * (16 + 2 * k // 64)

        @_budget.metered
        def closure(obj):  # the closure, with only units(k) of the budget left
            _budget.draw(BUDGET - units(k))
            return summand_closure(obj, 1)

        k = 40
        wide = parse_object("+".join(f"E[{r}]" for r in range(1, k + 1)))
        assert closure(wide).classes == {Indecomposable(r) for r in range(1, k + 1)}
        with pytest.raises(ValueError) as info:
            closure(wide + atiyah(k + 1))
        assert str(info.value) == (
            f"query too large for its work budget ({units(k + 1)} units asked, {units(k)} of {BUDGET} left)"
        )

    def test_a_wide_generator_is_refused_at_its_first_step(self):
        # 676 free twists make 676 * 676 new row entries at 1100 units, more
        # than the whole budget before any shift: the step is refused before
        # it runs.  Per step twist, 679 shifts and checks on 1-word masks.
        wide = parse_object("+".join(f"Ta{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(676)))
        assert 676 * 676 * 1100 > BUDGET
        with pytest.raises(ValueError) as info:
            summand_closure(wide, 1)
        units = 676 * 676 * 1100 + 676 * 679 * 16
        assert str(info.value) == f"query too large for its work budget ({units} units asked, {BUDGET} of {BUDGET} left)"

    def test_each_thread_has_a_budget_of_its_own(self):
        # Each closure draws about r * r / 32 units, over half the budget, so
        # no two that shared one could both answer.  Three threads, more than
        # a two-core machine has cores, switching often.
        r = math.isqrt(18 * BUDGET)

        @_budget.metered
        def closure():  # records the closure and the units it drew
            value = summand_closure(atiyah(r), 1)
            results.append((value, BUDGET - _budget._left[threading.get_ident()]))

        results = []
        threads = [threading.Thread(target=closure) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [(c.classes, 2 * units > BUDGET) for c, units in results] == [({Indecomposable(r)}, True)] * 3

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

    @given(bundle_objects(max_rank=8, max_summands=3), st.integers(1, 6))
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

        def spy(left, right, rows):
            sizes.append(sum(bin(mask).count("1") for mask in left.values()))
            return kernel(left, right, rows)

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

    def test_tall_closure_follows_the_rank_rule(self):
        # The ranks of E_(r_1) (x) ... (x) E_(r_n) are the k = S + 1 (mod 2)
        # with max(2M - S, 0) + 1 <= k <= S + 1, for S = sum(r_i - 1) and
        # M = max(r_i - 1).  The support kernel's shifts run to j = 1999.
        expected = {
            Indecomposable(k)
            for n in (1, 2, 3)
            for s in [1999 * n]
            for k in range(max(2 * 1999 - s, 0) + 1, s + 2)
            if k % 2 != s % 2
        }
        assert len(expected) == 4999  # the odd ranks 1-3999 and the even ranks 2-5998
        closure = summand_closure(atiyah(2000), 3)
        assert (closure.classes, closure.stabilized) == (expected, False)

    def test_zero_object(self):
        closure = summand_closure(ZERO, 3)
        assert closure.classes == frozenset()
        assert closure.stabilized

    @pytest.mark.parametrize(
        "text, max_power, products, classes",
        [
            # 30 twists reach the left operand, each multiplied by the 2 generator twists once
            ("E[3]*L[1/6,0] + E[2]*L[0,1/5]", 32, 60, 1680),
            ("E[4]*L[1/5,0]", 28, 5, 360),
            # a free twist gives a new left twist at every power
            ("E[5]*Ta", 24, 24, 622),
        ],
    )
    def test_each_twist_pair_is_multiplied_once(self, monkeypatch, text, max_power, products, classes):
        obj = parse_object(text)
        calls = []
        mul = LineBundleClass.__mul__

        def spy(s, t):
            calls.append((s, t))
            return mul(s, t)

        monkeypatch.setattr(LineBundleClass, "__mul__", spy)
        closure = summand_closure(obj, max_power)
        assert len(set(calls)) == len(calls) == products
        assert (len(closure.classes), closure.stabilized) == (classes, False)

    def test_a_reused_row_draws_less_than_a_new_one(self, monkeypatch):
        # Ta+Tb+E[2] to power 40: 12,340 step twists of three row entries
        # each, 2,583 of them in new rows at 1100 units and 34,437 in rows
        # reused from an earlier power at 400, plus 1,430,275 units for the
        # four shifts and the growth check's three operations per step twist.
        drawn = []
        monkeypatch.setattr(kring, "draw", lambda units: drawn.append(units) or _budget.draw(units))
        summand_closure(parse_object("Ta+Tb+E[2]"), 40)
        assert (len(drawn), sum(drawn)) == (40, 2583 * 1100 + 34437 * 400 + 1430275)

    def test_max_power_validation(self):
        with pytest.raises(ValueError):
            summand_closure(atiyah(1), 0)

    def test_refuses_a_ring_element(self):
        # Read as an object, -[E2] would give the ranks 1-4 of E[2]'s closure.
        with pytest.raises(TypeError, match="^expected BundleObject, not RingElement$"):
            summand_closure(-basis(2), 3)

    @given(bundle_objects(max_rank=8, max_summands=3), st.integers(1, 4))
    def test_built_classes_equal_checked_ones_class_by_class(self, obj, max_power):
        # The C-level builder behind closures, classes() and summands gives
        # what the checked constructor gives from the same rank masks.
        for classes in (summand_closure(obj, max_power).classes, obj.classes(), [ind for ind, _ in obj.summands]):
            masks = {}
            for ind in classes:
                masks[ind.twist] = masks.get(ind.twist, 0) | 1 << ind.rank
            checked = [Indecomposable(rank, twist) for twist, mask in masks.items() for rank in _mask_ranks(mask)]
            assert len(checked) == len(classes)
            key = Indecomposable.sort_key
            for built, ref in zip(sorted(classes, key=key), sorted(checked, key=key), strict=True):
                assert type(built) is Indecomposable and built == ref and hash(built) == hash(ref)
                assert (built.rank, built.twist) == tuple(built) == tuple(ref) and repr(built) == repr(ref)

    @pytest.mark.parametrize("max_power", [True, 2.5, "3", None])
    def test_max_power_must_be_an_int(self, max_power):
        with pytest.raises(TypeError, match="max_power"):
            summand_closure(atiyah(2), max_power)


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

    def test_refuses_a_plain_pair(self):
        # A (rank, twist) tuple indexes like an indecomposable but is none.
        with pytest.raises(TypeError, match="^expected Indecomposable, not tuple$"):
            closed_form_S((2, L13))

    def test_contains_refuses_a_plain_pair(self):
        with pytest.raises(TypeError, match="^expected Indecomposable, not tuple$"):
            ClosedForm(2, L13).contains((2, L13))

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

    def test_refuses_a_ring_element(self):
        with pytest.raises(TypeError, match="^expected BundleObject, not RingElement$"):
            krull_dim_class(basis(1, L12) * Fraction(1, 2))


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

    def test_refuses_a_plain_pair(self):
        with pytest.raises(TypeError, match="^expected Indecomposable, not tuple$"):
            tannakian_label((2, L13))

    def test_label_matches_finiteness(self):
        for rank in (1, 2, 3):
            for twist in (TRIVIAL, L12, L13, line_class(free={"g": 1}), line_class(L12.t1, free={"h": -1})):
                label = tannakian_label(Indecomposable(rank, twist))
                assert atiyah(rank, twist).is_finite == (not label.unipotent and not label.free_rank)
