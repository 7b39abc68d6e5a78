import inspect
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

import ellbundle.jordan

from ellbundle import (
    BundleObject,
    Indecomposable,
    ModulusMismatchError,
    ProductObject,
    RingElement,
    TransportError,
    UNIT,
    atiyah,
    exact_rank,
    jordan_tensor,
    line_class,
    phi_transport,
    product_tensor,
)


def fraction_rank(rows):
    """Rank by textbook Gaussian elimination over Fraction."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = Fraction(work[i][col]) / top[col]
                work[i] = [x - f * y for x, y in zip(work[i], top)]
        rank += 1
    return rank


def dense_nilpotent(r, s):
    """T = J_r (x) J_s - I as a dense Kronecker product, row i = (i // s, i % s)."""

    def block(n):
        return [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]

    a, b, n = block(r), block(s), r * s
    return [
        [a[i // s][j // s] * b[i % s][j % s] - (i == j) for j in range(n)]
        for i in range(n)
    ]


def dense_nilpotent_sum(r, s):
    """N_r (x) I + I (x) N_s as dense Kronecker products, on the basis of dense_nilpotent."""

    def kronecker(a, b):
        m, n = len(b), len(a) * len(b)
        return [[a[i // m][j // m] * b[i % m][j % m] for j in range(n)] for i in range(n)]

    def nilpotent(n):
        return [[int(j == i + 1) for j in range(n)] for i in range(n)]

    def identity(n):
        return [[int(j == i) for j in range(n)] for i in range(n)]

    left, right = kronecker(nilpotent(r), identity(s)), kronecker(identity(r), nilpotent(s))
    return [[x + y for x, y in zip(u, v)] for u, v in zip(left, right)]


def rank_profile(t):
    """Jordan type of a dense nilpotent matrix from the ranks of its powers."""
    t_columns = list(zip(*t))
    ranks, power = [len(t)], t
    while ranks[-1]:
        ranks.append(fraction_rank(power))
        power = [[sum(map(mul, row, col)) for col in t_columns] for row in power]
    # ranks[k-1] - ranks[k] blocks have size at least k
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return tuple(sum(1 for d in at_least if d > i) for i in range(at_least[0]))


def dense_rank_profile(r, s):
    """Jordan type of J_r (x) J_s from ranks of powers of the dense Kronecker T."""
    return rank_profile(dense_nilpotent(r, s))


def stepwise_jordan_type(r, s):
    """Jordan type of N_r (x) 1 + 1 (x) N_s by the per-degree images, every
    degree lowered at every step and the vector of pivot d+1 always reduced."""
    r, s = min(r, s), max(r, s)
    image = [
        {j: [0] * j + [1] for j in range(max(0, d - s + 1), min(r, d + 1))}
        for d in range(r + s - 1)
    ]
    ranks = [r * s]
    while ranks[-1]:
        image, upper = [], image
        for d, basis in enumerate(upper[1:]):
            lowered = {p: list(map(add, x, x[1:] + [0])) for p, x in basis.items()}
            vec = lowered.pop(d + 1, None)
            if vec is not None:
                ellbundle.jordan._reduce(lowered, vec[:-1])
            image.append(lowered)
        ranks.append(sum(map(len, image)))
    ranks.append(0)
    parts = [k for k in range(1, len(ranks) - 1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]
    return tuple(sorted(parts, reverse=True))


def entries(bound):
    return st.integers(-bound, bound) | st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


@st.composite
def matrices(draw):
    """Up to 10 columns of small or large entries, and rows that are integer
    combinations of earlier rows, so that large rows are also spanned."""
    cols = draw(st.integers(0, 10))
    row = st.lists(entries(6) | entries(10**4), min_size=cols, max_size=cols)
    rows = draw(st.lists(row | st.just([0] * cols), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        rows.append([a * x + b * y for x, y in zip(u, v)])
    return draw(st.permutations(rows))


class TestExactRank:
    @given(matrices())
    def test_matches_fraction_elimination(self, rows):
        assert exact_rank(rows) == fraction_rank(rows)

    def test_identity(self):
        assert exact_rank([[1, 0], [0, 1]]) == 2

    def test_zero(self):
        assert exact_rank([[0, 0], [0, 0]]) == 0
        assert exact_rank([]) == 0

    def test_dependent_rows(self):
        assert exact_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2

    def test_fraction_entries(self):
        assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]) == 2
        # second row is 3 x first row and 1/2 x first row respectively
        assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
        assert exact_rank([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]) == 1

    def test_tall_matrix(self):
        assert exact_rank([[1], [2], [3]]) == 1

    @pytest.mark.parametrize(
        "rows, name",
        [
            ([[0.5, 0], [0, 0.5]], "float"),
            ([[1, 0], [0, True]], "bool"),
            ([[1, None]], "NoneType"),
            ([[Fraction(1, 2), "1"]], "str"),
        ],
    )
    def test_refuses_entries_that_are_not_int_or_fraction(self, rows, name):
        # int(0.5 * 1) would read the float matrix above as rank 0.
        with pytest.raises(TypeError, match=f"matrix entries must be int or Fraction, not {name}$"):
            exact_rank(rows)


def test_oracle_does_not_call_the_clebsch_gordan_rule(monkeypatch):
    import ellbundle.bundles
    import ellbundle.jordan

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the rule it checks")

    # Every function the kernel's module defines, found when the test runs,
    # so a helper added to the rule later is refused too.
    names = [name for name, value in vars(ellbundle.bundles).items()
             if inspect.isfunction(value) and value.__module__ == ellbundle.bundles.__name__]
    assert {"_grouped_product", "_grouped_support", "tensor_rank_indices"} <= set(names)
    for module in (ellbundle.bundles, ellbundle.jordan):
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)
    jordan_tensor.cache_clear()
    assert jordan_tensor(4, 3) == (6, 4, 2)
    a = ProductObject.of(5, [(1, 2), (3, 3)])
    b = ProductObject.of(5, [(4, 2)])
    expected = ProductObject.of(5, [(0, 3), (0, 1), (2, 4), (2, 2)])
    assert product_tensor(a, b) == expected


class TestJordanTensor:
    def test_two_by_two(self):
        # frozen from the rank oracle; equals the classical split 4 = 3 + 1
        assert jordan_tensor(2, 2) == (3, 1)

    def test_three_by_two(self):
        assert jordan_tensor(3, 2) == (4, 2)

    def test_unit_block(self):
        for n in range(1, 8):
            assert jordan_tensor(1, n) == (n,)

    def test_symmetry(self):
        # Each orientation from a cold cache, so neither reads the other's entry.
        for r in range(1, 13):
            for s in range(1, min(r, 6)):
                jordan_tensor.cache_clear()
                wide = jordan_tensor(r, s)
                jordan_tensor.cache_clear()
                assert jordan_tensor(s, r) == wide, (r, s)

    def test_cache_holds_both_orientations_and_nothing_else(self):
        # The oracle bench clears this cache before every query to stand for a
        # cold process, and its tracer counts hits through cache_info().
        import ellbundle.jordan

        caches = [name for name, value in vars(ellbundle.jordan).items() if hasattr(value, "cache_info")]
        assert caches == ["jordan_tensor"]
        jordan_tensor.cache_clear()
        assert jordan_tensor(5, 3) == (7, 5, 3)
        info = jordan_tensor.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 0)
        assert jordan_tensor(5, 3) == jordan_tensor(3, 5) == (7, 5, 3)
        info = jordan_tensor.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
        jordan_tensor(5, 1)
        for args in [(True, 5), (5, True), (1, 5.0), (5.0, 1)]:
            with pytest.raises(TypeError):
                jordan_tensor(*args)
        jordan_tensor.cache_clear()
        assert jordan_tensor(3, 5) == (7, 5, 3)
        info = jordan_tensor.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 0)

    def test_partition_shape(self):
        for r in range(1, 6):
            for s in range(1, 6):
                parts = jordan_tensor(r, s)
                assert sum(parts) == r * s
                assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))
                assert all(p >= 1 for p in parts)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            jordan_tensor(0, 3)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("args", [(2.0, 3), (2, 3.0), (True, 3), (3, False), ("2", 3)])
    def test_non_int_sizes_rejected_on_every_call(self, warm, args):
        jordan_tensor.cache_clear()
        if warm:
            jordan_tensor(2, 3), jordan_tensor(1, 3), jordan_tensor(3, 1)
        with pytest.raises(TypeError):
            jordan_tensor(*args)

    def test_nilpotent_sum_has_the_rank_profile_of_the_kronecker_product(self):
        # jordan_tensor iterates N_r (x) I + I (x) N_s in place of
        # J_r (x) J_s - I; its docstring proves that both share a Jordan type.
        for r in range(1, 7):
            for s in range(1, 7):
                assert rank_profile(dense_nilpotent_sum(r, s)) == dense_rank_profile(r, s), (r, s)

    def test_matches_dense_kronecker_rank_profile(self):
        for r in range(1, 8):
            for s in range(1, 8):
                assert jordan_tensor(r, s) == dense_rank_profile(r, s), (r, s)

    def test_matches_the_stepwise_images(self):
        # The walk skips the vector work of pivot-keeping prefixes, writing
        # their last basis as binomial rows, and copies the ranks of a
        # diagonal that reaches a full degree; the answer is that of lowering
        # every degree at every step and reducing every popped vector.  Tall
        # pairs hand whole diagonals over after their prefixes.
        tall = [(r, s) for r in range(1, 5) for s in (21, 22, 63, 64, 149, 150)]
        for r, s in [(r, s) for r in range(1, 21) for s in range(r, 21)] + tall:
            expected = stepwise_jordan_type(r, s)
            for args in [(r, s), (s, r)]:
                jordan_tensor.cache_clear()
                assert jordan_tensor(*args) == expected, args

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 60))
    def test_matches_the_stepwise_images_on_random_pairs(self, r, s):
        jordan_tensor.cache_clear()
        assert jordan_tensor(r, s) == stepwise_jordan_type(r, s)

    @pytest.mark.parametrize("r, s, calls", [(12, 12, 66), (8, 200, 28), (30, 30, 435)])
    def test_full_degrees_are_not_reduced(self, monkeypatch, r, s, calls):
        # Reducing the popped vector in every degree, full or not, makes 187,
        # 1,421 and 1,276 calls.
        reduce, count = ellbundle.jordan._reduce, []

        def counting(basis, vec):
            count.append(1)
            reduce(basis, vec)

        monkeypatch.setattr(ellbundle.jordan, "_reduce", counting)
        jordan_tensor.cache_clear()
        jordan_tensor(r, s)
        assert len(count) == calls

    def test_a_tall_pair_keeps_rank_lists_only_below_the_short_side(self):
        # Only the diagonals e < r keep their rank lists; keeping the whole
        # list of each of the 3,901 diagonals of (2, 3900) traces about 61 MB.
        jordan_tensor.cache_clear()
        tracemalloc.start()
        try:
            assert jordan_tensor(2, 3900) == (3901, 3899)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestProductObject:
    def test_canonicalisation(self):
        a = ProductObject.of(5, {(7, 2): 1, (1, 1): 2})
        assert a.components == (((1, 1), 2), ((2, 2), 1))
        assert a.dim() == 4

    def test_str(self):
        a = ProductObject.of(5, {(0, 3): 1, (1, 2): 2})
        assert str(a) == "mod 5: (0,3) + 2*(1,2)"
        assert str(ProductObject.of(3)) == "mod 3: 0"

    def test_character_addition_with_unit_block(self):
        a = ProductObject.of(5, [(1, 2)])
        b = ProductObject.of(5, [(2, 1)])
        assert product_tensor(a, b) == ProductObject.of(5, [(3, 2)])

    def test_block_two_squared(self):
        a = ProductObject.of(5, [(0, 2)])
        assert product_tensor(a, a) == ProductObject.of(5, [(0, 3), (0, 1)])

    def test_characters_add_mod_two(self):
        a = ProductObject.of(2, [(1, 2)])
        b = ProductObject.of(2, [(1, 3)])
        assert product_tensor(a, b) == ProductObject.of(2, [(0, 2), (0, 4)])

    def test_modulus_mismatch(self):
        a = ProductObject.of(2, [(0, 1)])
        b = ProductObject.of(3, [(0, 1)])
        with pytest.raises(ModulusMismatchError):
            product_tensor(a, b)

    @given(
        st.integers(2, 5),
        st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=3),
    )
    def test_dimension_multiplicative(self, m, xs, ys):
        a = ProductObject.of(m, [(c % m, b) for c, b in xs])
        b = ProductObject.of(m, [(c % m, r) for c, r in ys])
        assert product_tensor(a, b).dim() == a.dim() * b.dim()


    @pytest.mark.parametrize(
        "modulus, items",
        [
            (5, [(0, 2.0)]),
            (5, [(1, True)]),
            (5, [(True, 1)]),
            (5, {(0, 1): 1.5}),
            (5, {(0, 1): True}),
            (True, [(0, 1)]),
            (5.0, [(0, 1)]),
            (0, [(0, 1)]),
        ],
    )
    def test_of_rejects_non_int_values(self, modulus, items):
        with pytest.raises(ValueError):
            ProductObject.of(modulus, items)

    @pytest.mark.parametrize(
        "modulus, components",
        [
            (True, ()),
            (5.0, ()),
            (5, (((0, 2.0), 1),)),
            (5, (((0, True), 1),)),
            (5, (((True, 2), 1),)),
            (5, (((0.0, 2), 1),)),
            (5, (((0, 2), 1.5),)),
            (5, (((0, 2), True),)),
        ],
    )
    def test_constructor_rejects_non_int_values(self, modulus, components):
        with pytest.raises(ValueError):
            ProductObject(modulus, components)


@st.composite
def cyclic_objects(draw, modulus):
    """A bundle object of summands E_r (x) L[c/m, 0] and its (c mod m, r) counts;
    the zero object included."""
    items = draw(st.lists(st.tuples(st.integers(0, 2 * modulus), st.integers(1, 5), st.integers(1, 3)), max_size=4))
    counts = Counter()
    for char, rank, mult in items:
        counts[(char % modulus, rank)] += mult
    obj = BundleObject.of([(Indecomposable(rank, line_class(Fraction(char, modulus))), mult)
                           for char, rank, mult in items])
    return obj, counts


@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), cyclic_objects(m), cyclic_objects(m))))
def test_oracle_values_equal_those_built_from_their_counts(drawn):
    # phi_transport and product_tensor build their values without the
    # constructor's checks; the checked ProductObject.of of the same counts
    # must give the same value.
    m, (a, a_counts), (b, b_counts) = drawn
    pa, pb = phi_transport(a, m), phi_transport(b, m)
    assert pa == ProductObject.of(m, a_counts) and pb == ProductObject.of(m, b_counts)
    counts = Counter()
    for (ca, ra), ma in a_counts.items():
        for (cb, rb), mb in b_counts.items():
            for part in jordan_tensor(ra, rb):
                counts[((ca + cb) % m, part)] += ma * mb
    product = product_tensor(pa, pb)
    assert product == ProductObject.of(m, counts)
    assert ProductObject(m, product.components) == product


class TestPhiTransport:
    def test_dictionary_on_generator(self):
        obj = atiyah(2, line_class(Fraction(1, 5)))
        assert phi_transport(obj, 5) == ProductObject.of(5, [(1, 2)])

    def test_unit_to_unit(self):
        for m in (1, 2, 5):
            assert phi_transport(UNIT, m) == ProductObject.of(m, [(0, 1)])

    def test_componentwise(self):
        obj = atiyah(3, line_class(Fraction(2, 5))) + atiyah(1)
        assert phi_transport(obj, 5) == ProductObject.of(5, [(2, 3), (0, 1)])

    def test_order_dividing_modulus(self):
        obj = atiyah(1, line_class(Fraction(1, 2)))
        assert phi_transport(obj, 4) == ProductObject.of(4, [(2, 1)])

    @pytest.mark.parametrize("modulus", [True, 2.0, Fraction(2), 0])
    def test_rejects_non_int_modulus(self, modulus):
        with pytest.raises(ValueError, match="modulus must be a positive integer"):
            phi_transport(UNIT, modulus)

    def test_rejects_a_ring_element(self):
        # Read as an object, 1/2 [E1] would transport to (0,1) mod 1.
        with pytest.raises(TypeError, match="^expected BundleObject, not RingElement$"):
            phi_transport(RingElement.from_object(UNIT) * Fraction(1, 2), 1)

    def test_rejects_free_part(self):
        with pytest.raises(TransportError):
            phi_transport(atiyah(1, line_class(free={"g": 1})), 5)

    def test_rejects_second_coordinate(self):
        with pytest.raises(TransportError):
            phi_transport(atiyah(1, line_class(0, Fraction(1, 5))), 5)

    def test_rejects_incompatible_order(self):
        with pytest.raises(TransportError):
            phi_transport(atiyah(1, line_class(Fraction(1, 3))), 5)

    def test_error_names_the_first_failing_summand(self):
        # The sum's order is not that of its sorted summands E[1]*Tg,
        # E[1]*L[0,1/5], E[2]*L[1/3,0]; the first of those names the error.
        obj = atiyah(2, line_class(Fraction(1, 3))) + atiyah(1, line_class(0, Fraction(1, 5)))
        obj = obj + atiyah(1, line_class(free={"g": 1}))
        with pytest.raises(TransportError, match=r"^twist Tg lies outside the cyclic subgroup of order 5$"):
            phi_transport(obj, 5)

    def test_functorial_on_small_sweep(self):
        for m in (2, 3):
            for r in range(1, 4):
                for s in range(1, 4):
                    for i in range(m):
                        for j in range(m):
                            a = atiyah(r, line_class(Fraction(i, m)))
                            b = atiyah(s, line_class(Fraction(j, m)))
                            assert phi_transport(a * b, m) == product_tensor(
                                phi_transport(a, m), phi_transport(b, m)
                            )
