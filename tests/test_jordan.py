from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, strategies as st

from ellbundle import (
    ModulusMismatchError,
    ProductObject,
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


entries = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


class TestExactRank:
    @given(
        st.integers(0, 6).flatmap(
            lambda cols: st.lists(
                st.one_of(
                    st.lists(entries, min_size=cols, max_size=cols),
                    st.just([0] * cols),
                ),
                max_size=7,
            )
        )
    )
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

    # Every form of the rule: the kernel, its two paths and their helpers
    # (twist pairs, piece count, limbs, packing), and the support form.
    names = ("_grouped_product", "_twist_table", "_pieces", "_limbs", "_loop_product", "_packed_product",
             "_pack", "_grouped_support", "tensor_rank_indices")
    assert all(hasattr(ellbundle.bundles, name) for name in names)
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
        for r in range(1, 7):
            for s in range(1, r + 1):
                assert jordan_tensor(r, s) == jordan_tensor(s, r)

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
        for r in range(1, 7):
            for s in range(1, 7):
                assert jordan_tensor(r, s) == dense_rank_profile(r, s), (r, s)


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

    def test_rejects_free_part(self):
        with pytest.raises(TransportError):
            phi_transport(atiyah(1, line_class(free={"g": 1})), 5)

    def test_rejects_second_coordinate(self):
        with pytest.raises(TransportError):
            phi_transport(atiyah(1, line_class(0, Fraction(1, 5))), 5)

    def test_rejects_incompatible_order(self):
        with pytest.raises(TransportError):
            phi_transport(atiyah(1, line_class(Fraction(1, 3))), 5)

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
