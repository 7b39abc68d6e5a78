import json
import operator
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ellbundle.expr as expr

from ellbundle import (
    UNIT,
    ZERO,
    BundleObject,
    ExprValidationError,
    Indecomposable,
    ParseError,
    atiyah,
    evaluate,
    line_class,
    parse,
    parse_object,
    print_canonical,
)

from _strategies import bundle_objects

L13 = line_class(Fraction(1, 3))

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"


def expression_texts():
    """Small expression texts with sums, products, duals, counts and groups."""
    atoms = st.sampled_from(["E[1]", "E[2]", "E[3]", "O", "Z", "Ta", "~Tb", "L[1/3,0]", "L[1/2,1/4]^2"])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(" + ".join),
            st.lists(inner, min_size=2, max_size=2).map("*".join),
            inner.map("({})".format),
            inner.map("~({})".format),
            inner.map("2*({})".format),
        ),
        max_leaves=5,
    )


class _Unshared(dict):
    """A node table that never matches, so each subtree keeps its own node."""

    def setdefault(self, key, node):
        return node


def unshared_parse(text):
    """The tree of ``parse`` with no node shared between equal subtrees."""
    parser = expr._Parser(text)
    parser.nodes = _Unshared()
    return parser.parse()


class TestParseTrees:
    def test_sum_of_tensor_and_multiplicity(self):
        tree = parse("E[2]*L[1/3,0] + 2*E[1]")
        assert tree == ("+", ("*", ("E", 2), ("L", L13)), ("n*", 2, ("E", 1)))

    def test_dual_of_parenthesised_tensor(self):
        tree = parse("~(E[3]*L[1/3,0])")
        assert tree == ("~", ("*", ("E", 3), ("L", L13)))

    def test_power_and_generator(self):
        assert parse("Tg^3") == ("^", ("T", "g"), 3)

    def test_power_of_parenthesised_expression(self):
        assert parse("(E[2] + O)^3") == ("^", ("+", ("E", 2), ("E", 1)), 3)

    def test_dual_of_parenthesised_power(self):
        tree = parse("~(E[2]*Ta)^2")
        assert tree == ("~", ("^", ("*", ("E", 2), ("T", "a")), 2))

    def test_left_associativity(self):
        tree = parse("E[1] + E[2] + E[3]")
        assert tree == ("+", ("E", 1), ("E", 2), ("E", 3))

    def test_mixed_chain(self):
        tree = parse("E[1] + E[2]*E[3]*E[4] + O")
        assert tree == ("+", ("E", 1), ("*", ("E", 2), ("E", 3), ("E", 4)), ("E", 1))

    def test_parenthesised_chain_is_not_flattened(self):
        tree = parse("(E[1]+E[2])+E[3]")
        assert tree == ("+", ("+", ("E", 1), ("E", 2)), ("E", 3))

    def test_single_operand_is_bare(self):
        assert parse("((E[2]))") == ("E", 2)
        assert parse("O") == ("E", 1)
        assert parse("Z") == ("Z",)

    def test_equal_groups_share_one_node(self):
        tree = parse("(E[2] + Ta)*(E[2] + Ta)*(E[2]+Ta)*((E[2] + Ta))")
        assert tree[1] is tree[2] is tree[3] is tree[4]
        assert tree == ("*",) + (("+", ("E", 2), ("T", "a")),) * 4
        tree = parse("((E[2]+O)*Ta + O)*((E[2]+O)*Ta + O) + (E[2]+O)")
        assert tree[1][1] is tree[1][2] and tree[1][1][1][1] is tree[2]
        tree = parse("O + E[1] + E[2]^40*E[2]^40")
        assert tree[1] is tree[2] and tree[3][1] is tree[3][2]
        # An L atom holds its class, so coordinates equal mod 1 are one node.
        tree = parse("L[2/4,0] + L[1/2,0/3] + L[1/2,-0]^2 + L[0,1/2] + L[3/2,1] + L[-1/2,0]")
        assert tree[1] is tree[2] is tree[3][1] is tree[5] is tree[6] and tree[4] is not tree[1]
        assert tree[1] == ("L", line_class(Fraction(1, 2))) and tree[4] == ("L", line_class(0, Fraction(1, 2)))
        assert tree[1][1] is line_class(Fraction(1, 2))

    def test_the_tree_is_the_unshared_tree_on_every_corpus_text(self):
        def tree_or_error(read, text):
            try:
                return read(text)
            except ParseError as error:
                return type(error), str(error)

        texts = {arg for record in json.loads(CORPUS.read_text()) for arg in record["argv"][1:]}
        trees = {text: tree_or_error(unshared_parse, text) for text in texts}
        assert all(type(trees[text][0]) is str for text in texts if "(" in text)  # the groups parse
        assert {text: tree_or_error(parse, text) for text in texts} == trees

    def test_unknown_head_is_refused(self):
        with pytest.raises(TypeError):
            evaluate(("Q", 1))


class TestParseErrors:
    def test_zero_rank_is_validation_error(self):
        with pytest.raises(ExprValidationError) as info:
            parse("E[0]")
        assert info.value.offset == 2

    def test_zero_denominator(self):
        with pytest.raises(ExprValidationError):
            parse("L[1/0,0]")

    @pytest.mark.parametrize("text", ["E[" + "9" * 5000 + "]", "L[" + "9" * 5000 + "/3,0]"])
    def test_too_long_integer_literal(self, text):
        with pytest.raises(ExprValidationError) as info:
            parse(text)
        assert info.value.offset == 2

    @pytest.mark.parametrize("text, name, offset", [("T1", "1", 1), ("E[2] * T9a", "9a", 8)])
    def test_generator_name_starting_with_a_digit(self, text, name, offset):
        with pytest.raises(ExprValidationError) as info:
            parse(text)
        assert str(info.value) == f"invalid generator name {name!r} at offset {offset}"

    def test_syntax_error_carries_offset_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse("E[2] +")
        assert not isinstance(info.value, ExprValidationError)
        assert info.value.offset == 6
        assert info.value.expected

    def test_unknown_word(self):
        with pytest.raises(ParseError) as info:
            parse("E[2] * Q")
        assert info.value.offset == 7

    def test_bare_t(self):
        with pytest.raises(ParseError):
            parse("T")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("E[2] E[3]")

    def test_negative_power_rejected(self):
        with pytest.raises(ParseError):
            parse("E[2]^-1")

    @pytest.mark.parametrize(
        "text, offset",
        [("E[²]", 2), ("E[٣]", 2), ("E[3٣]", 3), ("Tä", 1), ("Tgä", 2), ("Eä", 1)],
    )
    def test_non_ascii_digits_and_letters_rejected(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert not isinstance(info.value, ExprValidationError)
        assert info.value.offset == offset


class TestEvaluation:
    def test_precedence_tensor_over_sum(self):
        obj = parse_object("E[2]*L[1/3,0] + 2*E[1]")
        assert obj == atiyah(2, L13) + 2 * UNIT

    def test_dual_binds_tighter_than_tensor(self):
        # ~Tg*Th is (dual Tg) (x) Th, not the dual of the product
        assert parse_object("~Tg*Th") == atiyah(1, line_class(free={"g": -1, "h": 1}))

    def test_power_semantics(self):
        assert parse_object("E[2]^0") == UNIT
        assert parse_object("E[2]^2") == parse_object("E[1] + E[3]")
        assert parse_object("Z^0") == UNIT
        assert parse_object("Z^3") == parse_object("(0*E[2])^1") == ZERO

    def test_power_of_a_sum(self):
        big = "(E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)"
        assert parse_object(big + "^6") == parse_object("*".join([big] * 6))
        assert parse_object("(E[2] + O)^0") == UNIT
        assert parse_object("~(E[2]*Ta)^2") == parse_object("(E[2]*Ta)^2").dual()
        assert parse_object("~(E[2]*Ta)^2") != parse_object("(E[2]*Ta)^2")

    def test_evaluate_builds_classes_only_when_the_summands_are_read(self, monkeypatch):
        # Every node keeps the twist-grouped map; the 105 classes of big^6
        # are built once, for the one read of the sorted summands.
        built = []
        trusted = Indecomposable._trusted

        def counted(cls, rank, twist):
            built.append(rank)
            return trusted(rank, twist)

        monkeypatch.setattr(Indecomposable, "_trusted", classmethod(counted))
        obj = parse_object("(E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)^6")
        assert built == []
        assert len(obj.summands) == 105 and obj.summands is obj.summands
        assert len(built) == 105

    def test_power_chain_starts_from_its_base(self, monkeypatch):
        import ellbundle.bundles

        base = "(E[2] + 2*Tg)"  # a sum: evaluating it runs no product
        cube, x = 2 * atiyah(2) + atiyah(4), parse_object(base)
        calls = []
        kernel = ellbundle.bundles._grouped_product

        def spy(left, right):
            calls.append(1)
            return kernel(left, right)

        monkeypatch.setattr(ellbundle.bundles, "_grouped_product", spy)
        assert parse_object("E[2]^3") == cube and len(calls) == 2
        assert parse_object(f"{base}^0") == UNIT
        assert parse_object(f"{base}^1") == x and len(calls) == 2

    def test_a_repeated_group_is_evaluated_once(self, monkeypatch):
        # The group's own product runs once, then the cube's two products.
        import ellbundle.bundles

        calls = []
        kernel = ellbundle.bundles._grouped_product
        monkeypatch.setattr(ellbundle.bundles, "_grouped_product", lambda l, r: calls.append(1) or kernel(l, r))
        group = "(E[2]*L[1/3,0] + Ta)"
        cube = parse_object(f"{group}*{group}*{group}")
        assert len(calls) == 3
        assert cube == parse_object(f"{group}^3")
        calls.clear()
        sums = []
        total = BundleObject._sum
        monkeypatch.setattr(BundleObject, "_sum", lambda args: sums.append(1) or total(args))
        cube = parse_object("(E[2] + Ta)*(E[2]+Ta)*((E[2] + Ta))")
        assert (len(sums), len(calls)) == (1, 2)
        assert cube == parse_object("(E[2] + Ta)^3")

    def test_a_repeated_power_is_evaluated_once(self, monkeypatch):
        # E[2]^40 is a chain of 39 products; the shared power adds one more.
        import ellbundle.bundles

        calls = []
        kernel = ellbundle.bundles._grouped_product
        monkeypatch.setattr(ellbundle.bundles, "_grouped_product", lambda l, r: calls.append(1) or kernel(l, r))
        for text in ["(E[2]^40)*(E[2]^40)", "E[2]^40*E[2]^40"]:
            calls.clear()
            square = parse_object(text)
            assert len(calls) == 40, text
            assert square == parse_object("E[2]^80"), text

    @settings(max_examples=60, deadline=None)
    @given(expression_texts(), st.integers(1, 4))
    def test_repeated_factors_are_the_power_and_the_product(self, text, power):
        group = f"({text})"
        factors = [parse_object(text) for _ in range(power)]
        chain = parse_object("*".join([group] * power))
        assert chain == parse_object(f"{group}^{power}") == reduce(operator.mul, factors)

    def test_power_of_one_rank_one_class_matches_the_product_chain(self):
        for base in ["O", "L[1/6,1/4]", "(3*L[-1/3,0])", "(2*Ta*L[1/2,0])", "~Tg"]:
            for power in range(5):
                chain = "*".join([base] * power) if power else "O"
                assert parse_object(f"{base}^{power}") == parse_object(chain), (base, power)
        assert parse_object("Tg^1000001") == atiyah(1, line_class(free={"g": 1000001}))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text limit")
    def test_unprintable_power_of_one_rank_one_class_is_refused(self):
        # Refused once (bit_length(c) - 1) * n > 4 * limit, so a refused c^n
        # has more digits than the limit; a limit of 0 refuses nothing.
        limit = sys.get_int_max_str_digits()
        message = f"result has more than {limit} digits \\(int-to-text limit {limit}\\)"
        with pytest.raises(ValueError, match=message):
            parse_object(f"(2*Tg)^{4 * limit + 1}")
        with pytest.raises(ValueError, match=message):
            parse_object(f"(5*O)^{2 * limit + 1}")
        assert parse_object(f"(2*O)^{4 * limit}") == 2 ** (4 * limit) * UNIT
        assert parse_object("O^100000000000") == UNIT
        try:
            sys.set_int_max_str_digits(0)
            assert parse_object("(2*O)^20000") == 2 ** 20000 * UNIT
        finally:
            sys.set_int_max_str_digits(limit)

    def test_zero_multiplicity(self):
        assert parse_object("0*E[2]") == ZERO

    def test_o_is_sugar_for_unit(self):
        assert parse_object("O") == UNIT
        assert parse_object("O*E[5]") == atiyah(5)

    def test_negative_fraction_normalises(self):
        assert parse_object("L[-1/3,5/3]") == atiyah(
            1, line_class(Fraction(2, 3), Fraction(2, 3))
        )

    def test_whitespace_insensitive(self):
        assert parse_object(" E[2] * L[ 1/3 , 0 ] ") == atiyah(2, L13)


class TestPrinting:
    def test_canonical_ordering(self):
        obj = atiyah(3, L13) + 2 * UNIT
        assert print_canonical(obj) == "2*E[1] + E[3]*L[1/3,0]"

    def test_zero_object(self):
        assert print_canonical(ZERO) == "Z"

    def test_unit_prints_as_rank_one(self):
        assert print_canonical(UNIT) == "E[1]"

    def test_free_generator_exponents(self):
        obj = atiyah(2, line_class(free={"g": -2})) + atiyah(1, line_class(free={"h": 1}))
        assert print_canonical(obj) == "E[1]*Th + E[2]*~Tg^2"

    def test_mixed_twist(self):
        obj = atiyah(1, line_class(Fraction(1, 2), free={"g": 1}))
        assert print_canonical(obj) == "E[1]*L[1/2,0]*Tg"

    @given(bundle_objects(max_rank=6))
    def test_round_trip(self, obj):
        assert parse_object(print_canonical(obj)) == obj

    def test_round_trip_examples(self):
        for text in ["Z", "E[1]", "2*E[1] + E[3]*L[1/3,0]", "E[2]*~Tg^2"]:
            assert print_canonical(parse_object(text)) == text


def test_single_indecomposable_str():
    assert str(Indecomposable(3, L13)) == "E[3]*L[1/3,0]"
    assert str(Indecomposable(4)) == "E[4]"
