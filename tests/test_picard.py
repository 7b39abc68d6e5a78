import copy
import math
import pickle
import sys
import threading
import uuid
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ellbundle.picard as picard
from ellbundle import INFINITE, TRIVIAL, BundleObject, LineBundleClass, RingElement, line_class, parse, parse_object

from _strategies import free_parts, indecomposables, line_classes, torsion_coords


def test_identity_is_trivial():
    assert TRIVIAL == line_class()
    assert TRIVIAL.is_trivial
    assert TRIVIAL.t1 == 0 and TRIVIAL.t2 == 0 and TRIVIAL.free == ()
    assert TRIVIAL.order() == 1


def test_two_torsion_squares_to_identity():
    half = line_class(Fraction(1, 2))
    assert half * half == TRIVIAL


def test_group_law_in_q_mod_z():
    third = line_class(Fraction(1, 3))
    assert third * third == line_class(Fraction(2, 3))


def test_free_generators_cancel():
    g = line_class(free={"g": 1})
    ginv = line_class(free={"g": -1})
    assert g * ginv == TRIVIAL
    assert (g * g).free == (("g", 2),)


def test_inverse_examples():
    assert line_class(Fraction(1, 3)).inverse() == line_class(Fraction(2, 3))
    assert TRIVIAL.inverse() == TRIVIAL
    assert ~line_class(free={"g": 2}) == line_class(free={"g": -2})


def test_is_torsion():
    assert line_class(Fraction(1, 2), Fraction(1, 3)).is_torsion
    assert not line_class(free={"g": 2}).is_torsion
    assert TRIVIAL.is_torsion


def test_order_examples():
    assert line_class(Fraction(1, 2), Fraction(1, 3)).order() == 6
    assert line_class(free={"g": 1}).order() == INFINITE
    assert line_class(Fraction(2, 5)).order() == 5


def test_coordinates_normalize_mod_one():
    assert line_class(Fraction(7, 3)) == line_class(Fraction(1, 3))
    assert line_class(Fraction(-1, 3)) == line_class(Fraction(2, 3))
    assert line_class(Fraction(4, 6)) == line_class(Fraction(2, 3))


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        LineBundleClass(Fraction(3, 2))
    with pytest.raises(ValueError):
        LineBundleClass(free=(("g", 0),))
    with pytest.raises(ValueError):
        LineBundleClass(free=(("h", 1), ("g", 1)))
    with pytest.raises(ValueError):
        line_class(free={"bad name": 1})
    # Generator names are ASCII identifiers: [A-Za-z_][A-Za-z0-9_]*.
    for name in ["", "1g", "g-1", "gä", "g\n", "g\u0663"]:
        with pytest.raises(ValueError, match="invalid generator name"):
            LineBundleClass(free=((name, 1),))
    assert LineBundleClass(free=(("_G9", 1),)).free == (("_G9", 1),)
    with pytest.raises(TypeError):
        LineBundleClass(free=((5, 1),))
    # The free part is a tuple of (name, exponent) tuples, as line_class's
    # items are pairs; anything else is refused with a message naming it.
    for free in [[("a", 1)], (["a", 1],), (("a", 1, 2),), (("a",),), ("a1",)]:
        with pytest.raises(TypeError, match=r"free must be a tuple of \(name, exponent\) tuples"):
            LineBundleClass(Fraction(0), Fraction(0), free)
    for free in [[("a", 1, 2)], [("a",)], [5], {("a", 1, 2)}]:
        with pytest.raises(TypeError, match=r"free must be a mapping or \(name, exponent\) pairs"):
            line_class(free=free)
    assert line_class(free=[["a", 1], ("a", 1)]).free == (("a", 2),)


def test_str_forms():
    assert str(TRIVIAL) == "O"
    assert str(line_class(Fraction(1, 2), Fraction(1, 3))) == "L[1/2,1/3]"
    assert str(line_class(free={"g": 2})) == "Tg^2"
    assert str(line_class(free={"g": -1})) == "~Tg"
    assert str(line_class(Fraction(1, 2), free={"g": 1})) == "L[1/2,0]*Tg"


@given(line_classes(), line_classes())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(line_classes(), line_classes(), line_classes())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(line_classes())
def test_inverse_law(a):
    assert a * a.inverse() == TRIVIAL
    assert a.inverse().inverse() == a


@given(line_classes())
def test_identity_law(a):
    assert TRIVIAL * a == a


@given(line_classes(with_free=False))
def test_order_is_minimal(a):
    m = a.order()
    assert isinstance(m, int)
    assert a ** m == TRIVIAL
    for k in range(1, m):
        assert a ** k != TRIVIAL


@given(line_classes())
def test_power_matches_repeated_mul(a):
    acc = TRIVIAL
    for n in range(5):
        assert a ** n == acc
        acc = acc * a


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False])
def test_inexact_coordinates_are_refused(bad):
    with pytest.raises(TypeError):
        line_class(bad)
    with pytest.raises(TypeError):
        line_class(0, bad)


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1)])
def test_non_int_free_exponents_are_refused(bad):
    with pytest.raises(TypeError):
        line_class(free={"g": bad})
    with pytest.raises(TypeError):
        line_class(free=[("g", bad)])
    with pytest.raises(ValueError):
        LineBundleClass(free=(("g", bad),))


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)])
def test_non_int_power_is_refused(bad):
    with pytest.raises(TypeError):
        line_class(Fraction(1, 3)) ** bad


# -- the integer coding, against plain Fraction arithmetic --------------------
#
# A reference class is the triple (t1, t2, free) of the constructor's
# arguments; these helpers are the group law on such triples.


def ref(c):
    return (c.t1, c.t2, c.free)


def ref_free(*parts):
    acc = {}
    for part in parts:
        for name, exp in part:
            acc[name] = acc.get(name, 0) + exp
    return tuple(sorted((name, exp) for name, exp in acc.items() if exp))


def ref_mul(x, y):
    return ((x[0] + y[0]) % 1, (x[1] + y[1]) % 1, ref_free(x[2], y[2]))


def ref_pow(x, n):
    return ((x[0] * n) % 1, (x[1] * n) % 1, ref_free([(name, exp * n) for name, exp in x[2]]))


@given(torsion_coords(12), torsion_coords(12), free_parts())
def test_coordinates_round_trip_through_constructor(t1, t2, free):
    free = tuple(sorted(free.items()))
    c = LineBundleClass(t1, t2, free)
    assert ref(c) == (t1, t2, free)
    assert type(c.t1) is Fraction and type(c.t2) is Fraction
    assert LineBundleClass(c.t1, c.t2, c.free) == c
    assert repr(c) == f"LineBundleClass(t1={t1!r}, t2={t2!r}, free={free!r})"


@given(line_classes(max_order=3), line_classes(max_order=3))
def test_eq_and_hash_agree_with_coordinates(a, b):
    # One object per class: equality is identity, and so is the hash.
    assert (a is b) == (ref(a) == ref(b))
    assert (a == b) == (a is b) and (a != b) == (a is not b)
    assert LineBundleClass(*ref(a)) is a


def test_classes_define_no_equality_or_hash_of_their_own():
    assert "__eq__" not in vars(LineBundleClass) and "__hash__" not in vars(LineBundleClass)
    assert LineBundleClass.__eq__ is object.__eq__ and LineBundleClass.__hash__ is object.__hash__
    assert LineBundleClass.__slots__ == ("_key",)


def rebuilt(c):
    """The class c built again along every route that makes a class."""
    t1, t2, free = ref(c)
    torsion = line_class(t1, t2)
    (twist,) = parse_object(str(c))._groups  # the printed form, parsed and evaluated
    return [
        LineBundleClass(t1, t2, free),
        line_class(t1 + 1, t2 - 3, dict(free)),
        line_class(free=free) * torsion,
        TRIVIAL * c,
        c ** 1,
        (c ** 3) * (c ** -2),
        ~~c,
        c.inverse().inverse(),
        pickle.loads(pickle.dumps(c)),
        copy.copy(c),
        copy.deepcopy(c),
        twist,
    ], [parse(f"L[{t1},{t2}]")[1], parse(f"L[{t1 - 1},{t2 + 2}]")[1], torsion ** 1, copy.copy(torsion)]


@given(line_classes(), line_classes(), st.integers(-6, 6))
def test_equal_keys_give_one_object_along_every_route(a, b, n):
    for c in (a, b, a * b, a ** n, ~b):
        whole, torsion = rebuilt(c)
        assert all(d is c for d in whole)
        assert all(d is torsion[0] and d._key == c._key[:3] + ((),) for d in torsion)
    assert a * b is b * a and (a * b) ** n is a ** n * b ** n


def test_threads_racing_on_new_classes_get_one_object_per_class():
    # Eight threads build the same 300 classes, none of which exists yet (a
    # fresh generator name), half of them by the constructor and half by
    # products, switching often.  They start each of ten rounds together.
    names = ["g" + uuid.uuid4().hex for _ in range(10)]
    keys = [(1009, k, 0, ((name, 1),)) for name in names for k in range(1, 301)]
    assert not any(key in picard._classes for key in keys)
    barrier = threading.Barrier(8, timeout=60)
    results = [[] for _ in range(8)]

    def build(i):
        for name in names:
            gen, step = line_class(free={name: 1}), line_class(Fraction(1, 1009))
            barrier.wait()
            if i % 2:
                results[i] += [LineBundleClass(Fraction(k, 1009), Fraction(0), ((name, 1),)) for k in range(1, 301)]
            else:
                results[i] += [gen * step ** k for k in range(1, 301)]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for key, built in zip(keys, zip(*results, strict=True), strict=True):
        assert all(c is picard._classes[key] for c in built)


@given(line_classes(), line_classes(), st.integers(-13, 13))
def test_operations_match_fraction_arithmetic(a, b, n):
    assert ref(a * b) == ref_mul(ref(a), ref(b))
    assert ref(a ** n) == ref_pow(ref(a), n)
    assert ref(a ** 0) == ref(TRIVIAL)
    assert ref(~a) == ref_pow(ref(a), -1)


@given(line_classes(), line_classes(), st.integers(-13, 13))
def test_results_are_canonical(a, b, n):
    for c in (a, b, a * b, a ** n, ~a):
        d, x, y, free = c._key
        assert 0 <= x < d and 0 <= y < d and math.gcd(x, y, d) == 1
        assert (Fraction(x, d), Fraction(y, d), free) == ref(c)
        torsion_order = math.lcm(c.t1.denominator, c.t2.denominator)
        assert c.order() == (INFINITE if free else torsion_order)


def test_refused_coordinates_keep_their_messages():
    with pytest.raises(ValueError, match=r"torsion coordinate Fraction\(1, 1\) is not reduced"):
        LineBundleClass(Fraction(1))
    with pytest.raises(ValueError, match="not reduced"):
        LineBundleClass(Fraction(0), Fraction(-1, 2))
    with pytest.raises(ValueError, match="not reduced"):
        LineBundleClass(0)


def test_classes_survive_pickling():
    c = line_class(Fraction(1, 6), Fraction(3, 4), {"g": 2, "h": -1})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(c, protocol)) is c


def test_twists_sort_by_torsion_order_then_numerators_then_free_part():
    ta, half = line_class(free={"a": 1}), line_class(Fraction(1, 2))
    ordered = [TRIVIAL, ~ta, ta, half, half * ta,
               line_class(Fraction(1, 3)), line_class(0, Fraction(1, 4)), line_class(Fraction(1, 4))]
    assert [str(c) for c in ordered] == [
        "O", "~Ta", "Ta", "L[1/2,0]", "L[1/2,0]*Ta", "L[1/3,0]", "L[0,1/4]", "L[1/4,0]"
    ]
    assert sorted(reversed(ordered), key=LineBundleClass.sort_key) == ordered


@given(st.lists(st.tuples(indecomposables(), st.integers(1, 3)), max_size=8))
def test_bundle_object_order_is_sort_key_order(pairs):
    obj = BundleObject.of(pairs)
    expected = sorted({ind for ind, _ in pairs}, key=lambda ind: ind.sort_key())
    assert [ind for ind, _ in obj.summands] == expected


@given(
    st.lists(
        st.tuples(indecomposables(), st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(2)])),
        max_size=8,
    )
)
def test_ring_element_order_is_sort_key_order(pairs):
    elem = RingElement.of(pairs)
    totals = {}
    for ind, coeff in pairs:
        totals[ind] = totals.get(ind, 0) + coeff
    expected = sorted((ind for ind, coeff in totals.items() if coeff), key=lambda i: i.sort_key())
    assert [ind for ind, _ in elem.terms] == expected
