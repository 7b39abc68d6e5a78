"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every check is exact (integer / rational equality, tolerance zero).  Random
sweeps use a fixed seed so runs are reproducible; expected values come from
independent oracles computed inside this module, never from the code paths
under test.
"""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ellbundle import (
    RING_ONE,
    TRIVIAL,
    BundleObject,
    Indecomposable,
    RingElement,
    atiyah,
    closed_form_S,
    hom_dim,
    jordan_tensor,
    krull_dim_class,
    line_class,
    parse_object,
    phi_transport,
    print_canonical,
    product_tensor,
    summand_closure,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} [{name}]: FAIL")
                raise
            print(f"ACCEPTANCE {num} [{name}]: PASS")

        return wrapper

    return decorate


# -- independent oracles -----------------------------------------------------


def atiyah_partition(r, s):
    """Expected Jordan type per the index rule, sorted nonincreasingly."""
    return tuple(sorted((abs(r - s) + 2 * i - 1 for i in range(1, min(r, s) + 1)), reverse=True))


def reachable_prefix(rank, order, max_power):
    """(rank, twist exponent) pairs of summands of the first max_power powers
    of E_rank (x) L, for L of torsion order `order`.

    The first power is E_rank (x) L alone.  For n >= 2 the n-th power
    contributes exactly the ranks k <= n*(rank-1)+1 with k = n*(rank-1)+1
    (mod 2), all carrying twist exponent n mod order; this follows by
    induction from the Clebsch-Gordan index rule alone, since E_r (x) E_r
    already holds every odd rank up to 2r-1.
    """
    out = {(rank, 1 % order)}
    for n in range(2, max_power + 1):
        top = n * (rank - 1) + 1
        exp = n % order
        for k in range(top, 0, -2):
            out.add((k, exp))
    return out


def torsion_classes_of_order_at_most(bound):
    coords = {Fraction(a, q) for q in range(1, bound + 1) for a in range(q)}
    classes = []
    for t1 in sorted(coords):
        for t2 in sorted(coords):
            cls = line_class(t1, t2)
            if cls.order() <= bound:
                classes.append(cls)
    return classes


def random_line_class(rng, max_order=6, allow_free=False):
    order = rng.randint(1, max_order)
    t1 = Fraction(rng.randrange(order), order)
    t2 = Fraction(rng.randrange(order), order)
    free = {}
    if allow_free and rng.random() < 0.35:
        free[rng.choice(("g", "h"))] = rng.choice((-2, -1, 1, 2))
    return line_class(t1, t2, free)


def random_object(rng, max_rank=3, max_order=6, allow_free=True, max_summands=3):
    items = []
    for _ in range(rng.randint(1, max_summands)):
        rank = rng.randint(1, max_rank)
        twist = random_line_class(rng, max_order, allow_free)
        items.append((Indecomposable(rank, twist), rng.randint(1, 2)))
    return BundleObject.of(items)


def random_ring_element(rng):
    items = []
    for _ in range(rng.randint(0, 2)):
        ind = Indecomposable(rng.randint(1, 3), random_line_class(rng, 4, True))
        coeff = Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 3))
        items.append((ind, coeff))
    return RingElement.of(items)


# -- criteria ---------------------------------------------------------------


@criterion(1, "Atiyah-Jordan oracle equivalence")
def test_criterion_1_jordan_oracle_matches_index_rule():
    for r in range(1, 15):
        for s in range(1, r + 1):
            assert jordan_tensor(r, s) == atiyah_partition(r, s), (r, s)
    assert jordan_tensor(30, 30) == atiyah_partition(30, 30)


@criterion(2, "Hom/Gamma dimension table")
def test_criterion_2_hom_gamma_table():
    for r in range(1, 11):
        assert atiyah(r).gamma_dim() == 1
        for s in range(1, 11):
            assert hom_dim(atiyah(r), atiyah(s)) == min(r, s)
    unequal = [
        (TRIVIAL, line_class(Fraction(1, 2))),
        (line_class(Fraction(1, 3)), line_class(Fraction(2, 3))),
        (TRIVIAL, line_class(free={"g": 1})),
        (line_class(free={"g": 1}), line_class(free={"h": 1})),
        (line_class(free={"g": 1}), line_class(free={"g": 2})),
        (line_class(Fraction(1, 2), free={"g": 1}), line_class(Fraction(1, 2))),
    ]
    for r in range(1, 11):
        for s in range(1, 11):
            for a, b in unequal:
                assert hom_dim(atiyah(r, a), atiyah(s, b)) == 0


@criterion(3, "Hom factorization through finite and unipotent parts")
def test_criterion_3_hom_factorization():
    lines = torsion_classes_of_order_at_most(4)
    ranks = range(1, 5)
    for f1 in lines:
        for f2 in lines:
            gate = 1 if f1 == f2 else 0
            for r in ranks:
                for s in ranks:
                    lhs = hom_dim(atiyah(r, f1), atiyah(s, f2))
                    assert lhs == gate * min(r, s), (f1, f2, r, s)


@criterion(4, "structure-constant equivalence of the transport")
def test_criterion_4_transport_is_tensor_functor():
    for m in range(2, 7):
        gen = line_class(Fraction(1, m))
        for r in range(1, 6):
            for s in range(1, 6):
                for i in range(m):
                    for j in range(m):
                        a = atiyah(r, gen ** i)
                        b = atiyah(s, gen ** j)
                        lhs = phi_transport(a * b, m)
                        rhs = product_tensor(phi_transport(a, m), phi_transport(b, m))
                        assert lhs == rhs, (m, r, s, i, j)


@criterion(5, "summand-closure closed forms")
def test_criterion_5_closed_forms():
    for rank in range(1, 7):
        for twist in [TRIVIAL] + [line_class(Fraction(1, m)) for m in range(2, 7)]:
            order = twist.order()
            power_index = {twist ** i: i for i in range(order)}
            form = closed_form_S(Indecomposable(rank, twist))
            assert form is not None, (rank, twist)
            for max_power in (8, 2 * order + 8):
                closure = summand_closure(atiyah(rank, twist), max_power)
                got = set()
                for ind in closure.classes:
                    assert ind.twist in power_index, (rank, twist, ind)
                    got.add((ind.rank, power_index[ind.twist]))
                    # containment in the closed form
                    assert form.contains(ind), (rank, twist, ind)
                # prefix equality against the independent reachability formula
                assert got == reachable_prefix(rank, order, max_power), (rank, twist)
                # only the unit stabilises among these generators
                assert closure.stabilized == (rank == 1), (rank, twist)
            # completeness: each contained class of rank <= 5 appears by power 2m+8
            contained = {
                (k, i) for k in range(1, 6) for i in range(order)
                if form.contains(Indecomposable(k, twist ** i))
            }
            assert contained <= got, (rank, twist)


@criterion(6, "finiteness trichotomy")
def test_criterion_6_finiteness_trichotomy():
    rng = random.Random(20260808)
    seen_finite = seen_infinite = 0
    for _ in range(100):
        force_finite = rng.random() < 0.5
        obj = random_object(
            rng,
            max_rank=1 if force_finite else 3,
            max_order=6,
            allow_free=not force_finite,
        )
        finite = obj.is_finite
        # orders <= 6 over <= 3 twist classes: every subgroup element is an
        # exact n-fold sum for some n <= 15, so 16 powers certify the fixed
        # point for every finite draw
        stabilized = summand_closure(obj, 16).stabilized
        dim = krull_dim_class(obj)
        assert finite == stabilized == (dim == 0), obj
        seen_finite += finite
        seen_infinite += not finite
    assert seen_finite and seen_infinite


@criterion(7, "ring axioms and tensor-category laws")
def test_criterion_7_ring_and_category_laws():
    rng = random.Random(1729)
    for _ in range(500):
        x, y, z = (random_ring_element(rng) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert RING_ONE * x == x
        a = random_object(rng, max_rank=3, max_order=4)
        b = random_object(rng, max_rank=3, max_order=4)
        assert a.dual().dual() == a
        assert (a * b).dual() == a.dual() * b.dual()
        assert (a * b).rank() == a.rank() * b.rank()
        assert (a + b).rank() == a.rank() + b.rank()
        assert (a + b).det() == a.det() * b.det()
        assert (a * b).det() == a.det() ** b.rank() * b.det() ** a.rank()


@criterion(8, "CLI round trip and deterministic output")
def test_criterion_8_round_trip_and_determinism():
    rng = random.Random(8128)
    for _ in range(500):
        obj = random_object(rng, max_rank=6, max_order=6, allow_free=True)
        assert parse_object(print_canonical(obj)) == obj
    # byte-identical output across separate processes (distinct hash seeds)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONHASHSEED", None)
    cmd = [
        sys.executable, "-m", "ellbundle",
        "summands", "E[2]*L[1/3,0] + E[1]*Tg", "--max-power", "5", "--json",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    json.loads(runs[0].stdout)
