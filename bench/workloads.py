"""The benchmark's four workloads: seeded inputs, queries and output checks.

A workload is a pair ``(draw, build)``.  ``draw(rng)`` picks the round's
inputs from the seed as plain data (Counters of ``(rank, key)``, argv
lists) in the bench's own arithmetic (``reference.py``) and calls none of
the package; the runner does it once and does not time it.  ``build(pkg,
plan)`` turns the plan into a *round*: a list of queries on package
objects made through the package's constructors.  Building is part of
the timed set-up, and its cost depends on the round's shape alone.

A round's shape is the same for every seed (query kinds and size targets
are fixed ladders) while the seed draws the content (twists, ranks,
coefficients, text).  The runner shuffles the round and cycles it in a
closed loop.  Fixing the shape keeps a round's cost, median and tail steady
across seeds; drawing the content keeps the inputs honest.

Each query carries a check that recomputes the expected output along a
path that avoids the code it checks (``reference`` arithmetic, an
identity through another module, or the in-process CLI for the child
process).  A check returns None when the output is right and a message
otherwise.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference as ref


@dataclass(eq=False)
class Query:
    """One query of a round.  A round may hold the same Query more than once."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    in_process: Optional[Callable[[], object]] = None  # cli: cli.main on the same argv
    argv: Optional[list] = None


def _expect(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def to_object(pkg, counter):
    """The package BundleObject of a Counter of ``(rank, key)``, through its constructors."""
    ind, line = pkg.bundles.Indecomposable, pkg.picard.line_class
    return pkg.bundles.BundleObject.of([(ind(r, line(*k)), m) for (r, k), m in counter.items()])


# -- generated expression text ----------------------------------------------

# Torsion classes of order <= 12 in (Q/Z)^2, as coordinate pairs.
TORSION = sorted(
    {
        (Fraction(a, q1), Fraction(b, q2))
        for q1 in range(1, 13)
        for q2 in range(1, 13)
        if math.lcm(q1, q2) <= 12
        for a in range(q1)
        for b in range(q2)
    }
    - {(Fraction(0), Fraction(0))}
)
FREE = ("a", "b")


@dataclass(frozen=True)
class Twist:
    """A generated twist: torsion coordinates, free exponents and a text power."""

    t1: Fraction = Fraction(0)
    t2: Fraction = Fraction(0)
    free: tuple = ()
    power: int = 1  # written as an atom power 'L[..]^k' when > 1

    def text(self) -> str:
        parts = []
        if self.t1 or self.t2:
            atom = f"L[{self.t1},{self.t2}]"
            parts.append(f"{atom}^{self.power}" if self.power > 1 else atom)
        for name, exp in self.free:
            atom = f"T{name}"
            if exp < 0:
                atom = "~" + atom
            parts.append(f"{atom}^{abs(exp)}" if abs(exp) > 1 else atom)
        return "*".join(parts)

    def key(self) -> tuple:
        return ref.key_pow((self.t1, self.t2, self.free), self.power)


def random_twist(rng: random.Random, pool: list) -> Twist:
    t1, t2, free = rng.choice(pool)
    power = rng.choice((1, 1, 1, 2, 3)) if (t1 or t2) and not free else 1
    return Twist(t1, t2, free, power)


def twist_pool(rng: random.Random, torsion: int, free: bool) -> list:
    pool = [(t1, t2, ()) for t1, t2 in rng.sample(TORSION, torsion)]
    pool.append((Fraction(0), Fraction(0), ()))
    if free:
        pool.append((Fraction(0), Fraction(0), (("a", 1),)))
        pool.append((Fraction(0), Fraction(0), (("b", rng.choice((-1, 1))),)))
    return pool


@dataclass
class Generated:
    """A power of a sum: its text, its summands from the reference
    arithmetic, and the summand pairs the p-1 products of a library
    evaluation multiply."""

    text: str
    summands: ref.Counter
    pairs: int


def summand_text(rank: int, mult: int, twist: Twist) -> str:
    body = f"E[{rank}]"
    if twist.text():
        body += "*" + twist.text()
    return f"{mult}*{body}" if mult > 1 else body


def power_of_sum(rng, pool, accept, hi: int) -> Optional[Generated]:
    """A seeded (sum of 1-12 summands)^p, 2 <= p <= 6, or None.

    The power is the first one for which ``accept(classes, pairs)`` holds;
    None if none does, or once a power has more than ``hi`` classes.

    '^' binds to atoms only, so the power is written as p parenthesised
    factors joined by '*'.
    """
    base = ref.Counter()
    texts = []
    max_rank = rng.randint(1, 5)
    for _ in range(rng.randint(1, 12)):
        rank = rng.randint(1, max_rank)
        mult = rng.choice((1, 1, 1, 2))
        twist = random_twist(rng, pool)
        base[(rank, twist.key())] += mult
        texts.append(summand_text(rank, mult, twist))
    power = base
    pairs = 0
    for p in range(2, 7):
        pairs += len(power) * len(base)
        power = ref.tensor(power, base)
        if len(power) > hi:
            return None
        if accept(len(power), pairs):
            base_text = " + ".join(texts)
            return Generated("*".join(f"({base_text})" for _ in range(p)), power, pairs)
    return None


def from_pools(rng, torsion: int, free: bool, attempt):
    """The first non-None ``attempt(pool)`` over seeded twist pools.

    A pool gets POOL_ATTEMPTS tries before a new one is drawn: a pool whose
    torsion classes generate a small group may hold too few twists for a
    shape, and no number of tries on it would do.
    """
    while True:
        pool = twist_pool(rng, torsion, free)
        for _ in range(POOL_ATTEMPTS):
            got = attempt(pool)
            if got is not None:
                return got


def _power_items(rng, pool, classes: int) -> Optional[list]:
    """The summands of a seeded power of a sum with ``classes`` to ``3 * classes`` classes, or None."""
    got = power_of_sum(rng, pool, lambda n, _: n >= classes, 3 * classes)
    return None if got is None else sorted(got.summands.items())


def operands(rng, torsion: int, free: bool, classes: int) -> tuple:
    """Two seeded samples of exactly ``classes`` summands of powers of sums over one pool."""

    def attempt(pool):
        items = [_power_items(rng, pool, classes) for _ in range(2)]
        if None in items:
            return None
        return tuple(ref.Counter(dict(rng.sample(got, classes))) for got in items)

    return from_pools(rng, torsion, free, attempt)


def pieces_per_pair(a, b) -> float:
    """Mean number of Clebsch-Gordan pieces per summand pair of a (x) b."""
    ranks_a, ranks_b = ref.Counter(r for r, _ in a), ref.Counter(r for r, _ in b)
    pieces = sum(min(ra, rb) * na * nb for ra, na in ranks_a.items() for rb, nb in ranks_b.items())
    return pieces / (len(a) * len(b))


def _swap(rng, chosen: list, rest: list, down: bool) -> bool:
    """Swap a sampled summand for an unsampled one of the nearest lower
    (``down``) or higher rank; False if there is none."""
    sign = 1 if down else -1
    if not rest:
        return False
    bound = min(sign * r for (r, _), _ in rest)
    movable = [i for i, ((r, _), _) in enumerate(chosen) if sign * r > bound]
    if not movable:
        return False
    i = rng.choice(movable)
    nearest = max(sign * r for (r, _), _ in rest if sign * r < sign * chosen[i][0][0])
    j = rng.choice([j for j, ((r, _), _) in enumerate(rest) if sign * r == nearest])
    chosen[i], rest[j] = rest[j], chosen[i]
    return True


def operand_pair(rng, torsion: int, free: bool, ta: int, tb: int) -> tuple:
    """Operands of exactly ta and tb classes whose product has a fixed cost per pair.

    Each operand starts as a sample of a power of a sum; while the pieces
    per summand pair fall outside PIECES_PER_PAIR, the operands take turns
    to swap one sampled summand for an unsampled one of the next rank of
    their power.  New powers are drawn only if that cannot reach the range,
    so the draw costs a few reference powers per pair.
    """
    lo, hi = PIECES_PER_PAIR

    def attempt(pool):
        sides = []
        for n in (ta, tb):
            items = _power_items(rng, pool, n)
            if items is None:
                return None
            rng.shuffle(items)
            sides.append((items[:n], items[n:]))
        for step in range(MAX_SWAPS):
            value = pieces_per_pair(dict(sides[0][0]), dict(sides[1][0]))
            if lo <= value <= hi:
                return ref.Counter(dict(sides[0][0])), ref.Counter(dict(sides[1][0]))
            if not (_swap(rng, *sides[step % 2], value > hi) or _swap(rng, *sides[1 - step % 2], value > hi)):
                return None
        return None

    return from_pools(rng, torsion, free, attempt)


def parse_text(rng, torsion: int, free: bool, pairs: int) -> Generated:
    """Text of a power of a sum whose evaluation multiplies 0.8 to 1.25 times ``pairs`` summand pairs."""

    def attempt(pool):
        got = power_of_sum(rng, pool, lambda _, p: p >= 0.8 * pairs, 300)
        return got if got is not None and got.pairs <= 1.25 * pairs else None

    return from_pools(rng, torsion, free, attempt)


REFERENCE_BASE = "E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg"


def reference_object(pkg):
    """The 6th power of REFERENCE_BASE: 105 classes over 28 twists."""
    base = pkg.expr.parse_object(REFERENCE_BASE)
    obj = base
    for _ in range(5):
        obj = obj * base
    return obj


# -- tensor -------------------------------------------------------------------

# Query shapes.  The shape of every query is fixed, so a round costs about
# the same for every seed: operands have exact class counts, products a
# fixed range of Clebsch-Gordan pieces per summand pair, and parse inputs a
# fixed amount of evaluation work.  The seed draws the twist pools (with
# torsion classes of order <= 12, and Ta, Tb when `free`), the sums, their
# powers, the sampled summands and the ring coefficients.  Pool sizes vary,
# so the ratio of summand pairs to twist pairs varies too.
# Products are most of a round, so its median latency is a product: sixteen
# queries cost less than the CENTRE blocks (the unary queries and the first
# two products of each kind), sixteen more (the larger products, the parse
# inputs and the three references), so the round's median falls in the
# middle of the sixteen CENTRE products of like cost.  The CENTRE pools hold
# torsion classes only, which keeps the cost of a summand pair the same.
# (classes of A, classes of B, torsion classes in the pool, free generators)
TENSOR_SHAPES = [(10, 10, 1, False), (10, 20, 2, True), (25, 25, 3, True), (15, 50, 4, True),
                 (40, 40, 8, False), (30, 80, 2, False), (60, 60, 4, False)]
RING_SHAPES = [(10, 10, 2, True), (10, 15, 3, True), (30, 30, 8, False), (40, 40, 3, False)]
CENTRE = [(20, 20, t, False) for t in (2, 3, 4, 6, 8, 2, 3, 4, 6, 8)]
CENTRE_RING = [(18, 18, t, False) for t in (2, 3, 4, 6, 8, 3)]
# (classes, torsion classes in the pool, free generators)
UNARY_SHAPES = [(35, 4, True), (60, 3, False), (90, 2, True)]
# (summand pairs multiplied while evaluating, torsion classes, free generators)
PARSE_SHAPES = [(300, 1, False), (400, 3, True), (500, 4, True), (600, 2, False),
                (700, 2, False), (1000, 1, True)]
PIECES_PER_PAIR = (1.4, 1.6)
MAX_SWAPS = 200
POOL_ATTEMPTS = 4
REFERENCE_REPEATS = 3


def _signed(rng, counter) -> dict:
    """Signed fractional coefficients on counter's classes: ``(rank, key) -> Fraction``."""
    return {k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for k in sorted(counter)}


def draw_tensor(rng: random.Random) -> dict:
    plan = {"tensor": [], "ring": [], "unary": [], "parse": []}
    for ta, tb, torsion, free in TENSOR_SHAPES + CENTRE:
        plan["tensor"].append(operand_pair(rng, torsion, free, ta, tb))
    for ta, tb, torsion, free in RING_SHAPES + CENTRE_RING:
        a, b = operand_pair(rng, torsion, free, ta, tb)
        plan["ring"].append((_signed(rng, a), _signed(rng, b)))
    for size, torsion, free in UNARY_SHAPES:
        plan["unary"].append(operands(rng, torsion, free, size))
    for pairs, torsion, free in PARSE_SHAPES:
        plan["parse"].append(parse_text(rng, torsion, free, pairs))
    return plan


def check_tensor(pkg, a, b):
    def check(out) -> Optional[str]:
        ka, kb, kout = ref.summands(a), ref.summands(b), ref.summands(out)
        if kout != ref.tensor(ka, kb):
            return "A*B differs from the reference Clebsch-Gordan product"
        ra, rb = ref.rank(ka), ref.rank(kb)
        if ref.rank(kout) != ra * rb:
            return "rank(A*B) != rank A * rank B"
        if ref.det(kout) != ref.key_mul(ref.key_pow(ref.det(ka), rb), ref.key_pow(ref.det(kb), ra)):
            return "det(A*B) != det(A)^rk B * det(B)^rk A"
        if ref.jh(kout) != ref.group_algebra_mul(ref.jh(ka), ref.jh(kb)):
            return "jh(A*B) != jh(A)*jh(B)"
        if (a.dual() * b).gamma_dim() != pkg.bundles.hom_dim(a, b):
            return "gamma(~A*B) != hom(A, B)"
        ring = pkg.kring.RingElement
        if ring.from_object(a) * ring.from_object(b) != ring.from_object(out):
            return "ring(A)*ring(B) != ring(A*B)"
        return None

    return check


def check_ring(x: dict, y: dict):
    """The product against the reference product over the coefficients."""
    want = ref.ring_mul(x, y)

    def check(out) -> Optional[str]:
        got = {(ind.rank, ref.key(ind.twist)): coeff for ind, coeff in out.terms}
        return _expect(got == want, "ring product differs from the reference")

    return check


def check_det(a):
    return lambda out: _expect(ref.key(out) == ref.det(ref.summands(a)), "det differs from the reference")


def check_jh(a):
    def check(out) -> Optional[str]:
        got = ref.summands(out)
        if any(r != 1 for r, _ in got):
            return "jh factor of rank != 1"
        want = ref.jh(ref.summands(a))
        return _expect(ref.Counter({k: m for (_, k), m in got.items()}) == want, "jh differs from the reference")

    return check


def check_dual(a):
    return lambda out: _expect(ref.summands(out) == ref.dual(ref.summands(a)), "dual differs from the reference")


def check_hom(a, b):
    """dim Hom = sum of min(r, s) over summand pairs with equal twists."""

    def check(out) -> Optional[str]:
        want = sum(
            ma * mb * min(ra, rb)
            for (ra, ka), ma in ref.summands(a).items()
            for (rb, kb), mb in ref.summands(b).items()
            if ka == kb
        )
        return _expect(out == want, "hom differs from the reference")

    return check


def check_parse(pkg, gen: Generated):
    def check(out) -> Optional[str]:
        if ref.summands(out) != gen.summands:
            return f"parse_object({gen.text[:60]}...) differs from the reference power"
        expr = pkg.expr
        return _expect(expr.parse_object(expr.print_canonical(out)) == out, "print_canonical does not round-trip")

    return check


def build_tensor(pkg, plan: dict) -> list[Query]:
    big = reference_object(pkg)
    queries = [Query("tensor-reference", lambda: big * big, check_tensor(pkg, big, big))] * REFERENCE_REPEATS
    for ka, kb in plan["tensor"]:
        a, b = to_object(pkg, ka), to_object(pkg, kb)
        queries.append(Query("tensor", lambda a=a, b=b: a * b, check_tensor(pkg, a, b)))
    ring, ind, line = pkg.kring.RingElement, pkg.bundles.Indecomposable, pkg.picard.line_class
    for cx, cy in plan["ring"]:
        x, y = (ring.of({ind(r, line(*k)): c for (r, k), c in cs.items()}) for cs in (cx, cy))
        queries.append(Query("ring", lambda x=x, y=y: x * y, check_ring(cx, cy)))
    for ka, kb in plan["unary"]:
        a, b = to_object(pkg, ka), to_object(pkg, kb)
        queries.append(Query("hom", lambda a=a, b=b: pkg.bundles.hom_dim(a, b), check_hom(a, b)))
        queries.append(Query("det", a.det, check_det(a)))
        queries.append(Query("jh", b.jh_factors, check_jh(b)))
        queries.append(Query("dual", a.dual, check_dual(a)))
    for gen in plan["parse"]:
        queries.append(Query("parse", lambda t=gen.text: pkg.expr.parse_object(t), check_parse(pkg, gen)))
    return queries


# -- closure ------------------------------------------------------------------

CLOSURE_REFERENCE = "E[3]*L[1/6,0] + E[2]*L[0,1/5]"
# Shapes.  A closure's cost depends on the shape alone (ranks, max_power and
# the order of the twist group), so a round costs the same for every seed;
# the seed draws the twists.  The round's median falls in the middle of the
# six rank-4 singles at power 28: sixteen queries cost less (the first six
# singles, the sums and the finite generators) and sixteen more (the last
# thirteen singles and the three references).
# (rank, max_power, twist order: 0 for a free twist, 1 for none, else torsion)
CLOSURE_SINGLES = [(2, 16, 0), (2, 24, 5), (3, 20, 0), (3, 24, 7), (4, 16, 0), (4, 20, 9),
                   (4, 28, 3), (4, 28, 0), (4, 28, 5), (4, 28, 1), (4, 28, 11), (4, 28, 6),
                   (4, 32, 4), (4, 32, 0), (5, 24, 10), (5, 24, 0), (5, 28, 8), (5, 28, 1),
                   (5, 32, 2), (5, 32, 0), (6, 24, 12), (6, 28, 0), (6, 28, 3), (6, 32, 1),
                   (6, 32, 5)]
# Sums of two: (rank, rank, order of the cyclic twist group, max_power)
CLOSURE_SUMS = [(1, 2, 4, 8), (2, 2, 6, 8), (1, 3, 5, 10), (2, 3, 3, 10), (2, 2, 12, 10), (1, 2, 7, 12)]
# Finite generators: (summands, order of the cyclic twist group, max_power)
CLOSURE_FINITE = [(2, 4, 8), (3, 6, 16), (2, 5, 24), (3, 3, 32)]


def _of_order(rng, order: int) -> tuple:
    """The key of a seeded torsion class of exactly this order."""
    t1, t2 = rng.choice([t for t in TORSION if math.lcm(t[0].denominator, t[1].denominator) == order])
    return (t1, t2, ())


def _single_twist(rng, order: int) -> tuple:
    if order == 0:
        return (Fraction(0), Fraction(0), ((rng.choice(FREE), rng.choice((-1, 1))),))
    if order == 1:
        return ref.TRIVIAL_KEY
    return _of_order(rng, order)


def _cyclic_sum(rng, ranks, order: int) -> ref.Counter:
    """A sum whose twists L, L^j, ... generate the cyclic group of L, of this order.

    The twists are distinct, so no two summands merge and the cost of the
    closure does not depend on the seed.
    """
    line = _of_order(rng, order)
    twists = [line] + [ref.key_pow(line, j) for j in rng.sample(range(2, order + 1), len(ranks) - 1)]
    return ref.Counter(zip(ranks, twists))


def check_closure(pkg, obj, max_power):
    def check(out) -> Optional[str]:
        gens = set(ref.summands(obj))
        finite = all(r == 1 and not k[2] for r, k in gens)
        order = ref.subgroup_order(k for _, k in gens)
        want, _ = ref.closure(gens, max_power)
        (classes, stabilized), krull = out[0], out[1]
        got = {(ind.rank, ref.key(ind.twist)) for ind in classes}
        if got != want:
            return "closure differs from the reference enumeration"
        if len(gens) == 1:
            (r, k), = gens
            form = pkg.kring.closed_form_S(next(iter(obj.classes())))
            if form is not None and not all(form.contains(c) for c in classes):
                return "closure class outside closed_form_S"
            if not k[2]:
                powers = {ref.key_pow(k, e): e for e in range(int(order))}
                if {(rank, powers[t]) for rank, t in got} != ref.reachable_prefix(r, int(order), max_power):
                    return "closure differs from the reachable-prefix formula"
        if not finite and stabilized:
            return "an infinite closure reported stabilized"
        if finite and max_power >= order and not stabilized:
            return "a finite closure did not stabilize by the group order"
        return _expect(krull == (0 if finite else 1), "krull_dim_class disagrees with finiteness")

    return check


def closure_query(pkg, obj, max_power):
    classes = sorted(obj.classes(), key=lambda ind: ind.sort_key())

    def call():
        kring = pkg.kring
        closure = kring.summand_closure(obj, max_power)
        forms = [kring.closed_form_S(ind) for ind in classes]
        labels = [kring.tannakian_label(ind) for ind in classes]
        return (closure.classes, closure.stabilized), kring.krull_dim_class(obj), forms, labels

    return call


def _closure(kind, pkg, obj, max_power) -> Query:
    return Query(kind, closure_query(pkg, obj, max_power), check_closure(pkg, obj, max_power))


def draw_closure(rng: random.Random) -> list:
    """(kind, generator summands, max_power) per query, the reference case aside."""
    plan = []
    for rank, max_power, order in CLOSURE_SINGLES:
        plan.append(("closure-single", ref.Counter({(rank, _single_twist(rng, order)): 1}), max_power))
    for r1, r2, order, max_power in CLOSURE_SUMS:
        plan.append(("closure-sum", _cyclic_sum(rng, (r1, r2), order), max_power))
    for count, order, max_power in CLOSURE_FINITE:
        plan.append(("closure-finite", _cyclic_sum(rng, (1,) * count, order), max_power))
    return plan


def build_closure(pkg, plan: list) -> list[Query]:
    anchor = pkg.expr.parse_object(CLOSURE_REFERENCE)
    queries = [_closure("closure-reference", pkg, anchor, 32)] * REFERENCE_REPEATS
    for kind, gens, max_power in plan:
        queries.append(_closure(kind, pkg, to_object(pkg, gens), max_power))
    return queries


# -- oracle -------------------------------------------------------------------

# Largest block size per query, and how many blocks of half that size join
# it.  jordan_tensor's cost depends on the block sizes alone, so each query
# costs the same for every seed; the seed draws the modulus and characters.
# The round's median falls in the middle of the four cap-8 queries: eight
# queries cost less and eight (with the three references) more.
ORACLE_CAPS = [2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 8, 8, 9, 9, 10, 10, 11]
ORACLE_EXTRA_BLOCKS = 1
ORACLE_REFERENCE_BLOCK = 12


def _cyclic_object(rng, modulus, cap, extra) -> ref.Counter:
    """Blocks of rank cap and cap//2 twisted by seeded characters of Z/modulus."""
    ranks = [cap] + [max(cap // 2, 1)] * extra
    return ref.Counter((r, (Fraction(rng.randrange(modulus), modulus), Fraction(0), ())) for r in ranks)


def check_oracle(pkg, a, b, modulus):
    def comps(obj):
        out = ref.Counter()
        for ind, mult in obj.summands:
            out[(int(ind.twist.t1 * modulus) % modulus, ind.rank)] += mult
        return out

    want = ref.Counter()
    for (ca, ra), ma in comps(a).items():
        for (cb, rb), mb in comps(b).items():
            for part in ref.index_rule(ra, rb):
                want[((ca + cb) % modulus, part)] += ma * mb
    blocks = {(ra, rb) for (_, ra) in comps(a) for (_, rb) in comps(b)}

    def check(out) -> Optional[str]:
        lhs, rhs = out
        if lhs != rhs:
            return "phi(A*B) != phi(A)*phi(B)"
        if dict(rhs.components) != dict(want):
            return "product tensor differs from the index rule"
        for r, s in blocks:
            if pkg.jordan.jordan_tensor(r, s) != ref.index_rule(r, s):
                return f"jordan_tensor({r},{s}) differs from the index rule"
        return None

    return check


def oracle_query(pkg, a, b, modulus):
    """The work of one cold `ellbundle oracle-check` process."""

    def call():
        jordan = pkg.jordan
        jordan.jordan_tensor.cache_clear()
        lhs = jordan.phi_transport(a * b, modulus)
        rhs = jordan.product_tensor(jordan.phi_transport(a, modulus), jordan.phi_transport(b, modulus))
        return lhs, rhs

    return call


def _oracle_inputs(rng, cap, extra) -> tuple:
    m = rng.randint(2, 6)
    return m, _cyclic_object(rng, m, cap, extra), _cyclic_object(rng, m, cap, extra)


def draw_oracle(rng: random.Random) -> dict:
    return {
        "reference": _oracle_inputs(rng, ORACLE_REFERENCE_BLOCK, 0),
        "queries": [_oracle_inputs(rng, cap, ORACLE_EXTRA_BLOCKS) for cap in ORACLE_CAPS],
    }


def _oracle(kind, pkg, inputs) -> Query:
    m, ka, kb = inputs
    a, b = to_object(pkg, ka), to_object(pkg, kb)
    return Query(kind, oracle_query(pkg, a, b, m), check_oracle(pkg, a, b, m))


def build_oracle(pkg, plan: dict) -> list[Query]:
    queries = [_oracle("oracle-reference", pkg, plan["reference"])] * REFERENCE_REPEATS
    return queries + [_oracle("oracle", pkg, inputs) for inputs in plan["queries"]]


# -- cli ----------------------------------------------------------------------


def _small_text(rng, summands=2, max_rank=3, modulus=None):
    parts = []
    for _ in range(rng.randint(1, summands)):
        rank = rng.randint(1, max_rank)
        if modulus is not None:
            t = Twist(Fraction(rng.randrange(modulus), modulus))
        else:
            t = random_twist(rng, twist_pool(rng, 2, rng.random() < 0.3))
        parts.append(summand_text(rank, 1, t))
    return " + ".join(parts)


def _single_text(rng):
    t = random_twist(rng, twist_pool(rng, 2, rng.random() < 0.3))
    return summand_text(rng.randint(1, 4), 1, t)


def cli_argvs(rng: random.Random) -> list[list[str]]:
    """One query per verb, small inputs; about half ask for --json."""
    argvs = []
    for verb in ("normalize", "dual", "rank", "det", "gamma", "jh", "classify"):
        argvs.append([verb, _small_text(rng)])
    argvs.append(["tensor", _small_text(rng), _small_text(rng)])
    argvs.append(["hom", _small_text(rng), _small_text(rng)])
    argvs.append(["summands", _small_text(rng), "--max-power", str(rng.randint(2, 6))])
    argvs.append(["closedform", _single_text(rng)])
    argvs.append(["group", _single_text(rng)])
    argvs.append(["ringdim", _small_text(rng)])
    m = rng.randint(2, 6)
    argvs.append(["oracle-check", _small_text(rng, modulus=m), _small_text(rng, modulus=m), "--modulus", str(m)])
    for argv in argvs:
        if rng.random() < 0.5:
            argv.append("--json")
    return argvs


def draw_cli(rng: random.Random) -> list:
    return cli_argvs(rng) + cli_argvs(rng)


def run_in_process(pkg, argv) -> tuple[int, bytes]:
    """cli.main on argv with stdout captured, starting as cold as a new process."""
    pkg.jordan.jordan_tensor.cache_clear()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pkg.cli.main(list(argv))
    return code, buffer.getvalue().encode("utf-8")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_child(argv, src: str, root: str) -> tuple[int, bytes]:
    done = subprocess.run(
        [sys.executable, "-m", "ellbundle", *argv],
        cwd=root,
        env=child_env(src),
        capture_output=True,
        timeout=60,
    )
    return done.returncode, done.stdout


def check_cli(pkg, argv):
    def check(out) -> Optional[str]:
        code, stdout = out
        if code != 0:
            return f"exit code {code} for {argv}"
        return _expect(stdout == run_in_process(pkg, argv)[1], f"stdout differs from cli.main for {argv}")

    return check


def build_cli(pkg, argvs: list, src: str, root: str) -> list[Query]:
    return [
        Query(
            f"cli-{argv[0]}",
            lambda argv=argv: run_child(argv, src, root),
            check_cli(pkg, argv),
            in_process=lambda argv=argv: run_in_process(pkg, argv),
            argv=argv,
        )
        for argv in argvs
    ]
