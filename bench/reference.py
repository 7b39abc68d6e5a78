"""Reference arithmetic the benchmark checks the package against.

Nothing here calls the package's kernels.  Line bundle classes are plain
keys ``(t1, t2, free)`` with ``t1, t2`` reduced Fractions in [0, 1) and
``free`` a name-sorted tuple of ``(generator, exponent)`` pairs, so the
group law is a few lines of Fraction arithmetic.  Objects become Counters
of ``(rank, key)``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

TRIVIAL_KEY = (Fraction(0), Fraction(0), ())


def key(twist) -> tuple:
    """Key of a package ``LineBundleClass`` (reads its fields only)."""
    return (twist.t1, twist.t2, tuple(twist.free))


def key_mul(a: tuple, b: tuple) -> tuple:
    free = dict(a[2])
    for name, exp in b[2]:
        free[name] = free.get(name, 0) + exp
    return (
        (a[0] + b[0]) % 1,
        (a[1] + b[1]) % 1,
        tuple(sorted((n, e) for n, e in free.items() if e)),
    )


def key_pow(a: tuple, n: int) -> tuple:
    return (
        (a[0] * n) % 1,
        (a[1] * n) % 1,
        tuple((name, exp * n) for name, exp in a[2]) if n else (),
    )


def cg_ranks(r: int, s: int) -> list[int]:
    """Clebsch-Gordan index rule: E_r (x) E_s = sum of E_k for these k."""
    return list(range(abs(r - s) + 1, r + s, 2))


def index_rule(r: int, s: int) -> tuple[int, ...]:
    """Jordan type of J_r (x) J_s predicted by the index rule, nonincreasing."""
    return tuple(sorted(cg_ranks(r, s), reverse=True))


def summands(obj) -> Counter:
    """Counter of ``(rank, key)`` for a package ``BundleObject``."""
    return Counter({(ind.rank, key(ind.twist)): mult for ind, mult in obj.summands})


def rank(counter: Counter) -> int:
    return sum(r * m for (r, _), m in counter.items())


def det(counter: Counter) -> tuple:
    out = TRIVIAL_KEY
    for (r, k), m in counter.items():
        out = key_mul(out, key_pow(k, r * m))
    return out


def jh(counter: Counter) -> Counter:
    """Semisimplification as a Counter ``twist key -> multiplicity``."""
    out: Counter = Counter()
    for (r, k), m in counter.items():
        out[k] += r * m
    return out


def tensor(a: Counter, b: Counter) -> Counter:
    """Tensor product of two objects given as Counters of ``(rank, key)``."""
    out: Counter = Counter()
    for (ra, ka), ma in a.items():
        for (rb, kb), mb in b.items():
            k = key_mul(ka, kb)
            for r in cg_ranks(ra, rb):
                out[(r, k)] += ma * mb
    return out


def ring_mul(x: dict, y: dict) -> dict:
    """Product of two ring elements given as dicts ``(rank, key) -> Fraction``."""
    out: dict = {}
    for (ra, ka), ca in x.items():
        for (rb, kb), cb in y.items():
            k = key_mul(ka, kb)
            for r in cg_ranks(ra, rb):
                out[(r, k)] = out.get((r, k), 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _calibration_operand() -> Counter:
    """28 summands of (E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)^6, built here alone."""
    base = Counter({
        (2, (Fraction(1, 5), Fraction(0), ())): 1,
        (3, (Fraction(0), Fraction(1, 7), ())): 1,
        (1, (Fraction(0), Fraction(0), (("g", 1),))): 1,
    })
    power = base
    for _ in range(5):
        power = tensor(power, base)
    return Counter(dict(sorted(power.items())[:28]))


CALIBRATION_OPERAND = _calibration_operand()


def matrix_rank(rows: list) -> int:
    """Rank over Q of an integer matrix by fraction-free elimination."""
    work = [list(row) for row in rows if any(row)]
    rank_ = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank_, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank_], work[pivot] = work[pivot], work[rank_]
        top = work[rank_]
        for i in range(rank_ + 1, len(work)):
            f = work[i][col]
            if f:
                g = math.gcd(top[col], f)
                row = [top[col] // g * u - f // g * v for u, v in zip(work[i], top)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        rank_ += 1
    return rank_


def _calibration_matrix() -> list:
    """T^3 for T = J_10 (x) J_10 - I, J_10 the unipotent Jordan block, built here alone."""
    n = 10
    t = [[int(j // n in (i // n, i // n + 1) and j % n in (i % n, i % n + 1)) - (i == j)
          for j in range(n * n)] for i in range(n * n)]
    power = t
    for _ in range(2):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*t)] for row in power]
    return power


CALIBRATION_MATRIX = _calibration_matrix()


def calibration_tensor() -> Counter:
    """Fixed Clebsch-Gordan work like the package's kernels, through none of its code."""
    return tensor(CALIBRATION_OPERAND, CALIBRATION_OPERAND)


def calibration_rank() -> int:
    """Fixed exact-rank work like the package's oracle, through none of its code."""
    return matrix_rank(CALIBRATION_MATRIX)


def group_algebra_mul(a: Counter, b: Counter) -> Counter:
    out: Counter = Counter()
    for ka, ma in a.items():
        for kb, mb in b.items():
            out[key_mul(ka, kb)] += ma * mb
    return Counter({k: v for k, v in out.items() if v})


def dual(counter: Counter) -> Counter:
    return Counter({(r, key_pow(k, -1)): m for (r, k), m in counter.items()})


def closure(gens: set, max_power: int) -> tuple[set, bool]:
    """Summand classes of gens^n for n <= max_power, and closedness.

    ``gens`` is a set of ``(rank, key)``.  Mirrors the definition of S(E)
    rather than the package's loop: every power is enumerated in full, and
    the result is closed when one more tensor step adds nothing.
    """

    def step(classes: set) -> set:
        return {
            (k, key_mul(tc, tg))
            for (rc, tc) in classes
            for (rg, tg) in gens
            for k in cg_ranks(rc, rg)
        }

    seen = set(gens)
    power = set(gens)
    for _ in range(2, max_power + 1):
        power = step(power)
        if power <= seen and step(seen) <= seen:
            break
        seen |= power
    return seen, step(seen) <= seen


CALIBRATION_GENERATOR = {(4, (Fraction(0), Fraction(0), (("g", 1),)))}


def calibration_closure() -> tuple:
    """Fixed set-based closure work like the package's summand_closure, through none of its code."""
    return closure(CALIBRATION_GENERATOR, 12)


def subgroup_order(keys) -> float:
    """Order of the subgroup of Pic^0 the keys generate (inf with free parts)."""
    keys = list(keys)
    if any(k[2] for k in keys):
        return float("inf")
    group = {TRIVIAL_KEY}
    frontier = [TRIVIAL_KEY]
    while frontier:
        nxt = []
        for g in frontier:
            for k in keys:
                h = key_mul(g, k)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(group)


def reachable_prefix(rank_: int, order: int, max_power: int) -> set:
    """(rank, twist exponent) pairs among the summands of (E_r (x) L)^n, n <= max_power.

    The first power is E_r (x) L alone.  For n >= 2 the n-th power holds
    exactly the ranks k <= n(r-1)+1 of the parity of n(r-1)+1, all with twist
    L^n; by induction from the index rule, since E_r (x) E_r already holds
    every odd rank up to 2r-1.
    """
    out = {(rank_, 1 % order)}
    for n in range(2, max_power + 1):
        top = n * (rank_ - 1) + 1
        for k in range(top, 0, -2):
            out.add((k, n % order))
    return out
