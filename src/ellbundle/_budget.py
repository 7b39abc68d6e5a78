"""One work budget per query and thread, in units of about 3 ns of kernel work
(Python 3.11, x86-64), not clock time, so every machine refuses the same queries.
The outermost :func:`metered` call of a thread arms it; unarmed, a draw is free."""

from _thread import get_ident
from functools import wraps

BUDGET = 440_000_000
_left = {}  # thread id -> what the budget armed in that thread still holds


def draw(units: int) -> None:
    left = _left.get(get_ident())
    if left is not None:
        if units > left:
            raise ValueError(f"query too large for its work budget ({units} units asked, {left} of {BUDGET} left)")
        _left[get_ident()] = left - units


def metered(fn):
    """``fn``, run under a fresh budget unless its thread has one armed."""
    @wraps(fn)
    def run(*args, **kwargs):
        if get_ident() in _left:
            return fn(*args, **kwargs)
        _left[get_ident()] = BUDGET
        try:
            return fn(*args, **kwargs)
        finally:
            del _left[get_ident()]
    return run
