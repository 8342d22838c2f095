"""The package's one monotone root finder and its shifted log-sum-exp.

They import nothing from the package, so varexp, transport and jko all can.
"""

from __future__ import annotations

import numpy as np


def bisect(f, lo, hi, step, halvings, with_slope=False):
    """Brackets (lo, hi) of the root of each entry of an increasing vectorized f.

    Each bracket is first widened by step, up to 200 times per side, until
    f(lo) <= 0 <= f(hi); then it is refined at most halvings times. The cap
    is generous (120 halvings push a bracket of width 2 far below double
    precision), so the loop stops early once every bracket has shrunk to
    adjacent doubles: from then on mid rounds to lo or hi, further halvings
    leave the midpoint 0.5 * (lo + hi) unchanged, and it is bit-identical
    to the one all halvings would give. A root at exactly 0 never gets
    there within the cap, because doubles are dense near 0.

    With with_slope set, f returns the pair (f(x), f'(x)) and the trial
    points are safeguarded Newton steps, started at the midpoint of the
    grown bracket; each evaluation moves the bracket end on its side of the
    root to the trial point. A Newton point is pushed one ulp further, so
    that once it has converged the next trial lands across the root and
    closes the bracket to adjacent doubles: the same pair, and so the same
    midpoint, that plain halving finds wherever f is monotone in floating
    point. The midpoint replaces a Newton point that is not strictly inside
    the bracket (a point on an end was evaluated already), or whose step is
    more than half the step before last, as in Numerical Recipes' rtsafe:
    far out on a convex branch Newton crawls by a fixed amount per step.
    Where f is exactly 0 over a run of doubles, one-ulp pushes would each
    land on another zero and leave the far end of the bracket where it is;
    so after two zeros in a row the push is twice the last one, and at
    least one ulp of the bracket width, which crosses the run in a few
    steps even among the dense doubles near 0. The stop rule and the cap
    are those of plain halving. Without a slope the loop is the same with a
    NaN slope: every Newton point and push is rejected and each trial is
    the bracket midpoint, which is plain halving.
    """
    if with_slope:
        pair, value = f, (lambda x: f(x)[0])
    else:
        pair, value = (lambda x: (f(x), np.nan)), f
    for _ in range(200):
        bad = value(lo) > 0.0
        if not bad.any():
            break
        lo = np.where(bad, lo - step, lo)
    for _ in range(200):
        bad = value(hi) < 0.0
        if not bad.any():
            break
        hi = np.where(bad, hi + step, hi)
    x = x_before = 0.5 * (lo + hi)
    last = before = hi - lo
    zero = False
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        fx, slope = pair(x)
        up = fx >= 0.0
        hi = np.where(up, x, hi)
        lo = np.where(up, lo, x)
        newton = fx / slope
        trial = np.nextafter(x - newton, np.where(up, -np.inf, np.inf))
        zero, was_zero = fx == 0.0, zero
        again = zero & was_zero
        if np.count_nonzero(again):
            push = np.maximum(2.0 * (x_before - x), np.spacing(hi - lo))
            trial = np.where(again, x - push, trial)
        ok = (lo < trial) & (trial < hi) & (2.0 * np.abs(newton) <= before)
        before, last = last, np.where(ok, np.abs(newton), 0.5 * (hi - lo))
        x, x_before = np.where(ok, trial, 0.5 * (lo + hi)), x
    return lo, hi


def logsumexp(a: np.ndarray, axis: int, weights: bool = False):
    """log(sum(exp(a))) along axis, shifted by the maximum; all -inf slices give -inf.

    With weights set, also returns the softmax exp(a - logsumexp) along
    axis, taken from the same exponentials.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    mx_safe = np.where(np.isfinite(mx), mx, 0.0)
    z = np.exp(a - mx_safe)
    total = np.sum(z, axis=axis)
    with np.errstate(divide="ignore"):
        lse = np.log(total) + np.squeeze(mx_safe, axis=axis)
    if not weights:
        return lse
    return lse, z / np.expand_dims(total, axis)
