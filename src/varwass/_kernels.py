"""The package's one monotone root finder and its shifted log-sum-exp.

They import nothing from the package, so varexp, transport and jko all can.
"""

from __future__ import annotations

import numpy as np


#: Growth step of each bracket end.
_STEP = 1.0

#: Most refinement steps per call, far more than a bracket of width 2 needs.
_CAP = 120


def bisect(f, lo, hi):
    """Brackets (lo, hi) of the root of each entry of an increasing vectorized f.

    f returns the pair (f(x), f'(x)). Each bracket is first widened by
    _STEP, up to 200 times per side, until f(lo) <= 0 <= f(hi); then it is
    refined at most _CAP times, by safeguarded Newton steps started at the
    midpoint of the grown bracket. Each evaluation moves the bracket end on
    its side of the root to the trial point. A Newton point is pushed one
    ulp further, so that once it has converged the next trial lands across
    the root and closes the bracket to adjacent doubles: the same pair, and
    so the same midpoint 0.5 * (lo + hi), that plain halving finds wherever
    f is monotone in floating point. The loop stops once every bracket is
    that narrow, as from then on no step can move the midpoint. The
    midpoint replaces a Newton point that is not strictly inside the
    bracket (a point on an end was evaluated already), or whose step is
    more than half the step before last, as in Numerical Recipes' rtsafe:
    far out on a convex branch Newton crawls by a fixed amount per step.
    Where f is exactly 0 over a run of doubles, one-ulp pushes would each
    land on another zero and leave the far end of the bracket where it is;
    so after two zeros in a row the push is twice the last one, and at
    least one ulp of the bracket width, which crosses the run in a few
    steps even among the dense doubles near 0. A Newton step that is not
    finite (an infinite value or slope, a zero slope, or a quotient that
    overflows) is rejected silently, and the trial is the midpoint.
    """
    for _ in range(200):
        bad = f(lo)[0] > 0.0
        if not bad.any():
            break
        lo = np.where(bad, lo - _STEP, lo)
    for _ in range(200):
        bad = f(hi)[0] < 0.0
        if not bad.any():
            break
        hi = np.where(bad, hi + _STEP, hi)
    x = x_before = 0.5 * (lo + hi)
    last = before = hi - lo
    zero = False
    for _ in range(_CAP):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        fx, slope = f(x)
        up = fx >= 0.0
        hi = np.where(up, x, hi)
        lo = np.where(up, lo, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
