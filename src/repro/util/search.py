"""Generic numeric binary search used by the stretch-so-far algorithms.

Both the Bender offline single-machine optimum and the online SSF-EDF
heuristic search for the smallest target stretch for which a feasibility
predicate holds.  Feasibility is monotone in the target (a larger stretch
only relaxes the deadlines), so a plain bisection to relative precision
``eps`` suffices — this is exactly the ``log(1/eps)`` factor of the
paper's SSF-EDF complexity analysis.
"""

from __future__ import annotations

import math
from typing import Callable


def binary_search_min(
    feasible: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    eps: float = 1e-6,
    grow_factor: float = 2.0,
    max_grow: int = 200,
    hint: float | None = None,
) -> float:
    """Return (approximately) the least ``x`` in ``[lo, hi*...]`` with ``feasible(x)``.

    ``feasible`` must be monotone: once true it stays true for larger
    arguments.  If ``feasible(hi)`` is false, ``hi`` is grown
    geometrically (up to ``max_grow`` doublings) until it holds.

    ``hint``, when given and greater than ``lo``, replaces the initial
    ``hi``: a caller that solved a nearby problem before (SSF-EDF's
    previous release) can seed the bracket with its last result and
    skip most of the geometric growth phase.  An under-estimating hint
    is safe — the growth loop takes over as usual.

    The search stops when the bracket's relative width drops below
    ``eps`` and returns the *feasible* end of the bracket, so the result
    is always a feasible target.

    The bracket must stay finite: a non-finite ``hi``, an infinite
    ``hint``, or growth that overflows to ``inf`` raises
    :class:`RuntimeError` instead of probing ``inf`` — a target of
    ``inf`` makes every deadline ``inf`` and so every probe "feasible".
    """
    if lo < 0:
        raise ValueError(f"binary_search_min requires lo >= 0, got {lo}")
    if hi < lo:
        raise ValueError(f"binary_search_min requires hi >= lo, got lo={lo}, hi={hi}")
    if eps <= 0:
        raise ValueError(f"binary_search_min requires eps > 0, got {eps}")

    if hint is not None and hint > lo:
        hi = hint
    if not math.isfinite(hi):
        raise RuntimeError(f"binary_search_min: non-finite bracket end {hi!r}")

    if feasible(lo):
        return lo

    grows = 0
    while not feasible(hi):
        grows += 1
        if grows > max_grow:
            raise RuntimeError(
                f"binary_search_min: no feasible point found up to {hi!r}; "
                "the predicate may not be monotone or the problem is infeasible"
            )
        lo = hi
        hi = max(hi * grow_factor, 1.0)
        if math.isinf(hi):
            raise RuntimeError(
                f"binary_search_min: no feasible point found up to {lo!r}; "
                "growing the bracket overflows"
            )

    # Invariant: feasible(hi) and not feasible(lo).
    while (hi - lo) > eps * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
