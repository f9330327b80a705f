"""Order statistics used by the benchmark report."""

from __future__ import annotations

#: The tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest nearest-rank percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, n_samples, rule_met)``.  The sample at
    sorted index ``k`` has ``n - 1 - k`` samples beyond it, so the tail is
    the sample at ``k = n - 1 - beyond`` and its percentile is
    ``100 * (k + 1) / n``.  With fewer than ``2 * beyond`` samples that
    percentile would lie below the median, which is no tail; the maximum
    is returned with ``rule_met=False``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = n - 1 - beyond
    if 2 * (k + 1) < n:
        return ordered[-1], 100.0, n, False
    return ordered[k], 100.0 * (k + 1) / n, n, True


def percentile(values, q: float):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
