"""Pearson correlation for Table IX (graph property vs. speedup)."""

from __future__ import annotations

import math
from collections.abc import Sequence


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length sequences.

    Raises ``ValueError`` on mismatched lengths, fewer than two points,
    or zero variance in either input (the coefficient is undefined).
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("correlation requires at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = 0.0
    var_x = 0.0
    var_y = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        cov += dx * dy
        var_x += dx * dx
        var_y += dy * dy
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("correlation undefined: zero variance input")
    denom = math.sqrt(var_x * var_y)
    if denom == 0.0:
        # the product of two tiny variances underflowed
        denom = math.sqrt(var_x) * math.sqrt(var_y)
    r = cov / denom
    # floating-point error can push |r| marginally past 1; clamp
    return max(-1.0, min(1.0, r))
