"""Array helpers shared by the functional-record and graph-build layers.

Since numpy 2.3, ``np.unique`` hashes its input and then sorts the
distinct values.  On the integer arrays these layers pass, that is
slower than one sort, so hot paths call :func:`sorted_unique` instead
(docs/performance.md, "One sort, not a hash").
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray, return_counts: bool = False):
    """``np.unique`` of a 1-D array, from one ``np.sort``.

    Returns the same sorted distinct values, in the same dtype, and
    with ``return_counts`` the same ``intp`` counts as
    ``np.unique(values, return_counts=True)``.
    """
    ordered = np.sort(values)
    # bounds[i]: a run of equal values starts at i (or, at the end, the
    # last run ends there)
    bounds = np.empty(ordered.shape[0] + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=bounds[1:-1])
    if not return_counts:
        return ordered[bounds[:-1]]
    starts = np.flatnonzero(bounds)
    return ordered[starts[:-1]], np.diff(starts)
