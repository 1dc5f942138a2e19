"""Deterministic summation helpers.

Results must not depend on how work was scheduled, so partial results
from parallel blocks are combined by a pairwise tree whose layout depends
only on the number of blocks.
"""

import numpy as np


def _two_sum(a, b):
    """Error-free transformation: a + b = s + err exactly."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s, err


def tree_reduce_compensated(parts):
    """Pairwise tree with two-sum nodes; residuals folded in at the root.

    Pairs are summed level by level and an odd last part is carried up, so
    the tree's shape depends only on len(parts); the result is accurate to
    O(eps^2) regardless of the number of parts.
    """
    if not parts:
        return 0.0
    level = [(np.asarray(p, dtype=float), np.zeros_like(np.asarray(p, dtype=float)))
             for p in parts]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            (s1, e1), (s2, e2) = level[i], level[i + 1]
            s, e = _two_sum(s1, s2)
            nxt.append((s, e + e1 + e2))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    s, e = level[0]
    return s + e
