"""Central finite differences with one Richardson extrapolation level.

Used as the fallback when a chart lacks analytic second partials or a
field lacks an analytic jacobian. The step is scaled per coordinate by
the chart's domain extent.
"""

import numpy as np

REL_STEP = 1e-5


def partial_stack(fun, lo, hi):
    """Differentiate a batched map with respect to its parameters.

    ``fun`` maps parameter points ``U`` of shape (B, p) to arrays of shape
    (B, ...).  Returns a callable producing the partial derivatives stacked
    on a trailing axis, shape (B, ..., p): central differences at step
    ``REL_STEP * (hi - lo)`` combined with the half-step evaluation via one
    Richardson level, (4*D(h/2) - D(h)) / 3.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    steps = REL_STEP * (hi - lo)

    def deriv(U):
        U = np.asarray(U, dtype=float)
        p = U.shape[-1]
        cols = []
        for a in range(p):
            h = steps[a]
            e = np.zeros(p)
            e[a] = 1.0
            d_full = (fun(U + h * e) - fun(U - h * e)) / (2.0 * h)
            d_half = (fun(U + 0.5 * h * e) - fun(U - 0.5 * h * e)) / h
            cols.append((4.0 * d_half - d_full) / 3.0)
        return np.stack(cols, axis=-1)

    return deriv
