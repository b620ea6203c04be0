"""The Laplace source likelihood and its auxiliary-weight updates.

The unsupervised part of the objective scores unmixed sources x = W z with
the Laplace penalty g(x) = |x| and a log-determinant term::

    loss(W, z) = -log|det W| + (1/T) * sum_{c,t} |x_{c,t}|

The penalty has the quadratic variational upper bound
``|x| = min_{u>0} (u x^2)/2 + f(u)`` with ``f(u) = 1/(2u)``, which the
solver exploits: given per-entry auxiliary weights u the bound is
quadratic in W.  The exact minimizer is ``u = 1/|x|``; a damped
(proximal) variant stays near the previous weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

DEFAULT_U_MAX = 1e8

_NEWTON_RTOL = 4.0 * np.finfo(np.float64).eps  # aux_proximal: 4 ulp of u
_NEWTON_MAX_STEPS = 100


def aux_exact(sources: np.ndarray, u_max: float = DEFAULT_U_MAX,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact auxiliary weights u = 1/|x|, entrywise, clamped to u_max.

    These minimize the variational bound for fixed sources; works for any
    array shape.  ``out``, a float64 array of the sources' shape (any
    memory layout), receives the weights in place and is returned; it may
    be ``sources`` itself.  The values are the same bits as without it.
    """
    x = np.asarray(sources, dtype=np.float64)
    u = np.abs(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(divide="ignore"):
        np.divide(1.0, u, out=u)
    return np.minimum(u, u_max, out=u)


def aux_proximal(sources: np.ndarray, u_prev: np.ndarray, eta_a: float,
                 u_max: float = DEFAULT_U_MAX) -> np.ndarray:
    """Damped auxiliary update: proximal point step on the bound in u.

    Minimizes, entrywise over u > 0::

        psi(u) = u*x^2/2 + 1/(2u) + (u - u_prev)^2 / (2*eta_a)

    The minimizer is the root of
    psi'(u) = x^2/2 - 1/(2u^2) + (u - u_prev)/eta_a, which is increasing
    (psi'' > 0) and concave (psi''' = -3/u^4 < 0).  The root lies between
    1/|x| and u_prev, so psi' <= 0 at u_0 = min(1/|x|, u_prev), which needs
    ``u_prev > 0``.  Newton from u_0 needs no bracket: psi' lies below its
    tangents, so each step lands at or left of the root and the iterates
    climb to it; they stop once no entry moves by more than 4 ulp.  The
    result is clamped to [0, u_max].  As ``eta_a`` grows the step
    approaches :func:`aux_exact`; small ``eta_a`` keeps u near ``u_prev``.

    Raises
    ------
    ValueError
        If eta_a <= 0 or u_prev has an entry that is not positive.
    """
    if not eta_a > 0.0:
        raise ValueError("eta_a must be positive")
    x = np.asarray(sources, dtype=np.float64)
    prev = np.asarray(u_prev, dtype=np.float64)
    if prev.shape != x.shape:
        raise ValueError("u_prev shape must match sources")
    if not np.all(prev > 0.0):
        raise ValueError("u_prev must be positive")
    half_x2 = 0.5 * x * x
    with np.errstate(divide="ignore"):
        u = np.minimum(1.0 / np.abs(x), prev)
    for _ in range(_NEWTON_MAX_STEPS):
        step = ((half_x2 - 0.5 / (u * u) + (u - prev) / eta_a)
                / (1.0 / u**3 + 1.0 / eta_a))
        u -= step
        if np.all(np.abs(step) <= _NEWTON_RTOL * u):
            break
    return np.minimum(u, u_max)


def variational_value(sources: np.ndarray, u: np.ndarray,
                      out: Optional[np.ndarray] = None,
                      scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Entrywise bound value u*x^2/2 + 1/(2u).

    ``u`` has the sources' shape.  ``out`` receives the value and
    ``scratch`` holds 1/(2u) on the way (both arrays of that shape, fresh
    when not given); neither may share memory with the inputs.
    """
    x = np.asarray(sources, dtype=np.float64)
    value = np.multiply(0.5, u, out=out)
    np.multiply(value, x, out=value)
    np.multiply(value, x, out=value)
    return np.add(value, np.divide(0.5, u, out=scratch), out=value)
