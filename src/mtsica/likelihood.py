"""Super-Gaussian source densities and auxiliary-weight updates.

The unsupervised part of the objective scores unmixed sources x = W z with
a log-density penalty g and a log-determinant term::

    loss(W, z) = -log|det W| + (1/T) * sum_{c,t} g(x_{c,t})

Each supported g admits a quadratic variational upper bound
``g(x) = min_{u>0} (u x^2)/2 + f(u)``, which the solver exploits: given
per-entry auxiliary weights u the bound is quadratic in W.  The exact
minimizer is ``u = g'(x)/x``; a damped (proximal) variant stays near the
previous weights, which requires the penalty f in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_U_MAX = 1e8

_NEWTON_RTOL = 4.0 * np.finfo(np.float64).eps  # aux_proximal: 4 ulp of u
_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class SuperGaussianDensity:
    """A source penalty g with its variational companion functions.

    ``f`` is the convex conjugate-style penalty such that
    ``g(x) = min_u u*x^2/2 + f(u)``; it is ``None`` when no closed form is
    implemented (the proximal aux update is then unavailable).  ``g`` and
    ``f`` take an optional ``out`` array and ``exact_weights`` a required
    one; each writes its result there and returns it.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    exact_weights: Callable[[np.ndarray, float], np.ndarray]
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def has_f(self) -> bool:
        return self.f is not None


def _laplace_weights(x, u_max, out):
    # u = g'(x)/x = 1/|x|, clamped to [0, u_max]; one array, in place
    u = np.abs(x, out=out)
    with np.errstate(divide="ignore"):
        np.divide(1.0, u, out=u)
    return np.minimum(u, u_max, out=u)


def _laplace_f(u, out=None):
    return np.divide(0.5, u, out=out)


def _huber_g(x, out=None):
    # 0.5 x^2 where |x| <= 1, |x| - 0.5 in the linear tails
    ax = np.abs(x)
    if out is None:
        out = np.empty_like(ax)
    np.subtract(ax, 0.5, out=out)
    return np.multiply(0.5 * x, x, out=out, where=ax <= 1.0)


def _huber_weights(x, u_max, out):
    # g'(x)/x = 1 in the quadratic region, 1/|x| in the linear tails
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        u = np.divide(1.0, ax, out=out)
    np.copyto(u, 1.0, where=ax <= 1.0)
    return np.minimum(u, u_max, out=u)


LAPLACE = SuperGaussianDensity(
    name="laplace",
    g=np.abs,
    exact_weights=_laplace_weights,
    f=_laplace_f,
)

HUBER = SuperGaussianDensity(
    name="huber",
    g=_huber_g,
    exact_weights=_huber_weights,
    f=None,
)

DENSITIES = {"laplace": LAPLACE, "huber": HUBER}


def get_density(name: str) -> SuperGaussianDensity:
    try:
        return DENSITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown density {name!r}; choose from {sorted(DENSITIES)}") from None


def aux_exact(sources: np.ndarray, density: SuperGaussianDensity,
              u_max: float = DEFAULT_U_MAX,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact auxiliary weights u = g'(x)/x, entrywise, clamped to u_max.

    These minimize the variational bound for fixed sources; works for any
    array shape.  ``out``, a float64 array of the sources' shape (any
    memory layout), receives the weights in place and is returned; it may
    be ``sources`` itself.  The values are the same bits as without it.
    """
    x = np.asarray(sources, dtype=np.float64)
    return density.exact_weights(
        x, u_max, np.empty_like(x) if out is None else out)


def aux_proximal(sources: np.ndarray, u_prev: np.ndarray, eta_a: float,
                 density: SuperGaussianDensity,
                 u_max: float = DEFAULT_U_MAX) -> np.ndarray:
    """Damped auxiliary update: proximal point step on the bound in u.

    Minimizes, entrywise over u > 0::

        psi(u) = u*x^2/2 + f(u) + (u - u_prev)^2 / (2*eta_a)

    For the Laplace penalty (f(u) = 1/(2u)) the minimizer is the root of
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
        If the density has no closed-form f (e.g. huber), eta_a <= 0 or
        u_prev has an entry that is not positive.
    """
    if not density.has_f:
        raise ValueError(
            f"proximal aux update needs a closed-form f; density "
            f"{density.name!r} does not provide one")
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
                      density: SuperGaussianDensity,
                      out: Optional[np.ndarray] = None,
                      scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Entrywise bound value u*x^2/2 + f(u); requires a closed-form f.

    ``u`` has the sources' shape.  ``out`` receives the value and
    ``scratch`` holds f(u) on the way (both arrays of that shape, fresh
    when not given); neither may share memory with the inputs.
    """
    if not density.has_f:
        raise ValueError(f"density {density.name!r} has no closed-form f")
    x = np.asarray(sources, dtype=np.float64)
    value = np.multiply(0.5, u, out=out)
    np.multiply(value, x, out=value)
    np.multiply(value, x, out=value)
    return np.add(value, density.f(u, out=scratch), out=value)
