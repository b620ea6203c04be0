"""Reference implementations the tests compare the package against.

Each is the plain, per-row form of a quantity the solver computes in a
faster layout, or an objective the solver never evaluates but whose
descent the tests check.
"""

import numpy as np


def compute_A_c(u_c, signals, trials, times):
    """Weighted observation second moment for one component.

    A_c = (1/(n*tau)) * sum_{i in trials} sum_{t in times}
          u_c[i, t] * z_i[:, t] z_i[:, t]^T

    ``u_c`` (N, T) holds the auxiliary weights of component c, ``signals``
    is (N, C, T); full index ranges give the batch quantity.
    """
    sub = signals[trials][:, :, times]                  # (n, C, tau)
    n, c, tau = sub.shape
    flat = sub.transpose(1, 0, 2).reshape(c, n * tau)   # (C, n*tau)
    weights = u_c[trials][:, times].reshape(n * tau)
    return (flat * weights) @ flat.T / (n * tau)


def per_iteration_objective(w, w_anchor, a_of, b_mat, eta_u, lam):
    """Value of the quadratic surrogate the sweep minimizes row by row.

    J(W) = -log|det W| + (1/2) sum_c W_c A_c W_c^T + lam * <B, W>
           + (1/(2*eta_u)) |W - W_anchor|_F^2

    ``a_of`` maps a component index to its A_c matrix.  With
    ``eta_u = inf`` the proximal term drops out.  Returns +inf for a
    singular W (outside the domain).
    """
    w = np.asarray(w, dtype=np.float64)
    sign, logdet = np.linalg.slogdet(w)
    if sign == 0.0 or not np.isfinite(logdet):
        return float("inf")
    quad = 0.5 * sum(float(w[c] @ a_of(c) @ w[c]) for c in range(w.shape[0]))
    value = -logdet + quad + lam * float(np.sum(b_mat * w))
    if not np.isinf(eta_u):
        diff = w - w_anchor
        value += 0.5 * (1.0 / eta_u) * float(np.sum(diff * diff))
    return value


# derivative g'(x) of each density's penalty, by density name (away from
# the kinks at 0 for laplace and +-1 for huber)
G_PRIME = {"laplace": np.sign, "huber": lambda x: np.clip(x, -1.0, 1.0)}


def unsup_loss(logabsdet, sources, density):
    """Per-trial unsupervised loss -log|det W| + (1/T) sum g(x) of the
    sources x = W z, shape (C, T), of one trial."""
    t = sources.shape[-1]
    return float(-logabsdet + density.g(sources).sum() / t)


def subset_full_list(rng, n_total, n_draw):
    """``Xoshiro256pp.subset`` as a partial Fisher-Yates swap over the
    whole list ``range(n_total)``, sorted."""
    pool = list(range(n_total))
    for j in range(n_draw):
        r = j + rng.below(n_total - j)
        pool[j], pool[r] = pool[r], pool[j]
    return np.sort(np.array(pool[:n_draw], dtype=np.int64))


def laplaces(rng, shape):
    """Laplace(0, 1) array from one scalar ``Xoshiro256pp`` via inverse CDF
    (variance 2, E|x| = 1): the per-draw form of
    ``Xoshiro256ppStreams.laplace_block``."""
    count = int(np.prod(shape))
    u = np.empty(count)
    for j in range(count):
        u[j] = ((rng.next_u64() >> 11) + 0.5) * 2.0**-53   # open (0, 1)
    v = u - 0.5
    out = -np.sign(v) * np.log1p(-2.0 * np.abs(v))
    return out.reshape(shape)
