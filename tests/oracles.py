"""Reference implementations the tests compare the package against.

Each is the plain, per-row form of a quantity the solver computes in a
faster layout, or an objective the solver never evaluates but whose
descent the tests check.  ``weighted_moments`` is the exception: the
solver's own A_c pass fed given weights, the bit reference of the
reference loops.  ``component_major_pass`` is the A_c pass on a
component-major copy of the batch, the bit reference of the solver's
pass over the trial-major batch.
"""

import numpy as np

from mtsica import unmixing
from mtsica.linalg import _blocks, serial_matmul
from mtsica.unmixing import make_a_provider


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


def weighted_moments(u_batch, batch):
    """Every A_c of the trial-major ``batch`` (n, C, tau) at the weights
    ``u_batch`` of the same shape, as one (C, C, C) array: the solver's
    blocked pass fed ``u_batch``."""
    c_dim = batch.shape[1]
    u = u_batch.transpose(1, 0, 2).reshape(c_dim, -1)
    a_of = make_a_provider(np.eye(c_dim), batch,
                           lambda x, start, stop: u[:, start:stop])
    return np.array([a_of(c) for c in range(c_dim)])


def component_major_pass(w, batch, step):
    """Every A_c of the trial-major ``batch`` (n, C, tau), as one (C, C, C)
    array, by the A_c pass over a component-major (C, n*tau) copy of it:
    x = W @ block, the block's weights and its pair products on blocks of
    ``_A_BLOCK`` columns of that copy, in place."""
    c_dim = batch.shape[1]
    flat = np.ascontiguousarray(batch.transpose(1, 0, 2)).reshape(c_dim, -1)
    cols = flat.shape[1]
    acc = np.zeros((c_dim, c_dim, c_dim))
    pairs = np.empty((c_dim, min(unmixing._A_BLOCK, cols)))
    x_buf = np.empty_like(pairs)
    start = 0
    for lo, stop in _blocks(cols, unmixing._A_BLOCK):
        x = serial_matmul(w, flat[:, lo:stop],
                          out=x_buf[:, :stop - lo])[:, start - lo:]
        block = flat[:, start:stop]
        u_t = step(x, start, stop).T
        for a in range(c_dim):
            prod = pairs[:c_dim - a, :block.shape[1]]
            np.multiply(block[a:], block[a], out=prod)
            acc[a, a:] += serial_matmul(prod, u_t)
        start = stop
    a_set = np.ascontiguousarray(acc.transpose(2, 0, 1))
    a_set /= cols
    lower, upper = np.tril_indices(c_dim, -1)
    a_set[:, lower, upper] = a_set[:, upper, lower]
    return a_set


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


# derivative g'(x) of the Laplace penalty g(x) = |x| (away from the kink
# at 0)
G_PRIME = np.sign


def unsup_loss(logabsdet, sources):
    """Per-trial unsupervised loss -log|det W| + (1/T) sum |x| of the
    sources x = W z, shape (C, T), of one trial."""
    t = sources.shape[-1]
    return float(-logabsdet + np.abs(sources).sum() / t)


def splitmix64_outputs(seed, n):
    """The first ``n`` outputs of a splitmix64 generator seeded by ``seed``,
    in Python integers: each adds the increment to the state and scrambles
    it.  ``Xoshiro256pp(seed)`` starts from the first four."""
    mask = (1 << 64) - 1
    out, x = [], seed & mask
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def fisher_yates_full_list(rng, n_total, n_draw):
    """The first ``n_draw`` entries of a Fisher-Yates shuffle of the whole
    list ``range(n_total)``, in draw order (Durstenfeld's swap loop): swap j
    exchanges positions j and ``j + next_u64() % (n_total - j)``.
    ``Xoshiro256pp.permutation`` is all of it; ``subset`` sorts a prefix."""
    pool = list(range(n_total))
    for j in range(n_draw):
        r = j + rng.next_u64() % (n_total - j)
        pool[j], pool[r] = pool[r], pool[j]
    return np.array(pool[:n_draw], dtype=np.int64)


def normals_per_pair(rng, shape):
    """``Xoshiro256pp.normals`` drawn one u64 at a time: Box-Muller on
    pairs of open-interval uniforms, radius then angle."""
    count = int(np.prod(shape))
    n_pairs = (count + 1) // 2
    u1 = np.empty(n_pairs)
    u2 = np.empty(n_pairs)
    for j in range(n_pairs):
        u1[j] = ((rng.next_u64() >> 11) + 0.5) * 2.0**-53
        u2[j] = ((rng.next_u64() >> 11) + 0.5) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u1))
    a = 2.0 * np.pi * u2
    out = np.empty(n_pairs * 2)
    out[0::2] = r * np.cos(a)
    out[1::2] = r * np.sin(a)
    return out[:count].reshape(shape)


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
