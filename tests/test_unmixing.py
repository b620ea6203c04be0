"""Row-update machinery: weighted moments, supervised coupling, and the
closed-form cyclic sweep."""

from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from mtsica import unmixing
from mtsica.data import TargetSchema
from mtsica.likelihood import aux_exact
from mtsica.solver import SolverConfig, fit_full_batch, fit_stochastic
from mtsica.supervision import (FeatureMapConfig, SupervisedTargetModel,
                                batch_loss_grads)
from mtsica.synthgen import gen_dataset
from mtsica.unmixing import (FactorizationError, UnmixingState, compute_B,
                             cyclic_sweep, make_a_provider, row_update)
from oracles import compute_A_c, per_iteration_objective, weighted_moments


def full_idx(n):
    return np.arange(n)


# --- state container ---

def test_state_caches_logdet_and_freezes():
    w = np.array([[2.0, 0.0], [1.0, 3.0]])
    st = UnmixingState.from_matrix(w)
    assert st.channels == 2
    assert abs(st.logabsdet - np.log(6.0)) < 1e-14
    assert not st.w.flags.writeable


def test_state_does_not_freeze_caller_array():
    w = np.eye(3)
    st = UnmixingState.from_matrix(w)
    assert w.flags.writeable            # caller's array untouched
    w[0, 0] = 2.0
    assert st.w[0, 0] == 1.0
    assert not st.w.flags.writeable
    frozen = np.eye(3)
    frozen.flags.writeable = False
    assert UnmixingState.from_matrix(frozen).w is frozen   # no needless copy


def test_state_rejects_bad_matrices():
    with pytest.raises(ValueError):
        UnmixingState.from_matrix(np.ones((2, 3)))
    with pytest.raises(FactorizationError):
        UnmixingState.from_matrix(np.ones((2, 2)))          # singular
    with pytest.raises(FactorizationError):
        UnmixingState.from_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


# --- weighted second moments ---

def test_a_c_unit_weights_give_second_moment():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 2, 5))
    u_c = np.ones((3, 5))
    a = compute_A_c(u_c, z, full_idx(3), full_idx(5))
    flat = z.transpose(1, 0, 2).reshape(2, 15)
    assert np.allclose(a, flat @ flat.T / 15, atol=1e-14)


def test_a_c_single_entry():
    # one trial, one time, weight 2, observation e_0  ->  2 e_0 e_0^T
    z = np.zeros((2, 2, 3))
    z[1, 0, 2] = 1.0
    u_c = np.full((2, 3), 2.0)
    a = compute_A_c(u_c, z, np.array([1]), np.array([2]))
    assert np.allclose(a, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_a_c_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 3, 6))
    u_c = rng.uniform(0.1, 2.0, size=(4, 6))
    trials = np.array([0, 2, 3])
    times = np.array([1, 4])
    a = compute_A_c(u_c, z, trials, times)
    want = np.zeros((3, 3))
    for i in trials:
        for t in times:
            want += u_c[i, t] * np.outer(z[i, :, t], z[i, :, t])
    want /= len(trials) * len(times)
    assert np.max(np.abs(a - want)) < 1e-12


def test_a_c_symmetric_psd():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(5, 4, 8))
    u_c = rng.uniform(0.0, 3.0, size=(5, 8))
    a = compute_A_c(u_c, z, full_idx(5), full_idx(8))
    assert np.allclose(a, a.T, atol=1e-13)
    assert np.linalg.eigvalsh(a).min() > -1e-12


def component_major(x, trials, times):
    """The solver's batch layout: ``x[trials][:, :, times]`` of an
    (N, C, T) array as one C-contiguous (C, n, tau) array."""
    return x.transpose(1, 0, 2)[np.ix_(np.arange(x.shape[1]), trials, times)]


def test_a_provider_matches_direct_computation():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 3, 7))
    u = rng.uniform(0.1, 2.0, size=(4, 3, 7))
    trials = np.array([1, 3])
    times = np.array([0, 2, 5])
    u_batch = component_major(u, trials, times).reshape(3, -1)
    a_of = make_a_provider(np.eye(3), component_major(z, trials, times),
                           lambda x, start, stop: u_batch[:, start:stop])
    for c in range(3):
        want = compute_A_c(u[:, c, :], z, trials, times)
        np.testing.assert_allclose(a_of(c), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c_dim", [1, 2, 10])
@pytest.mark.parametrize("cols", ["below", "equal", "not_multiple"])
def test_blocked_a_pass_matches_per_row_oracle(c_dim, cols):
    # every A_c of one pass equals the per-row oracle, across the block
    # boundaries of the pass, with weights clamped at u_max
    block = unmixing._A_BLOCK
    n, tau = {"below": (3, 7), "equal": (8, block // 8),
              "not_multiple": (3, (2 * block + 3) // 3)}[cols]
    rng = np.random.default_rng(20 + c_dim)
    z = rng.normal(size=(n, c_dim, tau + 5))
    trials, times = np.arange(n), np.arange(2, tau + 2)
    w = np.eye(c_dim) + 0.3 * rng.normal(size=(c_dim, c_dim))
    u = aux_exact(np.matmul(w, z), u_max=2.0)
    assert np.any(u == 2.0) and np.any(u < 2.0)
    a_set = weighted_moments(component_major(u, trials, times),
                             component_major(z, trials, times))
    assert a_set.shape == (c_dim, c_dim, c_dim)
    for c in range(c_dim):
        want = compute_A_c(u[:, c, :], z, trials, times)
        np.testing.assert_allclose(a_set[c], want, rtol=1e-12, atol=0.0)
        assert np.array_equal(a_set[c], a_set[c].T)


@pytest.mark.parametrize("c_dim", [3, 10])
@pytest.mark.parametrize("cols", [1, 3999, 4000, 4001, 8001, 12345])
def test_exact_pass_matches_weights_of_the_whole_batch(c_dim, cols):
    # the blocked pass with the exact step gives the bits of the exact
    # weights of the whole batch's W z fed to the weighted pass (a
    # one-column last block too), and the sums of |x| and of the bound at
    # those weights; the step sees consecutive blocks of the columns
    rng = np.random.default_rng(cols + c_dim)
    batch = rng.laplace(size=(c_dim, cols))
    w = np.eye(c_dim) + 0.3 * rng.normal(size=(c_dim, c_dim))
    x = w @ batch
    ax = np.abs(x)
    for u_max in (1e8, 1.0):
        sums = np.zeros(2)
        seen = []

        def step(x_block, start, stop):
            seen.append((start, stop))
            return aux_exact(x_block, u_max, out=x_block, sums=sums)

        a_of = make_a_provider(w, batch, step)
        block = unmixing._A_BLOCK
        assert seen == [(lo, min(lo + block, cols))
                        for lo in range(0, cols, block)]
        want = weighted_moments(aux_exact(x, u_max), batch)
        for c in range(c_dim):
            assert np.array_equal(a_of(c), want[c])
        bound = np.where(ax >= 1.0 / u_max, ax,
                         0.5 * u_max * ax * ax + 0.5 / u_max)
        np.testing.assert_allclose(sums, [ax.sum(), bound.sum()],
                                   rtol=1e-12, atol=0.0)
    assert cols == 1 or np.any(ax < 1.0)     # u_max = 1 clamps entries


def test_exact_pass_sums_stay_finite_at_u_max_inf():
    # an exact zero in W z has an infinite weight, but the bound at it is
    # |x| = 0: no 0 * inf reaches the sums
    rng = np.random.default_rng(5)
    batch = rng.laplace(size=(3, 4001))
    batch[:, 17] = 0.0
    w = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    sums = np.zeros(2)
    with np.errstate(invalid="ignore"):        # 0 * inf inside the A_c
        make_a_provider(w, batch, lambda x, start, stop: aux_exact(
            x, np.inf, out=x, sums=sums))
    assert np.all(np.isfinite(sums))
    np.testing.assert_allclose(sums, [np.abs(w @ batch).sum()] * 2,
                               rtol=1e-12, atol=0.0)


def test_a_c_subset_average_is_unbiased():
    # mean over all 2-subsets of trials/times equals the full batch value
    rng = np.random.default_rng(4)
    z = rng.normal(size=(4, 2, 4))
    u_c = rng.uniform(0.5, 1.5, size=(4, 4))
    want = compute_A_c(u_c, z, full_idx(4), full_idx(4))
    pairs = [np.array(p) for p in combinations(range(4), 2)]
    got = np.mean([compute_A_c(u_c, z, tr, tm)
                   for tr in pairs for tm in pairs], axis=0)
    assert np.max(np.abs(got - want)) < 1e-12


# --- supervised coupling matrix ---

def coupling(w, models, cfg, z, labels, trials, times):
    """B as the solver forms it: gather the batch, take each head's source
    gradient on the full time axis, contract with the time subset."""
    sub = z[trials]
    grad_s = [batch_loss_grads(model, np.einsum("c,nct->nt", w[m], sub),
                               labels[trials, m], cfg,
                               need_grad_theta=False)[1]
              for m, model in enumerate(models)]
    return compute_B(grad_s, component_major(z, trials, times), times)


def test_b_empty_models_is_zero():
    z = np.random.default_rng(5).normal(size=(2, 3, 8))
    b = coupling(np.eye(3), [], None, z, np.zeros((2, 0)),
                 full_idx(2), full_idx(8))
    assert np.array_equal(b, np.zeros((3, 3)))


def test_b_rows_beyond_targets_are_zero():
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(6)
    z = rng.normal(size=(3, 4, 16))
    labels = rng.normal(size=(3, 1))
    model = SupervisedTargetModel(TargetSchema("y", "continuous"),
                                  rng.normal(size=cfg.dim(16)))
    b = coupling(np.eye(4), [model], cfg, z, labels,
                 full_idx(3), full_idx(16))
    assert np.any(b[0] != 0.0)
    assert np.array_equal(b[1:], np.zeros((3, 4)))


def test_b_zero_theta_zero_label_is_zero():
    cfg = FeatureMapConfig(window=8, hop=4)
    z = np.random.default_rng(7).normal(size=(2, 2, 16))
    model = SupervisedTargetModel(TargetSchema("y", "continuous"),
                                  np.zeros(cfg.dim(16)))
    b = coupling(np.eye(2), [model], cfg, z, np.zeros((2, 1)),
                 full_idx(2), full_idx(16))
    assert np.max(np.abs(b)) < 1e-15


def test_b_is_gradient_of_mean_loss_in_w_row():
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(8)
    z = rng.normal(size=(3, 2, 16))
    labels = rng.normal(size=(3, 1))
    model = SupervisedTargetModel(TargetSchema("y", "continuous"),
                                  0.5 * rng.normal(size=cfg.dim(16)))
    w = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    b = coupling(w, [model], cfg, z, labels, full_idx(3), full_idx(16))

    def mean_loss(row):
        src = np.einsum("c,nct->nt", row, z)
        losses, _, _ = batch_loss_grads(model, src, labels[:, 0], cfg,
                                        need_grad_s=False,
                                        need_grad_theta=False)
        return float(np.mean(losses))

    h = 1e-6
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        fd = (mean_loss(w[0] + e) - mean_loss(w[0] - e)) / (2 * h)
        assert abs(fd - b[0, c]) < 1e-5 * max(1.0, abs(fd))


def test_b_time_subset_average_is_unbiased():
    cfg = FeatureMapConfig(window=8, hop=8)
    rng = np.random.default_rng(9)
    z = rng.normal(size=(2, 2, 8))
    labels = rng.normal(size=(2, 1))
    model = SupervisedTargetModel(TargetSchema("y", "continuous"),
                                  rng.normal(size=cfg.dim(8)))
    w = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
    want = coupling(w, [model], cfg, z, labels, full_idx(2), full_idx(8))
    subs = [np.array(s) for s in combinations(range(8), 3)]
    got = np.mean([coupling(w, [model], cfg, z, labels, full_idx(2), s)
                   for s in subs], axis=0)
    assert np.max(np.abs(got - want)) < 1e-12


# --- closed-form row update ---

def test_row_update_identity_fixed_point():
    # white moments, no supervision, no proximal pull: I is stationary
    st = UnmixingState.from_matrix(np.eye(3))
    for c in range(3):
        st = row_update(st, np.eye(3), np.zeros((3, 3)), c,
                        np.inf, 0.0)
    assert np.allclose(st.w, np.eye(3), atol=1e-14)


def test_row_update_satisfies_stationarity():
    # the r-problem gradient K r - e_c / r_c - b must vanish at the output
    rng = np.random.default_rng(10)
    for trial in range(20):
        c_dim = int(rng.integers(2, 5))
        m = rng.normal(size=(c_dim, c_dim))
        a_c = m @ m.T + 0.5 * np.eye(c_dim)
        w = rng.normal(size=(c_dim, c_dim)) + 2.0 * np.eye(c_dim)
        b_mat = 0.3 * rng.normal(size=(c_dim, c_dim))
        comp = int(rng.integers(0, c_dim))
        eta_u = float(rng.choice([0.5, 2.0, np.inf]))
        lam = float(rng.choice([0.0, 0.05]))
        st = UnmixingState.from_matrix(w)
        new = row_update(st, a_c, b_mat, comp, eta_u, lam)
        # recover r from the rows: new_row = r^T W
        r = np.linalg.solve(w.T, new.w[comp])
        inv_eta = 0.0 if np.isinf(eta_u) else 1.0 / eta_u
        k = w @ (a_c + inv_eta * np.eye(c_dim)) @ w.T
        b = w @ (inv_eta * w[comp] - lam * b_mat[comp])
        e = np.zeros(c_dim)
        e[comp] = 1.0
        resid = k @ r - e / r[comp] - b
        assert np.max(np.abs(resid)) < 1e-8 * max(1.0, np.abs(k @ r).max())
        assert r[comp] > 0.0
    # the closed form solved with scipy's Cholesky, on well-conditioned K
    for c_dim in range(2, 13):
        for eta_u in (0.5, np.inf):
            m = rng.normal(size=(c_dim, c_dim))
            a_c = m @ m.T / c_dim + 0.5 * np.eye(c_dim)
            w = np.eye(c_dim) + 0.3 / np.sqrt(c_dim) * rng.normal(
                size=(c_dim, c_dim))
            b_mat = 0.3 * rng.normal(size=(c_dim, c_dim))
            comp = int(rng.integers(0, c_dim))
            new = row_update(UnmixingState.from_matrix(w), a_c, b_mat, comp,
                             eta_u, 0.05)
            inv_eta = 0.0 if np.isinf(eta_u) else 1.0 / eta_u
            k = w @ (a_c + inv_eta * np.eye(c_dim)) @ w.T
            rhs = np.zeros((c_dim, 2))
            rhs[comp, 0] = 1.0
            rhs[:, 1] = w @ (inv_eta * w[comp] - 0.05 * b_mat[comp])
            sol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(k), rhs)
            half_b = 0.5 * sol[comp, 1]
            r_c = np.sqrt(sol[comp, 0] + half_b * half_b) + half_b
            want = (sol[:, 0] / r_c + sol[:, 1]) @ w
            assert np.max(np.abs(new.w[comp] - want)) <= \
                1e-12 * np.abs(want).max(), (c_dim, eta_u)


def test_row_update_is_local_minimum():
    rng = np.random.default_rng(11)
    a_c = np.array([[2.0, 0.3], [0.3, 1.0]])
    w = np.array([[1.0, 0.2], [-0.1, 1.5]])
    b_mat = np.array([[0.4, -0.2], [0.1, 0.3]])
    st = UnmixingState.from_matrix(w)
    new = row_update(st, a_c, b_mat, 0, 1.0, 0.1)

    def obj(row):
        cand = w.copy()
        cand[0] = row
        return per_iteration_objective(cand, w, lambda c: a_c, b_mat,
                                       1.0, 0.1)

    base = obj(new.w[0])
    for _ in range(200):
        pert = new.w[0] + 1e-4 * rng.normal(size=2)
        assert obj(pert) >= base - 1e-12


def test_row_update_preserves_det_sign():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 3))
    if np.linalg.det(w) > 0:
        w[0] = -w[0]                                  # force negative det
    st = UnmixingState.from_matrix(w)
    a_c = np.eye(3) * 1.3
    new = row_update(st, a_c, np.zeros((3, 3)), 1, np.inf, 0.0)
    assert np.sign(np.linalg.det(new.w)) == np.sign(np.linalg.det(w))


def test_row_update_only_reads_own_coupling_row():
    rng = np.random.default_rng(13)
    w = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    a_c = np.eye(3)
    b1 = rng.normal(size=(3, 3))
    b2 = b1.copy()
    b2[0] += 5.0
    b2[2] -= 3.0                                      # row 1 untouched
    st = UnmixingState.from_matrix(w)
    out1 = row_update(st, a_c, b1, 1, 2.0, 0.7)
    out2 = row_update(st, a_c, b2, 1, 2.0, 0.7)
    assert np.array_equal(out1.w, out2.w)


def test_row_update_rejects_singular_surrogate():
    # duplicated channel, no proximal regularization -> K singular
    z = np.random.default_rng(14).normal(size=(2, 1, 6))
    dup = np.concatenate([z, z], axis=1)              # (2, 2, 6) rank-1 rows
    a_c = compute_A_c(np.ones((2, 6)), dup, full_idx(2), full_idx(6))
    st = UnmixingState.from_matrix(np.eye(2))
    with pytest.raises(FactorizationError,
                       match="^row 0: K not positive definite$"):
        row_update(st, a_c, np.zeros((2, 2)), 0, np.inf, 0.0)


def test_row_update_rejects_indefinite_surrogate():
    # K = W A_c W^T = -I is nonsingular, so the solve alone would succeed
    # and the failure would surface later as a K^-1 diagonal that is not
    # positive; the Cholesky check names the cause
    st = UnmixingState.from_matrix(np.eye(3))
    with pytest.raises(FactorizationError,
                       match="^row 1: K not positive definite$"):
        row_update(st, -np.eye(3), np.zeros((3, 3)), 1, np.inf, 0.0)


def test_row_update_rejects_nonpositive_eta():
    st = UnmixingState.from_matrix(np.eye(2))
    with pytest.raises(ValueError):
        row_update(st, np.eye(2), np.zeros((2, 2)), 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        row_update(st, np.eye(2), np.zeros((2, 2)), 0, -1.0, 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", ["a_diag_nan", "a_offdiag_nan", "a_inf",
                                 "b_inf"])
def test_row_update_rejects_non_finite_input(bad):
    st = UnmixingState.from_matrix(np.eye(3))
    a_c, b_mat = np.eye(3), np.zeros((3, 3))
    if bad == "a_diag_nan":
        a_c[1, 1] = np.nan
    elif bad == "a_offdiag_nan":
        a_c[0, 2] = a_c[2, 0] = np.nan
    elif bad == "a_inf":
        a_c[2, 2] = np.inf
    else:
        b_mat[0, 1] = np.inf
    with pytest.raises(FactorizationError):
        row_update(st, a_c, b_mat, 0, 1.0, 0.5)


def assert_logdet_carried(state):
    sign, want = np.linalg.slogdet(state.w)
    assert sign != 0.0
    assert abs(state.logabsdet - want) <= 1e-10 * max(1.0, abs(want))


def test_sweep_carries_logdet_and_read_only_w():
    # each row update adds log r_c instead of refactoring W
    rng = np.random.default_rng(16)
    c_dim = 5
    batch = rng.laplace(size=(c_dim, 40, 30))
    a_set = weighted_moments(rng.uniform(0.5, 2.0, size=batch.shape), batch)
    st = UnmixingState.from_matrix(np.eye(c_dim)
                                   + 0.3 * rng.normal(size=(c_dim, c_dim)))
    for _ in range(10):
        b_mat = 0.2 * rng.normal(size=(c_dim, c_dim))
        st = cyclic_sweep(st, lambda c: a_set[c], b_mat, 0.5, 0.1)
        assert_logdet_carried(st)
        assert not st.w.flags.writeable


@pytest.mark.parametrize("stochastic", [True, False])
def test_fit_carries_logdet(stochastic):
    ds, _ = gen_dataset("multi_trial", 0, n_trials=8, channels=4,
                        samples=200)
    if stochastic:
        cfg = SolverConfig(iterations=200, batch_trials=4, batch_times=64,
                           trace_every=200)
        res = fit_stochastic(ds, cfg)
    else:
        res = fit_full_batch(ds, SolverConfig(iterations=50,
                                              trace_every=50))
    assert_logdet_carried(res.w_state)
    assert not res.w_state.w.flags.writeable


# --- cyclic sweep ---

def test_sweep_scalar_case_hits_closed_form():
    # C=1: minimize -log|w| + a w^2 / 2  ->  w* = sign(w0)/sqrt(a)
    a = 4.0
    st = UnmixingState.from_matrix(np.array([[3.0]]))
    st = cyclic_sweep(st, lambda c: np.array([[a]]), np.zeros((1, 1)),
                      np.inf, 0.0)
    assert abs(st.w[0, 0] - 0.5) < 1e-14
    st_neg = UnmixingState.from_matrix(np.array([[-3.0]]))
    st_neg = cyclic_sweep(st_neg, lambda c: np.array([[a]]),
                          np.zeros((1, 1)), np.inf, 0.0)
    assert abs(st_neg.w[0, 0] + 0.5) < 1e-14


def test_sweep_whitening_matrix_is_stationary():
    # shared A_c = Sigma: any W with W Sigma W^T = I is a fixed point
    rng = np.random.default_rng(15)
    m = rng.normal(size=(4, 4))
    sigma = m @ m.T + np.eye(4)
    vals, vecs = np.linalg.eigh(sigma)
    w = (vecs / np.sqrt(vals)) @ vecs.T               # Sigma^{-1/2}
    st = UnmixingState.from_matrix(w)
    out = cyclic_sweep(st, lambda c: sigma, np.zeros((4, 4)), np.inf, 0.0)
    assert np.max(np.abs(out.w - w)) < 1e-10


def test_sweep_converges_then_stalls():
    rng = np.random.default_rng(16)
    z = rng.normal(size=(3, 3, 50))
    u = np.ones((3, 3, 50))
    a_of = weighted_moments(u.transpose(1, 0, 2),
                            z.transpose(1, 0, 2)).__getitem__
    st = UnmixingState.from_matrix(np.eye(3))
    for _ in range(400):
        st = cyclic_sweep(st, a_of, np.zeros((3, 3)), np.inf, 0.0)
    before = st.w.copy()
    st = cyclic_sweep(st, a_of, np.zeros((3, 3)), np.inf, 0.0)
    assert np.max(np.abs(st.w - before)) < 1e-12


def test_sweep_never_increases_surrogate():
    rng = np.random.default_rng(17)
    for trial in range(10):
        c_dim = int(rng.integers(2, 5))
        mats = []
        for _ in range(c_dim):
            m = rng.normal(size=(c_dim, c_dim))
            mats.append(m @ m.T + 0.1 * np.eye(c_dim))
        w0 = rng.normal(size=(c_dim, c_dim)) + 2.0 * np.eye(c_dim)
        b_mat = 0.2 * rng.normal(size=(c_dim, c_dim))
        eta_u = float(rng.choice([0.3, 5.0, np.inf]))
        lam = 0.1
        st = UnmixingState.from_matrix(w0)
        j = per_iteration_objective(st.w, w0, mats.__getitem__, b_mat,
                                    eta_u, lam)
        for comp in range(c_dim):
            st = row_update(st, mats[comp], b_mat, comp, eta_u, lam)
            j_new = per_iteration_objective(st.w, w0, mats.__getitem__,
                                            b_mat, eta_u, lam)
            assert j_new <= j + 1e-10 * max(1.0, abs(j))
            j = j_new


# --- surrogate objective ---

def test_objective_identity_hand_case():
    # -log 1 + C/2 with white moments, no coupling, no proximal term
    for c_dim in (1, 2, 5):
        val = per_iteration_objective(np.eye(c_dim), np.eye(c_dim),
                                      lambda c: np.eye(c_dim),
                                      np.zeros((c_dim, c_dim)), np.inf, 0.0)
        assert abs(val - 0.5 * c_dim) < 1e-14


def test_objective_matches_naive_oracle():
    rng = np.random.default_rng(18)
    c_dim = 3
    w = rng.normal(size=(c_dim, c_dim)) + np.eye(c_dim)
    anchor = rng.normal(size=(c_dim, c_dim))
    mats = [np.eye(c_dim) + 0.1 * rng.normal(size=(c_dim, c_dim))
            for _ in range(c_dim)]
    mats = [0.5 * (m + m.T) for m in mats]
    b_mat = rng.normal(size=(c_dim, c_dim))
    eta_u, lam = 2.5, 0.7
    got = per_iteration_objective(w, anchor, mats.__getitem__, b_mat,
                                  eta_u, lam)
    want = -np.log(abs(np.linalg.det(w)))
    for c in range(c_dim):
        want += 0.5 * float(w[c] @ mats[c] @ w[c])
    for i in range(c_dim):
        for j in range(c_dim):
            want += lam * b_mat[i, j] * w[i, j]
            want += (w[i, j] - anchor[i, j]) ** 2 / (2 * eta_u)
    assert abs(got - want) < 1e-12


def test_objective_term_dropout():
    rng = np.random.default_rng(19)
    w = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    anchor = rng.normal(size=(2, 2))
    a_of = [np.eye(2), 2.0 * np.eye(2)].__getitem__
    b_mat = rng.normal(size=(2, 2))
    # lam = 0 removes the coupling term entirely
    v0 = per_iteration_objective(w, anchor, a_of, b_mat, np.inf, 0.0)
    v1 = per_iteration_objective(w, anchor, a_of, np.zeros((2, 2)),
                                 np.inf, 0.33)
    assert abs(v0 - v1) < 1e-14
    # eta_u = inf removes the proximal term
    v2 = per_iteration_objective(w, w + 100.0, a_of, b_mat, np.inf, 0.0)
    v3 = per_iteration_objective(w, w, a_of, b_mat, np.inf, 0.0)
    assert abs(v2 - v3) < 1e-14


def test_objective_singular_w_is_infinite():
    assert per_iteration_objective(np.zeros((2, 2)), np.eye(2),
                                   lambda c: np.eye(2), np.zeros((2, 2)),
                                   np.inf, 0.0) == np.inf
