"""Densities, unsupervised loss, and the auxiliary-weight updates."""

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from mtsica.likelihood import (DEFAULT_U_MAX, aux_exact, aux_proximal,
                               get_density, variational_value)
from oracles import G_PRIME, unsup_loss

LAP = get_density("laplace")
HUB = get_density("huber")


def test_get_density_names():
    assert LAP.name == "laplace" and HUB.name == "huber"
    assert LAP.has_f and not HUB.has_f
    with pytest.raises(ValueError):
        get_density("gauss")


# --- density shape assumptions ---

@pytest.mark.parametrize("density", [LAP, HUB], ids=["laplace", "huber"])
def test_g_of_sqrt_nondecreasing_and_midpoint_concave(density):
    # numerically: x -> g(sqrt(x)) nondecreasing, midpoint-concave on (0, 100]
    grid = np.linspace(1e-3, 100.0, 3000)
    vals = density.g(np.sqrt(grid))
    assert np.all(np.diff(vals) >= -1e-12)
    mid = density.g(np.sqrt(0.5 * (grid[:-2] + grid[2:])))
    assert np.all(mid >= 0.5 * (vals[:-2] + vals[2:]) - 1e-10)


@pytest.mark.parametrize("density", [LAP, HUB], ids=["laplace", "huber"])
def test_g_prime_matches_finite_differences(density):
    # away from the kinks at 0 (laplace) and +-1 (huber)
    xs = np.concatenate([np.linspace(-4, -1.2, 40), np.linspace(-0.8, -0.1, 30),
                         np.linspace(0.1, 0.8, 30), np.linspace(1.2, 4, 40)])
    h = 1e-6
    fd = (density.g(xs + h) - density.g(xs - h)) / (2 * h)
    rel = (np.abs(G_PRIME[density.name](xs) - fd)
           / np.maximum(np.abs(fd), 1e-12))
    assert rel.max() < 1e-6


# --- unsupervised loss ---

def test_unsup_loss_zero_sources_identity():
    assert unsup_loss(0.0, np.zeros((2, 2)), LAP) == 0.0


def test_unsup_loss_scaled_identity():
    # W = 2I, z = 0: only the -log det term contributes
    logdet = float(np.linalg.slogdet(2.0 * np.eye(2))[1])
    got = unsup_loss(logdet, np.zeros((2, 4)), LAP)
    assert abs(got - (-2.0 * np.log(2.0))) < 1e-15


@pytest.mark.parametrize("density", [LAP, HUB], ids=["laplace", "huber"])
def test_unsup_loss_matches_scalar_loop(density):
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 3)) + np.eye(3)
    z = rng.normal(size=(3, 8))
    x = w @ z
    logdet = float(np.linalg.slogdet(w)[1])
    acc = 0.0
    for c in range(3):
        for t in range(8):
            acc += float(density.g(np.array(x[c, t])))
    want = -logdet + acc / 8
    assert abs(unsup_loss(logdet, x, density) - want) < 1e-12


# --- exact aux weights ---

def test_aux_exact_laplace_values():
    x = np.array([2.0, -2.0, 0.5, 0.0])
    u = aux_exact(x, LAP)
    assert np.allclose(u[:3], [0.5, 0.5, 2.0])
    assert u[3] == DEFAULT_U_MAX                       # clamp at x = 0


def test_aux_exact_huber_values():
    x = np.array([0.5, -0.9, 1.0, 3.0, 0.0])
    u = aux_exact(x, HUB)
    assert np.allclose(u, [1.0, 1.0, 1.0, 1.0 / 3.0, 1.0])


def test_aux_exact_custom_clamp():
    u = aux_exact(np.array([1e-6, 0.5]), LAP, u_max=10.0)
    assert np.array_equal(u, [10.0, 2.0])


def test_aux_exact_preserves_shape():
    x = np.random.default_rng(0).normal(size=(4, 3, 16))
    assert aux_exact(x, LAP).shape == x.shape


@pytest.mark.parametrize("density", [LAP, HUB], ids=["laplace", "huber"])
def test_aux_exact_out_is_filled_in_place(density):
    # x = 0 and |x| < 1/u_max hit the clamp; a transposed-view input
    # writes into a contiguous buffer of its shape
    x = np.random.default_rng(3).laplace(size=(4, 3, 16))
    x[0, 0, :3] = [0.0, 1e-9, -1e-9]
    x[1, 2, 5] = -0.0
    view = x.transpose(1, 0, 2)
    for sources in (x, view):
        want = aux_exact(sources, density, u_max=50.0)
        out = np.full(sources.shape, np.nan)
        got = aux_exact(sources, density, u_max=50.0, out=out)
        assert got is out
        assert np.array_equal(got, want)
        same = sources.copy()           # the sources themselves as out
        assert aux_exact(same, density, u_max=50.0, out=same) is same
        assert np.array_equal(same, want)
    assert np.all(want[0, 0, :3] == (50.0 if density is LAP else 1.0))


# --- the variational identity behind the laplace weights ---

def test_laplace_variational_identity():
    # min_u u x^2/2 + 1/(2u) = |x| with minimizer u = 1/|x|
    for x in np.linspace(-5, 5, 41):
        if x == 0:
            continue
        res = minimize_scalar(lambda u: 0.5 * u * x * x + 0.5 / u,
                              bounds=(1e-9, 1e9), method="bounded",
                              options={"xatol": 1e-14})
        assert abs(res.fun - abs(x)) < 1e-10


def test_aux_exact_is_entrywise_argmin():
    rng = np.random.default_rng(8)
    x = rng.laplace(size=(2, 3, 5))
    x[np.abs(x) < 1e-2] = 0.3                          # stay off the clamp
    u_star = aux_exact(x, LAP)
    base = variational_value(x, u_star, LAP)
    for delta in (1e-3, -1e-3):
        pert = variational_value(x, u_star + delta, LAP)
        assert np.all(pert >= base - 1e-15)


def test_monotone_substitution_never_increases_bound():
    rng = np.random.default_rng(9)
    x = rng.laplace(size=(3, 4, 8))
    u0 = rng.uniform(0.2, 5.0, size=x.shape)
    before = variational_value(x, u0, LAP).sum()
    after = variational_value(x, aux_exact(x, LAP), LAP).sum()
    assert after <= before + 1e-12


def test_variational_value_tightness():
    # at the exact minimizer the bound equals g(x) (x off the clamp)
    x = np.array([0.3, -1.7, 2.2])
    vals = variational_value(x, aux_exact(x, LAP), LAP)
    assert np.allclose(vals, np.abs(x), atol=1e-12)
    with pytest.raises(ValueError):
        variational_value(x, np.ones(3), HUB)


# --- proximal aux update ---

def test_aux_proximal_limit_matches_exact():
    # at eta_a = 1e12 the proximal pull (u - u_prev)/eta_a is only
    # negligible while u stays moderate, so keep |x| off the flat tail
    rng = np.random.default_rng(10)
    x = rng.laplace(size=200)
    x = np.sign(x) * np.maximum(np.abs(x), 0.05)
    u_prev = rng.uniform(0.1, 10.0, size=200)
    far = aux_proximal(x, u_prev, 1e12, LAP)
    assert np.max(np.abs(far - aux_exact(x, LAP)) /
                  np.maximum(aux_exact(x, LAP), 1.0)) < 1e-6


def test_aux_proximal_fixed_point():
    x = np.array([0.4, -1.3, 2.0, 5.0])
    u_star = aux_exact(x, LAP)
    for eta_a in (0.1, 1.0, 37.0):
        u_next = aux_proximal(x, u_star, eta_a, LAP)
        assert np.max(np.abs(u_next - u_star) / u_star) < 1e-10


def test_aux_proximal_hand_case():
    # x=1, u_prev=1, eta_a=1: d/du [u/2 + 1/(2u) + (u-1)^2/2] = 0 at u=1
    u = aux_proximal(np.array([1.0]), np.array([1.0]), 1.0, LAP)
    assert abs(float(u[0]) - 1.0) < 1e-12


def test_aux_proximal_matches_scalar_brute_force():
    def psi(u, x, up, ea):
        return 0.5 * u * x * x + 0.5 / u + (u - up) ** 2 / (2 * ea)

    rng = np.random.default_rng(11)
    for _ in range(40):
        x = float(rng.laplace())
        up = float(rng.uniform(0.05, 20.0))
        ea = float(rng.uniform(0.1, 10.0))
        got = float(aux_proximal(np.array([x]), np.array([up]), ea, LAP)[0])
        ref = minimize_scalar(psi, bounds=(1e-12, 1e9), args=(x, up, ea),
                              method="bounded", options={"xatol": 1e-13}).x
        assert abs(got - ref) / ref < 1e-6


def test_aux_proximal_respects_clamp():
    u = aux_proximal(np.array([0.0]), np.array([40.0]), 1e12, LAP, u_max=50.0)
    assert float(u[0]) <= 50.0


def test_aux_proximal_rejects_huber_and_bad_eta():
    with pytest.raises(ValueError):
        aux_proximal(np.ones(3), np.ones(3), 1.0, HUB)
    with pytest.raises(ValueError):
        aux_proximal(np.ones(3), np.ones(3), 0.0, LAP)


def test_aux_proximal_matches_brentq_on_extreme_entries():
    # one call on the whole grid, so entries that need many Newton steps
    # share it with entries that need none
    x, up, ea = (a.ravel() for a in np.meshgrid(
        [0.0, 1e-9, -1e-9, 1e-3, 1.0, 1e6], [1e-6, 1.0, 50.0, 1e8],
        [1e-6, 1.0, 1e12], indexing="ij"))
    eps = np.finfo(np.float64).eps
    for eta_a in np.unique(ea):
        sel = ea == eta_a
        got = aux_proximal(x[sel], up[sel], eta_a, LAP, u_max=np.inf)
        for xi, ui, gi in zip(x[sel], up[sel], got):
            # the root lies between 1/|x| and u_prev; for x = 0 psi' >= 0
            # at u_prev + eta_a/(2 u_prev^2)
            ends = ((ui, ui + eta_a / (2.0 * ui * ui)) if xi == 0.0
                    else (1.0 / abs(xi), ui))
            # widen by a few ulp so rounded end points still bracket it
            lo, hi = min(ends) * (1.0 - 4 * eps), max(ends) * (1.0 + 4 * eps)
            ref = brentq(lambda u: (0.5 * xi * xi - 0.5 / (u * u)
                                    + (u - ui) / eta_a),
                         lo, hi, xtol=1e-300, rtol=4 * eps)
            assert abs(gi - ref) <= 1e-12 * ref, (xi, ui, eta_a, gi, ref)
    # the climb starts at min(1/|x|, u_prev), so u_prev must be positive
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            aux_proximal(np.ones(2), np.array([1.0, bad]), 1.0, LAP)


def test_aux_proximal_descends_its_own_objective():
    # one step never increases psi, hence never increases the bound value
    rng = np.random.default_rng(12)
    x = rng.laplace(size=100)
    u_prev = rng.uniform(0.05, 30.0, size=100)
    u_next = aux_proximal(x, u_prev, 1.0, LAP)
    before = variational_value(x, u_prev, LAP)
    after = variational_value(x, u_next, LAP) + (u_next - u_prev) ** 2 / 2.0
    assert np.all(after <= before + 1e-12)
