"""
Measuring the effect of label supervision
=========================================

Unsupervised runs on ill-conditioned mixings can fall into bad local
minima from unlucky inits; a tiny label-coupling weight (lambda = 3e-5)
is meant to pull such runs back toward the true unmixing.  This script
runs the comparison protocol: fit several seeds with and without
supervision, call a seed a success if it lands within 3x of the best
unsupervised result, and compare success rates.  Supervision must never
lower the rate.

At this desk scale (200 trials, 6 channels, 800 iterations) every seed
lands in the same tight cluster, so both rates come out 1.00.  The
acceptance suite's larger instance (500 trials, 1000 iterations, 20
seeds) measures 1.00 against 1.00 too: no instance in this repository
yet has failing runs for supervision to rescue.  The protocol and the
"never hurts" check are the point here.  Takes a couple of minutes.
"""

import numpy as np

from mtsica.metrics import success_rate
from mtsica.solver import SolverAbort, SolverConfig, fit_stochastic
from mtsica.supervision import FeatureMapConfig
from mtsica.synthgen import gen_dataset

fm = FeatureMapConfig(log_power=True)
ds, mixing = gen_dataset("supervision", seed=7, n_trials=200, channels=6,
                         samples=256, n_targets=2, kappa=5.0, fm_cfg=fm)
print("mixing condition number:", round(np.linalg.cond(mixing), 1))

base = dict(iterations=800, eta_u=1e-3, eta_p=1e-3, optimizer="adamw",
            batch_trials=64, batch_times=128, trace_every=800,
            log_power=True)
n_seeds = 8

finals = {}
for lam in (0.0, 3e-5):
    vals = []
    for seed in range(n_seeds):
        cfg = SolverConfig(lam=lam, seed=seed, **base)
        try:
            res = fit_stochastic(ds, cfg, ground_truth=mixing)
            vals.append(res.trace.final().amari)
        except SolverAbort:
            vals.append(np.inf)   # a diverged run is a failure
    finals[lam] = np.array(vals)
    tag = "supervised  " if lam else "unsupervised"
    print(f"{tag} (lambda={lam:g}): " +
          " ".join(f"{v:.2f}" for v in vals))

threshold = 3.0 * finals[0.0].min()
print(f"\nsuccess threshold (3x best unsupervised): {threshold:.3f}")
for lam in (0.0, 3e-5):
    rate = success_rate(finals[lam], threshold)
    print(f"  lambda={lam:g}: success rate {rate:.2f}")
assert success_rate(finals[3e-5], threshold) >= \
    success_rate(finals[0.0], threshold)
print("supervision did not hurt the success rate")
