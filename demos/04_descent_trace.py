"""
Watching the objective go downhill
==================================

The solver alternates three closed-form/explicit blocks: auxiliary
weights, model parameters, and a cyclic sweep of unmixing rows.  With
rates below their stability ceilings the full objective F never
increases.  This script derives safe rates from the data, runs a
supervised full-batch fit, verifies monotone descent, and shows that
the cheap proximal auxiliary update lands on the same answer as exact
minimization.
"""

from mtsica.prng import Xoshiro256pp
from mtsica.solver import SolverConfig, compute_rate_guards, fit_full_batch
from mtsica.supervision import FeatureMapConfig, init_model
from mtsica.synthgen import gen_dataset

fm = FeatureMapConfig(log_power=True)
ds, mixing = gen_dataset("supervision", seed=3, n_trials=8, channels=3,
                         samples=256, n_targets=1, kappa=1.0, fm_cfg=fm)

# PART I: rates from the descent guards ---------------------------------
models = [init_model(t, fm.dim(ds.samples), Xoshiro256pp(9))
          for t in ds.targets]
guards = compute_rate_guards(ds, models, lam=1e-3, mu=0.0, fm_cfg=fm)
print(f"eta_u ceiling {guards.eta_u_max:.4g}   "
      f"eta_p ceiling {guards.eta_p_max:.4g}")

base = dict(iterations=200, eta_u=0.5 * guards.eta_u_max,
            eta_p=0.5 * guards.eta_p_max, lam=1e-3, mu=0.0,
            optimizer="sgd_wd", u_max=5.0, log_power=True,
            trace_every=25, seed=0)

# PART II: full-batch fit, exact auxiliary update -----------------------
res = fit_full_batch(ds, SolverConfig(**base), ground_truth=mixing)
print("\n    k        F    unsup      sup    amari")
for rec in res.trace.records:
    print(f"  {rec.k:4d}  {rec.f_value:7.4f}  {rec.loss_unsup:7.4f}  "
          f"{rec.loss_sup:7.4f}  {rec.amari:7.4f}")

fs = [r.f_value for r in res.trace.records]
print("monotone:", all(b <= a for a, b in zip(fs, fs[1:])))

# PART III: proximal auxiliary update, same instance --------------------
prox = fit_full_batch(ds, SolverConfig(eta_a=1.0, **base),
                      ground_truth=mixing)
fe, fp = res.trace.final().f_value, prox.trace.final().f_value
print(f"\nfinal F  exact {fe:.6f}   proximal {fp:.6f}   "
      f"rel diff {abs(fp - fe) / abs(fe):.2e}")

# PART IV: the trace is a CSV you can keep ------------------------------
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trace.csv"
    res.trace.to_csv(path, header_lines=("descent demo",),
                     include_timing=False)
    print("\n" + "\n".join(path.read_text().splitlines()[:5]))
