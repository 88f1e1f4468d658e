"""Acceptance criteria, one test per criterion, each printing a pass/fail
line and asserting at the stated tolerance and runtime budget."""

import time

import numpy as np
import pytest

from pelab.cli import main as cli_main
from pelab.metrics import (invariance_curve, leakage_probe, normalized_mi,
                           sufficiency_surrogate, uniform_grid,
                           geometry_diagnostics)
from pelab.numerics import Encoder, Rng, finite_diff, make_encoder
from pelab.objectives import ObjectiveSpec, perc_loss
from pelab.theory import bayes_risk, run_scenario
from pelab.trainer import TrainConfig, train_head, train_perception
from pelab.worlds import (make_bernoulli_uv_world, make_rotation_world,
                          sample_batch)

from conftest import identity_encoder, relative_l2_error


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_risk_table_exact():
    t0 = time.time()
    law = make_bernoulli_uv_world().atoms()
    reps = {"full": law.x, "good": law.x[:, 1], "bad": law.x[:, 0]}
    zo = {rep: bayes_risk(codes, law, "zero_one")
          for rep, codes in reps.items()}
    h_u = bayes_risk(reps["bad"], law, "log")    # H(Y | U) in bits
    h_v = bayes_risk(reps["good"], law, "log")   # H(Y | V) in bits
    elapsed = time.time() - t0
    ok = (abs(zo["full"]) <= 1e-12 and abs(zo["good"]) <= 1e-12
          and abs(zo["bad"] - 0.5) <= 1e-12
          and abs(h_u - 1.0) <= 1e-12 and abs(h_v) <= 1e-12
          and elapsed < 1.0)
    _report(1, ok, f"risks={tuple(zo.values())} H(Y|U)={h_u} H(Y|V)={h_v} "
                   f"[{elapsed:.3f}s]")


def test_criterion_02_over_invariance_reproduction():
    t0 = time.time()
    world = make_bernoulli_uv_world()
    enc_bad = Encoder("linear", np.array([[1.0, 0.0]]), np.zeros(1))   # Z = U
    enc_good = Encoder("linear", np.array([[0.0, 1.0]]), np.zeros(1))  # Z = V
    accs_bad, accs_good = [], []
    for seed in range(5):
        rng = Rng(seed)
        head_bad = train_head(enc_bad, world, rng, label_budget=10_000)
        head_good = train_head(enc_good, world, rng, label_budget=10_000)
        x, y = world.sample_xy(Rng(seed + 100), 4096)
        accs_bad.append(float(np.mean(head_bad.predict(enc_bad.forward(x)) == y)))
        accs_good.append(float(np.mean(head_good.predict(enc_good.forward(x)) == y)))
    elapsed = time.time() - t0
    ok = (all(0.45 <= a <= 0.55 for a in accs_bad)
          and all(a >= 0.99 for a in accs_good) and elapsed < 10.0)
    _report(2, ok, f"bad={['%.3f' % a for a in accs_bad]} "
                   f"good={['%.3f' % a for a in accs_good]} [{elapsed:.1f}s]")


def test_criterion_03_theorem_verification_and_violations():
    t0 = time.time()
    results = {name: run_scenario(name, seed=11)
               for name in ("orthogonality_rotation",
                            "over_invariance_bernoulli", "merged_orbits")}
    orth = results["orthogonality_rotation"][0]
    theorem_ok = (orth.passed
                  and orth.measured["max_abs_directional_derivative"] <= 1e-3
                  and orth.measured["max_abs_delta_f"] <= 1e-3)
    violations_ok = all(
        (not results[name][0].passed)
        and results[name][0].measured["risk_increase"] >= 0.1
        for name in ("over_invariance_bernoulli", "merged_orbits"))
    elapsed = time.time() - t0
    ok = theorem_ok and violations_ok and elapsed < 60.0
    _report(3, ok, f"|DvF|={orth.measured['max_abs_directional_derivative']:.2e} "
                   f"|dF|={orth.measured['max_abs_delta_f']:.2e} "
                   f"violation increases="
                   f"{[results[n][0].measured['risk_increase'] for n in ('over_invariance_bernoulli', 'merged_orbits')]} "
                   f"[{elapsed:.1f}s]")


def test_criterion_04_gradient_correctness():
    t0 = time.time()
    world = make_rotation_world()
    rng = Rng(4242)
    worst = 0.0
    for trial in range(20):
        arch = "linear" if trial % 3 == 0 else "mlp1"
        d_z = 2 if trial % 2 == 0 else int(rng.integers(3, 6))
        enc = make_encoder(arch, 2, d_z, int(rng.integers(3, 9)), rng)
        batch = sample_batch(world, int(rng.integers(8, 33)), rng,
                             with_labels=False)
        spec = ObjectiveSpec(
            beta_inv=float(rng.uniform(0.0, 2.0)),
            use_nce=bool(rng.uniform() < 0.8),
            tau=float(rng.uniform(0.3, 1.5)),
            gamma=float(rng.uniform(0.2, 0.6)),
            w_var=float(rng.uniform(0.0, 2.0)),
            w_cov=float(rng.uniform(0.0, 2.0)),
            w_eq=float(rng.uniform(0.1, 1.0)) if (d_z == 2 and trial % 4 == 0) else 0.0,
            sim="dot" if trial % 2 == 0 else "cosine",
            symmetric_nce=bool(trial % 2))
        _, grad, _ = perc_loss(enc, batch, spec, rho_source=world.transforms)

        def f(p, enc=enc, batch=batch, spec=spec):
            e = enc.copy()
            e.set_flat_params(p)
            total, _, _ = perc_loss(e, batch, spec,
                                    rho_source=world.transforms)
            return total

        err = relative_l2_error(grad, finite_diff(f, enc.get_flat_params(), 1e-5))
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _report(4, ok, f"worst rel L2 err {worst:.2e} over 20 triples [{elapsed:.1f}s]")


def test_criterion_05_invariance_curve_oracle(unit_circle_world):
    grid = uniform_grid(np.pi, 33)
    curve = invariance_curve(identity_encoder(2), unit_circle_world, grid,
                             10_000, Rng(55))
    oracle = 2.0 * (1.0 - np.cos(grid))
    pointwise_ok = bool(np.all(np.abs(curve.values - oracle)
                               <= 0.02 * oracle + 1e-12))
    auc_ok = abs(curve.auc - 2.0 * np.pi) <= 0.02 * 2.0 * np.pi
    _report(5, pointwise_ok and auc_ok,
            f"AUC={curve.auc:.5f} vs 2pi={2 * np.pi:.5f}")


def test_criterion_06_perception_training_effect():
    t0 = time.time()
    world = make_rotation_world()
    grid = uniform_grid(np.pi, 33)
    gamma = 1.0
    results = []
    for seed in range(3):
        enc0 = make_encoder("mlp1", 2, 4, 32, Rng(seed), init_scale=4.0)
        spec = ObjectiveSpec(beta_inv=1.0, use_nce=True, tau=0.5, sim="cosine",
                             gamma=gamma, w_var=10.0, w_cov=1.0)
        cfg = TrainConfig(steps=2000, batch_size=256, lr=3e-3,
                          optimizer="adam", seed=seed, objective=spec,
                          sigma_aug=0.8)
        enc1, _ = train_perception(world, enc0, cfg)
        auc0 = invariance_curve(enc0, world, grid, 4096, Rng(seed + 1000)).auc
        auc1 = invariance_curve(enc1, world, grid, 4096, Rng(seed + 1000)).auc
        z = enc1.forward(world.sample_xy(Rng(seed + 2000), 4096)[0])
        min_var = min(geometry_diagnostics(z, gamma)["per_dim_variance"])
        results.append((auc1 / auc0, min_var))
    elapsed = time.time() - t0
    ok = (all(r <= 0.5 for r, _ in results)
          and all(v >= gamma / 2.0 for _, v in results)
          and elapsed < 300.0)
    _report(6, ok, f"auc ratios={['%.3f' % r for r, _ in results]} "
                   f"min vars={['%.3f' % v for _, v in results]} [{elapsed:.0f}s]")


def test_criterion_07_leakage_calibration():
    rng = Rng(77)
    n = 10_000
    z_indep = rng.normal(size=(n, 3))
    v = rng.integers(0, 2, size=n)
    res_indep = leakage_probe(z_indep, v, Rng(78))
    nmi_indep = normalized_mi(z_indep, v)

    z_leaky = np.column_stack([v.astype(float), rng.normal(size=n)])
    res_leaky = leakage_probe(z_leaky, v, Rng(79))
    nmi_leaky = normalized_mi(z_leaky, v)

    ok = (0.45 <= res_indep["auc"] <= 0.55 and nmi_indep <= 0.05
          and res_leaky["auc"] >= 0.99 and nmi_leaky >= 0.95)
    _report(7, ok, f"independent: auc={res_indep['auc']:.3f} nmi={nmi_indep:.3f}; "
                   f"leaky: auc={res_leaky['auc']:.3f} nmi={nmi_leaky:.3f}")


def test_criterion_08_sufficiency_exactness():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    t = x[:, 0]
    cmi_u = sufficiency_surrogate(x[:, [0]], x, t)   # Z = U
    cmi_full = sufficiency_surrogate(x, x, t)        # Z = (U, V)
    ok = abs(cmi_u) <= 1e-12 and abs(cmi_full - 1.0) <= 1e-12
    _report(8, ok, f"I(X;U|T)={cmi_u} I(X;(U,V)|T)={cmi_full}")


@pytest.mark.parametrize("command,config_name", [
    ("run", "bernoulli_counterexample"),
    ("run", "rotation_pel"),
    ("verify-theory", "merged_orbits"),
])
def test_criterion_09_determinism(tmp_path, command, config_name):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{config_name}_{tag}"
        code = cli_main([command, "--config", config_name,
                         "--out", str(out), "--quiet"])
        assert code == 0, f"{config_name} exited {code}"
        outs.append(out)
    report_same = (outs[0] / "report.json").read_bytes() == \
        (outs[1] / "report.json").read_bytes()
    log_a, log_b = outs[0] / "trainlog.csv", outs[1] / "trainlog.csv"
    log_same = (log_a.read_bytes() == log_b.read_bytes()) \
        if log_a.exists() else (not log_b.exists())
    _report(9, report_same and log_same,
            f"{config_name}: report bytes equal={report_same}, "
            f"trainlog equal={log_same}")


def test_criterion_10_separation_contract():
    violations = 0
    checked = 0
    worlds = [make_bernoulli_uv_world(), make_rotation_world()]
    for wi, world in enumerate(worlds):
        for seed in range(3):
            enc = make_encoder("mlp1", 2, 3, 8, Rng(seed + 10 * wi),
                               init_scale=2.0)
            before = enc.get_flat_params().tobytes()
            muts = enc.mutation_count
            train_head(enc, world, Rng(seed), label_budget=1024)
            checked += 1
            if enc.get_flat_params().tobytes() != before \
                    or enc.mutation_count != muts:
                violations += 1
    _report(10, violations == 0,
            f"{checked} train_head calls audited, {violations} mutations")
