"""Batch experiment driver.

Subcommands: run (train -> certify -> verify), certify (audit an external
embeddings CSV), verify-theory (scenario checks), list-worlds,
print-config-schema.  Exit codes: 0 success, 1 runtime failure, 2
usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import infotheory as it
from . import theory
from .config import ExperimentConfig, load_config, parse_config_text, schema_help
from .errors import ConfigurationError, ContractViolation, PelabError
from .metrics import (MetricInputs, MetricReport, certify, certify_encoder,
                      invariance_curve, uniform_grid)
from .numerics import Rng, make_encoder
from .svg import render_curve_svg
from .trainer import train_perception
from .worlds import WORLD_BUILDERS

_BUNDLED = Path(__file__).parent / "configs"


def _resolve_config(spec: str, seed=None) -> ExperimentConfig:
    path = Path(spec)
    if path.is_file():
        return load_config(path, seed)
    bundled = _BUNDLED / f"{spec}.cfg"
    if bundled.exists():
        return load_config(bundled, seed)
    raise ConfigurationError(
        f"config {spec!r} is neither a file nor a bundled name "
        f"(bundled: {', '.join(sorted(p.stem for p in _BUNDLED.glob('*.cfg')))})")


def _write(path: Path, text: str, quiet: bool):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if not quiet:
        print(f"wrote {path}")


def _emit_curves(report: MetricReport, out: Path, quiet: bool):
    for name, curve in report.curves.items():
        lines = [f"# config_hash={report.config_hash} seed={report.seed}",
                 "alpha,value"]
        lines += [f"{repr(float(a))},{repr(float(v))}"
                  for a, v in zip(curve.alphas, curve.values)]
        _write(out / "curves" / f"{name}.csv", "\n".join(lines) + "\n", quiet)
        svg = render_curve_svg(
            curve.alphas, curve.values, f"{name} (auc={curve.auc:.6g})",
            stamp=f"config_hash={report.config_hash} seed={report.seed}")
        _write(out / "plots" / f"{name}.svg", svg, quiet)


def _light_snapshot(enc, world, opts, chash: str, seed: int,
                    step: int) -> MetricReport:
    """Cheap mid-training snapshot: invariance AUC and code geometry only.
    Deterministic per (seed, step)."""
    opts = replace(opts, n=min(opts.n, 2048))
    rng = Rng(seed * 1_000_003 + step)
    z = enc.forward(world.sample_x(rng, opts.n))
    snap = certify(MetricInputs(z=z, encoder=enc, world=world), opts,
                   {"invariance_auc": rng}, names=("geometry", "invariance_auc"),
                   config_hash=chash, seed=seed)
    snap.notes.append(f"training snapshot at step {step}")
    return snap


def _verdicts_pass(report: MetricReport) -> bool:
    def collect(node):
        if isinstance(node, dict):
            if "passed" in node:
                yield bool(node["passed"])
            for v in node.values():
                yield from collect(v)
        elif isinstance(node, list):
            for v in node:
                yield from collect(v)

    return all(collect(report.theory))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    seed = cfg["seed"]
    chash = cfg.config_hash()
    world = cfg.world
    root = Rng(seed)
    init_rng, metrics_rng, theory_rng, aux_rng = root.split(4)

    enc = cfg.section("encoder", make_encoder, d_x=world.d_x, rng=init_rng)
    opts = cfg.metrics

    auc_before = None
    trained = cfg["train.steps"] >= 1
    if trained:
        if world.transforms.magnitude_parameterized:
            curve0 = invariance_curve(
                enc, world, uniform_grid(opts.curve_alpha_max, opts.curve_points),
                opts.n, aux_rng)
            auc_before = curve0.auc
        snapshot_fn = None
        if cfg.train.eval_every > 0:
            def snapshot_fn(step, snap_enc):
                snap = _light_snapshot(snap_enc, world, opts, chash, seed, step)
                rel = f"snapshots/step_{step}.json"
                _write(out / rel, snap.to_json(), quiet=True)
                return rel
        enc_final, log = train_perception(world, enc, cfg.train,
                                          snapshot_fn=snapshot_fn)
        out.mkdir(parents=True, exist_ok=True)
        log.write_csv(out / "trainlog.csv", chash, seed)
        if not quiet:
            print(f"wrote {out / 'trainlog.csv'}")
    else:
        enc_final = enc

    if cfg["metrics.enabled"]:
        report = certify_encoder(enc_final, world, opts, metrics_rng,
                                 config_hash=chash, seed=seed)
    else:
        report = MetricReport(config_hash=chash, seed=seed)

    if auc_before is not None:
        report.curves["invariance_untrained"] = curve0
        report.add("invariance_auc_untrained", value=auc_before)
        after = report.metrics.get("invariance_auc")
        if after is not None and after.status == "ok" and auc_before > 0:
            report.add("train_auc_ratio", value=after.value / auc_before)

    # theory section
    if cfg["theory.risk_table"]:
        report.theory["risk_table"] = theory.risk_table(world)
    if cfg["assert.risk_table_exact"]:
        report.theory["risk_table_exact"] = \
            theory.risk_table_verdict(world).to_dict()
    if cfg["theory.assumption_audit"]:
        report.theory["assumption_audit"] = [
            v.to_dict() for v in theory.assumption_audit(
                world, theory_rng, n=cfg["theory.n"])]
    if cfg["theory.two_stage"]:
        report.theory["two_stage"] = theory.two_stage_check(
            world, enc_final, theory_rng, n_train=cfg["theory.n"],
            resolution=cfg["theory.resolution"]).to_dict()
    ratio_max = cfg["assert.auc_ratio_max"]
    if np.isfinite(ratio_max):
        entry = report.metrics.get("train_auc_ratio")
        measured = entry.value if entry is not None else None
        report.theory["auc_ratio_assert"] = theory.TheoryVerdict(
            name="train_auc_ratio_max", measured={"ratio": measured},
            tolerance=ratio_max,
            passed=measured is not None and measured <= ratio_max,
            diagnostics={"auc_before": auc_before}).to_dict()

    _write(out / "report.json", report.to_json(), quiet)
    _emit_curves(report, out, quiet)
    _write(out / "config_echo.cfg",
           f"# config_hash={chash}\n" + cfg.canonical_text(), quiet)
    return 0 if _verdicts_pass(report) else 1


# ---------------------------------------------------------------------------
# certify (external embeddings)
# ---------------------------------------------------------------------------

def _read_embeddings_csv(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            header_line = fh.readline().strip()
            if not header_line:
                raise ContractViolation(f"{path}: empty file")
            header = [h.strip() for h in header_line.split(",")]
            dup = next((h for i, h in enumerate(header) if h in header[:i]),
                       None)
            if dup is not None:
                raise ContractViolation(f"{path}: duplicate column {dup!r}")
            rows = []
            for lineno, raw in enumerate(fh, start=2):
                if not raw.strip():
                    continue
                parts = raw.strip().split(",")
                if len(parts) != len(header):
                    raise ContractViolation(
                        f"{path}: row {lineno}: expected {len(header)} "
                        f"columns, got {len(parts)}")
                try:
                    row = [float(p) for p in parts]
                except ValueError as exc:
                    raise ContractViolation(
                        f"{path}: row {lineno}: {exc}") from None
                bad = [h for h, c in zip(header, row) if not math.isfinite(c)]
                if bad:
                    raise ContractViolation(f"{path}: row {lineno}, column "
                                            f"{bad[0]}: non-finite value")
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"{path}: cannot read embeddings: {exc}") from None
    if not rows:
        raise ContractViolation(f"{path}: no data rows")
    data = np.asarray(rows)
    cols = {name: data[:, j] for j, name in enumerate(header)}

    def gather(prefix):
        names = sorted((n for n in cols if n.startswith(prefix)
                        and n[len(prefix):].isdecimal()),
                       key=lambda n: int(n[len(prefix):]))
        if not names:
            return None
        return np.column_stack([cols[n] for n in names])

    z = gather("z_")
    if z is None:
        raise ContractViolation(f"{path}: no z_0..z_d columns found")
    t = cols.get("t")
    t_multi = gather("t_")
    return {"z": z, "x": gather("x_"),
            "v": cols.get("v"), "alpha": cols.get("alpha"),
            "t": t if t is not None else t_multi, "y": cols.get("y")}


def cmd_certify(embeddings_path: Path, cfg: ExperimentConfig, out: Path,
                quiet: bool) -> int:
    data = _read_embeddings_csv(embeddings_path)
    v, notes = data["v"], []
    if v is None and data["alpha"] is not None:
        v = it.quantile_codes(data["alpha"], cfg["metrics.mi_bins"])
        notes.append("nuisance v is the alpha column, quantile-binned")
    # one stream: the leakage probe draws from it first, the label probe next
    probe_rng, _ = Rng(cfg["seed"]).split(2)
    report = certify(
        MetricInputs(z=data["z"], x=data["x"], t=data["t"], v=v, y=data["y"]),
        cfg.metrics,
        {"leakage_probe_auc": probe_rng, "label_probe_accuracy": probe_rng},
        config_hash=cfg.config_hash(), seed=cfg["seed"])
    report.notes += notes
    _write(out / "report.json", report.to_json(), quiet)
    return 0


# ---------------------------------------------------------------------------
# verify-theory
# ---------------------------------------------------------------------------

def cmd_verify_theory(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    scenario = cfg["theory.scenario"]
    if not scenario:
        raise ConfigurationError("verify-theory requires theory.scenario")
    verdict, expected_pass, ok = cfg.section("theory", theory.run_scenario,
                                             seed=cfg["seed"])
    report = MetricReport(config_hash=cfg.config_hash(), seed=cfg["seed"])
    report.theory[scenario] = {
        "verdict": verdict.to_dict(),
        "expected": "pass" if expected_pass else "fail",
        "observed": "pass" if verdict.passed else "fail",
        "matches_expectation": bool(ok),
    }
    _write(out / "report.json", report.to_json(), quiet)
    if not quiet:
        print(f"{scenario}: expected "
              f"{'pass' if expected_pass else 'fail'}, observed "
              f"{'pass' if verdict.passed else 'fail'}"
              f" -> {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _check_out(out: Path) -> None:
    """Reject an ``--out`` that names a file or a path below one, so that
    the command fails before its work rather than at its first write."""
    for path in (out, *out.parents):
        if path.is_dir():
            return
        if path.exists() or path.is_symlink():
            raise ConfigurationError(
                f"--out {out}: {path} exists and is not a directory")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, and in-process callers run ``main`` many times."""
    parser = argparse.ArgumentParser(
        prog="pelab",
        description="perception-learning laboratory: train task-agnostic "
                    "encoders, certify them, and verify the separation theory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="config file path or bundled config name")
        p.add_argument("--out", default="pelab_out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quiet", action="store_true")

    common(sub.add_parser("run", help="train, certify, and verify per config"))
    pc = sub.add_parser("certify", help="certify an external embeddings CSV")
    pc.add_argument("embeddings", help="CSV with z_0..z_d and optional "
                                       "v/t/y/alpha/x_* columns")
    pc.add_argument("--config", default=None,
                    help="optional config (gamma, bins, seed)")
    pc.add_argument("--out", default="pelab_out")
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--quiet", action="store_true")
    common(sub.add_parser("verify-theory", help="run a theory scenario"))
    sub.add_parser("list-worlds", help="list available worlds")
    sub.add_parser("print-config-schema", help="print the config schema")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-worlds":
            for name, builder in sorted(WORLD_BUILDERS.items()):
                doc = (builder.__doc__ or "").strip().splitlines()[0]
                print(f"{name:14s} {doc}")
            return 0
        if args.command == "print-config-schema":
            print(schema_help(), end="")
            return 0

        if getattr(args, "config", None) is not None:
            cfg = _resolve_config(args.config, args.seed)
        else:
            cfg = parse_config_text("", source="<defaults>", seed=args.seed)
        out = Path(args.out)
        _check_out(out)

        if args.command == "run":
            return cmd_run(cfg, out, args.quiet)
        if args.command == "certify":
            return cmd_certify(Path(args.embeddings), cfg, out, args.quiet)
        if args.command == "verify-theory":
            return cmd_verify_theory(cfg, out, args.quiet)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PelabError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
