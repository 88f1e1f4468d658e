"""Correctness of one op's output.

An op fails when its exit code is not 0, when ``report.json`` does not parse
under a strict parser that rejects ``NaN``/``Infinity``, when a verdict it
must pass is false, or, in the reference round, when a headline value leaves
``reference.json`` by more than ``TOLERANCE`` below.  The sha256 of
each reference-round report is compared too; a changed digest is reported
but is no failure, since a change may shift report bytes by rounding.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Training for 2 000 steps amplifies rounding: a fused InfoNCE that agrees to
# 1e-16 per step moved trained headline values by up to 8e-5 (relative).
TOLERANCE = {"trained": {"rel": 2e-2, "abs": 1e-3},
             "default": {"rel": 1e-6, "abs": 1e-9}}
TRAINED_KEYS = ("run:rotation_pel",)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def _lookup(doc, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _numbers(node, prefix, out):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
    elif isinstance(node, dict):
        for k, v in node.items():
            _numbers(v, f"{prefix}.{k}", out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _numbers(v, f"{prefix}.{i}", out)


def headline(report: dict, out_dir: Path) -> dict:
    """Values a reader of the report would quote: every ``ok`` metric value,
    the measured values of each theory verdict, the risk table, and the last
    total loss of the training log."""
    values = {}
    for name, entry in report.get("metrics", {}).items():
        v = entry.get("value")
        if entry.get("status") == "ok" and isinstance(v, (int, float)) \
                and not isinstance(v, bool):
            values[f"metrics.{name}"] = float(v)
    for name, node in report.get("theory", {}).items():
        if name == "risk_table":
            _numbers(node, "theory.risk_table", values)
        elif isinstance(node, dict):
            verdict = node.get("verdict", node)
            _numbers(verdict.get("measured"), f"theory.{name}.measured", values)
        elif isinstance(node, list):
            for i, verdict in enumerate(node):
                _numbers(verdict.get("measured"), f"theory.{name}.{i}.measured",
                         values)
    log = out_dir / "trainlog.csv"
    if log.exists():
        last = log.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
        values["trainlog.final_total"] = float(last.split(",")[-1])
    return values


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["ops"]


def check_op(op, rc: int, out_dir: Path, reference: dict) -> dict:
    """Return {"ok": bool, "errors": [...], "sha256": str | None,
    "sha_changed": bool | None}."""
    errors, digest, sha_changed = [], None, None
    if rc != 0:
        errors.append(f"exit code {rc}")
    report_path = out_dir / "report.json"
    report = None
    try:
        report = strict_load(report_path)
    except (OSError, ValueError) as exc:
        errors.append(f"report.json: {exc}")
    if report is not None:
        for path in op.expect:
            value = _lookup(report, path)
            if value is not True:
                errors.append(f"{path} is {value!r}, expected true")
        if op.reference:
            digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
            ref = reference.get(op.key)
            if ref is None:
                errors.append(f"no reference recorded for {op.key}")
            else:
                sha_changed = digest != ref["sha256"]
                tol = TOLERANCE["trained" if op.key in TRAINED_KEYS
                                else "default"]
                got = headline(report, out_dir)
                for name, want in ref["headline"].items():
                    have = got.get(name)
                    if have is None or not math.isfinite(have) or \
                            abs(have - want) > tol["abs"] + tol["rel"] * abs(want):
                        errors.append(f"{name} = {have!r}, reference {want!r}")
    return {"ok": not errors, "errors": errors, "sha256": digest,
            "sha_changed": sha_changed}
