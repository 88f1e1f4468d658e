"""``tools/bundled_outputs.py --compare``: the moved headline values of two
output trees and the share of the benchmark tolerance each uses."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bundled_outputs.py"
_spec = importlib.util.spec_from_file_location("bundled_outputs", _TOOL)
bundled_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bundled_outputs)


def _write(out: Path, name: str, metrics: dict, final_total=None):
    d = out / name
    d.mkdir(parents=True)
    report = {"metrics": {k: {"status": "ok", "value": v}
                          for k, v in metrics.items()}}
    (d / "report.json").write_text(json.dumps(report), encoding="utf-8")
    if final_total is not None:
        (d / "trainlog.csv").write_text(
            f"# config_hash=x seed=7\nstep,total\n1,{final_total!r}\n",
            encoding="utf-8")


def test_compare_lists_each_moved_headline_value_with_its_tolerance_share(
        tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, "run_rotation_pel", {"mmd2": 0.5, "smoothness": 2.0}, 7.0)
    _write(new, "run_rotation_pel", {"mmd2": 0.5, "smoothness": 2.02}, 7.0)
    _write(old, "certify_rotation_0", {"mmd2": 0.25})
    _write(new, "certify_rotation_0", {"mmd2": 0.25})
    _write(old, "certify_bernoulli_3", {"normalized_mi": 1.0})
    _write(new, "certify_bernoulli_3", {"normalized_mi": 1.0 + 1.001e-9})
    (old / "exit_codes.txt").write_text("", encoding="utf-8")
    lines = bundled_outputs.compare(old, new)
    # trained: 0.02 / (1e-3 + 2e-2 * 2.0) = 48.78 %; default:
    # 1.001e-9 / (1e-9 + 1e-6 * 1.0) = 0.10 %
    assert lines == [
        "certify_bernoulli_3 metrics.normalized_mi: 1.0 -> 1.000000001001 "
        "(0.10% of the default tolerance)",
        "run_rotation_pel metrics.smoothness: 2.0 -> 2.02 "
        "(48.78% of the trained tolerance)"]
    assert bundled_outputs.compare(old, old) == []
