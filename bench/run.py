"""pelab benchmark: closed-loop runs of the public CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, both modes

Run from the repository root; pelab is imported from ``src/``.  One client
runs one op at a time: an op is one CLI command with ``--quiet`` and its own
output directory.  The loop runs whole rounds of ops (see ``workloads.py``)
and starts another round only while it should still end within S seconds.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each round
untraced and then traced with the same seeds, requires byte-identical
reports from both, and reports per-layer metrics from the traced ops, process
counters from the untraced ones, and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it give machine facts, reference digests and a readable table.
Exit code: 0 when every op passed its checks, 1 when one failed, 2 when the
directory holds no pelab source.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4           # per side of the measured loop

END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("op_s_p90", "s"),
              ("ops_per_s", "1/s"), ("cpu_s_per_op", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class OpResult:
    op: workloads.Op
    out: Path
    rc: int
    wall: float
    user: float
    sys: float
    minflt: int
    maxrss_mb: float
    traced: bool = False
    check: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Machine facts (recorded only; no setting is changed)
# ---------------------------------------------------------------------------

def _blas() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for fn_name in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "PEL_THREADS": os.environ.get("PEL_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_model": cpu, "loadavg_1m": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def _wait4(proc: subprocess.Popen):
    """Reap ``proc`` and return its resource usage; on interrupt, kill it
    first so no child outlives the benchmark."""
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.work = root / ".bench_work" / f"{workload}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.reference = checks.load_reference()
        self.fixtures = {}
        self.n_out = 0

    def make_fixtures(self) -> None:
        from fixtures import write_fixtures

        for s in workloads.fixture_seeds(self.workload, self.seed):
            self.fixtures[s] = write_fixtures(self.work / "fixtures", s)

    def setup_times(self) -> list[float]:
        """Fresh interpreter until ``import pelab.cli`` returns."""
        code = "import time, pelab.cli; print(repr(time.monotonic()))"
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            done = subprocess.run([sys.executable, "-c", code], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  check=True)
            times.append(float(done.stdout) - t0)
        return times

    def _out_dir(self) -> Path:
        self.n_out += 1
        return self.work / "ops" / f"op{self.n_out}"

    def run_process_op(self, op: workloads.Op, traced: bool) -> OpResult:
        out = self._out_dir()
        out.parent.mkdir(parents=True, exist_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "launch.py"), "--spans",
                   str(out) + ".spans.json", "--"]
        else:
            cmd = [sys.executable, "-m", "pelab.cli"]
        cmd += op.argv + ["--out", str(out), "--quiet"]
        with open(str(out) + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            ru = _wait4(proc)
            wall = time.perf_counter() - t0
        return OpResult(op, out, proc.returncode, wall, ru.ru_utime,
                        ru.ru_stime, ru.ru_minflt, ru.ru_maxrss / 1024.0,
                        traced)

    def run_sweep(self, seconds: float, traced: bool):
        """One in-process ``sweep.py`` child; returns (ops, elapsed)."""
        tag = "traced" if traced else "plain"
        record = self.work / f"sweep_{tag}.json"
        out = self.work / f"sweep_{tag}"
        cmd = [sys.executable, str(HERE / "sweep.py"), "--seed", str(self.seed),
               "--seconds", repr(seconds), "--out", str(out),
               "--record", str(record)]
        if traced:
            cmd += ["--spans", str(self.work / "sweep_spans.json")]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        ru = _wait4(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"sweep child exited {proc.returncode}")
        doc = json.loads(record.read_text(encoding="utf-8"))
        rss = ru.ru_maxrss / 1024.0
        results, by_round = [], {}
        for rec in doc["ops"]:
            k = rec["round"]
            if k not in by_round:
                by_round[k] = iter(workloads.round_ops(self.workload, self.seed,
                                                       k, {}))
            results.append(OpResult(next(by_round[k]), Path(rec["out"]),
                                    rec["rc"], rec["wall"], rec["user"],
                                    rec["sys"], rec["minflt"], rss, traced))
        return results, doc["elapsed"]

    def _rounds(self, seconds: float):
        """Yield the op lists of whole rounds.  Another round starts only
        while the last round, repeated, would still end within ``seconds``,
        so a run ends near its time and always completes round 0."""
        self._start = time.perf_counter()
        k, last = 0, 0.0
        while k == 0 or time.perf_counter() - self._start + last <= seconds:
            began = time.perf_counter()
            yield workloads.round_ops(self.workload, self.seed, k, self.fixtures)
            last = time.perf_counter() - began
            k += 1

    def measure(self, seconds: float):
        """Untraced closed loop; returns (ops, elapsed)."""
        if self.workload == "theory_sweep":
            return self.run_sweep(seconds, traced=False)
        results = []
        for ops in self._rounds(seconds):
            results += [self.run_process_op(op, traced=False) for op in ops]
        return results, time.perf_counter() - self._start

    def measure_traced(self, seconds: float):
        """Untraced and traced ops with the same seeds; returns
        (untraced ops, traced ops)."""
        if self.workload == "theory_sweep":
            plain, _ = self.run_sweep(seconds / 2, traced=False)
            traced, _ = self.run_sweep(seconds / 2, traced=True)
            return plain, traced
        plain, traced = [], []
        for ops in self._rounds(seconds):
            plain += [self.run_process_op(op, traced=False) for op in ops]
            traced += [self.run_process_op(op, traced=True) for op in ops]
        return plain, traced

    def check(self, results) -> None:
        for r in results:
            r.check = checks.check_op(r.op, r.rc, r.out, self.reference)


def check_identical(plain, traced) -> None:
    """Tracing must not perturb results: the traced op's report must equal
    the untraced op's report with the same seed, byte for byte."""
    for p, t in zip(plain, traced):
        a, b = p.out / "report.json", t.out / "report.json"
        if a.exists() and b.exists() and a.read_bytes() != b.read_bytes():
            t.check["ok"] = False
            t.check["errors"].append("traced report.json differs from untraced")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(results, elapsed: float, setup: list[float]) -> dict:
    walls = [r.wall for r in results]
    return {"setup_s": statistics.median(setup),
            "op_s_p50": statistics.median(walls),
            "op_s_p90": tracing.percentile(walls, 90),
            "ops_per_s": len(results) / elapsed,
            "cpu_s_per_op": sum(r.user + r.sys for r in results) / len(results),
            "peak_rss_mb": max(r.maxrss_mb for r in results)}


def _report_entries(results):
    ok = total = 0
    for r in results:
        path = r.out / "report.json"
        if path.exists():
            entries = json.loads(path.read_text(encoding="utf-8"))["metrics"]
            total += len(entries)
            ok += sum(e["status"] == "ok" for e in entries.values())
    return ok, total


def _artifact_bytes(results) -> float:
    total = sum(f.stat().st_size for r in results if r.out.exists()
                for f in r.out.rglob("*") if f.is_file())
    return total / max(1, len(results))


def per_layer(work: Path, plain, traced) -> dict:
    docs = []
    for path in sorted(work.rglob("*spans.json")):
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    out = tracing.summarize(docs, len(traced))
    ok, total = _report_entries(traced)
    out["metrics.ok_ratio"] = ok / total if total else 0.0
    out["cli.artifact_bytes"] = _artifact_bytes(traced)
    n = max(1, len(plain))
    out["proc.minor_faults"] = sum(r.minflt for r in plain) / n
    out["proc.sys_s"] = sum(r.sys for r in plain) / n
    out["proc.user_s"] = sum(r.user for r in plain) / n
    pairs = min(len(plain), len(traced))
    t_wall = sum(r.wall for r in traced[:pairs])
    p_wall = sum(r.wall for r in plain[:pairs])
    out["bench.trace_overhead"] = t_wall / p_wall if p_wall > 0 else 0.0
    return out


def span_self_check(work: Path, overhead: float) -> list[str]:
    """Self times must be non-negative, and per op they must sum to the wall
    time of the traced ``cli.main`` call, measured around it, within the
    tracing overhead the run reports (plus 1 ms)."""
    problems = []
    for path in sorted(work.rglob("*spans.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        own = tracing.self_times(doc["spans"])
        if any(t < -1e-9 for t in own):
            problems.append(f"{path.name}: negative self time")
        per_op = {}
        for s, t in zip(doc["spans"], own):
            per_op[s[4]] = per_op.get(s[4], 0.0) + t
        for op_id, wall in enumerate(doc["op_walls"]):
            gap = wall - per_op.get(op_id, 0.0)
            if not -1e-9 <= gap <= max(0.0, overhead - 1.0) * wall + 1e-3:
                problems.append(f"{path.name}: op {op_id} self times sum to "
                                f"{wall - gap:.6f} s of {wall:.6f} s wall")
    return problems


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    bench = Bench(root, workload, seed, trace)
    facts = machine_facts()
    bench.make_fixtures()
    if trace:
        plain, traced = bench.measure_traced(seconds)
        bench.check(plain)
        bench.check(traced)
        check_identical(plain, traced)
        results = plain + traced
        metrics = per_layer(bench.work, plain, traced)
        units = dict(tracing.PER_LAYER)
        problems = span_self_check(bench.work,
                                   metrics["bench.trace_overhead"])
    else:
        # set-up time drifts with machine load, so sample it on both sides
        # of the measured loop
        setup = bench.setup_times()
        results, elapsed = bench.measure(seconds)
        setup += bench.setup_times()
        bench.check(results)
        metrics = end_to_end(results, elapsed, setup)
        units = dict(END_TO_END)
        problems = []

    failed = [r for r in results if not r.check["ok"]]
    refs = [r for r in results if r.check.get("sha256")]
    changed = sum(bool(r.check["sha_changed"]) for r in refs)
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# {workload} seed={seed} trace={int(trace)}: {len(results)} ops, "
          f"{len(failed)} failed; fail_ratio={len(failed) / len(results):.6g}")
    print(f"# reference: {len(refs)} reports checked, {changed} sha256 changed"
          f" against {checks.REFERENCE_PATH.name}")
    for r in failed:
        print(f"# FAILED {r.op.key} seed={r.op.seed}: "
              f"{'; '.join(r.check['errors'])}")
    for p in problems:
        print(f"# TRACE CHECK {p}")
    for name, unit in units.items():
        print(f"{name:36s} {_fmt(metrics[name]):>14s} {unit}")
    result = {"correct": not failed and not problems,
              "attempted": len(results), "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    doc = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(trace), "machine": facts, "result": result,
           "ops": [{"key": r.op.key, "seed": r.op.seed, "round": r.op.round,
                    "traced": r.traced, "rc": r.rc, "wall": r.wall,
                    "user": r.user, "sys": r.sys, "minflt": r.minflt,
                    "maxrss_mb": r.maxrss_mb, **r.check} for r in results]}
    (bench.work / "result.json").write_text(json.dumps(doc, indent=1),
                                            encoding="utf-8")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "pelab" / "cli.py").is_file():
        print(f"error: {root} holds no pelab source (src/pelab/cli.py); "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    layers = {}
    for name in workloads.WORKLOADS:
        print(f"## {name}: end-to-end")
        ok &= run_workload(root, name, args.seed, args.seconds, False)["correct"]
        print(f"## {name}: traced")
        res = run_workload(root, name, args.seed, args.seconds, True)
        ok &= res["correct"]
        layers[name] = res["metrics"]
    print("## per-layer metrics (traced runs)")
    print(f"{'metric':36s} " + " ".join(f"{n:>16s}" for n in layers)
          + "  unit")
    for metric, unit in tracing.PER_LAYER:
        print(f"{metric:36s} " + " ".join(
            f"{_fmt(layers[n][metric]['value']):>16s}" for n in layers)
            + f"  {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
