"""Span tracing for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of each pelab layer (the module
names are the layers) without touching the package source.  A wrapper is put
on every ``pelab`` module that holds the function, because several modules
import names directly (``trainer.perc_loss``, ``cli.train_perception``,
``theory.infonce_value_grad``), and on the class for ``Encoder`` methods.

Each call records one span: name, start, end, parent span and op id, plus an
optional work count taken from the arguments before the clock starts.  Spans
stay in memory and are written once, when the traced process ends.
``summarize`` turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time


def _pairs(enc, batch, *args, **kwargs):
    return batch.n


def _kernel_entries(a, b, *args, **kwargs):
    m, n = len(a), len(b)
    return m * m + n * n + m * n


def _classes(z, y, *args, **kwargs):
    return len(set(y.tolist()))


# (module, attribute, span name, work count taken from the call's arguments)
TARGETS = (
    ("pelab.cli", "main", "cli.main", None),
    ("pelab.trainer", "train_perception", "trainer.train_perception", None),
    ("pelab.objectives", "perc_loss", "objectives.perc_loss", _pairs),
    ("pelab.objectives", "infonce_value_grad", "objectives.infonce", None),
    ("pelab.objectives", "variance_floor_value_grad",
     "objectives.variance_floor", None),
    ("pelab.objectives", "covariance_penalty_value_grad",
     "objectives.covariance", None),
    ("pelab.objectives", "invariance_value_grad", "objectives.invariance", None),
    ("pelab.numerics", "Encoder.forward", "numerics.forward", None),
    ("pelab.numerics", "Encoder.backprop_params", "numerics.backprop", None),
    ("pelab.numerics", "Encoder.input_jacobian", "numerics.input_jacobian", None),
    ("pelab.numerics", "param_gradient", "numerics.param_gradient", None),
    ("pelab.worlds", "sample_batch", "worlds.sample_batch", None),
    ("pelab.metrics", "certify_encoder", "metrics.certify_encoder", None),
    ("pelab.metrics", "invariance_curve", "metrics.invariance_curve", None),
    ("pelab.metrics", "leakage_probe", "metrics.leakage_probe", None),
    ("pelab.metrics", "normalized_mi", "metrics.normalized_mi", None),
    ("pelab.metrics", "smoothness", "metrics.smoothness", None),
    ("pelab.metrics", "geometry_diagnostics", "metrics.geometry_diagnostics",
     None),
    ("pelab.metrics", "disentanglement_nmi", "metrics.disentanglement_nmi",
     None),
    ("pelab.metrics", "fisher_trace", "metrics.fisher_trace", None),
    ("pelab.metrics", "sufficiency_surrogate", "metrics.sufficiency_surrogate",
     None),
    ("pelab.metrics", "separability", "metrics.separability", _kernel_entries),
    ("pelab.metrics", "radial_fisher", "metrics.radial_fisher", None),
    ("pelab.metrics", "probe_data_efficiency", "metrics.probe_data_efficiency",
     None),
    ("pelab.probes", "fit_linear_probe", "probes.fit", _classes),
    ("pelab.probes", "softmax", "probes.softmax", None),
    ("pelab.infotheory", "rows_as_codes", "infotheory.rows_as_codes", None),
    ("pelab.infotheory", "joint_codes", "infotheory.joint_codes", None),
    ("pelab.infotheory", "quantile_codes", "infotheory.quantile_codes", None),
    ("pelab.theory", "orthogonality_check", "theory.orthogonality_check", None),
    ("pelab.theory", "over_invariance_check", "theory.over_invariance_check",
     None),
    ("pelab.theory", "risk_of_cells", "theory.risk_of_cells", None),
    ("pelab.theory", "empirical_bayes_risk", "theory.empirical_bayes_risk",
     None),
    ("pelab.theory", "risk_table", "theory.risk_table", None),
    ("pelab.theory", "assumption_audit", "theory.assumption_audit", None),
)


class Tracer:
    """In-memory span recorder.  ``op_id`` tags every span opened while it is
    set; a span's parent is the innermost open span of the same thread."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start, end, parent, op, work]
        self.op_id = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span_name: str, work):
        name_id = len(self.names)
        self.names.append(span_name)
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                   work(*args, **kwargs) if work is not None else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target on every pelab module that binds it."""
        import pelab.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pelab" or n.startswith("pelab."))]
        for mod_name, attr, span_name, work in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span_name, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path, **extra) -> None:
        doc = {"names": self.names, "spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct child spans."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_named(spans, names, i, wanted) -> bool:
    p = spans[i][3]
    while p >= 0:
        if names[spans[p][0]] == wanted:
            return True
        p = spans[p][3]
    return False


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between samples; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


PER_LAYER = (
    ("trainer.train_s", "s"), ("trainer.self_s", "s"),
    ("trainer.steps", "count"), ("trainer.pairs_per_s", "1/s"),
    ("trainer.step_ms_p50", "ms"), ("trainer.step_ms_p99", "ms"),
    ("objectives.perc_loss_calls", "count"),
    ("objectives.perc_loss_ms_p50", "ms"), ("objectives.infonce_s", "s"),
    ("objectives.infonce_ms_p50", "ms"), ("objectives.variance_floor_s", "s"),
    ("objectives.covariance_s", "s"), ("objectives.invariance_s", "s"),
    ("objectives.self_s", "s"),
    ("numerics.forward_calls", "count"), ("numerics.forward_s", "s"),
    ("numerics.backprop_calls", "count"), ("numerics.backprop_s", "s"),
    ("numerics.input_jacobian_calls", "count"),
    ("numerics.input_jacobian_s", "s"), ("numerics.param_gradient_s", "s"),
    ("worlds.sample_batch_calls", "count"), ("worlds.sample_batch_s", "s"),
    ("metrics.certify_encoder_s", "s"),
    ("metrics.invariance_curve_s", "s"), ("metrics.leakage_probe_s", "s"),
    ("metrics.normalized_mi_s", "s"), ("metrics.smoothness_s", "s"),
    ("metrics.geometry_diagnostics_s", "s"),
    ("metrics.disentanglement_nmi_s", "s"), ("metrics.fisher_trace_s", "s"),
    ("metrics.sufficiency_surrogate_s", "s"), ("metrics.separability_s", "s"),
    ("metrics.radial_fisher_s", "s"), ("metrics.probe_data_efficiency_s", "s"),
    ("metrics.kernel_entries", "count"), ("metrics.ok_ratio", "1"),
    ("probes.fit_calls", "count"), ("probes.fit_s", "s"),
    ("probes.softmax_calls", "count"), ("probes.classes_max", "count"),
    ("infotheory.rows_as_codes_calls", "count"),
    ("infotheory.rows_as_codes_s", "s"), ("infotheory.joint_codes_s", "s"),
    ("infotheory.quantile_codes_s", "s"),
    ("theory.orthogonality_check_s", "s"),
    ("theory.over_invariance_check_s", "s"), ("theory.risk_evals", "count"),
    ("theory.risk_eval_ms_p50", "ms"), ("theory.risk_table_s", "s"),
    ("theory.assumption_audit_s", "s"),
    ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("proc.minor_faults", "count"), ("proc.sys_s", "s"), ("proc.user_s", "s"),
    ("bench.trace_overhead", "1"),
)

# per-layer metric -> span name whose total inclusive time it reports
_BUSY = {
    "trainer.train_s": "trainer.train_perception",
    "objectives.infonce_s": "objectives.infonce",
    "objectives.variance_floor_s": "objectives.variance_floor",
    "objectives.covariance_s": "objectives.covariance",
    "objectives.invariance_s": "objectives.invariance",
    "numerics.forward_s": "numerics.forward",
    "numerics.backprop_s": "numerics.backprop",
    "numerics.input_jacobian_s": "numerics.input_jacobian",
    "numerics.param_gradient_s": "numerics.param_gradient",
    "worlds.sample_batch_s": "worlds.sample_batch",
    "probes.fit_s": "probes.fit",
    "infotheory.rows_as_codes_s": "infotheory.rows_as_codes",
    "infotheory.joint_codes_s": "infotheory.joint_codes",
    "infotheory.quantile_codes_s": "infotheory.quantile_codes",
    "theory.orthogonality_check_s": "theory.orthogonality_check",
    "theory.over_invariance_check_s": "theory.over_invariance_check",
    "theory.risk_table_s": "theory.risk_table",
    "theory.assumption_audit_s": "theory.assumption_audit",
}
for _m in ("certify_encoder", "invariance_curve", "leakage_probe",
           "normalized_mi", "smoothness", "geometry_diagnostics",
           "disentanglement_nmi", "fisher_trace", "sufficiency_surrogate",
           "separability", "radial_fisher", "probe_data_efficiency"):
    _BUSY[f"metrics.{_m}_s"] = f"metrics.{_m}"

_CALLS = {
    "objectives.perc_loss_calls": "objectives.perc_loss",
    "numerics.forward_calls": "numerics.forward",
    "numerics.backprop_calls": "numerics.backprop",
    "numerics.input_jacobian_calls": "numerics.input_jacobian",
    "worlds.sample_batch_calls": "worlds.sample_batch",
    "probes.fit_calls": "probes.fit",
    "probes.softmax_calls": "probes.softmax",
    "infotheory.rows_as_codes_calls": "infotheory.rows_as_codes",
}

# layer self time: summed self time of these spans
_SELF = {
    "trainer.self_s": ("trainer.train_perception",),
    # perc_loss composing its terms; each term has its own _s metric
    "objectives.self_s": ("objectives.perc_loss",),
    "cli.self_s": ("cli.main",),
}


def summarize(span_docs, n_ops: int) -> dict:
    """Per-layer metrics from the span files of ``n_ops`` traced ops.

    Times, calls and counts are per op; ``_ms_p50``/``_p99`` are percentiles
    over every span of that kind.  The caller adds ``metrics.ok_ratio``,
    ``cli.artifact_bytes``, ``proc.*`` and ``bench.trace_overhead``.
    """
    busy, calls, selft, work, durs = {}, {}, {}, {}, {}
    steps, step_ms, pairs, risk_ms = 0, [], 0, []
    classes_max = 0
    for doc in span_docs:
        names, spans = doc["names"], doc["spans"]
        own = self_times(spans)
        last_step_start = {}
        for i, (nid, start, end, parent, op, w) in enumerate(spans):
            name = names[nid]
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            selft[name] = selft.get(name, 0.0) + own[i]
            work[name] = work.get(name, 0) + w
            durs.setdefault(name, []).append((end - start) * 1e3)
            if name == "probes.fit":
                classes_max = max(classes_max, w)
            elif name == "worlds.sample_batch" and parent >= 0 \
                    and names[spans[parent][0]] == "trainer.train_perception":
                # a training step runs from one view sample to the next
                prev = last_step_start.get(parent)
                if prev is not None:
                    step_ms.append((start - prev) * 1e3)
                last_step_start[parent] = start
            elif name == "objectives.perc_loss" \
                    and _ancestor_named(spans, names, i,
                                        "trainer.train_perception"):
                steps += 1
                pairs += w
            elif name == "theory.empirical_bayes_risk" or (
                    name == "theory.risk_of_cells" and not _ancestor_named(
                        spans, names, i, "theory.empirical_bayes_risk")):
                # one Bayes-risk evaluation, counted once
                risk_ms.append((end - start) * 1e3)
        for parent, prev in last_step_start.items():
            step_ms.append((spans[parent][2] - prev) * 1e3)

    ops = max(1, n_ops)
    out = {k: busy.get(v, 0.0) / ops for k, v in _BUSY.items()}
    out.update({k: calls.get(v, 0) / ops for k, v in _CALLS.items()})
    out.update({k: sum(selft.get(n, 0.0) for n in v) / ops
                for k, v in _SELF.items()})
    out["trainer.steps"] = steps / ops
    train_s = busy.get("trainer.train_perception", 0.0)
    out["trainer.pairs_per_s"] = pairs / train_s if train_s > 0 else 0.0
    out["trainer.step_ms_p50"] = percentile(step_ms, 50)
    out["trainer.step_ms_p99"] = percentile(step_ms, 99)
    out["objectives.perc_loss_ms_p50"] = percentile(
        durs.get("objectives.perc_loss", []), 50)
    out["objectives.infonce_ms_p50"] = percentile(
        durs.get("objectives.infonce", []), 50)
    out["metrics.kernel_entries"] = work.get("metrics.separability", 0) / ops
    out["probes.classes_max"] = classes_max
    out["theory.risk_evals"] = len(risk_ms) / ops
    out["theory.risk_eval_ms_p50"] = percentile(risk_ms, 50)
    return out
