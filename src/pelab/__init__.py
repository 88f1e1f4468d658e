"""pelab: a desk-scale laboratory for task-agnostic perception training,
representation certification, and numerical verification of the
perception/decision separation theory."""

import os

# Every pelab product runs on the calling thread (``numerics.matmul``), so
# OpenBLAS's thread pool does no work here; its worker only spins and slows
# the main thread.  When pelab is the first to import numpy and no thread
# count is set, numpy's BLAS is loaded with one thread.  OpenBLAS reads the
# variable once, when it loads, so it is removed again at once and child
# processes see the environment they were given.  Any of the variables that
# OpenBLAS reads wins over this default; other BLAS builds ignore it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (loads the BLAS)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (ConfigurationError, ContractViolation, DegenerateError,
                     DivergenceError, NotApplicableError, PelabError)
from .numerics import Encoder, Rng, finite_diff, make_encoder, param_gradient
from .objectives import ObjectiveSpec, perc_loss
from .worlds import (Batch, World, export_batch_csv, make_bernoulli_uv_world,
                     make_rotation_world, make_six_nine_world, sample_batch)
from .metrics import (Curve, MetricInputs, MetricReport, MetricSuiteOptions,
                      certify, certify_encoder, disentanglement_nmi,
                      fisher_trace, geometry_diagnostics, invariance_curve,
                      leakage_probe, normalized_mi, probe_data_efficiency,
                      separability, smoothness, sufficiency_surrogate)
from .theory import (TheoryVerdict, assumption_audit, bayes_risk,
                     bayes_risk_through_encoder, orthogonality_check,
                     over_invariance_check, risk_table, run_scenario,
                     task_risk, two_stage_check)
from .trainer import TrainConfig, TrainLog, train_head, train_perception

__version__ = "0.1.0"
