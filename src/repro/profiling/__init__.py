"""Learned per-pair interference prediction (the SMTcheck-style stage).

Three pieces, each deterministic end to end:

* :mod:`repro.profiling.probe` — calibrated micro-probes that reduce
  every workload to a per-workload contention profile;
* :mod:`repro.profiling.model` — a symmetric, non-negative
  least-squares pair-compatibility model fitted from simulated
  co-run counters (no external ML dependencies);
* :mod:`repro.profiling.predictor` — the name-indexed oracle the
  ``predictor`` cluster-scheduler policy consults at placement and
  relocation time.

:func:`run_profile_stage` ties them together and is what the ``profile``
runner cell (and the ``repro profile`` CLI) executes.
"""

from repro.profiling.model import (
    FEATURE_NAMES,
    CompatibilityModel,
    fit_model,
    fit_quality,
    nnls_fit,
    pair_features,
)
from repro.profiling.predictor import (
    PairPredictor,
    default_predictor,
    job_family,
)
from repro.profiling.probe import (
    ProbeTarget,
    WorkloadProfile,
    seed_matrix,
)
from repro.profiling.stage import load_stage, run_profile_stage

__all__ = [
    "FEATURE_NAMES",
    "CompatibilityModel",
    "fit_model",
    "fit_quality",
    "nnls_fit",
    "pair_features",
    "PairPredictor",
    "default_predictor",
    "job_family",
    "ProbeTarget",
    "WorkloadProfile",
    "seed_matrix",
    "load_stage",
    "run_profile_stage",
]
