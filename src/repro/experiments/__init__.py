"""Experiment drivers: the simulations behind the paper's tables and figures.

Every driver returns a plain-data result object and is deterministic for a
given seed.  :mod:`repro.runner` runs them as cells and folds the cell
payloads into figures; a figure read off those payloads (Fig. 14's E
sweep, Table 3's throughput, the compare, latency and SLO summaries) is
a runner experiment and has no driver here.  The CLI renders from the
runner, and the benchmark harness under ``benchmarks/`` prints the
rows/series the paper reports; see EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.experiments.common import ExperimentScale, build_system

__all__ = ["ExperimentScale", "build_system"]
