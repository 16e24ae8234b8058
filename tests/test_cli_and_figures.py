"""Tests for the CLI and the text-figure renderers."""

import numpy as np
import pytest

from repro.analysis.figures import render_bars, render_cdf, render_series
from repro.cli import build_parser, main


# -- figures -------------------------------------------------------------------


def test_render_cdf_basic():
    out = render_cdf(
        {"fast": [10, 20, 30, 40], "slow": [100, 200, 300, 400]},
        width=30, height=6, title="demo",
    )
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "1.00" in lines[1]
    assert "0.00" in lines[6]
    assert "*=fast" in out and "o=slow" in out
    assert "(log x)" in out


def test_render_cdf_empty():
    assert render_cdf({}) == "(no data)"
    assert render_cdf({"x": []}) == "(no data)"


def test_render_cdf_linear():
    out = render_cdf({"a": [1, 2, 3]}, log_x=False, width=20, height=4)
    assert "(lin x)" in out


def test_render_bars():
    out = render_bars({"alone": 0.04, "holmes": 0.73, "perfiso": 0.67},
                      width=20, title="util")
    lines = out.splitlines()
    assert lines[0] == "util"
    # the longest bar belongs to the max value
    holmes_line = next(l for l in lines if "holmes" in l)
    perfiso_line = next(l for l in lines if "perfiso" in l)
    assert holmes_line.count("#") == 20
    assert 0 < perfiso_line.count("#") < 20
    assert render_bars({}) == "(no data)"


def test_render_series_with_threshold():
    t = np.linspace(0, 100_000, 200)
    v = np.concatenate([np.full(100, 20.0), np.full(100, 60.0)])
    out = render_series(t, v, width=40, height=8, threshold=40.0)
    assert " E" in out  # the threshold marker line
    assert "*" in out
    assert render_series([], []) == "(no data)"


# -- CLI ----------------------------------------------------------------------------


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_service():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "cassandra"])


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for svc in ("redis", "memcached", "rocksdb", "wiredtiger"):
        assert svc in out
    for wl in "abcdef":
        assert f"workload-{wl}" in out


def test_cli_metric(capsys):
    assert main(["metric"]) == 0
    out = capsys.readouterr().out
    assert "STALLS_MEM_ANY" in out
    assert "selected" in out


def test_cli_colocate_quick(capsys):
    assert main(["colocate", "redis", "-w", "a", "--setting", "alone",
                 "--duration", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "avg latency" in out
    assert "VPI on the LC CPUs" in out


def test_cli_colocate_without_queries_prints_nan(capsys):
    assert main(["colocate", "redis", "--setting", "alone",
                 "--duration", "0.00001"]) == 0
    out = capsys.readouterr().out
    assert "queries      0" in out
    assert "avg latency (us)    nan" in out
    assert "p99 latency (us)    nan" in out


def test_cli_convergence_fast(capsys):
    assert main(["convergence", "--epoch", "0.4", "--step", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "holmes" in out and "caladan" in out
    assert "us" in out and "s" in out


def test_cli_compare_quick(capsys):
    assert main(["compare", "redis", "--duration", "0.02"]) == 0
    out = capsys.readouterr().out
    for setting in ("alone", "holmes", "perfiso"):
        assert setting in out
    assert "redis workload-a: latency CDF" in out
    assert "*=alone   o=holmes   +=perfiso" in out
    assert "holmes vs perfiso: avg -" in out
    assert "--" not in out.splitlines()[-1]


def test_cli_compare_prints_signed_change(monkeypatch, capsys):
    """A Holmes slower than PerfIso prints a positive change, not ``--``."""
    import repro.cli

    settings = {
        s: {"mean_us": 60.0, "p99_us": 120.0, "avg_cpu_utilization": 0.5}
        for s in ("alone", "holmes", "perfiso")
    }
    compare = {
        "settings": settings,
        "holmes_vs_perfiso": {"mean_pct": -5.0, "p99_pct": 12.5},
    }
    latency = {s: {"quantiles": [50.0, 60.0, 70.0]} for s in settings}
    monkeypatch.setattr(repro.cli, "_run",
                        lambda args, *experiments: (None, [compare, latency]))
    assert main(["compare", "redis"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "holmes vs perfiso: avg +5.0%, p99 -12.5%"


def test_cli_sweep_e_quick(capsys):
    assert main(["sweep-e", "redis", "--duration", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "redis: latency normalised to Alone"
    assert lines[1].split() == ["E", "avg", "p90", "p99"]
    rows = [line.split() for line in lines[3:]]
    assert [r[0] for r in rows] == ["40", "50", "60", "70", "80"]
    assert all(float(v) > 0 for r in rows for v in r[1:])


def test_cli_microbench_quick(capsys):
    assert main(["microbench", "--duration", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Fig 2: mean 1 MB random-read latency by placement"
    assert len(lines) == 7  # title + the six placements
    assert "2 threads on 2 lcpus of the same core" in lines[3]
    assert all(line.endswith(" us") for line in lines[1:])
