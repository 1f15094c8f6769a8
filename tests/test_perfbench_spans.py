"""Smoke test of the benchmark's trace hooks (``perfbench/spans.py``).

``perfbench/run.py --trace 1`` wraps every ``(module, attr)`` in ``WRAPPED``;
a refactor that renames or removes one of those names would only break it
at benchmark time.  This test reads ``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import tensorball  # noqa: F401  (loads every tensorball module the tracer patches)
from tensorball import cli

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name, attr):
    obj = importlib.import_module(f"tensorball.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_wrapped_name_resolves():
    spans = load_spans()
    for mod_name, attr in spans.WRAPPED:
        assert callable(resolve(mod_name, attr)), f"{mod_name}.{attr}"


def test_tracer_records_spans_and_restores_originals(tmp_path):
    spans = load_spans()
    before = {(m, a): resolve(m, a) for m, a in spans.WRAPPED}
    cli_estimate = cli.estimate_smallball
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.estimate_smallball is not cli_estimate
        code = cli.main([
            "direction", "--n", "3", "--l", "2", "--trials", "200",
            "--eps-grid", "0.05:0.5:5", "--seed", "0", "--out", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.call_counts()
    # direction runs smallball's runner on the one-row line basis
    for name in (
        "cli.main",
        "subspaces.coordinate_line_subspace",
        "montecarlo.estimate_smallball",
        "distributions.sample_matrix",
        "montecarlo.curve_csv_bytes",
    ):
        assert counts[name] >= 1, name
    assert counts["subspaces.diagonal_direction"] == counts["montecarlo.estimate_direction_smallball"] == 0
    assert tracer.counters["trials"] == 200
    assert {(m, a): resolve(m, a) for m, a in spans.WRAPPED} == before
    assert cli.estimate_smallball is cli_estimate


def run_traced(spans, argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


# (argv, traced estimator, work counter, its value): the counters read ``cfg`` by
# argument position, so each pins where that estimator takes its run config
MC_CALLS = {
    "smallball": (
        ["smallball", "--subspace", "line", "--n", "3", "--l", "2", "--m", "2", "--trials", "200"],
        "montecarlo.estimate_smallball", "trials", 200,
    ),
    "norms": (["norms", "--n", "4", "--l", "2", "--trials", "300"], "montecarlo.norm_concentration", "trials", 300),
    # one call for both bodies, one run per law: 2 laws x 150 trials
    "dominance": (
        ["dominance", "--n", "2", "--l", "2", "--bodies", "2", "--trials", "150"],
        "montecarlo.dominance_test", "trials", 300,
    ),
    # trials x (2 n^l r^2 + 2 r^3) at n=3, l=2, r=2
    "smin": (
        ["smin", "--n", "3", "--l", "2", "--r", "2", "--trials", "200"],
        "khatri_rao.smin_tail_experiment", "svd_flop", 200 * (2 * 9 * 4 + 2 * 8),
    ),
}


@pytest.mark.parametrize("subcommand", sorted(MC_CALLS))
def test_tracer_counts_the_work_of_each_monte_carlo_subcommand(tmp_path, subcommand):
    argv, estimator, counter, want = MC_CALLS[subcommand]
    tracer = run_traced(load_spans(), [*argv, "--seed", "0", "--out", str(tmp_path)])
    assert tracer.call_counts()[estimator] == 1
    assert tracer.counters[counter] == want
