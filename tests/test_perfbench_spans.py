"""Smoke test of the benchmark's trace hooks (``perfbench/spans.py``).

``perfbench/run.py --trace 1`` wraps every ``(module, attr)`` in ``WRAPPED``;
a refactor that renames or removes one of those names would only break it
at benchmark time.  This test reads ``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

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
    cli_direction = cli.estimate_direction_smallball
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.estimate_direction_smallball is not cli_direction
        code = cli.main([
            "direction", "--n", "3", "--l", "2", "--trials", "200",
            "--eps-grid", "0.05:0.5:5", "--seed", "0", "--out", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.call_counts()
    for name in (
        "cli.main",
        "subspaces.diagonal_direction",
        "montecarlo.estimate_direction_smallball",
        "distributions.sample_matrix",
        "montecarlo.curve_csv_bytes",
    ):
        assert counts[name] >= 1, name
    assert tracer.counters["trials"] == 200
    assert {(m, a): resolve(m, a) for m, a in spans.WRAPPED} == before
    assert cli.estimate_direction_smallball is cli_direction
