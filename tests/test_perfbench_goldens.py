"""The benchmark's pinned hit counts, checked on every test run.

Runs the ``dense-haar`` call and every ``mc-mixed`` call of
``perfbench/workloads.py`` at the default workload seed through ``cli.main``
and compares their hit counts with ``perfbench/goldens.json``.  Those counts
go through the dense and the gathered contraction, the norm and Kronecker
kernels and the histogram sampler, so a change that moves any of their bits
shows here.  This test reads ``perfbench/`` and changes nothing
there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tensorball import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, index", [("dense-haar", 0), ("mc-mixed", 0), ("mc-mixed", 1), ("mc-mixed", 2), ("mc-mixed", 3)]
)
def test_hit_counts_match_goldens(tmp_path, capsys, monkeypatch, workload, index):
    workloads = load_workloads(monkeypatch)
    goldens = json.loads((_PERFBENCH / "goldens.json").read_text())
    assert goldens["seed"] == workloads.DEFAULT_SEED
    call = workloads.calls_for(workload, workloads.DEFAULT_SEED)[index]
    assert call.subcommand in ("smallball", "direction", "norms", "dominance")
    assert cli.main([*call.argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert workloads.check_output(call, str(tmp_path)) == goldens["hits"][f"{workload}/{index}"]
