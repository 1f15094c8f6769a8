"""Smoke runs of the two studies in ``scripts/`` that the CLI has no subcommand for."""

import csv
import math
import re
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(SCRIPTS / name))["main"](argv)
    return capsys.readouterr().out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_fixed_vs_generic_script(tmp_path, monkeypatch, capsys):
    out = run_script("run_fixed_vs_generic.py", ["--trials", "2e3"], tmp_path, monkeypatch, capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["subspace_haar.csv", "subspace_line.csv"]
    for name in ("haar", "line"):
        rows = read_csv(tmp_path / f"subspace_{name}.csv")
        assert len(rows) == 14 and all(row["trials"] == "2000" for row in rows)
    gap = re.search(r"^slope gap (\S+)$", out, re.M)
    assert gap and math.isfinite(float(gap.group(1)))


@pytest.mark.parametrize("trials", ["1000.5", "inf"])
def test_fixed_vs_generic_refuses_non_integral_trials(tmp_path, monkeypatch, capsys, trials):
    with pytest.raises(SystemExit) as exc:
        run_script("run_fixed_vs_generic.py", ["--trials", trials], tmp_path, monkeypatch, capsys)
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "error: argument --trials: " in last and repr(trials) in last
    assert list(tmp_path.iterdir()) == []


def test_decomposition_noise_script(tmp_path, monkeypatch, capsys):
    out = run_script("run_decomposition_noise.py", ["--decades", "3"], tmp_path, monkeypatch, capsys)
    rows = read_csv(tmp_path / "decomposition_noise.csv")
    assert [float(row["noise"]) for row in rows] == [1e-6, 1e-5, 1e-4]
    slope = re.search(r"^log-log slope (\S+)$", out, re.M)
    assert slope and math.isfinite(float(slope.group(1)))
