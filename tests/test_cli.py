import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorball import (
    BoundConfig,
    DegeneracyError,
    bound_carbery_wright,
    bound_fixed_subspace,
    coordinate_line_subspace,
    git_blob_hash,
    product_uniform_smallball,
)
from tensorball import cli


def run_cli(*argv):
    return cli.main(list(argv))


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    return lines[0], list(csv.DictReader(lines[1:]))


def test_selftest_quick_passes(capsys):
    assert run_cli("selftest", "--quick") == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 4
    assert "FAIL" not in out


def test_selftest_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_selftest_checks", lambda quick, seed: [("bad", lambda: "broken")])
    assert run_cli("selftest") == 4
    assert "FAIL bad: broken" in capsys.readouterr().out


SMALLBALL_ARGS = (
    "smallball", "--n", "3", "--l", "2", "--m", "2", "--trials", "300",
    "--batch-size", "100", "--eps-grid", "0.05:0.5:5", "--seed", "3",
)


def test_smallball_outputs_and_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*SMALLBALL_ARGS, "--out", str(d1)) == 0
    assert run_cli(*SMALLBALL_ARGS, "--out", str(d2)) == 0
    csv1 = (d1 / "smallball.csv").read_bytes()
    assert csv1 == (d2 / "smallball.csv").read_bytes()
    manifest = json.loads((d1 / "smallball_manifest.json").read_text())
    assert manifest["subcommand"] == "smallball"
    assert manifest["seed"] == 3
    assert manifest["outputs"] == ["smallball.csv"]
    assert manifest["numpy"] == np.__version__
    canon = json.dumps(
        {
            "subcommand": "smallball",
            "config": manifest["config"],
            "seed": 3,
            "version": manifest["version"],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    assert manifest["manifest_hash"] == git_blob_hash(canon.encode())
    assert csv1.decode().splitlines()[0] == f"# manifest: {manifest['manifest_hash']}"


def test_replay_reproduces_bytes(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_cli(*SMALLBALL_ARGS, "--out", str(first)) == 0
    assert run_cli("--replay", str(first / "smallball_manifest.json"), "--out", str(again)) == 0
    assert (first / "smallball.csv").read_bytes() == (again / "smallball.csv").read_bytes()


@pytest.mark.parametrize("recorded", ["0.0.0", None, np.__version__])
def test_replay_notes_numpy_version_change(tmp_path, capsys, recorded):
    """A different recorded numpy version warns in one line; a missing or equal one is silent."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(*SMALLBALL_ARGS, "--out", str(first)) == 0
    manifest = first / "smallball_manifest.json"
    data = json.loads(manifest.read_text())
    data.pop("numpy")
    if recorded is not None:
        data["numpy"] = recorded
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("--replay", str(manifest), "--out", str(again)) == 0
    err = capsys.readouterr().err
    assert (first / "smallball.csv").read_bytes() == (again / "smallball.csv").read_bytes()
    if recorded == "0.0.0":
        assert len(err.splitlines()) == 1
        assert f"numpy 0.0.0, running {np.__version__}" in err
    else:
        assert err == ""


def replay_with(tmp_path, capsys, edit=None, text=None):
    """Replay a smallball manifest after ``edit`` mutates it, or replay ``text`` as the file."""
    manifest = tmp_path / "first" / "smallball_manifest.json"
    assert run_cli(*SMALLBALL_ARGS, "--out", str(manifest.parent)) == 0
    if edit is not None:
        data = json.loads(manifest.read_text())
        edit(data)
        manifest.write_text(json.dumps(data))
    if text is not None:
        manifest.write_text(text)
    capsys.readouterr()
    code = run_cli("--replay", str(manifest), "--out", str(tmp_path / "again"))
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_replay_config_missing_key(tmp_path, capsys):
    err = replay_with(tmp_path, capsys, edit=lambda d: d["config"].pop("trials"))
    assert "lacks [trials]" in err


def test_replay_config_unknown_key(tmp_path, capsys):
    err = replay_with(tmp_path, capsys, edit=lambda d: d["config"].update(bogus=1))
    assert "has unknown [bogus]" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", "3", "n='3' is not int"),
        ("eps_grid", ["x"], "eps_grid=['x'] is not list"),
        ("dist", "nope", "unknown dist"),
        ("ell", 0, "tensor order must be >= 1"),
    ],
)
def test_replay_config_bad_value(tmp_path, capsys, key, value, message):
    err = replay_with(tmp_path, capsys, edit=lambda d: d["config"].update({key: value}))
    assert message in err


def test_replay_missing_subcommand(tmp_path, capsys):
    err = replay_with(tmp_path, capsys, edit=lambda d: d.pop("subcommand"))
    assert "unknown subcommand None" in err


def test_replay_unknown_subcommand(tmp_path, capsys):
    err = replay_with(tmp_path, capsys, edit=lambda d: d.update(subcommand="bogus"))
    assert "unknown subcommand 'bogus'" in err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"subcommand": "smallball"}'])
def test_replay_malformed_manifest(tmp_path, capsys, text):
    replay_with(tmp_path, capsys, text=text)


def test_replay_missing_manifest(tmp_path, capsys):
    code = run_cli("--replay", str(tmp_path / "absent.json"))
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read manifest" in err and "Traceback" not in err


def test_smallball_basis_file_matches_line(tmp_path):
    basis = coordinate_line_subspace(3, 2, 2)
    bpath = tmp_path / "basis.bin"
    basis.save(bpath)
    line_dir, file_dir = tmp_path / "line", tmp_path / "file"
    assert run_cli(*SMALLBALL_ARGS, "--subspace", "line", "--out", str(line_dir)) == 0
    assert run_cli(*SMALLBALL_ARGS, "--subspace", f"file:{bpath}", "--out", str(file_dir)) == 0
    # same basis and stream, so the data rows agree; only the stamped hash differs
    rows_line = (line_dir / "smallball.csv").read_text().splitlines()[1:]
    rows_file = (file_dir / "smallball.csv").read_text().splitlines()[1:]
    assert rows_line == rows_file


def test_smallball_basis_file_shape_mismatch(tmp_path):
    basis = coordinate_line_subspace(4, 2, 2)
    bpath = tmp_path / "basis.bin"
    basis.save(bpath)
    code = run_cli(*SMALLBALL_ARGS, "--subspace", f"file:{bpath}", "--out", str(tmp_path))
    assert code == 2


def run_with_basis_file(tmp_path, payload: bytes, capsys):
    bpath = tmp_path / "basis.bin"
    bpath.write_bytes(payload)
    code = run_cli(*SMALLBALL_ARGS, "--subspace", f"file:{bpath}", "--out", str(tmp_path / "out"))
    return code, capsys.readouterr().err


def test_smallball_basis_file_truncated(tmp_path, capsys):
    bpath = tmp_path / "good.bin"
    coordinate_line_subspace(3, 2, 2).save(bpath)
    code, err = run_with_basis_file(tmp_path, bpath.read_bytes()[:-8], capsys)
    assert code == 2
    assert "payload" in err and "Traceback" not in err


def test_smallball_basis_file_missing(tmp_path, capsys):
    code = run_cli(*SMALLBALL_ARGS, "--subspace", f"file:{tmp_path / 'absent.bin'}", "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read basis file" in err


def test_smallball_basis_file_oversized_header(tmp_path, capsys):
    header = struct.pack("<4sI3II", b"TBSB", 3, 4000, 4000, 4000, 4000)
    code, err = run_with_basis_file(tmp_path, header + bytes(64), capsys)
    assert code == 2
    assert "above the cap" in err


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"TBFT" + bytes(8),
        struct.pack("<4sI", b"TBSB", 0) + bytes(4),
        struct.pack("<4sI", b"TBSB", 2**32 - 1) + bytes(16),
        struct.pack("<4sI2II", b"TBSB", 2, 3, 0, 2),
        struct.pack("<4sI2II", b"TBSB", 2, 3, 3, 0),
    ],
    ids=["empty", "bad-magic", "zero-order", "huge-order", "zero-dim", "zero-rows"],
)
def test_smallball_basis_file_bad_header(tmp_path, capsys, payload):
    code, err = run_with_basis_file(tmp_path, payload, capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_direction_exact_column(tmp_path):
    assert run_cli(
        "direction", "--n", "3", "--l", "2", "--dist", "cube-unit",
        "--trials", "200", "--batch-size", "100", "--eps-grid", "0.1:0.5:4",
        "--seed", "0", "--out", str(tmp_path),
    ) == 0
    _, rows = read_rows(tmp_path / "direction.csv")
    assert "exact" in rows[0]
    for row in rows:
        want = product_uniform_smallball(2, 1.0, float(row["epsilon"]))
        assert float(row["exact"]) == pytest.approx(want, rel=1e-12)


def test_bounds_csv_matches_library(tmp_path):
    assert run_cli(
        "bounds", "--l", "3", "--m", "5", "--eps-grid", "1e-4:0.9:6",
        "--r", "4", "--rho", "0.5", "--out", str(tmp_path),
    ) == 0
    _, rows = read_rows(tmp_path / "bounds.csv")
    bc = BoundConfig()
    assert len(rows) == 6
    for row in rows:
        eps = float(row["epsilon"])
        assert float(row["carbery_wright"]) == pytest.approx(bound_carbery_wright(eps, 3, bc))
        try:
            want = bound_fixed_subspace(eps, 5, 3, bc)
        except Exception:
            want = None
        if want is None:
            assert row["fixed_subspace"] == ""
        else:
            assert float(row["fixed_subspace"]) == pytest.approx(want)
    # outside its validity range the column goes blank, inside it is filled
    vals = [row["fixed_subspace"] for row in rows]
    assert "" in vals and any(v != "" for v in vals)
    assert "smin_tail" in rows[0]


def test_bounds_default_n(tmp_path):
    assert run_cli("bounds", "--l", "2", "--m", "10", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "bounds_manifest.json").read_text())
    assert manifest["config"]["n"] == 4


def test_dominance_runs(tmp_path):
    assert run_cli(
        "dominance", "--n", "2", "--l", "2", "--dist", "gauss", "--bodies", "2",
        "--count", "2", "--trials", "500", "--batch-size", "500", "--out", str(tmp_path),
    ) == 0
    _, rows = read_rows(tmp_path / "dominance.csv")
    assert [row["body"] for row in rows] == ["0", "1"]
    for row in rows:
        assert row["violation_candidate"] == "False"


def test_norms_runs(tmp_path):
    assert run_cli(
        "norms", "--n", "8", "--l", "2", "--trials", "400", "--batch-size", "200",
        "--t-grid", "0.1:0.9:3", "--out", str(tmp_path),
    ) == 0
    _, rows = read_rows(tmp_path / "norms.csv")
    assert [float(r["t"]) for r in rows] == [0.1, 0.5, 0.9]
    counts = [int(r["upper_hits"]) for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_smin_runs(tmp_path):
    assert run_cli(
        "smin", "--n", "3", "--l", "2", "--r", "2", "--rho", "0.8",
        "--trials", "100", "--batch-size", "100", "--eps-grid", "1e-4:0.5:4",
        "--out", str(tmp_path),
    ) == 0
    _, rows = read_rows(tmp_path / "smin.csv")
    assert "threshold" in rows[0] and "bound" in rows[0]
    pre = math.sqrt(1 - 2 / 9) * 0.8**2
    for row in rows:
        assert float(row["threshold"]) == pytest.approx(pre * float(row["epsilon"]))


def test_decompose_runs(tmp_path, capsys):
    assert run_cli(
        "decompose", "--n", "4", "--l", "3", "--r", "2", "--rho", "0.5",
        "--seed", "1", "--out", str(tmp_path),
    ) == 0
    assert "max recovery error" in capsys.readouterr().out
    report = json.loads((tmp_path / "decompose_report.json").read_text())
    assert report["max_error"] <= 1e-6
    _, rows = read_rows(tmp_path / "decompose_components.csv")
    assert len(rows) == 2


def test_decompose_degeneracy_exit_code(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise DegeneracyError("no usable probe pair")

    monkeypatch.setattr(cli, "decompose_smoothed", explode)
    assert run_cli("decompose", "--n", "4", "--l", "3", "--r", "2", "--out", str(tmp_path)) == 3


def test_usage_errors():
    assert run_cli() == 1
    assert run_cli("no-such-subcommand") == 1
    assert run_cli("smallball", "--no-such-flag") == 1
    assert run_cli("smallball", "--eps-grid", "nonsense") == 1
    assert run_cli("smallball", "--trials", "many") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (("direction", "--trials", "inf"), 1),
        (("direction", "--trials", "1000.5"), 1),
        (("bounds", "--l", "0"), 2),
        (("bounds", "--l", "-1", "--m", "10"), 2),
        (("dominance", "--bodies", "0"), 2),
    ],
    ids=["trials-inf", "trials-fractional", "l-zero", "l-negative", "no-bodies"],
)
def test_bad_argv_exit_code(tmp_path, capsys, argv, code):
    argv = (*argv, "--out", str(tmp_path))
    if "-1" in argv:
        # deriving n from m once looped forever here: a subprocess with a timeout fails instead of hanging
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "tensorball.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        returncode, err = proc.returncode, proc.stderr
    else:
        returncode, err = run_cli(*argv), capsys.readouterr().err
    assert returncode == code
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_validation_exit_code(tmp_path):
    # m above the flattened dimension n^l = 4
    assert run_cli(
        "smallball", "--n", "2", "--l", "2", "--m", "100",
        "--trials", "200", "--out", str(tmp_path),
    ) == 2


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORBALL_SEED", "7")
    assert run_cli("bounds", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "bounds_manifest.json").read_text())
    assert manifest["seed"] == 7
    monkeypatch.setenv("TENSORBALL_SEED", "pi")
    assert run_cli("bounds", "--out", str(tmp_path)) == 1


def test_explicit_seed_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORBALL_SEED", "7")
    assert run_cli("bounds", "--seed", "5", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "bounds_manifest.json").read_text())
    assert manifest["seed"] == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "tensorball" in capsys.readouterr().out


def test_grid_parser():
    assert cli._parse_grid("0.1:0.4:3", log=False) == (0.4, 0.25, 0.1)
    with pytest.raises(cli.UsageError):
        cli._parse_grid("1:2")
    with pytest.raises(cli.UsageError):
        cli._parse_grid("0:1:5")
    with pytest.raises(cli.UsageError):
        cli._parse_grid("1:1:5")


def test_aux_rng_streams_disjoint_from_batches():
    a = cli._aux_rng(0, 0).standard_normal(4)
    b = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,))).standard_normal(4)
    assert not np.allclose(a, b)
