import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorball import (
    BoundConfig,
    DegeneracyError,
    bound_carbery_wright,
    bound_fixed_subspace,
    coordinate_line_subspace,
    product_uniform_smallball,
)
from tensorball import cli, gates, montecarlo, tensor_core


def run_cli(*argv):
    return cli.main(list(argv))


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    return lines[0], list(csv.DictReader(lines[1:]))


def test_selftest_prints_each_gate_line(monkeypatch, tmp_path, capsys):
    lines = ["acceptance 1 fake: PASS (one)", "acceptance 2 fake: PASS (two)"]
    monkeypatch.setattr(gates, "GATES", tuple(lambda line=line: (True, line) for line in lines))
    monkeypatch.chdir(tmp_path)
    assert run_cli("selftest") == 0
    assert capsys.readouterr().out.splitlines() == lines
    # selftest has no artifacts
    assert list(tmp_path.iterdir()) == []


def test_selftest_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(gates, "GATES", (lambda: (True, "ok"), lambda: (False, "acceptance 2 bad: FAIL (broken)")))
    assert run_cli("selftest") == 4
    assert capsys.readouterr().out.splitlines() == ["ok", "acceptance 2 bad: FAIL (broken)"]


def test_selftest_runs_the_acceptance_table():
    import test_acceptance  # tests/ is on sys.path under pytest's default import mode

    tests = [f for name, f in vars(test_acceptance).items() if name.startswith("test_acceptance_")]
    assert test_acceptance.GATES is gates.GATES
    assert [t.gate for t in tests] == list(gates.GATES)


SMALLBALL_ARGS = (
    "smallball", "--n", "3", "--l", "2", "--m", "2", "--trials", "200",
    "--batch-size", "100", "--eps-grid", "0.05:0.5:5", "--seed", "3",
)


def test_git_blob_hash_known_value():
    assert cli.git_blob_hash(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"


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


# one small run of every subcommand that writes artifacts, at most 200 trials each
ARTIFACT_ARGS = {
    "smallball": SMALLBALL_ARGS,
    "direction": (
        "direction", "--n", "3", "--l", "2", "--dist", "cube-unit", "--trials", "200",
        "--batch-size", "100", "--eps-grid", "0.1:0.5:4",
    ),
    "bounds": ("bounds", "--l", "3", "--m", "5", "--eps-grid", "1e-4:0.9:6", "--r", "4", "--rho", "0.5"),
    "dominance": (
        "dominance", "--n", "2", "--l", "2", "--bodies", "2", "--count", "2", "--trials", "200",
        "--batch-size", "100",
    ),
    "norms": ("norms", "--n", "8", "--l", "2", "--trials", "200", "--batch-size", "100", "--t-grid", "0.1:0.9:3"),
    "smin": (
        "smin", "--n", "3", "--l", "2", "--r", "2", "--rho", "0.8", "--trials", "100",
        "--eps-grid", "1e-4:0.5:4",
    ),
    "decompose": ("decompose", "--n", "4", "--l", "3", "--r", "2", "--rho", "0.5", "--seed", "1"),
}


def test_artifact_runs_cover_every_runner():
    assert set(ARTIFACT_ARGS) == set(DEFAULT_CONFIGS) == set(cli._SUBCOMMANDS)


@pytest.mark.parametrize("sub", sorted(ARTIFACT_ARGS))
def test_artifacts_stamped_with_manifest_hash(tmp_path, capsys, sub):
    out_dir = tmp_path / "new"
    assert run_cli(*ARTIFACT_ARGS[sub], "--out", str(out_dir)) == 0
    manifest_name = f"{sub}_manifest.json"
    manifest = json.loads((out_dir / manifest_name).read_text())
    canon = json.dumps(
        {"subcommand": sub, "config": manifest["config"], "seed": manifest["seed"], "version": manifest["version"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    stamp = manifest["manifest_hash"]
    assert stamp == cli.git_blob_hash(canon.encode())
    # the manifest lists exactly the artifacts written, and they are printed in that order
    assert sorted(os.listdir(out_dir)) == sorted([*manifest["outputs"], manifest_name])
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {out_dir / name}" for name in [*manifest["outputs"], manifest_name]]
    for name in manifest["outputs"]:
        text = (out_dir / name).read_text()
        if name.endswith(".csv"):
            assert text.splitlines()[0] == f"# manifest: {stamp}"
        else:
            assert json.loads(text)["manifest_hash"] == stamp


@pytest.mark.parametrize("sub", sorted(ARTIFACT_ARGS))
def test_replay_reproduces_bytes(tmp_path, sub):
    first = tmp_path / "first"
    again = tmp_path / "again"
    manifest_name = f"{sub}_manifest.json"
    assert run_cli(*ARTIFACT_ARGS[sub], "--out", str(first)) == 0
    assert run_cli("--replay", str(first / manifest_name), "--out", str(again)) == 0
    assert sorted(os.listdir(first)) == sorted(os.listdir(again))
    manifests = []
    for d in (first, again):
        manifest = json.loads((d / manifest_name).read_text())
        manifest.pop("duration_s")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    for name in manifests[0]["outputs"]:
        assert (first / name).read_bytes() == (again / name).read_bytes()


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


def test_manifest_records_blas_threads_and_cores(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert run_cli(*SMALLBALL_ARGS, "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "smallball_manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == blas["name"] and manifest["blas_version"] == blas["version"]
    assert manifest["OPENBLAS_NUM_THREADS"] == "1" and manifest["OMP_NUM_THREADS"] is None
    assert manifest["cpu_count"] == os.cpu_count()
    # outside the hash: the stamp is that of the subcommand, config, seed and version alone
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run_cli(*SMALLBALL_ARGS, "--out", str(tmp_path / "again")) == 0
    assert (tmp_path / "smallball.csv").read_bytes() == (tmp_path / "again" / "smallball.csv").read_bytes()


def test_threads_past_the_cpus_keep_counts_and_manifest(tmp_path, monkeypatch, inline_pool):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    args = (
        "smallball", "--n", "4", "--l", "2", "--m", "3", "--subspace", "line", "--trials", "1e4", "--batch-size", "999",
    )
    assert run_cli(*args, "--threads", "1", "--out", str(tmp_path / "one")) == 0
    assert run_cli(*args, "--threads", "100000", "--out", str(tmp_path / "many")) == 0
    assert inline_pool == [2]
    assert read_rows(tmp_path / "one" / "smallball.csv")[1] == read_rows(tmp_path / "many" / "smallball.csv")[1]
    assert json.loads((tmp_path / "many" / "smallball_manifest.json").read_text())["config"]["threads"] == 100_000


@pytest.mark.parametrize(
    "recorded, named",
    [
        ({"OPENBLAS_NUM_THREADS": "7"}, ["OPENBLAS_NUM_THREADS 7, running unset"]),
        ({"blas_version": "0.0.1", "cpu_count": 999}, ["blas_version 0.0.1, running", "cpu_count 999, running"]),
        ({"numpy": "0.0.0", "OMP_NUM_THREADS": "3"}, ["numpy 0.0.0, running", "OMP_NUM_THREADS 3, running unset"]),
    ],
)
def test_replay_warns_once_when_blas_threads_or_cores_differ(tmp_path, capsys, monkeypatch, recorded, named):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(*SMALLBALL_ARGS, "--out", str(first)) == 0
    manifest = first / "smallball_manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **recorded}))
    capsys.readouterr()
    assert run_cli("--replay", str(manifest), "--out", str(again)) == 0
    err = capsys.readouterr().err.splitlines()
    assert (first / "smallball.csv").read_bytes() == (again / "smallball.csv").read_bytes()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert all(part in err[0] for part in named)


def replay_with(tmp_path, capsys, edit=None, text=None, args=SMALLBALL_ARGS):
    """Replay the manifest of ``args`` (smallball by default) after ``edit``
    mutates it, or replay ``text`` as the file."""
    manifest = tmp_path / "first" / f"{args[0]}_manifest.json"
    assert run_cli(*args, "--out", str(manifest.parent)) == 0
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
        ("ell", 0, "ell must be an integer >= 1, got 0"),
        ("m", 0, "m must be an integer >= 1, got 0"),
        ("n", 10**10, "above the cap"),
        ("n", 0, "n must be an integer >= 1, got 0"),
        ("n", -3, "n must be an integer >= 1, got -3"),
        ("r", 0, "r must be an integer >= 1, got 0"),
        ("r", "4", "r must be an integer >= 1, got '4'"),
        ("rho", 0, "smoothing scale must be > 0, got rho = 0"),
        ("rho", -1.0, "smoothing scale must be > 0, got rho = -1.0"),
        ("rho", math.nan, "rho must be finite, got rho = nan"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("bodies", 0, "bodies must be an integer >= 1, got 0"),
        ("batch_size", True, "batch_size=True is not int"),
        ("eps_grid", [math.nan], "eps_grid must be finite, got eps_grid = [nan]"),
        ("subspace", "bogus", "unknown subspace"),
        ("eps_grid", [0.1] * (cli.MAX_GRID + 1), f"eps_grid has {cli.MAX_GRID + 1} points, above the cap"),
    ],
)
def test_replay_config_bad_value(tmp_path, capsys, key, value, message):
    # r and rho are keys of the bounds manifest, the one that takes both; bodies is dominance's
    args = ARTIFACT_ARGS[{"r": "bounds", "rho": "bounds", "bodies": "dominance"}.get(key, "smallball")]
    err = replay_with(tmp_path, capsys, edit=lambda d: d["config"].update({key: value}), args=args)
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


def test_replay_refuses_a_subcommand(tmp_path, capsys):
    """A subcommand after ``--replay`` once ran nothing of its own, replayed the manifest and exited 0."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli("bounds", "--out", str(first)) == 0
    capsys.readouterr()
    code = run_cli("--replay", str(first / "bounds_manifest.json"), *SMALLBALL_ARGS, "--out", str(again))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "--replay" in err and "smallball" in err
    assert not again.exists()


def test_replay_missing_manifest(tmp_path, capsys):
    code = run_cli("--replay", str(tmp_path / "absent.json"))
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read manifest" in err and "Traceback" not in err


# no large count among them: a value the refusals miss runs for real, in-process
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1.5, "x", None, True, [], [math.nan], [0.5]]
FUZZ_CASES = [
    pytest.param(sub, key, value, id=f"{sub}-{key}-{value!r}")
    for sub in ARTIFACT_ARGS
    for key in cli._config_from_args(cli.build_parser().parse_args([sub, "--seed", "0"]))
    for value in FUZZ_VALUES
]


@pytest.fixture(scope="module")
def fuzz_manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    manifests = {}
    for sub, args in ARTIFACT_ARGS.items():
        assert run_cli(*args, "--out", str(root / sub)) == 0
        manifests[sub] = json.loads((root / sub / f"{sub}_manifest.json").read_text())
    return manifests


@pytest.mark.parametrize("sub, key, value", FUZZ_CASES)
def test_replay_fuzz(tmp_path, capsys, fuzz_manifests, sub, key, value):
    """Any value of any config key replays to an exit code in 0-4 with at most one stderr line."""
    manifest = {**fuzz_manifests[sub], "config": {**fuzz_manifests[sub]["config"], key: value}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run_cli("--replay", str(path))
    err = capsys.readouterr().err
    assert code in range(5)
    assert len(err.splitlines()) <= 1


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


def test_unknown_subspace_is_one_refusal_fresh_and_replayed(tmp_path, capsys):
    """The runner refuses an unknown spelling before it writes anything: one line and exit 2, fresh or replayed."""
    code = run_cli(*SMALLBALL_ARGS, "--subspace", "bogus", "--out", str(tmp_path / "fresh"))
    fresh = capsys.readouterr().err
    replayed = replay_with(tmp_path, capsys, edit=lambda d: d["config"].update(subspace="bogus"))
    assert code == 2 and fresh == replayed
    assert fresh == "error: unknown subspace 'bogus' (want haar, line, or file:<path>)\n"
    assert not (tmp_path / "fresh").exists() and not (tmp_path / "again").exists()


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


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_smallball_basis_file_non_finite_entry(tmp_path, capsys, entry):
    bpath = tmp_path / "good.bin"
    coordinate_line_subspace(3, 2, 2).save(bpath)
    data = bytearray(bpath.read_bytes())
    # rows[0, 0], right after the 20-byte header of an order-2 file
    data[20:28] = struct.pack("<d", entry)
    code, err = run_with_basis_file(tmp_path, bytes(data), capsys)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


BASIS_EDITS = st.one_of(
    st.tuples(st.just("overwrite"), st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(BASIS_EDITS, min_size=1, max_size=3))
def test_corrupted_basis_file_fuzz(tmp_path_factory, edits):
    """Overwritten, truncated or extended bytes of a valid basis file end in exit 0 or 2, one stderr line on failure."""
    base = tmp_path_factory.getbasetemp() / "basis_fuzz"
    base.mkdir(exist_ok=True)
    bpath = base / "basis.bin"
    coordinate_line_subspace(3, 2, 2).save(bpath)
    data = bytearray(bpath.read_bytes())
    for edit in edits:
        if edit[0] == "overwrite" and data:
            at = edit[1] % len(data)
            data[at : at + len(edit[2])] = edit[2]
        elif edit[0] == "truncate":
            del data[edit[1] % (len(data) + 1) :]
        elif edit[0] == "extend":
            data += edit[1]
    bpath.write_bytes(bytes(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*SMALLBALL_ARGS, "--subspace", f"file:{bpath}", "--out", str(base / "out"))
    assert code in (0, 2), edits
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == (1 if code else 0), (edits, err.getvalue())


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


# direction.csv of one small run, as written before direction ran smallball's runner;
# the exact cell at 0.29 moved one ulp toward the law once F(z) - F(-z) was summed without cancelling
DIRECTION_ARGS = (
    "--n", "3", "--l", "2", "--dist", "cube-unit", "--trials", "200", "--batch-size", "100",
    "--eps-grid", "0.1:0.5:4", "--seed", "0",
)
DIRECTION_CSV = b"""\
# manifest: 96f3e79f5e33477b6bef8db38b623b8a531d1ece
epsilon,hits,trials,p_hat,ci_low,ci_high,exact
0.5,160,200,0.8,0.7178247268491995,0.867426707901161,0.8465735902799727
0.2924017738212865,128,200,0.64,0.5475066232237427,0.7256568066411153,0.651946739086558
0.17099759466766967,90,200,0.45,0.35901907025236035,0.5434196200272376,0.47299743648955506
0.1,61,200,0.305,0.22419170871517358,0.3953444685432742,0.3302585092994046
"""


def test_direction_csv_bytes_pinned(tmp_path):
    assert run_cli("direction", *DIRECTION_ARGS, "--out", str(tmp_path)) == 0
    assert (tmp_path / "direction.csv").read_bytes() == DIRECTION_CSV


@pytest.mark.parametrize(
    "flags, exact",
    [
        (("--subspace", "line", "--m", "1"), True),
        (("--subspace", "line", "--m", "1", "--dist", "cube"), True),
        (("--subspace", "haar", "--m", "1"), False),
        (("--subspace", "line", "--m", "2"), False),
        (("--subspace", "line", "--m", "1", "--dist", "gauss"), False),
        (("--subspace", "file:LINE", "--m", "1"), True),
    ],
    ids=["line-1-cube-unit", "line-1-cube", "haar-1", "line-2", "line-1-gauss", "file-line-1"],
)
def test_smallball_exact_column_only_where_the_law_is_known(tmp_path, flags, exact):
    # file:LINE is a basis file holding the line's one row, e_1 x e_1
    coordinate_line_subspace(3, 2, 1).save(tmp_path / "line.bin")
    argv = [flag.replace("LINE", str(tmp_path / "line.bin")) for flag in flags]
    assert run_cli("smallball", *DIRECTION_ARGS, *argv, "--out", str(tmp_path / "smallball")) == 0
    _, rows = read_rows(tmp_path / "smallball" / "smallball.csv")
    assert ("exact" in rows[0]) is exact
    if exact:
        # the same basis and stream: every cell, exact included, is direction's
        assert run_cli("direction", *DIRECTION_ARGS, *flags[4:], "--out", str(tmp_path / "direction")) == 0
        assert rows == read_rows(tmp_path / "direction" / "direction.csv")[1]


# flag: (values that can run, values refused with exit 1 or 2); n^l * max(m, r, bodies * count) stays <= 6^4 * 6
ARGV_FLAGS = {
    "--n": (["1", "2", "3", "6"], ["-1", "0"]),
    "--l": (["1", "2", "3", "4"], ["-1", "0"]),
    "--m": (["1", "2", "3"], ["-1", "0"]),
    "--r": (["1", "2", "4"], ["-1", "0"]),
    "--rho": (["0.1", "1"], ["-1", "nan"]),
    "--bodies": (["1", "2"], ["-1", "0"]),
    "--count": (["0", "1", "3"], ["-1"]),
    "--threads": (["1", "2"], []),
    "--trials": (["100", "500", "1e3"], ["-1", "1", "2.5", "x"]),
    "--batch-size": (["50", "1000"], ["-1", "0"]),
    "--confidence": (["0.5", "0.99"], ["0", "1", "1.5", "nan"]),
    "--dist": (["cube", "cube-unit", "gauss", "laplace"], ["bogus"]),
    "--subspace": (["haar", "line"], ["bogus", "file:absent.bin"]),
    "--eps-grid": (["0.05:0.5:5", "1e-3:1e-1:20"], ["0.5:0.5:3", "1:2", "0:1:3", "1e300:1.7e308:3"]),
    "--t-grid": (["0.05:0.95:10", "0.2:0.6:3"], ["0.5:0.5:3", "1:2"]),
    "--scale": (["0.5", "1"], ["0", "nan"]),
    "--noise": (["0", "1e-8"], ["-1", "inf"]),
    "--c-main": (["0.5", "1"], ["-1", "nan"]),
    "--c-prime": (["0.5", "1"], ["0", "inf"]),
    "--c-dprime": (["0.5", "1"], ["-1", "nan"]),
    "--c-small": (["0.5", "1"], ["0", "inf"]),
    "--seed": (["0", "7"], ["-1", "x"]),
}

# given whenever the subcommand has them, so no default size (n = 64 for norms, say) meets a drawn
# one, no run takes a default trial count, and bounds gets --r and --rho together
ALWAYS_GIVEN = ("--n", "--l", "--m", "--r", "--rho", "--bodies", "--count", "--threads", "--trials")


def small_argv(draw, subcommands) -> list[str]:
    """argv of a small run of one of ``subcommands``, at most one flag of it with a value to refuse."""
    sub = draw(st.sampled_from(subcommands))
    own = {cli._FLAGS[key][0] for key in cli._SUBCOMMANDS[sub][2]} | {"--seed"}
    flags = [flag for flag in ALWAYS_GIVEN if flag in own]
    flags += sorted(draw(st.sets(st.sampled_from(sorted(own - set(flags))))))
    bad = draw(st.one_of(st.none(), st.sampled_from(flags)))
    argv = [sub]
    for flag in flags:
        valid, refused = ARGV_FLAGS[flag]
        argv += [flag, draw(st.sampled_from(refused if flag == bad and refused else valid))]
    return argv


def check_small_run(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv, "--out", str(out))
    assert code in range(5), argv
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_projection_argv_fuzz(tmp_path, data):
    """Any small smallball or direction argv ends in exit 0-4 with at most one stderr line and no traceback."""
    check_small_run(small_argv(data.draw, ["smallball", "direction"]), tmp_path / "out")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_other_subcommands_argv_fuzz(tmp_path, data):
    """So does any small decompose, smin, norms, dominance or bounds argv."""
    check_small_run(small_argv(data.draw, ["decompose", "smin", "norms", "dominance", "bounds"]), tmp_path / "out")


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


def test_bounds_smin_tail_column_does_not_read_rho(tmp_path):
    """Only the threshold scales with rho: a rho whose scale passes the float range writes the same column."""
    columns = []
    for rho in ("0.5", "1e200"):
        out = tmp_path / rho
        assert run_cli("bounds", "--r", "2", "--rho", rho, "--n", "4", "--l", "2", "--out", str(out)) == 0
        columns.append([row["smin_tail"] for row in read_rows(out / "bounds.csv")[1]])
    assert columns[0] == columns[1] and any(columns[0])


@pytest.mark.parametrize(
    "args, column",
    [
        (("--l", "2", "--m", str((2**100 + 2**47 + 1) ** 2)), ["1.0"] * 20),
        (("--n", str(2**1020), "--l", "1", "--m", str(2**1020), "--eps-grid", "1e-300:1e-100:3"), ["1.0", "0.0", "0.0"]),
    ],
    ids=["(2^100+2^47+1)^2", "e*=2^1020"],
)
def test_bounds_nondeterministic_past_the_float_range(tmp_path, args, column):
    # the prefactor raised OverflowError, and exit 2 refused the whole table; at e* = 2^1020 its log
    # overflowed before log eps was added, and the NaN refused the table too
    assert run_cli("bounds", *args, "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "bounds.csv")[1]
    assert [row["nondeterministic"] for row in rows] == column


def test_bounds_concentration_rate_past_the_float_range(tmp_path):
    # C_main * m overflowed a float below the size ceiling, and numpy's warning refused the whole
    # table with exit 2; the rate is past the float range there, so both tails are 0
    argv = ("bounds", "--n", "2", "--l", "1", "--m", str(2**1023), "--c-main", "4")
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "bounds.csv")[1]
    assert len(rows) == 20
    assert all(row["concentration_vershynin"] == row["concentration_bamberger"] == "0.0" for row in rows)


@pytest.mark.parametrize("n, ell", [(2**1023, 1), (2**31, 32)], ids=["n=2^1023", "n^l=2^992"])
def test_bounds_accept_the_ceiling(tmp_path, n, ell):
    """n^l up to 2^1023 is inside the float ceiling of the bounds: the columns that read n are filled."""
    assert run_cli("bounds", "--n", str(n), "--l", str(ell), "--m", "1", "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "bounds.csv")[1]
    columns = ("generic_subspace", "nondeterministic", "concentration_vershynin", "concentration_bamberger")
    assert len(rows) == 20 and all(row[column] for row in rows for column in columns)


def test_bounds_ceiling_is_one_refusal_fresh_and_replayed(tmp_path, capsys):
    """n^l above 2^1023 is refused before any row is written: one line and exit 2, fresh or replayed."""
    n = 2**1023 + 1
    code = run_cli("bounds", "--n", str(n), "--l", "1", "--m", "1", "--out", str(tmp_path / "fresh"))
    fresh = capsys.readouterr().err
    replayed = replay_with(tmp_path, capsys, edit=lambda d: d["config"].update(n=n), args=ARTIFACT_ARGS["bounds"])
    assert code == 2 and fresh.startswith("error: need n^ell <= 2^1023") and len(fresh.splitlines()) == 1
    # the replayed manifest is l = 3, the fresh run l = 1
    assert "float ceiling" in replayed and "ell = 3" in replayed
    assert not (tmp_path / "fresh").exists() and not (tmp_path / "again").exists()


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


def test_dominance_tiny_scale_holds_every_trial(tmp_path):
    # slab directions of entries near 1e-300 have norms that underflow to 0, but they are nonzero
    assert run_cli("dominance", "--scale", "1e-300", "--trials", "100", "--out", str(tmp_path)) == 0
    _, rows = read_rows(tmp_path / "dominance.csv")
    assert [(row["hits_a"], row["hits_b"], row["trials"]) for row in rows] == [("100", "100", "100")]


@pytest.mark.parametrize("scale, hits", [("1e200", "0"), ("1e-300", "2000")])
def test_dominance_extreme_scales_count_as_contract_blocks(scale, hits, tmp_path, monkeypatch):
    # the default shape stacks its 4 directions: products near 1e200 lie far outside every slab and
    # near 1e-300 far inside, and the guarded pass counts them as the per-body kernel does, warning nothing
    argv = ["dominance", "--scale", scale, "--trials", "2000", "--batch-size", "700"]
    guarded = []
    original = montecarlo._guarded_hits
    monkeypatch.setattr(montecarlo, "_guarded_hits", lambda *args: guarded.append(1) or original(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--out", str(tmp_path / "stacked")) == 0
        monkeypatch.setattr(montecarlo, "_stacked", lambda dims, directions: False)
        assert run_cli(*argv, "--out", str(tmp_path / "per-body")) == 0
    # 2 laws x 3 batches
    assert len(guarded) == 6
    stacked = (tmp_path / "stacked" / "dominance.csv").read_bytes()
    assert stacked == (tmp_path / "per-body" / "dominance.csv").read_bytes()
    _, rows = read_rows(tmp_path / "stacked" / "dominance.csv")
    assert [(row["hits_a"], row["hits_b"]) for row in rows] == [(hits, hits)]


def test_dominance_cap_counts_every_body(tmp_path, capsys, monkeypatch):
    """2 bodies of 501 slab directions of length 10^4: each body is under the cap, the two together above it."""
    drawn = []
    monkeypatch.setattr(cli.SlabBody, "random", lambda *args: drawn.append(args))
    argv = ["dominance", "--n", "10", "--l", "4", "--bodies", "2", "--count", "501", "--trials", "100"]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error: dominance needs 1002 x 10^4 flattened entries, above the cap of {cli.FLATTEN_CAP}\n"
    )
    assert drawn == [] and not (tmp_path / "out").exists()


def test_dominance_cap_admits_every_body_at_the_cap():
    # checked without drawing the 80 MB of directions the run would hold
    argv = ["dominance", "--n", "10", "--l", "4", "--bodies", "2", "--count", "500", "--seed", "0"]
    cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert cfg["bodies"] * cfg["count"] * cfg["n"] ** cfg["ell"] == cli.FLATTEN_CAP


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


@pytest.mark.parametrize("ell, r", [(3, 2), (4, 3)])
def test_decompose_csv_cells_are_plain_numbers(tmp_path, capsys, ell, r):
    """Every cell parses with ``float()``: numpy scalars once wrote ``np.float64(...)``."""
    argv = ("decompose", "--n", "4", "--l", str(ell), "--r", str(r), "--rho", "0.5", "--noise", "1e-8")
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    _, rows = read_rows(tmp_path / "decompose_components.csv")
    assert len(rows) == r and len(rows[0]) == 2 + 1 + ell
    for row in rows:
        for value in row.values():
            float(value)


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
        (("bounds", "--m", "-1"), 2),
        (("dominance", "--count", "-1"), 2),
        # 1e20 and 1e12 entries: refused before anything is allocated
        (("direction", "--n", "100", "--l", "10"), 2),
        (("smallball", "--subspace", "line", "--n", "100", "--l", "10", "--m", "2"), 2),
        (("dominance", "--n", "1000", "--l", "4"), 2),
        # 10^6 slab directions of length 10^6: a numpy allocation traceback with exit 1
        (("dominance", "--n", "10", "--l", "6", "--count", "1000000", "--trials", "100"), 2),
        # n = 1 keeps n^l under the cap, so only the order cap refuses these
        (("smallball", "--n", "1", "--l", "33", "--m", "1"), 2),
        (("direction", "--n", "1", "--l", "33"), 2),
        (("bounds", "--l", "33", "--m", "1"), 2),
        (("dominance", "--n", "1", "--l", "33"), 2),
        (("norms", "--n", "1", "--l", "33"), 2),
        (("smin", "--l", "33"), 2),
        (("decompose", "--n", "1", "--l", "33", "--r", "1"), 2),
        (("smallball", "--n", "1", "--l", "65", "--m", "1"), 2),
        (("direction", "--n", "1", "--l", "65"), 2),
        (("decompose", "--n", "1", "--l", "65", "--r", "1"), 2),
        (("bounds", "--l", "1023", "--m", "1"), 2),
        (("smallball", "--n", "1", "--l", "1000000000", "--m", "1", "--trials", "100"), 2),
        (("decompose", "--n", "1", "--l", "1000000000", "--r", "1"), 2),
        (("bounds", "--l", "1000000000", "--m", "1"), 2),
        # without the refusal, bounds writes blank columns or drops smin_tail, with exit 0
        (("bounds", "--n", "-3"), 2),
        (("bounds", "--n", "0"), 2),
        (("bounds", "--r", "-2", "--rho", "0.5"), 2),
        (("bounds", "--r", "4", "--rho", "-1"), 2),
        (("bounds", "--r", "0", "--rho", "0.5"), 2),
        (("bounds", "--r", "4", "--rho", "0"), 2),
        (("smallball", "--n", "0"), 2),
        (("smin", "--r", "0"), 2),
        (("decompose", "--n", "-3"), 2),
        # non-finite floats once reached numpy: tracebacks, or exit 0 with a run the manifest misdescribes
        (("smin", "--rho", "nan", "--trials", "100"), 2),
        (("smin", "--rho", "inf", "--trials", "100"), 2),
        (("decompose", "--rho", "nan"), 2),
        (("decompose", "--noise", "nan"), 2),
        (("dominance", "--scale", "nan", "--trials", "100"), 2),
        (("smallball", "--eps-grid", "nan:0.1:5"), 1),
        (("norms", "--t-grid", "0.05:inf:3"), 1),
        (("smallball", "--eps-grid", "a:0.1:5"), 1),
        (("norms", "--t-grid", "0.05:0.95:ten"), 1),
        (("decompose", "--seed", "-1"), 2),
        (("selftest", "--quick"), 1),
        (("smallball", "--seed", "-1"), 2),
        # without the refusal, bounds drops the smin_tail column with exit 0
        (("bounds", "--r", "4"), 2),
        (("bounds", "--rho", "0.5"), 2),
        # finite but past the float range once the code raises them to a power or draws with them
        (("bounds", "--c-prime", "1e200", "--l", "3"), 2),
        (("smin", "--rho", "1e308", "--trials", "100"), 2),
        (("decompose", "--rho", "1e308"), 2),
        (("decompose", "--noise", "1e308"), 2),
        (("dominance", "--scale", "1e308", "--trials", "100"), 2),
        # a grid threshold past the float range: numpy warned on stderr and the run exited 0
        (("smallball", "--eps-grid", "1e300:1.7e308:3", "--trials", "100"), 2),
        (("norms", "--t-grid", "1e300:1.7e308:3", "--trials", "100"), 2),
        (("smin", "--eps-grid", "1e-300:1e300:3", "--trials", "100"), 2),
        # n^l or m above 2^1023, the float ceiling of the bounds: each exited 0 with columns from float-range
        # fallbacks, but m = 2^1100 at n = 2, whose fixed_subspace column overflowed a float
        (("bounds", "--n", str(2**1023 + 1), "--l", "1", "--m", "1"), 2),
        (("bounds", "--n", str(2**32), "--l", "32", "--m", "1"), 2),
        (("bounds", "--m", str(2**1100), "--l", "1"), 2),
        (("bounds", "--n", "2", "--l", "2", "--m", str(2**1100)), 2),
        (("bounds", "--n", "10000000000", "--l", "32", "--m", "1"), 2),
        (("bounds", "--n", str(2**1024 + 1), "--l", "1", "--m", "1"), 2),
        (("bounds", "--n", str(2**1024 + 1), "--l", "1", "--m", str(2**1024)), 2),
        # a top-level --out is for --replay: a fresh run ignored it and wrote into the working directory
        (("--out", "elsewhere", "bounds"), 1),
        (("--out", "elsewhere", "selftest"), 1),
        # replay ran the manifest and dropped the subcommand's own run, with exit 0
        (("--replay", "a/bounds_manifest.json", "smallball", "--n", "4"), 1),
        # a grid count past the cap: numpy built the whole grid, 8 GB at a count of 10^9, before any check
        (("smallball", "--eps-grid", f"1e-3:1e-1:{cli.MAX_GRID + 1}", "--trials", "100"), 1),
        (("norms", "--t-grid", f"0.05:0.95:{cli.MAX_GRID + 1}", "--trials", "100"), 1),
    ],
    ids=[
        "trials-inf", "trials-fractional", "l-zero", "l-negative", "no-bodies", "m-negative",
        "count-negative", "direction-oversized", "smallball-oversized", "dominance-oversized",
        "dominance-directions-oversized",
        "smallball-l33", "direction-l33", "bounds-l33", "dominance-l33", "norms-l33", "smin-l33",
        "decompose-l33", "smallball-l65", "direction-l65", "decompose-l65", "bounds-l1023",
        "smallball-l1e9", "decompose-l1e9", "bounds-l1e9", "bounds-n-negative", "bounds-n-zero",
        "bounds-r-negative", "bounds-rho-negative", "bounds-r-zero", "bounds-rho-zero", "smallball-n-zero",
        "smin-r-zero", "decompose-n-negative", "smin-rho-nan", "smin-rho-inf", "decompose-rho-nan",
        "decompose-noise-nan", "dominance-scale-nan", "smallball-eps-grid-nan", "norms-t-grid-inf",
        "smallball-eps-grid-not-a-number", "norms-t-grid-count-not-a-number",
        "decompose-seed-negative", "selftest-quick", "seed-negative", "bounds-r-alone", "bounds-rho-alone",
        "bounds-c-prime-huge", "smin-rho-huge", "decompose-rho-huge", "decompose-noise-huge", "dominance-scale-huge",
        "smallball-eps-grid-huge", "norms-t-grid-huge", "smin-eps-grid-huge",
        "bounds-n-above-ceiling", "bounds-n^l-above-ceiling", "bounds-m-above-ceiling-n-from-m",
        "bounds-m-above-ceiling", "bounds-n^l=10^320", "bounds-n=2^1024+1", "bounds-m/n=2^1024/(2^1024+1)",
        "bounds-top-level-out",
        "selftest-top-level-out", "replay-with-subcommand", "smallball-eps-grid-count-above-cap",
        "norms-t-grid-count-above-cap",
    ],
)
def test_bad_argv_exit_code(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    if "--out" not in argv:
        argv = (*argv, "--out", str(tmp_path))
    if "-1" in argv or "1000000000" in argv:
        # these once looped or ran until killed: a subprocess with a timeout fails instead of hanging
        returncode, err = run_cli_subprocess(*argv)
    else:
        returncode, err = run_cli(*argv), capsys.readouterr().err
    assert returncode == code
    assert len(err.splitlines()) == 1 and "Traceback" not in err


FLOAT_FLAGS = {
    name: [a.option_strings[0] for a in sub._actions if a.type is float]
    for name, sub in cli.build_parser()._subparsers._group_actions[0].choices.items()
}
EXTREME_FLOATS = st.one_of(
    st.floats(min_value=1e100, max_value=sys.float_info.max),
    st.floats(min_value=5e-324, max_value=1e-100),
    st.sampled_from([0.0, -0.0]),
    st.floats(max_value=-5e-324, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_flag_fuzz(tmp_path_factory, data):
    """Huge, tiny, zero or negative values of any float flags end in exit 0-3, one stderr line on failure."""
    sub = data.draw(st.sampled_from(sorted(ARTIFACT_ARGS)))
    flags = sorted(data.draw(st.sets(st.sampled_from(FLOAT_FLAGS[sub]), min_size=1)))
    argv = list(ARTIFACT_ARGS[sub])
    if "--trials" in argv:
        argv += ["--trials", "100"]
    argv += [f"{flag}={data.draw(EXTREME_FLOATS)!r}" for flag in flags]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv, "--out", str(tmp_path_factory.getbasetemp() / "float_fuzz"))
    assert code in range(4), argv
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 72.8 TiB for an array", "error: Unable to allocate 72.8 TiB for an array"),
        ("", "error: out of memory"),
    ],
)
def test_failed_allocation_exits_2(tmp_path, capsys, monkeypatch, message, line):
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    # no cap covers norms, and the first array of a batch is the first thing
    # to allocate: a refused allocation there must end the run with exit 2
    monkeypatch.setattr(tensor_core._Scratch, "array", refuse)
    code = run_cli("norms", "--n", "100000000", "--l", "1", "--trials", "1e5", "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not (tmp_path / "out").exists()


def run_cli_subprocess(*argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "tensorball.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stderr


def test_smin_refused_above_flatten_cap(tmp_path):
    """2 x 2^24 Khatri-Rao entries are refused before the SVD fallback could build them."""
    code, err = run_cli_subprocess("smin", "--n", "2", "--l", "24", "--r", "2", "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == f"error: smin needs 2 x 2^24 flattened entries, above the cap of {cli.FLATTEN_CAP}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("replay", [False, True], ids=["fresh", "replay"])
def test_decompose_refuses_rank_before_drawing(tmp_path, replay):
    """A rank above n^floor((l-1)/2) is refused before the 10 x 10^12 factors (72.8 TiB) are drawn."""
    argv = ("decompose", "--r", str(10**12), "--out", str(tmp_path / "out"))
    if replay:
        config = cli._config_from_args(cli.build_parser().parse_args(["decompose", "--seed", "0"]))
        config["r"] = 10**12
        manifest = tmp_path / "decompose_manifest.json"
        manifest.write_text(json.dumps({"subcommand": "decompose", "config": config}))
        argv = ("--replay", str(manifest), "--out", str(tmp_path / "out"))
    code, err = run_cli_subprocess(*argv)
    assert code == 2
    assert err == f"error: need r <= n^floor((ell-1)/2) = 10, got r = {10**12}\n"
    assert not (tmp_path / "out").exists()


def test_decompose_admits_rho_zero(tmp_path):
    """rho > 0 is a bounds refusal only: an unsmoothed decomposition is a valid run."""
    assert run_cli("decompose", "--n", "4", "--l", "3", "--r", "2", "--rho", "0", "--out", str(tmp_path)) == 0


@pytest.mark.parametrize(
    "sub, ell",
    [(sub, 33) for sub in sorted(ARTIFACT_ARGS)] + [("smallball", 10**9)],
)
def test_replay_refuses_order_above_cap(tmp_path, capsys, sub, ell):
    config = cli._config_from_args(cli.build_parser().parse_args([sub, "--seed", "0"]))
    config.update(ell=ell, n=1)
    if sub == "smallball":
        config["m"] = 1
    manifest = tmp_path / f"{sub}_manifest.json"
    manifest.write_text(json.dumps({"subcommand": sub, "config": config}))
    if ell == 10**9:
        code, err = run_cli_subprocess("--replay", str(manifest))
    else:
        code, err = run_cli("--replay", str(manifest)), capsys.readouterr().err
    assert code == 2
    assert err == f"error: tensor order must be <= {cli.MAX_ORDER}, got l = {ell}\n"
    assert not any(p.name != manifest.name for p in tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("smallball", "--n", "1", "--l", "32", "--m", "1", "--trials", "100"),
        ("direction", "--n", "1", "--l", "32", "--trials", "100"),
        ("bounds", "--l", "32", "--m", "1"),
        ("dominance", "--n", "1", "--l", "32", "--trials", "100"),
        ("norms", "--n", "1", "--l", "32", "--trials", "100"),
        ("decompose", "--n", "1", "--l", "32", "--r", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_order_cap_admits_32(tmp_path, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
    assert manifest["config"]["ell"] == cli.MAX_ORDER == 32


def test_readme_commands_parse(monkeypatch):
    """Every ``tensorball ...`` command in README.md parses and resolves to a config."""
    monkeypatch.delenv("TENSORBALL_SEED", raising=False)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = re.findall(r"^tensorball (.+)$", text, re.M) + re.findall(r"`tensorball ([^`]+)`", text)
    parser = cli.build_parser()
    subcommands = set()
    for command in commands:
        args = parser.parse_args(shlex.split(command))
        cli._config_from_args(args)
        subcommands.add(args.subcommand)
    assert subcommands >= {*cli._SUBCOMMANDS, "selftest"}


# the default grids as every manifest holds them, sorted decreasing
EPS_GRID_20 = [
    0.1, 0.07847599703514611, 0.06158482110660261, 0.04832930238571752, 0.0379269019073225,
    0.029763514416313176, 0.023357214690901212, 0.018329807108324356, 0.01438449888287663,
    0.011288378916846888, 0.008858667904100823, 0.0069519279617756054, 0.00545559478116852,
    0.004281332398719396, 0.003359818286283781, 0.0026366508987303583, 0.00206913808111479,
    0.0016237767391887208, 0.0012742749857031334, 0.001,
]
MONTE_CARLO_DEFAULTS = {"threads": 1, "batch_size": 100000, "confidence": 0.99}
DEFAULT_CONFIGS = {
    "smallball": {
        "seed": 0, "trials": 1000000, **MONTE_CARLO_DEFAULTS,
        "n": 8, "ell": 3, "m": 4, "dist": "cube", "subspace": "haar", "eps_grid": EPS_GRID_20,
    },
    "direction": {
        "seed": 0, "trials": 1000000, **MONTE_CARLO_DEFAULTS, "n": 8, "ell": 3, "dist": "cube", "eps_grid": EPS_GRID_20,
    },
    "bounds": {
        "seed": 0, "ell": 2, "m": 10, "n": 4, "r": None, "rho": None, "eps_grid": EPS_GRID_20,
        "c_main": 1.0, "c_prime": 1.0, "c_dprime": 1.0, "c_small": 1.0,
    },
    "dominance": {
        "seed": 0, "trials": 200000, **MONTE_CARLO_DEFAULTS,
        "n": 2, "ell": 2, "dist": "gauss", "bodies": 1, "count": 4, "scale": 1.0,
    },
    "norms": {
        "seed": 0, "trials": 100000, **MONTE_CARLO_DEFAULTS, "n": 64, "ell": 2, "dist": "gauss",
        "t_grid": [0.95, 0.85, 0.75, 0.65, 0.5499999999999999, 0.44999999999999996, 0.35, 0.25, 0.15, 0.05],
    },
    "smin": {
        "seed": 0, "trials": 10000, **MONTE_CARLO_DEFAULTS, "n": 6, "ell": 2, "r": 8, "rho": 1.0,
        "eps_grid": [
            0.5, 0.3207645997392824, 0.2057798568918039, 0.1320137868606126, 0.08469069900482264,
            0.05433155633584393, 0.03485527984255849, 0.022360679774997894, 0.014345028995850929,
            0.009202754968205043, 0.005903836027749967, 0.003787483200735143, 0.0024297810658061286,
            0.0015587755020547783, 0.001,
        ],
    },
    "decompose": {"seed": 0, "n": 10, "ell": 3, "r": 6, "rho": 0.1, "noise": 0.0},
}


@pytest.mark.parametrize("sub", sorted(DEFAULT_CONFIGS))
def test_default_config_pinned(sub):
    """Each subcommand's resolved default config, key order and value types included: both reach manifest bytes."""
    cfg = cli._config_from_args(cli.build_parser().parse_args([sub, "--seed", "0"]))
    want = DEFAULT_CONFIGS[sub]
    assert list(cfg.items()) == list(want.items())
    assert [type(v) for v in cfg.values()] == [type(v) for v in want.values()]


@pytest.mark.parametrize(
    "m, ell, n",
    [
        # 2^52 + 1: the ceiling of the float square root is 2^26, whose square is below m
        (4503599627370497, 2, 67108865),
        # (2^100 + 2^47 + 1)^2: stepping up from the float square root took about 1.4e14 steps
        ((2**100 + 2**47 + 1) ** 2, 2, 2**100 + 2**47 + 1),
        # 5^5: the float fifth root is just above 5, and its ceiling overshot to 6
        (3125, 5, 5),
        (4, 2, 2),
        (1, 3, 2),
    ],
    ids=["2^52+1", "(2^100+2^47+1)^2", "5^5", "2^2", "one"],
)
def test_bounds_resolves_n_past_float_square_root(m, ell, n):
    cfg = cli._config_from_args(cli.build_parser().parse_args(["bounds", "--m", str(m), "--l", str(ell)]))
    assert cfg["n"] == n


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
    monkeypatch.setenv("TENSORBALL_SEED", "-3")
    assert run_cli("bounds", "--out", str(tmp_path)) == 2


def test_explicit_seed_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORBALL_SEED", "7")
    assert run_cli("bounds", "--seed", "5", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "bounds_manifest.json").read_text())
    assert manifest["seed"] == 5


def test_one_parser_per_process_keeps_no_state_between_parses():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["smallball", "--eps-grid", "0.1:0.4:3"])
    second = parser.parse_args(["smallball"])
    assert second == cli.build_parser.__wrapped__().parse_args(["smallball"])
    assert second.eps_grid != first.eps_grid
    # the default grid is converted afresh for every namespace, never shared
    assert parser.parse_args(["smallball"]).eps_grid is not second.eps_grid
    assert second.seed is None


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "tensorball" in capsys.readouterr().out


def test_grid_parser():
    # a list, like the grids a manifest holds
    assert cli._parse_grid("0.1:0.4:3", log=False) == [0.4, 0.25, 0.1]
    with pytest.raises(cli.UsageError):
        cli._parse_grid("1:2")
    with pytest.raises(cli.UsageError):
        cli._parse_grid("0:1:5")
    with pytest.raises(cli.UsageError):
        cli._parse_grid("1:1:5")
    with pytest.raises(cli.UsageError):
        cli._parse_grid("nan:0.1:5")
    with pytest.raises(cli.UsageError):
        cli._parse_grid("0.05:inf:3")


def test_aux_rng_streams_disjoint_from_batches():
    a = montecarlo._aux_rng(0, 0).standard_normal(4)
    b = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,))).standard_normal(4)
    assert not np.allclose(a, b)
