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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    BoundConfig,
    DegeneracyError,
    bound_carbery_wright,
    bound_fixed_subspace,
    coordinate_line_subspace,
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


def test_selftest_quick_passes(tmp_path, capsys):
    out_dir = tmp_path / "new"
    assert run_cli("selftest", "--quick", "--out", str(out_dir)) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 4
    assert "FAIL" not in out
    # selftest has no artifacts, so it creates no output directory
    assert not out_dir.exists()


def test_selftest_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_selftest_checks", lambda quick, seed: [("bad", lambda: "broken")])
    assert run_cli("selftest") == 4
    assert "FAIL bad: broken" in capsys.readouterr().out


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
    assert set(ARTIFACT_ARGS) == set(cli._RUNNERS)


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
        ("ell", 0, "tensor order must be an integer >= 1, got ell = 0"),
        ("m", 0, "subspace dimension must be an integer >= 1, got m = 0"),
        ("n", 10**10, "above the cap"),
        ("n", 0, "dimension must be an integer >= 1, got n = 0"),
        ("n", -3, "dimension must be an integer >= 1, got n = -3"),
        ("r", 0, "rank must be an integer >= 1, got r = 0"),
        ("r", "4", "rank must be an integer >= 1, got r = '4'"),
        ("rho", 0, "smoothing scale must be > 0, got rho = 0"),
        ("rho", -1.0, "smoothing scale must be > 0, got rho = -1.0"),
        ("rho", math.nan, "rho must be finite, got rho = nan"),
        ("seed", -1, "seed must be an integer >= 0, got seed = -1"),
        ("bodies", 0, "body count must be an integer >= 1, got bodies = 0"),
        ("batch_size", True, "batch_size=True is not int"),
        ("eps_grid", [math.nan], "eps_grid must be finite, got eps_grid = [nan]"),
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
        (("bounds", "--m", "-1"), 2),
        (("dominance", "--count", "-1"), 2),
        # 1e20 and 1e12 entries: refused before anything is allocated
        (("direction", "--n", "100", "--l", "10"), 2),
        (("smallball", "--subspace", "line", "--n", "100", "--l", "10", "--m", "2"), 2),
        (("dominance", "--n", "1000", "--l", "4"), 2),
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
        (("decompose", "--seed", "-1"), 2),
        (("selftest", "--seed", "-1"), 2),
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
    ],
    ids=[
        "trials-inf", "trials-fractional", "l-zero", "l-negative", "no-bodies", "m-negative",
        "count-negative", "direction-oversized", "smallball-oversized", "dominance-oversized",
        "smallball-l33", "direction-l33", "bounds-l33", "dominance-l33", "norms-l33", "smin-l33",
        "decompose-l33", "smallball-l65", "direction-l65", "decompose-l65", "bounds-l1023",
        "smallball-l1e9", "decompose-l1e9", "bounds-l1e9", "bounds-n-negative", "bounds-n-zero",
        "bounds-r-negative", "bounds-rho-negative", "bounds-r-zero", "bounds-rho-zero", "smallball-n-zero",
        "smin-r-zero", "decompose-n-negative", "smin-rho-nan", "smin-rho-inf", "decompose-rho-nan",
        "decompose-noise-nan", "dominance-scale-nan", "smallball-eps-grid-nan", "norms-t-grid-inf",
        "decompose-seed-negative", "selftest-seed-negative", "seed-negative", "bounds-r-alone", "bounds-rho-alone",
        "bounds-c-prime-huge", "smin-rho-huge", "decompose-rho-huge", "decompose-noise-huge", "dominance-scale-huge",
    ],
)
def test_bad_argv_exit_code(tmp_path, capsys, argv, code):
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
    assert subcommands >= {*cli._RUNNERS, "selftest"}


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
    a = cli._aux_rng(0, 0).standard_normal(4)
    b = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,))).standard_normal(4)
    assert not np.allclose(a, b)
