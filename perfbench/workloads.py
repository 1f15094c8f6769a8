"""Workload call lists and the checks applied to every call's output.

A workload is a fixed list of CLI calls.  Call ``i`` of a workload run with
seed ``s`` gets the CLI seed ``SeedSequence(s, spawn_key=(i,))``, so the same
workload seed always gives the same calls.  Monte-Carlo calls use
``--threads 1`` and the CLI's default ``--batch-size``: the batch partition
is the random stream, so neither may change between commits.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
# Decompose calls with --noise 0 must recover every component to this
# tolerance (the acceptance-8 noiseless tolerance).
NOISELESS_TOL = 1e-6
_DECOMPOSE_CALLS = 64
_SMIN_CALLS = 4


@dataclass(frozen=True)
class Call:
    subcommand: str
    argv: tuple[str, ...]
    trials: int  # Monte-Carlo trials the call completes; 0 for decompose


def _seed(workload_seed: int, index: int) -> str:
    return str(int(np.random.SeedSequence(workload_seed, spawn_key=(index,)).generate_state(1)[0]))


def _mc(subcommand: str, trials: float, *flags: str, bodies: int = 0) -> tuple:
    argv = (subcommand, *flags, "--trials", f"{trials:g}", "--threads", "1")
    return argv, int(trials) * (2 * bodies if bodies else 1)


def _templates(name: str) -> list[tuple[tuple[str, ...], int]]:
    if name == "dense-haar":
        # 2e4 trials fit in one batch of the default partition: a 655 MB
        # intermediate instead of the 3.3 GB a full 1e5 batch needs.  The
        # default grid tops out at eps = 0.1, where no trial of this shape
        # hits; this grid gives hit counts worth pinning to goldens.
        return [
            _mc("smallball", 2e4, "--subspace", "haar", "--n", "16", "--l", "3", "--m", "16", "--dist", "cube",
                "--eps-grid", "0.1:1:20")
        ]
    if name == "mc-mixed":
        return [
            _mc("smallball", 1e5, "--subspace", "line", "--n", "8", "--l", "3", "--m", "8"),
            _mc("direction", 5e5, "--dist", "cube-unit", "--n", "8", "--l", "3"),
            _mc("norms", 1e5, "--n", "64", "--l", "2"),
            _mc("dominance", 1e5, "--n", "4", "--l", "3", "--dist", "laplace", "--bodies", "3", "--count", "8", bodies=3),
        ]
    if name == "smoothed":
        # four short smin calls rather than one long one: each pass then
        # holds four smin times to take a median over
        calls = []
        for i in range(_DECOMPOSE_CALLS):
            if i % (_DECOMPOSE_CALLS // _SMIN_CALLS) == 0:
                calls.append(_mc("smin", 1e3, "--n", "8", "--l", "3", "--r", "20", "--rho", "1.0"))
            shape = ("--n", "30", "--l", "3", "--r", "20") if i % 2 == 0 else ("--n", "6", "--l", "5", "--r", "30")
            noise = "0" if i % 16 >= 14 else "1e-8"
            calls.append((("decompose", *shape, "--rho", "1.0", "--noise", noise), 0))
        return calls
    raise KeyError(name)


WORKLOADS = ("dense-haar", "mc-mixed", "smoothed")
MC_SUBCOMMANDS = ("smallball", "direction", "norms", "dominance", "smin")
SUBCOMMANDS = (*MC_SUBCOMMANDS, "decompose")


def calls_for(name: str, workload_seed: int) -> list[Call]:
    return [
        Call(argv[0], (*argv, "--seed", _seed(workload_seed, i)), trials)
        for i, (argv, trials) in enumerate(_templates(name))
    ]


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_counts(counts: list[int], trials: int, what: str) -> None:
    _require(all(0 <= c <= trials for c in counts), f"{what} outside [0, {trials}]")
    _require(all(a >= b for a, b in zip(counts, counts[1:])), f"{what} increase along the grid")


def _flag(call: Call, name: str) -> str:
    return call.argv[call.argv.index(name) + 1]


def _curve_hits(call: Call, path: str) -> list[int]:
    rows = _rows(path)
    _require(len(rows) >= 2, f"{path} has fewer than two grid points")
    trials = int(rows[0]["trials"])
    _require(trials == int(float(_flag(call, "--trials"))), f"{path} reports {trials} trials")
    eps = [float(r["epsilon"]) for r in rows]
    _require(all(a > b for a, b in zip(eps, eps[1:])), "epsilon grid is not decreasing")
    hits = [int(r["hits"]) for r in rows]
    _check_counts(hits, trials, "hit counts")
    return hits


def check_output(call: Call, out_dir: str) -> list[int] | None:
    """Parse and check one call's artifacts; returns its hit counts, if it has any."""
    sub = call.subcommand
    with open(os.path.join(out_dir, f"{sub}_manifest.json")) as fh:
        manifest = json.load(fh)
    _require(manifest["subcommand"] == sub, "manifest names another subcommand")
    for name in manifest["outputs"]:
        _require(os.path.isfile(os.path.join(out_dir, name)), f"manifest output {name} missing")
    if sub in ("smallball", "direction", "smin"):
        return _curve_hits(call, os.path.join(out_dir, f"{sub}.csv"))
    if sub == "norms":
        rows = _rows(os.path.join(out_dir, "norms.csv"))
        trials = int(rows[0]["trials"])
        t = [float(r["t"]) for r in rows]
        _require(all(a < b for a, b in zip(t, t[1:])), "t grid is not increasing")
        upper = [int(r["upper_hits"]) for r in rows]
        lower = [int(r["lower_hits"]) for r in rows]
        _check_counts(upper, trials, "upper tail counts")
        _check_counts(lower, trials, "lower tail counts")
        return upper + lower
    if sub == "dominance":
        rows = _rows(os.path.join(out_dir, "dominance.csv"))
        hits = []
        for r in rows:
            trials = int(r["trials"])
            _require(r["violation_candidate"] == "False", f"body {r['body']} is a dominance violation candidate")
            pair = [int(r["hits_a"]), int(r["hits_b"])]
            _require(all(0 <= h <= trials for h in pair), "dominance hits outside [0, trials]")
            hits += pair
        return hits
    if sub == "decompose":
        with open(os.path.join(out_dir, "decompose_report.json")) as fh:
            report = json.load(fh)
        r = int(_flag(call, "--r"))
        _require(sorted(report["permutation"]) == list(range(r)), "permutation is not a bijection")
        err = float(report["max_error"])
        _require(math.isfinite(err), "max_error is not finite")
        if float(_flag(call, "--noise")) == 0.0:
            _require(err <= NOISELESS_TOL, f"noiseless max_error {err:.3e} > {NOISELESS_TOL:g}")
        return None
    raise CheckFailed(f"no check for subcommand {sub}")
