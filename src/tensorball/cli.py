"""Command-line front end: every experiment behind one reproducible binary.

Each subcommand resolves its flags into a plain config dict and hashes
{subcommand, config, seed, version} into a manifest hash.  Its runner
computes the artifacts, every one stamped with that hash, as bytes; only
``_dispatch`` writes them, followed by a JSON run manifest.
``--replay <manifest.json>`` re-runs the stored config and reproduces the
CSVs byte for byte (single-batch mode).  The manifest also records, outside
the hash, what can move those bytes without a config change: the numpy
version, whose ``Generator`` streams are not promised stable across releases
(NEP 19), the BLAS and its version, the ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` settings (OpenBLAS splits a sum over its threads, which
can move its last bit) and the CPU count.  Replay prints one stderr line
when any of them differs from the running process.

Exit codes: 0 success, 1 usage error, 2 validation/configuration error,
3 numerical degeneracy, 4 an acceptance gate failed (``selftest``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .decomposition import decompose_smoothed
from .distributions import DistributionSpec, matched_cube
from .errors import (
    ConfigurationError,
    DataSparsityError,
    DegeneracyError,
    ResourceError,
    UsageError,
    ValidationError,
)
from .exact_laws import (
    BoundConfig,
    bound_carbery_wright,
    bound_concentration_subgaussian,
    bound_fixed_subspace,
    bound_generic_subspace,
    bound_nondeterministic,
    bound_single_direction,
    bound_smin_tail,
    product_uniform_smallball,
    sharpness_lower_bound,
)
from .khatri_rao import SmoothedEnsemble, smin_tail_experiment
from .montecarlo import (
    ExperimentConfig,
    SlabBody,
    curve_csv_bytes,
    dominance_test,
    estimate_direction_smallball,
    estimate_smallball,
    norm_concentration,
    rows_csv_bytes,
)
from .subspaces import (
    SubspaceBasis,
    coordinate_line_subspace,
    diagonal_direction,
    haar_subspace,
)
from .tensor_core import FLATTEN_CAP

# highest tensor order any subcommand accepts: numpy 1.x arrays have at most
# 32 axes.  For n >= 2, FLATTEN_CAP stops l at 23 already.
MAX_ORDER = 32

_DIST_KINDS = {
    "cube": "uniform-cube-sqrt3",
    "cube-unit": "uniform-cube-unit",
    "gauss": "gaussian-std",
    "laplace": "symmetric-exponential-unitvar",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _parse_trials(text: str) -> int:
    """A finite integral count, also in float notation (``1e6``, ``2e+04``)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"bad trial count {text!r}") from exc
    if not value.is_integer():
        raise UsageError(f"trial count {text!r} is not a finite integer")
    return int(value)


def _parse_grid(text: str, log: bool = True) -> list[float]:
    """start:end:count, log-spaced by default, returned sorted decreasing."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {text!r} is not start:end:count")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid {text!r} is not start:end:count") from exc
    if count < 2 or not (0 < start < math.inf and 0 < end < math.inf) or start == end:
        raise UsageError(f"grid {text!r} needs two distinct finite positive endpoints and count >= 2")
    vals = np.geomspace(start, end, count) if log else np.linspace(start, end, count)
    return sorted((float(v) for v in vals), reverse=True)


def _aux_rng(seed: int, stream: int) -> np.random.Generator:
    # spawn keys of length 2 cannot collide with the length-1 batch keys
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2**32, stream)))


def git_blob_hash(data: bytes) -> str:
    """Content hash in git blob form (sha1 over a 'blob <len>\\0' header plus data)."""
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def _manifest_hash(subcommand: str, config: dict, seed: int) -> str:
    canon = json.dumps(
        {"subcommand": subcommand, "config": config, "seed": seed, "version": __version__},
        sort_keys=True,
        separators=(",", ":"),
    )
    return git_blob_hash(canon.encode())


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


@contextlib.contextmanager
def _float_range(what: str):
    """Refuse, as a validation error, a computation that overflows a float on the way."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise ValidationError(f"{what} overflows a float") from exc


def _table_csv(rows: list[dict], stamp: str) -> bytes:
    """A table whose columns are the first row's keys; NaN and None are empty cells."""
    return rows_csv_bytes(list(rows[0]), rows, comment=f"manifest: {stamp}")


def _experiment_config(cfg: dict) -> ExperimentConfig:
    return ExperimentConfig(
        seed=cfg["seed"],
        trials=cfg["trials"],
        confidence=cfg["confidence"],
        batch_size=cfg["batch_size"],
        threads=cfg["threads"],
    )


def _specs(cfg: dict) -> tuple[DistributionSpec, ...]:
    return (DistributionSpec(kind=_DIST_KINDS[cfg["dist"]], dim=cfg["n"]),) * cfg["ell"]


def _resolve_subspace(cfg: dict) -> SubspaceBasis:
    choice = cfg["subspace"]
    shape = (cfg["n"],) * cfg["ell"]
    if choice == "haar":
        return haar_subspace(shape, cfg["m"], _aux_rng(cfg["seed"], 0))
    if choice == "line":
        return coordinate_line_subspace(cfg["n"], cfg["ell"], cfg["m"])
    if choice.startswith("file:"):
        basis = SubspaceBasis.load(choice[5:])
        if basis.shape != shape or basis.m != cfg["m"]:
            raise ValidationError(
                f"basis file has shape {basis.shape}, m = {basis.m}; flags say {shape}, m = {cfg['m']}"
            )
        return basis
    raise UsageError(f"unknown subspace {choice!r} (want haar, line, or file:<path>)")


def _run_smallball(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    basis = _resolve_subspace(cfg)
    curve = estimate_smallball(_specs(cfg), basis, _experiment_config(cfg), cfg["eps_grid"])
    return [("smallball.csv", curve_csv_bytes(curve, comment=f"manifest: {stamp}"))]


def _run_direction(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    direction = diagonal_direction(cfg["n"], cfg["ell"])
    curve = estimate_direction_smallball(_specs(cfg), direction, _experiment_config(cfg), cfg["eps_grid"])
    extra = None
    kind = _DIST_KINDS[cfg["dist"]]
    if kind.startswith("uniform-cube"):
        support = math.sqrt(3.0) if kind == "uniform-cube-sqrt3" else 1.0
        exact = [float(product_uniform_smallball(cfg["ell"], support, e)) for e in cfg["eps_grid"]]
        extra = {"exact": exact}
    return [("direction.csv", curve_csv_bytes(curve, extra_columns=extra, comment=f"manifest: {stamp}"))]


def _bounds_row(eps: float, cfg: dict, bc: BoundConfig) -> dict:
    n, ell, m = cfg["n"], cfg["ell"], cfg["m"]
    row = {"epsilon": eps}

    def guarded(name, fn):
        with _float_range(f"the {name} bound at epsilon = {eps:g}"):
            try:
                row[name] = float(fn())
            except ValidationError:
                row[name] = float("nan")

    guarded("fixed_subspace", lambda: bound_fixed_subspace(eps, m, ell, bc))
    guarded("single_direction", lambda: bound_single_direction(eps, ell, bc))
    guarded("generic_subspace", lambda: bound_generic_subspace(eps, m, n, ell, bc))
    guarded("carbery_wright", lambda: bound_carbery_wright(eps, ell, bc))
    guarded("nondeterministic", lambda: bound_nondeterministic(eps, n, ell, m).value)
    guarded("concentration_vershynin", lambda: bound_concentration_subgaussian(eps, m, n, ell, bc, "vershynin"))
    guarded("concentration_bamberger", lambda: bound_concentration_subgaussian(eps, m, n, ell, bc, "bamberger"))
    guarded("sharpness_lower", lambda: sharpness_lower_bound(eps, ell, bc))
    if cfg["r"] is not None:
        guarded("smin_tail", lambda: bound_smin_tail(eps, cfg["r"], n, ell, cfg["rho"], bc)[1])
    return row


def _run_bounds(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    bc = BoundConfig(
        C_main=cfg["c_main"], C_prime=cfg["c_prime"], C_dprime=cfg["c_dprime"], c_small=cfg["c_small"]
    )
    rows = [_bounds_row(eps, cfg, bc) for eps in cfg["eps_grid"]]
    return [("bounds.csv", _table_csv(rows, stamp))]


def _run_dominance(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    spec = DistributionSpec(kind=_DIST_KINDS[cfg["dist"]], dim=cfg["n"])
    cube = matched_cube(spec)
    dim = cfg["n"] ** cfg["ell"]
    bodies = [SlabBody.random(dim, cfg["count"], cfg["scale"], _aux_rng(cfg["seed"], b)) for b in range(cfg["bodies"])]
    reports = dominance_test((spec,) * cfg["ell"], (cube,) * cfg["ell"], bodies, _experiment_config(cfg))
    rows = [
        {
            "body": b,
            "hits_a": rep.hits_a,
            "hits_b": rep.hits_b,
            "trials": rep.trials,
            "p_hat_a": rep.p_hat_a,
            "p_hat_b": rep.p_hat_b,
            "lower_a": rep.lower_a_one_sided,
            "upper_b": rep.upper_b_one_sided,
            "gap": rep.gap,
            "violation_candidate": rep.violation_candidate,
        }
        for b, rep in enumerate(reports)
    ]
    return [("dominance.csv", _table_csv(rows, stamp))]


def _run_norms(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    t_grid = tuple(float(t) for t in sorted(cfg["t_grid"]))
    upper, lower = norm_concentration(_specs(cfg), t_grid, _experiment_config(cfg))
    rows = []
    for i, t in enumerate(t_grid):
        rows.append(
            {
                "t": t,
                "upper_hits": upper.hit_counts[i],
                "lower_hits": lower.hit_counts[i],
                "trials": upper.trials,
                "p_upper": upper.hit_counts[i] / upper.trials,
                "p_lower": lower.hit_counts[i] / lower.trials,
                "upper_ci_low": upper.ci_low[i],
                "upper_ci_high": upper.ci_high[i],
                "lower_ci_low": lower.ci_low[i],
                "lower_ci_high": lower.ci_high[i],
            }
        )
    return [("norms.csv", _table_csv(rows, stamp))]


def _run_smin(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    ensemble = SmoothedEnsemble.random(cfg["r"], cfg["n"], cfg["ell"], cfg["rho"], rng=_aux_rng(cfg["seed"], 0))
    result = smin_tail_experiment(ensemble, _experiment_config(cfg), cfg["eps_grid"])
    extra = {"threshold": list(result.thresholds), "bound": list(result.bound_values)}
    return [("smin.csv", curve_csv_bytes(result.curve, extra_columns=extra, comment=f"manifest: {stamp}"))]


def _run_decompose(cfg: dict, stamp: str) -> list[tuple[str, bytes]]:
    ensemble = SmoothedEnsemble.random(cfg["r"], cfg["n"], cfg["ell"], cfg["rho"], rng=_aux_rng(cfg["seed"], 0))
    with _float_range(f"decompose at rho = {cfg['rho']:g}, noise = {cfg['noise']:g}"):
        report = decompose_smoothed(ensemble, cfg["noise"], rng=_aux_rng(cfg["seed"], 1))
    print(f"max recovery error {report.max_error:.3e}")
    return [
        ("decompose_components.csv", _table_csv(report.to_csv_rows(), stamp)),
        ("decompose_report.json", _json_bytes({"manifest_hash": stamp, **report.to_json_dict()})),
    ]


def _run_selftest() -> int:
    # imported here, not at the top: start-up pays nothing for the gates
    from .gates import GATES

    failed = False
    for gate in GATES:
        ok, line = gate()
        print(line)
        failed |= not ok
    return 4 if failed else 0


def _add_subcommand(sub, name: str, summary: str, trials: str | None = None) -> _Parser:
    """A subparser with ``--seed`` and ``--out``, and the Monte-Carlo flags when ``trials`` is given.

    ``--seed`` defaults to None: the parser is built once per process, so
    ``TENSORBALL_SEED`` is read per call, by ``_resolve_seed``.
    """
    p = sub.add_parser(name, help=summary)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    if trials is not None:
        p.add_argument("--trials", type=_parse_trials, default=trials)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--batch-size", type=int, default=100_000)
        p.add_argument("--confidence", type=float, default=0.99)
    return p


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process, built on first use; every call returns it.

    Parsing leaves it unchanged (argparse converts string defaults afresh
    for each namespace), so calls share it.
    """
    parser = _Parser(prog="tensorball", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tensorball {__version__}")
    parser.add_argument("--replay", metavar="MANIFEST", help="re-run a stored manifest")
    # its own dest: each subcommand's --out default would overwrite a shared one
    parser.add_argument("--out", dest="replay_out", default=None, help="output directory override for --replay")
    sub = parser.add_subparsers(dest="subcommand")

    p = _add_subcommand(sub, "smallball", "projection small-ball curve onto a subspace", trials="1e6")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--l", dest="ell", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--dist", choices=sorted(_DIST_KINDS), default="cube")
    p.add_argument("--subspace", default="haar")
    p.add_argument("--eps-grid", type=_parse_grid, default="1e-3:1e-1:20")

    p = _add_subcommand(sub, "direction", "single-direction small-ball curve (diagonal direction)", trials="1e6")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--l", dest="ell", type=int, default=3)
    p.add_argument("--dist", choices=sorted(_DIST_KINDS), default="cube")
    p.add_argument("--eps-grid", type=_parse_grid, default="1e-3:1e-1:20")

    p = _add_subcommand(sub, "bounds", "tabulate every closed-form bound on an epsilon grid")
    p.add_argument("--l", dest="ell", type=int, default=2)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--eps-grid", type=_parse_grid, default="1e-3:1e-1:20")
    p.add_argument("--c-main", type=float, default=1.0)
    p.add_argument("--c-prime", type=float, default=1.0)
    p.add_argument("--c-dprime", type=float, default=1.0)
    p.add_argument("--c-small", type=float, default=1.0)

    p = _add_subcommand(sub, "dominance", "slab-body dominance test versus the matched uniform cube", trials="2e5")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", dest="ell", type=int, default=2)
    p.add_argument("--dist", choices=sorted(_DIST_KINDS), default="gauss")
    p.add_argument("--bodies", type=int, default=1)
    p.add_argument("--count", type=int, default=4, help="slab directions per body")
    p.add_argument("--scale", type=float, default=1.0)

    p = _add_subcommand(sub, "norms", "two-sided norm concentration tails", trials="1e5")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--l", dest="ell", type=int, default=2)
    p.add_argument("--dist", choices=sorted(_DIST_KINDS), default="gauss")
    p.add_argument("--t-grid", type=lambda text: _parse_grid(text, log=False), default="0.05:0.95:10")

    p = _add_subcommand(sub, "smin", "smoothed Khatri-Rao smallest-singular-value tail", trials="1e4")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--l", dest="ell", type=int, default=2)
    p.add_argument("--r", type=int, default=8)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--eps-grid", type=_parse_grid, default="1e-3:5e-1:15")

    p = _add_subcommand(sub, "decompose", "smoothed rank-r recovery via simultaneous diagonalization")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--l", dest="ell", type=int, default=3)
    p.add_argument("--r", type=int, default=6)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=0.0)

    sub.add_parser("selftest", help="run the nine acceptance gates; exit 4 if any fails")

    return parser


# least value of each integer config key, and what the key counts
_LEAST = {
    "seed": ("seed", 0),
    "n": ("dimension", 1),
    "r": ("rank", 1),
    "m": ("subspace dimension", 1),
    "ell": ("tensor order", 1),
    "count": ("slab direction count", 0),
    "bodies": ("body count", 1),
}


def _check_config(subcommand: str, cfg: dict) -> None:
    """Refusals shared by fresh runs and ``--replay``, before anything is derived.

    Each ``_LEAST`` key that is given (bounds leaves n and r as None) must
    be an integer, not a boolean, at or above its least value.  Every float,
    grid entries included, must be finite, and no grid may be empty.  A
    tensor order above ``MAX_ORDER`` is refused on every subcommand; on
    bounds, ``rho <= 0`` and ``r`` or ``rho`` given without the other; on
    decompose, a rank above n^floor((l-1)/2), the most it can recover.  Runs
    whose flattened size is above ``FLATTEN_CAP`` entries (the m basis rows
    of length n^l for smallball, one n^l x r Khatri-Rao matrix for smin,
    the bodies x count slab directions of length n^l for dominance, at
    least one, and one n^l tensor for direction and decompose) are refused
    before anything is allocated.
    """
    for key, (what, least) in _LEAST.items():
        value = cfg.get(key)
        if value is not None and not (type(value) is int and value >= least):
            raise ValidationError(f"{what} must be an integer >= {least}, got {key} = {value!r}")
    for key, value in cfg.items():
        if value == []:
            raise ValidationError(f"{key} must not be empty")
        if any(isinstance(v, float) and not math.isfinite(v) for v in (value if isinstance(value, list) else [value])):
            raise ValidationError(f"{key} must be finite, got {key} = {value!r}")
    if cfg.get("ell", 1) > MAX_ORDER:
        raise ValidationError(f"tensor order must be <= {MAX_ORDER}, got l = {cfg['ell']}")
    if subcommand == "bounds":
        rho = cfg["rho"]
        if rho is not None and not (type(rho) in (int, float) and rho > 0):
            raise ValidationError(f"smoothing scale must be > 0, got rho = {rho!r}")
        if (cfg["r"] is None) != (rho is None):
            raise ValidationError("the smin_tail column needs both --r and --rho")
    if subcommand in ("smallball", "direction", "dominance", "decompose", "smin"):
        # dominance holds every body's slab directions at once; a run without any still counts as one row
        directions = cfg.get("bodies", 0) * cfg.get("count", 0)
        rows = {"smallball": cfg.get("m"), "smin": cfg.get("r"), "dominance": directions}.get(subcommand) or 1
        if rows * cfg["n"] ** cfg["ell"] > FLATTEN_CAP:
            size = f"{cfg['n']}^{cfg['ell']}" if rows == 1 else f"{rows} x {cfg['n']}^{cfg['ell']}"
            raise ResourceError(f"{subcommand} needs {size} flattened entries, above the cap of {FLATTEN_CAP}")
    if subcommand == "decompose" and cfg["ell"] >= 3:
        max_rank = cfg["n"] ** ((cfg["ell"] - 1) // 2)
        if cfg["r"] > max_rank:
            raise ValidationError(f"need r <= n^floor((ell-1)/2) = {max_rank}, got r = {cfg['r']}")


def _resolve_seed(seed: int | None) -> int:
    """``--seed`` if given, else ``TENSORBALL_SEED``, else 0; read on every call."""
    if seed is not None:
        return seed
    text = os.environ.get("TENSORBALL_SEED", "0")
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"TENSORBALL_SEED={text!r} is not an integer") from exc


def _config_from_args(args) -> dict:
    cfg = {key: value for key, value in vars(args).items() if key not in ("subcommand", "replay", "replay_out", "out")}
    if "seed" in cfg:  # every subcommand but selftest
        cfg["seed"] = _resolve_seed(cfg["seed"])
    _check_config(args.subcommand, cfg)
    if cfg.get("n") is None and "m" in cfg:
        n = max(2, math.ceil(cfg["m"] ** (1.0 / cfg["ell"])))
        while n ** cfg["ell"] < cfg["m"]:
            n += 1
        cfg["n"] = n
    return cfg


_RUNNERS = {
    "smallball": _run_smallball,
    "direction": _run_direction,
    "bounds": _run_bounds,
    "dominance": _run_dominance,
    "norms": _run_norms,
    "smin": _run_smin,
    "decompose": _run_decompose,
}


def _environment() -> dict:
    """The manifest's record of what can move a run's bytes without a config change."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        # numpy before 1.25 reports its build configuration only as text
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _dispatch(subcommand: str, cfg: dict, out_dir: str) -> int:
    """Run ``subcommand`` and write its artifacts, then its manifest, into ``out_dir``.

    The manifest holds the hash every artifact is stamped with, and outside
    the hash the ``_environment`` record and the run time.
    """
    started = time.perf_counter()
    stamp = _manifest_hash(subcommand, cfg, cfg["seed"])
    artifacts = _RUNNERS[subcommand](cfg, stamp)
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "seed": cfg["seed"],
        "version": __version__,
        **_environment(),
        "manifest_hash": stamp,
        "outputs": [name for name, _ in artifacts],
        "duration_s": round(time.perf_counter() - started, 3),
    }
    artifacts.append((f"{subcommand}_manifest.json", _json_bytes(manifest)))
    os.makedirs(out_dir, exist_ok=True)
    for name, data in artifacts:
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"wrote {path}")
    return 0


def _same_kind(value, default) -> bool:
    """Whether a manifest value has the type of the flag default it replaces; a boolean is no number."""
    if default is None:
        return True
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, d) for v in value for d in default[:1])
    return type(value) is type(default) or (type(default) is float and type(value) is int)


def _load_manifest(parser, path) -> tuple[str, dict]:
    """Subcommand and config of a ``--replay`` manifest; any defect raises ``ValidationError``.

    The config must hold exactly the keys that the subcommand's flags
    resolve to, each of the type its default resolves to, and a known
    ``dist``.  An ``_environment`` entry recorded with another value than
    the running one only warns, in one line for all of them; an entry the
    manifest lacks is not compared.
    """
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read manifest {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"manifest {path} is not JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValidationError(f"manifest {path} has no config object")
    subcommand = manifest.get("subcommand")
    if subcommand not in _RUNNERS:
        raise ValidationError(f"manifest {path} names unknown subcommand {subcommand!r}")
    config = manifest["config"]
    # an explicit seed keeps TENSORBALL_SEED out of it: only keys and types count
    expected = _config_from_args(parser.parse_args([subcommand, "--seed", "0"]))
    missing = ", ".join(sorted(expected.keys() - config.keys()))
    unknown = ", ".join(sorted(config.keys() - expected.keys()))
    if missing or unknown:
        raise ValidationError(f"manifest {path}: {subcommand} config lacks [{missing}], has unknown [{unknown}]")
    for key, default in expected.items():
        if not _same_kind(config[key], default):
            raise ValidationError(f"manifest {path}: {subcommand} config {key}={config[key]!r} is not {type(default).__name__}")
    if "dist" in config and config["dist"] not in _DIST_KINDS:
        raise ValidationError(f"manifest {path}: unknown dist {config['dist']!r}")
    _check_config(subcommand, config)
    moved = [
        f"{key} {_shown(manifest[key])}, running {_shown(value)}"
        for key, value in _environment().items()
        if key in manifest and manifest[key] != value
    ]
    if moved:
        print(
            f"warning: manifest {path} was written with {'; '.join(moved)};"
            " random streams (NEP 19) or BLAS sums may differ",
            file=sys.stderr,
        )
    return subcommand, config


def _shown(value) -> str:
    return "unset" if value is None else str(value)


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay is not None:
        if args.subcommand is not None:
            raise UsageError(f"--replay re-runs its manifest alone; drop the {args.subcommand} subcommand")
        subcommand, config = _load_manifest(parser, args.replay)
        out_dir = args.replay_out if args.replay_out is not None else os.path.dirname(os.path.abspath(args.replay))
        return _dispatch(subcommand, config, out_dir)
    if args.replay_out is not None:
        raise UsageError("--out before the subcommand applies to --replay only; give it after the subcommand")
    if args.subcommand is None:
        raise UsageError("missing subcommand (see --help)")
    if args.subcommand == "selftest":
        return _run_selftest()
    cfg = _config_from_args(args)
    return _dispatch(args.subcommand, cfg, args.out or ".")


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ConfigurationError, ResourceError, DataSparsityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
