"""tensorball benchmark: drive the CLI in-process, one call after another.

    python3 perfbench/run.py --workload dense-haar --seed 0 --seconds 20 --trace 0

Run from a checkout's root or anywhere; paths resolve from this file.  One
process is a single closed-loop caller of ``tensorball.cli.main(argv)``.
Each run:

1. pins BLAS/OpenMP to ``BLAS_THREADS``, turns numpy's huge-page advice off
   and pins glibc's mmap threshold before numpy loads;
2. runs one warm-up pass over the workload's call list, not reported (first
   calls are excluded; set-up cost is ``setup_s``), and reads the peak RSS
   of the process at that point;
3. loads the pinned reference copy of the package (``reference/``), which
   shares the warmed-up numpy and scipy;
4. for ``--seconds``, runs pairs of passes, one through the package under
   test and one through the reference, flipping which goes first every pair;
5. takes ``SETUP_PAIRS`` pairs of fresh-interpreter set-up times.

Every time is reported at the reference's speed: the median over a call's
pairs of (package time / reference time), times the reference's recorded
time for that call (``reference/nominal.json``).  The shared machine's
speed drifts by tens of percent over minutes; both halves of a pair see the
same drift, so the ratio cancels it.  Raw times go to the record file.

With ``--trace 1`` half the time runs untraced and half with spans around
each module's public functions (see ``spans.py``); the result holds the
per-layer metrics, and the reference is not loaded.  Every call's output is
checked (see ``workloads.py``); at the default seed every hit count must
equal ``goldens.json``.  The last stdout line is the JSON result; the
environment block and the full record, spans included, go to
``.perfbench_work/`` in the checkout.

``--record-goldens`` runs one pass of every workload at the default seed and
rewrites ``goldens.json``; ``--record-nominal`` times the reference alone
and rewrites ``reference/nominal.json``.
"""

from __future__ import annotations

import ctypes
import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# numpy asks the kernel for transparent huge pages on large arrays; whether
# it gets them depends on how fragmented the machine's memory is, so a call's
# time flips between two modes from one pass to the next.  Off, every array
# takes the same page-fault path.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

# glibc raises its mmap threshold each time a large block is freed, so
# whether a 128 KiB-32 MiB array reuses a heap block (at an offset set by the
# process's history) or gets fresh pages differs from one process to the
# next, and so did whole runs' times.  Pinned, every such array gets fresh
# pages.
MMAP_THRESHOLD = 128 * 1024
try:
    _pinned = ctypes.CDLL("libc.so.6").mallopt(-3, MMAP_THRESHOLD) == 1  # -3: M_MMAP_THRESHOLD
except OSError:
    _pinned = False
if not _pinned:
    MMAP_THRESHOLD = None

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    MC_SUBCOMMANDS,
    SUBCOMMANDS,
    WORKLOADS,
    CheckFailed,
    calls_for,
    check_output,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
NOMINAL = REFERENCE / "nominal.json"
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens.json"
SETUP_PAIRS = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import {package}.cli as c; c.build_parser(); "
    "print(time.perf_counter() - t)"
)
# (package, sys.path entry) of the code under test and of the pinned reference
UNDER_TEST = ("tensorball", SRC)
REF = ("tensorball_ref", REFERENCE)
NOMINAL_SEEDS = (1, 2, 3)
NOMINAL_SECONDS = 20.0


def setup_time(package: str, path: Path) -> float:
    """Fresh-interpreter ``import <package>.cli`` plus parser build, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(package=package)], env={**os.environ, "PYTHONPATH": str(path)},
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha1(package_dir: Path) -> str:
    """Digest of a package's sources, which identifies the code when git is absent."""
    h = hashlib.sha1()
    for path in sorted(package_dir.rglob("*.py")):
        h.update(path.relative_to(package_dir).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, cli) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "source_sha1": source_sha1(SRC / "tensorball"),
        "reference_sha1": source_sha1(REFERENCE / "tensorball_ref"),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "nproc": len(os.sched_getaffinity(0)),
        "cli_batch_size": cli.build_parser().parse_args(["smallball"]).batch_size,
        "first_calls_included": False,
        "times_at_reference_speed": args.trace == 0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def median_ratio(pairs: list[tuple[float, float]]) -> float:
    return statistics.median(cur / ref for cur, ref in pairs)


class Runner:
    """Runs passes over one workload's calls and checks every output."""

    def __init__(self, cli, workload: str, calls, goldens: dict | None, ref_cli=None):
        self.cli = cli
        self.ref_cli = ref_cli
        self.workload = workload
        self.calls = calls
        self.goldens = goldens
        self.out_dir = WORK / "out"
        self.ref_out_dir = WORK / "out_ref"
        self.attempted = 0
        self.failures: list[str] = []
        self.hits: dict[int, list[int]] = {}

    def _check(self, index: int, call, code) -> None:
        if isinstance(code, Exception):
            raise CheckFailed(f"raised {type(code).__name__}: {code}")
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        try:
            hits = check_output(call, str(self.out_dir))
        except (OSError, KeyError, ValueError) as exc:
            raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc
        if hits is None:
            return
        self.hits[index] = hits
        if self.goldens is not None:
            golden = self.goldens["hits"].get(f"{self.workload}/{index}")
            if golden != hits:
                raise CheckFailed(f"hit counts {hits} differ from golden {golden}")

    @staticmethod
    def _invoke(cli, argv: list[str]) -> tuple[float, object, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a raising call is a failed operation; the run goes on
                code = exc
            took = time.perf_counter() - start
        return took, code, sink.getvalue()

    def run_call(self, index: int, call) -> tuple[float, int]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        took, code, log = self._invoke(self.cli, [*call.argv, "--out", str(self.out_dir)])
        try:
            self._check(index, call, code)
        except CheckFailed as exc:
            self.failures.append(f"call {index} ({' '.join(call.argv)}): {exc} {log.strip()[-300:]}")
        written = sum(p.stat().st_size for p in self.out_dir.iterdir()) if self.out_dir.is_dir() else 0
        return took, written

    def run_ref(self, index: int, call) -> float:
        """One call through the reference; it must exit 0, or its time means nothing."""
        shutil.rmtree(self.ref_out_dir, ignore_errors=True)
        took, code, log = self._invoke(self.ref_cli, [*call.argv, "--out", str(self.ref_out_dir)])
        if code != 0:
            self.failures.append(f"reference call {index} ({' '.join(call.argv)}): {code!r} {log.strip()[-300:]}")
        return took

    def run_pass(self) -> dict:
        results = [self.run_call(i, call) for i, call in enumerate(self.calls)]
        return {"durations": [t for t, _ in results], "bytes": sum(b for _, b in results)}

    def run_ref_pass(self) -> list[float]:
        return [self.run_ref(i, call) for i, call in enumerate(self.calls)]

    def phase(self, seconds: float) -> list[dict]:
        """Passes until ``seconds`` have elapsed; the last pass always completes."""
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            passes.append(self.run_pass())
        return passes

    def paired_phase(self, seconds: float) -> dict:
        """(package, reference) time pairs per call for ``seconds``, then set-up pairs.

        A pair of passes runs the whole call list through one side, then
        through the other, so every call follows the same call in both
        halves; which side goes first flips every pair (ABBA).  Pairs run
        until ``seconds`` have elapsed; the last pair always completes.  The
        set-up pairs come after all passes: a fresh interpreter slows the
        call that follows it, which would tilt that pair.
        """
        calls: list[list[tuple[float, float]]] = [[] for _ in self.calls]
        begin = time.perf_counter()
        while not calls[0] or time.perf_counter() - begin < seconds:
            if len(calls[0]) % 2:
                ref = self.run_ref_pass()
                cur = self.run_pass()["durations"]
            else:
                cur = self.run_pass()["durations"]
                ref = self.run_ref_pass()
            for pairs, pair in zip(calls, zip(cur, ref)):
                pairs.append(pair)
        setup = []
        for k in range(SETUP_PAIRS):
            first, second = (REF, UNDER_TEST) if k % 2 else (UNDER_TEST, REF)
            times = {first: setup_time(*first), second: setup_time(*second)}
            setup.append((times[UNDER_TEST], times[REF]))
        return {"calls": calls, "setup": setup}

    def call_medians(self, passes: list[dict]) -> dict[str, float]:
        by_sub: dict[str, list[float]] = {}
        for p in passes:
            for call, took in zip(self.calls, p["durations"]):
                by_sub.setdefault(call.subcommand, []).append(took)
        return {sub: statistics.median(ts) for sub, ts in by_sub.items()}

    def typical_pass(self, passes: list[dict]) -> list[float]:
        """Each call's median wall seconds over the passes: one typical pass."""
        return [statistics.median(p["durations"][i] for p in passes) for i in range(len(self.calls))]

    def end_to_end(self, paired: dict, nominal: dict, rss_mb: float) -> dict[str, float]:
        """End-to-end metrics at the reference's speed (see the module docstring)."""
        typical = [median_ratio(pairs) * t for pairs, t in zip(paired["calls"], nominal["calls"][self.workload])]
        mc = [i for i, call in enumerate(self.calls) if call.subcommand in MC_SUBCOMMANDS]
        by_sub: dict[str, list[float]] = {}
        for call, t in zip(self.calls, typical):
            by_sub.setdefault(call.subcommand, []).append(t)
        return {
            "setup_s": median_ratio(paired["setup"]) * nominal["setup_s"],
            "run_s": sum(typical),
            "mc_trials_per_s": sum(self.calls[i].trials for i in mc) / sum(typical[i] for i in mc),
            "peak_rss_mb": rss_mb,
            "call_geomean_s": math.exp(statistics.fmean(math.log(statistics.median(ts)) for ts in by_sub.values())),
        }

    def per_layer(self, untraced: list[dict], traced: list[dict], tracer) -> dict[str, float]:
        metrics = tracer.layer_metrics(len(traced))
        metrics["cli.bytes_written"] = statistics.fmean(p["bytes"] for p in traced)
        medians = self.call_medians(untraced)
        for sub in SUBCOMMANDS:
            metrics[f"call.{sub}_s"] = medians.get(sub, 0.0)
        metrics["trace.overhead_ratio"] = sum(self.typical_pass(traced)) / sum(self.typical_pass(untraced))
        return metrics


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _import_cli(package: str, path: Path):
    sys.path.insert(0, str(path))
    return importlib.import_module(f"{package}.cli")


def record_goldens(cli) -> int:
    lines = []
    for name in WORKLOADS:
        runner = Runner(cli, name, calls_for(name, DEFAULT_SEED), goldens=None)
        runner.run_pass()
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        lines += [f'  "{name}/{i}": {json.dumps(hits)}' for i, hits in sorted(runner.hits.items())]
    with open(GOLDENS, "w") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "hits": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {GOLDENS}")
    return 0


def record_nominal(ref_cli) -> int:
    """The reference's median seconds per call and for set-up, over ``NOMINAL_SEEDS``."""
    calls = {}
    for name in WORKLOADS:
        samples: list[list[float]] = []
        for seed in NOMINAL_SEEDS:
            runner = Runner(None, name, calls_for(name, seed), goldens=None, ref_cli=ref_cli)
            runner.run_ref_pass()
            samples = samples or [[] for _ in runner.calls]
            begin = time.perf_counter()
            while time.perf_counter() - begin < NOMINAL_SECONDS / len(NOMINAL_SEEDS):
                for i, t in enumerate(runner.run_ref_pass()):
                    samples[i].append(t)
            if runner.failures:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
        calls[name] = [round(statistics.median(ts), 6) for ts in samples]
    setup_s = round(statistics.median(setup_time(*REF) for _ in range(3 * SETUP_PAIRS)), 6)
    with open(NOMINAL, "w") as fh:
        fh.write(json.dumps({"setup_s": setup_s, "calls": calls}) + "\n")
    print(f"wrote {NOMINAL}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    parser.add_argument("--record-nominal", action="store_true")
    args = parser.parse_args()
    if not (SRC / "tensorball" / "cli.py").is_file():
        print(f"perfbench: no tensorball sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not (args.record_goldens or args.record_nominal):
        parser.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    if args.record_nominal:
        return record_nominal(_import_cli(*REF))
    cli = _import_cli(*UNDER_TEST)
    if args.record_goldens:
        return record_goldens(cli)

    goldens = None
    if args.seed == DEFAULT_SEED:
        with open(GOLDENS) as fh:
            goldens = json.load(fh)
    runner = Runner(cli, args.workload, calls_for(args.workload, args.seed), goldens)
    env = environment(args, cli)
    record: dict = {"environment": env}
    runner.run_pass()  # warm-up: first calls are not reported
    if args.trace == 0:
        rss_mb = peak_rss_mb()  # before the reference shares the process
        with open(NOMINAL) as fh:
            nominal = json.load(fh)
        runner.ref_cli = _import_cli(*REF)
        paired = runner.paired_phase(args.seconds)
        metrics = runner.end_to_end(paired, nominal, rss_mb)
        record["paired"] = paired
    else:
        untraced = runner.phase(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.phase(args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = runner.per_layer(untraced, traced, tracer)
        record.update(spans=tracer.spans, passes=untraced + traced)
    units = _units()
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(result, failures=runner.failures)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"environment": env}))
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
