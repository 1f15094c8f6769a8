"""Thread probe, not gated: does the ``--threads`` fan-out pay on this machine?

    python3 perfbench/thread_probe.py

Times ``smallball --subspace line --n 8 --l 3 --m 8 --trials 2e5`` (two
batches of the default partition, so ``--threads 2`` runs them at once) with
``--threads`` 1 and 2, under BLAS/OpenMP pinned to 1 thread and to ``nproc``
threads, each setting in a fresh interpreter: one warm-up call, then the
median of ``REPEATS`` calls.  Hit counts must agree across all settings.

Never point this at the ``dense-haar`` shape: two concurrent 1e5-trial
batches there need about 6.6 GB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_work" / "probe"
REPEATS = 5
ARGV = ["smallball", "--subspace", "line", "--n", "8", "--l", "3", "--m", "8", "--trials", "2e5", "--seed", "1"]
CHILD = """
import contextlib, io, json, statistics, sys, time
import tensorball.cli as cli
argv, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
times = []
for _ in range(repeats + 1):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    times.append(time.perf_counter() - start)
    if code != 0:
        sys.exit(f"exit code {code}")
hits = [line.split(",")[1] for line in open(argv[-1] + "/smallball.csv") if line[0].isdigit()]
print(json.dumps({"median_s": statistics.median(times[1:]), "hits": hits}))
"""


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    rows, hits = [], set()
    for blas in sorted({1, nproc}):
        for threads in (1, 2):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(blas)
            argv = [*ARGV, "--threads", str(threads), "--out", str(OUT)]
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, json.dumps(argv), str(REPEATS)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
            )
            res = json.loads(proc.stdout)
            hits.add(tuple(res["hits"]))
            rows.append({"blas_threads": blas, "threads": threads, "median_s": res["median_s"]})
    for row in rows:
        print(json.dumps(row))
    print(json.dumps({"nproc": nproc, "hit_counts_identical": len(hits) == 1}))
    return 0 if len(hits) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
