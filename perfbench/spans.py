"""Spans around the public functions of each tensorball module, from outside the package.

``Tracer.install`` replaces every wrapped function in every ``tensorball``
module namespace that holds it (``from .x import f`` copies the name, so
patching only the defining module would miss the callers), and
``Tracer.uninstall`` puts the originals back.  Each call records a span
``[name, start, end, parent, raised]``; spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its child
spans; calls are single-threaded (``--threads 1``), so children never
overlap.

Counters that need the call's arguments (trials, shapes) are derived from
those arguments, never from inside the package.  Names ending in
``_computed`` are arithmetic on call shapes, not measurements.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs; "Class.method" wraps a method on the class.
WRAPPED = (
    ("cli", "main"),
    ("subspaces", "haar_subspace"),
    ("subspaces", "coordinate_line_subspace"),
    ("subspaces", "diagonal_direction"),
    ("distributions", "sample_matrix"),
    ("montecarlo", "estimate_smallball"),
    ("montecarlo", "estimate_direction_smallball"),
    ("montecarlo", "norm_concentration"),
    ("montecarlo", "dominance_test"),
    ("montecarlo", "clopper_pearson"),
    ("montecarlo", "curve_csv_bytes"),
    ("montecarlo", "SlabBody.contains"),
    ("khatri_rao", "smin_tail_experiment"),
    ("khatri_rao", "khatri_rao"),
    ("khatri_rao", "SmoothedEnsemble.random"),
    ("khatri_rao", "sample_smoothed_factors"),
    ("decomposition", "decompose_smoothed"),
    ("decomposition", "simultaneous_diagonalize"),
    ("decomposition", "contract_mode3"),
    ("decomposition", "unfold_terms"),
    ("decomposition", "match_components"),
    ("exact_laws", "bound_smin_tail"),
    ("exact_laws", "product_uniform_smallball"),
)

LAYERS = ("cli", "subspaces", "distributions", "montecarlo", "khatri_rao", "decomposition", "exact_laws")

# Per-layer metric -> the spans whose self time it sums.
_SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "subspaces.build_s": (
        "subspaces.haar_subspace",
        "subspaces.coordinate_line_subspace",
        "subspaces.diagonal_direction",
    ),
    "distributions.sample_s": ("distributions.sample_matrix",),
    "montecarlo.self_s": (
        "montecarlo.estimate_smallball",
        "montecarlo.estimate_direction_smallball",
        "montecarlo.norm_concentration",
        "montecarlo.dominance_test",
    ),
    "montecarlo.slab_s": ("montecarlo.SlabBody.contains",),
    "montecarlo.report_s": ("montecarlo.clopper_pearson", "montecarlo.curve_csv_bytes"),
    "khatri_rao.smin_self_s": ("khatri_rao.smin_tail_experiment",),
    "khatri_rao.kr_s": ("khatri_rao.khatri_rao",),
    "khatri_rao.ensemble_s": ("khatri_rao.SmoothedEnsemble.random", "khatri_rao.sample_smoothed_factors"),
    "decomposition.self_s": ("decomposition.decompose_smoothed",),
    "decomposition.simdiag_s": ("decomposition.simultaneous_diagonalize", "decomposition.contract_mode3"),
    "decomposition.unfold_s": ("decomposition.unfold_terms",),
    "decomposition.match_s": ("decomposition.match_components",),
    "exact_laws.bound_s": ("exact_laws.bound_smin_tail", "exact_laws.product_uniform_smallball"),
}

_DENSE = ("montecarlo.estimate_smallball", "montecarlo.estimate_direction_smallball")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _batches(cfg) -> int:
    return math.ceil(cfg.trials / cfg.batch_size)


def _count_work(counters: Counter, name: str, args, kwargs, result) -> None:
    """Add the work a finished call did, derived from its arguments and result."""
    if name == "distributions.sample_matrix":
        counters["values_drawn"] += result.size
    elif name in _DENSE:
        cfg = _arg(args, kwargs, 2, "cfg")
        if name == "montecarlo.estimate_smallball":
            basis = _arg(args, kwargs, 1, "basis")
            m, shape = basis.m, basis.shape
        else:
            m, shape = 1, _arg(args, kwargs, 1, "f").shape
        counters["trials"] += cfg.trials
        counters["batches"] += _batches(cfg)
        counters["dense_flop"] += 2 * cfg.trials * m * math.prod(shape)
        batch = min(cfg.batch_size, cfg.trials)
        counters["intermediate_bytes_max"] = max(
            counters["intermediate_bytes_max"], batch * m * math.prod(shape[:-1]) * 8
        )
    elif name == "montecarlo.norm_concentration":
        cfg = _arg(args, kwargs, 2, "cfg")
        counters["trials"] += cfg.trials
        counters["batches"] += _batches(cfg)
    elif name == "montecarlo.dominance_test":
        cfg = _arg(args, kwargs, 3, "cfg")
        counters["trials"] += 2 * cfg.trials  # one run per law
        counters["batches"] += 2 * _batches(cfg)
    elif name == "khatri_rao.smin_tail_experiment":
        e, cfg = _arg(args, kwargs, 0, "e"), _arg(args, kwargs, 1, "cfg")
        rows, r = e.n**e.ell, e.r
        # singular values only, QR first (rows >> r): 2 rows r^2 + 2 r^3 per matrix
        counters["svd_flop"] += cfg.trials * (2 * rows * r * r + 2 * r**3)


class Tracer:
    """Records spans and work counters while installed; inert once uninstalled."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, True]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = False
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _count_work(counters, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "tensorball" or key.startswith("tensorball.")]
        for mod_name, attr in WRAPPED:
            module = sys.modules[f"tensorball.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name))
                else:
                    replacement = self._wrap(raw, name)
                self._patch(cls, meth, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, replacement) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def call_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the workload's call list."""
        self_t = self.self_times()
        counts = self.call_counts()
        c = self.counters
        out = {metric: sum(self_t.get(s, 0.0) for s in names) / passes for metric, names in _SELF_TIME.items()}
        sample_s = self_t.get("distributions.sample_matrix", 0.0)
        dense_s = sum(self_t.get(s, 0.0) for s in _DENSE)
        out["distributions.values_drawn"] = c["values_drawn"] / passes
        out["distributions.values_per_s"] = c["values_drawn"] / sample_s if sample_s else 0.0
        out["montecarlo.trials"] = c["trials"] / passes
        out["montecarlo.batches"] = c["batches"] / passes
        out["montecarlo.dense_gflop_computed"] = c["dense_flop"] / 1e9 / passes
        out["montecarlo.dense_gflops_equiv"] = c["dense_flop"] / 1e9 / dense_s if dense_s else 0.0
        out["montecarlo.intermediate_mb_computed"] = c["intermediate_bytes_max"] / 1e6
        out["khatri_rao.svd_gflop_computed"] = c["svd_flop"] / 1e9 / passes
        durations = [end - start for name, start, end, _, _ in self.spans if name == "decomposition.decompose_smoothed"]
        out["decomposition.call_p95_s"] = statistics.quantiles(durations, n=20)[-1] if len(durations) >= 2 else 0.0
        accepted = sum(
            1 for name, _, _, _, raised in self.spans if name == "decomposition.simultaneous_diagonalize" and not raised
        )
        # two mode-3 contractions per probe pair; every pair but the accepted one was rejected
        out["decomposition.degenerate"] = (counts["decomposition.contract_mode3"] // 2 - accepted) / passes
        total = sum(end - start for name, start, end, parent, _ in self.spans if parent < 0)
        for layer in LAYERS:
            layer_self = sum(t for name, t in self_t.items() if name.split(".", 1)[0] == layer)
            out[f"share.{layer}"] = layer_self / total if total else 0.0
        for mod_name, attr in WRAPPED:
            out[f"calls.{mod_name}.{attr}"] = counts[f"{mod_name}.{attr}"] / passes
        return out
