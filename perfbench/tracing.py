"""Per-layer spans taken from outside the program.

The tracer replaces public functions at the module attributes their callers
look up (for example `ranks.rank_q`, the name `ranks` calls) with wrappers
that record a span: name, start, end and parent.  Spans stay in memory until
the run ends; `layer_metrics` then derives counts, inclusive times and self
times from them.  `uninstall` restores the original attributes, so untraced
passes run the unmodified program.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# Span payloads read from arguments and return values ("probes").


def _rank_probe(args, kwargs, cert):
    M = args[0] if args else kwargs["M"]
    return (M.rows, M.cols, M.nnz(), cert.method, len(cert.primes))


def _window_probe(args, kwargs, W):
    return W.data.nnz()


def _len_probe(args, kwargs, F):
    return len(F)


def _stabilized_probe(args, kwargs, sd):
    return (sd.steps, sd.stabilized)


def _suite_probe(args, kwargs, suite):
    return suite.cases


def _packing_probe(args, kwargs, kept):
    budget = args[3] if len(args) > 3 else kwargs.get("budget", 400)
    return (budget, kept)


# (module, attribute, span name, probe).  Each entry is a lookup site: a
# function imported into several modules is wrapped once per importer.
TARGETS = (
    ("cli", "mrank_of_presentation", "ranks.mrank_of_presentation", None),
    ("cli", "vnd_of_presentation", "ranks.vnd_of_presentation", None),
    ("cli", "erank_of_presentation", "ranks.erank_of_presentation", None),
    ("cli", "oracle_value", "ranks.oracle_value", None),
    ("cli", "run_identity_suite", "ranks.run_identity_suite", _suite_probe),
    ("cli", "run_superadditivity_suite", "ranks.run_superadditivity_suite", _suite_probe),
    ("cli", "run_submodularity_suite", "ranks.run_submodularity_suite", _suite_probe),
    ("cli", "mmdim_estimate", "mmdim.mmdim_estimate", None),
    ("cli", "folner_set", "groups.folner_set", _len_probe),
    ("ranks", "rank_q", "exactla.rank_q", _rank_probe),
    ("ranks", "nullspace_q", "exactla.nullspace_q", None),
    ("ranks", "generic_rank_laurent", "exactla.oracle", None),
    ("ranks", "regular_rep_kernel", "exactla.oracle", None),
    ("ranks", "window_matrix", "groupring.window_matrix", _window_probe),
    ("ranks", "right_window_matrix", "groupring.right_window_matrix", _window_probe),
    ("ranks", "submodule_rank_matrix", "ranks.submodule_rank_matrix", None),
    ("ranks", "erank_dual_restriction_dim", "ranks.erank_dual_restriction_dim", _stabilized_probe),
    ("ranks", "quotient_span_rank", "ranks.quotient_span_rank", None),
    ("ranks", "dilate", "groups.dilate", None),
    ("ranks", "folner_set", "groups.folner_set", _len_probe),
    ("mmdim", "rank_q", "exactla.rank_q", _rank_probe),
    ("mmdim", "window_matrix", "groupring.window_matrix", _window_probe),
    ("mmdim", "folner_set", "groups.folner_set", _len_probe),
    ("mmdim", "separated_upper_bound", "mmdim.separated_upper_bound", None),
    ("mmdim", "kernel_grid_packing", "mmdim.kernel_grid_packing", None),
    ("mmdim", "separated_lower_count", "mmdim.separated_lower_count", _packing_probe),
    # Lookups inside their own modules, and the call-time imports of
    # exactla.regular_rep_kernel.
    ("exactla", "rank_q", "exactla.rank_q", _rank_probe),
    ("exactla", "bareiss_rank", "exactla.bareiss_rank", None),
    ("groupring", "window_matrix", "groupring.window_matrix", _window_probe),
    ("groupring", "right_window_matrix", "groupring.right_window_matrix", _window_probe),
    ("groups", "folner_set", "groups.folner_set", _len_probe),
    ("groups", "dilate", "groups.dilate", None),
)

LAYERS = ("cli", "ranks", "groupring", "groups", "exactla", "mmdim")


class Tracer:
    """Records spans as (name, start, end, parent index, probe payload)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name, probe in TARGETS:
            module = importlib.import_module(f"folrank.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, probe))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def call(self, name, fn, *args, **kwargs):
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = probe(args, kwargs, result) if probe and result is not None else None
                spans[index] = (name, start, end, parent, info)

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans, wall_s: float, small_dim_cutoff: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    top = 0.0
    for i, (name, start, end, parent, info) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        self_time[name.split(".")[0]] += end - start - child_time[i]
        if info is not None:
            infos[name].append((info, end - start))
        if parent < 0:
            top += end - start

    m: dict[str, float] = {}
    for name in (
        "exactla.rank_q",
        "exactla.bareiss_rank",
        "exactla.nullspace_q",
        "groupring.window_matrix",
        "groupring.right_window_matrix",
        "ranks.submodule_rank_matrix",
        "groups.dilate",
        "mmdim.separated_lower_count",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = inclusive[name]
    m["groups.folner_set.calls"] = calls["groups.folner_set"]
    m["exactla.oracle.s"] = inclusive["exactla.oracle"]
    m["mmdim.bounds.s"] = inclusive["mmdim.separated_upper_bound"] + inclusive["mmdim.kernel_grid_packing"]

    # rank_q: split by certificate method and by shape against the cutoff.
    split = {"small": [0, 0.0], "modular": [0, 0.0]}
    fallbacks = primes = max_cells = dense_bytes = mod_nnz = mod_cells = 0
    for (rows, cols, nnz, method, nprimes), dt in infos["exactla.rank_q"]:
        max_cells = max(max_cells, rows * cols)
        primes += nprimes
        if method == "modular-multi-prime":
            kind = "modular"
            dense_bytes += 8 * rows * cols * nprimes
            mod_nnz += nnz
            mod_cells += rows * cols
        elif max(rows, cols) <= small_dim_cutoff or nnz == 0:
            kind = "small"
        else:
            fallbacks += 1
            continue
        split[kind][0] += 1
        split[kind][1] += dt
    for kind, (n, dt) in split.items():
        m[f"exactla.rank_q.{kind}.calls"] = n
        m[f"exactla.rank_q.{kind}.s"] = dt
    m["exactla.rank_q.fallbacks"] = fallbacks
    m["exactla.rank_q.agreed_primes"] = primes
    m["exactla.rank_q.max_cells"] = max_cells
    m["exactla.rank_q.dense_bytes"] = dense_bytes
    m["exactla.rank_q.nnz_share"] = mod_nnz / mod_cells if mod_cells else 0.0

    m["groupring.nnz"] = sum(
        nnz for name in ("groupring.window_matrix", "groupring.right_window_matrix")
        for nnz, _ in infos[name]
    )
    m["groups.window_elems"] = sum(n for n, _ in infos["groups.folner_set"])
    erank = [info for info, _ in infos["ranks.erank_dual_restriction_dim"]]
    m["ranks.erank.windows"] = len(erank)
    m["ranks.erank.growth_steps"] = sum(steps for steps, _ in erank)
    m["ranks.erank.unstabilized"] = sum(1 for _, ok in erank if not ok)
    m["ranks.suite.cases"] = sum(
        cases for name in infos if name.startswith("ranks.run_") for cases, _ in infos[name]
    )
    packing = [info for info, _ in infos["mmdim.separated_lower_count"]]
    samples = sum(budget for budget, _ in packing)
    kept = sum(k for _, k in packing)
    m["mmdim.samples"] = samples
    m["mmdim.kept"] = kept
    m["mmdim.kept_per_sample"] = kept / samples if samples else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.spans"] = len(spans)
    m["trace.coverage"] = top / wall_s if wall_s else 0.0
    return m
