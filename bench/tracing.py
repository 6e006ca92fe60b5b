"""Span tracing of l3doc's layers from outside the package.

The tracer replaces public functions with timing wrappers at the names
their callers look them up by (``trainer.forward``, ``cli.build_tasks``,
the ``l3doc.autodiff`` op attributes, ...), so no code under ``src/``
changes.  Spans (name, start, end, parent, tag) are kept in memory and
reduced to per-layer metrics after the run; ``restore`` puts every
original function back.

Backward time of an op is measured by wrapping the ``_backward`` closure
of each tensor the op returns.  Ops created while a kernel is being
reconstructed carry that layer's 1-based index as their tag, so the
reconstruction's share of backward can be told apart from the MLP's.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Every autodiff op that adds a node to the graph.  test_smoke.py checks
# that the package calls no other.
OPS = ("matmul", "add", "relu", "reshape", "max_pool_points", "softmax", "sq_l2_diff",
       "scale", "stack_scalars", "sum_all", "transposed_conv2d", "channel_contract",
       "mul", "log", "mean")

# Layers whose self time inside a training step is reported.
STEP_LAYERS = ("autodiff", "factorization", "backbone", "mam", "trainer")

MAX_LAYERS = 5


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._layer: int | None = None
        self._layer_count = 0
        self.archive_sizes: list[int] = []
        self.entries_evaluated = 0

    # ------------------------------------------------------------ spans

    def _call(self, name: str, tag, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn, tag=None):
        def wrapper(*args, **kwargs):
            return self._call(name, tag, fn, args, kwargs)

        return wrapper

    def _op(self, name: str, fn):
        fwd, bwd = f"autodiff.{name}.fwd", f"autodiff.{name}.bwd"

        def op(*args, **kwargs):
            tag = self._layer
            out = self._call(fwd, tag, fn, args, kwargs)
            if out._backward is not None:
                out._backward = self._timed(bwd, out._backward, tag)
            return out

        return op

    def _reconstruct_layers(self, fn):
        def wrapper(*args, **kwargs):
            self._layer_count = 0
            return self._call("factorization.reconstruct_layer_kernels", None, fn, args, kwargs)

        return wrapper

    def _reconstruct_one(self, fn):
        def wrapper(*args, **kwargs):
            self._layer_count += 1
            self._layer = self._layer_count
            try:
                return self._call("factorization.reconstruct", self._layer, fn, args, kwargs)
            finally:
                self._layer = None

        return wrapper

    def _total_loss(self, fn):
        def wrapper(lc, kb, current, archive, *args, **kwargs):
            self.archive_sizes.append(len(archive))
            return self._call("mam.total_loss", None, fn, (lc, kb, current, archive, *args), kwargs)

        return wrapper

    def _evaluate_archive(self, fn):
        def wrapper(*args, **kwargs):
            result = self._call("trainer.evaluate_archive", None, fn, args, kwargs)
            self.entries_evaluated += len(result)
            return result

        return wrapper

    # ---------------------------------------------------------- patching

    def _patch(self, module, attr: str, wrapped) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    def install(self) -> None:
        from l3doc import autodiff, backbone, cli, datasets, factorization, mam, metrics, trainer

        if self._patches:
            raise RuntimeError("tracer already installed")
        t = self._timed
        for name in OPS:
            self._patch(autodiff, name, self._op(name, getattr(autodiff, name)))
        self._patch(autodiff, "gradients", t("autodiff.gradients", autodiff.gradients))
        self._patch(cli, "resolve_config", t("cli.resolve_config", cli.resolve_config))
        self._patch(cli, "build_tasks", t("datasets.build_tasks", cli.build_tasks))
        self._patch(cli, "gen_synthetic", t("datasets.gen_synthetic", cli.gen_synthetic))
        self._patch(cli, "load_task_from_dir", t("datasets.load_task", cli.load_task_from_dir))
        self._patch(datasets, "parse_off", t("datasets.parse_off", datasets.parse_off))
        self._patch(datasets, "sample_mesh", t("datasets.sample_mesh", datasets.sample_mesh))
        self._patch(datasets, "farthest_point_sampling",
                    t("datasets.fps", datasets.farthest_point_sampling))
        self._patch(datasets, "normalize_unit_sphere",
                    t("datasets.normalize", datasets.normalize_unit_sphere))
        self._patch(trainer, "reconstruct_layer_kernels",
                    self._reconstruct_layers(trainer.reconstruct_layer_kernels))
        self._patch(factorization, "reconstruct_kernel",
                    self._reconstruct_one(factorization.reconstruct_kernel))
        self._patch(trainer, "forward", t("backbone.forward", trainer.forward))
        self._patch(backbone, "canonical_order", t("backbone.canonical_order", backbone.canonical_order))
        self._patch(trainer, "classification_loss", t("backbone.loss", trainer.classification_loss))
        self._patch(mam, "total_loss", self._total_loss(mam.total_loss))
        self._patch(trainer, "adam_step", t("trainer.adam", trainer.adam_step))
        self._patch(trainer, "train_task", t("trainer.train_task", trainer.train_task))
        self._patch(trainer, "evaluate_task", t("trainer.evaluate_task", trainer.evaluate_task))
        self._patch(trainer, "evaluate_archive", self._evaluate_archive(trainer.evaluate_archive))
        self._patch(metrics, "export", t("metrics.export", metrics.export))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ------------------------------------------------------------ reduction

def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def step_accounting(spans: list[list]) -> dict:
    """Split training-step wall-clock into layer self times.

    A step runs from the kernel reconstruction that opens it to the end of
    the Adam update that closes it; both are direct children of
    ``trainer.train_task``, as are the forward, loss, memory-attention and
    gradient spans between them.  Step time that none of those spans covers
    is ``other_ms``.
    """
    selfs = _self_times(spans)
    inside = [False] * len(spans)
    steps, wall, covered, nodes = 0, 0.0, 0.0, 0
    layer_self = {layer: 0.0 for layer in STEP_LAYERS}
    opened = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent < 0:
            continue
        if spans[parent][0] == "trainer.train_task" and name != "trainer.evaluate_task":
            inside[i] = True
            covered += t1 - t0
            if name == "factorization.reconstruct_layer_kernels":
                opened[parent] = t0
            elif name == "trainer.adam":
                wall += t1 - opened.pop(parent)
                steps += 1
        else:
            inside[i] = inside[parent]
        if inside[i]:
            layer_self[name.split(".", 1)[0]] += selfs[i]
            if name.startswith("autodiff.") and name.endswith(".fwd"):
                nodes += 1
    return {"steps": steps, "wall_ms": wall * 1e3, "other_ms": (wall - covered) * 1e3,
            "nodes": nodes, "layer_self_ms": {k: v * 1e3 for k, v in layer_self.items()}}


def _totals(spans: list[list]) -> tuple[dict, dict]:
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, t0, t1, _, _ in spans:
        ms[name] += (t1 - t0) * 1e3
        calls[name] += 1
    return ms, calls


def layer_metrics(spans: list[list], runs: int, archive_sizes, entries_evaluated: int) -> dict:
    """Per-layer values from the spans of ``runs`` traced sequences; times
    and counts are totals per sequence."""
    ms, calls = _totals(spans)
    tagged_ms: dict[tuple[str, int], float] = defaultdict(float)
    for name, t0, t1, _, tag in spans:
        if tag is not None and name == "factorization.reconstruct":
            tagged_ms[("fwd", tag)] += (t1 - t0) * 1e3
        elif tag is not None and name.endswith(".bwd"):
            tagged_ms[("bwd", tag)] += (t1 - t0) * 1e3
    acct = step_accounting(spans)
    out: dict[str, float] = {}

    def put(key, value):
        out[key] = value / runs

    for op in OPS:
        put(f"autodiff.{op}.fwd_ms", ms[f"autodiff.{op}.fwd"])
        put(f"autodiff.{op}.bwd_ms", ms[f"autodiff.{op}.bwd"])
        put(f"autodiff.{op}.calls", calls[f"autodiff.{op}.fwd"])
    put("autodiff.gradients.ms", ms["autodiff.gradients"])
    out["autodiff.nodes_per_step"] = acct["nodes"] / max(acct["steps"], 1)
    put("factorization.reconstruct.fwd_ms", ms["factorization.reconstruct"])
    put("factorization.reconstruct.bwd_ms", sum(v for (k, _), v in tagged_ms.items() if k == "bwd"))
    put("factorization.reconstruct.calls", calls["factorization.reconstruct"])
    for layer in range(1, MAX_LAYERS + 1):
        put(f"factorization.layer{layer}.fwd_ms", tagged_ms[("fwd", layer)])
        put(f"factorization.layer{layer}.bwd_ms", tagged_ms[("bwd", layer)])
    put("backbone.forward.ms", ms["backbone.forward"])
    put("backbone.forward.calls", calls["backbone.forward"])
    put("backbone.canonical_order.ms", ms["backbone.canonical_order"])
    put("backbone.loss.ms", ms["backbone.loss"])
    put("mam.total_loss.ms", ms["mam.total_loss"])
    put("mam.total_loss.calls", calls["mam.total_loss"])
    out["mam.archive_size_mean"] = sum(archive_sizes) / len(archive_sizes) if archive_sizes else 0.0
    put("trainer.adam.ms", ms["trainer.adam"])
    put("trainer.adam.calls", calls["trainer.adam"])
    put("trainer.evaluate_task.ms", ms["trainer.evaluate_task"])
    put("trainer.evaluate_task.calls", calls["trainer.evaluate_task"])
    put("trainer.evaluate_archive.ms", ms["trainer.evaluate_archive"])
    put("trainer.archive_entries_evaluated", entries_evaluated)
    put("trainer.train_task.ms", ms["trainer.train_task"])
    put("trainer.step_wall_ms", acct["wall_ms"])
    put("trainer.step_other_ms", acct["other_ms"])
    for layer in STEP_LAYERS:
        put(f"{layer}.step_self_ms", acct["layer_self_ms"][layer])
    put("metrics.export.ms", ms["metrics.export"])
    return out


def setup_metrics(spans: list[list]) -> dict:
    """Per-layer values from the spans of one traced set-up."""
    ms, calls = _totals(spans)
    out = {f"datasets.{part}.ms": ms[f"datasets.{part}"]
           for part in ("build_tasks", "gen_synthetic", "load_task", "parse_off",
                        "sample_mesh", "fps", "normalize")}
    out["datasets.parse_off.calls"] = calls["datasets.parse_off"]
    out["datasets.fps.calls"] = calls["datasets.fps"]
    out["cli.resolve_config.ms"] = ms["cli.resolve_config"]
    return out
