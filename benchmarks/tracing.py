"""Span tracing of the biosketch public API, installed from outside the package.

`install` replaces each traced callable, in every loaded biosketch module
that binds it, with a wrapper that records a span: name, parent span,
request id, start and end. Names are looked up where they are used, so a
function that `pipeline` or `evaluate` imported with `from ... import` is
patched in those modules too. Methods are patched on their class.
`uninstall` puts every original back.

Spans stay in memory, in flat arrays, and are reduced once at the end. The
busy time of a span is its duration minus the time spent in nested spans of
*other* layers, so `fusion.fuse_s` includes `fuse_bla` but
`sketch.authenticate_s` excludes the RS decode it calls. A layer's self time
sums the busy time of the spans through which control entered the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import zlib
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name). The layer is the span name up to the dot.
TARGETS = [
    ("biosketch.synth", "gen_population", "synth.gen_population"),
    ("biosketch.synth", "read_embeddings", "synth.read_embeddings"),
    ("biosketch.synth", "write_embeddings", "synth.write_embeddings"),
    ("biosketch.fusion", "fuse", "fusion.fuse"),
    ("biosketch.fusion", "fuse_fca", "fusion.fuse_fca"),
    ("biosketch.fusion", "fuse_bla", "fusion.fuse_bla"),
    ("biosketch.fusion", "random_weights", "fusion.random_weights"),
    ("biosketch.quantizer", "population_stats", "quantizer.population_stats"),
    ("biosketch.quantizer", "user_stats", "quantizer.user_stats"),
    ("biosketch.quantizer", "reliability", "quantizer.reliability"),
    ("biosketch.quantizer", "select_reliable", "quantizer.select_reliable"),
    ("biosketch.quantizer", "binarize", "quantizer.binarize"),
    ("biosketch.quantizer", "extract", "quantizer.extract"),
    ("biosketch.quantizer", "key_to_text", "quantizer.key_to_text"),
    ("biosketch.quantizer", "key_from_text", "quantizer.key_from_text"),
    ("biosketch.pipeline", "build_weights", "pipeline.build_weights"),
    ("biosketch.pipeline", "fuse_dataset", "pipeline.fuse_dataset"),
    ("biosketch.pipeline", "population_from_fused", "pipeline.population_from_fused"),
    ("biosketch.pipeline", "enroll_vectors", "pipeline.enroll_vectors"),
    ("biosketch.pipeline", "probe_bits", "pipeline.probe_bits"),
    ("biosketch.gf", "Field.__init__", "rs.field_build"),
    ("biosketch.rs", "RsCode.__init__", "rs.code_build"),
    ("biosketch.rs", "RsCode.encode", "rs.encode"),
    ("biosketch.rs", "RsCode.syndromes", "rs.syndromes"),
    ("biosketch.rs", "RsCode.decode", "rs.decode"),
    ("biosketch.rs", "bits_to_symbols", "rs.bits_to_symbols"),
    ("biosketch.rs", "symbols_to_bits", "rs.symbols_to_bits"),
    ("biosketch.sketch", "enroll_ss", "sketch.enroll_ss"),
    ("biosketch.sketch", "enroll_fc", "sketch.enroll_fc"),
    ("biosketch.sketch", "authenticate", "sketch.authenticate"),
    ("biosketch.sketch", "auth_ss", "sketch.auth_ss"),
    ("biosketch.sketch", "auth_fc", "sketch.auth_fc"),
    ("biosketch.sketch", "hash_sketch", "sketch.hash_sketch"),
    ("biosketch.sketch", "record_to_text", "sketch.record_to_text"),
    ("biosketch.sketch", "record_from_text", "sketch.record_from_text"),
    ("biosketch.store", "TemplateDb.save", "store.save"),
    ("biosketch.store", "KeyStore.save", "store.save"),
    ("biosketch.store", "TemplateDb.load", "store.load"),
    ("biosketch.store", "KeyStore.load", "store.load"),
    ("biosketch.evaluate", "run_gs_curve", "evaluate.run_gs_curve"),
    ("biosketch.evaluate", "gar", "evaluate.gar"),
    ("biosketch.evaluate", "gar_stats", "evaluate.gar_stats"),
    ("biosketch.evaluate", "empirical_far", "evaluate.empirical_far"),
    ("biosketch.cli", "main", "cli.main"),
]

LAYERS = ("synth", "fusion", "quantizer", "pipeline", "rs", "sketch", "store",
          "evaluate", "cli")

KERNEL_MS = (3, 5, 6, 8)
KERNELS = ("encode_us", "syndromes_us", "decode_uniform_us", "decode_terr_us",
           "bits_to_symbols_us")

# Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    ("fusion.fuse_calls", "count", "lower"),
    ("fusion.fuse_s", "s", "lower"),
    ("pipeline.fuse_dataset_calls", "count", "lower"),
    ("pipeline.fuse_per_pair", "ratio", "lower"),
    ("pipeline.enroll_vectors_s", "s", "lower"),
    ("pipeline.probe_bits_s", "s", "lower"),
    ("quantizer.population_stats_calls", "count", "lower"),
    ("quantizer.population_stats_s", "s", "lower"),
    ("quantizer.user_stats_s", "s", "lower"),
    ("quantizer.reliability_s", "s", "lower"),
    ("quantizer.select_reliable_s", "s", "lower"),
    ("rs.code_builds", "count", "lower"),
    ("rs.code_build_s", "s", "lower"),
    ("rs.decode_calls", "count", "lower"),
    ("rs.decode_s", "s", "lower"),
    ("rs.encode_s", "s", "lower"),
    ("rs.status.exact", "count", "higher"),
    ("rs.status.corrected", "count", "higher"),
    ("rs.status.fallback", "count", "lower"),
    ("rs.status.failure", "count", "lower"),
    ("rs.corrected_symbols_mean", "symbols", "lower"),
    ("rs.fallback_reencode_share", "ratio", "lower"),
    *[(f"rs.m{m}.{k}", "us", "lower") for m in KERNEL_MS for k in KERNELS],
    ("sketch.authenticate_calls", "count", "lower"),
    ("sketch.authenticate_s", "s", "lower"),
    ("sketch.enroll_s", "s", "lower"),
    ("sketch.hash_sketch_s", "s", "lower"),
    ("sketch.reason.hash_match", "count", "higher"),
    ("sketch.reason.hash_mismatch", "count", "lower"),
    ("sketch.reason.decode_failure", "count", "lower"),
    ("store.save_calls", "count", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.load_calls", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("evaluate.gar_stats_calls", "count", "lower"),
    ("evaluate.gar_stats_s", "s", "lower"),
    ("evaluate.empirical_far_s", "s", "lower"),
    ("synth.read_embeddings_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# A metric timed as the busy time summed over spans of these names.
_BUSY = {
    "fusion.fuse_s": ("fusion.fuse",),
    "pipeline.enroll_vectors_s": ("pipeline.enroll_vectors",),
    "pipeline.probe_bits_s": ("pipeline.probe_bits",),
    "quantizer.population_stats_s": ("quantizer.population_stats",),
    "quantizer.user_stats_s": ("quantizer.user_stats",),
    "quantizer.reliability_s": ("quantizer.reliability",),
    "quantizer.select_reliable_s": ("quantizer.select_reliable",),
    "rs.code_build_s": ("rs.code_build", "rs.field_build"),
    "rs.decode_s": ("rs.decode",),
    "rs.encode_s": ("rs.encode",),
    "sketch.authenticate_s": ("sketch.authenticate",),
    "sketch.enroll_s": ("sketch.enroll_ss", "sketch.enroll_fc"),
    "sketch.hash_sketch_s": ("sketch.hash_sketch",),
    "store.save_s": ("store.save",),
    "store.load_s": ("store.load",),
    "evaluate.gar_stats_s": ("evaluate.gar_stats",),
    "evaluate.empirical_far_s": ("evaluate.empirical_far",),
    "synth.read_embeddings_s": ("synth.read_embeddings",),
}

_CALLS = {
    "fusion.fuse_calls": "fusion.fuse",
    "pipeline.fuse_dataset_calls": "pipeline.fuse_dataset",
    "quantizer.population_stats_calls": "quantizer.population_stats",
    "rs.code_builds": "rs.code_build",
    "rs.decode_calls": "rs.decode",
    "sketch.authenticate_calls": "sketch.authenticate",
    "store.save_calls": "store.save",
    "store.load_calls": "store.load",
    "evaluate.gar_stats_calls": "evaluate.gar_stats",
}


class Tracer:
    """In-memory spans plus counters observed from returned values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.request_id = -1  # -1 marks set-up work
        self._stack: list[int] = []
        self._pair_keys: set = set()

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wall_time(self, name: str) -> tuple[int, float]:
        """Number of spans with this name and their summed duration."""
        nid = self._ids.get(name)
        count, total = 0, 0.0
        for i, n in enumerate(self.name_id):
            if n == nid:
                count += 1
                total += self.end[i] - self.start[i]
        return count, total

    def busy(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Busy seconds per span name, self seconds per layer, calls per name."""
        layer_of = [n.split(".", 1)[0] for n in self.names]
        n_spans = len(self.start)
        busy = [self.end[i] - self.start[i] for i in range(n_spans)]
        layers = [layer_of[self.name_id[i]] for i in range(n_spans)]
        entry = [True] * n_spans
        for i in range(n_spans):  # a parent always precedes its children
            p = self.parent[i]
            if p < 0:
                continue
            if layers[p] == layers[i]:
                entry[i] = False
                continue
            # Control left the parent's layer: take this span's time off
            # every enclosing span of that layer, up to where it was entered.
            dur = self.end[i] - self.start[i]
            while True:
                busy[p] -= dur
                if entry[p]:
                    break
                p = self.parent[p]
        by_name: dict[str, float] = {}
        by_layer: dict[str, float] = {}
        calls: Counter = Counter()
        for i in range(n_spans):
            name = self.names[self.name_id[i]]
            by_name[name] = by_name.get(name, 0.0) + busy[i]
            calls[name] += 1
            if entry[i]:
                by_layer[layers[i]] = by_layer.get(layers[i], 0.0) + busy[i]
        return by_name, by_layer, calls

    # -- observers of returned values -----------------------------------------

    def observe_decode(self, args, kwargs, outcome):
        self.counts[f"rs.status.{outcome.status.value}"] += 1
        if outcome.error_count and outcome.status.value == "corrected":
            self.counts["rs.corrected_symbols"] += outcome.error_count

    def observe_decision(self, args, kwargs, decision):
        self.counts[f"sketch.reason.{decision.reason.value.replace('-', '_')}"] += 1

    def observe_save(self, args, kwargs, _result):
        store, subject_id = args[0], args[1]
        target = Path(store.path) / f"{subject_id}{store.suffix}"
        self.counts["store.bytes_written"] += target.stat().st_size

    def observe_fuse_dataset(self, args, kwargs, _result):
        dataset, weights = args[0], args[1]
        matrix = weights.W if weights.mode == "fca" else weights.P
        wkey = (weights.mode, weights.out_dim, weights.activation,
                None if matrix is None else zlib.crc32(matrix.tobytes()))
        for sid in dataset.subject_ids:
            face, iris = dataset.face[sid], dataset.iris[sid]
            key = (wkey, zlib.crc32(face.tobytes()), zlib.crc32(iris.tobytes()))
            self.counts["pipeline.pairs_fused"] += face.shape[0]
            if key not in self._pair_keys:
                self._pair_keys.add(key)
                self.counts["pipeline.distinct_pairs"] += face.shape[0]


_OBSERVERS = {
    "rs.decode": Tracer.observe_decode,
    "sketch.authenticate": Tracer.observe_decision,
    "store.save": Tracer.observe_save,
    "pipeline.fuse_dataset": Tracer.observe_fuse_dataset,
}


def _wrap(tracer: Tracer, name: str, fn):
    name_id = tracer.name_index(name)
    observe = _OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    traced.__bench_traced__ = True
    return traced


def _biosketch_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "biosketch" or n.startswith("biosketch."))]


class Installation:
    """Wrappers patched into biosketch; `uninstall` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple[object, str, object]] = []
        for modname, attr, _ in TARGETS:
            importlib.import_module(modname)
        modules = _biosketch_modules()
        for modname, attr, name in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, _wrap(tracer, name, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        self.patched.append((holder, key, original))
        setattr(holder, key, wrapper)

    def uninstall(self):
        while self.patched:
            holder, key, original = self.patched.pop()
            setattr(holder, key, original)


def install(tracer: Tracer) -> Installation:
    return Installation(tracer)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced run.

    Kernel, cli-process and overhead metrics are measured elsewhere and
    filled in by the caller.
    """
    by_name, by_layer, calls = tracer.busy()
    counts = tracer.counts
    out: dict[str, float] = {}
    for metric, names in _BUSY.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names)
    for metric, name in _CALLS.items():
        out[metric] = calls.get(name, 0)
    for status in ("exact", "corrected", "fallback", "failure"):
        out[f"rs.status.{status}"] = counts.get(f"rs.status.{status}", 0)
    corrected = out["rs.status.corrected"]
    out["rs.corrected_symbols_mean"] = (
        counts.get("rs.corrected_symbols", 0) / corrected if corrected else 0.0)
    decodes = out["rs.decode_calls"]
    out["rs.fallback_reencode_share"] = (
        out["rs.status.fallback"] / decodes if decodes else 0.0)
    for reason in ("hash_match", "hash_mismatch", "decode_failure"):
        out[f"sketch.reason.{reason}"] = counts.get(f"sketch.reason.{reason}", 0)
    out["store.bytes_written"] = counts.get("store.bytes_written", 0)
    distinct = counts.get("pipeline.distinct_pairs", 0)
    out["pipeline.fuse_per_pair"] = (
        counts.get("pipeline.pairs_fused", 0) / distinct if distinct else 0.0)
    n_main, main_total = tracer.wall_time("cli.main")
    out["cli.main_s"] = main_total / n_main if n_main else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return out


def largest_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
