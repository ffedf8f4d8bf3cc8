"""Spans around the calls into each hybridprec module, and the per-layer metrics.

The tracer replaces a function at the name its caller looks it up by (for
example ``hybridprec.simulate.factorize_sgd_batch``, which simulate's code
calls) with a wrapper that records a span: name, start, end and the span that
was open when it started. Spans stay in memory until the metrics are
computed. Nothing under ``src/`` is changed; the patches are undone when the
traced repetition ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (module the caller looks the name up in, attribute, span name)
PATCHES = (
    ("hybridprec.cli", "ber_curve", "simulate.ber_curve"),
    ("hybridprec.cli", "se_curve", "simulate.se_curve"),
    ("hybridprec.cli", "mse_vs_iterations", "simulate.mse_vs_iterations"),
    ("hybridprec.cli", "build_dataset", "dnn.build_dataset"),
    ("hybridprec.cli", "train", "dnn.train"),
    ("hybridprec.cli", "save_mlp", "dnn.save_mlp"),
    ("hybridprec.cli", "load_mlp", "dnn.load_mlp"),
    ("hybridprec.simulate", "draw_ensemble", "simulate.draw_ensemble"),
    ("hybridprec.simulate", "build_scheme_factors", "simulate.build_scheme_factors"),
    ("hybridprec.simulate", "sic_detect", "simulate.sic_detect"),
    ("hybridprec.simulate", "spectral_efficiency", "simulate.spectral_efficiency"),
    ("hybridprec.simulate", "sample_path_params", "channel.sample_path_params"),
    ("hybridprec.channel", "sample_path_params", "channel.sample_path_params"),
    ("hybridprec.simulate", "gmd", "decomp.gmd"),
    ("hybridprec.dnn", "gmd", "decomp.gmd"),
    ("hybridprec.simulate", "factorize_sgd_batch", "precoder.factorize_sgd_batch"),
    ("hybridprec.simulate", "infer_precoders", "dnn.infer_precoders"),
    ("hybridprec.dnn", "forward", "dnn.forward"),
    ("hybridprec.dnn", "backward", "dnn.backward"),
    ("hybridprec.dnn", "sgd_momentum_step", "dnn.sgd_momentum_step"),
)

# Per-layer metrics of a traced run: (name, unit, better).
LAYER_METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("simulate.draw_ensemble.calls", "count", "lower"),
    ("simulate.draw_ensemble.trials", "count", "lower"),
    ("simulate.draw_ensemble.busy_s", "s", "lower"),
    ("simulate.draw_ensemble.self_s", "s", "lower"),
    ("simulate.draw_ensemble.us_per_trial", "us", "lower"),
    ("simulate.draw_ensemble.distinct_ratio", "ratio", "higher"),
    ("simulate.link.self_s", "s", "lower"),
    ("simulate.sic_detect.busy_s", "s", "lower"),
    ("simulate.build_scheme_factors.self_s", "s", "lower"),
    ("simulate.se_curve.self_s", "s", "lower"),
    ("simulate.spectral_efficiency.calls", "count", "lower"),
    ("simulate.spectral_efficiency.busy_s", "s", "lower"),
    ("simulate.mse_vs_iterations.self_s", "s", "lower"),
    ("channel.sample_path_params.calls", "count", "lower"),
    ("channel.sample_path_params.busy_s", "s", "lower"),
    ("channel.sample_path_params.us_per_call", "us", "lower"),
    ("decomp.gmd.calls", "count", "lower"),
    ("decomp.gmd.busy_s", "s", "lower"),
    ("precoder.factorize_sgd_batch.calls", "count", "lower"),
    ("precoder.factorize_sgd_batch.busy_s", "s", "lower"),
    ("precoder.factorize_sgd_batch.iters", "count", "lower"),
    ("precoder.factorize_sgd_batch.instance_iters", "count", "lower"),
    ("precoder.factorize_sgd_batch.us_per_instance_iter", "us", "lower"),
    ("precoder.factorize_sgd_batch.ber.us_per_instance_iter", "us", "lower"),
    ("precoder.factorize_sgd_batch.mse.us_per_instance_iter", "us", "lower"),
    ("dnn.build_dataset.busy_s", "s", "lower"),
    ("dnn.train.busy_s", "s", "lower"),
    ("dnn.train.self_s", "s", "lower"),
    ("dnn.train.steps", "count", "lower"),
    ("dnn.forward.calls", "count", "lower"),
    ("dnn.forward.busy_s", "s", "lower"),
    ("dnn.backward.busy_s", "s", "lower"),
    ("dnn.sgd_momentum_step.busy_s", "s", "lower"),
    ("dnn.infer_precoders.calls", "count", "lower"),
    ("dnn.infer_precoders.busy_s", "s", "lower"),
    ("dnn.infer_precoders.us_per_call", "us", "lower"),
    ("dnn.save_mlp.busy_s", "s", "lower"),
    ("dnn.load_mlp.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped functions; parents come from a per-thread stack.

    A span opened on a worker thread with no open span of its own gets the
    innermost open span of the main thread as parent: hybridprec's pools run
    chunks of work that a main-thread call is waiting for.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.constraint_violations = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call records a span named ``name``.

        ``on_result(args, kwargs, result)`` may return attributes to store on
        the span; it runs after the span's end time is taken.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = on_result(args, kwargs, result) if on_result else None
            self.spans.append(Span(sid, parent, name, start, end, attrs))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, self._counter_for(span_name, original)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _counter_for(self, span_name: str, fn):
        if span_name == "simulate.draw_ensemble":
            signature = inspect.signature(fn)

            def ensemble_key(args, kwargs, result):
                a = signature.bind(*args, **kwargs).arguments
                return {"trials": a["trials"], "key": (a["dims"], a["trials"], a["seed"], a["point"])}

            return ensemble_key
        if span_name == "precoder.factorize_sgd_batch":
            return self._factorization_stats
        return None

    def _factorization_stats(self, args, kwargs, result) -> dict:
        """Iteration counts; factors that break the analog-modulus or power
        constraint are added to ``constraint_violations``."""
        factors, loss_trace, _ = result
        analog = np.stack([f.analog for f in factors])
        product = np.stack([f.product for f in factors])
        nt, ns = analog.shape[1], product.shape[2]
        modulus_bad = np.any(np.abs(np.abs(analog) - 1.0 / np.sqrt(nt)) > 1e-12, axis=(1, 2))
        power_bad = np.sum(np.abs(product) ** 2, axis=(1, 2)) > ns + 1e-9
        self.constraint_violations += int(np.count_nonzero(modulus_bad | power_bad))
        return {"iters": loss_trace.shape[0] - 1, "instances": len(factors)}


def cli_bytes_written(args, kwargs, result) -> dict:
    """Total size of the files in a CLI call's ``--out`` directory."""
    argv = args[0]
    out = Path(argv[argv.index("--out") + 1])
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        result[s.id] = s.duration - covered([k for k in kids if k[1] > k[0]])
    return result


def distinct_ratio(keys: list) -> float:
    """Distinct keys over calls; 0 when there were no calls."""
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (``trace.overhead_s`` excluded)."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs)

    def per(num, den):
        return num / den if den else 0.0

    ens = "simulate.draw_ensemble"
    fac = "precoder.factorize_sgd_batch"
    spp = "channel.sample_path_params"
    inf = "dnn.infer_precoders"
    def instance_iters(spans):
        return sum(s.attrs["iters"] * s.attrs["instances"] for s in spans if s.attrs)

    # Factorizations split by the curve that asked for them: ber factorizes
    # large batches, mse a batch of a few tens, where per-iteration overhead
    # dominates. A change that trades one for the other shows here.
    by_id = {s.id: s for s in spans}

    def caller(span):
        while span.parent is not None and span.name not in ("simulate.ber_curve", "simulate.mse_vs_iterations"):
            span = by_id[span.parent]
        return span.name

    facs = by_name.get(fac, ())
    fac_by_curve = {curve: [s for s in facs if caller(s) == f"simulate.{curve}"]
                    for curve in ("ber_curve", "mse_vs_iterations")}
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": attr_sum("cli.main", "bytes"),
        f"{ens}.calls": calls(ens),
        f"{ens}.trials": attr_sum(ens, "trials"),
        f"{ens}.busy_s": busy(ens),
        f"{ens}.self_s": self_s(ens),
        f"{ens}.us_per_trial": per(busy(ens) * 1e6, attr_sum(ens, "trials")),
        f"{ens}.distinct_ratio": distinct_ratio([s.attrs["key"] for s in by_name.get(ens, ()) if s.attrs]),
        "simulate.link.self_s": self_s("simulate.ber_curve"),
        "simulate.sic_detect.busy_s": busy("simulate.sic_detect"),
        "simulate.build_scheme_factors.self_s": self_s("simulate.build_scheme_factors"),
        "simulate.se_curve.self_s": self_s("simulate.se_curve"),
        "simulate.spectral_efficiency.calls": calls("simulate.spectral_efficiency"),
        "simulate.spectral_efficiency.busy_s": busy("simulate.spectral_efficiency"),
        "simulate.mse_vs_iterations.self_s": self_s("simulate.mse_vs_iterations"),
        f"{spp}.calls": calls(spp),
        f"{spp}.busy_s": busy(spp),
        f"{spp}.us_per_call": per(busy(spp) * 1e6, calls(spp)),
        "decomp.gmd.calls": calls("decomp.gmd"),
        "decomp.gmd.busy_s": busy("decomp.gmd"),
        f"{fac}.calls": calls(fac),
        f"{fac}.busy_s": busy(fac),
        f"{fac}.iters": attr_sum(fac, "iters"),
        f"{fac}.instance_iters": instance_iters(facs),
        f"{fac}.us_per_instance_iter": per(busy(fac) * 1e6, instance_iters(facs)),
        f"{fac}.ber.us_per_instance_iter": per(sum(s.duration for s in fac_by_curve["ber_curve"]) * 1e6,
                                               instance_iters(fac_by_curve["ber_curve"])),
        f"{fac}.mse.us_per_instance_iter": per(sum(s.duration for s in fac_by_curve["mse_vs_iterations"]) * 1e6,
                                               instance_iters(fac_by_curve["mse_vs_iterations"])),
        "dnn.build_dataset.busy_s": busy("dnn.build_dataset"),
        "dnn.train.busy_s": busy("dnn.train"),
        "dnn.train.self_s": self_s("dnn.train"),
        "dnn.train.steps": calls("dnn.sgd_momentum_step"),
        "dnn.forward.calls": calls("dnn.forward"),
        "dnn.forward.busy_s": busy("dnn.forward"),
        "dnn.backward.busy_s": busy("dnn.backward"),
        "dnn.sgd_momentum_step.busy_s": busy("dnn.sgd_momentum_step"),
        f"{inf}.calls": calls(inf),
        f"{inf}.busy_s": busy(inf),
        f"{inf}.us_per_call": per(busy(inf) * 1e6, calls(inf)),
        "dnn.save_mlp.busy_s": busy("dnn.save_mlp"),
        "dnn.load_mlp.busy_s": busy("dnn.load_mlp"),
    }
