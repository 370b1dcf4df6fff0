"""Span tracing of beamopt's layers from outside the package.

The tracer patches each public function where its caller looks it up:
on the module for module-level calls (`ad.conv1d`, `metrics.sinr_per_ue`),
in the importing module for names imported with `from ... import`
(`evaluation.beamform_sample`, `trainer.forward_graph`,
`baselines.solve_array`) and on the class for methods (`Adam.step`,
`Tape.backward`). A function the program no longer has is skipped, so its
metrics read 0 instead of the run failing.

Spans are kept in memory as [id, parent, phase, name, start, end, tag]
and written out by `write`. Self time is a span's duration minus that of
its children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time

from beamopt import (autodiff, baselines, channel, config, evaluation, models, metrics,
                     plotting, results, trainer)

# Per-layer metrics: name -> unit. Names are <module>.<function>.<stat>:
# .calls is a count, .s / .ms a total over one traced pipeline, .ms_p50 /
# .us_p50 the median per call, .self_s the total minus child spans.
LAYER_METRICS = {
    "channel.gen_channel.calls": "count",
    "channel.gen_channel.ms_p50": "ms",
    "channel.save_dataset.s": "s",
    "channel.load_dataset.s": "s",
    "channel.dataset_bytes": "bytes",
    "baselines.beamform_sample.calls": "count",
    "baselines.zf.ms_per_call": "ms",
    "baselines.mmse.ms_per_call": "ms",
    "linalg.solve_array.calls": "count",
    "linalg.solve_array.us_p50": "us",
    "metrics.sinr_per_ue.s": "s",
    "metrics.weighted_sum_rate.s": "s",
    "metrics.per_sample_sum_rates.s": "s",
    "metrics.neg_sum_rate_graph.ms_p50": "ms",
    "trainer.steps": "count",
    "trainer.train.self_s": "s",
    "autodiff.conv1d.fwd_ms": "ms",
    "autodiff.batchnorm1d.fwd_ms": "ms",
    "autodiff.gelu.fwd_ms": "ms",
    "autodiff.linear.fwd_ms": "ms",
    "autodiff.softmax.fwd_ms": "ms",
    "autodiff.Tape.backward.ms_p50": "ms",
    "autodiff.Adam.step.ms_p50": "ms",
    "autodiff.Adam.step.bytes_computed": "bytes",
    "autodiff.linear.flops_computed": "flop",
    "models.forward_graph.train_ms_p50": "ms",
    "models.forward_graph.eval_ms_p50": "ms",
    "models.init_params.s": "s",
    "models.ModelParams.copy.s": "s",
    "models.save_checkpoint.s": "s",
    "models.load_checkpoint.s": "s",
    "autodiff.encode_tensors.s": "s",
    "autodiff.decode_tensors.s": "s",
    "models.checkpoint_bytes": "bytes",
    "evaluation.evaluate.self_s": "s",
    "evaluation.points": "count",
    "evaluation.dropped": "count",
    "evaluation.zf_solves_per_sample": "ratio",
    "evaluation.nn_forwards_per_sample": "ratio",
    "config.parse_config.ms": "ms",
    "results.write_results_csv.ms": "ms",
    "plotting.render_results_svg.ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Metrics that are counts or computed from shapes: identical on every run.
EXACT_METRICS = (
    "channel.gen_channel.calls", "channel.dataset_bytes", "baselines.beamform_sample.calls",
    "linalg.solve_array.calls", "trainer.steps", "autodiff.Adam.step.bytes_computed",
    "autodiff.linear.flops_computed", "models.checkpoint_bytes", "evaluation.points",
    "evaluation.dropped", "evaluation.zf_solves_per_sample",
    "evaluation.nn_forwards_per_sample",
)


def _method_tag(args, kwargs):
    return kwargs["method"] if "method" in kwargs else args[1]


def _forward_tag(args, kwargs):
    training = kwargs["training"] if "training" in kwargs else args[3]
    return ["train" if training else "eval", int(args[0].shape[0])]


# (owner, attribute, span name, tag function) for every patched function.
TARGETS = (
    (config, "parse_config", "config.parse_config", None),
    (channel, "gen_dataset", "channel.gen_dataset", None),
    (channel, "gen_channel", "channel.gen_channel", None),
    (channel, "save_dataset", "channel.save_dataset", None),
    (channel, "load_dataset", "channel.load_dataset", None),
    (models, "init_params", "models.init_params", None),
    (models.ModelParams, "copy", "models.ModelParams.copy", None),
    (models, "save_checkpoint", "models.save_checkpoint", None),
    (models, "load_checkpoint", "models.load_checkpoint", None),
    (trainer, "train", "trainer.train", None),
    (trainer, "forward_graph", "models.forward_graph", _forward_tag),
    (evaluation, "forward_graph", "models.forward_graph", _forward_tag),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "beamform_sample", "baselines.beamform_sample", _method_tag),
    (baselines, "solve_array", "linalg.solve_array", None),
    (metrics, "sinr_per_ue", "metrics.sinr_per_ue", None),
    (metrics, "weighted_sum_rate", "metrics.weighted_sum_rate", None),
    (metrics, "per_sample_sum_rates", "metrics.per_sample_sum_rates", None),
    (metrics, "neg_sum_rate_graph", "metrics.neg_sum_rate_graph", None),
    (autodiff, "conv1d", "autodiff.conv1d", None),
    (autodiff, "batchnorm1d", "autodiff.batchnorm1d", None),
    (autodiff, "gelu", "autodiff.gelu", None),
    (autodiff, "linear", "autodiff.linear", None),
    (autodiff, "softmax", "autodiff.softmax", None),
    (autodiff, "encode_tensors", "autodiff.encode_tensors", None),
    (autodiff, "decode_tensors", "autodiff.decode_tensors", None),
    (autodiff.Tape, "backward", "autodiff.Tape.backward", None),
    (autodiff.Adam, "step", "autodiff.Adam.step", None),
    (results, "write_results_csv", "results.write_results_csv", None),
    (results, "read_results_csv", "results.read_results_csv", None),
    (plotting, "render_results_svg", "plotting.render_results_svg", None),
)


class Tracer:
    """Records one span per call of every patched function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._phase = ""
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, tag):
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), open_ids[-1] if open_ids else None, self._phase, name,
                    0.0, 0.0, tag(args, kwargs) if tag else None]
            spans.append(span)
            open_ids.append(span[0])
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                open_ids.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, tag in TARGETS:
            if attr in vars(owner):
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, tag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span for one pipeline phase; `name` is the phase id of every span inside."""
        span = [len(self.spans), None, name, "phase." + name, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._open.append(span[0])
        previous, self._phase = self._phase, name
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._open.pop()
            self._phase = previous

    def write(self, f, rep: int) -> None:
        """Append the spans as JSON lines to the open file `f`, tagged with `rep`."""
        keys = ("id", "parent", "phase", "name", "start", "end", "tag")
        for span in self.spans:
            f.write(json.dumps({"rep": rep, **dict(zip(keys, span))}) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, *, test_samples: int, param_shapes, batch_size: int,
                  dataset_bytes: int, checkpoint_bytes: int, eval_points: tuple[int, int],
                  overhead_frac: float) -> dict:
    """Per-layer metric values from the spans of one traced pipeline.

    eval_points is (points evaluated, points dropped) from the result rows.
    """
    by_name: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        if span[1] is not None:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[5] - span[4]

    def durations(name, keep=lambda span: True):
        return [span[5] - span[4] for span in by_name.get(name, ()) if keep(span)]

    def total(name):
        return sum(durations(name))

    def self_time(name):
        return sum(span[5] - span[4] - child_time.get(span[0], 0.0)
                   for span in by_name.get(name, ()))

    def method(m):
        return durations("baselines.beamform_sample", lambda span: span[6] == m)

    def forward(mode):
        return durations("models.forward_graph", lambda span: span[6][0] == mode)

    eval_zf = [span for span in by_name.get("baselines.beamform_sample", ())
               if span[2] == "eval" and span[6] == "ZF"]
    eval_fwd = [span for span in by_name.get("models.forward_graph", ()) if span[2] == "eval"]
    zf, mmse = method("ZF"), method("MMSE")
    n_params = sum(math.prod(shape) for shape in param_shapes)
    linear_flops = sum(6 * batch_size * shape[0] * shape[1]
                       for shape in param_shapes if len(shape) == 2)

    out = {
        "channel.gen_channel.calls": len(durations("channel.gen_channel")),
        "channel.gen_channel.ms_p50": 1e3 * _median(durations("channel.gen_channel")),
        "channel.save_dataset.s": total("channel.save_dataset"),
        "channel.load_dataset.s": total("channel.load_dataset"),
        "channel.dataset_bytes": dataset_bytes,
        "baselines.beamform_sample.calls": len(durations("baselines.beamform_sample")),
        "baselines.zf.ms_per_call": 1e3 * sum(zf) / len(zf) if zf else 0.0,
        "baselines.mmse.ms_per_call": 1e3 * sum(mmse) / len(mmse) if mmse else 0.0,
        "linalg.solve_array.calls": len(durations("linalg.solve_array")),
        "linalg.solve_array.us_p50": 1e6 * _median(durations("linalg.solve_array")),
        "metrics.sinr_per_ue.s": total("metrics.sinr_per_ue"),
        "metrics.weighted_sum_rate.s": total("metrics.weighted_sum_rate"),
        "metrics.per_sample_sum_rates.s": total("metrics.per_sample_sum_rates"),
        "metrics.neg_sum_rate_graph.ms_p50": 1e3 * _median(durations("metrics.neg_sum_rate_graph")),
        "trainer.steps": len(durations("autodiff.Adam.step")),
        "trainer.train.self_s": self_time("trainer.train"),
        "autodiff.Tape.backward.ms_p50": 1e3 * _median(durations("autodiff.Tape.backward")),
        "autodiff.Adam.step.ms_p50": 1e3 * _median(durations("autodiff.Adam.step")),
        # read p, g, m, v and write p, m, v: seven float64 passes per parameter
        "autodiff.Adam.step.bytes_computed": 7 * 8 * n_params,
        # forward x @ w.T plus the dx and dw products of backward, at full batch
        "autodiff.linear.flops_computed": linear_flops,
        "models.forward_graph.train_ms_p50": 1e3 * _median(forward("train")),
        "models.forward_graph.eval_ms_p50": 1e3 * _median(forward("eval")),
        "models.init_params.s": total("models.init_params"),
        "models.ModelParams.copy.s": total("models.ModelParams.copy"),
        "models.save_checkpoint.s": total("models.save_checkpoint"),
        "models.load_checkpoint.s": total("models.load_checkpoint"),
        "autodiff.encode_tensors.s": total("autodiff.encode_tensors"),
        "autodiff.decode_tensors.s": total("autodiff.decode_tensors"),
        "models.checkpoint_bytes": checkpoint_bytes,
        "evaluation.evaluate.self_s": self_time("evaluation.evaluate"),
        "evaluation.points": eval_points[0],
        "evaluation.dropped": eval_points[1],
        "evaluation.zf_solves_per_sample": len(eval_zf) / test_samples,
        "evaluation.nn_forwards_per_sample": sum(span[6][1] for span in eval_fwd) / test_samples,
        "config.parse_config.ms": 1e3 * total("config.parse_config"),
        "results.write_results_csv.ms": 1e3 * total("results.write_results_csv"),
        "plotting.render_results_svg.ms": 1e3 * total("plotting.render_results_svg"),
        "trace.overhead_frac": overhead_frac,
    }
    for op in ("conv1d", "batchnorm1d", "gelu", "linear", "softmax"):
        out[f"autodiff.{op}.fwd_ms"] = 1e3 * total(f"autodiff.{op}")
    return {name: out[name] for name in LAYER_METRICS}

