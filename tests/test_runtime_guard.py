"""Every runtime line runs in a CLI command, fails by design, or is listed.

Every module of the package except `reference` (the single-slice oracles)
and `verify` (the checks that compare against them) is a runtime module.
The guard runs CLI commands through `cli.main` under a `sys.settrace` line
tracer: the six commands a user runs on a desk-sized config (generate
train and test, train, eval with checkpoints, eval --desk-scale, plot),
`verify`, and three variants:
(a) `train --verbose` of NNBF-P alone on fixed SNR sampling for 8 epochs
    at patience 2 and lr 0.01, which stops early and reuses the buffers of
    an earlier best epoch, as every real training run does;
(b) `train` with `kernels.build` giving `Kernels(None, None)`, which runs
    the numpy Adam and the numpy normal fill;
(c) `eval` and `plot` on a one-SNR grid.
A line counts as run only in a frame that no `verify.py` frame called, so a
runtime function that only `verify` calls counts as unrun. Every
module-level functools.cache of the runtime modules (kernels.build's) is
cleared first, so the cached functions run their bodies again.

The guard fails on any unrun line of a runtime function, method, property
or nested function, with two exceptions. Failure lines, which the exit-code
tests of tests/test_cli.py drive, are exempt: a `raise`, an `except`
handler, an `if` or `else` body that ends in a `raise` or a `return EXIT_*`,
and every method of an Exception subclass. A lambda or comprehension counts
as lines of the function it is written in. Every other unrun line is
counted in ALLOWED, one entry per function with its reason, and the guard
asserts the table exactly: a stale entry, a count that grows and a count
that shrinks all fail.
"""

import ast
import importlib
import importlib.resources
import inspect
import pkgutil
import sys

import pytest

import beamopt
from beamopt import cli, kernels

CHECKING_MODULES = {"reference", "verify"}
_INLINE = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

# qualified name -> (unrun lines, reason); the README lists these as known unreached lines
ALLOWED = {
    "beamopt.autodiff.FactoredGrad.dense": (
        1, "oracle access: the FD and row-block checks form the whole product"),
    "beamopt.autodiff.Tensor.grad": (
        2, "oracle access: the getter forms a FactoredGrad; the pipeline reads raw_grad"),
    "beamopt.autodiff.FactoredGrad.sq_norm": (
        3, "the overflow path: runs once the summed norm bound reaches half the float64 max"),
    "beamopt.trainer._grad_norm_is_finite": (
        1, "the overflow path: the exact norm once the bound overflows"),
    "beamopt.autodiff.Tape.backward": (
        1, "a record whose output no gradient reaches; no model op leaves one"),
    "beamopt.autodiff.Adam.kernel": (
        1, "names the kernel that ran, for verify and the benchmark's machine record"),
    "beamopt.channel._read_exact": (
        1, "big-endian hosts only: the byteswap of the little-endian payload"),
    "beamopt.models.load_checkpoint": (
        1, "big-endian hosts only: the copy of the little-endian payload"),
    "beamopt.channel.load_dataset": (
        4, "the exact non-finite scan; runs only when the sum of squares is not finite"),
    "beamopt.evaluation.evaluate": (
        2, "the log of dropped ZF-singular samples, a non-event on continuous draws"),
    "beamopt.kernels.build": (
        4, "the fallbacks: no cc on PATH, or a normal_fill that fails its self-check"),
    "beamopt.models._table_mismatch": (
        10, "the message of a rejected checkpoint's array table"),
    "beamopt.trainer.train": (
        1, "the copy when no epoch improves: every loss NaN or +inf"),
}


def runtime_modules():
    names = sorted(info.name for info in pkgutil.iter_modules(beamopt.__path__))
    return [importlib.import_module(f"beamopt.{name}") for name in names
            if name not in CHECKING_MODULES]


def clear_caches(module) -> None:
    """Clear every module-level functools.cache the module defines."""
    for obj in vars(module).values():
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
            obj.cache_clear()


def _ends_in_failure(body) -> bool:
    last = body[-1] if body else None
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Return) and isinstance(last.value, ast.Name)
        and last.value.id.startswith("EXIT_"))


def failure_lines(module, tree) -> set:
    """The module's failure lines: each raise, except handler, if or else
    body that ends in a failure, and Exception subclass."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.If):
            for body in (node.body, node.orelse):
                if _ends_in_failure(body):
                    lines.update(range(body[0].lineno, body[-1].end_lineno + 1))
        elif isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name, None)
            if inspect.isclass(cls) and issubclass(cls, BaseException):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def function_lines(module) -> dict:
    """Qualified name -> the (file, line) pairs a call of each function the
    module defines can run: the lines of its code but its header, and of
    the lambdas and comprehensions written in it, less the failure lines.
    Functions that share a name (a property's getter and setter) share an
    entry."""
    path = module.__file__
    with open(path) as f:
        source = f.read()
    found: dict = {}

    def walk(code, qualname, in_function):
        for const in code.co_consts:
            if not inspect.iscode(const) or (const.co_name in _INLINE and not in_function):
                continue
            if const.co_name in _INLINE:
                found[qualname].update(line for _, _, line in const.co_lines() if line)
                walk(const, qualname, True)
                continue
            name = f"{qualname}{'.<locals>.' if in_function else '.'}{const.co_name}"
            is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)   # not a class body
            if is_function:
                found.setdefault(name, set()).update(
                    line for _, _, line in const.co_lines()
                    if line and line != const.co_firstlineno)
            walk(const, name, is_function)

    walk(compile(source, path, "exec"), module.__name__, False)
    exempt = failure_lines(module, ast.parse(source))
    return {name: {(path, line) for line in lines - exempt} for name, lines in found.items()
            if lines - exempt}


def run_traced(runs, files, skip_file) -> tuple[list, set]:
    """Each run's return value, and the (file, line) pairs run in frames of
    `files` that no frame of `skip_file` called."""
    hits = set()

    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        caller = frame.f_back
        while caller is not None:
            if caller.f_code.co_filename == skip_file:
                return None
            caller = caller.f_back
        return on_line

    sys.settrace(on_call)
    try:
        codes = [run() for run in runs]
    finally:
        sys.settrace(None)
    return codes, hits


def _config(tmp_path, name, **edits):
    """The exp01-desk preset with 24 train and 8 test samples, 2 epochs and `edits`."""
    text = (importlib.resources.files("beamopt") / "presets" / "exp01-desk.ini").read_text()
    edits = {"train_samples = 512": "train_samples = 24", "test_samples = 256": "test_samples = 8",
             "epochs = 60": "epochs = 2", **edits}
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return path


def _cli(*argv):
    return lambda: cli.main([str(arg) for arg in argv])


def _numpy_kernels(run):
    def patched():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "build", lambda: kernels.Kernels(None, None))
            return run()
    return patched


def test_every_runtime_line_runs_in_the_cli(tmp_path, capsys):
    modules = runtime_modules()
    assert {m.__name__ for m in modules} >= {"beamopt.baselines", "beamopt.cli",
                                             "beamopt.metrics", "beamopt.autodiff"}
    lines = {}
    for module in modules:
        lines.update(function_lines(module))
        clear_caches(module)
    assert {"beamopt.autodiff.Adam._update", "beamopt.autodiff.Tensor.grad",
            "beamopt.autodiff.conv_bn_gelu.<locals>.pull"} <= set(lines)

    cfg = _config(tmp_path, "desk")
    early = _config(tmp_path, "early", **{
        "epochs = 60": "epochs = 8", "lr = 0.001": "lr = 0.01",
        "early_stop_patience = 20": "early_stop_patience = 2",
        "snr_sampling = uniform": "snr_sampling = fixed",
        "methods = ZF, MMSE, NNBF, NNBF-P": "methods = NNBF-P"})
    one_snr = _config(tmp_path, "one_snr", **{
        "snr_grid_db = -15.0, -5.0, 5.0, 15.0, 25.0, 35.0, 45.0": "snr_grid_db = 10.0"})
    train_ds, test_ds, ckpt = tmp_path / "train.ds", tmp_path / "test.ds", tmp_path / "m.ckpt"
    csv, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    runs = [
        _cli("generate", "--config", cfg, "--out", train_ds),
        _cli("generate", "--config", cfg, "--out", test_ds, "--split", "test"),
        _cli("train", "--config", cfg, "--dataset", train_ds, "--ckpt", ckpt),
        _cli("eval", "--config", cfg, "--dataset", test_ds, "--ckpt", tmp_path / "m.nnbf.ckpt",
             "--ckpt", tmp_path / "m.nnbf_p.ckpt", "--out", csv),
        _cli("eval", "--config", cfg, "--dataset", test_ds, "--out", csv, "--desk-scale"),
        _cli("plot", csv, "--out", svg),
        _cli("verify"),
        _cli("train", "--config", early, "--dataset", train_ds, "--ckpt", tmp_path / "e.ckpt",
             "--verbose"),                                                          # (a)
        _numpy_kernels(_cli("train", "--config", cfg, "--dataset", train_ds,
                            "--ckpt", ckpt)),                                       # (b)
        _cli("eval", "--config", one_snr, "--dataset", test_ds, "--out", csv),      # (c)
        _cli("plot", csv, "--out", svg),
    ]
    codes, hits = run_traced(runs, {module.__file__ for module in modules},
                             importlib.import_module("beamopt.verify").__file__)
    err = capsys.readouterr().err
    assert codes == [0] * len(runs), err
    assert "epoch    0" in err and "epoch    7" not in err      # (a) stopped early

    unrun = {name: sorted(line for _, line in wanted - hits)
             for name, wanted in lines.items() if wanted - hits}
    counts = {name: len(missed) for name, missed in unrun.items()}
    assert counts == {name: count for name, (count, _) in ALLOWED.items()}, (
        "unrun runtime lines differ from ALLOWED (delete them, or list them with a reason): "
        + "; ".join(f"{name} lines {missed}" for name, missed in sorted(unrun.items())
                    if len(missed) != ALLOWED.get(name, (0,))[0])
        + "; stale entries: " + ", ".join(sorted(set(ALLOWED) - set(unrun))))
