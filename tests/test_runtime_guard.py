"""The runtime modules hold only what the pipeline runs.

Every module of the package except `reference` (the single-slice oracles)
and `verify` (the checks that compare against them) is a runtime module. The
guard runs each CLI command through `cli.main` under `sys.setprofile` and
fails on any public module-level function of a runtime module that no
runtime module enters. `cli.main` counts as entered: the command line calls it.
A function behind functools.cache is entered only on a miss, so the guard
clears those caches first.
"""

import importlib
import importlib.resources
import inspect
import pkgutil
import sys

import beamopt
from beamopt import cli

CHECKING_MODULES = {"reference", "verify"}


def runtime_modules():
    names = sorted(info.name for info in pkgutil.iter_modules(beamopt.__path__))
    return [importlib.import_module(f"beamopt.{name}") for name in names
            if name not in CHECKING_MODULES]


def public_functions(module) -> dict:
    """Qualified name -> code object of each public function the module defines."""
    found = {}
    for name, obj in vars(module).items():
        fn = inspect.unwrap(obj) if callable(obj) else obj
        if not name.startswith("_") and inspect.isfunction(fn) \
                and fn.__module__ == module.__name__:
            found[f"{module.__name__}.{name}"] = fn.__code__
    return found


def test_every_runtime_function_runs_in_the_cli(tmp_path, capsys):
    modules = runtime_modules()
    assert {m.__name__ for m in modules} >= {"beamopt.baselines", "beamopt.cli",
                                             "beamopt.metrics", "beamopt.autodiff"}
    public = {}
    for module in modules:
        public.update(public_functions(module))
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()
    runtime_files = {module.__file__ for module in modules}
    entered = {cli.main.__code__}

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None \
                and frame.f_back.f_code.co_filename in runtime_files:
            entered.add(frame.f_code)

    preset = importlib.resources.files("beamopt") / "presets" / "exp01-desk.ini"
    cfg = tmp_path / "desk.ini"
    cfg.write_text(preset.read_text().replace("train_samples = 512", "train_samples = 24")
                   .replace("test_samples = 256", "test_samples = 8")
                   .replace("epochs = 60", "epochs = 2"))
    train_ds, test_ds, ckpt = tmp_path / "train.ds", tmp_path / "test.ds", tmp_path / "m.ckpt"
    csv, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    commands = [
        ["generate", "--config", cfg, "--out", train_ds],
        ["generate", "--config", cfg, "--out", test_ds, "--split", "test"],
        ["train", "--config", cfg, "--dataset", train_ds, "--ckpt", ckpt],
        ["eval", "--config", cfg, "--dataset", test_ds, "--ckpt", tmp_path / "m.nnbf.ckpt",
         "--ckpt", tmp_path / "m.nnbf_p.ckpt", "--out", csv],
        ["eval", "--config", cfg, "--dataset", test_ds, "--out", csv, "--desk-scale"],
        ["plot", csv, "--out", svg],
        ["verify"],
    ]
    codes = []
    sys.setprofile(profile)
    try:
        for argv in commands:
            codes.append(cli.main([str(arg) for arg in argv]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(commands)
    unused = sorted(name for name, code in public.items() if code not in entered)
    assert unused == [], (f"runtime functions no CLI command runs: {unused}; "
                          f"an oracle belongs in reference.py")
