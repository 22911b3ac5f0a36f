"""perfbench/tracer.py binds library functions by name for `perfbench/run.py
--trace 1`; a refactor that deletes or moves one of them would break every
traced run.  The tracer is loaded from its file and not modified."""

import importlib.util
import inspect
import pathlib
import sys

import conich1.cli  # noqa: F401  (the tracer wraps cli.main)
from conich1 import signedperm

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("conich1_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, qual):
    owner = sys.modules[f"conich1.{module}"]
    *cls_path, attr = qual.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, attr)


def test_tracer_install_and_uninstall():
    tracer = _load_tracer()
    targets = [(module, qual) for module, qual, _ in tracer.TARGETS]
    originals = [_resolve(module, qual) for module, qual in targets]
    t = tracer.Tracer()
    try:
        t.install()
        for (module, qual), original in zip(targets, originals):
            assert _resolve(module, qual) is not original, f"{module}.{qual} was not wrapped"
        signedperm.parse_element("(1,2) c1", 4)
        assert t.counts[t.names.index("signedperm.parse_element")] == 1
    finally:
        t.uninstall()
    assert [_resolve(module, qual) for module, qual in targets] == originals
