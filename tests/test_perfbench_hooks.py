"""The benchmark's tracer finds every function it wraps where it looks for it.

``perfbench/tracing.py`` replaces each of its targets by module and attribute
name, so removing or moving one of them breaks every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracing = _load_tracing()

    def owner_and_attr(module_name, attr):
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        return owner, attr

    targets = [owner_and_attr(module, attr) for module, attr, _ in tracing.TARGETS]
    before = [vars(owner)[attr] for owner, attr in targets]
    with tracing.Tracer().installed():
        pass
    assert [vars(owner)[attr] for owner, attr in targets] == before
