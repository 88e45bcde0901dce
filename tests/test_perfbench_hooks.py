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


def test_simulator_spans_nest_when_run_is_traced(monkeypatch):
    # Several chunks on two threads: only the caller may enter a traced name,
    # since the tracer's span stack is shared by every thread.
    import threading

    import bsqrng.cli as cli
    import bsqrng.mcsim as mcsim
    from bsqrng.fock import SourceModel
    from bsqrng.mcsim import SimConfig

    # Hold the worker back until the caller has drawn a chunk, so that a busy
    # machine cannot leave the caller no span.
    inner = mcsim.gate_uniforms
    caller_drew = threading.Event()

    def caller_words(*args):
        try:
            return inner(*args)
        finally:
            caller_drew.set()

    def worker_words(*args):
        caller_drew.wait(timeout=60)
        return inner(*args)

    monkeypatch.setattr(mcsim, "gate_uniforms", caller_words)
    monkeypatch.setattr(mcsim, "_worker_gate_uniforms", worker_words)
    tracing = _load_tracing()
    cfg = SimConfig(seed=5, n_gates=5000, mu=2.1, source=SourceModel.indistinguishable_pair())
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.run(cfg, chunk_gates=250)
    spans = tracer.spans
    assert tracing.well_nested(spans)
    (root,) = [i for i, span in enumerate(spans) if span[0] == "mcsim.run"]
    words = [span for span in spans if span[0] == "mcsim.gate_uniforms"]
    assert words
    for _name, _start, _end, parent in words:
        while parent not in (-1, root):
            parent = spans[parent][3]
        assert parent == root
