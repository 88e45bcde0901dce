"""Spans around calls into bsqrng's public functions, installed from outside.

Each target is replaced, for the length of one traced round, at the name its
caller looks it up by: ``bsqrng.mcsim.gate_uniforms`` is wrapped in the mcsim
module because ``_simulate_range`` finds it there, ``poisson_cdf`` in the
fock module because ``truncation_bound`` finds it there, and so on. Nothing
in the package is edited. A span is (name, start, end, parent index); spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

ROOT = "cli.main"

# (module, attribute or Class.attribute, span name)
TARGETS = (
    ("bsqrng.cli", "generate", "cli.generate"),
    ("bsqrng.cli", "load_bitstream", "cli.load_bitstream"),
    ("bsqrng.cli", "sweep", "cli.sweep"),
    ("bsqrng.cli", "find_optimum", "cli.find_optimum"),
    ("bsqrng.cli", "run", "mcsim.run"),
    ("bsqrng.mcsim", "gate_uniforms", "mcsim.gate_uniforms"),
    ("bsqrng.cli", "events_to_bits", "postproc.events_to_bits"),
    ("bsqrng.cli", "von_neumann", "postproc.von_neumann"),
    ("bsqrng.postproc", "BitStream.write", "postproc.write"),
    ("bsqrng.postproc", "BitStream.read", "postproc.read"),
    ("bsqrng.cli", "run_battery", "randtests.run_battery"),
    ("bsqrng.randtests", "frequency_monobit", "randtests.monobit"),
    ("bsqrng.randtests", "block_frequency", "randtests.block_frequency"),
    ("bsqrng.randtests", "runs", "randtests.runs"),
    ("bsqrng.randtests", "longest_run_of_ones", "randtests.longest_run"),
    ("bsqrng.randtests", "cumulative_sums", "randtests.cumulative_sums"),
    ("bsqrng.randtests", "approximate_entropy", "randtests.approximate_entropy"),
    ("bsqrng.randtests", "serial", "randtests.serial"),
    ("bsqrng.randtests", "TestReport.to_csv", "randtests.report"),
    ("bsqrng.randtests", "TestReport.to_text", "randtests.report"),
    ("bsqrng.cli", "parse_report_csv", "randtests.report"),
    ("bsqrng.randtests", "erfc", "special.erfc"),
    ("bsqrng.randtests", "gammainc_upper", "special.gammainc_upper"),
    ("bsqrng.randtests", "normal_cdf", "special.normal_cdf"),
    ("bsqrng.cli", "output_joint_distribution", "fock.output_joint_distribution"),
    ("bsqrng.fock", "output_joint_distribution", "fock.output_joint_distribution"),
    ("bsqrng.cli", "coincidence_contrast", "fock.coincidence_contrast"),
    ("bsqrng.fock", "truncation_bound", "fock.truncation_bound"),
    ("bsqrng.fock", "poisson_cdf", "special.poisson_cdf"),
    ("bsqrng.cli", "outcome_probabilities", "detection.outcome_probabilities"),
)


def _count_run(counts, args, result):
    tally = result[0]
    counts["mcsim.gates"] += tally.n_gates
    counts["mcsim.valid"] += tally.bit0 + tally.bit1


# Work counted at the span boundary where it is done.
AFTER = {
    "mcsim.run": _count_run,
    "postproc.events_to_bits": lambda c, a, r: c.update({"postproc.raw_bits": r.length}),
    "postproc.write": lambda c, a, r: c.update({"postproc.output_bits": a[0].length}),
    "randtests.run_battery": lambda c, a, r: c.update({"randtests.blocks": r.n_blocks}),
    "fock.output_joint_distribution": lambda c, a, r: c.update({"fock.entries": len(r.probs)}),
}

# Per-layer metric -> span name whose inclusive time it reports.
TIMES = {
    "mcsim.run_s": "mcsim.run",
    "mcsim.gate_uniforms_s": "mcsim.gate_uniforms",
    "postproc.events_to_bits_s": "postproc.events_to_bits",
    "postproc.von_neumann_s": "postproc.von_neumann",
    "postproc.write_s": "postproc.write",
    "postproc.read_s": "postproc.read",
    "randtests.run_battery_s": "randtests.run_battery",
    "randtests.monobit_s": "randtests.monobit",
    "randtests.block_frequency_s": "randtests.block_frequency",
    "randtests.runs_s": "randtests.runs",
    "randtests.longest_run_s": "randtests.longest_run",
    "randtests.cumulative_sums_s": "randtests.cumulative_sums",
    "randtests.approximate_entropy_s": "randtests.approximate_entropy",
    "randtests.serial_s": "randtests.serial",
    "randtests.report_s": "randtests.report",
    "fock.output_joint_distribution_s": "fock.output_joint_distribution",
    "fock.truncation_bound_s": "fock.truncation_bound",
    "fock.coincidence_contrast_s": "fock.coincidence_contrast",
    "detection.outcome_probabilities_s": "detection.outcome_probabilities",
    "special.poisson_cdf_s": "special.poisson_cdf",
    "special.gammainc_upper_s": "special.gammainc_upper",
    "special.erfc_s": "special.erfc",
    "special.normal_cdf_s": "special.normal_cdf",
    "cli.generate_s": "cli.generate",
    "cli.load_bitstream_s": "cli.load_bitstream",
    "cli.sweep_s": "cli.sweep",
    "cli.find_optimum_s": "cli.find_optimum",
}

# Per-layer metric -> counter.
COUNTS = {
    "mcsim.gates": "mcsim.gates",
    "postproc.raw_bits": "postproc.raw_bits",
    "postproc.output_bits": "postproc.output_bits",
    "randtests.blocks": "randtests.blocks",
    "fock.output_joint_distribution_calls": "fock.output_joint_distribution.calls",
    "fock.entries": "fock.entries",
    "detection.outcome_probabilities_calls": "detection.outcome_probabilities.calls",
    "special.poisson_cdf_calls": "special.poisson_cdf.calls",
    "special.gammainc_upper_calls": "special.gammainc_upper.calls",
    "special.erfc_calls": "special.erfc.calls",
    "special.normal_cdf_calls": "special.normal_cdf.calls",
}


class Tracer:
    """Span and counter recorder for one traced round at a time."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            self.counts[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def command(self, main, argv):
        """Run one CLI command as a root span."""
        return self._wrap(ROOT, main)(argv)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def _inclusive(spans, name: str) -> float:
    """Time under spans of ``name``, not counting one nested in another of the same name."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def self_time(spans, name: str) -> float:
    """Duration of the ``name`` spans minus the time their direct children cover."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name == name:
            total += end - start
        if parent >= 0 and spans[parent][0] == name:
            total -= end - start
    return total


def well_nested(spans) -> bool:
    """Every span lies inside its parent and siblings do not overlap."""
    last_end: dict[int, float] = {}
    for _name, start, end, parent in spans:
        if end < start:
            return False
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end or start < last_end.get(parent, p_start):
                return False
            last_end[parent] = end
    return True


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    spans, counts = tracer.spans, tracer.counts
    metrics = {metric: _inclusive(spans, name) for metric, name in TIMES.items()}
    metrics.update({metric: float(counts[key]) for metric, key in COUNTS.items()})
    metrics["mcsim.sampling_s"] = metrics["mcsim.run_s"] - metrics["mcsim.gate_uniforms_s"]
    gates = counts["mcsim.gates"]
    metrics["mcsim.valid_fraction"] = counts["mcsim.valid"] / gates if gates else 0.0
    raw = counts["postproc.raw_bits"]
    metrics["postproc.vn_yield"] = counts["postproc.output_bits"] / raw if raw else 0.0
    metrics["cli.self_s"] = self_time(spans, ROOT)
    return metrics
