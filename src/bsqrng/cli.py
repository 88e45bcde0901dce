"""Command-line front end: sweeps, optimum search, bit generation and testing.

Configuration precedence: command-line flags override the optional key=value
configuration file (path from --config or the BSQRNG_CONFIG environment
variable), which overrides built-in defaults. Exit codes: 0 success,
1 validation error, 2 runtime or numeric error or out of memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .detection import DetectorPair, coincidence_contrast, outcome_probabilities
from .fock import SourceModel, output_joint_distribution
from .mcsim import SimConfig, run
from .postproc import _MAGIC, BitStream, events_to_bits, ones_fraction, von_neumann
from .randtests import _CSV_HEADER, parse_report_csv, run_battery

_ENV_CONFIG = "BSQRNG_CONFIG"
_DEFAULT_SOURCES = "single,indist"


@dataclass(frozen=True)
class SweepSpec:
    """Grid of effective mean photon numbers to evaluate per source."""

    mu_eta_min: float
    mu_eta_max: float
    points: int = 60
    spacing: str = "log"
    sources: tuple[SourceModel, ...] = (
        SourceModel.single(),
        SourceModel.indistinguishable_pair(),
    )

    def __post_init__(self):
        if not -math.inf < self.mu_eta_min < self.mu_eta_max < math.inf:
            raise ValueError(
                f"need finite mu_eta_min < mu_eta_max, got {self.mu_eta_min} and {self.mu_eta_max}"
            )
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if self.mu_eta_min <= 0.0:
            raise ValueError(f"mu_eta_min must be positive, got {self.mu_eta_min}")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.mu_eta_min, self.mu_eta_max, self.points)
        return np.linspace(self.mu_eta_min, self.mu_eta_max, self.points)


_SWEEP_HEADER = "mu_eta,source,p_gen,p_disc,p_none,contrast"


@contextmanager
def _output(path: str | Path | None) -> Iterator[TextIO]:
    """The text file at ``path``, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def sweep(spec: SweepSpec, out_path: str | Path | None = None) -> str:
    """Write the analytic generation/discard/contrast table as CSV.

    Each grid point's rows go to ``out_path`` (stdout when None) as soon as
    they are computed. A source whose tables would pass the photon-total cap
    at a point keeps its row, with nan probabilities, after a comment line
    naming the refusal. Returns the first refusal, or "" if there is none.
    """
    grid = spec.grid()  # a grid too large to allocate fails before the file is made
    refusal = ""
    with _output(out_path) as out:
        out.write(_SWEEP_HEADER + "\n")
        for mu_eta in map(float, grid):
            try:
                contrast = coincidence_contrast(mu_eta)
            except ValueError as exc:
                contrast, contrast_error = math.nan, str(exc)
            else:
                contrast_error = ""
            for source in spec.sources:
                try:
                    probs = outcome_probabilities(output_joint_distribution(source, mu_eta))
                except OverflowError as exc:
                    p_gen = p_disc = p_none = math.nan
                    error = str(exc)
                    refusal = refusal or error
                else:
                    p_gen, p_disc, p_none = probs.p_gen, probs.p_disc, probs.p_none
                    error = contrast_error
                if error:
                    out.write(f"# mu_eta={mu_eta:.9g} source={source.label} error: {error}\n")
                out.write(
                    f"{mu_eta:.9g},{source.label},{p_gen:.9g},{p_disc:.9g},"
                    f"{p_none:.9g},{contrast:.9g}\n"
                )
    return refusal


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def find_optimum(
    source: SourceModel,
    bracket: tuple[float, float] = (0.2, 6.0),
) -> tuple[float, float]:
    """Locate the mu-eta value maximizing the valid-bit probability.

    A coarse log-spaced pre-scan checks the bracket contains a single
    interior peak (small truncation wiggles tolerated), then golden-section
    search refines the argmax to within 1e-4.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"bracket must be finite with 0 < lo < hi, got {bracket}")

    def p_gen(mu_eta: float) -> float:
        return outcome_probabilities(output_joint_distribution(source, mu_eta)).p_gen

    grid = np.geomspace(lo, hi, 33)
    values = [p_gen(float(x)) for x in grid]
    peak = int(np.argmax(values))
    if peak in (0, len(grid) - 1):
        raise ValueError(f"bracket {bracket} does not straddle the maximum")
    slack = 1e-6  # tolerate truncation-bound jumps in the pre-scan
    rising = all(values[i + 1] >= values[i] - slack for i in range(peak))
    falling = all(values[i + 1] <= values[i] + slack for i in range(peak, len(values) - 1))
    if not (rising and falling):
        raise ValueError("pre-scan found multiple peaks; narrow the bracket")

    a, b = float(grid[peak - 1]), float(grid[peak + 1])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = p_gen(c), p_gen(d)
    while b - a > 1e-4:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = p_gen(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = p_gen(c)
    best = (a + b) / 2.0
    return best, p_gen(best)


def generate(
    cfg: SimConfig, debias_flag: bool, out_path: str | Path
) -> tuple[BitStream, dict[str, str]]:
    """Simulate, extract bits, optionally debias, and write the bit file."""
    tally, outcomes = run(cfg)
    provenance = {
        "source": cfg.source.label,
        "mu": f"{cfg.mu:.9g}",
        "eta0": f"{cfg.detectors.eta0:.9g}",
        "eta1": f"{cfg.detectors.eta1:.9g}",
        "seed": str(cfg.seed),
        "gates": str(cfg.n_gates),
        "gate_rate": f"{cfg.gate_rate:.9g}",
    }
    stream = events_to_bits(outcomes, provenance)
    raw_length = stream.length
    if debias_flag:
        stream = von_neumann(stream)
    stream.write(out_path)

    summary = {
        "out": str(out_path),
        **tally.summary(),
        "raw_bits": str(raw_length),
        "output_bits": str(stream.length),
        "raw_throughput_bits_per_s": f"{tally.p_gen * cfg.gate_rate:.9g}",
    }
    ones = ones_fraction(stream)
    if ones is not None:
        summary["ones_fraction"] = f"{ones:.9g}"
    if debias_flag and raw_length > 0:
        summary["extraction_efficiency"] = f"{stream.length / raw_length:.9g}"
    return stream, summary


def load_bitstream(path: str | Path) -> BitStream:
    """Read a bit file, accepting the binary format or ASCII '0'/'1' text."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        return BitStream.read(path)
    try:
        return BitStream.from_ascii(Path(path).read_text())
    except ValueError:  # undecodable text too
        raise ValueError(
            f"{path}: neither a BSRB bit file nor ASCII '0'/'1' text"
        ) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(1, message))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_config_file(path: str | Path) -> dict[str, str]:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: bad configuration line {line!r}")
        values[key.strip()] = value.strip()
    return values


_CONFIG_CASTS = {
    "mu": float,
    "mu_eta": float,
    "eta0": float,
    "eta1": float,
    "source": str,
    "gates": int,
    "seed": int,
    "gate_rate": float,
    "block_size": int,
    "alpha": float,
    "format": str,
    "points": int,
    "spacing": str,
}

# Options with a fixed set of values, for flags and configuration alike.
_CHOICES = {"spacing": ("log", "linear"), "format": ("csv", "text")}


def _apply_config(args: argparse.Namespace, config_path: str | None) -> None:
    """Fill unset options from the configuration file, if one is named."""
    path = config_path or os.environ.get(_ENV_CONFIG)
    if not path:
        return
    flags = {key for key, value in vars(args).items() if value is not None}
    # A form of the source mean given as flags replaces the other form from the file.
    if "mu_eta" in flags:
        flags |= {"mu", "eta0", "eta1"}
    elif flags & {"mu", "eta0", "eta1"}:
        flags.add("mu_eta")
    for key, raw in _read_config_file(path).items():
        cast = _CONFIG_CASTS.get(key)
        if cast is None:
            raise ValueError(f"unknown configuration key {key!r}")
        try:
            value = cast(raw)
        except ValueError as exc:
            raise ValueError(f"{path}: configuration {key}={raw!r}: {exc}") from exc
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"configuration {key}={value!r} is not one of {_CHOICES[key]}")
        if key not in flags:
            setattr(args, key, value)


def _resolved(args: argparse.Namespace, **defaults):
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bsqrng", description=__doc__)
    parser.add_argument("--config", help="key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="analytic probability table over a mu-eta grid")
    p_sweep.add_argument("--mu-eta-min", type=float, default=None)
    p_sweep.add_argument("--mu-eta-max", type=float, default=None)
    p_sweep.add_argument("--points", type=int, default=None)
    p_sweep.add_argument("--spacing", choices=_CHOICES["spacing"], default=None)
    p_sweep.add_argument("--source", dest="source", default=None,
                         help="comma-separated list: single,indist,dist,mix:<overlap>")
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p_opt = sub.add_parser("optimum", help="search the valid-bit probability maximum")
    p_opt.add_argument("--source", default=None,
                       help="one of single,indist,dist,mix:<overlap>")
    p_opt.add_argument("--bracket", nargs=2, type=float, metavar=("LO", "HI"), default=None)

    p_gen = sub.add_parser("generate", help="simulate gates and write a bit file")
    p_gen.add_argument("--mu", type=float, default=None, help="mean photons per gate")
    p_gen.add_argument("--mu-eta", type=float, default=None,
                       help="effective mean; shorthand for --mu with ideal detectors")
    p_gen.add_argument("--eta0", type=float, default=None)
    p_gen.add_argument("--eta1", type=float, default=None)
    p_gen.add_argument("--source", default=None,
                       help="one of single,indist,dist,mix:<overlap>")
    p_gen.add_argument("--gates", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--gate-rate", dest="gate_rate", type=float, default=None)
    p_gen.add_argument("--debias", action="store_true")
    p_gen.add_argument("--out", required=True)

    p_test = sub.add_parser("test", help="run the randomness battery on a bit file")
    p_test.add_argument("input", help="bit file (binary or ASCII)")
    p_test.add_argument("--block-size", dest="block_size", type=int, default=None)
    p_test.add_argument("--alpha", type=float, default=None, help="significance level")
    p_test.add_argument("--out", default=None, help="report path (default stdout)")
    p_test.add_argument("--format", choices=_CHOICES["format"], default=None)

    p_rep = sub.add_parser("report", help="re-render a stored CSV result")
    p_rep.add_argument("input", help="battery report CSV or sweep CSV")

    return parser


# Built once per process: ``main`` may run many commands in one interpreter.
_PARSER = build_parser()


def _parse_sources(text: str) -> tuple[SourceModel, ...]:
    return tuple(SourceModel.from_label(part.strip()) for part in text.split(","))


def _cmd_sweep(args) -> int:
    args = _resolved(args, mu_eta_min=0.05, mu_eta_max=20.0, points=60,
                     spacing="log", source=_DEFAULT_SOURCES)
    spec = SweepSpec(args.mu_eta_min, args.mu_eta_max, args.points, args.spacing,
                     _parse_sources(args.source))
    refusal = sweep(spec, args.out)
    if refusal:  # every row is written; a refused table still exits 2
        raise OverflowError(refusal)
    return 0


def _cmd_optimum(args) -> int:
    args = _resolved(args, source="indist", bracket=[0.2, 6.0])
    source = SourceModel.from_label(args.source)
    mu_eta_star, p_gen_star = find_optimum(source, tuple(args.bracket))
    print(f"source={source.label}")
    print(f"mu_eta_star={mu_eta_star:.9g}")
    print(f"p_gen_star={p_gen_star:.9g}")
    return 0


def _cmd_generate(args) -> int:
    if args.mu_eta is not None:
        if args.mu is not None or args.eta0 is not None or args.eta1 is not None:
            raise ValueError("--mu-eta replaces --mu/--eta0/--eta1; give one form only")
        if not 0.0 < args.mu_eta < math.inf:
            raise ValueError(f"--mu-eta must be positive and finite, got {args.mu_eta}")
        args.mu, args.eta0, args.eta1 = args.mu_eta, 1.0, 1.0
    args = _resolved(args, mu=2.1, eta0=1.0, eta1=1.0, source="indist",
                     gates=100_000, seed=1, gate_rate=100_000.0)
    cfg = SimConfig(
        seed=args.seed,
        n_gates=args.gates,
        mu=args.mu,
        source=SourceModel.from_label(args.source),
        detectors=DetectorPair(args.eta0, args.eta1),
        gate_rate=args.gate_rate,
    )
    _stream, summary = generate(cfg, args.debias, args.out)
    for key, value in summary.items():
        print(f"{key}={value}")
    return 0


def _cmd_test(args) -> int:
    args = _resolved(args, block_size=100_000, alpha=0.01, format="csv")
    stream = load_bitstream(args.input)
    report = run_battery(stream, args.block_size, args.alpha)
    rendered = report.to_csv() if args.format == "csv" else report.to_text()
    with _output(args.out) as out:
        out.write(rendered)
    for name, frac in report.pass_fraction().items():
        print(f"pass_fraction {name} {frac:.3f}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    """Render a battery report CSV as text, or copy a sweep CSV to stdout in
    chunks; the first line tells them apart."""
    unrecognized = ValueError(
        f"{args.input}: unrecognized stored result; expected a battery report "
        "CSV or a sweep CSV"
    )
    try:
        with open(args.input) as fh:
            head = fh.readline()
            first_line = (head.splitlines() or [""])[0]
            if first_line == _CSV_HEADER:
                sys.stdout.write(parse_report_csv(head + fh.read()).to_text())
            elif first_line == _SWEEP_HEADER:
                sys.stdout.write(head)
                shutil.copyfileobj(fh, sys.stdout)
            else:
                raise unrecognized
    except UnicodeDecodeError:
        raise unrecognized from None
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "optimum": _cmd_optimum,
    "generate": _cmd_generate,
    "test": _cmd_test,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _apply_config(args, args.config)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        return _fail(1, str(exc))
    except (ArithmeticError, RuntimeError) as exc:
        return _fail(2, str(exc))
    except MemoryError as exc:
        return _fail(2, str(exc) or "out of memory")
    except OSError as exc:
        return _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
