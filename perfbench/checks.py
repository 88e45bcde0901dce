"""Checks of the program's outputs against computations made apart from it.

Statistical checks allow Z_BOUND standard deviations, so a healthy program
fails a z-score check with probability below 1e-6 and a pass-proportion check
with about 1e-5; exact checks (headers, counts, byte equality) allow nothing.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

import reference
import workloads

Z_BOUND = 5.0
TAIL = 1e-3  # probability mass the CLI's default truncation may drop
OPTIMUM_MU_TOL = 0.01  # the dropped tail moves the argmax of a flat peak
PREFIX_GATES = 50_000

# Report rows per block, in the order `test` writes them.
COMPONENTS = ("monobit", "block_frequency", "runs", "longest_run",
              "cumulative_sums_forward", "cumulative_sums_backward",
              "approximate_entropy", "serial_1", "serial_2")

_HEADER = struct.Struct("<4sBQI")
_BIT0, _BIT1 = 0x01, 0x02  # streamed event codes of the documented format


class Checks:
    """Named pass/fail results with a detail line each."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.failed_ops: list[str] = []  # operations that did not do their job

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _z(count: float, n: int, p: float) -> float:
    return (count - n * p) / math.sqrt(n * p * (1.0 - p))


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _out_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def read_bit_file(path: Path) -> tuple[bool, int, dict[str, str], np.ndarray]:
    """Parse a bit file by the documented layout; returns (valid, bits, provenance, bit array)."""
    data = path.read_bytes()
    magic, version, n_bits, prov_len = _HEADER.unpack_from(data)
    prov_text = data[_HEADER.size:_HEADER.size + prov_len].decode()
    payload = np.frombuffer(data, np.uint8, offset=_HEADER.size + prov_len)
    bits = np.unpackbits(payload)
    valid = (magic == b"BSRB" and version == 1 and payload.size == (n_bits + 7) // 8
             and not bits[n_bits:].any())
    return valid, n_bits, _key_values(prov_text), bits[:n_bits]


def _pi_bits(n: int) -> str:
    """The first n binary digits of pi (integer part included), by Machin's formula."""
    guard = n + 32

    def arctan_inv(x: int) -> int:
        total, term, k, sign = 0, (1 << guard) // x, 1, 1
        while term:
            total += sign * (term // k)
            term //= x * x
            k, sign = k + 2, -sign
        return total

    pi = 4 * (4 * arctan_inv(5) - arctan_inv(239))
    return format(pi >> (guard - (n - 2)), "b")[:n]


# NIST SP 800-22 rev1a section 2.4.4, the 128-bit longest-run example.
_LONGEST_RUN_EXAMPLE = ("11001100000101010110110001001100111000000000001001"
                        "00110101010001000100111101011010000000110101111100"
                        "1100111001101101100010110010")


def check_nist_examples(checks: Checks) -> None:
    """The seven tests on the worked examples of NIST SP 800-22 rev1a, section 2."""
    from bsqrng import randtests as t

    pi = _pi_bits(100)
    examples = (
        ("2.1.4 frequency", t.frequency_monobit("1011010101", min_length=10), "0.527089"),
        ("2.1.8 frequency, pi", t.frequency_monobit(pi), "0.109599"),
        ("2.2.4 block frequency M=3", t.block_frequency("0110011010", 3), "0.801252"),
        ("2.2.8 block frequency M=10, pi", t.block_frequency(pi, 10), "0.706438"),
        ("2.3.4 runs", t.runs("1001101011"), "0.147232"),
        ("2.3.8 runs, pi", t.runs(pi), "0.500798"),
        ("2.4.4 longest run M=8", t.longest_run_of_ones(_LONGEST_RUN_EXAMPLE), "0.180598"),
        ("2.11.4 serial m=3, first", t.serial("0011011101", 3)[0], "0.808792"),
        ("2.11.4 serial m=3, second", t.serial("0011011101", 3)[1], "0.670320"),
        ("2.12.4 approximate entropy m=3", t.approximate_entropy("0100110101", 3), "0.261961"),
        ("2.12.8 approximate entropy m=2, pi", t.approximate_entropy(pi, 2), "0.235301"),
        ("2.13.8 cumulative sums forward, pi", t.cumulative_sums(pi), "0.219194"),
        ("2.13.8 cumulative sums reverse, pi", t.cumulative_sums(pi, "backward"), "0.114866"),
    )
    for name, value, published in examples:
        digits = len(published.split(".")[1])
        ok = abs(value - float(published)) <= 0.5 * 10.0 ** -digits + 1e-12
        checks.add(f"NIST {name}", ok, f"{value:.{digits + 2}f} vs published {published}")


def check_reference(checks: Checks) -> None:
    """The quadrature reference, on its own and against outcome_probabilities."""
    from bsqrng.detection import DetectorPair, outcome_probabilities
    from bsqrng.fock import SourceModel, TruncationPolicy, output_joint_distribution

    for name, ok, detail in reference.self_check():
        checks.add(name, ok, detail)
    worst = 0.0
    for source in workloads.SWEEP_SOURCES:
        for mu, eta0, eta1 in ((2.1, 1.0, 1.0), (8.0, 0.6, 0.5), (20.0, 1.0, 1.0)):
            dist = output_joint_distribution(SourceModel.from_label(source), mu,
                                             TruncationPolicy(1e-12))
            got = outcome_probabilities(dist, DetectorPair(eta0, eta1))
            want = reference.outcome_probabilities(source, mu, eta0, eta1)
            worst = max(worst, abs(got.p_gen - want["p_gen"]),
                        abs(got.p_disc - want["p_disc"]), abs(got.p_none - want["p_none"]),
                        abs(got.p_bit0_lone + got.p_bit0_partner_missed - want["p_bit0"]))
    checks.add("reference agrees with outcome_probabilities (tail 1e-12) to 1e-9",
               worst <= 1e-9, f"max |diff| {worst:.1e}")


def check_generate(checks: Checks, name: str, seed: int, argv: list[str],
                   stdout: str) -> int:
    """A generate run's summary and bit file; returns the file's bit count."""
    cfg = workloads.SIMULATED[name]
    summary = _key_values(stdout)
    valid, n_bits, prov, bits = read_bit_file(_out_path(argv))
    checks.add("generate: bit file parses under the documented header", valid, f"{n_bits} bits")
    checks.add("generate: file bit count equals reported output_bits",
               n_bits == int(summary["output_bits"]), f"{n_bits} vs {summary['output_bits']}")
    checks.add("generate: provenance records source, seed and gates",
               (prov.get("source"), prov.get("seed"), prov.get("gates"))
               == (cfg["source"], str(seed), str(workloads.GATES)), str(prov))
    n = int(summary["n_gates"])
    bit0, bit1 = int(summary["bit0"]), int(summary["bit1"])
    collision, none = int(summary["collision"]), int(summary["none"])
    checks.add("generate: tally covers every gate",
               n == workloads.GATES and bit0 + bit1 + collision + none == n, f"{n} gates")
    ref = reference.outcome_probabilities(cfg["source"], cfg["mu"], cfg["eta0"], cfg["eta1"])
    for key, count in (("p_gen", bit0 + bit1), ("p_disc", collision)):
        z = _z(count, n, ref[key])
        checks.add(f"generate: {key} tally within {Z_BOUND:g} sigma of the reference",
                   abs(z) <= Z_BOUND, f"{count / n:.6f} vs {ref[key]:.6f}, z={z:+.2f}")
    raw = bit0 + bit1
    checks.add("generate: raw_bits equals the valid gates", int(summary["raw_bits"]) == raw,
               f"{summary['raw_bits']} vs {raw}")
    ones = int(bits.sum())
    p1 = ref["p_bit1"] / ref["p_gen"]
    if cfg["debias"]:
        z = _z(ones, n_bits, 0.5)
        checks.add(f"generate: debiased ones fraction within {Z_BOUND:g} sigma of 1/2",
                   abs(z) <= Z_BOUND, f"{ones / n_bits:.6f}, z={z:+.2f}")
        z = _z(n_bits, raw // 2, 2.0 * p1 * (1.0 - p1))
        checks.add(f"generate: von Neumann yield within {Z_BOUND:g} sigma of 2 p0 p1 per pair",
                   abs(z) <= Z_BOUND, f"{n_bits} of {raw} raw bits, z={z:+.2f}")
    else:
        checks.add("generate: raw file holds one bit per valid gate, ones = bit1 gates",
                   n_bits == raw and ones == bit1, f"{n_bits} bits, {ones} ones")
        z = _z(ones, n_bits, p1)
        checks.add(f"generate: raw ones fraction within {Z_BOUND:g} sigma of p(bit1|valid)",
                   abs(z) <= Z_BOUND, f"{ones / n_bits:.6f} vs {p1:.6f}, z={z:+.2f}")
    _check_prefix(checks, cfg, seed, bits)
    return n_bits


def _check_prefix(checks: Checks, cfg: dict, seed: int, bits: np.ndarray) -> None:
    """Counter-based reproducibility, as a property: chunking changes no byte."""
    from bsqrng.detection import DetectorPair
    from bsqrng.fock import SourceModel
    from bsqrng.mcsim import SimConfig, gate_uniforms, run

    sim = SimConfig(seed=seed, n_gates=PREFIX_GATES, mu=cfg["mu"],
                    source=SourceModel.from_label(cfg["source"]),
                    detectors=DetectorPair(cfg["eta0"], cfg["eta1"]))
    _, chunked = run(sim, chunk_gates=4096)
    _, whole = run(sim)
    checks.add("reproducibility: outcome bytes equal for chunk_gates 4096 and 2**20",
               chunked.tobytes() == whole.tobytes(), f"{PREFIX_GATES} gates")
    draws = gate_uniforms(seed, 0, 1000)
    checks.add("reproducibility: gate draws depend only on (seed, gate index), 8 per gate",
               draws.shape == (1000, 8) and np.array_equal(draws[600:], gate_uniforms(seed, 600, 1000)))
    valid = chunked[(chunked == _BIT0) | (chunked == _BIT1)] - _BIT0
    if cfg["debias"]:
        pairs = valid[: len(valid) // 2 * 2].reshape(-1, 2)
        valid = pairs[pairs[:, 0] != pairs[:, 1], 0]
    checks.add("reproducibility: the bit file starts with the prefix's bits",
               np.array_equal(bits[: len(valid)], valid), f"{len(valid)} bits")


def _block_p_values(bits: np.ndarray) -> tuple[float, float]:
    """Monobit and runs p-values of one block, from their NIST formulas."""
    n = len(bits)
    ones = int(bits.sum())
    monobit = math.erfc(abs(2 * ones - n) / math.sqrt(2.0 * n))
    pi = ones / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return monobit, 0.0
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    runs = math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi))
                     / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))
    return monobit, runs


def check_battery(checks: Checks, label: str, path: Path, bits: np.ndarray,
                  alpha: float) -> dict[tuple[str, int], tuple[float, bool]]:
    """A battery report CSV: one row per component and block, p-values in [0, 1],
    pass flags at alpha, monobit and runs equal to an independent computation."""
    lines = path.read_text().splitlines()
    k = len(bits) // workloads.BLOCK_SIZE
    rows = {}
    for line in lines[1:]:
        test, block, p, passed = line.split(",")
        rows[(test, int(block))] = (float(p), passed == "1")
    complete = (lines[0] == "test,block,p_value,pass" and len(lines) == 1 + 9 * k
                and set(rows) == {(c, b) for c in COMPONENTS for b in range(k)})
    consistent = complete and all(0.0 <= p <= 1.0 and passed == (p >= alpha)
                                  for p, passed in rows.values())
    checks.add(f"{label}: report has 9 p-values per block, pass iff p >= {alpha:g}",
               consistent, f"{k} blocks of {workloads.BLOCK_SIZE}")
    worst = 0.0
    for b in range(k if complete else 0):
        block = bits[b * workloads.BLOCK_SIZE:(b + 1) * workloads.BLOCK_SIZE]
        for name, want in zip(("monobit", "runs"), _block_p_values(block)):
            worst = max(worst, abs(rows[(name, b)][0] - want) / max(want, 1e-300))
    checks.add(f"{label}: monobit and runs p-values match their formulas",
               complete and worst <= 1e-9, f"max rel diff {worst:.1e}")
    return rows


def check_pass_fractions(checks: Checks, rows, k: int, alpha: float) -> None:
    """NIST SP 800-22 section 4.2.1: each p-value series' pass proportion lies in
    (1 - alpha) +- Z sqrt(alpha (1 - alpha) / k)."""
    sigma = math.sqrt(alpha * (1.0 - alpha) / k)
    for name in COMPONENTS:
        frac = sum(rows[(name, b)][1] for b in range(k)) / k
        z = (frac - (1.0 - alpha)) / sigma
        checks.add(f"battery: {name} pass proportion within (1-a) +- {Z_BOUND:g} NIST sigma",
                   abs(z) <= Z_BOUND, f"{frac:.3f} of {k} blocks, {z:+.2f} sigma")


def report_round_trip(stdout: str, n_blocks: int) -> tuple[bool, str]:
    """Does `report` restate the block size and significance `test` ran with?"""
    want = (f"block_size={workloads.BLOCK_SIZE} n_blocks={n_blocks} "
            f"significance={workloads.BULK_ALPHA:g}")
    got = stdout.splitlines()[0] if stdout else ""
    return got == want, f"header {got!r}, want {want!r}"


def check_sweep(checks: Checks, seed: int, path: Path) -> int:
    """Sweep rows: the grid asked for, rows summing to 1, probabilities within
    the truncation tail of the reference, contrast in (0, 0.5] and equal to the
    reference contrast. Returns the row count."""
    lines = path.read_text().splitlines()
    grid = np.geomspace(workloads.sweep_min(seed), workloads.SWEEP_MAX, workloads.SWEEP_POINTS)
    keys = [(mu, source) for mu in grid for source in workloads.SWEEP_SOURCES]
    rows = [line.split(",") for line in lines[1:]]
    shape = (lines[0] == "mu_eta,source,p_gen,p_disc,p_none,contrast" and len(rows) == len(keys)
             and all(source == want_source and abs(float(mu) / want_mu - 1.0) <= 1e-8
                     for (mu, source, *_), (want_mu, want_source) in zip(rows, keys)))
    checks.add("sweep: one row per grid point and source, no error rows", shape,
               f"{len(rows)} rows")
    if not shape:
        return len(rows)
    values = np.array([[float(x) for x in row[2:]] for row in rows])
    p_gen, p_disc, p_none, contrast = values.T
    off = float(np.max(np.abs(p_gen + p_disc + p_none - 1.0)))
    checks.add("sweep: every row sums to 1", off <= 1e-8, f"max |sum - 1| {off:.1e}")
    worst_low = worst_high = 0.0
    for (mu, source), got in zip(keys, values):
        ref = reference.outcome_probabilities(source, mu)
        for value, want, low, high in ((got[0], ref["p_gen"], TAIL, 0.0),
                                       (got[1], ref["p_disc"], TAIL, 0.0),
                                       (got[2], ref["p_none"], 0.0, TAIL)):
            worst_low = max(worst_low, want - value - low)
            worst_high = max(worst_high, value - want - high)
    checks.add("sweep: rows within the truncation tail of the reference",
               worst_low <= 1e-8 and worst_high <= 1e-8,
               f"excess below {worst_low:.1e}, above {worst_high:.1e}")
    ref_contrast = np.array([reference.coincidence_contrast(mu) for mu in grid])
    got_contrast = contrast[:: len(workloads.SWEEP_SOURCES)]
    diff = float(np.max(np.abs(got_contrast - ref_contrast)))
    checks.add("sweep: contrast in (0, 0.5] and equal to the reference",
               bool(np.all((contrast > 0.0) & (contrast <= 0.5))) and diff <= 1e-6,
               f"range [{contrast.min():.4f}, {contrast.max():.4f}], max |diff| {diff:.1e}")
    return len(rows)


def check_optimum(checks: Checks, source: str, stdout: str) -> None:
    """An `optimum` result against the maximum of the reference p_gen."""
    got = _key_values(stdout)
    mu, p = float(got["mu_eta_star"]), float(got["p_gen_star"])
    ref_mu, ref_p = reference.optimum(source)
    if source in ("single", "dist"):
        name = f"optimum {source}: 0.50 at 2 ln 2"
    else:
        name = f"optimum {source}: the reference maximum"
    checks.add(name, got.get("source") == source and abs(mu - ref_mu) <= OPTIMUM_MU_TOL
               and ref_p - TAIL <= p <= ref_p + 1e-8,
               f"mu*={mu:.5f} p*={p:.6f} vs {ref_mu:.5f}, {ref_p:.6f}")


def check_run(name: str, seed: int, tmp: Path, result: dict) -> tuple[Checks, list[bool], dict]:
    """Checks of one run; returns them, which operations of a round failed,
    and the work one round did."""
    checks = Checks()
    ops = workloads.operations(name, seed, tmp)
    rounds = result["rounds"]
    first = rounds[0]
    texts = [t["stdout"] for t in first["texts"]]
    checks.add("every round wrote the same bytes",
               all(r["digests"] == first["digests"] for r in rounds), f"{len(rounds)} rounds")
    failed = [any(r["codes"][i] != 0 for r in rounds) for i in range(len(ops))]
    checks.add("no command exited non-zero", not any(failed), str(first["codes"]))
    if any(failed):
        return checks, failed, {}
    work = {}
    if name in workloads.SIMULATED:
        check_reference(checks)
        work["gates"] = workloads.GATES
        work["output_bits"] = check_generate(checks, name, seed, ops[0], texts[0])
    if name == "optimum-pipeline":
        _, _, _, bits = read_bit_file(_out_path(ops[0]))
        check_nist_examples(checks)
        check_battery(checks, "test", _out_path(ops[1]), bits, workloads.PIPELINE_ALPHA)
        work["tested_bits"] = len(bits) // workloads.BLOCK_SIZE * workloads.BLOCK_SIZE
    if name == "battery-bulk":
        _, _, _, bits = read_bit_file(tmp / "uniform.bsrb")
        k = len(bits) // workloads.BLOCK_SIZE
        check_nist_examples(checks)
        rows = check_battery(checks, "test", _out_path(ops[0]), bits, workloads.BULK_ALPHA)
        check_pass_fractions(checks, rows, k, workloads.BULK_ALPHA)
        ok, detail = report_round_trip(texts[1], k)
        if not ok:
            failed[1] = True
            checks.failed_ops.append(f"report does not restate the test's parameters: {detail}")
        work["tested_bits"] = k * workloads.BLOCK_SIZE
    if name == "analytic-scan":
        check_reference(checks)
        work["rows"] = check_sweep(checks, seed, _out_path(ops[0]))
        for argv, text in zip(ops[1:], texts[1:]):
            check_optimum(checks, argv[-1], text)
        work["searches"] = len(ops) - 1
    return checks, failed, work
