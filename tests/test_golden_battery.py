"""Golden digests of battery reports: every p-value pinned bit for bit.

Each digest is the SHA-256 of ``run_battery(...).to_csv()`` for one seeded
input. The CSV writes every p-value with ``repr``, so a kernel rewrite that
moves any p-value by one ulp, or flips a pass flag, changes a digest. The
block sizes 1 000, 20 000 and 750 000 select the three longest-run tables
(sub-blocks of 8, 128 and 10 000 bits). A second digest per input pins the
text report: its header, verdicts, pass fractions and not-run list. The
``report`` command's stdout is pinned on the CSV that ``test`` writes, and on
a copy with one pass flag flipped: the stored flags, not the p-values, decide
the verdicts.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from bsqrng.cli import main
from bsqrng.postproc import BitStream
from bsqrng.randtests import run_battery

SEED = 20160817


def _uniform(n: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(SEED)).integers(0, 2, n, dtype=np.uint8)


def _biased(n: int, p_one: float) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(SEED + 1))
    return (rng.random(n) < p_one).astype(np.uint8)


# name -> (bits, block size, SHA-256 of the report CSV)
GOLDEN_REPORTS = {
    # 537 trailing bits beyond the last block are dropped.
    "uniform-1000": (
        lambda: _uniform(8 * 1_000 + 537), 1_000,
        "352aec38fb12f9b080c94717f73d65ac634549fe4639bc2f23dc8cd8667ee1e5",
    ),
    "uniform-20000": (
        lambda: _uniform(4 * 20_000), 20_000,
        "e6acc7ffbb37252e3cf2fa709d91bc83eb40f0ca8cb4d1169c0e2a7700d0062a",
    ),
    "uniform-750000": (
        lambda: _uniform(750_000), 750_000,
        "414f74a90192975ada6e1341fcdd56a60f7aca26b3de764202807e56db97116b",
    ),
    "biased-0.45-20000": (
        lambda: _biased(3 * 20_000, 0.45), 20_000,
        "fd6b982f2c1b382135cfa48b9268d15109af2d2aee6222e41a6cedd129af4f57",
    ),
    "zeros-1000": (
        lambda: np.zeros(2 * 1_000, dtype=np.uint8), 1_000,
        "a11c515b37fd71b98aa1a329bcbb18d7889485671538af62c47c148f007a876a",
    ),
    "ones-1000": (
        lambda: np.ones(2 * 1_000, dtype=np.uint8), 1_000,
        "d33ec3623ca3a13c89980bb524d07c84e55b9fe7390458e475979466250d57ef",
    ),
}

# name -> SHA-256 of the text report of the same input
GOLDEN_TEXT = {
    "uniform-1000": "a9d21737f0b242e6e36cf45cf09757d13d1b848c08be3089b86f8231bc9e6d61",
    "uniform-20000": "129fcf25d819cbbc71baaf8b8427c10bb51a1758dacf09fbee02f5d877fc7d5d",
    "uniform-750000": "8a40f3b0600ce4ddfb077104b6e3b4ea23025f62e9074e503a939a4b6800f896",
    "biased-0.45-20000": "d5fc283159fdd965f0cd2ca17256eab2cc3515aadad535fb7c33760b94445d35",
    # every p-value of these two prints as 0.000000
    "zeros-1000": "d08912fdf73e681fbfa303fa3c62185873e395475afedb53076fac4a3d2375a7",
    "ones-1000": "d08912fdf73e681fbfa303fa3c62185873e395475afedb53076fac4a3d2375a7",
}

# `bsqrng test --format csv` on a binary bit file of 3 blocks and 4 321 bits more.
GOLDEN_TEST_CSV = "788eabeb7a4ca3865df06c1322a18bafbe30fe2b9383a329de765f1a7e3ed4df"

# `bsqrng report` stdout on that CSV, as written and with one pass flag flipped.
GOLDEN_REPORT_STDOUT = {
    "as-written": "372835dfd00c31564dc59210836f2d1b7896372bc774f5b0ffb96e4088afa965",
    "flag-flipped": "3cb0357b611eb619a0d1d34242f76cda16b610c1fb664fd03f57b7c1e470ff2d",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_battery_report_digest(name):
    make_bits, block_size, expected = GOLDEN_REPORTS[name]
    report = run_battery(make_bits(), block_size)
    assert _digest(report.to_csv().encode()) == expected


@pytest.mark.parametrize("name", list(GOLDEN_TEXT))
def test_battery_text_digest(name):
    make_bits, block_size, _ = GOLDEN_REPORTS[name]
    report = run_battery(make_bits(), block_size)
    assert _digest(report.to_text().encode()) == GOLDEN_TEXT[name]


def _cli_test_csv(tmp_path, capsys) -> Path:
    bits_path, report_path = tmp_path / "uniform.bsrb", tmp_path / "report.csv"
    BitStream.from_bits(_uniform(3 * 20_000 + 4_321)).write(bits_path)
    argv = ["test", str(bits_path), "--block-size", "20000", "--alpha", "0.05",
            "--format", "csv", "--out", str(report_path)]
    assert main(argv) == 0
    capsys.readouterr()
    return report_path


def test_cli_test_csv_digest(tmp_path, capsys):
    assert _digest(_cli_test_csv(tmp_path, capsys).read_bytes()) == GOLDEN_TEST_CSV


@pytest.mark.parametrize("name", list(GOLDEN_REPORT_STDOUT))
def test_cli_report_digest(tmp_path, capsys, name):
    report_path = _cli_test_csv(tmp_path, capsys)
    if name == "flag-flipped":
        # block 1's monobit row passes at alpha 0.05; its stored flag now says FAIL
        text = report_path.read_text()
        row = next(ln for ln in text.splitlines() if ln.startswith("monobit,1,"))
        assert row.endswith(",1")
        report_path.write_text(text.replace(row, row[:-1] + "0"))
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert _digest(out.encode()) == GOLDEN_REPORT_STDOUT[name]
