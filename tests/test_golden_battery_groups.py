"""Golden digests of battery reports over many blocks, from arrays and bit files.

The battery evaluates blocks in groups. These inputs span several groups,
the last of them short, so a kernel that mixes up rows, or treats the last
group unlike the others, moves a digest. Each digest is the SHA-256 of
``run_battery(...).to_csv()`` (every p-value by ``repr``) or of
``to_text()``. The same report must come from the bits as a ``BitStream``,
whose blocks start in the middle of a byte when the block size is not a
multiple of 8.
"""

import hashlib

import numpy as np
import pytest

from bsqrng.postproc import BitStream
from bsqrng.randtests import run_battery

SEED = 20161103


def _uniform(n: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(SEED)).integers(0, 2, n, dtype=np.uint8)


# name -> (number of bits, block size, SHA-256 of the CSV, SHA-256 of the text)
GOLDEN = {
    # 200 blocks of the battery-bulk size and 4 321 trailing bits.
    "uniform-200x20000": (
        200 * 20_000 + 4_321, 20_000,
        "e84cd054336072547a6e7c90075a6e1cfc66cd23f835be63245d51c735c7f9c7",
        "b7bac21920a5a9a54a72e785f82b05dda6a0c6a033973ea5a65966645d63b48b",
    ),
    # 100 blocks of a size that is not a multiple of 8, and 5 trailing bits.
    "uniform-100x4099": (
        100 * 4_099 + 5, 4_099,
        "a1b5ff6ad7f894f1e307fc1d4ad7c06533f3971cbbf23e426dba74f3f66ec406",
        "a8e579a1bfa2543e9c77ab8b896e4610bf344e00f51ac3af37956bfb69369396",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("as_stream", [False, True], ids=["array", "bitstream"])
@pytest.mark.parametrize("name", list(GOLDEN))
def test_multi_group_report_digests(name, as_stream):
    n_bits, block_size, csv_digest, text_digest = GOLDEN[name]
    bits = _uniform(n_bits)
    report = run_battery(BitStream.from_bits(bits) if as_stream else bits, block_size)
    assert report.n_blocks == n_bits // block_size
    assert _digest(report.to_csv()) == csv_digest
    assert _digest(report.to_text()) == text_digest
