"""The seed -> words contract, pinned against an independent Philox4x64-10.

``mcsim.gate_uniforms`` takes every gate's eight raw 64-bit words from
numpy's Philox bit generator. This file computes the same words from the
published algorithm alone: J. K. Salmon, M. A. Moraes, R. O. Dror and
D. E. Shaw, "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11 (Philox4x64
with ten rounds). Gate g reads the 4-word output blocks at counter values
2g + 1 and 2g + 2, because the generator advances its counter before each
block. The simulator reads a word w as the 53-bit draw w >> 11, so pinning
the words pins every draw. If a numpy release, or a change here, moved any
of this, the seeded bytes of every run would move.
"""

import pytest

from bsqrng.mcsim import gate_uniforms

MASK = (1 << 64) - 1
# Multipliers and key increments (Weyl constants) of Philox4x64.
M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def philox4x64_10(counter: int, key: int) -> list[int]:
    """One output block: four 64-bit words for a 256-bit counter and a 128-bit key."""
    c = [(counter >> (64 * i)) & MASK for i in range(4)]
    k0, k1 = key & MASK, (key >> 64) & MASK
    for round_ in range(10):
        if round_:
            k0, k1 = (k0 + W0) & MASK, (k1 + W1) & MASK
        p0, p1 = M0 * c[0], M1 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK]
    return c


def reference_words(seed: int, gate: int) -> list[int]:
    return philox4x64_10(2 * gate + 1, seed) + philox4x64_10(2 * gate + 2, seed)


# The last gate's two blocks straddle 2**64, so the counter carries into its
# second word; the last seed fills the key's second word.
SEEDS = (0, 1, 20160817, 2**64 + 5)
GATES = (0, 1, 7, 12_345, 2**63 - 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gate", GATES)
def test_gate_uniforms_match_reference_philox(seed, gate):
    assert gate_uniforms(seed, gate, gate + 1)[0].tolist() == reference_words(seed, gate)


def test_rows_are_consecutive_gates():
    rows = gate_uniforms(20160817, 5, 9).tolist()
    assert rows == [reference_words(20160817, gate) for gate in range(5, 9)]


def test_known_answer():
    # Philox4x64-10 of counter 0 and key 0, as published with Random123.
    assert philox4x64_10(0, 0) == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B,
    ]
