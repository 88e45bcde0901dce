"""Golden digests of seeded simulator output: the seed-to-bytes contract.

Each digest is the SHA-256 of the outcome bytes ``run`` returns for one
configuration. A change to the Philox key or counter, the eight raw words
per gate and the slot each is read from, the sampling tables or the
classification changes a digest. Every configuration is taken at two chunk
sizes; 70 000 gates spans more than one chunk at both.
"""

import hashlib

import pytest

from bsqrng.cli import main
from bsqrng.detection import DetectorPair
from bsqrng.fock import SourceModel
from bsqrng.mcsim import SimConfig, run

N_GATES = 70_000
SEED = 20160817

# (source, mu, eta0, eta1) -> SHA-256 of the outcome bytes.
GOLDEN_RUNS = {
    ("single", 2.1, 1.0, 1.0): "941bb2dd8457daeb71c13d3b2f71b9b490a5759f58dd52b95319b79fefe4e815",
    ("indist", 2.1, 1.0, 1.0): "6b5b98dfe8c3ed8eea946121fe56ce24fade520d85ac335174a004e38016a31f",
    ("dist", 2.1, 1.0, 1.0): "8ee2d7482f9d13202530dfed0fe63e2f0d1e1b11b015e4733b9bd54580c8e07a",
    ("mix:0.3", 2.1, 1.0, 1.0): "006ea30241fab87361db98c064eec14983fd0433a4a6f910180bfac54f13b5a2",
    ("mix:0.5", 8.0, 0.6, 0.5): "333f4b3ac711103d9ea05c83890cd754e3bc584e1b971ed714c0746b4904e50b",
    # 66 x 66 = 4356 (m, n) rows, more than 1024.
    ("indist", 40.0, 0.3, 0.9): "d094536bbc1a89866bf5d8494d5fc5b2dfb6b4fec1974a1b2c269d435cf340d4",
    # The routed branch above total 56, where binomial cumsums end below 1.
    ("dist", 40.0, 0.3, 0.9): "47df88b4402fd4d5f444e3ad8275d28cf3d4642c1fa6338da31713f777bb1a5f",
    ("mix:0.5", 40.0, 0.3, 0.9): "9ac05b795ffdfcb1f31297c92cecb61f96dbb552890c9106a49060551d15e1a1",
}

GOLDEN_GENERATE_ARGS = (
    "generate", "--source", "indist", "--mu-eta", "2.1",
    "--gates", str(N_GATES), "--seed", str(SEED), "--debias",
)
GOLDEN_GENERATE = "6d672a3bb291ccf8c723252475a8efa8436d67aed1c37fa7b3dd766472e17437"

GOLDEN_RAW_GENERATE_ARGS = (
    "generate", "--source", "mix:0.5", "--mu", "8", "--eta0", "0.6", "--eta1", "0.5",
    "--gates", str(N_GATES), "--seed", str(SEED),
)
# SHA-256 of generate's stdout without its out= line: the tally, the throughput,
# the bit counts, the ones fraction and (debiased) the extraction efficiency.
GOLDEN_SUMMARIES = {
    GOLDEN_GENERATE_ARGS: "3c93c020bdd2541336bb50acfffdf1e81274b5a789457e05c110814051262bfc",
    GOLDEN_RAW_GENERATE_ARGS: "dbc183fc286cdd7243b8c83e45281d9f541235ad8d801bc61d91a0e4d23137bc",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("chunk_gates", [4096, None], ids=["chunk4096", "default"])
@pytest.mark.parametrize("key", list(GOLDEN_RUNS), ids=lambda k: f"{k[0]}-mu{k[1]}")
def test_run_outcome_digest(key, chunk_gates):
    label, mu, eta0, eta1 = key
    cfg = SimConfig(
        seed=SEED,
        n_gates=N_GATES,
        mu=mu,
        source=SourceModel.from_label(label),
        detectors=DetectorPair(eta0, eta1),
    )
    kwargs = {} if chunk_gates is None else {"chunk_gates": chunk_gates}
    _, outcomes = run(cfg, **kwargs)
    assert _digest(outcomes.tobytes()) == GOLDEN_RUNS[key]


def test_generate_debias_bit_file_digest(tmp_path, capsys):
    out = tmp_path / "golden.bsrb"
    assert main([*GOLDEN_GENERATE_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digest(out.read_bytes()) == GOLDEN_GENERATE


@pytest.mark.parametrize("args", list(GOLDEN_SUMMARIES), ids=["debias", "raw-mix"])
def test_generate_summary_digest(tmp_path, capsys, args):
    assert main([*args, "--out", str(tmp_path / "golden.bsrb")]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    printed = "".join(line for line in lines if not line.startswith("out="))
    assert _digest(printed.encode()) == GOLDEN_SUMMARIES[args]
