"""Golden digests of the analytic commands: sweep CSVs and optimum reports.

Each digest is the SHA-256 of what ``bsqrng sweep`` or ``bsqrng optimum``
prints to stdout. A change to the Fock amplitudes, the truncation policy,
the detector folding, the contrast, the golden-section search or the number
formatting changes a digest.
"""

import hashlib

import pytest

from bsqrng.cli import main

FOUR_SOURCES = "single,indist,dist,mix:0.5"

GOLDEN_SWEEPS = {
    # The default 60-point log grid from 0.05 to 20.
    "log-default": (
        ("sweep", "--source", FOUR_SOURCES),
        "9ed942530d531981ec34ddde94b3d0a3d460510b9227d2503e584c587241c89c",
    ),
    "linear": (
        ("sweep", "--spacing", "linear", "--mu-eta-min", "0.1", "--mu-eta-max", "6",
         "--points", "25", "--source", "single,indist,dist,mix:0.3"),
        "6c35475805f8912117f0c0c591886766bfaeb03ea1c937fc47cbeea59cbd7be8",
    ),
}

GOLDEN_OPTIMA = {
    "single": "0144d783ad2898805cb571d1b20e90f3ce48d527c3125e7262757fd711edb7a4",
    "indist": "e56f72ce4ab9eb270a9cb5cecc842a78792e66e6a4c038143d22154d0bce9f91",
    "dist": "16a3317bd54a9a7e267477fc163f1a5d3899b4f0814650b59ac7d0ac61d2ab74",
    "mix:0.5": "7f9b536142a6b7ccbb15fd7f1def729aeb6b818ce90d037db37ed598a56596ab",
}


def _stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_sweep_csv_digest(name, capsys):
    argv, digest = GOLDEN_SWEEPS[name]
    assert _stdout_digest(capsys, *argv) == digest


@pytest.mark.parametrize("source", list(GOLDEN_OPTIMA))
def test_optimum_stdout_digest(source, capsys):
    assert _stdout_digest(capsys, "optimum", "--source", source) == GOLDEN_OPTIMA[source]
