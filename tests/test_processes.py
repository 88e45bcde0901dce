"""Whole runs of ``python -W error -m bsqrng``: exit codes, stderr and stdout.

Each run is a fresh interpreter with warnings as errors, stopped after 60 s,
so a hang fails as a timeout and a stray warning as a traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsqrng

SRC = str(Path(bsqrng.__file__).resolve().parents[1])


def bsqrng_run(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "bsqrng", *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("mixture, named", [("mix:0", "dist"), ("mix:1", "indist")])
def test_mixture_endpoints_match_the_named_pairs(tmp_path, mixture, named):
    # equal seeded runs, apart from the out= path
    printed = []
    for source in (mixture, named):
        proc = bsqrng_run("generate", "--source", source, "--mu", "40", "--eta0", "0.3",
                          "--eta1", "0.9", "--gates", "50000", "--seed", "3",
                          "--out", str(tmp_path / f"{source}.bits"))
        assert proc.returncode == 0, proc.stderr
        printed.append([ln for ln in proc.stdout.splitlines() if not ln.startswith("out=")])
    assert printed[0] == printed[1]


@pytest.mark.parametrize("argv", [
    ["optimum", "--bracket", "0.2", "1e9"],
    ["sweep", "--mu-eta-min", "1", "--mu-eta-max", "1e9", "--points", "2", "--source", "single"],
])
def test_bright_analytic_inputs_are_refused(argv):
    # past fock.MAX_TABLE_TOTAL both exit 2 at once
    proc = bsqrng_run(*argv)
    assert proc.returncode == 2 and "MAX_TABLE_TOTAL" in proc.stderr, proc.stderr


def test_memory_exhaustion_exits_2_without_a_traceback():
    # a grid of 10^15 points (7 PiB) cannot be allocated
    proc = bsqrng_run("sweep", "--mu-eta-min", "1", "--mu-eta-max", "2",
                      "--points", "1000000000000000")
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines()), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("source, accepted, refused", [
    ("single", "149.5", "149.75"),
    ("dist", "116.5", "116.75"),
])
def test_bright_simulator_inputs_are_refused_at_the_documented_threshold(
    tmp_path, source, accepted, refused
):
    # the README's largest accepted --mu on a 0.25 grid runs; the next exits 2
    # naming fock.MAX_TABLE_TOTAL. w = 0 sources build only routed rows.
    out = str(tmp_path / "bright.bits")
    proc = bsqrng_run("generate", "--source", source, "--mu", accepted, "--gates", "1000",
                      "--out", out)
    assert proc.returncode == 0, proc.stderr
    proc = bsqrng_run("generate", "--source", source, "--mu", refused, "--gates", "1000",
                      "--out", out)
    assert proc.returncode == 2 and "MAX_TABLE_TOTAL" in proc.stderr, proc.stderr
