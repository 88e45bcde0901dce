"""Command-line interface: subcommands, config precedence, exit codes."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bsqrng
from bsqrng.cli import SweepSpec, find_optimum, main, sweep
from bsqrng.fock import SourceModel
from bsqrng.postproc import BitStream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_sweep_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        row = dict(zip(header, parts))
        rows.append(row)
    return header, rows


class TestSweep:
    def test_reference_grid_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "1.386", "--mu-eta-max", "2.1",
            "--points", "2", "--spacing", "linear",
        )
        assert code == 0
        header, rows = parse_sweep_csv(out)
        assert header == ["mu_eta", "source", "p_gen", "p_disc", "p_none", "contrast"]
        by_key = {(r["mu_eta"], r["source"]): r for r in rows}
        single_peak = float(by_key[("1.386", "single")]["p_gen"])
        assert single_peak == pytest.approx(0.500, abs=1e-3)
        pair_peak = float(by_key[("2.1", "indist")]["p_gen"])
        assert pair_peak == pytest.approx(0.66, abs=0.01)

    def test_saturation_regime_edge(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "10", "--mu-eta-max", "20",
            "--points", "2", "--source", "single,indist",
        )
        assert code == 0
        _, rows = parse_sweep_csv(out)
        edge = {r["source"]: r for r in rows if float(r["mu_eta"]) == 20.0}
        # the non-interfering benchmark saturates fully; bosonic bunching
        # holds the interfering pair's collision probability near 0.744
        assert float(edge["single"]["p_disc"]) >= 0.95
        assert float(edge["indist"]["p_disc"]) == pytest.approx(0.7443, abs=2e-3)

    def test_contrast_underflow_annotates_each_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "1e-200", "--mu-eta-max", "2e-200",
            "--points", "2", "--source", "single,indist",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 8
        for note, row in zip(lines[::2], lines[1::2]):
            mu_eta, source, *_, contrast = row.split(",")
            assert note == (
                f"# mu_eta={mu_eta} source={source} error: baseline coincidence "
                f"probability underflows at mu_eff={mu_eta}"
            )
            assert contrast == "nan"
        _, rows = parse_sweep_csv(out)
        assert [(r["mu_eta"], r["source"]) for r in rows] == [
            ("1e-200", "single"), ("1e-200", "indist"),
            ("2e-200", "single"), ("2e-200", "indist"),
        ]

    def test_bright_end_completes(self, capsys):
        # Above total ~60 the splitter rows must stay exact, or p leaves [0, 1].
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-max", "100", "--points", "5",
            "--source", "single,indist,dist,mix:0.5",
        )
        assert code == 0
        assert "#" not in out
        _, rows = parse_sweep_csv(out)
        assert len(rows) == 20
        for row in rows:
            for key in ("p_gen", "p_disc", "p_none"):
                assert 0.0 <= float(row[key]) <= 1.0, row

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "0.5", "--mu-eta-max", "2", "--points", "3",
            "--out", str(out_path),
        )
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("mu_eta,source,")

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--mu-eta-min", "5", "--mu-eta-max", "2", "--points", "4"
        )
        assert code == 1
        assert "error:" in err

    def test_non_finite_endpoint_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--mu-eta-max", "inf", "--points", "4")
        assert code == 1 and out == ""
        assert "finite mu_eta_min < mu_eta_max" in err and "inf" in err

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(1.0, 2.0, points=1)
        with pytest.raises(ValueError):
            SweepSpec(0.0, 2.0, spacing="log")
        with pytest.raises(ValueError):
            SweepSpec(1.0, 2.0, spacing="cubic")

    def test_sources_parsed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "2", "--points", "2",
            "--source", "dist,mix:0.5",
        )
        assert code == 0
        _, rows = parse_sweep_csv(out)
        assert {r["source"] for r in rows} == {"dist", "mix:0.5"}


class TestOptimum:
    def test_single_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "optimum", "--source", "single")
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["mu_eta_star"]) == pytest.approx(2 * math.log(2), abs=5e-3)
        assert float(values["p_gen_star"]) == pytest.approx(0.5, abs=1e-3)

    def test_interfering_pair(self, capsys):
        code, out, _ = run_cli(capsys, "optimum", "--source", "indist")
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["mu_eta_star"]) == pytest.approx(2.1, abs=0.15)
        assert float(values["p_gen_star"]) == pytest.approx(0.66, abs=0.01)

    def test_bad_bracket(self, capsys):
        code, _, err = run_cli(
            capsys, "optimum", "--source", "single", "--bracket", "5", "9"
        )
        assert code == 1 and "bracket" in err

    def test_non_finite_bracket_rejected(self, capsys):
        code, out, err = run_cli(capsys, "optimum", "--bracket", "0.2", "inf")
        assert code == 1 and out == ""
        assert "bracket must be finite" in err

    def test_library_bracket_validation(self):
        with pytest.raises(ValueError):
            find_optimum(SourceModel.single(), (2.0, 1.0))


class TestGenerate:
    def test_reproducible_bit_file(self, capsys, tmp_path):
        args = (
            "generate", "--mu-eta", "2.1", "--gates", "20000", "--seed", "11",
            "--out", str(tmp_path / "a.bits"),
        )
        code, out_a, _ = run_cli(capsys, *args)
        assert code == 0
        args_b = args[:-1] + (str(tmp_path / "b.bits"),)
        code, _, _ = run_cli(capsys, *args_b)
        assert code == 0
        assert (tmp_path / "a.bits").read_bytes() == (tmp_path / "b.bits").read_bytes()
        summary = dict(line.split("=", 1) for line in out_a.strip().splitlines())
        assert summary["n_gates"] == "20000"
        assert float(summary["raw_throughput_bits_per_s"]) == pytest.approx(
            float(summary["p_gen"]) * 100_000.0
        )

    def test_debias_reports_extraction(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "generate", "--mu", "4.2", "--eta0", "0.4875", "--eta1", "0.5125",
            "--gates", "60000", "--seed", "5", "--debias",
            "--out", str(tmp_path / "d.bits"),
        )
        assert code == 0
        summary = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(summary["extraction_efficiency"]) == pytest.approx(0.25, abs=0.01)

    def test_mu_eta_conflicts_with_explicit_efficiencies(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "--mu-eta", "2.0", "--mu", "4.0",
            "--out", str(tmp_path / "x.bits"),
        )
        assert code == 1 and "one form" in err

    def test_invalid_mu(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate", "--mu", "-1", "--out", str(tmp_path / "x.bits")
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--mu", "--gate-rate"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_rejected(self, capsys, tmp_path, flag, value):
        out = tmp_path / "x.bits"
        code, stdout, err = run_cli(capsys, "generate", flag, value, "--out", str(out))
        assert code == 1 and stdout == ""
        assert f"{flag[2:].replace('-', '_')} must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_invalid_mu_eta_named_in_message(self, capsys, tmp_path, value):
        out = tmp_path / "x.bits"
        code, stdout, err = run_cli(capsys, "generate", "--mu-eta", value, "--out", str(out))
        assert code == 1 and stdout == ""
        assert "--mu-eta must be positive and finite" in err and "mu must" not in err
        assert not out.exists()


class TestTestCommand:
    def test_battery_on_generated_file(self, capsys, tmp_path):
        bits_path = tmp_path / "g.bits"
        run_cli(
            capsys, "generate", "--mu-eta", "2.1", "--gates", "40000", "--seed", "2",
            "--debias", "--out", str(bits_path),
        )
        report_path = tmp_path / "report.csv"
        code, _, err = run_cli(
            capsys, "test", str(bits_path), "--block-size", "2000",
            "--out", str(report_path),
        )
        assert code == 0
        text = report_path.read_text()
        assert text.startswith("test,block,p_value,pass\n")
        assert "pass_fraction monobit" in err

    def test_ascii_input_all_zeros_fails_everything(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0" * 4096)
        code, out, _ = run_cli(
            capsys, "test", str(path), "--block-size", "2048", "--format", "text"
        )
        assert code == 0
        assert "pass_fraction monobit 0.000" in out

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "test", str(tmp_path / "absent.bits"))
        assert code == 3 and "error:" in err

    def test_insufficient_data_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0101")
        code, _, _ = run_cli(capsys, "test", str(path), "--block-size", "2048")
        assert code == 1

    def test_unknown_format_rejected_by_parser(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0" * 4096)
        with pytest.raises(SystemExit):
            main(["test", str(path), "--format", "x"])


class TestReportCommand:
    def test_rerenders_battery_csv(self, capsys, tmp_path):
        bits = tmp_path / "r.txt"
        bits.write_text("01" * 2048)
        report_path = tmp_path / "report.csv"
        run_cli(capsys, "test", str(bits), "--block-size", "2048",
                "--out", str(report_path))
        code, out, _ = run_cli(capsys, "report", str(report_path))
        assert code == 0
        assert "pass_fraction" in out
        assert "not_run" in out

    def test_renders_shuffled_rows_in_canonical_order(self, capsys, tmp_path):
        bits = tmp_path / "r.txt"
        bits.write_text("".join(random.Random(7).choice("01") for _ in range(3 * 2048)))
        report_path = tmp_path / "report.csv"
        run_cli(capsys, "test", str(bits), "--block-size", "2048",
                "--out", str(report_path))
        _, as_written, _ = run_cli(capsys, "report", str(report_path))
        header, *rows = report_path.read_text().splitlines()
        random.Random(8).shuffle(rows)
        report_path.write_text("\n".join([header, *rows]) + "\n")
        code, shuffled, _ = run_cli(capsys, "report", str(report_path))
        assert code == 0 and shuffled == as_written

    def test_rejects_unknown_content(self, capsys, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("alpha,beta\n1,2\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1 and "unrecognized" in err

    def test_rejects_incomplete_battery_csv(self, capsys, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("test,block,p_value,pass\nmonobit,0,0.5,1\nruns,0,0.5,1\n")
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "block_frequency block 0" in err

    def test_rejects_header_only_battery_csv(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("test,block,p_value,pass\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1 and err.startswith("error:") and "no result rows" in err

    @pytest.mark.parametrize(
        "bad_row",
        ["runs,0,0.5,yes", "runs,0,7.5,1", "runs,0,nan,1", "runs,0,-0.25,0",
         "runs,0,0.5", "runs,0,0.5,1,1", "runs,x,0.5,1"],
    )
    def test_rejects_malformed_battery_row(self, capsys, tmp_path, bad_row):
        bits = tmp_path / "r.txt"
        bits.write_text("01" * 2048)
        report_path = tmp_path / "report.csv"
        run_cli(capsys, "test", str(bits), "--block-size", "2048",
                "--out", str(report_path))
        lines = report_path.read_text().splitlines()
        runs_row = next(i for i, ln in enumerate(lines) if ln.startswith("runs,0,"))
        lines[runs_row] = bad_row
        report_path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "report", str(report_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and repr(bad_row) in err


class TestExitCodes:
    def test_runtime_errors_map_to_two(self, capsys, tmp_path, monkeypatch):
        import bsqrng.cli as cli

        def boom(cfg, **kwargs):
            raise RuntimeError("budget exceeded")

        monkeypatch.setattr(cli, "run", boom)
        code, _, err = run_cli(
            capsys, "generate", "--mu-eta", "1.0", "--gates", "100",
            "--out", str(tmp_path / "x.bits"),
        )
        assert code == 2 and "budget" in err

    def test_gate_limit_maps_to_two(self, capsys, tmp_path):
        out = tmp_path / "x.bits"
        code, stdout, err = run_cli(
            capsys, "generate", "--gates", "268435457", "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "268435456" in err
        assert "sink" not in err
        assert not out.exists()

    def test_photon_total_cap_maps_to_two(self, capsys, tmp_path):
        from bsqrng.mcsim import MAX_TABLE_TOTAL

        out = tmp_path / "x.bits"
        code, stdout, err = run_cli(capsys, "generate", "--mu", "1000", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "mu 1000" in err
        assert str(MAX_TABLE_TOTAL) in err
        assert not out.exists()

    def test_bright_single_arm_below_the_cap_runs(self, capsys, tmp_path):
        # Its arm table ends at photon total 256 at the latest.
        out = tmp_path / "x.bits"
        code, _, err = run_cli(
            capsys, "generate", "--source", "single", "--mu", "112",
            "--gates", "1000", "--out", str(out),
        )
        assert code == 0, err
        assert out.exists()

    def test_usage_errors_map_to_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--points", "not-a-number"])
        assert info.value.code == 1


class TestConfigPrecedence:
    def test_file_fills_unset_flags(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "qrng.conf"
        config.write_text("seed=99\ngates=1500\n")
        monkeypatch.setenv("BSQRNG_CONFIG", str(config))
        code, out, _ = run_cli(
            capsys, "generate", "--mu-eta", "1.0", "--out", str(tmp_path / "c.bits")
        )
        assert code == 0
        summary = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert summary["n_gates"] == "1500"

    def test_flags_override_file(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "qrng.conf"
        config.write_text("gates=1500\n")
        monkeypatch.setenv("BSQRNG_CONFIG", str(config))
        code, out, _ = run_cli(
            capsys, "generate", "--mu-eta", "1.0", "--gates", "2222",
            "--out", str(tmp_path / "c.bits"),
        )
        assert code == 0
        summary = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert summary["n_gates"] == "2222"

    def test_explicit_config_flag(self, capsys, tmp_path):
        config = tmp_path / "qrng.conf"
        config.write_text("seed=4\n")
        code, out, _ = run_cli(
            capsys, "--config", str(config), "generate", "--mu-eta", "1.0",
            "--gates", "1000", "--out", str(tmp_path / "c.bits"),
        )
        assert code == 0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "qrng.conf"
        config.write_text("laser_power=9000\n")
        code, _, err = run_cli(
            capsys, "--config", str(config), "generate", "--mu-eta", "1.0",
            "--gates", "1000", "--out", str(tmp_path / "c.bits"),
        )
        assert code == 1 and "unknown configuration key" in err

    @pytest.mark.parametrize("line, argv", [
        ("format=xml", ("test", "{bits}", "--block-size", "2048")),
        ("spacing=cubic", ("sweep", "--points", "2")),
    ])
    def test_file_value_outside_choices_rejected(self, capsys, tmp_path, line, argv):
        bits = tmp_path / "bits.txt"
        bits.write_text("01" * 2048)
        config = tmp_path / "qrng.conf"
        config.write_text(line + "\n")
        argv = [arg.format(bits=bits) for arg in argv]
        code, out, err = run_cli(capsys, "--config", str(config), *argv)
        assert code == 1 and "is not one of" in err
        assert out == ""

    def test_mu_eta_flag_replaces_file_efficiencies(self, capsys, tmp_path):
        config = tmp_path / "qrng.conf"
        config.write_text("mu=3.0\neta0=0.5\n")
        out_path = tmp_path / "c.bits"
        code, _, _ = run_cli(
            capsys, "--config", str(config), "generate", "--mu-eta", "1.0",
            "--gates", "1000", "--out", str(out_path),
        )
        assert code == 0
        provenance = BitStream.read(out_path).provenance
        assert (provenance["mu"], provenance["eta0"], provenance["eta1"]) == ("1", "1", "1")

    def test_efficiency_flags_replace_file_mu_eta(self, capsys, tmp_path):
        config = tmp_path / "qrng.conf"
        config.write_text("mu_eta=1.0\neta1=0.25\n")
        out_path = tmp_path / "c.bits"
        code, _, _ = run_cli(
            capsys, "--config", str(config), "generate", "--mu", "3.0", "--eta0", "0.5",
            "--gates", "1000", "--out", str(out_path),
        )
        assert code == 0
        provenance = BitStream.read(out_path).provenance
        # eta1 is of the flags' form, so the file still sets it
        assert (provenance["mu"], provenance["eta0"], provenance["eta1"]) == ("3", "0.5", "0.25")

    def test_both_forms_as_flags_still_conflict(self, capsys, tmp_path):
        config = tmp_path / "qrng.conf"
        config.write_text("gates=1000\n")
        code, _, err = run_cli(
            capsys, "--config", str(config), "generate", "--mu-eta", "1.0",
            "--eta0", "0.5", "--out", str(tmp_path / "c.bits"),
        )
        assert code == 1 and "one form" in err


class TestLibrarySweep:
    def test_contrast_column_shared_across_sources(self):
        rows = sweep(SweepSpec(0.5, 2.0, points=3, spacing="linear"))
        by_mu = {}
        for row in rows:
            by_mu.setdefault(row.mu_eta, set()).add(row.contrast)
        for contrasts in by_mu.values():
            assert len(contrasts) == 1

    def test_nine_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "2", "--points", "2"
        )
        assert code == 0
        value = out.splitlines()[1].split(",")[2]
        mantissa = value.replace(".", "").lstrip("0")
        assert len(mantissa) == 9


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        src = str(Path(bsqrng.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bsqrng", "--help"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage:")
