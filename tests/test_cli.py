"""Command-line interface: subcommands, config precedence, exit codes."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bsqrng
from bsqrng.cli import SweepSpec, find_optimum, main, sweep
from bsqrng.detection import outcome_probabilities
from bsqrng.fock import SourceModel, output_joint_distribution
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

    def test_past_the_table_cap_maps_to_two(self, capsys):
        from bsqrng.fock import MAX_TABLE_TOTAL

        code, out, err = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "1e9", "--points", "2",
            "--source", "single",
        )
        assert code == 2
        assert err.startswith("error:") and str(MAX_TABLE_TOTAL) in err
        # The refused point is a comment row with nan probabilities.
        note, row = out.splitlines()[2:]
        assert note == f"# mu_eta=1e+09 source=single error: {err[len('error: '):].strip()}"
        assert row.split(",")[:5] == ["1e+09", "single", "nan", "nan", "nan"]
        # Bound 245, under the cap.
        code, out, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "200", "--points", "2",
            "--source", "single",
        )
        assert code == 0 and len(parse_sweep_csv(out)[1]) == 2

    def test_rows_under_the_table_cap_are_written(self, capsys, tmp_path):
        # A sweep of two points starting at mu_eta 1 gives that row alone.
        code, alone, _ = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "2", "--points", "2",
            "--source", "single,indist",
        )
        assert code == 0
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "1e9", "--points", "2",
            "--source", "single,indist", "--out", str(out_path),
        )
        assert code == 2 and out == "" and "MAX_TABLE_TOTAL" in err
        header, *rows = out_path.read_text().splitlines()
        assert [header] + rows[:2] == alone.splitlines()[:3]
        assert [r.startswith("# mu_eta=1e+09") for r in rows[2:]] == [True, False, True, False]

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

    @pytest.mark.parametrize("low", ["0", "-1"])
    def test_non_positive_linear_lower_end_rejected(self, capsys, low):
        code, out, err = run_cli(
            capsys, "sweep", "--spacing", "linear", "--mu-eta-min", low,
            "--mu-eta-max", "2", "--points", "3",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "mu_eta_min" in err

    def test_grid_too_large_to_allocate_exits_2(self, capsys):
        # 10^15 float64 grid points (7 PiB): the allocation fails before any
        # page is touched.
        code, out, err = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "2",
            "--points", "1000000000000000",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "allocate" in err

    def test_memory_error_without_message_exits_2(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(bsqrng.cli._COMMANDS, "sweep", exhausted)
        code, out, err = run_cli(capsys, "sweep")
        assert (code, out, err) == (2, "", "error: out of memory\n")

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

    def test_mixture_endpoints_print_the_named_pairs_rows(self, tmp_path):
        labels = ("mix:0", "dist", "mix:1", "indist")
        sources = {label: SourceModel.from_label(label) for label in labels}
        spec = SweepSpec(0.05, 40.0, 25, sources=tuple(sources.values()))
        pairs = (("mix:0", "dist"), ("mix:1", "indist"))
        for mu_eta in map(float, spec.grid()):
            for mixture, named in pairs:
                a, b = (
                    outcome_probabilities(output_joint_distribution(sources[label], mu_eta))
                    for label in (mixture, named)
                )
                assert (a.p_gen, a.p_disc, a.p_none) == (b.p_gen, b.p_disc, b.p_none), (
                    mu_eta, mixture
                )
        out_path = tmp_path / "sweep.csv"
        assert sweep(spec, out_path) == ""
        _, rows = parse_sweep_csv(out_path.read_text())
        assert len(rows) == len(labels) * spec.points
        fields = {(r["mu_eta"], r["source"]): list(r.values())[2:] for r in rows}
        for mu_eta in {r["mu_eta"] for r in rows}:
            for mixture, named in pairs:
                assert fields[mu_eta, mixture] == fields[mu_eta, named], (mu_eta, mixture)

    def test_grid_too_large_to_allocate_creates_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--mu-eta-min", "1", "--mu-eta-max", "2",
            "--points", "1000000000000000", "--out", str(out_path),
        )
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not out_path.exists()

    def test_peak_memory_does_not_grow_with_points(self, tmp_path):
        # Rows are written as they are computed: ten times the points may add
        # little more than the grid itself (8 bytes a point) to the peak.
        # Holding the rows and the CSV text would cost about 500 bytes a row.
        def peak(points):
            argv = ["sweep", "--mu-eta-min", "1", "--mu-eta-max", "2", "--points",
                    str(points), "--source", "single", "--out", str(tmp_path / "s.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm the table caches
        small, large = peak(100), peak(1000)
        assert large - small < 8 * 900 + 16_384, (small, large)


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

    def test_bright_bracket_maps_to_two(self, capsys):
        from bsqrng.fock import MAX_TABLE_TOTAL

        code, out, err = run_cli(capsys, "optimum", "--bracket", "0.2", "1e9")
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(MAX_TABLE_TOTAL) in err

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

    def test_provenance_keeps_the_mixture_weight(self, capsys, tmp_path):
        out = tmp_path / "m.bits"
        code, _, _ = run_cli(
            capsys, "generate", "--source", "mix:0.1234567", "--gates", "2000",
            "--out", str(out),
        )
        assert code == 0
        assert BitStream.read(out).provenance["source"] == "mix:0.1234567"
        code, stdout, _ = run_cli(capsys, "optimum", "--source", "mix:0.1234567")
        assert code == 0 and stdout.startswith("source=mix:0.1234567\n")

    @pytest.mark.parametrize("label", ["mix:", "mix:abc"])
    def test_bad_mixture_label_names_the_accepted_forms(self, capsys, tmp_path, label):
        out = tmp_path / "x.bits"
        code, stdout, err = run_cli(capsys, "generate", "--source", label, "--out", str(out))
        assert code == 1 and stdout == ""
        assert f"unknown source {label!r}; expected single, indist, dist or mix:<overlap>" in err
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

    def test_undecodable_file_names_the_accepted_forms(self, capsys, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(random.Random(5).randbytes(3000))
        code, out, err = run_cli(capsys, "test", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: neither a BSRB bit file nor ASCII '0'/'1' text\n"

    def test_non_utf8_provenance_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin.bits"
        BitStream.from_bits([1, 0] * 2048, {"note": "ab"}).write(path)
        path.write_bytes(path.read_bytes().replace(b"note=ab", b"note=\xffb"))
        code, out, err = run_cli(capsys, "test", str(path), "--block-size", "2048")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: provenance is not UTF-8 text: ")

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_either_line_end_renders_as_read_text(self, capsys, tmp_path, newline):
        # as the whole file read in text mode: a sweep CSV copied, a battery
        # CSV rendered, with \r\n read as \n
        sweep_path, report_path = tmp_path / "sweep.csv", tmp_path / "report.csv"
        run_cli(capsys, "sweep", "--points", "3", "--out", str(sweep_path))
        (tmp_path / "r.txt").write_text("01" * 2048)
        run_cli(capsys, "test", str(tmp_path / "r.txt"), "--block-size", "2048",
                "--out", str(report_path))
        _, rendered, _ = run_cli(capsys, "report", str(report_path))
        for path in (sweep_path, report_path):
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        code, out, err = run_cli(capsys, "report", str(sweep_path))
        assert (code, err) == (0, "") and out == sweep_path.read_text()
        assert "\r" not in out and out.count("\n") == 7
        code, out, _ = run_cli(capsys, "report", str(report_path))
        assert code == 0 and out == rendered

    def test_sweep_csv_is_copied_in_bounded_memory(self, tmp_path, monkeypatch):
        # a sweep CSV of about 6 MB and one of two rows, echoed to a file
        row = "0.05,single,0.0475614712,0.00119446401,0.951244065,-0.0833333333\n"
        tiny, large = tmp_path / "tiny.csv", tmp_path / "large.csv"
        tiny.write_text("mu_eta,source,p_gen,p_disc,p_none,contrast\n" + 2 * row)
        large.write_text("mu_eta,source,p_gen,p_disc,p_none,contrast\n" + 90_000 * row)

        def peak(path):
            with open(tmp_path / "out.csv", "w") as out:
                monkeypatch.setattr(sys, "stdout", out)
                tracemalloc.start()
                try:
                    assert main(["report", str(path)]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                    monkeypatch.undo()

        peak(tiny)
        small, big = peak(tiny), peak(large)
        assert (tmp_path / "out.csv").read_bytes() == large.read_bytes()
        assert big - small < 1 << 20, (small, big)

    def test_rejects_unknown_content(self, capsys, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("alpha,beta\n1,2\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1 and "unrecognized" in err

    def test_undecodable_file_names_the_accepted_forms(self, capsys, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(random.Random(5).randbytes(3000))
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert "codec" not in err
        assert err.startswith(f"error: {path}: ")
        assert "battery report CSV or a sweep CSV" in err

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

    def test_memory_error_on_the_simulator_worker_maps_to_two(
        self, capsys, tmp_path, monkeypatch
    ):
        import threading

        import bsqrng.mcsim as mcsim

        inner = mcsim._classify
        worker_calls = []
        worker_failed = threading.Event()

        def classify(*args):
            if threading.current_thread() is threading.main_thread():
                # The caller waits, so that the worker gets two chunks.
                worker_failed.wait(timeout=60)
            else:
                worker_calls.append(None)
                if len(worker_calls) == 2:  # never chunk 0
                    worker_failed.set()
                    raise MemoryError
            return inner(*args)

        monkeypatch.setattr(mcsim, "_classify", classify)
        out = tmp_path / "x.bits"
        code, stdout, err = run_cli(
            capsys, "generate", "--mu-eta", "1.0", "--gates", "200000", "--out", str(out)
        )
        assert (code, stdout, err) == (2, "", "error: out of memory\n")
        assert not out.exists()

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

    def test_value_that_fails_its_cast_names_file_and_key(self, capsys, tmp_path):
        config = tmp_path / "qrng.conf"
        config.write_text("gates=abc\n")
        out_path = tmp_path / "c.bits"
        code, out, err = run_cli(
            capsys, "--config", str(config), "generate", "--mu-eta", "1.0",
            "--out", str(out_path),
        )
        assert code == 1 and out == ""
        assert str(config) in err and "gates='abc'" in err
        assert not out_path.exists()

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
    def test_contrast_column_shared_across_sources(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        assert sweep(SweepSpec(0.5, 2.0, points=3, spacing="linear"), out_path) == ""
        _, rows = parse_sweep_csv(out_path.read_text())
        by_mu = {}
        for row in rows:
            by_mu.setdefault(row["mu_eta"], []).append(row["contrast"])
        assert len(by_mu) == 3
        for contrasts in by_mu.values():
            assert len(contrasts) == 2 and len(set(contrasts)) == 1

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
