"""Simulator determinism, stream partitioning and agreement with the analytics."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsqrng.detection import DetectorPair, outcome_probabilities
from bsqrng.fock import (
    SourceModel,
    TruncationPolicy,
    _interfering_rows,
    _krawtchouk_rows,
    output_joint_distribution,
)
from bsqrng.mcsim import (
    MAX_GATES,
    MAX_TABLE_TOTAL,
    EventTally,
    Outcome,
    SimConfig,
    _GuideTable,
    _SamplerTables,
    _simulate_range,
    _thresholds,
    gate_uniforms,
    run,
)

INDIST = SourceModel.indistinguishable_pair()
SINGLE = SourceModel.single()


def make_cfg(**overrides):
    defaults = dict(seed=42, n_gates=1000, mu=2.1, source=INDIST)
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestGateStream:
    def test_pure_function_of_seed_and_index(self):
        a = gate_uniforms(7, 0, 50)
        b = gate_uniforms(7, 0, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gate_uniforms(8, 0, 50))

    @given(st.integers(1, 300), st.data())
    def test_any_partition_reproduces_serial_stream(self, n, data):
        k = data.draw(st.integers(0, n))
        whole = gate_uniforms(3, 0, n)
        split = np.vstack([gate_uniforms(3, 0, k), gate_uniforms(3, k, n)])
        assert np.array_equal(whole, split)

    def test_offset_ranges_share_no_draws(self):
        assert np.array_equal(gate_uniforms(3, 10, 20), gate_uniforms(3, 0, 20)[10:])


class TestDeterminism:
    def test_identical_runs(self):
        cfg = make_cfg()
        _, first = run(cfg)
        _, second = run(cfg)
        assert np.array_equal(first, second)

    def test_chunking_invariance(self):
        cfg = make_cfg(n_gates=5000)
        _, whole = run(cfg)
        for chunk_gates in (777, 1):
            _, chunked = run(cfg, chunk_gates=chunk_gates)
            assert np.array_equal(whole, chunked), chunk_gates

    @settings(max_examples=25)
    @given(st.integers(2, 400), st.data())
    def test_worker_partition_matches_serial(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        cfg = make_cfg(n_gates=n)
        tables = _SamplerTables(cfg)
        serial = _simulate_range(cfg, 0, n, tables)
        merged = np.concatenate(
            [_simulate_range(cfg, 0, k, tables), _simulate_range(cfg, k, n, tables)]
        )
        assert np.array_equal(serial, merged)

    @pytest.mark.parametrize("label", ["single", "indist", "dist", "mix:0.5"])
    @pytest.mark.parametrize(
        "chunk_gates, n_gates", [(1, 1001), (777, 9193), (1 << 13, 9193), (10_000, 9193)]
    )
    def test_pipelined_run_matches_serial(self, label, chunk_gates, n_gates):
        cfg = make_cfg(n_gates=n_gates, source=SourceModel.from_label(label))
        tally, outcomes = run(cfg, chunk_gates=chunk_gates)
        serial = _simulate_range(cfg, 0, n_gates, _SamplerTables(cfg))
        assert outcomes.tobytes() == serial.tobytes()
        assert tally == EventTally.from_counts(np.bincount(serial, minlength=len(Outcome)))


class TestHelperThread:
    def test_gate_uniforms_runs_on_the_caller_one_call_at_a_time(self, monkeypatch):
        import bsqrng.mcsim as mcsim

        inner = mcsim.gate_uniforms
        active, calls = [], []

        def traced(*args):
            # As perfbench's tracer does: a span stack shared by every thread.
            active.append(None)
            calls.append((threading.get_ident(), len(active)))
            try:
                return inner(*args)
            finally:
                active.pop()

        monkeypatch.setattr(mcsim, "gate_uniforms", traced)
        run(make_cfg(n_gates=5000), chunk_gates=777)
        assert calls == [(threading.get_ident(), 1)] * 7

    def test_sampler_error_is_raised_and_the_helper_joined(self, monkeypatch):
        import bsqrng.mcsim as mcsim

        before = threading.enumerate()
        run(make_cfg(n_gates=5000), chunk_gates=777)
        assert threading.enumerate() == before

        class SamplerFault(Exception):
            pass

        inner = mcsim._classify
        calls = []

        def classify(*args):
            calls.append(None)
            if len(calls) == 3:
                raise SamplerFault
            return inner(*args)

        monkeypatch.setattr(mcsim, "_classify", classify)
        with pytest.raises(SamplerFault):
            run(make_cfg(n_gates=5000), chunk_gates=777)
        assert threading.enumerate() == before
        assert len(calls) == 3


class TestTally:
    def test_partition_of_gates(self):
        cfg = make_cfg(n_gates=4321)
        tally, outcomes = run(cfg)
        assert tally.bit0 + tally.bit1 + tally.collision + tally.none == 4321
        assert tally == EventTally.from_counts(np.bincount(outcomes, minlength=4))

    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            EventTally(10, 1, 1, 1, 1)

    def test_text_summary(self):
        tally, _ = run(make_cfg(n_gates=100))
        text = tally.to_text()
        assert "n_gates=100" in text
        assert "p_gen=" in text and "p_disc_stderr=" in text


DYADIC_EDGES = [k / 64 for k in range(64)]
# How a padded cumsum row can end: below, at or just above 1.
ROW_ENDS = [1.0 - 1e-15, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 4e-16]


@st.composite
def cdf_tables(draw):
    """Nondecreasing rows padded with 1.0, as _SamplerTables lays them out."""
    width = draw(st.integers(1, 12))
    n_rows = draw(st.integers(1, 4))
    entry = st.one_of(st.floats(0.0, 0.999), st.sampled_from(DYADIC_EDGES))
    table = np.ones((n_rows, width))
    for r in range(n_rows):
        length = draw(st.integers(1, width))
        body = sorted(draw(st.lists(entry, min_size=length - 1, max_size=length - 1)))
        table[r, :length] = body + [draw(st.sampled_from(ROW_ENDS))]
    return table


DRAWS = 2**53  # a draw x is a 53-bit integer standing for u = x * 2**-53


def reference_lookup(table, rows, x):
    """Clamped searchsorted of the float rows at the draws' uniforms."""
    width = table.shape[1]
    u = x * 2.0**-53
    return np.array(
        [min(np.searchsorted(table[r], v, side="right"), width - 1) for r, v in zip(rows, u)]
    )


def probe_draws(table, n_buckets):
    """Every bucket edge, every entry's threshold, their neighbours, 0 and 2**53 - 1."""
    points = np.concatenate(
        [np.arange(n_buckets) * (DRAWS // n_buckets), _thresholds(table).ravel(), [0]]
    )
    points = np.concatenate([points, points - 1, points + 1, [DRAWS - 1]])
    return np.unique(points[(points >= 0) & (points < DRAWS)])


class TestGuideTable:
    @given(cdf_tables(), st.lists(st.integers(0, DRAWS - 1), max_size=20))
    def test_matches_clamped_searchsorted(self, table, extra):
        guide = _GuideTable(table)
        assert guide.n_buckets >= 2 * table.shape[1]
        assert guide.n_buckets & (guide.n_buckets - 1) == 0
        probes = np.concatenate([probe_draws(table, guide.n_buckets), extra]).astype(np.int64)
        rows = np.repeat(np.arange(table.shape[0]), probes.size)
        x = np.tile(probes, table.shape[0])
        assert np.array_equal(guide.lookup(x, rows), reference_lookup(table, rows, x))

    def test_one_column_table(self):
        guide = _GuideTable(np.array([[0.3], [1.0]]))
        x = np.array([0, _thresholds(0.3), DRAWS // 2, DRAWS - 1])
        assert np.array_equal(guide.lookup(x, np.array([0, 1, 0, 1])), np.zeros(4))

    def test_scalar_row_defaults_to_first(self):
        cdf = np.array([0.25, 0.5, 0.75, 1.0])
        x = np.array([0, DRAWS // 4, DRAWS // 4 - 1, _thresholds(0.6), 3 * DRAWS // 4, DRAWS - 1])
        expected = np.minimum(np.searchsorted(cdf, x * 2.0**-53, "right"), len(cdf) - 1)
        assert np.array_equal(_GuideTable(cdf[None, :]).lookup(x), expected)


def near_dyadic():
    """k * 2**-53 and its float neighbours, plus 0, 1 and values just above 1."""
    def neighbours(k):
        base = k * 2.0**-53
        return st.sampled_from([base, np.nextafter(base, -1.0), np.nextafter(base, 2.0)])

    edges = st.sampled_from([0.0, 1.0, np.nextafter(1.0, 2.0), 1.0 + 4e-16, 1.0 + 2**-40])
    return st.one_of(st.integers(0, DRAWS).flatmap(neighbours), edges, st.floats(0.0, 1.0))


class TestIntegerDraws:
    """Every integer test on a draw x gives the float test's answer at u = x * 2**-53."""

    @given(near_dyadic(), st.data())
    def test_comparisons_match_float(self, p, data):
        k = min(math.floor(p * DRAWS), DRAWS - 1)
        x = np.array(
            [data.draw(st.integers(max(k - 2, 0), min(k + 2, DRAWS - 1))),
             data.draw(st.integers(0, DRAWS - 1)), 0, DRAWS - 1],
            dtype=np.int64,
        )
        u = x * 2.0**-53
        threshold = _thresholds(p)
        # Click (u < p), mixture branch (u >= overlap), scan step (cdf <= u).
        assert np.array_equal(x < threshold, u < p)
        assert np.array_equal(x >= threshold, u >= p)
        assert np.array_equal(threshold <= x, p <= u)

    @given(st.integers(0, DRAWS - 1), st.integers(0, 20))
    def test_bucket_is_floor_of_scaled_uniform(self, x, log2_buckets):
        assert x >> (53 - log2_buckets) == math.floor(x * 2.0**-53 * 2**log2_buckets)


class TestSplitterSampling:
    def test_cold_high_total_builds_in_a_loop(self):
        # A cold total of 600 once recursed once per total and overflowed
        # Python's recursion limit.
        _krawtchouk_rows.cache_clear()
        _interfering_rows.cache_clear()
        assert np.abs(_interfering_rows(600).sum(axis=1) - 1.0).max() <= 1e-13
        # A total below the last one built starts again from total 0.
        assert _krawtchouk_rows(2).tolist() == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]

    @pytest.mark.parametrize("source", [INDIST, SourceModel.distinguishable_pair()],
                             ids=["indist", "dist"])
    def test_top_draw_stays_within_the_input_total(self, source):
        # A row's cumsum can end an ulp or two below 1. The top draw must still
        # land within the input total, or out_n is -1 and indexes a click table.
        tables = _SamplerTables(make_cfg(mu=40.0, source=source))
        k = np.arange(tables.arm_a.width)
        m, n = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
        out = tables.splitter.lookup(np.full(m.size, DRAWS - 1), m * tables.stride + n)
        assert np.all(out <= m + n)

    @pytest.mark.parametrize("label, mu, limit_mb", [("dist", 40.0, 8), ("mix:0.5", 20.0, 24)])
    def test_table_build_peak_memory(self, label, mu, limit_mb):
        # The routed law takes one row per photon total.
        cfg = make_cfg(mu=mu, source=SourceModel.from_label(label))
        _SamplerTables(cfg)  # the splitter rows are cached from here on
        tracemalloc.start()
        try:
            _SamplerTables(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6


class TestAgreementWithAnalytics:
    @pytest.mark.parametrize("mu_eta", [0.5, 1.4, 2.1, 5.0])
    @pytest.mark.parametrize("source", [SINGLE, INDIST], ids=lambda s: s.label)
    def test_within_four_sigma(self, mu_eta, source):
        n = 200_000
        cfg = SimConfig(seed=1234, n_gates=n, mu=mu_eta, source=source)
        tally, _ = run(cfg)
        analytic = outcome_probabilities(
            output_joint_distribution(source, mu_eta, TruncationPolicy(1e-9))
        )
        assert abs(tally.p_gen - analytic.p_gen) < 4 * tally.p_gen_stderr()
        assert abs(tally.p_disc - analytic.p_disc) < 4 * tally.p_disc_stderr()

    def test_bright_interfering_pair(self):
        # At mu 90 the tables reach input totals near 190, where only exact
        # splitter rows keep the sampled law unitary.
        cfg = SimConfig(seed=2024, n_gates=200_000, mu=90.0, source=INDIST)
        tally, _ = run(cfg)
        analytic = outcome_probabilities(
            output_joint_distribution(INDIST, 90.0, TruncationPolicy(1e-12))
        )
        assert abs(tally.p_gen - analytic.p_gen) < 5 * tally.p_gen_stderr()

    def test_vacuum_dominated_limit(self):
        cfg = SimConfig(seed=9, n_gates=10_000, mu=1e-6, source=INDIST)
        tally, _ = run(cfg)
        assert tally.none >= 9990

    def test_lossy_detectors_match_folded_analytics(self):
        cfg = SimConfig(
            seed=77,
            n_gates=200_000,
            mu=4.2,
            source=INDIST,
            detectors=DetectorPair(0.5, 0.5),
        )
        tally, _ = run(cfg)
        analytic = outcome_probabilities(
            output_joint_distribution(INDIST, 2.1, TruncationPolicy(1e-9))
        )
        assert abs(tally.p_gen - analytic.p_gen) < 4 * tally.p_gen_stderr()

    def test_mixture_interpolates_generation(self):
        n = 150_000
        p_gen = {}
        for label in ("dist", "mix:0.5", "indist"):
            cfg = SimConfig(seed=31, n_gates=n, mu=2.1, source=SourceModel.from_label(label))
            tally, _ = run(cfg)
            p_gen[label] = tally.p_gen
        assert p_gen["dist"] < p_gen["mix:0.5"] < p_gen["indist"]


class TestRunInterface:
    def test_outcome_codes_match_wire_format(self):
        assert Outcome.NONE == 0x00
        assert Outcome.BIT0 == 0x01
        assert Outcome.BIT1 == 0x02
        assert Outcome.COLLISION == 0x03

    def test_memory_budget(self, monkeypatch):
        import bsqrng.mcsim as mcsim

        def no_tables(cfg):
            raise AssertionError("tables built before the gate limit was checked")

        monkeypatch.setattr(mcsim, "_SamplerTables", no_tables)
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError, match=str(MAX_GATES)) as info:
                run(make_cfg(n_gates=MAX_GATES + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The outcome array alone would take 256 MB.
        assert peak < 1 << 20
        assert "sink" not in str(info.value)

    @pytest.mark.parametrize("chunk_gates", [-4, 0])
    def test_non_positive_chunk_gates_refused_before_any_table(self, monkeypatch, chunk_gates):
        import bsqrng.mcsim as mcsim

        def no_tables(cfg):
            raise AssertionError("tables built before chunk_gates was checked")

        monkeypatch.setattr(mcsim, "_SamplerTables", no_tables)
        with pytest.raises(ValueError, match=f"chunk_gates must be at least 1, got {chunk_gates}"):
            run(make_cfg(), chunk_gates=chunk_gates)

    @pytest.mark.parametrize("mu", [1000.0, 1e12])
    def test_photon_total_cap_checked_before_any_table(self, monkeypatch, mu):
        import bsqrng.mcsim as mcsim

        def no_tables(*args, **kwargs):
            raise AssertionError("tables built before the photon total was checked")

        monkeypatch.setattr(mcsim, "_GuideTable", no_tables)
        monkeypatch.setattr(mcsim, "_interfering_rows", no_tables)
        with pytest.raises(OverflowError, match=str(MAX_TABLE_TOTAL)) as info:
            run(make_cfg(mu=mu))
        assert f"mu {mu:g}" in str(info.value)

    @pytest.mark.parametrize("source", [SINGLE, INDIST], ids=lambda s: s.label)
    def test_photon_total_refusal_is_monotone_in_mu(self, monkeypatch, source):
        import bsqrng.mcsim as mcsim

        class Accepted(Exception):
            pass

        def accepted(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr(mcsim, "_GuideTable", accepted)
        refused = []
        for mu in np.arange(100.0, 160.25, 0.5):
            try:
                _SamplerTables(make_cfg(mu=float(mu), source=source))
            except OverflowError:
                refused.append(True)
            except Accepted:
                refused.append(False)
        # Once a mu is refused, every brighter one is refused too.
        assert refused == sorted(refused)
        assert not refused[0] and refused[-1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_cfg(n_gates=0)
        with pytest.raises(ValueError):
            make_cfg(mu=0.0)
        with pytest.raises(ValueError):
            make_cfg(gate_rate=0.0)
