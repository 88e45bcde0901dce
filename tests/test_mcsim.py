"""Simulator determinism, stream partitioning and agreement with the analytics."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsqrng import mcsim
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
    _classify,
    _thresholds,
    gate_uniforms,
    run,
)
from bsqrng.special import poisson_cdf

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
        serial = _classify(cfg, gate_uniforms(cfg.seed, 0, n), tables)
        merged = np.concatenate([
            _classify(cfg, gate_uniforms(cfg.seed, 0, k), tables),
            _classify(cfg, gate_uniforms(cfg.seed, k, n), tables),
        ])
        assert np.array_equal(serial, merged)

    @pytest.mark.parametrize("label", ["single", "indist", "dist", "mix:0.5"])
    @pytest.mark.parametrize(
        "chunk_gates, n_gates", [(1, 1001), (777, 9193), (1 << 13, 9193), (10_000, 9193)]
    )
    def test_pipelined_run_matches_serial(self, label, chunk_gates, n_gates):
        cfg = make_cfg(n_gates=n_gates, source=SourceModel.from_label(label))
        tally, outcomes = run(cfg, chunk_gates=chunk_gates)
        serial = _classify(cfg, gate_uniforms(cfg.seed, 0, n_gates), _SamplerTables(cfg))
        assert outcomes.tobytes() == serial.tobytes()
        assert tally == EventTally.from_counts(np.bincount(serial, minlength=len(Outcome)))


class TestHelperThread:
    def test_gate_uniforms_runs_on_the_caller_one_call_at_a_time(self, monkeypatch):
        import bsqrng.mcsim as mcsim

        inner = mcsim.gate_uniforms
        active, calls = [], []
        caller_drew = threading.Event()

        def traced(*args):
            # As perfbench's tracer does: a span stack shared by every thread.
            active.append(None)
            calls.append((threading.get_ident(), len(active)))
            try:
                return inner(*args)
            finally:
                active.pop()
                caller_drew.set()

        def worker_words(*args):
            # Holds the worker back until the caller has drawn a chunk, so
            # that a busy machine cannot leave the caller none.
            caller_drew.wait(timeout=60)
            return inner(*args)

        monkeypatch.setattr(mcsim, "gate_uniforms", traced)
        monkeypatch.setattr(mcsim, "_worker_gate_uniforms", worker_words)
        run(make_cfg(n_gates=5000), chunk_gates=777)
        # The worker draws the other chunks through its own binding.
        assert calls and set(calls) == {(threading.get_ident(), 1)}

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

    def test_caller_error_is_raised_and_the_worker_stops(self, monkeypatch):
        import bsqrng.mcsim as mcsim

        before = threading.enumerate()

        class PhiloxFault(Exception):
            pass

        inner_words, inner_classify = mcsim.gate_uniforms, mcsim._classify
        sampled = []
        caller_failed = threading.Event()

        def words(*args):
            caller_failed.set()
            raise PhiloxFault

        def worker_words(*args):
            caller_failed.wait(timeout=60)
            return inner_words(*args)

        def classify(*args):
            codes = inner_classify(*args)
            sampled.append(len(codes))
            return codes

        monkeypatch.setattr(mcsim, "gate_uniforms", words)
        monkeypatch.setattr(mcsim, "_worker_gate_uniforms", worker_words)
        monkeypatch.setattr(mcsim, "_classify", classify)
        with pytest.raises(PhiloxFault):
            run(make_cfg(n_gates=5000), chunk_gates=777)
        assert threading.enumerate() == before
        # The caller's chunk was never classified.
        assert sum(sampled) < 5000

    def test_worker_base_exception_is_raised_and_the_caller_stops(self, monkeypatch):
        import bsqrng.mcsim as mcsim

        before = threading.enumerate()

        class Abort(BaseException):
            pass

        inner = mcsim._classify
        calls = []
        worker_failed = threading.Event()

        def classify(*args):
            calls.append(None)
            if threading.current_thread() is not threading.main_thread():
                worker_failed.set()
                raise Abort
            worker_failed.wait(timeout=60)
            return inner(*args)

        monkeypatch.setattr(mcsim, "_classify", classify)
        with pytest.raises(Abort):
            run(make_cfg(n_gates=200_000), chunk_gates=1)
        assert threading.enumerate() == before
        # The caller stopped at its next chunk, not after 200 000 of them.
        assert len(calls) < 1000


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
        summary = tally.summary()
        assert summary["n_gates"] == "100"
        assert "p_gen" in summary and "p_disc_stderr" in summary


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
    u = x * 2.0**-53
    out = np.empty(len(x), dtype=np.int64)
    for r in range(table.shape[0]):
        here = rows == r
        out[here] = np.searchsorted(table[r], u[here], side="right")
    return np.minimum(out, table.shape[1] - 1)


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
        n_rows, width = table.shape
        assert guide.n_buckets >= 2 * width
        assert guide.n_buckets & (guide.n_buckets - 1) == 0
        # The most buckets within 2**12 guide entries, unless the width needs more.
        if guide.n_buckets != 1 << (2 * width - 1).bit_length():
            assert n_rows * guide.n_buckets <= 2**12 < 2 * n_rows * guide.n_buckets
        probes = np.concatenate([probe_draws(table, guide.n_buckets), extra]).astype(np.int64)
        rows = np.repeat(np.arange(table.shape[0]), probes.size)
        x = np.tile(probes, table.shape[0])
        assert np.array_equal(guide.lookup(x, rows), reference_lookup(table, rows, x))

    def test_one_column_table(self):
        guide = _GuideTable(np.array([[0.3], [1.0]]))
        x = np.array([0, _thresholds(0.3), DRAWS // 2, DRAWS - 1])
        assert np.array_equal(guide.lookup(x, np.array([0, 1, 0, 1])), np.zeros(4))

    @pytest.mark.parametrize("label, mu", [("indist", 2.1), ("mix:0.5", 8.0), ("single", 149.5)])
    def test_arm_table_matches_clamped_searchsorted(self, label, mu, monkeypatch):
        built = []

        def recording(cdf_rows):
            built.append(cdf_rows)
            return _GuideTable(cdf_rows)

        monkeypatch.setattr(mcsim, "_GuideTable", recording)
        arm = _SamplerTables(make_cfg(mu=mu, source=SourceModel.from_label(label))).arm_a
        cdf = built[0]
        assert cdf.shape == (1, arm.width) and arm.n_buckets == 2**12
        x = probe_draws(cdf, arm.n_buckets).astype(np.int64)
        rows = np.zeros(x.size, dtype=np.int64)
        assert np.array_equal(arm.lookup(x), reference_lookup(cdf, rows, x))

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


def reference_classify(cfg, words, tables):
    """The sampler as first written: one draw slot, one lookup at a time."""

    def draws(slot):
        return (words[:, slot] >> 11).view(np.int64)

    m = tables.arm_a.lookup(draws(0))
    n = 0 if tables.arm_b is None else tables.arm_b.lookup(draws(1))
    rows = m * tables.stride + n
    if 0.0 < cfg.source.overlap < 1.0:
        routed = draws(2) >= tables.routed
        np.copyto(rows, m + n + tables.routed_offset, where=routed)
    out_m = tables.splitter.lookup(draws(3), rows)
    out_n = m + n - out_m
    click0 = draws(4) < tables.click0[out_m]
    click1 = draws(5) < tables.click1[out_n]
    return click0.view(np.uint8) | (click1.view(np.uint8) << 1)


class TestClassify:
    @pytest.mark.parametrize("label", ["single", "indist", "dist", "mix:0.5", "mix:0.9"])
    def test_matches_slot_by_slot_reference(self, label):
        cfg = make_cfg(mu=8.0, source=SourceModel.from_label(label),
                       detectors=DetectorPair(0.3, 0.9))
        tables = _SamplerTables(cfg)
        for start, stop in [(0, 3 * 8192 + 5), (11, 12)]:
            words = gate_uniforms(7, start, stop)
            kept = words.copy()
            codes = _classify(cfg, words, tables)
            assert codes.dtype == np.uint8
            assert codes.tobytes() == reference_classify(cfg, words, tables).tobytes()
            assert np.array_equal(words, kept)


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


class TestInterferenceWeight:
    """The endpoints w = 0 and 1 of a mixture are the named pairs, table for table."""

    @pytest.mark.parametrize("mixture, named", [("mix:0", "dist"), ("mix:1", "indist")])
    @pytest.mark.parametrize("mu, eta0, eta1", [(2.1, 1.0, 1.0), (40.0, 0.3, 0.9)])
    def test_endpoint_outcomes_are_byte_identical(self, mixture, named, mu, eta0, eta1):
        outcomes = []
        for label in (mixture, named):
            cfg = make_cfg(n_gates=20_000, seed=3, mu=mu, source=SourceModel.from_label(label),
                           detectors=DetectorPair(eta0, eta1))
            outcomes.append(run(cfg)[1].tobytes())
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("label, unused", [
        ("mix:0", "_interfering_rows"),
        ("dist", "_interfering_rows"),
        ("single", "_interfering_rows"),
        ("mix:1", "_binomial_row"),
        ("indist", "_binomial_row"),
    ])
    def test_builds_only_the_rows_the_weight_uses(self, label, unused, monkeypatch):
        import bsqrng.mcsim as mcsim

        def refuse(*args):
            raise AssertionError(f"{label} built {unused} rows")

        monkeypatch.setattr(mcsim, unused, refuse)
        _SamplerTables(make_cfg(mu=40.0, source=SourceModel.from_label(label)))


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

    @pytest.fixture
    def refuses(self, monkeypatch):
        """Whether ``_SamplerTables`` refuses a mu, with no table built either way."""

        class Accepted(Exception):
            pass

        def accepted(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr(mcsim, "_GuideTable", accepted)

        def refuses(mu, source):
            try:
                _SamplerTables(make_cfg(mu=float(mu), source=source))
            except OverflowError:
                return True
            except Accepted:
                return False

        return refuses

    @pytest.mark.parametrize("source", [SINGLE, INDIST], ids=lambda s: s.label)
    def test_photon_total_refusal_is_monotone_in_mu(self, refuses, source):
        refused = [refuses(mu, source) for mu in np.arange(100.0, 160.25, 0.5)]
        # Once a mu is refused, every brighter one is refused too.
        assert refused == sorted(refused)
        assert not refused[0] and refused[-1]

    @pytest.mark.parametrize(
        "label, last_accepted",
        [("single", 149.5), ("dist", 116.5), ("indist", 116.5), ("mix:0.5", 116.5)],
    )
    def test_photon_total_refusal_threshold(self, refuses, label, last_accepted):
        # The README's thresholds on a 0.25 grid of mu.
        source = SourceModel.from_label(label)
        assert not refuses(last_accepted, source)
        assert refuses(last_accepted + 0.25, source)

    @pytest.mark.parametrize("source", [SINGLE, INDIST], ids=lambda s: s.label)
    def test_photon_total_refusal_is_the_poisson_tail_rule(self, refuses, source):
        # Refused exactly when the arm's share of the cap holds less than all
        # but 1e-15 of the arm's Poisson law, around and past that share.
        arms = 1 if source is SINGLE else 2
        cap_arm = MAX_TABLE_TOTAL // arms
        means = np.concatenate([
            np.linspace(0.3 * cap_arm, 1.05 * cap_arm, 1000),
            np.geomspace(1e-6, 1e4, 50),
        ])
        for mean in means:
            expected = poisson_cdf(cap_arm, mean) < 1.0 - 1e-15
            assert refuses(mean * arms, source) == expected, mean

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_cfg(n_gates=0)
        with pytest.raises(ValueError):
            make_cfg(mu=0.0)
        with pytest.raises(ValueError):
            make_cfg(gate_rate=0.0)
