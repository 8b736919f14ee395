import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest

from biosketch import evaluate, pipeline
from biosketch.errors import InsufficientDataError, UnsupportedSymbolSizeError
from biosketch.evaluate import (
    PrivacyReport,
    SCENARIO_STOLEN_KEY,
    SCENARIO_ZERO_EFFORT,
    empirical_far,
    far_analytic,
    gar,
    gar_stats,
    gs_curve_csv,
    params_for_security,
    privacy_report,
    run_gs_curve,
)
from biosketch.pipeline import PipelineConfig
from biosketch.synth import gen_population


@pytest.fixture(scope="module")
def small_dataset():
    return gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)


SMALL_CFG = PipelineConfig(m=3, k_symbols=1, out_dim=64, seed=5)


class TestParamsForSecurity:
    @pytest.mark.parametrize("m,security,k,rate", [
        (5, 100, 20, 100 / 155),
        (6, 53, 9, 54 / 378),
        (7, 100, 14, 98 / 889),
        (6, 80, 13, 78 / 378),
    ])
    def test_plans(self, m, security, k, rate):
        plan = params_for_security(m, security)
        assert plan.k_symbols == k
        assert plan.rate == pytest.approx(rate)
        assert plan.security_bits == k * m
        assert plan.nominal_security == security

    def test_full_rate_boundary(self):
        plan = params_for_security(3, 21)
        assert plan.k_symbols == plan.n_symbols == 7
        assert plan.rate == 1.0
        assert plan.t == 0

    def test_security_too_high(self):
        with pytest.raises(ValueError):
            params_for_security(3, 22)
        with pytest.raises(ValueError):
            params_for_security(5, 0)

    @pytest.mark.parametrize("m", [1, 11, 40])
    def test_unsupported_symbol_size(self, m):
        with pytest.raises(UnsupportedSymbolSizeError):
            params_for_security(m, 5)

    def test_lengths_per_symbol_size(self):
        for m, n_bits in ((5, 155), (6, 378), (7, 889)):
            plan = params_for_security(m, 10)
            assert plan.n_bits == n_bits
            assert plan.n_symbols == (1 << m) - 1


class TestFarAnalytic:
    def test_halves_per_bit(self):
        for k in (1, 10, 100, 500):
            assert far_analytic(k + 1) / far_analytic(k) == pytest.approx(0.5)

    def test_k_equals_n_value(self):
        assert far_analytic(21) == 2.0 ** -21

    def test_underflow_documented(self):
        assert far_analytic(3000) == 0.0

    def test_negative_bits_beyond_float_range_raise(self):
        assert far_analytic(-1023) == 2.0 ** 1023
        with pytest.raises(OverflowError):
            far_analytic(-1024)


class TestGar:
    def test_zero_noise_perfect(self):
        ds = gen_population(5, 6, 16, 16, 1.0, 0.0, seed=3)
        assert gar(ds, SMALL_CFG) == 1.0

    @pytest.mark.parametrize("scheme,policy", [
        ("secure-sketch", "fallback"),
        ("fuzzy-commitment", "fallback"),
        ("fuzzy-commitment", "fail-deny"),
    ])
    def test_enrollment_probe_is_always_accepted(self, small_dataset, scheme, policy):
        cfg = PipelineConfig(m=3, k_symbols=2, scheme=scheme, policy=policy,
                             out_dim=64, seed=5)
        assert gar(small_dataset, cfg, probe_mode="enroll") == 1.0

    def test_fail_deny_ss_excludes_unenrollable(self):
        ds = gen_population(10, 8, 8, 8, 1.0, 0.1, seed=3)
        cfg = PipelineConfig(m=2, k_symbols=1, policy="fail-deny", out_dim=12, seed=5)
        st = gar_stats(ds, cfg, probe_mode="enroll")
        assert st.unenrollable > 0
        assert st.enrolled + st.unenrollable == 10
        assert st.rate == 1.0

    def test_partially_enrollable_fail_deny_pinned(self):
        # Recorded before enrollment was batched: 4 of 12 subjects cannot
        # be enrolled at K=27, and the other 8 are probed and decided.
        ds = gen_population(12, 8, 16, 16, 1.0, 0.05, seed=42)
        cfg = PipelineConfig(m=5, k_symbols=27, policy="fail-deny", out_dim=256, seed=9)
        assert gar_stats(ds, cfg) == evaluate.GarResult(
            rate=0.03125, accepted=1, probed=32, enrolled=8, unenrollable=4)

    def test_stats_add_up(self, small_dataset):
        st = gar_stats(small_dataset, SMALL_CFG)
        assert 0.0 <= st.rate <= 1.0
        assert st.accepted <= st.probed
        # 8 samples: 4 enroll + 4 heldout per subject
        assert st.probed == 6 * 4

    def test_deterministic(self, small_dataset):
        assert gar_stats(small_dataset, SMALL_CFG) == gar_stats(small_dataset, SMALL_CFG)

    def test_probe_mode_validated(self, small_dataset):
        with pytest.raises(ValueError):
            gar(small_dataset, SMALL_CFG, probe_mode="banana")


class TestEmpiricalFar:
    def test_stolen_key_uniform_matches_analytic(self, small_dataset):
        trials = 30_000
        rate = empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY,
                             trials, seed=1)
        expect = 2.0 ** -3
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(rate - expect) <= 3 * sigma

    def test_zero_effort_runs(self, small_dataset):
        rate = empirical_far(small_dataset, SMALL_CFG, SCENARIO_ZERO_EFFORT,
                             500, seed=2)
        assert 0.0 <= rate <= 1.0

    def test_dataset_impostor_bits(self, small_dataset):
        rate = empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY,
                             500, seed=3, impostor_bits="dataset")
        assert 0.0 <= rate <= 1.0

    def test_zero_trials_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 0, seed=1)

    def test_numpy_integer_trials(self, small_dataset):
        rate = empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 300, seed=1)
        assert empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY,
                             np.int64(300), seed=1) == rate

    def test_one_subject_rejected(self):
        ds = gen_population(1, 8, 16, 16, 1.0, 0.2, seed=4)
        with pytest.raises(InsufficientDataError):
            empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 100, seed=1)

    def test_unknown_scenario(self, small_dataset):
        with pytest.raises(ValueError):
            empirical_far(small_dataset, SMALL_CFG, "replay", 100, seed=1)

    def test_deterministic(self, small_dataset):
        a = empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 300, seed=9)
        b = empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 300, seed=9)
        assert a == b

    @pytest.mark.parametrize("scheme", ["secure-sketch", "fuzzy-commitment"])
    def test_rates_do_not_depend_on_block_size(self, scheme, monkeypatch):
        # A block of 7 trials against 6 victims starts on a different
        # victim each time, so every trial must still meet its own victim.
        ds = gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)
        cfg = PipelineConfig(m=3, k_symbols=1, scheme=scheme, out_dim=256, seed=5)
        scenarios = TestFarDeterminism.SCENARIOS

        def rates():
            return [empirical_far(ds, cfg, scenario, 500, seed=17, impostor_bits=bits)
                    for scenario, bits in scenarios]

        default = rates()
        monkeypatch.setattr(evaluate, "_FAR_BLOCK", 7)
        assert rates() == default
        assert all(default)


class TestUniformBitRows:
    """The one-call uniform draw must be the per-trial draw it replaces.

    It relies on how numpy draws bounded uint8s (top bit of each byte of
    buffered uint32s); if numpy changes that method, this fails loudly."""

    @pytest.mark.parametrize("n_bits", [21, 155, 378, 2040])
    @pytest.mark.parametrize("rows", [1, 3, 50])
    def test_equals_per_trial_draws(self, n_bits, rows):
        loop_rng, block_rng = np.random.default_rng(17), np.random.default_rng(17)
        # One odd-length draw first, so the block does not start word-aligned
        # in the generator's 64-bit output.
        for rng in (loop_rng, block_rng):
            rng.integers(0, 2, size=5, dtype=np.uint8)
        loop = np.stack([loop_rng.integers(0, 2, size=n_bits, dtype=np.uint8)
                         for _ in range(rows)])
        block = evaluate._uniform_bit_rows(block_rng, rows, n_bits)
        assert block.shape == (rows, n_bits) and block.dtype == np.uint8
        assert np.array_equal(block, loop)
        assert block_rng.integers(1 << 62, size=4).tolist() == \
            loop_rng.integers(1 << 62, size=4).tolist()


class TestFarDeterminism:
    """Rates of the scalar per-trial loop, recorded before FAR trials were
    batched per victim (dataset seed 42, out_dim 256, config seed 5,
    trial seed 17, 2000 trials). The batched path must return these exact
    floats: it draws the same probes in the same order and decides each
    one as ``authenticate`` does."""

    SCENARIOS = [
        (SCENARIO_STOLEN_KEY, "uniform"),
        (SCENARIO_STOLEN_KEY, "dataset"),
        (SCENARIO_ZERO_EFFORT, "uniform"),
    ]
    EXPECTED = {
        (1, "secure-sketch", "fallback"): (0.116, 0.043, 0.4135),
        (1, "secure-sketch", "fail-deny"): (0.009, 0.0, 0.514),
        (1, "fuzzy-commitment", "fallback"): (0.1205, 0.017, 0.207),
        (1, "fuzzy-commitment", "fail-deny"): (0.003, 0.0, 0.0705),
        (2, "secure-sketch", "fallback"): (0.013, 0.0, 0.0705),
        (2, "fuzzy-commitment", "fail-deny"): (0.0005, 0.0, 0.0),
        (3, "secure-sketch", "fallback"): (0.0005, 0.0, 0.0705),
        (3, "fuzzy-commitment", "fallback"): (0.0015, 0.0, 0.0),
    }

    @pytest.mark.parametrize("k,scheme,policy", sorted(EXPECTED))
    def test_recorded_rates(self, k, scheme, policy):
        ds = gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)
        cfg = PipelineConfig(m=3, k_symbols=k, scheme=scheme, policy=policy,
                             out_dim=256, seed=5)
        rates = tuple(
            empirical_far(ds, cfg, scenario, 2000, seed=17, impostor_bits=bits)
            for scenario, bits in self.SCENARIOS
        )
        assert rates == self.EXPECTED[(k, scheme, policy)]


class TestGsCurve:
    def test_far_analytic_column(self, small_dataset):
        points = run_gs_curve(small_dataset, SMALL_CFG, [1, 2, 7])
        assert [p.security_bits for p in points] == [3, 6, 21]
        assert points[-1].far_analytic == 2.0 ** -21  # K = N
        for a, b in zip(points, points[1:]):
            ratio = b.far_analytic / a.far_analytic
            assert ratio == pytest.approx(2.0 ** -(b.security_bits - a.security_bits))

    def test_csv_layout(self, small_dataset):
        points = run_gs_curve(small_dataset, SMALL_CFG, [2], far_trials=200)
        text = gs_curve_csv(points)
        lines = text.strip().splitlines()
        assert lines[0] == ("m,K,security_bits,rate,gar,far_analytic,"
                            "far_empirical,scheme,policy,scenario")
        fields = lines[1].split(",")
        assert fields[0] == "3" and fields[1] == "2" and fields[2] == "6"
        assert fields[7] == "secure-sketch"

    def test_byte_identical_across_runs(self, small_dataset):
        runs = [
            gs_curve_csv(run_gs_curve(small_dataset, SMALL_CFG, [1, 2], far_trials=300))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_empty_far_column_without_trials(self, small_dataset):
        text = gs_curve_csv(run_gs_curve(small_dataset, SMALL_CFG, [1]))
        assert ",,secure-sketch" in text.splitlines()[1]

    def test_unseeded_sweep_is_one_system(self):
        # Every K point of one sweep, FAR included, runs under one drawn
        # seed, so repeated K values give repeated points.
        ds = gen_population(10, 8, 16, 16, 1.0, 0.5, seed=3)
        cfg = PipelineConfig(m=3, k_symbols=2, out_dim=64, seed=None)
        points = run_gs_curve(ds, cfg, [2, 2, 2], far_trials=400)
        assert len({(p.gar, p.far_empirical) for p in points}) == 1


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo of the K-invariant population."""
    monkeypatch.setattr(evaluate, "_fuse_memo", None)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(evaluate, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluate, name, counted)
    return calls


@pytest.fixture
def fusions(monkeypatch, cold_memo):
    """The ``fuse_dataset`` calls made from a cold memo."""
    return _count_calls(monkeypatch, "fuse_dataset")


@pytest.fixture
def enrollments(monkeypatch, cold_memo):
    """The ``enroll_batch`` calls made from a cold memo."""
    return _count_calls(monkeypatch, "enroll_batch")


class TestFusionCount:
    """Fusion does not depend on K: a sweep fuses the population once, and
    calls under one seeded config share one fusion."""

    def test_sweep_fuses_once(self, small_dataset, fusions):
        run_gs_curve(small_dataset, SMALL_CFG, [1, 2, 3], far_trials=200)
        assert len(fusions) == 1

    def test_direct_calls_fuse_once_each(self, small_dataset, fusions):
        gar_stats(small_dataset, SMALL_CFG)
        assert len(fusions) == 1
        empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 200, seed=1)
        assert len(fusions) == 1

    @pytest.mark.parametrize("call", [
        lambda ds: run_gs_curve(ds, SMALL_CFG, [1, 2], scenario="replay", far_trials=100),
        lambda ds: gar_stats(ds, SMALL_CFG, probe_mode="banana"),
        lambda ds: empirical_far(ds, SMALL_CFG, "replay", 100, seed=1),
        lambda ds: run_gs_curve(ds, SMALL_CFG, [1, 2], scenario="replay"),
        lambda ds: run_gs_curve(ds, SMALL_CFG, [1, 2], far_trials=0),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 2.5, seed=1),
        lambda ds: run_gs_curve(ds, SMALL_CFG, [1, 2], far_trials=2.5),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, True, seed=1),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 100, seed=1,
                                 impostor_bits="zeros"),
        lambda ds: run_gs_curve(ds, SMALL_CFG, [1, 99]),
        lambda ds: run_gs_curve(ds, SMALL_CFG, [1.5]),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 100, seed=2.9),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 100, seed="7"),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 100, seed=True),
        lambda ds: empirical_far(ds, SMALL_CFG, SCENARIO_STOLEN_KEY, 100, seed=-5),
        lambda ds: gar_stats(ds, dataclasses.replace(SMALL_CFG, seed=2.9)),
        lambda ds: run_gs_curve(ds, dataclasses.replace(SMALL_CFG, seed=-5), [1]),
    ], ids=["sweep-scenario", "gar-probe-mode", "far-scenario",
            "sweep-scenario-without-far", "sweep-zero-trials", "far-fractional-trials",
            "sweep-fractional-trials", "far-bool-trials", "far-impostor-bits",
            "sweep-k-out-of-range", "sweep-fractional-k", "far-fractional-seed",
            "far-string-seed", "far-bool-seed", "far-negative-seed", "gar-fractional-seed",
            "sweep-negative-seed"])
    def test_bad_arguments_raise_before_fusion(self, small_dataset, fusions, call):
        with pytest.raises(ValueError):
            call(small_dataset)
        assert fusions == []

    @pytest.mark.parametrize("k", [0, 8, -1, 1.5, 2.0, True, "2", None])
    def test_bad_k_raises_the_rs_code_message_before_fusion(self, small_dataset, fusions, k):
        # Every entry point refuses a K that RsCode would refuse at m = 3,
        # and a K that is not an integer, before any fusion.
        bad = dataclasses.replace(SMALL_CFG, k_symbols=k)
        calls = [lambda: run_gs_curve(small_dataset, SMALL_CFG, [1, k], far_trials=100),
                 lambda: gar_stats(small_dataset, bad),
                 lambda: empirical_far(small_dataset, bad, SCENARIO_STOLEN_KEY, 100, seed=1)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"K must be in 1..7, got {k}")):
                call()
        assert fusions == []

    def test_numpy_integer_k_gives_the_int_points(self, small_dataset):
        points = run_gs_curve(small_dataset, SMALL_CFG, np.array([1, 2]), far_trials=100)
        assert points == run_gs_curve(small_dataset, SMALL_CFG, [1, 2], far_trials=100)
        assert [type(p.k_symbols) for p in points] == [int, int]


class TestSeed:
    """A seed is None or a non-negative integer: nothing else is truncated,
    parsed or left for numpy to refuse."""

    @pytest.mark.parametrize("seed", [2.9, "7", True, False, -5, np.float64(3.0), np.int64(-1)])
    def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be None or a non-negative integer, got {seed!r}")):
            PipelineConfig(seed=seed)

    def test_numpy_integer_seed_is_the_int_seed(self, small_dataset):
        cfg = dataclasses.replace(SMALL_CFG, seed=np.uint32(5))
        assert type(cfg.seed) is int and cfg == SMALL_CFG
        assert gar_stats(small_dataset, cfg) == gar_stats(small_dataset, SMALL_CFG)
        assert (empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 300, seed=np.int64(3))
                == empirical_far(small_dataset, SMALL_CFG, SCENARIO_STOLEN_KEY, 300, seed=3))


class TestProbeGather:
    """The population's one gather, against ``probe_bits`` on rows of
    ``fuse_dataset`` under ``population_from_fused`` medians; and its r_a,
    the ``enroll``-mode probe, against ``probe_bits`` of the enrollment-half
    mean."""

    @pytest.fixture(params=[(3, "fca"), (3, "bla"), (5, "fca"), (5, "bla")],
                    ids=["m3-fca", "m3-bla", "m5-fca", "m5-bla"])
    def world(self, request, small_dataset):
        m, mode = request.param
        cfg = PipelineConfig(m=m, k_symbols=2, fusion_mode=mode, out_dim=192, seed=9)
        population = evaluate._Population(small_dataset, cfg)
        fused = pipeline.fuse_dataset(
            small_dataset, pipeline.build_weights(cfg, small_dataset.d_face, small_dataset.d_iris))
        pop = pipeline.population_from_fused(fused)
        assert np.array_equal(population.pop.median, pop.median)
        return population, population.enrolled(cfg)[1], fused, pop

    def test_held_out_rows_gather_as_probe_bits(self, world):
        population, enrollments, fused, pop = world
        rows, owners, expected = [], [], []
        for owner, (sid, enr) in enumerate(enrollments.items()):
            cut = pipeline.enroll_split(len(fused[sid]))
            rows.extend(population.rows[sid][cut:])
            owners.extend([owner] * (len(fused[sid]) - cut))
            expected.append(pipeline.probe_bits(fused[sid][cut:], pop, enr.key))
        got = population.probes(np.array(rows), np.array(owners), enrollments)
        assert np.array_equal(got, np.concatenate(expected))

    def test_mixed_owner_gather_as_probe_bits(self, world):
        population, enrollments, fused, pop = world
        keys = [enr.key for enr in enrollments.values()]
        sample_of = {row: (sid, i) for sid, rows in population.rows.items()
                     for i, row in enumerate(rows)}
        rng = np.random.default_rng(4)
        rows = rng.integers(len(population.bits), size=200)
        owners = rng.integers(len(keys), size=200)
        expected = [pipeline.probe_bits(fused[sid][i], pop, keys[owner])
                    for (sid, i), owner in zip(map(sample_of.get, rows.tolist()), owners)]
        assert np.array_equal(population.probes(rows, owners, enrollments), np.array(expected))

    def test_r_a_is_probe_bits_of_the_enrollment_mean(self, world):
        population, enrollments, fused, pop = world
        for sid, (key, r_a, _, _) in population.selections.items():
            half = fused[sid][:pipeline.enroll_split(len(fused[sid]))]
            assert np.array_equal(r_a, pipeline.probe_bits(half.mean(axis=0), pop, key))
        assert all(enr.template_bits is population.selections[sid][1]
                   for sid, enr in enrollments.items())


class TestSelectionCount:
    """Key selection does not depend on K: a sweep selects once per subject."""

    def test_sweep_selects_once_per_subject(self, monkeypatch, cold_memo):
        ds = gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)
        cfg = PipelineConfig(m=5, k_symbols=11, out_dim=256, seed=5)
        calls = []
        original = pipeline.select_reliable

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "select_reliable", counted)
        points = run_gs_curve(ds, cfg, [11, 16, 20])
        assert len(points) == 3
        assert len(calls) == ds.n_subjects


# Each entry point, and another call that warms the memo for it.
MEMO_CALLS = {
    "gar_stats": lambda ds, cfg: gar_stats(ds, cfg),
    "empirical_far": lambda ds, cfg: [
        empirical_far(ds, cfg, scenario, 300, seed=17, impostor_bits=bits)
        for scenario, bits in TestFarDeterminism.SCENARIOS],
    "run_gs_curve": lambda ds, cfg: run_gs_curve(ds, cfg, [1, 2], far_trials=300),
}
MEMO_WARMERS = {"gar_stats": "run_gs_curve", "empirical_far": "gar_stats",
                "run_gs_curve": "empirical_far"}


class TestFuseMemo:
    """The K-invariant population is reused across calls exactly when the
    dataset content and the config fields a ``_Population`` reads are unchanged."""

    def test_every_config_field_is_keyed_or_per_k(self):
        # A new PipelineConfig field fails here until it is classified.
        per_k = set(evaluate._PER_K_FIELDS)
        keyed = set(evaluate._FUSE_FIELDS)
        assert not keyed & per_k
        assert {f.name for f in dataclasses.fields(PipelineConfig)} == keyed | per_k

    @pytest.mark.parametrize("change", [
        dict(k_symbols=7), dict(scheme="fuzzy-commitment"), dict(policy="fail-deny"),
    ], ids=["k", "scheme", "policy"])
    def test_per_k_fields_do_not_change_the_population(self, small_dataset, change):
        base = evaluate._Population(small_dataset, SMALL_CFG)
        other = evaluate._Population(small_dataset, dataclasses.replace(SMALL_CFG, **change))
        pop, selections, pop2, selections2 = base.pop, base.selections, other.pop, other.selections
        assert list(base.rows.items()) == list(other.rows.items())
        assert np.array_equal(base.bits, other.bits)
        assert np.array_equal(pop.median, pop2.median)
        assert list(selections) == list(selections2)
        for (key, r_a, salt, seed), (key2, r_a2, salt2, seed2) in zip(
                selections.values(), selections2.values()):
            assert (key, salt, seed) == (key2, salt2, seed2)
            assert np.array_equal(r_a, r_a2)

    @pytest.mark.parametrize("entry", sorted(MEMO_CALLS))
    def test_warm_memo_gives_the_cold_result(self, entry, small_dataset, fusions, monkeypatch):
        cold = MEMO_CALLS[entry](small_dataset, SMALL_CFG)
        monkeypatch.setattr(evaluate, "_fuse_memo", None)
        MEMO_CALLS[MEMO_WARMERS[entry]](small_dataset, dataclasses.replace(SMALL_CFG, k_symbols=2))
        assert MEMO_CALLS[entry](small_dataset, SMALL_CFG) == cold
        assert len(fusions) == 2

    @pytest.mark.parametrize("entry", sorted(MEMO_CALLS))
    def test_in_place_edit_recomputes(self, entry, fusions, monkeypatch):
        ds = gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)
        MEMO_CALLS[entry](ds, SMALL_CFG)
        ds.iris[ds.subject_ids[2]][3, 5] += 0.5
        edited = MEMO_CALLS[entry](ds, SMALL_CFG)
        assert len(fusions) == 2
        monkeypatch.setattr(evaluate, "_fuse_memo", None)
        assert MEMO_CALLS[entry](ds, SMALL_CFG) == edited

    @pytest.mark.parametrize("entry", sorted(MEMO_CALLS))
    def test_unseeded_calls_each_fuse(self, entry, small_dataset, fusions):
        unseeded = dataclasses.replace(SMALL_CFG, seed=None)
        MEMO_CALLS[entry](small_dataset, unseeded)
        fused = len(fusions)
        MEMO_CALLS[entry](small_dataset, unseeded)
        assert len(fusions) == 2 * fused > 0

    def test_unseeded_sweep_leaves_the_seeded_population(self, small_dataset, fusions,
                                                         enrollments):
        gar_stats(small_dataset, SMALL_CFG)
        run_gs_curve(small_dataset, dataclasses.replace(SMALL_CFG, seed=None), [1, 2])
        gar_stats(small_dataset, SMALL_CFG)
        assert len(fusions) == 2
        assert len(enrollments) == 1 + 2

    @pytest.mark.parametrize("change", [
        dict(fusion_mode="bla"), dict(out_dim=128), dict(m=4), dict(window_factor=1.5),
        dict(seed=6),
    ], ids=["fusion-mode", "out-dim", "m", "window-factor", "seed"])
    def test_keyed_field_change_fuses_again(self, small_dataset, fusions, change):
        gar_stats(small_dataset, SMALL_CFG)
        other = dataclasses.replace(SMALL_CFG, **change)
        gar_stats(small_dataset, other)
        assert len(fusions) == 2
        gar_stats(small_dataset, other)
        assert len(fusions) == 2

    def test_memoised_arrays_are_read_only(self, small_dataset, cold_memo):
        population = evaluate._population(small_dataset, SMALL_CFG)
        pop, selections = population.pop, population.selections
        prepared = population.table
        arrays = [population.bits, pop.median, *(r_a for _, r_a, _, _ in selections.values())]
        assert not any(arr.flags.writeable for arr in arrays)
        assert all(mat.flags.writeable for mat in small_dataset.face.values())
        gar_stats(small_dataset, SMALL_CFG)
        gar_stats(small_dataset, dataclasses.replace(SMALL_CFG, k_symbols=2))
        assert len(prepared) == 2
        for table in (enrollments for _, enrollments in prepared.values()):
            with pytest.raises(TypeError):
                table["intruder"] = None
            for enr in table.values():
                assert not enr.template_bits.flags.writeable
                with pytest.raises(dataclasses.FrozenInstanceError):
                    enr.record.salt = b""
                with pytest.raises(dataclasses.FrozenInstanceError):
                    enr.key = None


class TestEnrollmentTable:
    """The enrollments of each (K, scheme, policy) are kept with the
    population: a repeated call enrolls nothing, and what it reads equals
    what a fresh enrollment builds."""

    def test_repeated_grid_enrolls_once_per_config(self, small_dataset, enrollments,
                                                   monkeypatch):
        # A far-mc round: every K of m = 3 under both schemes, three times.
        grid = [dataclasses.replace(SMALL_CFG, k_symbols=k, scheme=scheme)
                for k in (1, 2, 3) for scheme in ("secure-sketch", "fuzzy-commitment")]
        rounds = [[empirical_far(small_dataset, cfg, SCENARIO_STOLEN_KEY, 100, seed=10 * r + j)
                   for j, cfg in enumerate(grid)] for r in range(3)]
        assert len(enrollments) == len(grid) == 6
        monkeypatch.setattr(evaluate, "_fuse_memo", None)
        assert [empirical_far(small_dataset, cfg, SCENARIO_STOLEN_KEY, 100, seed=20 + j)
                for j, cfg in enumerate(grid)] == rounds[2]

    @pytest.mark.parametrize("entry", sorted(MEMO_CALLS))
    def test_same_k_warm_call_gives_the_cold_result(self, entry, small_dataset,
                                                    enrollments, monkeypatch):
        cold = MEMO_CALLS[entry](small_dataset, SMALL_CFG)
        monkeypatch.setattr(evaluate, "_fuse_memo", None)
        MEMO_CALLS[MEMO_WARMERS[entry]](small_dataset, SMALL_CFG)
        warmed = len(enrollments)
        assert MEMO_CALLS[entry](small_dataset, SMALL_CFG) == cold
        # Only the sweep's K = 2 is missing from its warmer's table.
        assert len(enrollments) - warmed == (entry == "run_gs_curve")

    @pytest.mark.parametrize("entry", sorted(MEMO_CALLS))
    def test_unseeded_calls_each_enroll(self, entry, small_dataset, enrollments):
        unseeded = dataclasses.replace(SMALL_CFG, seed=None)
        MEMO_CALLS[entry](small_dataset, unseeded)
        enrolled = len(enrollments)
        MEMO_CALLS[entry](small_dataset, unseeded)
        assert len(enrollments) == 2 * enrolled > 0

    @pytest.mark.parametrize("change", [
        dict(fusion_mode="bla"), dict(out_dim=128), dict(m=4), dict(window_factor=1.5),
        dict(seed=6),
    ], ids=["fusion-mode", "out-dim", "m", "window-factor", "seed"])
    def test_keyed_field_change_enrolls_again(self, small_dataset, enrollments, change):
        gar_stats(small_dataset, SMALL_CFG)
        gar_stats(small_dataset, dataclasses.replace(SMALL_CFG, **change))
        assert len(enrollments) == 2
        gar_stats(small_dataset, SMALL_CFG)
        assert len(enrollments) == 3

    def test_in_place_edit_enrolls_again(self, enrollments, monkeypatch):
        ds = gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)
        gar_stats(ds, SMALL_CFG)
        ds.face[ds.subject_ids[1]][2, 4] -= 0.5
        edited = gar_stats(ds, SMALL_CFG)
        assert len(enrollments) == 2
        monkeypatch.setattr(evaluate, "_fuse_memo", None)
        assert gar_stats(ds, SMALL_CFG) == edited

    def test_fail_deny_entry_leaves_out_unenrollable(self, enrollments):
        # The pinned fail-deny population of TestGar, read from the table
        # after the fallback policy's entry is added beside it.
        ds = gen_population(12, 8, 16, 16, 1.0, 0.05, seed=42)
        cfg = PipelineConfig(m=5, k_symbols=27, policy="fail-deny", out_dim=256, seed=9)
        pinned = evaluate.GarResult(rate=0.03125, accepted=1, probed=32, enrolled=8,
                                    unenrollable=4)
        assert gar_stats(ds, cfg) == pinned
        assert gar_stats(ds, dataclasses.replace(cfg, policy="fallback")).enrolled == 12
        assert gar_stats(ds, cfg) == pinned
        assert len(enrollments) == 2
        table = evaluate._fuse_memo[1].table
        assert sorted(len(enrollments) for _, enrollments in table.values()) == [8, 12]


@pytest.fixture
def code_builds(monkeypatch, cold_memo):
    """The RS codes built from a cold memo."""
    codes = []
    original = PipelineConfig.build_code

    def counted(self):
        codes.append(original(self))
        return codes[-1]

    monkeypatch.setattr(PipelineConfig, "build_code", counted)
    return codes


class TestCodeTable:
    """Each (K, scheme, policy) entry keeps the code its enrollments were
    made with: a repeated call builds no code, and the codes leave with the
    population."""

    GRID = [dataclasses.replace(SMALL_CFG, k_symbols=k, scheme=scheme)
            for k in (1, 2, 3) for scheme in ("secure-sketch", "fuzzy-commitment")]

    def test_far_rounds_build_each_code_once(self, small_dataset, code_builds):
        # Three far-mc rounds: the cold one builds one code per entry.
        for r in range(3):
            for j, cfg in enumerate(self.GRID):
                empirical_far(small_dataset, cfg, SCENARIO_STOLEN_KEY, 100, seed=10 * r + j)
            assert len(code_builds) == len(self.GRID) == 6
        entries = evaluate._fuse_memo[1].table
        assert [code for code, _ in entries.values()] == code_builds
        assert [(code.field.m, code.k_symbols) for code in code_builds] == [
            (cfg.m, cfg.k_symbols) for cfg in self.GRID]

    def test_keyed_field_change_builds_again(self, small_dataset, code_builds):
        gar_stats(small_dataset, SMALL_CFG)
        gar_stats(small_dataset, SMALL_CFG)
        assert len(code_builds) == 1
        gar_stats(small_dataset, dataclasses.replace(SMALL_CFG, seed=6))
        assert len(code_builds) == 2
        gar_stats(small_dataset, SMALL_CFG)
        assert len(code_builds) == 3

    @pytest.mark.parametrize("entry", sorted(MEMO_CALLS))
    def test_unseeded_calls_each_build(self, entry, small_dataset, code_builds):
        unseeded = dataclasses.replace(SMALL_CFG, seed=None)
        MEMO_CALLS[entry](small_dataset, unseeded)
        built = len(code_builds)
        MEMO_CALLS[entry](small_dataset, unseeded)
        assert len(code_builds) == 2 * built > 0

    def test_replaced_memo_frees_its_codes(self, small_dataset, code_builds):
        for cfg in self.GRID[:2]:
            gar_stats(small_dataset, cfg)
        # RsCode has no weak-reference slot, and an entry is a (code,
        # enrollments) pair: the parity table and the first enrollment of
        # each entry live and die with it.
        tables = [weakref.ref(code.parity_logs) for code in code_builds]
        population = evaluate._fuse_memo[1]
        entries = [weakref.ref(next(iter(enrollments.values())))
                   for _, enrollments in population.table.values()]
        population = weakref.ref(population)
        code_builds.clear()
        gar_stats(small_dataset, dataclasses.replace(SMALL_CFG, seed=6))
        gc.collect()
        assert len(tables) == len(entries) == 2
        assert all(ref() is None for ref in tables + entries)
        assert population() is None


class TestGoldenCurve:
    """Pinned synthetic run: 50 subjects x 20 pairs, m=5, secure sketch.

    The GAR values were computed once from the deterministic pipeline and
    frozen; any change is a behavioral regression, not noise.
    """

    DATASET_ARGS = dict(num_subjects=50, samples_per_subject=20, d_face=64,
                        d_iris=64, between_std=1.0, within_std=0.35,
                        seed=20260811)
    CONFIG = PipelineConfig(m=5, k_symbols=16, out_dim=1024, seed=101)
    EXPECTED = {11: 0.572, 16: 0.466, 20: 0.396}

    def test_golden_gar_values(self):
        ds = gen_population(**self.DATASET_ARGS)
        points = run_gs_curve(ds, self.CONFIG, sorted(self.EXPECTED))
        for point in points:
            assert point.gar == self.EXPECTED[point.k_symbols]

    def test_gar_decreases_with_security(self):
        ds = gen_population(**self.DATASET_ARGS)
        points = run_gs_curve(ds, self.CONFIG, [11, 16, 20])
        gars = [p.gar for p in points]
        assert gars == sorted(gars, reverse=True)


class TestPrivacyReport:
    def test_documented_values(self):
        report = privacy_report(4096, 155)
        assert report.residual_bits == 3941
        assert report.max_leakage_bits == 155
        assert report.feature_bits == 4096

    def test_other_code_length(self):
        assert privacy_report(4096, 378).residual_bits == 3718

    def test_zero_exposure(self):
        report = privacy_report(4096, 0)
        assert report.residual_bits == 4096
        assert report.max_leakage_bits == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            privacy_report(100, 101)
        with pytest.raises(ValueError):
            privacy_report(0, 0)

    def test_inconsistent_report_raises_not_asserts(self):
        # a ValueError, not an assert: the check must survive python -O
        with pytest.raises(ValueError):
            PrivacyReport(feature_bits=100, exposed_bits=10,
                          max_leakage_bits=10, residual_bits=91)
