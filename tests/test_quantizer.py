import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biosketch.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    ParseError,
)
from biosketch.pipeline import (
    PipelineConfig,
    build_weights,
    enroll_split,
    enroll_vectors,
    fuse_dataset,
    population_from_fused,
    select_template,
)
from biosketch.quantizer import (
    PopulationStats,
    ReliableKey,
    UserStats,
    binarize,
    extract,
    key_from_text,
    key_to_text,
    population_stats,
    reliability,
    select_reliable,
    user_stats,
)
from biosketch.sketch import record_to_text
from biosketch.synth import gen_population

from reference import normal_cdf
from test_acceptance import GOLDEN_DATASET

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")

# Edits to the index lines of a key file that ``key_to_text`` never writes,
# each a ParseError. They take the index lines of a key with at least two
# indices, the last >= 10, and its dimension d.
BAD_INDEX_LINES = {
    "plus-sign": lambda ix, d: ix[:1] + ["+" + ix[1]] + ix[2:],
    "underscore": lambda ix, d: ix[:-1] + [ix[-1][0] + "_" + ix[-1][1:]],
    "arabic-indic-digits": lambda ix, d: ix[:1] + [ix[1].translate(ARABIC_INDIC)] + ix[2:],
    "leading-zero": lambda ix, d: ix[:1] + ["0" + ix[1]] + ix[2:],
    "decimal-point": lambda ix, d: ix[:1] + [ix[1] + ".0"] + ix[2:],
    "negative": lambda ix, d: ["-1"] + ix[1:],
    "duplicate": lambda ix, d: ix[:1] + ix[:1] + ix[2:],
    "unsorted": lambda ix, d: ix[1::-1] + ix[2:],
    "beyond-dimension": lambda ix, d: ix[:-1] + [str(d)],
}


def make_pop(vectors, ids=None):
    vectors = np.asarray(vectors, dtype=float)
    if ids is None:
        ids = [f"u{i}" for i in range(vectors.shape[0])]
    return population_stats(vectors, ids)


class TestPopulationStats:
    def test_two_vector_median(self):
        pop = make_pop([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(pop.median, [1.0, 1.0])

    def test_single_subject_rejected(self):
        with pytest.raises(InsufficientDataError):
            population_stats([[1.0, 2.0], [3.0, 4.0]], ["a", "a"])

    def test_constant_dimension_median(self):
        pop = make_pop([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        assert pop.median[0] == 5.0

    @pytest.mark.parametrize("rows", [2, 3, 4, 7, 10, 11, 500])
    @pytest.mark.parametrize("kind", ["normal", "relu", "signed-zeros", "ties"])
    def test_median_is_numpy_median_bit_for_bit(self, rows, kind):
        rng = np.random.default_rng([rows, len(kind)])
        mat = rng.normal(size=(rows, 64))
        if kind == "relu":  # runs of +0.0 in each column
            mat = np.maximum(mat - 0.5, 0.0)
        elif kind == "signed-zeros":
            mat = rng.choice([-0.0, 0.0, 0.0, -1.0, 1.0], size=mat.shape)
        elif kind == "ties":
            mat = rng.integers(-2, 3, size=mat.shape).astype(np.float64)
        median = make_pop(mat).median
        assert median.tobytes() == np.median(mat, axis=0).tobytes()
        if kind == "signed-zeros":
            # -0.0 sits in the middle of some columns, and np.median's mean
            # turns it into +0.0; taking the middle element would not.
            middle = np.sort(mat, axis=0)[(rows - 1) // 2]
            assert np.signbit(middle[middle == 0.0]).any()
            assert not np.signbit(median[median == 0.0]).any()


class TestBinarize:
    def test_above_median_is_one(self):
        pop = make_pop([[0.0, 0.0], [2.0, 4.0]])
        assert np.array_equal(binarize([1.5, 2.5], pop), [1, 1])
        assert np.array_equal(binarize([0.5, 2.5], pop), [0, 1])

    def test_population_is_balanced_per_dimension(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(40, 16))  # even count, distinct values
        pop = make_pop(vectors)
        bits = np.stack([binarize(v, pop) for v in vectors])
        assert np.array_equal(bits.sum(axis=0), np.full(16, 20))
        assert np.array_equal(binarize(vectors, pop), bits)

    def test_matches_componentwise_comparison(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(10, 8))
        pop = make_pop(vectors)
        probe = rng.normal(size=8)
        expected = [1 if probe[j] > pop.median[j] else 0 for j in range(8)]
        assert binarize(probe, pop).tolist() == expected

    def test_dimension_mismatch(self):
        pop = make_pop([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            binarize([1.0, 2.0, 3.0], pop)
        with pytest.raises(DimensionMismatchError):
            binarize(np.zeros((4, 3)), pop)
        with pytest.raises(DimensionMismatchError):
            binarize(np.zeros((1, 4, 2)), pop)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_vectors_are_refused(self, bad):
        pop = make_pop([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            binarize([bad, 0.0], pop)
        with pytest.raises(ValueError, match="non-finite"):
            binarize([[0.0, 1.0], [1.0, bad]], pop)


def assert_same_order_and_ties_as_ndtr(z):
    # Ranking reads only order and ties, so values may differ by an ulp.
    ndtr = pytest.importorskip("scipy.special").ndtr
    pop = make_pop(np.zeros((2, z.size)))
    scores = reliability(UserStats(mean=z, std=np.ones_like(z)), pop)
    steps = np.diff(scores)
    assert np.all(steps >= 0)
    assert np.array_equal(steps == 0, np.diff(ndtr(z)) == 0)


class TestReliability:
    def test_mean_on_median_scores_half(self):
        pop = make_pop([[0.0], [2.0]])
        user = user_stats([[0.9], [1.1]])
        assert user.mean[0] == pytest.approx(1.0)
        assert reliability(user, pop)[0] == pytest.approx(0.5)

    def test_zero_sigma_off_median_scores_one(self):
        pop = make_pop([[0.0], [2.0]])
        user = user_stats([[3.0], [3.0]])  # zero variance
        assert reliability(user, pop)[0] == pytest.approx(1.0)

    def test_one_sigma_matches_cdf_oracle(self):
        pop = make_pop([[0.0], [0.0]])
        # mean 1, sample std 1 => z = 1
        user = user_stats([[1.0 - 2 ** -0.5], [1.0 + 2 ** -0.5]])
        assert user.std[0] == pytest.approx(1.0)
        score = reliability(user, pop)[0]
        assert score == pytest.approx(normal_cdf(1.0), abs=1e-12)
        assert score == pytest.approx(0.8413, abs=5e-5)

    @pytest.mark.parametrize("lo,hi", [
        (0.0, 10.0),                                  # the whole useful range
        (8.2, 8.4),                                   # values saturate to 1.0
        (math.sqrt(2) - 1e-6, math.sqrt(2) + 1e-6),   # erf/erfc switch in ndtr
        (0.0, 1e-3),                                  # just above 0.5
    ])
    def test_same_order_and_ties_as_scipy_ndtr(self, lo, hi):
        assert_same_order_and_ties_as_ndtr(np.linspace(lo, hi, 200_000))

    def test_ulp_neighbourhoods_where_only_the_shipped_argument_form_matches_ndtr(self):
        # At these z, 0.5 * erfc(-z / sqrt(2)) misses ndtr's value while the
        # shipped z * sqrt(1/2) hits it; the linspace grids cannot tell the
        # two forms apart. Each neighbourhood spans +-8 ulps.
        centres = (4.00180604000038, 4.011696229999481, 4.022446449999203)
        assert_same_order_and_ties_as_ndtr(
            np.concatenate([c + np.arange(-8, 9) * np.spacing(c) for c in centres]))

    def test_exact_half_at_zero_and_one_far_out(self):
        pop = make_pop([[0.0, 0.0], [0.0, 0.0]])
        scores = reliability(UserStats(mean=np.array([0.0, 40.0]), std=np.ones(2)), pop)
        assert scores.tolist() == [0.5, 1.0]

    def test_user_stats_need_two_samples(self):
        with pytest.raises(InsufficientDataError):
            user_stats([[1.0, 2.0]])


class TestSelectReliable:
    def test_distinct_scores_tight_window_is_top_g(self):
        scores = np.array([0.1, 0.9, 0.5, 0.8, 0.3, 0.7])
        for nonce in (1, 2, 99):
            key = select_reliable(scores, 3, nonce, window_factor=1.0)
            assert key.indices == (1, 3, 5)

    def test_default_window_draws_from_top_2g(self):
        rng = np.random.default_rng(2)
        scores = rng.permutation(64) / 64.0
        top_2g = set(np.argsort(-scores)[:32])
        key = select_reliable(scores, 16, nonce=5)
        assert set(key.indices) <= top_2g
        assert key.count == 16

    def test_equal_scores_nonce_dependent(self):
        scores = np.ones(64)
        key_a = select_reliable(scores, 8, nonce=1)
        key_b = select_reliable(scores, 8, nonce=2)
        # C(64, 8) ~ 4.4e9 possible keys: different nonces must differ
        assert key_a.indices != key_b.indices

    def test_deterministic_in_all_arguments(self):
        scores = np.linspace(0, 1, 50)
        a = select_reliable(scores, 10, nonce=7)
        b = select_reliable(scores, 10, nonce=7)
        assert a == b

    def test_g_equals_d_selects_all(self):
        key = select_reliable(np.ones(12), 12, nonce=3)
        assert key.indices == tuple(range(12))

    def test_g_too_large(self):
        with pytest.raises(ValueError):
            select_reliable(np.ones(4), 5, nonce=0)

    @pytest.mark.parametrize("factor", [0.5, float("inf"), float("nan")])
    def test_window_factor_below_one_or_not_finite_rejected(self, factor):
        with pytest.raises(ValueError, match="window_factor"):
            select_reliable(np.ones(8), 3, nonce=0, window_factor=factor)

    def test_huge_finite_window_factor_is_the_whole_vector(self):
        # count * 1e308 overflows to inf; the window stops at d all the same.
        scores = np.random.default_rng(6).random(40)
        assert (select_reliable(scores, 7, nonce=4, window_factor=1e308)
                == select_reliable(scores, 7, nonce=4, window_factor=40 / 7))

    def test_indices_sorted_and_unique(self):
        rng = np.random.default_rng(3)
        for nonce in range(20):
            key = select_reliable(rng.normal(size=100), 30, nonce=nonce)
            assert list(key.indices) == sorted(set(key.indices))


class TestExtract:
    def test_prefix_key(self):
        key = ReliableKey(indices=tuple(range(4)), dimension=10, nonce=0)
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
        assert extract(bits, key).tolist() == [1, 0, 1, 1]

    def test_zero_bits_zero_result(self):
        key = ReliableKey(indices=(2, 5, 7), dimension=8, nonce=0)
        assert extract(np.zeros(8, dtype=np.uint8), key).tolist() == [0, 0, 0]

    def test_matches_gather_loop(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=50, dtype=np.uint8)
        idx = tuple(sorted(rng.choice(50, size=20, replace=False).tolist()))
        key = ReliableKey(indices=idx, dimension=50, nonce=0)
        assert extract(bits, key).tolist() == [int(bits[i]) for i in idx]
        rows = rng.integers(0, 2, size=(7, 50), dtype=np.uint8)
        assert extract(rows, key).tolist() == [[int(r[i]) for i in idx] for r in rows]

    def test_out_of_range(self):
        key = ReliableKey(indices=(0, 9), dimension=10, nonce=0)
        with pytest.raises(DimensionMismatchError):
            extract(np.zeros(5, dtype=np.uint8), key)
        with pytest.raises(DimensionMismatchError):
            extract(np.zeros((3, 5), dtype=np.uint8), key)
        with pytest.raises(DimensionMismatchError):
            extract(np.zeros((1, 3, 10), dtype=np.uint8), key)

    def test_repeated_extraction_identical(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=30, dtype=np.uint8)
        key = select_reliable(rng.normal(size=30), 10, nonce=6)
        assert np.array_equal(extract(bits, key), extract(bits, key))


class TestGenuineAdvantage:
    def test_selected_components_flip_less_than_random(self):
        # Gaussian subject model: reliable dimensions (mean far from the
        # population median relative to sigma) must beat a uniformly random
        # index set of the same size by more than 3 binomial sigma.
        rng = np.random.default_rng(6)
        d, n_subjects, samples = 256, 12, 8
        means = rng.normal(0.0, 1.0, size=(n_subjects, d))
        data = means[:, None, :] + rng.normal(0.0, 0.6, size=(n_subjects, samples, d))
        pop = population_stats(data.reshape(-1, d),
                               np.repeat(np.arange(n_subjects), samples))
        flips_sel = flips_rand = trials = 0
        for s in range(n_subjects):
            user = user_stats(data[s])
            enrolled = binarize(user.mean, pop)
            key = select_reliable(reliability(user, pop), 64, nonce=s)
            rand_idx = rng.choice(d, size=64, replace=False)
            fresh = means[s] + rng.normal(0.0, 0.6, size=d)
            probe = binarize(fresh, pop)
            diff = probe != enrolled
            flips_sel += int(diff[list(key.indices)].sum())
            flips_rand += int(diff[rand_idx].sum())
            trials += 64
        p_rand = flips_rand / trials
        sigma = math.sqrt(max(p_rand * (1 - p_rand), 1e-9) / trials)
        assert flips_sel / trials < p_rand - 3 * sigma


class TestKeyFile:
    def test_roundtrip(self):
        key = ReliableKey(indices=(1, 5, 9), dimension=16, nonce=123456)
        assert key_from_text(key_to_text(key)) == key

    def test_header_required(self):
        with pytest.raises(ParseError):
            key_from_text("nope\nd=4\nG=1\nnonce=0\n2\n")

    def test_count_mismatch_detected(self):
        key = ReliableKey(indices=(1, 5), dimension=16, nonce=1)
        text = key_to_text(key).replace("G=2", "G=3")
        with pytest.raises(ParseError):
            key_from_text(text)

    @pytest.mark.parametrize("edit", sorted(BAD_INDEX_LINES))
    def test_index_lines_key_to_text_never_writes_are_rejected(self, edit):
        key = ReliableKey(indices=(1, 5, 9, 15), dimension=16, nonce=3)
        lines = key_to_text(key).splitlines()
        lines[4:] = BAD_INDEX_LINES[edit](lines[4:], key.dimension)
        with pytest.raises(ParseError):
            key_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("line,bad", [(1, "d=+16"), (1, "d=1_6"), (2, "G=\u0664"),
                                          (2, "G=04"), (3, "nonce=3.0"), (3, "nonce= 3")])
    def test_header_values_key_to_text_never_writes_are_rejected(self, line, bad):
        lines = key_to_text(ReliableKey(indices=(1, 5, 9, 15), dimension=16,
                                        nonce=3)).splitlines()
        lines[line] = bad
        with pytest.raises(ParseError):
            key_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:2] + lines[1:], "repeated field 'd'"),
        (lambda lines: lines[:4] + ["x=1"] + lines[4:], "unknown fields ['x']"),
        (lambda lines: lines[:3] + lines[4:], "missing fields ['nonce']"),
    ], ids=["repeated", "unknown", "missing"])
    def test_header_field_faults_are_named(self, edit, message):
        lines = edit(key_to_text(ReliableKey(indices=(1, 5), dimension=16,
                                             nonce=3)).splitlines())
        with pytest.raises(ParseError, match=re.escape(f"malformed key file: {message}")):
            key_from_text("\n".join(lines) + "\n")

    def test_header_fields_in_any_order_accepted(self):
        key = ReliableKey(indices=(1, 5), dimension=16, nonce=3)
        lines = key_to_text(key).splitlines()
        lines[1:4] = lines[3:0:-1]
        assert key_from_text("\n".join(lines) + "\n") == key

    def test_blank_lines_and_surrounding_whitespace_accepted(self):
        key = ReliableKey(indices=(0, 5, 9, 15), dimension=16, nonce=3)
        text = "\n biosketch-key v1 \n\nd=16\r\nG=4\n nonce=3\n 0\n\n\t5 \n9\r\n  15\n\n"
        assert key_from_text(text) == key

    def test_indices_kept_as_tuple_and_read_only_array(self):
        key = ReliableKey(indices=np.array([2, 7]), dimension=8, nonce=0)
        assert key.indices == (2, 7) and type(key.indices[0]) is int
        assert key.index_array.tolist() == [2, 7]
        assert not key.index_array.flags.writeable
        assert key == ReliableKey(indices=(2, 7), dimension=8, nonce=0)

    @given(st.sets(st.integers(0, 99), min_size=1, max_size=40), st.integers(0, 2**62))
    def test_roundtrip_hypothesis(self, indices, nonce):
        key = ReliableKey(indices=tuple(sorted(indices)), dimension=100, nonce=nonce)
        assert key_from_text(key_to_text(key)) == key


class TestEnrollmentDeterminism:
    """Key and record files of every golden subject, pinned by one SHA-256.

    Recorded before the package's scalar field arithmetic was removed. Key
    selection ranks dimensions by Phi, so only Phi's order and float ties
    matter, and those depend on how its argument is rounded: computing
    x = z * sqrt(1/2) keeps every key, while x = z / sqrt(2) moves all m=8
    keys and fails this test.
    """

    PINNED = {
        (8, 1, 4096, "fca"): "28e2fd2e46b83efaecb7a740ca18a16d476f03e0955a94fae2d3d7e969211522",
        (5, 16, 1024, "fca"): "f96431ab4894d0115474332e6f420f28343988933a24aadb83785141cc578ecb",
        (5, 16, 1024, "bla"): "08c53c91c634d299cd7de3afb22e5041d59e0664002844fdcb524f44e1f58509",
    }

    # Fuzzy-commitment files, recorded before enrollment was batched. fc
    # enrollment never decodes, so fail-deny only labels its records.
    PINNED_FC = {
        (8, 1, 4096, "fca", "fallback"):
            "bd99f5042fec29e56f9dc953c8b813001ef6da9230d6d995c44d396df0088565",
        (5, 16, 1024, "fca", "fallback"):
            "6cf3a6905584caafae688913de67b396909642379408f4d56c6915469a1f4701",
        (5, 16, 1024, "bla", "fail-deny"):
            "ee4ec06a9048ec364b59cb50a70683340662307de6aaa73d2174fc15015f6140",
    }

    @pytest.fixture(scope="class")
    def dataset(self):
        return gen_population(**GOLDEN_DATASET)

    @staticmethod
    def files_digest(dataset, config):
        fused = fuse_dataset(dataset, build_weights(config, dataset.d_face, dataset.d_iris))
        pop = population_from_fused(fused)
        code = config.build_code()
        digest = hashlib.sha256()
        for sid, mat in fused.items():
            enrollment = enroll_vectors(config, code, mat[:enroll_split(mat.shape[0])],
                                        pop, subject_id=sid)
            digest.update(key_to_text(enrollment.key).encode())
            digest.update(record_to_text(enrollment.record).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("m,k_symbols,out_dim,fusion_mode", sorted(PINNED))
    def test_key_and_record_files_unchanged(self, dataset, m, k_symbols, out_dim,
                                            fusion_mode):
        config = PipelineConfig(m=m, k_symbols=k_symbols, out_dim=out_dim, seed=101,
                                fusion_mode=fusion_mode)
        assert (self.files_digest(dataset, config)
                == self.PINNED[m, k_symbols, out_dim, fusion_mode])

    @pytest.mark.parametrize("m,k_symbols,out_dim,fusion_mode,policy", sorted(PINNED_FC))
    def test_fuzzy_commitment_files_unchanged(self, dataset, m, k_symbols, out_dim,
                                              fusion_mode, policy):
        config = PipelineConfig(m=m, k_symbols=k_symbols, out_dim=out_dim, seed=101,
                                fusion_mode=fusion_mode, scheme="fuzzy-commitment",
                                policy=policy)
        assert (self.files_digest(dataset, config)
                == self.PINNED_FC[m, k_symbols, out_dim, fusion_mode, policy])


POP8 = PopulationStats(median=np.zeros(8))

# Refusals the pipeline never reaches, each with the class it raises; the
# last three are pipeline.py's checks in front of key selection.
REFUSALS = {
    "key-indices-matrix": (lambda: ReliableKey(((0, 1),), 4, 0), ValueError),
    "population-vector": (lambda: population_stats(np.zeros(4), ["a", "b"]),
                          DimensionMismatchError),
    "population-ids-short": (lambda: population_stats(np.zeros((3, 2)), ["a", "b"]),
                             DimensionMismatchError),
    "population-nan": (lambda: population_stats([[np.nan, 0.0], [0.0, 0.0]], ["a", "b"]),
                       ValueError),
    "user-vector": (lambda: user_stats(np.zeros(3)), DimensionMismatchError),
    "reliability-dimensions-differ": (lambda: reliability(user_stats(np.eye(3)), POP8),
                                      DimensionMismatchError),
    "scores-matrix": (lambda: select_reliable(np.zeros((2, 2)), 1, 0),
                      DimensionMismatchError),
    "pipeline-unknown-scheme": (lambda: PipelineConfig(m=3, scheme="hash-only"), ValueError),
    "template-from-one-row": (
        lambda: select_template(PipelineConfig(m=3, out_dim=8), np.zeros((1, 8)), POP8),
        InsufficientDataError),
    "template-dimension-below-G": (
        lambda: select_template(PipelineConfig(m=3, out_dim=8), np.zeros((2, 8)), POP8),
        ValueError),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_raises_its_class(case):
    call, error = REFUSALS[case]
    with pytest.raises(error):
        call()
