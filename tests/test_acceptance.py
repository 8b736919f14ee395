"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria and tolerances are pinned here; golden values were computed once
from the deterministic pipeline and frozen.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from biosketch.errors import ParameterMismatchError
from biosketch.evaluate import (
    SCENARIO_STOLEN_KEY,
    empirical_far,
    gar,
    gs_curve_csv,
    params_for_security,
    privacy_report,
    run_gs_curve,
)
from biosketch.fusion import Embedding, FusionWeights, fuse_bla, fuse_fca, random_weights
from biosketch.gf import Field
from biosketch.pipeline import PipelineConfig
from biosketch.rs import DecodePolicy, RsCode, bits_to_symbols, symbols_to_bits
from biosketch.sketch import auth_fc, auth_ss, enroll_fc, enroll_ss
from biosketch.synth import gen_population

from reference import all_codewords, naive_affine, naive_bilinear

FB = DecodePolicy.FALLBACK_SYSTEMATIC


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {detail}")
    assert ok, detail


def test_criterion_1_parameter_table():
    expected = {5: (31, 155), 6: (63, 378), 7: (127, 889)}
    got = {}
    for m in (5, 6, 7):
        code = RsCode(Field(m), 1)
        got[m] = (code.n_symbols, code.n_bits)
    report(1, got == expected, f"code lengths (N, n) per m: {got}")


def test_criterion_2_rate_arithmetic():
    cases = [(5, 100, 0.65), (6, 53, 0.14), (7, 100, 0.11)]
    results = []
    ok = True
    for m, security, target in cases:
        plan = params_for_security(m, security)
        ok &= abs(plan.rate - target) <= 0.01
        results.append(
            f"m={m} sec={security}->K={plan.k_symbols} "
            f"achieved={plan.security_bits} rate={plan.rate:.4f} (target {target})"
        )
    report(2, ok, "; ".join(results))


def test_criterion_3_rs_recovery_and_oracle_equivalence():
    # (a) 10^4 random (message, weight <= t error) cases per symbol size
    failures = 0
    for m in (3, 5, 6):
        field = Field(m)
        rng = np.random.default_rng(5000 + m)
        codes = {}
        for _ in range(10_000):
            k = int(rng.integers(1, field.order + 1))
            code = codes.get(k) or codes.setdefault(k, RsCode(field, k))
            msg = rng.integers(0, field.size, size=k).tolist()
            received = code.encode(msg)
            weight = int(rng.integers(0, code.t + 1))
            for pos in rng.choice(field.order, size=weight, replace=False):
                received[pos] ^= int(rng.integers(1, field.size))
            out = code.decode(received, DecodePolicy.FAIL_DENY)
            if not (out.ok and out.message == tuple(msg)):
                failures += 1

    # (b) exhaustive decoding spheres around 50 random RS(7,3) codewords
    code = RsCode(Field(3), 3)
    codewords = all_codewords(code).astype(np.int64)
    patterns = [np.zeros(7, dtype=np.int64)]
    for p1 in range(7):
        for v1 in range(1, 8):
            e1 = np.zeros(7, dtype=np.int64)
            e1[p1] = v1
            patterns.append(e1)
            for p2 in range(p1 + 1, 7):
                for v2 in range(1, 8):
                    e2 = e1.copy()
                    e2[p2] = v2
                    patterns.append(e2)
    patterns = np.asarray(patterns)
    assert patterns.shape[0] == 1 + 49 + 1029
    rng = np.random.default_rng(99)
    sphere_failures = 0
    for center_idx in rng.choice(len(codewords), size=50, replace=False):
        center = codewords[center_idx]
        batch = center[None, :] ^ patterns
        dist = np.count_nonzero(batch[:, None, :] != codewords[None, :, :], axis=2)
        nearest_unique = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1) == 1
        nearest_is_center = dist.argmin(axis=1) == center_idx
        if not (nearest_unique.all() and nearest_is_center.all()):
            sphere_failures += 1
            continue
        for received in batch:
            out = code.decode(received.tolist(), DecodePolicy.FAIL_DENY)
            if not (out.ok and out.codeword == tuple(center.tolist())):
                sphere_failures += 1
                break
    report(3, failures == 0 and sphere_failures == 0,
           f"30000/30000 bounded-distance recoveries exact (failures={failures}), "
           f"exhaustive radius-t spheres around 50 codewords match the oracle "
           f"(failures={sphere_failures})")


def test_criterion_4_mds_minimum_distance():
    field = Field(3)
    results = {}
    ok = True
    for k in range(1, 6):
        code = RsCode(field, k)
        weights = np.count_nonzero(all_codewords(code), axis=1)
        min_weight = int(weights[1:].min())
        results[k] = min_weight
        ok &= min_weight == code.d_min == 8 - k
    report(4, ok, f"exhaustive min weight of RS(7,K): {results} equals N-K+1")


def test_criterion_5_far_law():
    dataset = gen_population(6, 4, 16, 16, 1.0, 0.2, seed=8)
    trials = 100_000
    lines = []
    ok = True
    for k_symbols in (1, 2, 3):
        cfg = PipelineConfig(m=3, k_symbols=k_symbols, out_dim=64, seed=5)
        security = 3 * k_symbols
        rate = empirical_far(dataset, cfg, SCENARIO_STOLEN_KEY, trials, seed=17)
        expect = 2.0 ** -security
        sigma = math.sqrt(expect * (1 - expect) / trials)
        ok &= abs(rate - expect) <= 3 * sigma
        lines.append(f"k={security}: far={rate:.6f} expect={expect:.6f} "
                     f"dev={abs(rate - expect) / sigma:.2f} sigma")
    report(5, ok, "; ".join(lines))


def test_criterion_6_privacy_accounting():
    rep = privacy_report(4096, 155)
    report(6, rep.residual_bits == 3941 and rep.max_leakage_bits == 155,
           f"d=4096, n=155 -> leakage<=155, residual={rep.residual_bits}")


def test_criterion_7a_resubstitution_gar_is_one():
    dataset = gen_population(6, 8, 16, 16, 1.0, 0.2, seed=42)
    combos = [
        ("secure-sketch", "fallback", dict(m=3, k_symbols=2, out_dim=64)),
        ("fuzzy-commitment", "fallback", dict(m=3, k_symbols=2, out_dim=64)),
        ("fuzzy-commitment", "fail-deny", dict(m=3, k_symbols=2, out_dim=64)),
        # fail-deny secure sketch only ever enrolls on a tiny code where the
        # decoding spheres cover a useful fraction of the space
        ("secure-sketch", "fail-deny", dict(m=2, k_symbols=1, out_dim=12)),
    ]
    rates = {}
    ok = True
    for scheme, policy, extra in combos:
        cfg = PipelineConfig(scheme=scheme, policy=policy, seed=5, **extra)
        ds = dataset if extra["m"] == 3 else gen_population(10, 8, 8, 8, 1.0, 0.1, seed=3)
        rate = gar(ds, cfg, probe_mode="enroll")
        rates[(scheme, policy)] = rate
        ok &= rate == 1.0
    report("7a", ok, f"enrollment-probe GAR per (scheme, policy): {rates}")


GOLDEN_DATASET = dict(num_subjects=50, samples_per_subject=20, d_face=64,
                      d_iris=64, between_std=1.0, within_std=0.35,
                      seed=20260811)
GOLDEN_CONFIG = PipelineConfig(m=5, k_symbols=16, out_dim=1024, seed=101)
GOLDEN_GAR = {11: 0.572, 16: 0.466, 20: 0.396}


def test_criterion_7b_pinned_dataset_reproducibility():
    ds = gen_population(**GOLDEN_DATASET)
    assert ds.total_pairs == 1000
    runs = [gs_curve_csv(run_gs_curve(ds, GOLDEN_CONFIG, sorted(GOLDEN_GAR)))
            for _ in range(2)]
    golden_ok = all(
        p.gar == GOLDEN_GAR[p.k_symbols]
        for p in run_gs_curve(ds, GOLDEN_CONFIG, sorted(GOLDEN_GAR))
    )
    report("7b", runs[0] == runs[1] and golden_ok,
           "50x20 pinned dataset: curve CSV byte-identical across runs and "
           f"GAR values frozen at {GOLDEN_GAR}")


def test_criterion_7c_gar_decreases_with_noise():
    noise_levels = (0.15, 0.35, 0.6)
    stats = []
    for within in noise_levels:
        ds = gen_population(50, 20, 64, 64, 1.0, within, seed=777)
        cfg = PipelineConfig(m=5, k_symbols=16, out_dim=1024, seed=101)
        rate = gar(ds, cfg)
        stats.append((rate, 500))
    ok = True
    for (hi, n_hi), (lo, n_lo) in zip(stats, stats[1:]):
        spread = math.sqrt(hi * (1 - hi) / n_hi + lo * (1 - lo) / n_lo)
        ok &= hi - lo > 3 * max(spread, 1e-9)
    report("7c", ok,
           "GAR strictly decreases across noise levels "
           + ", ".join(f"{w}->{r:.3f}" for w, (r, _) in zip(noise_levels, stats)))


def test_criterion_8_scheme_relationship():
    code = RsCode(Field(3), 3)
    rng = np.random.default_rng(23)
    agree = True
    # equal probes: both schemes must accept
    for _ in range(200):
        r_a = rng.integers(0, 2, size=code.n_bits, dtype=np.uint8)
        salt = rng.bytes(16)
        ss = enroll_ss(r_a, code, FB, salt)
        fc = enroll_fc(r_a, code, int(rng.integers(1 << 30)), salt)
        agree &= auth_ss(r_a, ss, code).accepted and auth_fc(r_a, fc, code).accepted
    # fuzzy commitment: every pair within t symbol errors must be accepted
    fc_ok = True
    checked = 0
    for _ in range(10):
        r_a = rng.integers(0, 2, size=code.n_bits, dtype=np.uint8)
        record = enroll_fc(r_a, code, int(rng.integers(1 << 30)), rng.bytes(16))
        symbols = bits_to_symbols(r_a, 3)
        # every weight <= 2 symbol error pattern, enumerated explicitly
        patterns = [[]]
        patterns += [[(p, v)] for p in range(7) for v in range(1, 8)]
        patterns += [
            [(p1, v1), (p2, v2)]
            for p1 in range(7) for p2 in range(p1 + 1, 7)
            for v1 in range(1, 8) for v2 in range(1, 8)
        ]
        for pattern in patterns:
            corrupted = list(symbols)
            for pos, val in pattern:
                corrupted[pos] ^= val
            r_b = symbols_to_bits(corrupted, 3)
            fc_ok &= auth_fc(r_b, record, code).accepted
            checked += 1
    report(8, agree and fc_ok,
           f"equal probes accepted by both schemes (200 pairs); fuzzy commitment "
           f"accepted all {checked} probes within t=2 symbol errors")


def test_criterion_9_fusion_algebra():
    rng = np.random.default_rng(31)
    worst_fca = worst_bla = 0.0
    for _ in range(1000):
        d_f, d_i, out = (int(v) for v in rng.integers(1, 8, size=3))
        w = replace(random_weights("fca", d_f, d_i, out, seed=int(rng.integers(1 << 30))),
                    activation="identity")
        face = rng.normal(size=d_f)
        iris = rng.normal(size=d_i)
        got = fuse_fca(Embedding(face, "face"), Embedding(iris, "iris"), w)
        want = naive_affine(w.W, w.b, np.concatenate([face, iris]))
        scale = max(np.abs(want).max(), 1e-12)
        worst_fca = max(worst_fca, np.abs(got - want).max() / scale)
    for _ in range(1000):
        d_f, d_i, out = (int(v) for v in rng.integers(1, 6, size=3))
        w = random_weights("bla", d_f, d_i, out, seed=int(rng.integers(1 << 30)))
        if w.P is None:
            w = FusionWeights("bla", d_f, d_i, d_f * d_i, "identity")
        face = rng.normal(size=d_f)
        iris = rng.normal(size=d_i)
        got = fuse_bla(Embedding(face, "face"), Embedding(iris, "iris"), w)
        P = w.P if w.P is not None else np.eye(d_f * d_i)
        want = naive_bilinear(P, face, iris)
        scale = max(np.abs(want).max(), 1e-12)
        worst_bla = max(worst_bla, np.abs(got - want).max() / scale)
    ok = worst_fca <= 1e-6 and worst_bla <= 1e-6
    report(9, ok, f"1000 fca + 1000 bla instances vs naive reference; worst "
                  f"relative error fca={worst_fca:.2e}, bla={worst_bla:.2e}")
