"""The four benchmark workloads, driven only through biosketch's public API.

A workload's constructor is its set-up: it makes every input from the seed.
`op(i)` then runs operation i and returns its kind and whether its output
checks passed, so a wrong answer counts as a failed operation. Operation i
depends only on the seed and i, so two runs over the same indices (the
untraced and traced halves of a traced run) must give identical outputs;
`outputs` is what they are compared on. `verify()` runs the checks that
need the whole run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from biosketch import cli, evaluate, fusion, pipeline, sketch, store, synth

SS = sketch.SCHEME_SECURE_SKETCH
FC = sketch.SCHEME_FUZZY_COMMITMENT


def derive_seed(seed: int, *labels) -> int:
    """A 32-bit seed for one input of a workload."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def _held_out(n_samples: int) -> range:
    return range(pipeline.enroll_split(n_samples), n_samples)


# -- gs-sweep -----------------------------------------------------------------

FUSIONS = ("fca", "bla")

# SHA-256 of the two CSVs that `scripts/run_gs_experiment.py --m 5` writes
# (population seed 20260811, config seed 101).
GS_PINNED = {
    "fca": "67f40841d18234329586b31bbcfcbfb60596cc729c2ba5b687c341dfd884d7de",
    "bla": "006486461e28bbd5d8785be3589e48c9fe4d1bbd5d6821cd744a3785021d0749",
}
GS_PINNED_SEEDS = (20260811, 101)


@dataclass(frozen=True)
class GsSizes:
    subjects: int = 50
    samples: int = 20
    dim: int = 64
    within_std: float = 0.35
    m: int = 5
    out_dim: int = 1024
    securities: tuple[int, ...] = (55, 80, 100)
    pinned: bool = True  # sizes are those of the pinned CSVs


class GsSweep:
    """One op is a full GAR-security sweep over both fusion modes."""

    name = "gs-sweep"
    primary = "sweep"
    min_ops = 2
    traced_ops = 1

    def __init__(self, seed: int, sizes: GsSizes, workdir: Path, in_process: bool):
        self.sizes = sizes
        self.dataset = self._population(derive_seed(seed, "population"))
        self.config_seed = derive_seed(seed, "config")
        self.k_list = sorted({evaluate.params_for_security(sizes.m, s).k_symbols
                              for s in sizes.securities})
        self.outputs: list[str] = []

    def _population(self, seed: int):
        s = self.sizes
        return synth.gen_population(s.subjects, s.samples, s.dim, s.dim,
                                    between_std=1.0, within_std=s.within_std,
                                    seed=seed)

    def _sweep(self, dataset, config_seed: int) -> dict[str, str]:
        csvs = {}
        for mode in FUSIONS:
            config = pipeline.PipelineConfig(
                m=self.sizes.m, k_symbols=self.k_list[0], fusion_mode=mode,
                out_dim=self.sizes.out_dim, seed=config_seed)
            points = evaluate.run_gs_curve(dataset, config, self.k_list)
            csvs[mode] = evaluate.gs_curve_csv(points)
        return csvs

    def _well_formed(self, text: str) -> bool:
        lines = text.splitlines()
        if lines[0] != evaluate.GS_CSV_HEADER or len(lines) != 1 + len(self.k_list):
            return False
        for line, k in zip(lines[1:], self.k_list):
            m, k_sym, sec, _rate, gar, far, far_emp, scheme, policy, _ = line.split(",")
            security = k * self.sizes.m
            if (int(m), int(k_sym), int(sec)) != (self.sizes.m, k, security):
                return False
            if not 0.0 <= float(gar) <= 1.0 or far_emp != "":
                return False
            if float(far) != evaluate.far_analytic(security):
                return False
            if (scheme, policy) != (SS, "fallback"):
                return False
        return True

    def op(self, i: int) -> tuple[str, bool]:
        csvs = self._sweep(self.dataset, self.config_seed)
        text = "".join(csvs[mode] for mode in FUSIONS)
        ok = all(self._well_formed(csvs[mode]) for mode in FUSIONS)
        ok &= not self.outputs or text == self.outputs[0]  # deterministic
        self.outputs.append(text)
        return "sweep", ok

    def reset(self):
        self.outputs = []

    def verify(self) -> list[bool]:
        if not self.sizes.pinned:
            return []
        pop_seed, config_seed = GS_PINNED_SEEDS
        csvs = self._sweep(self._population(pop_seed), config_seed)
        return [hashlib.sha256(csvs[mode].encode()).hexdigest() == GS_PINNED[mode]
                for mode in FUSIONS]

    def named(self, times: dict[str, list[float]]) -> dict[str, float]:
        return {"sweep_s": statistics.median(times["sweep"])}


# -- far-mc -------------------------------------------------------------------

FAR_K = (1, 2, 3)
FAR_ALPHA = 1e-9  # chance that a correct binomial count falls outside its bound


def binomial_bounds(trials: int, p: float, alpha: float = FAR_ALPHA) -> tuple[int, int]:
    """Smallest [lo, hi] holding a Binomial(trials, p) count with prob >= 1 - alpha."""
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(trials + 1)
    cdf = 0.0
    lo = None
    for x in range(trials + 1):
        cdf += math.exp(log_n - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
                        + x * log_p + (trials - x) * log_q)
        if lo is None and cdf > alpha / 2:
            lo = x
        if cdf >= 1.0 - alpha / 2:
            return lo, x
    return lo, trials


@dataclass(frozen=True)
class FarSizes:
    subjects: int = 6
    samples: int = 4
    dim: int = 16
    within_std: float = 0.2
    m: int = 3
    out_dim: int = 64
    trials: int = 1000  # per (scheme, K) batch


class FarMc:
    """One op is a round: one stolen-key uniform-bit FAR batch per (scheme, K)."""

    name = "far-mc"
    primary = "round"
    min_ops = 3
    traced_ops = 1

    def __init__(self, seed: int, sizes: FarSizes, workdir: Path, in_process: bool):
        self.seed = seed
        self.sizes = sizes
        self.dataset = synth.gen_population(
            sizes.subjects, sizes.samples, sizes.dim, sizes.dim,
            between_std=1.0, within_std=sizes.within_std,
            seed=derive_seed(seed, "population"))
        config_seed = derive_seed(seed, "config")
        self.configs = [
            pipeline.PipelineConfig(m=sizes.m, k_symbols=k, scheme=scheme,
                                    out_dim=sizes.out_dim, seed=config_seed)
            for k in FAR_K for scheme in (SS, FC)
        ]
        self.batch_bounds = {k: self._bounds(sizes.trials, k) for k in FAR_K}
        self.reset()

    def _bounds(self, trials: int, k: int) -> tuple[int, int]:
        return binomial_bounds(trials, 2.0 ** -(self.sizes.m * k))

    def op(self, i: int) -> tuple[str, bool]:
        ok = True
        counts = []
        n = self.sizes.trials
        for j, config in enumerate(self.configs):
            rate = evaluate.empirical_far(
                self.dataset, config, evaluate.SCENARIO_STOLEN_KEY, n,
                seed=derive_seed(self.seed, "trials", i, j))
            accepts = round(rate * n)
            k = config.k_symbols
            lo, hi = self.batch_bounds[k]
            ok &= lo <= accepts <= hi
            self.accepts[k] += accepts
            self.trials[k] += n
            counts.append(accepts)
        self.outputs.append(tuple(counts))
        return "round", ok

    def reset(self):
        self.accepts = {k: 0 for k in FAR_K}
        self.trials = {k: 0 for k in FAR_K}
        self.outputs = []

    def verify(self) -> list[bool]:
        """The pooled accept rate of every K obeys the 2^-k law."""
        checks = []
        for k in FAR_K:
            lo, hi = self._bounds(self.trials[k], k)
            checks.append(lo <= self.accepts[k] <= hi)
        return checks

    def named(self, times: dict[str, list[float]]) -> dict[str, float]:
        trials = len(self.configs) * self.sizes.trials * len(times["round"])
        return {"far_trials_per_s": trials / sum(times["round"])}


# -- matcher-m8 ---------------------------------------------------------------

# Request pattern per victim: genuine, genuine, stolen-key impostor. With
# two genuine requests in three the median falls inside the genuine
# (corrected-decode) latency mode instead of on the gap between the modes.
MATCHER_PATTERN = (True, True, False)


@dataclass(frozen=True)
class MatcherSizes:
    subjects: int = 24
    samples: int = 8
    dim: int = 64
    # Genuine probes carry ~65 +- 8 symbol errors against t = 111, so every
    # one decodes CORRECTED (within_std 0.1 reaches t within 3 sigma).
    within_std: float = 0.07
    m: int = 8
    k_symbols: int = 32
    out_dim: int = 4096
    traced_requests: int = 48


class MatcherM8:
    """Enrolls every subject (writes), then serves auth requests (reads)."""

    name = "matcher-m8"
    primary = "auth"
    min_ops = 1

    def __init__(self, seed: int, sizes: MatcherSizes, workdir: Path, in_process: bool):
        self.sizes = sizes
        self.workdir = workdir
        self.dataset = synth.gen_population(
            sizes.subjects, sizes.samples, sizes.dim, sizes.dim,
            between_std=1.0, within_std=sizes.within_std,
            seed=derive_seed(seed, "population"))
        self.config = pipeline.PipelineConfig(
            m=sizes.m, k_symbols=sizes.k_symbols, scheme=FC,
            fusion_mode="fca", out_dim=sizes.out_dim, seed=derive_seed(seed, "config"))
        self.weights = pipeline.build_weights(self.config, sizes.dim, sizes.dim)
        fused = pipeline.fuse_dataset(self.dataset, self.weights)
        self.pop = pipeline.population_from_fused(fused)
        cut = pipeline.enroll_split(sizes.samples)
        self.enroll_rows = {sid: mat[:cut] for sid, mat in fused.items()}
        self.code = self.config.build_code()
        self.subjects = self.dataset.subject_ids
        self.traced_ops = len(self.subjects) + sizes.traced_requests
        self.phase = 0
        self.reset()

    def reset(self):
        """Empty stores, so the enrollments can run again."""
        self.phase += 1
        root = self.workdir / f"store{self.phase}"
        self.db = store.TemplateDb(root / "templates")
        self.keys = store.KeyStore(root / "keys")
        self.outputs: list[bool] = []

    def op(self, i: int) -> tuple[str, bool]:
        n_subjects = len(self.subjects)
        if i < n_subjects:
            sid = self.subjects[i]
            enr = pipeline.enroll_vectors(self.config, self.code, self.enroll_rows[sid],
                                          self.pop, subject_id=sid)
            self.db.save(sid, enr.record)
            self.keys.save(sid, enr.key)
            return "enroll", True
        r = i - n_subjects
        victim_idx = (r // len(MATCHER_PATTERN)) % n_subjects
        genuine = MATCHER_PATTERN[r % len(MATCHER_PATTERN)]
        victim = self.subjects[victim_idx]
        owner = victim if genuine else self.subjects[(victim_idx + 1) % n_subjects]
        held_out = _held_out(self.sizes.samples)
        sample = held_out[r % len(held_out)]
        record = self.db.load(victim)
        key = self.keys.load(victim)
        vec = fusion.fuse(fusion.Embedding(self.dataset.face[owner][sample], "face"),
                          fusion.Embedding(self.dataset.iris[owner][sample], "iris"),
                          self.weights)
        decision = sketch.authenticate(pipeline.probe_bits(vec, self.pop, key),
                                       record, self.code)
        self.outputs.append(decision.accepted)
        return "auth", decision.accepted == genuine

    def verify(self) -> list[bool]:
        return []

    def named(self, times: dict[str, list[float]]) -> dict[str, float]:
        return {
            "auth_p50_ms": statistics.median(times["auth"]) * 1e3,
            "auth_tail_ms": tail_of(times["auth"])[0] * 1e3,
            "enroll_p50_ms": statistics.median(times["enroll"]) * 1e3,
        }


# -- cli-auth -----------------------------------------------------------------

@dataclass(frozen=True)
class CliSizes:
    subjects: int = 50
    samples: int = 20
    dim: int = 64
    within_std: float = 0.35
    m: int = 5
    k_symbols: int = 20
    out_dim: int = 1024
    enrolled: int = 4


class CliAuth:
    """One op is a cold `biosketch auth` process; probes alternate accept/deny.

    In a traced run the same argument lists go to an in-process `cli.main`.
    """

    name = "cli-auth"
    primary = "process"
    min_ops = 2
    traced_ops = 4

    def __init__(self, seed: int, sizes: CliSizes, workdir: Path, in_process: bool):
        self.in_process = in_process
        self.workdir = workdir
        dataset = synth.gen_population(
            sizes.subjects, sizes.samples, sizes.dim, sizes.dim,
            between_std=1.0, within_std=sizes.within_std,
            seed=derive_seed(seed, "population"))
        synth.write_embeddings(dataset, workdir / "data.csv")
        config = pipeline.PipelineConfig(m=sizes.m, k_symbols=sizes.k_symbols,
                                         out_dim=sizes.out_dim,
                                         seed=derive_seed(seed, "config"))
        self.common = ["--dataset", str(workdir / "data.csv"), "--m", str(sizes.m),
                       "--k-symbols", str(sizes.k_symbols),
                       "--out-dim", str(sizes.out_dim), "--seed", str(config.seed),
                       "--templates-dir", str(workdir / "templates"),
                       "--keys-dir", str(workdir / "keys")]
        # Enroll as `biosketch enroll` would, and predict every decision.
        weights = pipeline.build_weights(config, sizes.dim, sizes.dim)
        fused = pipeline.fuse_dataset(dataset, weights)
        pop = pipeline.population_from_fused(fused)
        code = config.build_code()
        db = store.TemplateDb(workdir / "templates")
        keys = store.KeyStore(workdir / "keys")
        subjects = dataset.subject_ids
        cut = pipeline.enroll_split(sizes.samples)
        self.probes: list[tuple[str, str, int, bool]] = []
        for sid in subjects:
            if len(self.probes) == 2 * sizes.enrolled:
                break
            enr = pipeline.enroll_vectors(config, code, fused[sid][:cut], pop,
                                          subject_id=sid)
            db.save(sid, enr.record)
            keys.save(sid, enr.key)

            def accepted(owner, sample):
                r_b = pipeline.probe_bits(fused[owner][sample], pop, enr.key)
                return sketch.authenticate(r_b, enr.record, code).accepted

            genuine = next((j for j in range(sizes.samples) if accepted(sid, j)), None)
            if genuine is None:
                continue  # no sample of this subject is accepted; not probed
            impostor = subjects[-1 - len(self.probes) // 2]
            if accepted(impostor, 0):
                raise RuntimeError("impostor probe accepted at set-up")
            self.probes += [(sid, sid, genuine, True), (sid, impostor, 0, False)]
        if len(self.probes) < 2 * sizes.enrolled:
            raise RuntimeError("too few subjects with an accepted probe")
        self.outputs: list[str] = []

    def _run(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            return rc, out.getvalue()
        # The package comes from the PYTHONPATH this worker was started with.
        proc = subprocess.run([sys.executable, "-m", "biosketch.cli", *argv],
                              cwd=self.workdir, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout

    def op(self, i: int) -> tuple[str, bool]:
        subject, owner, sample, accept = self.probes[i % len(self.probes)]
        argv = ["auth", "--subject", subject, "--probe-subject", owner,
                "--probe-sample", str(sample), *self.common]
        rc, stdout = self._run(argv)
        lines = stdout.splitlines()
        last = lines[-1] if lines else ""
        self.outputs.append(f"{rc} {last}")
        # Exit 1 means deny only together with the DENY line; a traceback
        # also exits 1 and is a failure.
        expected = (0, "ACCEPT (") if accept else (1, "DENY (")
        ok = rc == expected[0] and last.startswith(expected[1])
        return ("main" if self.in_process else "process"), ok

    def reset(self):
        self.outputs = []

    def verify(self) -> list[bool]:
        return []

    def named(self, times: dict[str, list[float]]) -> dict[str, float]:
        return {"cli_auth_s": statistics.median(times["process"])}


# -- shared -------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (GsSweep, FarMc, MatcherM8, CliAuth)}

FULL = {
    "gs-sweep": GsSizes(),
    "far-mc": FarSizes(),
    "matcher-m8": MatcherSizes(),
    "cli-auth": CliSizes(),
}

# Seconds-scale inputs for the benchmark's own tests.
TINY = {
    "gs-sweep": GsSizes(subjects=6, samples=4, dim=8, m=3, out_dim=64,
                        securities=(3, 6), pinned=False),
    "far-mc": FarSizes(trials=200),
    "matcher-m8": MatcherSizes(subjects=4, samples=4, m=5, k_symbols=5,
                               out_dim=512, traced_requests=6),
    "cli-auth": CliSizes(subjects=6, samples=4, dim=8, m=3, k_symbols=1,
                         out_dim=64, enrolled=1),
}


def tail_of(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 100 samples that percentile would sit under p90, so the p90
    (nearest rank) stands in for the tail.
    """
    values = sorted(values)
    n = len(values)
    if n < 100:
        return values[math.ceil(0.9 * n) - 1], 90.0
    return values[n - 11], math.floor(1000.0 * (n - 10) / n) / 10
