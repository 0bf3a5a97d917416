"""Denoising a (rows, N) stack in one pipeline call equals denoising each row.

The references below are the scalar, one-signal code the batched pipeline
replaced, kept here verbatim in substance: Python-float sigma, per-level
rules on 1-D bands, the threshold from a band built over the whole sorted
curve, and the per-trial benchmark loop.  Every comparison is exact, except
that of the benchmark's coefficient-domain scores with time-domain errors,
which agree to rounding while the transform is orthonormal.
"""

import importlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nide.baselines
import nide.bench
from nide.baselines import _RULES, denoise_with, sure_threshold
from nide.bench import (ExperimentConfig, _paired_mse, _trial_seed, lambda_sweep, normalized_mse,
                        run_experiment)
from nide.denoise import SORTED_TOP, DenoiseConfig, _analyse, _shrink
from nide.noise_model import NoiseSpec, _level_ratios, _norm, gen_noise, theoretical_profile
from nide.signals import SIGNAL_NAMES, gen_signal
from nide.signature import white_band
from nide.wavelet import CoefficientSet, dwt_forward, dwt_inverse

N, LEVELS, LAM = 512, 5, 4.5
METHODS = ("nide", "visu", "sure", "bayes")
NOISES = {
    "white": NoiseSpec.white(),
    "ar1(0.8)": NoiseSpec.ar1(0.8),
    "ar1(-0.6)": NoiseSpec.ar1(-0.6),
    "ma": NoiseSpec.ma([1.0, 0.5, 0.25]),
}
# Known noise scales whose square Python's float power and numpy's array
# square round differently.
TRAP_SIGMAS = (5.682141868614868, 0.3808171146238585, 4.151589366717423)


def ref_visu(n, s):
    return float(s * np.sqrt(2.0 * np.log(n)))


def ref_sure(band, s):
    n = band.size
    universal = ref_visu(n, s)
    if (np.sum((band / s) ** 2) - n) / n <= np.log2(n) ** 1.5 / np.sqrt(n):
        return universal
    sq = np.sort(band**2)
    candidates = np.concatenate([[0.0], np.sqrt(sq)])
    cumsq = np.concatenate([[0.0], np.cumsum(sq)])
    k = np.arange(n + 1)
    risks = n * s**2 - 2.0 * s**2 * k + (cumsq + (n - k) * candidates**2)
    return min(float(candidates[np.argmin(risks)]), universal)


def ref_bayes(band, s):
    sigma_x = np.sqrt(max(np.mean(band**2) - s**2, 0.0))
    return float(np.max(np.abs(band))) if sigma_x == 0.0 else float(s**2 / sigma_x)


def ref_nide(details, values, s, profile):
    """None for a noise-free passthrough, else one threshold per level: the last
    in-band point of the pooled curve, each level divided by its noise ratio r_j under
    a profile, then times r_j and at most the level's largest magnitude."""
    peak = float(np.max(np.abs(values)))
    if s <= 1e-12 * peak or peak == 0.0:
        return None
    ratios = [1.0] * len(details) if profile is None else _level_ratios(profile, len(details))
    a = np.sort(np.concatenate([np.abs(b) / r for b, r in zip(details, ratios)]))
    g_mid = (np.arange(1, a.size + 1) - 0.5) / a.size
    inside = np.flatnonzero(white_band(a, s, a.size, LAM).contains(g_mid))
    t = float(a[inside[-1]]) if inside.size else 0.0
    if profile is None:
        return [t] * len(details)
    return [min(t * r, float(np.max(np.abs(b)))) for b, r in zip(details, ratios)]


def ref_denoise(method, row, sigma, config):
    """(threshold, denoised, kept, sigma) of the scalar one-signal pipeline."""
    coeffs = dwt_forward(row, LEVELS)
    bands = [b.copy() for b in coeffs.detail_bands] + [coeffs.approx_band.copy()]
    if sigma is None:
        sigma = float(np.median(np.abs(bands[0])) / 0.6745)
    if method == "nide":
        ts = ref_nide(bands[:-1], coeffs.values, sigma, config.profile)
        if ts is None:
            return 0.0, dwt_inverse(coeffs), int(np.count_nonzero(np.concatenate(bands[:-1]))), sigma
    else:
        floored = max(sigma, np.finfo(float).tiny)  # for the thresholds only
        if method == "visu":
            ts = [ref_visu(row.size, floored)] * LEVELS
        else:
            rule = ref_sure if method == "sure" else ref_bayes
            ts = [rule(b, floored) for b in bands[:-1]]
    shrunk = [np.sign(b) * np.maximum(np.abs(b) - t, 0.0) for b, t in zip(bands, ts)]
    kept = sum(np.count_nonzero(b) for b in shrunk)
    shrunk += bands[len(shrunk):]
    return max(ts), dwt_inverse(CoefficientSet(np.concatenate(shrunk), LEVELS)), kept, sigma


def stacked_rows(seed, spec, snrs, known):
    """Signal rows at the given SNRs (``spec`` has unit sigma), then three
    special rows: all zeros (passthrough), unit noise against a known sigma
    of 1e-9 (no point in band) and unit noise plus +/-30 steps (T* below the
    sorted top of the scan with a known sigma).  Returns the rows and their known
    sigmas."""
    rows, sigmas = [], []
    for i, snr in enumerate(snrs):
        truth = gen_signal(SIGNAL_NAMES[i % len(SIGNAL_NAMES)], N).samples
        noise = gen_noise(spec, N, seed + i)
        s = TRAP_SIGMAS[i % len(TRAP_SIGMAS)]
        gain = s * np.linalg.norm(noise) * 10.0 ** (snr / 20.0) / np.linalg.norm(truth)
        rows.append(gain * truth + s * noise)
        sigmas.append(s)
    rng = np.random.default_rng(seed)
    rows += [np.zeros(N), gen_noise(spec, N, seed + 101),
             gen_noise(spec, N, seed + 102) + 30.0 * rng.choice([-1.0, 1.0], N)]
    sigmas += [1.0, 1e-9, 1.0]
    return np.array(rows), np.array(sigmas) if known else None


def assert_same(got, want):
    threshold, denoised, kept, sigma = want
    assert got[0] == threshold
    assert np.array_equal(got[1], denoised)
    assert got[2] == kept
    assert got[3] == sigma


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    noise=st.sampled_from(sorted(NOISES)),
    known=st.booleans(),
    snrs=st.lists(st.sampled_from([1.0, 4.0, 8.0, 14.0, 30.0]), min_size=1, max_size=4),
)
def test_stack_equals_single_rows_and_scalar_reference(seed, noise, known, snrs):
    spec = NOISES[noise]
    profile = None if spec.kind == "white" else theoretical_profile(spec, N - 1)
    rows, sigmas = stacked_rows(seed, spec, snrs, known)
    for method in METHODS:
        config = DenoiseConfig(levels=LEVELS, lam=LAM,
                               profile=profile if method == "nide" else None)
        coeffs, used = _analyse(rows, LEVELS, sigmas)
        t, bands = _RULES[method](coeffs, used, config)
        values = np.empty_like(coeffs.values)
        _shrink(coeffs, t, values)
        threshold = t.max(axis=-1)
        kept = np.count_nonzero(values[:, : coeffs.detail_values().shape[-1]], axis=-1)
        denoised = dwt_inverse(CoefficientSet(values, LEVELS))
        for i, row in enumerate(rows):
            sigma = None if sigmas is None else float(sigmas[i])
            got = (threshold[i], denoised[i], kept[i], used[i])
            single = denoise_with(method, row, replace(config, sigma=sigma))
            assert_same(got, (single.threshold, single.denoised, single.coefficients_kept,
                              single.sigma_used))
            assert_same(got, ref_denoise(method, row, sigma, config))
            if method == "nide":
                band = bands[i] and bands[i]()
                assert (band is None) == (single.band is None)
                if band is not None:
                    assert np.array_equal(band.lower, single.band.lower)
                    assert np.array_equal(band.upper, single.band.upper)
        if method == "nide":
            zero, none_in_band, deep = range(len(snrs), len(snrs) + 3)
            assert bands[zero] is None and kept[zero] == 0
            if known:
                assert threshold[none_in_band] == 0.0
                assert bands[none_in_band] is not None
                assert kept[deep] > SORTED_TOP


def per_trial_arms(config):
    """``(key, observed, cfg, truth)`` of every trial and arm, in the order of
    the benchmark's per-trial loop before trials were batched."""
    profile = None
    if config.noise.kind != "white":
        profile = theoretical_profile(config.noise, config.n - 1)
    seeds = [_trial_seed(config.seed, trial) for trial in range(config.trials)]
    for raw_noise in gen_noise(config.noise, config.n, seeds):
        raw_norm = _norm(raw_noise)
        for name in config.signals:
            truth = gen_signal(name, config.n).samples
            truth_norm = _norm(truth)
            for snr in config.snr_db:
                scale = truth_norm * 10.0 ** (-snr / 20.0) / raw_norm
                observed = truth + raw_noise * scale
                sigma = config.noise.sigma * scale if config.sigma_policy == "known" else None
                for method in config.methods:
                    cfg = DenoiseConfig(levels=config.levels, lam=config.lam, sigma=sigma,
                                        profile=profile if method == "nide" else None)
                    yield (name, snr, method), observed, cfg, truth


def ref_trial_mses(config):
    """The benchmark's per-trial loop: each trial analysed and shrunk alone and
    scored on its coefficients against those of the truth."""
    mses = {}
    for key, observed, cfg, truth in per_trial_arms(config):
        coeffs, used = _analyse(observed[None], cfg.levels, cfg.sigma)
        values = np.empty_like(coeffs.values)
        _shrink(coeffs, _RULES[key[2]](coeffs, used, cfg)[0], values)
        theta = dwt_forward(truth, cfg.levels).values
        mse = float(np.sum((values[0] - theta) ** 2)) / _norm(theta) ** 2
        mses.setdefault(key, []).append(mse)
    return {key: np.array(values) for key, values in mses.items()}


PAIRED_CONFIGS = [
    # 70 trials at N = 2048 run as two blocks of 35 trials.
    ExperimentConfig(signals=("blocks",), snr_db=(4.0, 14.0), noise=noise, trials=70, seed=3,
                     sigma_policy=policy)
    for noise, policy in ((NoiseSpec.white(), "mad"), (NoiseSpec.ar1(0.8), "known"))
]


def test_paired_trials_equal_the_per_trial_loop():
    for config in PAIRED_CONFIGS:
        want = ref_trial_mses(config)
        got = _paired_mse(config, {m: (_RULES[m], config.lam) for m in config.methods})
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        for row in run_experiment(config).rows:
            values = want[(row.signal, row.snr_db, row.method)]
            assert row.mean_mse == float(np.mean(values))
            assert row.std_mse == float(np.std(values, ddof=1))
        sweep = lambda_sweep("blocks", 14.0, [4.5], trials=70, seed=3, noise=config.noise,
                             sigma_policy=config.sigma_policy)
        values = want[("blocks", 14.0, "nide")]
        assert sweep == [(4.5, float(np.mean(values)), float(np.std(values, ddof=1)))]


@pytest.mark.parametrize("config", PAIRED_CONFIGS, ids=("white-mad", "ar1-known"))
def test_coefficient_scores_equal_time_domain_errors(config):
    """Every arm's per-trial score equals the error of the denoised samples of
    ``denoise_with``: the benchmark scores shrunk coefficients without
    inverting them, which holds only for an orthonormal transform."""
    denoised = {}
    for key, observed, cfg, truth in per_trial_arms(config):
        denoised.setdefault(key, []).append(denoise_with(key[2], observed, cfg).denoised)
    got = _paired_mse(config, {m: (_RULES[m], config.lam) for m in config.methods})
    for (name, snr, method), rows in denoised.items():
        truth = gen_signal(name, config.n).samples
        want = normalized_mse(np.array(rows), truth)
        np.testing.assert_allclose(got[name, snr, method], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("noise, policy", [(NoiseSpec.white(), "mad"), (NoiseSpec.ar1(0.8), "known")],
                         ids=("white-mad", "ar1-known"))
def test_paired_trials_run_a_rule_outside_the_method_table(noise, policy):
    """An arm is a rule and a band width, not a method name: rules that are not in
    ``_RULES`` run, a wrapper of a baseline's rule scores that baseline's arm in every
    bit, and every arm, a baseline's too, is given the experiment's noise profile."""
    config = ExperimentConfig(signals=("blocks", "heavysine"), snr_db=(4.0, 14.0), noise=noise,
                              trials=12, seed=7, n=N, sigma_policy=policy)
    profiles = []

    def wrapped(method):
        def rule(coeffs, sigma, cfg):
            profiles.append(cfg.profile)
            return _RULES[method](coeffs, sigma, cfg)
        return rule

    arms = {m: (_RULES[m], LAM) for m in ("visu", "sure")}
    got = _paired_mse(config, arms | {f"wrapped {m}": (wrapped(m), LAM) for m in arms})
    for name in config.signals:
        for snr in config.snr_db:
            for m in arms:
                assert np.array_equal(got[name, snr, f"wrapped {m}"], got[name, snr, m])
    assert len(profiles) == 2 * len(config.signals) * len(config.snr_db)  # one block of trials
    if noise.kind == "white":
        assert all(p is None for p in profiles)
    else:
        want = theoretical_profile(noise, max_lag=N - 1).rho
        assert all(np.array_equal(p.rho, want) for p in profiles)


# Prints a digest of the per-trial scores of a run long enough (N = 16384) that
# a BLAS dot on two threads rounds differently from one on one thread.
_PAIRED_DIGEST = """
import hashlib
from nide.baselines import _RULES
from nide.bench import ExperimentConfig, _paired_mse
config = ExperimentConfig(signals=("blocks", "bumps"), snr_db=(4.0, 14.0), trials=4, n=16384)
mses = _paired_mse(config, {m: (_RULES[m], config.lam) for m in config.methods})
print(hashlib.sha256(b"".join(mses[key].tobytes() for key in sorted(mses))).hexdigest())
"""


def test_paired_trials_do_not_depend_on_the_blas_thread_count():
    """The per-trial scores are the same in every bit with BLAS on one thread
    and on two.  On a one-CPU host both runs take one thread, so the test
    cannot fail there."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _PAIRED_DIGEST], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def sure_rows(seed, n, dense):
    """Noise rows with a known sigma each; the rows flagged in ``dense`` also
    carry a sparse spike train that fails the sparsity test."""
    rng = np.random.default_rng(seed)
    sigmas = rng.choice(TRAP_SIGMAS + (1.0,), len(dense))
    rows = sigmas[:, None] * rng.standard_normal((len(dense), n))
    for row, s, spiky in zip(rows, sigmas, dense):
        if spiky:
            row[rng.choice(n, n // 8, replace=False)] += 12.0 * s
    return rows, sigmas


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.sampled_from([32, 256, 1024]),
    dense=st.one_of(
        st.lists(st.booleans(), min_size=1, max_size=8),
        st.integers(1, 8).map(lambda k: [False] * k),
        st.integers(1, 8).map(lambda k: [True] * k),
    ),
)
def test_sure_searches_only_dense_rows(seed, n, dense):
    """Hybrid SURE equals the one-row reference on mixed, all-sparse and
    all-dense stacks and on 1-D bands, and runs the risk search only on the
    rows that fail the sparsity test."""
    rows, sigmas = sure_rows(seed, n, dense)
    searched, search = [], nide.baselines.sure_minimizer
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nide.baselines, "sure_minimizer",
                      lambda band, sigma: searched.append(band.copy()) or search(band, sigma))
        t = sure_threshold(rows, sigmas)
    if any(dense):
        assert len(searched) == 1 and np.array_equal(searched[0], rows[np.array(dense)])
    else:
        assert searched == []
    assert t.shape == (len(dense),)
    for i, (row, s) in enumerate(zip(rows, sigmas)):
        assert t[i] == ref_sure(row, s)
        single = sure_threshold(row, s)
        assert isinstance(single, float) and single == t[i]


def test_one_analysis_per_stack(monkeypatch):
    """_paired_mse transforms each block of trials once per signal and SNR,
    whatever the number of arms, in the fewest blocks of at most
    _TRIAL_BLOCK_ELEMENTS samples, made as equal as possible."""
    module = importlib.import_module("nide.denoise")
    forward, calls = module.dwt_forward, []
    monkeypatch.setattr(module, "dwt_forward",
                        lambda x, levels: calls.append(x.shape) or forward(x, levels))
    arms = {m: (_RULES[m], LAM) for m in METHODS} | {"nide 3": (_RULES["nide"], 3.0)}
    # (trials, N): the blocks, each transformed once per signal and SNR (2 x 2).
    # The reference 100 trials at N = 2048 run as two blocks of 50, with no
    # short tail; at N = 4096 a block holds at most 32 trials, so 70 run as 23, 23, 24.
    for (trials, n), blocks in {(100, 2048): [50, 50], (70, 4096): [23, 23, 24]}.items():
        calls.clear()
        config = ExperimentConfig(signals=("blocks", "heavysine"), snr_db=(4.0, 14.0),
                                  trials=trials, seed=1, n=n)
        _paired_mse(config, arms)
        assert calls == [(b, n) for b in blocks for _ in range(4)]


@pytest.mark.parametrize("noise, policy", [(NoiseSpec.white(), "mad"),
                                           (NoiseSpec.ar1(0.8), "known")])
def test_ufunc_buffer_changes_no_score(monkeypatch, noise, policy):
    """The paired-trial loop's ufunc buffer changes how numpy iterates, not what it
    computes: run_experiment's rows and lambda_sweep's means are the same in every bit
    under numpy's default buffer and under the shipped one."""
    config = ExperimentConfig(signals=("blocks", "heavysine"), snr_db=(4.0, 14.0), trials=6,
                              seed=5, n=2048, noise=noise, sigma_policy=policy)
    sweep = dict(trials=6, seed=5, n=2048, noise=noise, sigma_policy=policy)
    runs = []
    for size in (8192, nide.bench._UFUNC_BUFFER):  # numpy's default, then the shipped one
        monkeypatch.setattr(nide.bench, "_UFUNC_BUFFER", size)
        runs.append((run_experiment(config).rows,
                     lambda_sweep("blocks", 8.0, [3.0, 4.5], **sweep)))
    assert runs[0] == runs[1]


def test_ufunc_buffer_is_scoped_to_the_loop():
    """The loop sets its buffer only while it runs: after run_experiment, and after an
    arm whose rule raises mid-loop, the caller's buffer size and error state are back."""
    seen = []

    def failing(coeffs, sigma, config):
        seen.append(np.getbufsize())
        if len(seen) == 2:
            raise RuntimeError("rule failed")
        return _RULES["visu"](coeffs, sigma, config)

    config = ExperimentConfig(signals=("blocks",), snr_db=(4.0, 8.0), trials=4, seed=2, n=512)
    with np.errstate(divide="ignore", over="ignore"):
        np.setbufsize(4096)
        caller = np.getbufsize(), np.geterr()
        run_experiment(config)
        assert (np.getbufsize(), np.geterr()) == caller
        with pytest.raises(RuntimeError, match="rule failed"):
            _paired_mse(config, {"failing": (failing, LAM)})
        assert (np.getbufsize(), np.geterr()) == caller
    assert seen == [nide.bench._UFUNC_BUFFER] * 2
