"""Benchmark harness: MSE experiment matrices, band traces, Monte Carlo
validation of the analytic signature statistics, and the command line tool.

Subcommands
-----------
``bench``         run a (signal x method x SNR) matrix and write a table
``trace``         emit the sorted-coefficient curve and its noise band
``mc``            run one of the named statistical self-checks
``lambda-sweep``  mean MSE of the invalidation threshold across band widths
``denoise-file``  denoise a single-column CSV of samples

Determinism: every draw derives from the user-supplied seed, so identical
configurations produce byte-identical outputs.  ``bench``, ``lambda-sweep``,
``appendixD`` and ``coverage`` seed each trial or run from the seed and its
index; ``appendixA``-``appendixC`` draw all their runs from one generator seeded
by the seed, and ``trace`` draws its one realization from the seed itself.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field, asdict, astuple, fields
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import _RULES
from .denoise import DenoiseConfig, _analyse, _shrink, denoise
from .noise_model import SNR_DB_MIN, NoiseSpec, _check_snr, _norm, gen_noise, theoretical_profile
from .signals import canonical_name, gen_signal
from .signature import colored_variance_bound, empirical_signature, white_band
from .wavelet import dwt_forward
from .gaussian_stats import _check_count, abs_noise_cdf, shifted_abs_cdf

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentResult",
    "normalized_mse",
    "run_experiment",
    "emit_band_trace",
    "lambda_sweep",
    "mc_validate",
    "McReport",
    "MC_CHECKS",
    "main",
]

METHODS = tuple(_RULES)
SIGMA_POLICIES = ("mad", "known")
COVERAGE_FLOOR = 0.999  # least per-z coverage the coverage check asks of the white band
# The mc checks run on unit-variance noise, so z is in units of sigma.
THETA = 1.5  # appendixC's coefficient shift
AR = 0.8  # appendixD's AR(1) coefficient
Z_MAX = 4.0  # top of appendixD's and coverage's default z grid

# Largest (trials x N) array the paired-trial loop denoises in one call: 64
# trials at N = 2048, so the reference 100 trials run as two even blocks of 50.
# Each block pays a fixed cost per signal, SNR and arm, and its (trials x N)
# temporaries grow with it.  Measured with perfbench under the loop's ufunc buffer
# (_UFUNC_BUFFER; 8 s runs, seeds 911-913, the caps alternating within each seed, median
# calls/s and peak RSS; white-matrix | ar1-matrix):
#   2^16, 4 blocks of 25:     25.9k, 62.0-62.3 MB | 22.1k, 62.4-62.7 MB
#   2^17, 2 blocks of 50:     33.7k, 64.2-64.8 MB | 26.5k, 64.7-65.0 MB
#   2^18, 1 block of 100:     32.6k, 68.4-68.5 MB | 28.6k, 68.5-68.7 MB
# 2^18 is no faster on white and 8% faster on ar1, for 6% more peak RSS, a cost
# that grows with N while the gain does not.
_TRIAL_BLOCK_ELEMENTS = 1 << 17

# numpy's ufunc buffer, in elements, while the paired-trial loop runs (numpy's default is
# 8192).  A ufunc over row slices of a (50, 2048) block, with a broadcast operand such as a
# per-row (50, 1) threshold or scale, or with an output that overlaps an input, can run
# through numpy's buffered iteration, and then costs more per element the larger the
# buffer.  Per element, on one shared 2-vCPU host, at 8192 against 1024:
# np.clip of a (50, 1024) level slice to a (50, 1) bound 2.5-3.8 ns against 0.5-1.0, and
# soft_threshold's in-place subtract on the (50, 1984) slice of every detail 1.1-1.5 against
# 0.4-0.6; the 64-wide coarsest level's clip takes 4-6 either way.  So every shrink pays,
# the per-level ones of SURE, Bayes and nide under a profile most.  Median run_experiment
# calls/s against 8192, white | ar1(0.8) matrix, N = 2048, 100 trials:
#   256: +21% | +25%   512: +24% | +21%   1024: +27% | +26%
#   2048: +26% | +23%  4096: +8% | +5%
# No arithmetic changes, so every score is the same in every bit.
_UFUNC_BUFFER = 1024


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON and a newline; numpy scalars become floats."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def _write_table(path, header, rows) -> None:
    """Write ``rows`` (tuples in ``header`` order) as a JSON list of objects for a
    ``path`` ending in ``.json`` and as CSV otherwise; every float keeps six
    significant digits."""
    if str(path).endswith(".json"):
        _write_json(path, [{k: float(_fmt(v)) if isinstance(v, float) else v
                            for k, v in zip(header, row)} for row in rows])
        return
    with open(path, "w") as fh:
        for row in (header, *rows):
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _trial_seed(seed: int, *indices: int) -> int:
    """Derive an independent child seed from the master seed and an index path."""
    ss = np.random.SeedSequence([int(seed), *map(int, indices)])
    return int(ss.generate_state(1, np.uint64)[0])


def normalized_mse(estimate, truth):
    """Reconstruction error ``|estimate - truth|^2 / |truth|^2``.

    ``truth`` is one signal; a 1-D ``estimate`` gives a float, a ``(rows, N)`` stack one
    value per row.  Both may be orthonormal-transform coefficients (Parseval).
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if truth.ndim != 1 or estimate.shape[-1:] != truth.shape:
        raise ValueError("truth must be 1-D and as long as the estimate's last axis")
    truth_norm = _norm(truth)
    if truth_norm == 0:
        raise ValueError("truth has zero energy")
    out = np.sum((estimate - truth) ** 2, axis=-1) / truth_norm**2
    return float(out) if out.ndim == 0 else out


def _distinct(name, values) -> tuple:
    """``values`` as a tuple, which must be nonempty and hold no value twice."""
    values = tuple(values)
    if not values or len(set(values)) < len(values):
        raise ValueError(f"{name} must be nonempty with no value twice, got {list(values)}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run; ``run_experiment``, ``lambda_sweep``
    and ``emit_band_trace`` check their settings through it."""

    signals: tuple[str, ...]
    snr_db: tuple[float, ...]
    methods: tuple[str, ...] = METHODS
    noise: NoiseSpec = NoiseSpec.white()
    trials: int = 100
    seed: int = 0
    levels: int = DenoiseConfig.levels
    lam: float = DenoiseConfig.lam
    n: int = 2048
    sigma_policy: str = "mad"

    def __post_init__(self):
        object.__setattr__(self, "signals", _distinct("signals", map(canonical_name, self.signals)))
        object.__setattr__(self, "snr_db", _distinct("snr_db", map(float, self.snr_db)))
        _check_snr(self.snr_db)
        object.__setattr__(self, "methods", _distinct("methods", self.methods))
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        _check_count(1, trials=self.trials, n=self.n, levels=self.levels)
        _check_count(0, seed=self.seed)
        if self.sigma_policy not in SIGMA_POLICIES:
            raise ValueError(f"sigma_policy must be one of {SIGMA_POLICIES}")


@dataclass
class ExperimentRow:
    signal: str
    method: str
    snr_db: float
    noise: str
    mean_mse: float
    std_mse: float
    trials: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ExperimentRow]

    def write(self, path) -> None:
        """Write the rows as JSON for a ``path`` ending in ``.json``, else as CSV."""
        _write_table(path, [f.name for f in fields(ExperimentRow)], map(astuple, self.rows))

    def mean_mse(self, signal: str, method: str, snr_db: float) -> float:
        for r in self.rows:
            if r.signal == signal and r.method == method and r.snr_db == float(snr_db):
                return r.mean_mse
        raise KeyError((signal, method, snr_db))


def _noise_profile(noise: NoiseSpec, n: int):
    """The correlation profile of colored noise, from which nide's rule standardizes each
    detail level, or None for white noise."""
    return theoretical_profile(noise, max_lag=n - 1) if noise.kind != "white" else None


def _paired_mse(config: ExperimentConfig, arms):
    """Per-trial normalized MSE, ``{(signal, snr, arm): array of trials}``.

    ``arms`` maps a key to a ``(rule, lam)`` pair: a threshold rule, such as a value of
    :data:`nide.baselines._RULES`, and the band width it runs with.  Every other setting,
    the noise profile included, comes from ``config``.  One noise vector is drawn per trial
    (from the trial-indexed child seed) and reused, rescaled, across every signal, SNR and
    arm, so comparisons are paired.
    The trials run in the fewest blocks of at most ``_TRIAL_BLOCK_ELEMENTS`` samples, as
    equal as possible (100 trials at N = 2048 as 50 + 50); every row is denoised on its own,
    so the split changes no score.  Each block is analysed once per signal and SNR; every arm
    shrinks it into one buffer and is scored there on coefficients, with no inverse: that
    needs an orthonormal transform.
    """
    n, noise, trials, snrs, seed = config.n, config.noise, config.trials, config.snr_db, config.seed
    profile = _noise_profile(noise, n)
    arms = {key: (DenoiseConfig(levels=config.levels, lam=lam, profile=profile), rule)
            for key, (rule, lam) in arms.items()}
    truths = {name: gen_signal(name, n).samples for name in config.signals}
    thetas = {name: dwt_forward(truth, config.levels).values for name, truth in truths.items()}
    theta_sq = {name: _norm(theta) ** 2 for name, theta in thetas.items()}
    mses = {(name, snr, key): np.empty(trials) for name in truths for snr in snrs for key in arms}
    noises = gen_noise(noise, n, [_trial_seed(seed, t) for t in range(trials)])
    count = -(-trials // max(1, _TRIAL_BLOCK_ELEMENTS // n))
    with np.errstate():  # restores the caller's buffer size on leaving (numpy >= 2.0)
        np.setbufsize(_UFUNC_BUFFER)
        for i in range(count):
            start, stop = trials * i // count, trials * (i + 1) // count
            raw = noises[start:stop]
            raw_norm = _norm(raw)
            for name, truth in truths.items():
                truth_norm = _norm(truth)
                for snr in snrs:
                    scale = truth_norm * 10.0 ** (-snr / 20.0) / raw_norm
                    observed = raw * scale[:, None]
                    observed += truth
                    sigma = noise.sigma * scale if config.sigma_policy == "known" else None
                    coeffs, used = _analyse(observed, config.levels, sigma)
                    out = np.empty_like(coeffs.values)
                    for key, (cfg, rule) in arms.items():
                        _shrink(coeffs, rule(coeffs, used, cfg)[0], out)
                        # normalized_mse's arithmetic, in the buffer the next arm overwrites
                        np.subtract(out, thetas[name], out=out)
                        np.multiply(out, out, out=out)
                        mses[name, snr, key][start:stop] = np.sum(out, axis=-1) / theta_sq[name]
    return mses


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the benchmark matrix described by ``config``.

    Method comparisons are paired: every method denoises the same noise
    draws (see :func:`_paired_mse`).
    """
    mses = _paired_mse(config, {m: (_RULES[m], config.lam) for m in config.methods})
    noise_label = config.noise.describe()
    rows = [
        ExperimentRow(name, method, float(snr), noise_label,
                      *_mean_std(mses[(name, snr, method)]), config.trials)
        for name in config.signals for method in config.methods for snr in config.snr_db
    ]
    return ExperimentResult(config=config, rows=rows)


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    return float(np.mean(values)), float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def emit_band_trace(signal: str, snr_db: float, path, **experiment) -> None:
    """Write the sorted-coefficient curve of one noisy realization together
    with the noise band ``denoise`` selected against, with columns z, empirical,
    lower, upper: a JSON list of rows for a ``path`` ending in ``.json``, else CSV.
    ``empirical`` is (m - 1/2) / N, the position ``denoise`` tests, so the last
    row inside the band is the threshold.  Under colored noise z is the curve
    standardized level by level (see :class:`~nide.denoise.DenoiseResult`), so the
    last in-band row is T*, before each level's noise ratio.

    ``experiment`` takes the :class:`ExperimentConfig` fields but ``trials``
    (noise, seed, lam, n, levels, sigma_policy), with their defaults and
    validation.  The one noise draw comes from ``seed`` itself.
    """
    if "trials" in experiment:
        raise TypeError("emit_band_trace() draws one realization, so it takes no trials")
    config = ExperimentConfig(signals=(signal,), snr_db=(snr_db,), methods=("nide",), **experiment)
    noise, n = config.noise, config.n
    truth = gen_signal(config.signals[0], n).samples
    raw = gen_noise(noise, n, config.seed)
    scale = _norm(truth) * 10.0 ** (-config.snr_db[0] / 20.0) / _norm(raw)
    sigma = noise.sigma * scale if config.sigma_policy == "known" else None
    denoise_config = DenoiseConfig(levels=config.levels, lam=config.lam, sigma=sigma,
                                   profile=_noise_profile(noise, n))
    band = denoise(raw * scale + truth, denoise_config).band
    if band is None:
        raise ValueError("the input is noise free (denoise passed it through), so there is no band")
    g = (np.arange(1, band.n + 1) - 0.5) / band.n  # band.z_grid is the sorted curve
    _write_table(path, ("z", "empirical", "lower", "upper"),
                 zip(band.z_grid, g, band.lower, band.upper))


def lambda_sweep(signal: str, snr_db: float, lambdas, **experiment):
    """Mean normalized MSE of the invalidation threshold per band width.

    ``experiment`` takes the :class:`ExperimentConfig` fields but ``lam``
    (trials, seed, noise, n, levels, sigma_policy), with their defaults and
    validation.  Returns a list of ``(lam, mean_mse, std_mse)`` tuples
    over the same paired noise draws.
    """
    if "lam" in experiment:
        raise TypeError("lambda_sweep() takes its band widths from lambdas, not lam")
    config = ExperimentConfig(signals=(signal,), snr_db=(snr_db,), methods=("nide",), **experiment)
    lambdas = _distinct("lambdas", map(float, lambdas))
    mses = _paired_mse(config, {l: (_RULES["nide"], l) for l in lambdas})
    return [(l, *_mean_std(mses[config.signals[0], config.snr_db[0], l])) for l in lambdas]


# ---------------------------------------------------------------------------
# Monte Carlo validation of the analytic statistics
# ---------------------------------------------------------------------------


@dataclass
class McReport:
    check: str
    params: dict
    runs: int
    seed: int
    passed: bool
    rows: list[dict] = field(default_factory=list)
    summary: str = ""

    def text(self) -> str:
        lines = [f"check={self.check} runs={self.runs} seed={self.seed}"]
        for row in self.rows:
            lines.append("  " + "  ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in row.items()))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}  {self.summary}")
        return "\n".join(lines)


def _signature_values(kind: str, z: float, v: np.ndarray) -> np.ndarray:
    """Evaluate the ``indicator`` or ``gaussian`` per-sample signature function elementwise."""
    if kind == "indicator":
        return (np.abs(v) <= z).astype(float)
    return np.exp(-(v**2) / (2.0 * z**2))  # gaussian


def _signature_moments(kind: str, z: float) -> tuple[float, float]:
    """Closed-form per-sample mean and variance of the signature function of unit noise."""
    if kind == "indicator":
        F = abs_noise_cdf(z, 1.0)
        return F, F * (1.0 - F)
    mean = z / np.sqrt(z**2 + 1.0)  # gaussian
    second = z / np.sqrt(z**2 + 2.0)
    return mean, second - mean**2


def _z_values(z, default) -> np.ndarray:
    """The z values a check runs at: ``z`` when given, else ``default``."""
    return np.atleast_1d(np.asarray(default if z is None else z, dtype=float))


def _check_averaged_signature(signature, runs, seed, *, n=2048, z=None):
    """Shared engine: MC mean/variance of the N-averaged signature vs theory."""
    zs = _z_values(z, [0.5, 1.0, 2.0])
    rng = np.random.default_rng(seed)
    V = rng.normal(0.0, 1.0, size=(runs, n))
    rows, ok = [], True
    for z in zs:
        g = _signature_values(signature, z, V).mean(axis=1)
        mean_th, var_th = _signature_moments(signature, z)
        var_av = var_th / n
        mc_mean, mc_var = float(g.mean()), float(g.var(ddof=1))
        se = np.sqrt(var_av / runs)
        mean_dev = abs(mc_mean - mean_th) / se if se > 0 else 0.0
        var_rel = abs(mc_var - var_av) / var_av if var_av > 0 else 0.0
        row_ok = bool(mean_dev <= 5.0 and var_rel <= 0.20)
        ok &= row_ok
        rows.append(
            {
                "z": float(z),
                "mc_mean": mc_mean,
                "analytic_mean": float(mean_th),
                "mean_dev_se": float(mean_dev),
                "mc_var": mc_var,
                "analytic_var": float(var_av),
                "var_rel_err": float(var_rel),
                "ok": row_ok,
            }
        )
    summary = f"signature={signature} mean within 5 SE and variance within 20% at every z: {ok}"
    return rows, ok, summary


def _check_shifted_mean(runs, seed, *, n=2048, z=None):
    zs = _z_values(z, [0.5, 1.0, 1.5, 2.0, 3.0])
    rng = np.random.default_rng(seed)
    V = rng.normal(0.0, 1.0, size=(runs, n))
    shifted = np.abs(THETA + V)
    rows, ok = [], True
    for z in zs:
        mc_mean = float((shifted <= z).mean())
        H = shifted_abs_cdf(float(z), THETA, 1.0)
        se = np.sqrt(max(H * (1.0 - H), 1e-30) / (runs * n))
        dev = abs(mc_mean - H) / se if se > 0 else 0.0
        row_ok = bool(dev <= 5.0)
        ok &= row_ok
        rows.append(
            {"z": float(z), "mc_mean": mc_mean, "analytic_mean": float(H),
             "mean_dev_se": float(dev), "ok": row_ok}
        )
    return rows, ok, f"shifted-coefficient curve mean within 5 SE at every z (theta={THETA:g})"


def _check_colored_bound(runs, seed, *, n=1024, z=None):
    spec = NoiseSpec.ar1(AR)
    zs = _z_values(z, np.linspace(Z_MAX / 50, Z_MAX, 50))
    noises = gen_noise(spec, n, [_trial_seed(seed, run) for run in range(runs)])
    g = np.array([empirical_signature(zs, row) for row in noises])
    mc_var = g.var(axis=0, ddof=1)
    profile = theoretical_profile(spec, max_lag=n - 1)
    bound = colored_variance_bound(zs, 1.0, profile, n)
    violations = int(np.sum(mc_var > bound))
    rows = [
        {"z": float(z), "mc_var": float(v), "bound": float(b), "ok": bool(v <= b)}
        for z, v, b in zip(zs, mc_var, bound)
    ]
    return rows, violations <= 1, f"{violations}/{zs.size} grid points exceed the bound (allowed 1)"


def _check_coverage(runs, seed, *, n=2048, z=None):
    zs = _z_values(z, np.linspace(0.0, Z_MAX, 30))
    band = white_band(zs, 1.0, n, DenoiseConfig.lam)
    hits = np.zeros(zs.size)
    for run in range(runs):
        rng = np.random.default_rng(_trial_seed(seed, run))
        g = empirical_signature(zs, rng.normal(0.0, 1.0, n))
        hits += band.contains(g)
    coverage = hits / runs
    rows = [
        {"z": float(z), "coverage": float(c), "ok": bool(c >= COVERAGE_FLOOR)}
        for z, c in zip(zs, coverage)
    ]
    ok = bool(np.all(coverage >= COVERAGE_FLOOR))
    return rows, ok, f"min per-z coverage {coverage.min():.5f} vs floor {COVERAGE_FLOOR}"


# Check identifiers follow the layout of the statistical derivations they
# verify (see README).  Each maps to its check, ``(runs, seed, *, n, z)``, and
# the least number of runs it needs: the checks that estimate a variance need two.
_CHECKS = {
    "appendixA": (partial(_check_averaged_signature, "gaussian"), 2),
    "appendixB": (partial(_check_averaged_signature, "indicator"), 2),
    "appendixC": (_check_shifted_mean, 1),
    "appendixD": (_check_colored_bound, 2),
    "coverage": (_check_coverage, 1),
}
MC_CHECKS = tuple(_CHECKS)


def mc_validate(check: str, params: dict | None = None, runs: int = 2000, seed: int = 0) -> McReport:
    """Run one Monte Carlo self-check of the analytic statistics.

    ``appendixA``  averaged-signature mean/variance for a smooth bounded
                   signature function under IID Gaussian noise
    ``appendixB``  the same for the indicator signature (empirical CDF of
                   absolute values): mean F, variance F(1-F)/N
    ``appendixC``  mean of the indicator curve for coefficients shifted by THETA vs H
    ``appendixD``  MC variance of the sorted curve under AR(1) noise (coefficient AR)
                   stays below the analytic bound at all but one of 50 z values
    ``coverage``   per-z coverage of the default white-noise band is at least 0.999

    Every check draws unit-variance noise.  ``params`` may set ``n`` (samples per
    run) and ``z`` (in place of the check's default grid); another key, a
    non-integer or nonpositive ``n``, or an empty, negative or non-finite ``z`` is
    rejected with ``ValueError``, as is z = 0 for ``appendixA``.
    """
    params = dict(params or {})
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {MC_CHECKS}")
    run_check, least = _CHECKS[check]
    unknown = set(params) - {"n", "z"}
    if unknown:
        raise ValueError(f"check {check} takes only n and z, not {', '.join(sorted(unknown))}")
    _check_count(1, n=params.get("n", 1))
    if params.get("z") is not None:
        zs = np.asarray(params["z"], dtype=float)
        if not (zs.size and np.all((0 <= zs) & (zs < np.inf))):
            raise ValueError(f"z must be nonempty, finite and nonnegative, got {params['z']!r}")
        if check == "appendixA" and np.any(zs == 0):
            raise ValueError("check appendixA divides by z (exp(-v^2 / 2z^2)), so z must be positive")
    _check_count(least, runs=runs)
    _check_count(0, seed=seed)
    rows, ok, summary = run_check(runs, seed, **params)
    return McReport(check=check, params=params, runs=runs, seed=seed, passed=ok,
                    rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------


def _parse_list(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def _parse_floats(text: str) -> list[float]:
    return [float(item) for item in _parse_list(text)]


def _add_model(parser):
    parser.add_argument("--levels", type=int, default=DenoiseConfig.levels)
    parser.add_argument("--noise", default="white", help="white | ar1:<a> | ma:<t1,t2,...>")


def _add_common(parser):
    parser.add_argument("--out", required=True, help="CSV, or JSON for a name ending in .json")
    _add_model(parser)
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    parser.add_argument("--length", type=int, default=ExperimentConfig.n,
                        help="signal length (power of two)")
    parser.add_argument("--sigma-policy", choices=SIGMA_POLICIES,
                        default=ExperimentConfig.sigma_policy)


def _common(args) -> dict:
    """The :class:`ExperimentConfig` fields that :func:`_add_common`'s flags set."""
    return dict(noise=NoiseSpec.parse(args.noise), seed=args.seed, levels=args.levels,
                n=args.length, sigma_policy=args.sigma_policy)


def _add_experiment(parser):
    """Flags of the paired-trial commands: :func:`_add_common`'s and ``--trials``."""
    parser.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    _add_common(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nide",
        description="Signal denoising by noise invalidation, with benchmark tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run an MSE comparison matrix")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--signal", default="blocks", help="comma separated signal names")
    p.add_argument("--method", default=",".join(METHODS), help="comma separated methods")
    p.add_argument("--snr", default="1,4,8,10,14", help="comma separated SNR values in dB")
    p.add_argument("--lambda", dest="lam", type=float, default=DenoiseConfig.lam)
    _add_experiment(p)

    p = sub.add_parser("trace", help="emit a sorted-curve/band trace")
    p.set_defaults(run=_cmd_trace)
    p.add_argument("--signal", default="blocks")
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--lambda", dest="lam", type=float, default=DenoiseConfig.lam)
    _add_common(p)

    p = sub.add_parser("mc", help="run a Monte Carlo self-check on unit-variance noise")
    p.set_defaults(run=_cmd_mc)
    p.add_argument("--check", required=True,
                   help=f"one of {', '.join(MC_CHECKS)}")
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None, help="samples per run (default: the check's)")
    p.add_argument("--z", type=_parse_floats, default=None,
                   help="comma separated z values, in place of the check's default grid")
    p.add_argument("--out", default=None, help="optional path: the full report as JSON for a "
                   "name ending in .json, else its rows as CSV")

    p = sub.add_parser("lambda-sweep", help="mean MSE per band-width multiplier")
    p.set_defaults(run=_cmd_lambda_sweep)
    p.add_argument("--signal", default="blocks")
    p.add_argument("--snr", type=float, default=8.0)
    p.add_argument("--lambdas", type=_parse_floats, default=[3.0, 3.5, 4.0, 4.5, 5.0])
    _add_experiment(p)

    p = sub.add_parser("denoise-file", help="denoise a single-column CSV of samples")
    p.set_defaults(run=_cmd_denoise_file)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=DenoiseConfig.lam)
    p.add_argument("--sigma", type=float, default=None, help="known noise scale (default: estimate)")
    _add_model(p)
    return parser


def _cmd_bench(args) -> int:
    config = ExperimentConfig(signals=_parse_list(args.signal), methods=_parse_list(args.method),
                              snr_db=_parse_floats(args.snr), lam=args.lam, trials=args.trials,
                              **_common(args))
    result = run_experiment(config)
    result.write(args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    emit_band_trace(args.signal, args.snr, args.out, lam=args.lam, **_common(args))
    print(f"wrote trace to {args.out}")
    return 0


def _cmd_mc(args) -> int:
    params = {key: getattr(args, key) for key in ("n", "z") if getattr(args, key) is not None}
    report = mc_validate(args.check, params, runs=args.runs, seed=args.seed)
    print(report.text())
    if args.out and args.out.endswith(".json"):
        _write_json(args.out, asdict(report))
    elif args.out:
        _write_table(args.out, tuple(report.rows[0]), (tuple(row.values()) for row in report.rows))
    return 0 if report.passed else 2


def _cmd_lambda_sweep(args) -> int:
    rows = lambda_sweep(args.signal, args.snr, args.lambdas, trials=args.trials, **_common(args))
    _write_table(args.out, ("lambda", "mean_mse", "std_mse"), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_denoise_file(args) -> int:
    sidecar = Path(args.out).with_suffix(".json")
    if sidecar == Path(args.out):
        raise ValueError(f"--out {args.out} would be overwritten by its JSON report; "
                         "choose an output path that does not end in .json")
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.simplefilter("ignore", UserWarning)
            samples = np.loadtxt(args.infile, delimiter=",", ndmin=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{args.infile}: {exc}") from exc
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("input must be a nonempty single-column CSV of numbers")
    n = samples.size
    target = 1 << (n - 1).bit_length()
    cfg = DenoiseConfig(levels=args.levels, lam=args.lam, sigma=args.sigma,
                        profile=_noise_profile(NoiseSpec.parse(args.noise), target))
    # a mirror image keeps the finest band noise-like for the MAD sigma; zeros would not
    result = denoise(np.pad(samples, (0, target - n), mode="symmetric"), cfg)
    if target != n:
        print(f"warning: mirror-padding input from {n} to {target} samples", file=sys.stderr)
    np.savetxt(args.out, result.denoised[:n], fmt="%.12g")
    _write_json(sidecar, {"threshold": result.threshold, "sigma_used": result.sigma_used,
                          "lambda": args.lam})
    print(f"wrote {n} samples to {args.out} (report: {sidecar})")
    return 0


def main(argv=None) -> int:
    """Run one subcommand.  Input the library rejects (a ``ValueError``) and a file
    that cannot be read or written (an ``OSError``) end in one ``error:`` line on
    stderr and exit code 2; an ``--out`` in a missing directory does so before any work."""
    args = build_parser().parse_args(argv)
    try:
        if not Path(args.out or ".").parent.is_dir():
            raise OSError(f"--out {args.out}: no directory {Path(args.out).parent}")
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    print("error: nide.bench is a module; run `python -m nide` or `nide`", file=sys.stderr)
    raise SystemExit(2)
