"""Benchmark harness: MSE experiment matrices, band traces, Monte Carlo
validation of the analytic signature statistics, and the command line tool.

Subcommands
-----------
``bench``         run a (signal x method x SNR) matrix and write a table
``trace``         emit the sorted-coefficient curve and its noise band as CSV
``mc``            run one of the named statistical self-checks
``lambda-sweep``  mean MSE of the invalidation threshold across band widths
``denoise-file``  denoise a single-column CSV of samples

Determinism: every randomized operation derives its generator from the
user-supplied seed and the trial index, so identical configurations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import warnings
from dataclasses import dataclass, field, asdict, astuple, fields
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import _RULES
from .denoise import DenoiseConfig, _analyse, _shrink, denoise
from .noise_model import NoiseSpec, _norm, gen_noise, theoretical_profile
from .signals import canonical_name, gen_signal
from .signature import colored_variance_bound, empirical_signature, white_band
from .wavelet import dwt_forward
from .gaussian_stats import abs_noise_cdf, shifted_abs_cdf

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

# Largest (trials x N) array the paired-trial loop denoises in one call, as
# signature._LAG_BLOCK_ELEMENTS bounds the lag slices: 32 trials at N = 2048.
# Twice as many ran about 7% faster on the white reference matrix, but every
# (trials x N) temporary doubles with it.
_TRIAL_BLOCK_ELEMENTS = 1 << 16


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _write_table(path, fmt: str, header, rows) -> None:
    """Write ``rows`` (tuples in ``header`` order) as CSV or as a JSON list of
    objects; every float keeps six significant digits."""
    with open(path, "w") as fh:
        if fmt == "csv":
            for row in (header, *rows):
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        else:
            payload = [{k: float(_fmt(v)) if isinstance(v, float) else v
                        for k, v in zip(header, row)} for row in rows]
            json.dump(payload, fh, indent=2)
            fh.write("\n")


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
    levels: int = 5
    lam: float = 4.5
    n: int = 2048
    sigma_policy: str = "mad"

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(canonical_name(s) for s in self.signals))
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
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

    def to_csv(self, path) -> None:
        _write_table(path, "csv", [f.name for f in fields(ExperimentRow)], map(astuple, self.rows))

    def to_json(self, path) -> None:
        _write_table(path, "json", [f.name for f in fields(ExperimentRow)], map(astuple, self.rows))

    def mean_mse(self, signal: str, method: str, snr_db: float) -> float:
        for r in self.rows:
            if r.signal == signal and r.method == method and r.snr_db == float(snr_db):
                return r.mean_mse
        raise KeyError((signal, method, snr_db))


def _noise_profile(noise: NoiseSpec, n: int):
    """The correlation profile the colored band needs, or None for white noise."""
    return theoretical_profile(noise, max_lag=n - 1) if noise.kind != "white" else None


def _paired_mse(config: ExperimentConfig, arms):
    """Per-trial normalized MSE, ``{(signal, snr, arm): array of trials}``.

    ``arms`` maps a key to a ``(method, lam)`` pair; every other setting comes from
    ``config``.  One noise vector is drawn per trial (from the trial-indexed child seed)
    and reused, rescaled, across every signal, SNR and arm, so comparisons are paired.
    Each block of trials is analysed once per signal and SNR; every arm shrinks it into one
    buffer and is scored there on coefficients, with no inverse: that needs an orthonormal
    transform.
    """
    n, noise, trials, snrs, seed = config.n, config.noise, config.trials, config.snr_db, config.seed
    profile = _noise_profile(noise, n)
    arms = {key: (DenoiseConfig(levels=config.levels, lam=lam,
                                profile=profile if method == "nide" else None), _RULES[method])
            for key, (method, lam) in arms.items()}
    truths = {name: gen_signal(name, n).samples for name in config.signals}
    thetas = {name: dwt_forward(truth, config.levels).values for name, truth in truths.items()}
    theta_sq = {name: _norm(theta) ** 2 for name, theta in thetas.items()}
    mses = {(name, snr, key): np.empty(trials) for name in truths for snr in snrs for key in arms}
    noises = gen_noise(noise, n, [_trial_seed(seed, t) for t in range(trials)])
    block = max(1, _TRIAL_BLOCK_ELEMENTS // n)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
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
    mses = _paired_mse(config, {m: (m, config.lam) for m in config.methods})
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
    with the noise band ``denoise`` selected against, as CSV with columns
    z, empirical, lower, upper.

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
    g = np.arange(1, band.n + 1) / band.n  # band.z_grid is the sorted curve
    header = ("z", "empirical", "lower", "upper")
    _write_table(path, "csv", header, zip(band.z_grid, g, band.lower, band.upper))


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
    lambdas = [float(l) for l in lambdas]
    mses = _paired_mse(config, {l: ("nide", l) for l in lambdas})
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


def _signature_moments(kind: str, z: float, sigma: float) -> tuple[float, float]:
    """Closed-form per-sample mean and variance of the signature function."""
    if kind == "indicator":
        F = abs_noise_cdf(z, sigma)
        return F, F * (1.0 - F)
    mean = z / np.sqrt(z**2 + sigma**2)  # gaussian
    second = z / np.sqrt(z**2 + 2.0 * sigma**2)
    return mean, second - mean**2


def _z_values(z, default) -> np.ndarray:
    """The z values a check runs at: ``z`` when given, else ``default``."""
    return np.atleast_1d(np.asarray(default if z is None else z, dtype=float))


def _check_averaged_signature(signature, runs, seed, *, n=2048, sigma=1.0, z=None):
    """Shared engine: MC mean/variance of the N-averaged signature vs theory."""
    zs = _z_values(z, [0.5 * sigma, sigma, 2.0 * sigma])
    rng = np.random.default_rng(seed)
    V = rng.normal(0.0, sigma, size=(runs, n))
    rows, ok = [], True
    for z in zs:
        g = _signature_values(signature, z, V).mean(axis=1)
        mean_th, var_th = _signature_moments(signature, z, sigma)
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


def _check_shifted_mean(runs, seed, *, n=2048, sigma=1.0, theta=None, z=None):
    theta = 1.5 * sigma if theta is None else theta
    zs = _z_values(z, np.array([0.5, 1.0, 1.5, 2.0, 3.0]) * sigma)
    rng = np.random.default_rng(seed)
    V = rng.normal(0.0, sigma, size=(runs, n))
    shifted = np.abs(theta + V)
    rows, ok = [], True
    for z in zs:
        mc_mean = float((shifted <= z).mean())
        H = shifted_abs_cdf(float(z), theta, sigma)
        se = np.sqrt(max(H * (1.0 - H), 1e-30) / (runs * n))
        dev = abs(mc_mean - H) / se if se > 0 else 0.0
        row_ok = bool(dev <= 5.0)
        ok &= row_ok
        rows.append(
            {"z": float(z), "mc_mean": mc_mean, "analytic_mean": float(H),
             "mean_dev_se": float(dev), "ok": row_ok}
        )
    return rows, ok, f"shifted-coefficient curve mean within 5 SE at every z (theta={theta:g})"


def _check_colored_bound(runs, seed, *, n=1024, sigma=1.0, ar=0.8, z_max=None, z=None):
    z_max = 4.0 * sigma if z_max is None else z_max
    spec = NoiseSpec.ar1(ar, sigma)
    zs = _z_values(z, np.linspace(z_max / 50, z_max, 50))
    noises = gen_noise(spec, n, [_trial_seed(seed, run) for run in range(runs)])
    g = np.array([empirical_signature(zs, row) for row in noises])
    mc_var = g.var(axis=0, ddof=1)
    profile = theoretical_profile(spec, max_lag=n - 1)
    bound = colored_variance_bound(zs, sigma, profile, n)
    violations = int(np.sum(mc_var > bound))
    rows = [
        {"z": float(z), "mc_var": float(v), "bound": float(b), "ok": bool(v <= b)}
        for z, v, b in zip(zs, mc_var, bound)
    ]
    return rows, violations <= 1, f"{violations}/{zs.size} grid points exceed the bound (allowed 1)"


def _check_coverage(runs, seed, *, n=2048, sigma=1.0, lam=4.5, z_max=None, z=None):
    z_max = 4.0 * sigma if z_max is None else z_max
    zs = _z_values(z, np.linspace(0.0, z_max, 30))
    band = white_band(zs, sigma, n, lam)
    hits = np.zeros(zs.size)
    for run in range(runs):
        rng = np.random.default_rng(_trial_seed(seed, run))
        g = empirical_signature(zs, rng.normal(0.0, sigma, n))
        hits += band.contains(g)
    coverage = hits / runs
    rows = [
        {"z": float(z), "coverage": float(c), "ok": bool(c >= COVERAGE_FLOOR)}
        for z, c in zip(zs, coverage)
    ]
    ok = bool(np.all(coverage >= COVERAGE_FLOOR))
    return rows, ok, f"min per-z coverage {coverage.min():.5f} vs floor {COVERAGE_FLOOR}"


# Check identifiers follow the layout of the statistical derivations they
# verify (see README).  Each maps to its check and the least number of runs
# it needs: the checks that estimate a variance need two.
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
    ``appendixC``  mean of the indicator curve for shifted coefficients vs H
    ``appendixD``  MC variance of the sorted curve under AR(1) noise stays
                   below the analytic bound at all but one of 50 z values
    ``coverage``   per-z coverage of the white-noise band is at least 0.999

    ``params`` are the check's keyword parameters; one the check does not
    take is rejected with ``ValueError``, as is a non-finite number or an
    empty ``z``.  ``z`` replaces a check's z values.
    """
    params = dict(params or {})
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {MC_CHECKS}")
    run_check, least = _CHECKS[check]
    try:
        inspect.signature(run_check).bind(runs, seed, **params)
    except TypeError as exc:
        raise ValueError(f"check {check}: {exc}") from None
    for key in ("sigma", "theta", "ar", "lam", "z_max", "z"):
        value = params.get(key)  # None keeps the check's default
        if value is not None and not (np.size(value) and np.all(np.isfinite(value))):
            raise ValueError(f"{key} must be finite and nonempty, got {value!r}")
    if "z" in params and "z_max" in params:
        raise ValueError("z replaces the default grid, so give no z_max with it")
    if params.get("n", 1) < 1:
        raise ValueError(f"n must be at least 1, got {params['n']}")
    if runs < least:
        raise ValueError(f"check {check} needs runs >= {least}, got {runs}")
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
    parser.add_argument("--levels", type=int, default=5)
    parser.add_argument("--noise", default="white", help="white | ar1:<a> | ma:<t1,t2,...>")


def _add_common(parser):
    _add_model(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--length", type=int, default=2048, help="signal length (power of two)")
    parser.add_argument("--sigma-policy", choices=SIGMA_POLICIES, default="mad")


def _common(args) -> dict:
    """The :class:`ExperimentConfig` fields that the flags of :func:`_add_common` set."""
    return dict(noise=NoiseSpec.parse(args.noise), seed=args.seed, levels=args.levels,
                n=args.length, sigma_policy=args.sigma_policy)


def _add_experiment(parser):
    """Flags of the paired-trial commands: :func:`_add_common`'s and ``--trials``."""
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--out", required=True)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--lambda", dest="lam", type=float, default=4.5)
    _add_experiment(p)

    p = sub.add_parser("trace", help="emit a sorted-curve/band trace as CSV")
    p.set_defaults(run=_cmd_trace)
    p.add_argument("--signal", default="blocks")
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--lambda", dest="lam", type=float, default=4.5)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("mc", help="run a Monte Carlo self-check; a flag the check "
                                  "does not read is an error")
    p.set_defaults(run=_cmd_mc)
    p.add_argument("--check", required=True,
                   help=f"one of {', '.join(MC_CHECKS)}")
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--z", type=_parse_floats, default=None,
                   help="comma separated z values, in place of the check's default grid")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--ar", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--z-max", dest="z_max", type=float, default=None,
                   help="upper end of the default z grid (appendixD, coverage: 4 sigma)")
    p.add_argument("--out", default=None, help="optional JSON report path")

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
    p.add_argument("--pad", choices=("reject", "zero"), default="reject",
                   help="how to handle non-dyadic input length")
    p.add_argument("--lambda", dest="lam", type=float, default=4.5)
    p.add_argument("--sigma", type=float, default=None, help="known noise scale (default: estimate)")
    _add_model(p)
    return parser


def _cmd_bench(args) -> int:
    config = ExperimentConfig(signals=_parse_list(args.signal), methods=_parse_list(args.method),
                              snr_db=_parse_floats(args.snr), lam=args.lam, trials=args.trials,
                              **_common(args))
    result = run_experiment(config)
    (result.to_csv if args.format == "csv" else result.to_json)(args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    emit_band_trace(args.signal, args.snr, args.out, lam=args.lam, **_common(args))
    print(f"wrote trace to {args.out}")
    return 0


def _cmd_mc(args) -> int:
    params = {key: getattr(args, key) for key in ("sigma", "n", "z", "theta", "ar", "lam", "z_max")
              if getattr(args, key) is not None}
    report = mc_validate(args.check, params, runs=args.runs, seed=args.seed)
    print(report.text())
    if args.out:
        payload = asdict(report)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")
    return 0 if report.passed else 2


def _cmd_lambda_sweep(args) -> int:
    rows = lambda_sweep(args.signal, args.snr, args.lambdas, trials=args.trials, **_common(args))
    _write_table(args.out, args.format, ("lambda", "mean_mse", "std_mse"), rows)
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
    min_len = 2**args.levels
    target = max(1 << (n - 1).bit_length(), min_len)
    padded = samples
    if target != n:
        if args.pad == "reject":
            raise ValueError(f"length {n} is not a power of two >= {min_len}; "
                             f"rerun with --pad zero to zero-pad to {target}")
        print(f"warning: zero-padding input from {n} to {target} samples", file=sys.stderr)
        padded = np.concatenate([samples, np.zeros(target - n)])
    noise = NoiseSpec.parse(args.noise)
    profile = _noise_profile(noise, target)
    cfg = DenoiseConfig(levels=args.levels, lam=args.lam, sigma=args.sigma, profile=profile)
    result = denoise(padded, cfg)
    with open(args.out, "w") as fh:
        for value in result.denoised[:n]:
            fh.write(f"{value:.12g}\n")
    with open(sidecar, "w") as fh:
        json.dump(
            {
                "threshold": result.threshold,
                "sigma_used": result.sigma_used,
                "lambda": args.lam,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote {n} samples to {args.out} (report: {sidecar})")
    return 0


def main(argv=None) -> int:
    """Run one subcommand.  Input the library rejects (a ``ValueError``) ends
    in one ``error:`` line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    print("error: nide.bench is a module; run `python -m nide` or `nide`", file=sys.stderr)
    raise SystemExit(2)
