"""One benchmark workload in one fresh process.

Started by ``run.py``.  Protocol on standard output: the line
``READY <scale>`` once set-up is done (``nide`` imported, inputs generated,
one warm-up call made), then one JSON object with the measurements.  With
``--setup-only`` the process exits right after ``READY``; ``run.py`` times
the interval from starting the process to that line and multiplies it by
``scale`` to express it at nominal machine speed.

The package is imported from ``src/`` of the checkout, the way the test
command does it, and every layer is reached through its module attribute at
call time so that ``tracer.Instrumentation`` can observe it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Start-up is mostly interpreter work (module code, compiling, dict and call
# overhead), so a fixed pure-Python kernel timed before the imports and again
# after set-up rescales the set-up time the way ``MachineSpeed`` rescales
# the timed calls.
_KERNEL_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    x = [a * j + b for j in range({i % 7 + 4})]\n"
    f"    return {{'k{i}': sum(x), 'n': len(x)}}\n"
    for i in range(100)
)
STARTUP_NOMINAL_MS = 9.5


def _interpreter_kernel_ms() -> float:
    t0 = time.perf_counter()
    namespace: dict = {}
    exec(compile(_KERNEL_SOURCE, "<reference>", "exec"), namespace)
    for i in range(100):
        namespace[f"f{i}"](i)
    return 1e3 * (time.perf_counter() - t0)


STARTUP_KERNEL_MS = _interpreter_kernel_ms()

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

import tracer  # noqa: E402

NIDE = {m: importlib.import_module(f"nide.{m}") for m in tracer.TRACED}

METHODS = ("nide", "visu", "sure", "bayes")
BASELINES = METHODS[1:]
LEVELS = 5
# No workload loop runs past this, so a slowed program still exits in time.
HARD_LIMIT_S = 120.0
# Wall-clock period of the reference kernel inside a timed matrix call.
TICK_S = 0.025

def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _haar(x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Orthonormal Haar analysis to ``LEVELS`` levels: (details finest first, approx)."""
    details, approx = [], x
    for _ in range(LEVELS):
        even, odd = approx[0::2], approx[1::2]
        details.append((even - odd) / np.sqrt(2.0))
        approx = (even + odd) / np.sqrt(2.0)
    return details, approx


def _output_ok(result, x: np.ndarray, check_threshold: bool) -> bool:
    """Shape and finiteness of the output; for the invalidation rule also a
    threshold inside [0, max |detail coefficient|]."""
    denoised = np.asarray(result.denoised)
    if denoised.shape != x.shape or not np.all(np.isfinite(denoised)):
        return False
    t = float(result.threshold)
    if not (math.isfinite(t) and t >= 0.0):
        return False
    if not check_threshold:
        return True
    peak = max(float(np.max(np.abs(d))) for d in _haar(x)[0])
    return t <= peak * (1.0 + 1e-12)


def _normalized_mse(estimate, truth) -> float:
    return float(np.sum((estimate - truth) ** 2) / np.sum(truth**2))


def _call(fn, *args):
    """Call into the program; an exception is reported and counts as a failure."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _haar_shrink(x: np.ndarray) -> float:
    """A small Haar shrinkage pipeline in plain numpy, for the reference kernel."""
    details, approx = _haar(x)
    sigma = float(np.median(np.abs(details[0]))) / 0.6745
    curve = np.sort(np.abs(np.concatenate(details)))
    band = special.erf(curve / (sigma * np.sqrt(2.0)))
    t = float(curve[min(int(np.searchsorted(band, 0.99)), curve.size - 1)])
    for detail in reversed(details):
        shrunk = np.sign(detail) * np.maximum(np.abs(detail) - t, 0.0)
        out = np.empty(2 * approx.size)
        out[0::2] = (approx + shrunk) / np.sqrt(2.0)
        out[1::2] = (approx - shrunk) / np.sqrt(2.0)
        approx = out
    return float(approx[0])


class MachineSpeed:
    """Reference clock for a host whose speed drifts.

    Other tenants share this host's cores, so the same work can take 10-30%
    longer in one run than in another, and the host's speed moves on a
    scale of a second, within one measurement.  A fixed reference kernel is
    therefore timed next to every measurement, and ``rescale`` expresses the
    measured time at nominal machine speed:
    ``t * nominal_ms / mean(kernel samples taken with it)``.

    A ``long-signal`` call (a few ms) is bracketed by one sample before and
    one after.  A matrix call lasts seconds, so ``start_ticking`` also runs
    the kernel every ``TICK_S`` of wall time inside the call, from a
    ``SIGALRM`` handler; ``stop_ticking`` returns the call's wall time and
    the time the kernel took inside it, which is subtracted.

    The kernels are plain numpy written here; they use nothing from
    ``nide``, so a program change cannot move them.  Different work slows
    down by different amounts on this host, so there are two: the Haar
    shrinkage pipeline on 2048 points run 24 times, like the matrices' many
    small calls, and the same pipeline once on 65536 points, like
    ``long-signal``.  ``nominal_ms`` is each kernel's typical time on the
    2-vCPU host the bounds were set on.
    """

    KERNELS = {"small-calls": (2048, 24, 4.5), "large-array": (65536, 1, 3.6)}

    def __init__(self, kernel: str):
        n, self.repeat, self.nominal_ms = self.KERNELS[kernel]
        self.x = np.random.default_rng(12345).standard_normal(n)
        self._ticks: list[float] | None = None
        self._t0 = 0.0

    def sample(self) -> float:
        """One timing of the kernel, in ms."""
        t0 = time.perf_counter()
        for _ in range(self.repeat):
            _haar_shrink(self.x)
        return 1e3 * (time.perf_counter() - t0)

    def _tick(self, _signum, _frame) -> None:
        ticks, self._ticks = self._ticks, None  # no nested tick
        if ticks is not None:
            ticks.append(self.sample())
            self._ticks = ticks

    def start_ticking(self) -> None:
        self._ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticking(self) -> tuple[float, list[float]]:
        """(seconds since ``start_ticking``, kernel samples taken inside)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # A tick still pending runs before this line or never.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        wall = time.perf_counter() - self._t0
        ticks, self._ticks = self._ticks, None
        return wall, ticks

    def rescale(self, measured_ms: float, reference_ms: list[float]) -> float:
        return measured_ms * self.nominal_ms / statistics.fmean(reference_ms)


class Matrix:
    """``run_experiment`` over blocks and heavysine x {4, 8, 14} dB x four
    methods at N=2048; one call per repetition, with the reference matrix's
    100 trials each.  The first ``mse_reps`` calls give the quality metrics."""

    signals = ("blocks", "heavysine")
    snrs = (4.0, 8.0, 14.0)
    trials = 100
    mse_reps = 4
    # Noise realizations of the threshold check, each denoised at every
    # signal and SNR.
    check_realizations = 2

    def __init__(self, seed: int, noise, sigma_policy: str):
        self.seed = seed
        self.noise = noise
        self.sigma_policy = sigma_policy

    def calls(self, trials: int) -> int:
        return trials * len(self.signals) * len(self.snrs) * len(METHODS)

    def config(self, rep: int, trials: int):
        return NIDE["bench"].ExperimentConfig(
            signals=self.signals,
            snr_db=self.snrs,
            methods=METHODS,
            noise=self.noise,
            trials=trials,
            seed=self.seed * 1_000_003 + rep,
            levels=LEVELS,
            lam=4.5,
            n=2048,
            sigma_policy=self.sigma_policy,
        )

    def run(self, rep: int, trials: int, speed: MachineSpeed | None = None):
        """One timed ``run_experiment`` call: (result or None, calls failed,
        seconds, kernel samples).  With ``speed`` the reference kernel ticks
        inside the call and its time is not counted in the seconds."""
        config = self.config(rep, trials)
        ticks = []
        if speed is None:
            t0 = time.perf_counter()
            result = _call(NIDE["bench"].run_experiment, config)
            wall = time.perf_counter() - t0
        else:
            speed.start_ticking()
            result = _call(NIDE["bench"].run_experiment, config)
            wall, ticks = speed.stop_ticking()
            wall -= 1e-3 * sum(ticks)
        calls = self.calls(trials)
        if result is None:
            return None, calls, wall, ticks
        expected = {(s, m, snr) for s in self.signals for m in METHODS for snr in self.snrs}
        seen, bad_rows = set(), 0
        for row in result.rows:
            key = (row.signal, row.method, row.snr_db)
            ok = (
                key in expected
                and key not in seen
                and row.trials == trials
                and math.isfinite(row.mean_mse)
                and row.mean_mse >= 0.0
                and math.isfinite(row.std_mse)
            )
            seen.add(key)
            bad_rows += not ok
        bad_rows += len(expected - seen)
        return result, min(calls, bad_rows * trials), wall, ticks

    def setup(self) -> None:
        result, failed, _, _ = self.run(rep=1_000_000, trials=1)
        if result is None or failed:
            raise RuntimeError("warm-up run_experiment call failed")

    def check_thresholds(self) -> tuple[int, int]:
        """nide on a fixed set of this matrix's inputs, each with the
        ``DenoiseConfig`` that ``run_experiment`` gives nide (known sigma and
        the theoretical profile for colored noise).  ``run_experiment`` only
        returns MSE rows, so this is where the matrix's thresholds are
        checked to lie in [0, max |detail|].  Returns (calls, failed)."""
        nm, n = NIDE["noise_model"], 2048
        module = NIDE["denoise"]
        profile = None
        if self.noise.kind != "white":
            profile = nm.theoretical_profile(self.noise, max_lag=n - 1)
        calls = failed = 0
        for r in range(self.check_realizations):
            raw = nm.gen_noise(self.noise, n, self.seed * 1_000_003 + 2_000_000 + r)
            for name in self.signals:
                truth = NIDE["signals"].gen_signal(name, n).samples
                for snr in self.snrs:
                    scale = np.linalg.norm(truth) * 10.0 ** (-snr / 20.0) / np.linalg.norm(raw)
                    x = truth + raw * scale
                    sigma = self.noise.sigma * scale if self.sigma_policy == "known" else None
                    config = module.DenoiseConfig(levels=LEVELS, lam=4.5, sigma=sigma, profile=profile)
                    result = _call(module.denoise, x, config)
                    calls += 1
                    failed += result is None or not _output_ok(result, x, check_threshold=True)
        return calls, failed

    def timed(self, seconds: float) -> dict:
        speed = MachineSpeed("small-calls")
        for _ in range(3):  # warm-up
            speed.sample()
        per_call_ms, nominal_ms, references, attempted, failed = [], [], [], 0, 0
        cells: dict[tuple, list[float]] = {}
        digest_lines = None
        start = time.perf_counter()
        rep = 0
        while rep < self.mse_reps or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > HARD_LIMIT_S:
                break
            calls = self.calls(self.trials)
            result, bad, wall, ticks = self.run(rep, self.trials, speed)
            attempted += calls
            failed += bad
            per_call_ms.append(1e3 * wall / calls)
            # A call too short for a tick still has the sample after it.
            references.append([*ticks, speed.sample()])
            nominal_ms.append(speed.rescale(per_call_ms[-1], references[-1]))
            if result is not None and rep < self.mse_reps:
                for row in result.rows:
                    cells.setdefault((row.signal, row.method, row.snr_db), []).append(row.mean_mse)
                if rep == 0:
                    digest_lines = [
                        f"{r.signal},{r.method},{r.snr_db:.6g},{r.noise},"
                        f"{r.mean_mse:.6g},{r.std_mse:.6g},{r.trials}"
                        for r in result.rows
                    ]
            rep += 1
        checked, bad = self.check_thresholds()
        attempted += checked
        failed += bad
        mse = {key: statistics.fmean(v) for key, v in cells.items()}
        quality = {}
        try:
            nide = [mse[(s, "nide", snr)] for s in self.signals for snr in self.snrs]
            best = [
                min(mse[(s, m, snr)] for m in BASELINES) for s in self.signals for snr in self.snrs
            ]
            quality = {
                "nide_mse": _geomean(nide),
                "nide_vs_best_baseline": _geomean(n / b for n, b in zip(nide, best)),
            }
        except (KeyError, ValueError):
            failed = max(failed, 1)
        metrics, measured = _speed_metrics(nominal_ms, 1), _speed_metrics(per_call_ms, 1)
        metrics.update(quality)
        info = {
            "repetitions": rep,
            "trials_per_call": self.trials,
            "calls_per_rep": self.calls(self.trials),
            "threshold_checks": checked,
            "as_measured": measured,
        }
        samples = {"call_ms": per_call_ms, "nominal_call_ms": nominal_ms,
                   "reference_ms": references}
        if digest_lines is not None:
            text = "\n".join(digest_lines) + "\n"
            info["mse_table_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            info["mse_table_rep0"] = digest_lines
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info,
                "samples": samples}

    def trace_inputs(self):
        return None

    def trace_pass(self, _inputs) -> tuple[int, int]:
        _, bad, _, _ = self.run(0, self.trials)
        return self.calls(self.trials), bad


class LongSignal:
    """Single default-config ``denoise`` calls on N=65536 inputs that cycle
    through the six signals at {4, 8, 14} dB with fresh white noise per call."""

    n = 65536
    snrs = (4.0, 8.0, 14.0)
    # The first ``mse_calls`` calls (forty per signal and SNR) also run the
    # three baselines, outside the timed calls, for the quality metrics.
    mse_calls = 720
    trace_calls = 36

    def __init__(self, seed: int):
        self.seed = seed

    def cell(self, i: int) -> tuple[int, float]:
        names = NIDE["signals"].SIGNAL_NAMES
        return i % len(names), self.snrs[(i // len(names)) % len(self.snrs)]

    def make_input(self, i: int, stream: int = 1) -> tuple[np.ndarray, np.ndarray]:
        k, snr = self.cell(i)
        truth = self.truths[k]
        noise = np.random.default_rng([self.seed, stream, i]).standard_normal(self.n)
        scale = self.norms[k] * 10.0 ** (-snr / 20.0) / np.linalg.norm(noise)
        return truth + noise * scale, truth

    def setup(self) -> None:
        signals = NIDE["signals"]
        self.truths = [signals.gen_signal(name, self.n).samples for name in signals.SIGNAL_NAMES]
        self.norms = [np.linalg.norm(t) for t in self.truths]
        x, _ = self.make_input(0, stream=0)
        result = _call(NIDE["denoise"].denoise, x)
        if result is None or not _output_ok(result, x, check_threshold=True):
            raise RuntimeError("warm-up denoise call failed")

    def timed(self, seconds: float) -> dict:
        names = NIDE["signals"].SIGNAL_NAMES
        block = len(names) * len(self.snrs)
        speed = MachineSpeed("large-array")
        # Warm-up; the last sample is the first call's "before".
        reference_ms = [speed.sample() for _ in range(3)][-1:]
        ms, nominal_ms, attempted, failed = [], [], 0, 0
        mse: dict[tuple, list[float]] = {}
        start = time.perf_counter()
        i = 0
        while i < self.mse_calls or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > HARD_LIMIT_S:
                break
            x, truth = self.make_input(i)
            denoise = NIDE["denoise"].denoise
            t0 = time.perf_counter()
            result = _call(denoise, x)
            ms.append(1e3 * (time.perf_counter() - t0))
            attempted += 1
            ok = result is not None and _output_ok(result, x, check_threshold=True)
            failed += not ok
            if i < self.mse_calls:
                k, snr = self.cell(i)
                if ok:
                    mse.setdefault((k, snr, "nide"), []).append(_normalized_mse(result.denoised, truth))
                for method in BASELINES:
                    base = _call(NIDE["baselines"].denoise_with, method, x)
                    attempted += 1
                    if base is None or not _output_ok(base, x, check_threshold=False):
                        failed += 1
                        continue
                    mse.setdefault((k, snr, method), []).append(_normalized_mse(base.denoised, truth))
            i += 1
            reference_ms.append(speed.sample())
            nominal_ms.append(speed.rescale(ms[-1], reference_ms[-2:]))
        metrics, measured = _speed_metrics(nominal_ms, block), _speed_metrics(ms, block)
        try:
            cells = [(k, snr) for k in range(len(names)) for snr in self.snrs]
            mean = {key: statistics.fmean(v) for key, v in mse.items()}
            nide = [mean[(k, snr, "nide")] for k, snr in cells]
            best = [min(mean[(k, snr, m)] for m in BASELINES) for k, snr in cells]
            metrics["nide_mse"] = _geomean(nide)
            metrics["nide_vs_best_baseline"] = _geomean(a / b for a, b in zip(nide, best))
        except (KeyError, ValueError, statistics.StatisticsError):
            failed = max(failed, 1)
        info = {"calls": i, "as_measured": measured}
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info,
                "samples": {"call_ms": ms, "nominal_call_ms": nominal_ms,
                            "reference_ms": reference_ms}}

    def trace_inputs(self):
        return [self.make_input(i)[0] for i in range(self.trace_calls)]

    def trace_pass(self, inputs) -> tuple[int, int]:
        failed = 0
        for x in inputs:
            result = _call(NIDE["denoise"].denoise, x)
            failed += result is None or not _output_ok(result, x, check_threshold=True)
        return len(inputs), failed


def _speed_metrics(ms: list[float], group: int) -> dict:
    """Per-call latency percentiles, and throughput as the median over groups
    of ``group`` consecutive calls."""
    whole = len(ms) - len(ms) % group
    group_ms = [sum(ms[j : j + group]) / group for j in range(0, whole, group)]
    return {
        "calls_per_s": 1e3 / statistics.median(group_ms),
        "call_ms_p50": statistics.median(ms),
        "call_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
    }


def make_workload(name: str, seed: int):
    spec = NIDE["noise_model"].NoiseSpec
    if name == "white-matrix":
        return Matrix(seed, spec.white(1.0), "mad")
    if name == "ar1-matrix":
        return Matrix(seed, spec.ar1(0.8, 1.0), "known")
    if name == "long-signal":
        return LongSignal(seed)
    raise ValueError(f"unknown workload {name!r}")


def trace_run(workload, instr, seconds: float, setup_rec) -> dict:
    """Alternate untraced and traced passes of one fixed unit of work.

    Self times are medians over the traced passes; counts come from the first
    traced pass and must repeat exactly in every other one.
    """
    inputs = workload.trace_inputs()
    walls = {False: [], True: []}
    recorders, attempted, failed = [], 0, 0
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < min(seconds, HARD_LIMIT_S):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                recorders.append(tracer.SpanRecorder())
                instr.install(recorders[-1])
            t0 = time.perf_counter()
            try:
                done, bad = workload.trace_pass(inputs)
            finally:
                walls[traced].append(time.perf_counter() - t0)
                instr.uninstall()
            attempted += done
            failed += bad
        k += 1

    first = recorders[0]

    def signature(rec):
        return dict(rec.calls), dict(rec.counts)

    repeats = all(signature(rec) == signature(first) for rec in recorders[1:])
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.self_ms"] = statistics.median(rec.self_ms(name) for rec in recorders)
        metrics[f"{name}.calls"] = first.calls.get(name, 0)
    counts = first.counts
    metrics.update(counts)
    band_points = counts["signature.band_points"]
    metrics["signature.useful_point_ratio"] = (
        counts["signature.useful_points"] / band_points if band_points else 0.0
    )
    scope = counts["denoise.scope_coefficients"]
    metrics["denoise.kept_ratio"] = counts["denoise.kept"] / scope if scope else 0.0
    # Signals are generated in set-up; the traced set-up gives their cost.
    metrics["signals.gen_signal.self_ms"] = setup_rec.self_ms("signals.gen_signal")
    traced_wall = statistics.median(walls[True])
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(walls[False])

    shares = sorted(
        ((statistics.median(rec.self_ms(n) for rec in recorders) / (1e3 * traced_wall), n)
         for n in first.self_ns),
        reverse=True,
    )
    info = {
        "passes": len(recorders),
        "counts_repeat_exactly": repeats,
        "traced_pass_ms": 1e3 * traced_wall,
        "self_time_share": {n: round(s, 4) for s, n in shares},
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "consistent": repeats,
        "metrics": metrics,
        "info": info,
        "spans": {"setup": setup_rec.span_dicts(), "first_traced_pass": first.span_dicts()},
    }


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (started by run.py).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    instr = setup_rec = None
    if args.trace:
        instr = tracer.Instrumentation()
        setup_rec = tracer.SpanRecorder()
        instr.install(setup_rec)
    try:
        workload.setup()
    finally:
        if instr is not None:
            instr.uninstall()
    # The parent times start-up to this line and rescales it by this factor.
    kernel_ms = (STARTUP_KERNEL_MS + _interpreter_kernel_ms()) / 2.0
    print(f"READY {STARTUP_NOMINAL_MS / kernel_ms}", flush=True)

    if args.setup_only:
        return 0

    if args.trace:
        out = trace_run(workload, instr, args.seconds, setup_rec)
    else:
        out = workload.timed(args.seconds)
        out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
