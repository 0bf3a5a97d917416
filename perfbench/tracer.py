"""Outside-in span recorder for the ``nide`` modules.

Every traced function is replaced, in each loaded ``nide`` namespace that
holds a reference to it, by a wrapper that records one span per call
(id, name, start, end, parent id, call id) and updates exact work counters
computed from the call's arguments and result.  Nothing under ``src/`` is
edited: a module-level ``from .x import f`` binds ``f`` into the importing
module, so patching every namespace that holds the original object is what
makes intra-package calls visible (for example ``abs_noise_cdf`` as seen
from ``nide.signature``, and the function-local ``from .denoise import
denoise`` inside ``denoise_with``, which reads the ``nide.denoise`` module
attribute at call time).

A span's self time is its duration minus the time its child spans cover.
Children of one span never overlap because the workloads are single-threaded,
so the covered time is the sum of the child durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Public functions traced per module.  Names are the ``<module>.<function>``
# span names used by the per-layer metrics.
TRACED = {
    "bench": ("run_experiment", "normalized_mse"),
    "baselines": ("denoise_with", "sure_threshold", "bayes_threshold"),
    "denoise": ("denoise", "soft_threshold"),
    "signature": ("white_band", "colored_band", "colored_variance_bound"),
    "gaussian_stats": ("abs_noise_cdf",),
    "noise_model": ("gen_noise", "theoretical_profile", "estimate_sigma_mad"),
    "wavelet": ("dwt_forward", "dwt_inverse"),
    "signals": ("gen_signal",),
}

SPAN_NAMES = tuple(f"{m}.{fn}" for m, fns in TRACED.items() for fn in fns)

# Work counters kept by the wrappers.  The kept and scope counts and the
# useful band points feed the ratios the benchmark reports.
COUNTERS = (
    "gaussian_stats.cdf_points",
    "signature.bound_lag_passes",
    "signature.band_points",
    "signature.useful_points",
    "denoise.kept",
    "denoise.scope_coefficients",
    "wavelet.bytes_computed",
)


class SpanRecorder:
    """Spans, per-name self time and call counts, and work counters of one pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list[int]] = []  # [span id, child ns, call id]
        self.next_id = 0

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def span_dicts(self) -> list[dict]:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "call")
        return [dict(zip(keys, span)) for span in self.spans]


# ---------------------------------------------------------------------------
# Work counters.  Each takes (counts, result, *call args) and mirrors the
# traced function's parameters, so it reads the same arguments by position
# or keyword.
# ---------------------------------------------------------------------------


def _count_cdf(counts, result, z, sigma, *_, **__):
    counts["gaussian_stats.cdf_points"] += np.size(z)


def _count_band(counts, result, z_grid, *_, **__):
    counts["signature.band_points"] += np.size(z_grid)


def _make_bound_counter(truncation: float):
    def count_bound(counts, result, z, sigma, profile, n, *_, **__):
        rho = np.asarray(profile.rho)
        active = np.count_nonzero(np.abs(rho[1 : min(rho.size, int(n))]) >= truncation)
        counts["signature.bound_lag_passes"] += int(active) * np.size(z)

    return count_bound


def _make_denoise_counter(default_config):
    def count_denoise(counts, result, observed, config=default_config, *_, **__):
        n = np.size(observed)
        scope = n if config.threshold_scope == "all" else n - (n >> config.levels)
        counts["denoise.kept"] += result.coefficients_kept
        counts["denoise.scope_coefficients"] += scope
        if result.band is not None:
            counts["signature.useful_points"] += result.coefficients_kept + 1

    return count_denoise


def _count_forward(counts, result, signal, *_, **__):
    # Computed, not measured: float64 input read plus coefficients written.
    counts["wavelet.bytes_computed"] += 16 * np.size(signal)


def _count_inverse(counts, result, *_, **__):
    counts["wavelet.bytes_computed"] += 2 * result.nbytes


class Instrumentation:
    """Installs and removes the tracing wrappers around the ``nide`` functions.

    ``install(recorder)`` patches the wrappers in and directs them at
    ``recorder``; ``uninstall()`` puts the original functions back.
    """

    def __init__(self):
        self.modules = {m: importlib.import_module(f"nide.{m}") for m in TRACED}
        self.recorder: SpanRecorder | None = None
        self._wrappers: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        truncation = self.modules["signature"].RHO_TRUNCATION
        denoise_fn = self.modules["denoise"].denoise
        default_config = inspect.signature(denoise_fn).parameters["config"].default
        counters = {
            "gaussian_stats.abs_noise_cdf": _count_cdf,
            "signature.white_band": _count_band,
            "signature.colored_band": _count_band,
            "signature.colored_variance_bound": _make_bound_counter(truncation),
            "denoise.denoise": _make_denoise_counter(default_config),
            "wavelet.dwt_forward": _count_forward,
            "wavelet.dwt_inverse": _count_inverse,
        }
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(self.modules[mod_name], fn_name)
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn, counters.get(name)))
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.recorder
            stack = rec.stack
            parent = stack[-1] if stack else None
            sid = rec.next_id
            rec.next_id += 1
            call_id = parent[2] if parent else sid
            frame = [sid, 0, call_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                rec.self_ns[name] += duration - frame[1]
                rec.calls[name] += 1
                rec.spans.append((sid, name, t0, t1, parent[0] if parent else -1, call_id))
            if counter is not None:
                counter(rec.counts, result, *args, **kwargs)
            return result

        return traced

    def install(self, recorder: SpanRecorder) -> None:
        """Direct the wrappers at ``recorder`` and patch every namespace."""
        self.recorder = recorder
        if self._patched:
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nide" or mod_name.startswith("nide.")):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and value is pair[0]:
                    setattr(module, attr, pair[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original function."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []
        self.recorder = None
