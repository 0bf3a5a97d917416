import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nide.bench
from nide.bench import (
    ExperimentConfig,
    MC_CHECKS,
    SNR_DB_MIN,
    emit_band_trace,
    lambda_sweep,
    main,
    mc_validate,
    normalized_mse,
    run_experiment,
)
from nide.denoise import DenoiseConfig, denoise, select_threshold
from nide.noise_model import NoiseSpec, _level_ratios, _norm, gen_noise, theoretical_profile
from nide.signals import SIGNAL_NAMES, gen_signal
from nide.wavelet import dwt_forward


class TestNormalizedMse:
    def test_perfect_estimate(self):
        x = np.arange(1.0, 9.0)
        assert normalized_mse(x, x) == 0.0

    def test_zero_estimate_is_unity(self):
        x = np.arange(1.0, 9.0)
        assert normalized_mse(np.zeros_like(x), x) == pytest.approx(1.0)

    def test_doubled_estimate_is_unity(self):
        x = np.arange(1.0, 9.0)
        assert normalized_mse(2 * x, x) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalized_mse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            normalized_mse(np.ones(3), np.zeros(3))


class TestRunExperiment:
    def test_colored_profile_built_once_per_config(self, monkeypatch):
        calls = []

        def counting_profile(*args, **kwargs):
            calls.append(args)
            return theoretical_profile(*args, **kwargs)

        monkeypatch.setattr(nide.bench, "theoretical_profile", counting_profile)
        noise = NoiseSpec.ar1(0.8)
        config = ExperimentConfig(
            signals=("blocks",), snr_db=(4.0, 8.0), methods=("nide", "visu"),
            noise=noise, trials=3, seed=2, n=256, sigma_policy="known",
        )
        run_experiment(config)
        assert len(calls) == 1
        lambda_sweep("blocks", 8.0, [4.0, 4.5], trials=3, seed=2, noise=noise, n=256)
        assert len(calls) == 2

    def test_single_trial_matches_hand_run(self):
        config = ExperimentConfig(
            signals=("blocks",), snr_db=(8.0,), methods=("nide",), trials=1, seed=3
        )
        result = run_experiment(config)
        assert len(result.rows) == 1
        row = result.rows[0]

        truth = gen_signal("blocks", 2048).samples
        raw = gen_noise(NoiseSpec.white(), 2048, _first_trial_seed(3))
        scale = np.linalg.norm(truth) * 10 ** (-8.0 / 20) / np.linalg.norm(raw)
        denoised = denoise(truth + raw * scale, DenoiseConfig()).denoised
        assert row.mean_mse == pytest.approx(normalized_mse(denoised, truth))
        assert row.std_mse == 0.0

    def test_monotone_in_snr_for_every_signal_and_method(self):
        config = ExperimentConfig(
            signals=("blocks", "bumps", "heavysine", "doppler", "quadchirp", "mishmash"),
            snr_db=(1.0, 14.0),
            methods=("nide", "visu", "sure", "bayes"),
            trials=6,
            seed=1,
        )
        result = run_experiment(config)
        for row in result.rows:
            assert row.mean_mse >= 0
            assert row.std_mse >= 0
        for signal in config.signals:
            for method in config.methods:
                low = result.mean_mse(signal, method, 1.0)
                high = result.mean_mse(signal, method, 14.0)
                assert high < low, (signal, method)

    def test_mean_mse_of_a_missing_cell_names_it(self):
        result = run_experiment(ExperimentConfig(signals=("blocks",), snr_db=(8.0,), methods=("visu",),
                                                 trials=1, n=256, levels=4))
        assert result.mean_mse("blocks", "visu", 8) == result.rows[0].mean_mse
        for cell in (("blocks", "sure", 8.0), ("blocks", "visu", 4.0), ("doppler", "visu", 8.0)):
            with pytest.raises(KeyError) as err:
                result.mean_mse(*cell)
            assert err.value.args == (cell,)

    def test_accepts_historical_signal_spelling(self):
        config = ExperimentConfig(signals=("HeaviSine",), snr_db=(8.0,))
        assert config.signals == ("heavysine",)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(signals=("nope",), snr_db=(1.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(signals=("blocks",), snr_db=(1.0,), methods=("fancy",))
        with pytest.raises(ValueError):
            ExperimentConfig(signals=("blocks",), snr_db=(1.0,), trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(signals=("blocks",), snr_db=(1.0,), sigma_policy="oracle")

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_snr(self, snr):
        # +inf would zero the noise, a NaN or -inf would make every sample NaN
        with pytest.raises(ValueError, match="snr_db"):
            ExperimentConfig(signals=("blocks",), snr_db=(8.0, snr))

    @pytest.mark.parametrize("snr", [-6000.0, SNR_DB_MIN - 1.0])
    def test_rejects_an_snr_whose_noise_would_overflow(self, snr):
        with pytest.raises(ValueError, match="snr_db"):
            ExperimentConfig(signals=("blocks",), snr_db=(8.0, snr))

    @pytest.mark.parametrize("sigma_policy", ["mad", "known"])
    def test_lowest_snr_runs_without_overflow(self, sigma_policy):
        config = ExperimentConfig(signals=("blocks",), snr_db=(SNR_DB_MIN,), trials=2, n=256,
                                  sigma_policy=sigma_policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(config)
        assert all(np.isfinite(r.mean_mse) and np.isfinite(r.std_mse) for r in result.rows)

    # A float seed had run as its truncation; the other floats ended in tracebacks.
    @pytest.mark.parametrize("bad", [{"sigma_policy": "oracle"}, {"trials": 0}, {"trials": 2.5},
                                     {"n": 2048.0}, {"levels": 2.5}, {"seed": 1.5}])
    def test_lambda_sweep_validates_its_experiment(self, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
            lambda_sweep("blocks", 8.0, [4.5], **{"trials": 2, **bad})

    @pytest.mark.parametrize("field", ["lam", "methods"])
    def test_lambda_sweep_takes_no_lam_or_methods(self, field):
        with pytest.raises(TypeError):
            lambda_sweep("blocks", 8.0, [4.5], trials=2, **{field: 3.0})

    def test_trace_rejects_unknown_sigma_policy(self, tmp_path):
        out = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="sigma_policy"):
            emit_band_trace("blocks", 8.0, out, sigma_policy="oracle")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["trials", "methods"])
    def test_trace_takes_no_trials_or_methods(self, tmp_path, field):
        out = tmp_path / "trace.csv"
        with pytest.raises(TypeError):
            emit_band_trace("blocks", 8.0, out, **{field: 2})
        assert not out.exists()

    def test_csv_and_json_outputs(self, tmp_path):
        config = ExperimentConfig(
            signals=("blocks",), snr_db=(8.0,), methods=("nide", "visu"), trials=2, seed=0
        )
        result = run_experiment(config)
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        result.write(csv_path)
        result.write(json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "signal,method,snr_db,noise,mean_mse,std_mse,trials"
        assert len(lines) == 3
        payload = json.loads(json_path.read_text())
        assert payload[0]["signal"] == "blocks"
        assert set(payload[0]) == {
            "signal", "method", "snr_db", "noise", "mean_mse", "std_mse", "trials",
        }

    def test_determinism_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            signals=("blocks", "doppler"),
            snr_db=(4.0, 8.0),
            methods=("nide", "visu"),
            noise=NoiseSpec.ar1(0.8),
            trials=3,
            seed=11,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(config).write(a)
        run_experiment(config).write(b)
        assert a.read_bytes() == b.read_bytes()


def _first_trial_seed(seed):
    ss = np.random.SeedSequence([seed, 0])
    return int(ss.generate_state(1, np.uint64)[0])


class TestMcValidate:
    @pytest.mark.parametrize("check", MC_CHECKS[:3])
    def test_moment_checks_pass(self, check):
        report = mc_validate(check, {"n": 512}, runs=400, seed=0)
        assert report.passed, report.text()

    def test_colored_bound_check(self):
        report = mc_validate(
            "appendixD", {"n": 512, "z": np.linspace(0.16, 4, 25)}, runs=300, seed=1
        )
        assert report.passed, report.text()

    def test_coverage_check_in_clt_region(self):
        report = mc_validate(
            "coverage", {"n": 2048, "z": np.linspace(0, 3, 15)}, runs=1000, seed=2
        )
        assert report.passed, report.text()

    @pytest.mark.parametrize("check, params, runs", [
        ("appendixB", {"n": 0}, 10),
        ("appendixC", {"n": -3}, 10),
        ("appendixA", {}, 1),
        ("appendixB", {"n": 64}, 1),
        ("appendixD", {"n": 64}, 1),
        ("coverage", {"n": 64}, 0),
        ("appendixC", {"n": 64}, 0),
        ("appendixC", {"n": 64}, 2.5),
        ("coverage", {"n": 64}, 2.0),
    ])
    def test_rejects_too_few_runs_or_samples(self, check, params, runs):
        with pytest.raises(ValueError, match=r"^(n|runs) must be (at least [12]|an integer), got"):
            mc_validate(check, params, runs=runs)

    @pytest.mark.parametrize("check", ["appendixC", "coverage"])
    def test_rejects_a_seed_that_is_not_an_integer(self, check):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            mc_validate(check, {"n": 64}, runs=2, seed=1.5)

    def test_accepts_numpy_integer_runs_and_seed(self):
        want = mc_validate("appendixC", {"n": 64}, runs=2, seed=3)
        assert mc_validate("appendixC", {"n": 64}, runs=np.int64(2), seed=np.int64(3)) == want

    @pytest.mark.parametrize("check", ["appendixC", "coverage"])
    def test_mean_checks_accept_one_run(self, check):
        report = mc_validate(check, {"n": 64}, runs=1)
        assert all(np.isfinite(v) for row in report.rows for v in row.values())

    @pytest.mark.parametrize("check", MC_CHECKS)
    def test_rejects_a_parameter_the_check_does_not_take(self, check):
        for name in ("bogus", "floor", "allowed_violations", "grid_points", "signature",
                     "sigma", "theta", "ar", "lam", "z_max"):
            with pytest.raises(ValueError, match=name):
                mc_validate(check, {name: 1}, runs=2)

    @pytest.mark.parametrize("check", MC_CHECKS)
    @pytest.mark.parametrize("params, match", [
        ({"z": [-1.0, 1.0]}, "z must be"),
        ({"z": [0.5, np.inf]}, "z must be"),
        ({"z": -np.inf}, "z must be"),
        ({"z": []}, "z must be"),
        ({"n": 2.5}, "n must be an integer, got 2.5"),
        ({"n": 256.0}, "n must be an integer, got 256.0"),
    ])
    def test_rejects_a_negative_or_infinite_z_and_a_non_integer_n(self, check, params, match):
        with pytest.raises(ValueError, match=match):
            mc_validate(check, {"n": 64, **params}, runs=200)

    def test_appendixA_rejects_z_zero(self):
        # its signature exp(-v^2 / 2z^2) divides by z
        with pytest.raises(ValueError, match="appendixA"):
            mc_validate("appendixA", {"n": 64, "z": [0.0, 1.0]}, runs=20)

    @pytest.mark.parametrize("check", MC_CHECKS[1:])
    def test_other_checks_accept_z_zero(self, check):
        report = mc_validate(check, {"n": 64, "z": [0.0, 1.0]}, runs=2)
        assert [row["z"] for row in report.rows] == [0.0, 1.0]

    def test_accepts_a_numpy_integer_n(self):
        report = mc_validate("appendixC", {"n": np.int64(64)}, runs=2)
        assert report.passed, report.text()

    @pytest.mark.parametrize("check", MC_CHECKS)
    def test_every_check_runs_at_the_given_z(self, check):
        report = mc_validate(check, {"n": 64, "z": [0.5, 2.5]}, runs=2)
        assert [row["z"] for row in report.rows] == [0.5, 2.5]

    @pytest.mark.parametrize("check", ["appendixZ", "sorted-noise"])
    def test_unknown_check(self, check):
        with pytest.raises(ValueError, match="unknown check"):
            mc_validate(check)


class TestCli:
    def test_bench_roundtrip(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main([
            "bench", "--signal", "blocks", "--method", "nide,visu", "--snr", "8",
            "--trials", "2", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("signal,method,snr_db")

    def test_bench_json(self, tmp_path):
        out = tmp_path / "table.json"
        rc = main([
            "bench", "--signal", "blocks", "--method", "nide", "--snr", "8",
            "--trials", "1", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())[0]["method"] == "nide"

    def test_lambda_sweep_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["lambda-sweep", "--trials", "1", "--lambdas", "4,4.5", "--out", str(out)])
        assert rc == 0
        assert [row["lambda"] for row in json.loads(out.read_text())] == [4.0, 4.5]

    @pytest.mark.parametrize("argv", [
        ["denoise-file", "--in", "in.csv", "--pad", "zero"],
        ["bench", "--format", "json"],
        ["lambda-sweep", "--format", "csv"],
    ])
    def test_removed_pad_and_format_flags(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()

    def test_trace_columns(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main([
            "trace", "--signal", "blocks", "--snr", "5", "--seed", "2",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,empirical,lower,upper"
        assert len(lines) == 1 + 2048 - 64

    def test_trace_shows_departure(self, tmp_path):
        # noisy sparse data must leave the noise band somewhere
        out = tmp_path / "trace.csv"
        main(["trace", "--signal", "blocks", "--snr", "5", "--seed", "2", "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        z, g, lower, upper = rows.T
        assert np.any(g < lower)

    @pytest.mark.parametrize("noise, policy", [("white", "mad"), ("ar1:0.8", "known")])
    def test_trace_last_in_band_row_is_the_threshold(self, tmp_path, noise, policy):
        spec = NoiseSpec.parse(noise)
        profile = theoretical_profile(spec, max_lag=2047) if spec.kind != "white" else None
        out = tmp_path / "trace.csv"
        for signal in SIGNAL_NAMES:
            truth = gen_signal(signal, 2048).samples
            raw = gen_noise(spec, 2048, 1)
            for snr in (4.0, 8.0, 14.0):
                assert main(["trace", "--signal", signal, "--snr", str(snr), "--seed", "1",
                             "--noise", noise, "--sigma-policy", policy, "--out", str(out)]) == 0
                z, g, lower, upper = np.loadtxt(out, delimiter=",", skiprows=1).T
                last_in_band = z[np.flatnonzero((g >= lower) & (g <= upper))[-1]]
                # emit_band_trace's realization, denoised with the same band; under a
                # profile the trace is the standardized curve, and its T* the threshold
                # before each level's r_j
                scale = _norm(truth) * 10.0 ** (-snr / 20.0) / _norm(raw)
                observed = raw * scale + truth
                sigma = spec.sigma * scale if policy == "known" else None
                threshold = denoise(observed, DenoiseConfig(sigma=sigma, profile=profile)).threshold
                if profile is not None:
                    details = dwt_forward(observed, 5).detail_bands
                    threshold = select_threshold(np.concatenate(
                        [np.abs(b) / r for b, r in zip(details, _level_ratios(profile, 5))]), sigma)
                assert last_in_band == float(f"{threshold:.6g}"), (signal, snr)

    def test_trace_json_rows_equal_the_csv_rows(self, tmp_path):
        argv = ["trace", "--signal", "blocks", "--snr", "5", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path / "t.json")]) == 0
        assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 0
        payload = json.loads((tmp_path / "t.json").read_text())
        rows = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
        assert set(payload[0]) == {"z", "empirical", "lower", "upper"}
        as_rows = [[row[k] for k in ("z", "empirical", "lower", "upper")] for row in payload]
        assert np.array_equal(as_rows, rows)

    def test_trace_with_colored_noise(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main([
            "trace", "--signal", "blocks", "--snr", "8", "--seed", "2",
            "--noise", "ar1:0.8", "--sigma-policy", "known", "--out", str(out),
        ])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 2] <= rows[:, 3])  # lower <= upper

    def test_mc_exit_codes(self, tmp_path):
        assert main(["mc", "--check", "appendixB", "--runs", "200", "--n", "512"]) == 0
        report = tmp_path / "mc.json"
        rc = main([
            "mc", "--check", "coverage", "--runs", "300", "--n", "2048",
            "--z", "0.5,1.0,2.0,4.0", "--out", str(report),
        ])
        # includes z = 4 sigma where the normal approximation under-covers
        payload = json.loads(report.read_text())
        assert payload["check"] == "coverage"
        assert [row["z"] for row in payload["rows"]] == [0.5, 1.0, 2.0, 4.0]

    def test_mc_report_writes_json_booleans(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["mc", "--check", "appendixC", "--runs", "20", "--n", "256",
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert all(row["ok"] is True for row in payload["rows"])

    def test_mc_writes_its_rows_as_csv_and_its_report_as_json(self, tmp_path):
        argv = ["mc", "--check", "coverage", "--runs", "20", "--n", "64"]
        # a FAIL (exit 2) writes the same output as a PASS
        rc = main([*argv, "--out", str(tmp_path / "c.csv")])
        assert main([*argv, "--out", str(tmp_path / "c.json")]) == rc
        report = json.loads((tmp_path / "c.json").read_text())
        assert {"check", "params", "passed", "rows", "summary"} <= set(report)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "z,coverage,ok"
        assert len(lines) == 1 + len(report["rows"]) == 1 + 30
        z = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1, usecols=0)
        assert list(z) == [float(f"{row['z']:.6g}") for row in report["rows"]]

    def test_mc_takes_only_n_and_z_settings(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--check", "--runs", "--seed", "--n", "--z", "--out"}

    @pytest.mark.parametrize("flag", [["--n", "2.5"], ["--sigma", "1"], ["--theta", "1.5"],
                                      ["--ar", "0.8"], ["--lambda", "4.5"], ["--z-max", "3"]])
    def test_mc_rejects_a_non_integer_n_and_the_removed_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--check", "coverage", "--runs", "5", *flag])
        assert exc.value.code == 2

    def test_lambda_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "lambda-sweep", "--signal", "blocks", "--snr", "8", "--trials", "2",
            "--lambdas", "4,4.5", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,mean_mse,std_mse"
        assert len(lines) == 3

    def test_denoise_file_pads_a_non_dyadic_input(self, tmp_path, capsys):
        infile = tmp_path / "in.csv"
        np.savetxt(infile, np.random.default_rng(0).normal(size=100))
        out = tmp_path / "out.csv"
        rc = main([
            "denoise-file", "--in", str(infile), "--out", str(out), "--levels", "3",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: mirror-padding input from 100 to 128") and err.count("\n") == 1
        values = np.loadtxt(out)
        assert values.size == 100
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert set(sidecar) == {"threshold", "sigma_used", "lambda"}

    def test_denoise_file_mirror_padding_keeps_the_mad_sigma(self, tmp_path):
        # Zero padding to 2048 filled half the finest band with zeros: sigma 0.001,
        # and the output kept the input's error.
        truth = gen_signal("blocks", 2048).samples[:1025]
        noisy = truth + np.random.default_rng(3).normal(size=truth.size)
        infile, out = tmp_path / "in.csv", tmp_path / "out.csv"
        np.savetxt(infile, noisy)
        assert main(["denoise-file", "--in", str(infile), "--out", str(out)]) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["sigma_used"] == pytest.approx(1.0, rel=0.05)
        assert np.mean((np.loadtxt(out) - truth) ** 2) < np.mean((noisy - truth) ** 2)

    @pytest.mark.parametrize("text", ["value\n1.0\n2.0\n", "1.0\nabc\n", "", "\n\n"])
    def test_denoise_file_rejects_bad_csv(self, tmp_path, capsys, text):
        infile = tmp_path / "in.csv"
        infile.write_text(text)
        out = tmp_path / "out.csv"
        rc = main(["denoise-file", "--in", str(infile), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["8", "12", "70"])
    def test_denoise_file_pads_only_to_the_next_power_of_two(self, tmp_path, capsys, levels):
        # 100 samples pad to 128 whatever --levels says; more than 7 levels is rejected
        # before anything is written, not met by padding to 2**levels.
        infile, out = tmp_path / "in.csv", tmp_path / "out.csv"
        np.savetxt(infile, np.random.default_rng(0).normal(size=100))
        rc = main(["denoise-file", "--in", str(infile), "--out", str(out), "--levels", levels])
        assert rc == 2
        assert capsys.readouterr().err == f"error: levels must be at most log2(N) = 7, got {levels}\n"
        assert not out.exists()

    def test_trace_rejects_noise_free_input(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["trace", "--signal", "blocks", "--snr", "400", "--out", str(out)])
        assert rc == 2
        assert "noise free" in capsys.readouterr().err
        assert not out.exists()

    def test_denoise_file_dyadic_roundtrip(self, tmp_path):
        infile = tmp_path / "sig.csv"
        truth = gen_signal("heavysine", 256).samples
        noisy = truth + np.random.default_rng(1).normal(0, 1.0, 256)
        np.savetxt(infile, noisy)
        out = tmp_path / "den.csv"
        rc = main(["denoise-file", "--in", str(infile), "--out", str(out)])
        assert rc == 0
        denoised = np.loadtxt(out)
        assert np.sum((denoised - truth) ** 2) < np.sum((noisy - truth) ** 2)

    @pytest.mark.parametrize("argv", [
        ["bench", "--noise", "ar1:1.5", "--trials", "1"],
        ["lambda-sweep", "--lambdas", "9", "--trials", "1"],
        ["mc", "--check", "nope"],
        ["mc", "--check", "appendixB", "--n", "0", "--runs", "10"],
        ["mc", "--check", "appendixB", "--runs", "1"],
        ["mc", "--check", "coverage", "--runs", "0"],
        ["denoise-file", "--lambda", "9"],
        ["mc", "--check", "appendixB", "--runs", "5", "--z", "nan"],
        ["mc", "--check", "appendixB", "--runs", "5", "--z", ","],
        ["bench", "--noise", "ma:1,nan", "--trials", "1"],
        ["bench", "--noise", "ma:1,1e308", "--trials", "1"],
        ["mc", "--check", "appendixA", "--runs", "200", "--n", "256", "--z", "-1"],
        ["mc", "--check", "appendixB", "--runs", "5", "--z", "0.5,inf"],
        ["mc", "--check", "appendixC", "--runs", "5", "--z=-0.5,1"],
        ["mc", "--check", "appendixD", "--runs", "5", "--n", "64", "--z=-inf"],
        ["mc", "--check", "coverage", "--runs", "5", "--z=-1"],
        ["mc", "--check", "appendixA", "--runs", "5", "--n", "-3"],
        ["mc", "--check", "appendixA", "--runs", "5", "--z", "0,1"],
        ["bench", "--snr", "nan", "--trials", "1"],
        ["bench", "--snr", "inf", "--trials", "1"],
        ["bench", "--snr=-inf", "--trials", "1"],
        ["lambda-sweep", "--snr", "inf", "--trials", "1"],
        ["trace", "--snr", "nan"],
        ["bench", "--snr=-7000", "--trials", "2"],
        ["bench", "--snr=-6000", "--trials", "2"],
        ["lambda-sweep", "--snr=-7000", "--trials", "2"],
        ["trace", "--snr=-6000"],
        ["bench", "--signal", "", "--trials", "1"],
        ["bench", "--signal", "blocks,Blocks", "--trials", "1"],
        ["bench", "--snr", ",", "--trials", "1"],
        ["bench", "--snr", "4,4.0", "--trials", "1"],
        ["bench", "--method", "", "--trials", "1"],
        ["bench", "--method", "nide,visu,nide", "--trials", "1"],
        ["lambda-sweep", "--lambdas", "", "--trials", "1"],
        ["lambda-sweep", "--lambdas", "4.5,4.5", "--trials", "1"],
        ["bench", "--seed", "-1", "--trials", "1"],
        ["trace", "--seed", "-1"],
        ["lambda-sweep", "--seed", "-1", "--trials", "1"],
        ["mc", "--check", "coverage", "--runs", "2", "--seed", "-1"],
    ])
    def test_rejected_input_is_one_error_line(self, tmp_path, capsys, argv):
        infile = tmp_path / "in.csv"
        np.savetxt(infile, np.random.default_rng(0).normal(size=64))
        out = tmp_path / "out.csv"
        io = ["--in", str(infile)] if argv[0] == "denoise-file" else []
        rc = main(argv + io + (["--out", str(out)] if argv[0] != "mc" else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        if "--seed" in argv:
            assert "seed" in err and "-1" in err
        if "--noise" in argv and argv[argv.index("--noise") + 1].startswith("ma:"):
            assert "ma taps" in err

    @pytest.mark.parametrize("argv", [
        ["bench", "--trials", "1", "--snr", "8", "--length", "256"],
        ["trace", "--length", "256"],
        ["mc", "--check", "coverage", "--runs", "2", "--n", "64"],
        ["denoise-file"],
    ])
    def test_out_in_a_missing_directory_is_one_error_line_before_any_work(self, tmp_path, capsys,
                                                                          argv):
        infile = tmp_path / "in.csv"
        np.savetxt(infile, np.random.default_rng(0).normal(size=64))
        io = ["--in", str(infile)] if argv[0] == "denoise-file" else []
        rc = main(argv + io + ["--out", str(tmp_path / "missing" / "out.csv")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "missing" in err
        assert out == ""

    @pytest.mark.parametrize("name", ["./den", "den.csv", "run.v2/den"])
    def test_denoise_file_report_beside_output(self, tmp_path, monkeypatch, name):
        # The report replaces the output's suffix: ./den -> ./den.json, not ./.json.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.v2").mkdir()
        np.savetxt("in.csv", np.random.default_rng(2).normal(size=64))
        assert main(["denoise-file", "--in", "in.csv", "--out", name]) == 0
        assert np.loadtxt(name).size == 64
        report = (tmp_path / name).with_suffix(".json")
        assert list(tmp_path.rglob("*.json")) == [report]
        assert set(json.loads(report.read_text())) == {"threshold", "sigma_used", "lambda"}

    def test_denoise_file_rejects_samples_whose_haar_sums_overflow(self, tmp_path, capsys):
        # Blocks at a peak of 1.7e308: the transform's pair sums overflow to inf.
        truth = gen_signal("blocks", 2048).samples
        infile, out = tmp_path / "in.csv", tmp_path / "out.csv"
        np.savetxt(infile, truth * (1.7e308 / np.abs(truth).max()), fmt="%.17g")
        rc = main(["denoise-file", "--in", str(infile), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_denoise_file_rejects_json_output(self, tmp_path, capsys):
        infile = tmp_path / "in.csv"
        np.savetxt(infile, np.random.default_rng(2).normal(size=64))
        out = tmp_path / "out.json"
        rc = main(["denoise-file", "--in", str(infile), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize("flag", [["--sigma-policy", "known"], ["--seed", "1"],
                                      ["--length", "64"]])
    def test_denoise_file_takes_only_flags_it_reads(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["denoise-file", "--in", str(tmp_path / "in.csv"),
                  "--out", str(tmp_path / "out.csv"), *flag])
        assert exc.value.code == 2


def test_python_m_nide_runs_the_cli_without_warnings():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "nide", "mc", "--check", "appendixC",
         "--runs", "5", "--n", "64"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stdout.startswith("check=appendixC runs=5")


def test_python_m_nide_bench_names_the_cli(capsys):
    # In process, as ``python -m nide.bench`` would run it; runpy warns that the
    # package import already loaded nide.bench, which does not matter here.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "'nide.bench' found in sys.modules", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("nide.bench", run_name="__main__")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "`python -m nide`" in err and "`nide`" in err
