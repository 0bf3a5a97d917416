import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nide.bench
from nide.bench import (
    ExperimentConfig,
    MC_CHECKS,
    emit_band_trace,
    lambda_sweep,
    main,
    mc_validate,
    normalized_mse,
    run_experiment,
)
from nide.noise_model import NoiseSpec, theoretical_profile


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

    def test_norm_denominator_flag(self):
        x = np.arange(1.0, 9.0)
        norm = np.linalg.norm(x)
        assert normalized_mse(np.zeros_like(x), x, "norm") == pytest.approx(norm)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalized_mse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            normalized_mse(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            normalized_mse(np.ones(3), np.ones(3), "rms")


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
        from nide.denoise import DenoiseConfig, denoise
        from nide.noise_model import gen_noise
        from nide.signals import gen_signal

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

    @pytest.mark.parametrize("bad", [{"sigma_policy": "oracle"}, {"trials": 0}])
    def test_lambda_sweep_validates_its_experiment(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            lambda_sweep("blocks", 8.0, [4.5], **{"trials": 2, **bad})

    @pytest.mark.parametrize("field", ["lam", "methods"])
    def test_lambda_sweep_takes_no_lam_or_methods(self, field):
        with pytest.raises(TypeError):
            lambda_sweep("blocks", 8.0, [4.5], trials=2, **{field: 3.0})

    def test_trace_rejects_unknown_sigma_policy(self, tmp_path):
        out = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="sigma_policy"):
            emit_band_trace("blocks", 8.0, NoiseSpec.white(), 4.5, 0, out, sigma_policy="oracle")
        assert not out.exists()

    def test_csv_and_json_outputs(self, tmp_path):
        config = ExperimentConfig(
            signals=("blocks",), snr_db=(8.0,), methods=("nide", "visu"), trials=2, seed=0
        )
        result = run_experiment(config)
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        result.to_csv(csv_path)
        result.to_json(json_path)
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
        run_experiment(config).to_csv(a)
        run_experiment(config).to_csv(b)
        assert a.read_bytes() == b.read_bytes()


def _first_trial_seed(seed):
    ss = np.random.SeedSequence([seed, 0])
    return int(ss.generate_state(1, np.uint64)[0])


class TestMcValidate:
    @pytest.mark.parametrize("check", MC_CHECKS[:3])
    def test_moment_checks_pass(self, check):
        report = mc_validate(check, {"n": 512}, runs=400, seed=0)
        assert report.passed, report.text()

    def test_indicator_alias_specializes_to_sorted_noise(self):
        a = mc_validate("appendixA", {"n": 512, "signature": "indicator"}, runs=300, seed=5)
        b = mc_validate("appendixB", {"n": 512}, runs=300, seed=5)
        assert a.passed and b.passed
        for ra, rb in zip(a.rows, b.rows):
            assert ra["mc_mean"] == rb["mc_mean"]
            assert ra["analytic_mean"] == rb["analytic_mean"]

    def test_colored_bound_check(self):
        report = mc_validate(
            "appendixD", {"n": 512, "grid_points": 25}, runs=300, seed=1
        )
        assert report.passed, report.text()

    def test_coverage_check_in_clt_region(self):
        report = mc_validate(
            "coverage", {"n": 2048, "z_max": 3.0, "grid_points": 15}, runs=1000, seed=2
        )
        assert report.passed, report.text()

    @pytest.mark.parametrize("check, params, runs", [
        ("appendixB", {"n": 0}, 10),
        ("appendixC", {"n": -3}, 10),
        ("appendixA", {}, 1),
        ("sorted-noise", {"n": 64}, 1),
        ("appendixD", {"n": 64}, 1),
        ("coverage", {"n": 64}, 0),
        ("appendixC", {"n": 64}, 0),
    ])
    def test_rejects_too_few_runs_or_samples(self, check, params, runs):
        with pytest.raises(ValueError, match="must be at least 1|needs runs >="):
            mc_validate(check, params, runs=runs)

    @pytest.mark.parametrize("check", ["appendixC", "coverage"])
    def test_mean_checks_accept_one_run(self, check):
        report = mc_validate(check, {"n": 64}, runs=1)
        assert all(np.isfinite(v) for row in report.rows for v in row.values())

    @pytest.mark.parametrize("check", MC_CHECKS)
    def test_rejects_a_parameter_the_check_does_not_take(self, check):
        with pytest.raises(ValueError, match="bogus"):
            mc_validate(check, {"bogus": 1}, runs=2)

    @pytest.mark.parametrize("check", MC_CHECKS)
    def test_every_check_runs_at_the_given_z(self, check):
        report = mc_validate(check, {"n": 64, "z": [0.5, 2.5]}, runs=2)
        assert [row["z"] for row in report.rows] == [0.5, 2.5]

    def test_aliases_and_unknown(self):
        report = mc_validate("sorted-noise", {"n": 256}, runs=200, seed=0)
        assert report.check == "appendixB"
        with pytest.raises(ValueError):
            mc_validate("appendixZ")


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
            "--trials", "1", "--out", str(out), "--format", "json",
        ])
        assert rc == 0
        assert json.loads(out.read_text())[0]["method"] == "nide"

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

    def test_mc_coverage_z_max_flag(self, tmp_path):
        report = tmp_path / "mc.json"
        main(["mc", "--check", "coverage", "--runs", "300", "--z-max", "3",
              "--out", str(report)])
        payload = json.loads(report.read_text())
        assert payload["params"]["z_max"] == 3.0
        assert max(row["z"] for row in payload["rows"]) == 3.0

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

    def test_denoise_file_reject_and_pad(self, tmp_path, capsys):
        infile = tmp_path / "in.csv"
        np.savetxt(infile, np.random.default_rng(0).normal(size=100))
        out = tmp_path / "out.csv"
        rc = main([
            "denoise-file", "--in", str(infile), "--out", str(out), "--levels", "3",
        ])
        assert rc == 2  # non-dyadic input rejected by default
        rc = main([
            "denoise-file", "--in", str(infile), "--out", str(out), "--levels", "3",
            "--pad", "zero",
        ])
        assert rc == 0
        values = np.loadtxt(out)
        assert values.size == 100
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert set(sidecar) == {"threshold", "sigma_used", "lambda"}

    @pytest.mark.parametrize("text", ["value\n1.0\n2.0\n", "1.0\nabc\n", "", "\n\n"])
    @pytest.mark.parametrize("pad", ["reject", "zero"])
    def test_denoise_file_rejects_bad_csv(self, tmp_path, capsys, text, pad):
        infile = tmp_path / "in.csv"
        infile.write_text(text)
        out = tmp_path / "out.csv"
        rc = main(["denoise-file", "--in", str(infile), "--out", str(out), "--pad", pad])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_trace_rejects_noise_free_input(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["trace", "--signal", "blocks", "--snr", "400", "--out", str(out)])
        assert rc == 2
        assert "noise free" in capsys.readouterr().err
        assert not out.exists()

    def test_denoise_file_dyadic_roundtrip(self, tmp_path):
        from nide.signals import gen_signal

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
        ["mc", "--check", "coverage", "--theta", "2"],
        ["mc", "--check", "appendixA", "--ar", "0.5"],
        ["mc", "--check", "coverage", "--z", "1,2", "--z-max", "3", "--runs", "200"],
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
