import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import heatbo
from heatbo import kernels, runner


def write_config(tmp_path, **overrides):
    lines = {
        "benchmark": "labs",
        "budget": "3",
        "init_count": "3",
        "seeds": "0,1",
        "output_dir": str(tmp_path / "out"),
        "measure_time": "false",
        "kernel": "heat",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    body = "[experiment]\n" + "\n".join(f"{k} = {v}" for k, v in lines.items())
    body += "\n\n[benchmark_options]\nn = 10\n"
    body += "\n[optimizer]\nsteps = 10\n"
    body += "\n[ga]\npopulation_size = 12\ngenerations = 4\n"
    path = tmp_path / "config.ini"
    path.write_text(body)
    return path


_run_single_seed = runner._run_single_seed


def _fail_seed_one(config, seed):
    """``runner._run_single_seed`` with seed 1 failing; module level, so that
    a process pool can pickle it."""
    if seed == 1:
        raise RuntimeError("seed 1 broke")
    return _run_single_seed(config, seed)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SHIPPED_LABS20 = runner.ExperimentConfig(
    benchmark="labs", benchmark_options={"n": 20}, relocate=False, relocation_seed=0,
    noise_seed=0, kernel_family="heat", kernel_ard=True, kernel_options={}, budget=10,
    init_count=20, seeds=(0, 1), output_dir="results/labs20", measure_time=True,
    parallel=1, tr_options={"success_tolerance": 3, "failure_tolerance": 10},
    ga_options={"population_size": 50, "generations": 20, "tournament_size": 3,
                "crossover_prob": 0.9, "elite_count": 2},
    optimizer_options={"steps": 100, "learning_rate": 0.03, "initial_noise": 1e-3},
)


class TestConfig:
    @pytest.mark.parametrize(
        "path, expected",
        [
            ("configs/labs20.ini", SHIPPED_LABS20),
            ("perfbench/labs20.ini", replace(
                SHIPPED_LABS20, kernel_ard=False, budget=25, seeds=(0,),
                output_dir="perfbench/out/labs20",
            )),
        ],
    )
    def test_shipped_configs_load_to_literal_values(self, path, expected):
        root = Path(__file__).resolve().parents[1]
        config = runner.load_config(root / path)
        assert config == expected
        assert [type(v) for v in config.optimizer_options.values()] == [int, float, float]

    def test_boolean_words_accepted(self, tmp_path):
        config = runner.load_config(write_config(tmp_path, relocate="yes", ard="off"))
        assert config.relocate is True and config.kernel_ard is False

    def test_load_round_trip(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        assert config.benchmark == "labs"
        assert config.seeds == (0, 1)
        assert config.benchmark_options == {"n": 10}
        assert config.optimizer_options == {"steps": 10}

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(runner.ConfigError):
            runner.load_config(tmp_path / "nope.ini")

    def test_duplicate_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path, seeds="1,1")
        with pytest.raises(runner.ConfigError):
            runner.load_config(path)

    def test_unknown_kernel_rejected(self, tmp_path):
        path = write_config(tmp_path, kernel="mystery")
        with pytest.raises(runner.ConfigError):
            runner.load_config(path)

    def test_unknown_benchmark_rejected(self, tmp_path):
        path = write_config(tmp_path, benchmark="mystery")
        with pytest.raises(runner.ConfigError):
            runner.load_config(path)

    @pytest.mark.parametrize(
        "kernel, ard, key, param, shape",
        [
            ("heat", "true", "beta", "betas", (6,)),
            ("casmopolitan", "true", "lengthscale", "lengthscales", (6,)),
            ("casmopolitan", "false", "lengthscale", "lengthscales", (1,)),
            ("hamming_rbf", "false", "lengthscale", "lengthscale", ()),
            ("rho", "true", "rho", "rhos", (6,)),
        ],
    )
    def test_kernel_section_sets_initial_values(
        self, tmp_path, kernel, ard, key, param, shape
    ):
        from heatbo.space import SearchSpace

        path = write_config(tmp_path, kernel=kernel, ard=ard)
        path.write_text(path.read_text() + f"\n[kernel]\n{key} = 0.25\nsigma2 = 2.0\n")
        config = runner.load_config(path)
        spec = runner._initial_kernel_spec(config, SearchSpace((2,) * 6))
        assert np.shape(spec.params[param]) == shape
        np.testing.assert_allclose(spec.params[param], 0.25)
        assert spec.sigma2 == 2.0


class TestRunExperiment:
    def test_trace_and_summary_files(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        result = runner.run_experiment(config)
        assert set(result["traces"]) == {0, 1}
        for seed, path in result["traces"].items():
            rows = read_csv(path)
            assert len(rows) == 6  # 3 init + 3 iterations
            assert list(rows[0].keys()) == list(runner.TRACE_COLUMNS)
        summary = read_csv(result["summary"])
        assert len(summary) == 6
        assert list(summary[0].keys()) == list(runner.SUMMARY_COLUMNS)

    def test_rerun_byte_identical_without_timing(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        first = runner.run_experiment(config)
        blobs = {s: p.read_bytes() for s, p in first["traces"].items()}
        second = runner.run_experiment(config)
        for seed, path in second["traces"].items():
            assert path.read_bytes() == blobs[seed]

    def test_summary_recomputable_from_traces(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        result = runner.run_experiment(config)
        summary = read_csv(result["summary"])
        per_seed = {s: read_csv(p) for s, p in result["traces"].items()}
        for i, row in enumerate(summary):
            incumbents = [float(per_seed[s][i]["incumbent"]) for s in per_seed]
            assert float(row["mean_incumbent"]) == pytest.approx(
                float(np.mean(incumbents)), abs=0
            )
            expected_sem = float(np.std(incumbents, ddof=1) / np.sqrt(len(incumbents)))
            assert float(row["sem"]) == pytest.approx(expected_sem, abs=0)

    def test_incumbent_column_monotone(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        result = runner.run_experiment(config)
        for path in result["traces"].values():
            incumbents = [float(r["incumbent"]) for r in read_csv(path)]
            assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))

    def test_parallel_matches_serial(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        serial = runner.run_experiment(config)
        parallel_dir = tmp_path / "out2"
        par = replace(config, parallel=2, output_dir=str(parallel_dir))
        parallel = runner.run_experiment(par)
        for seed in config.seeds:
            assert (
                serial["traces"][seed].read_bytes()
                == parallel["traces"][seed].read_bytes()
            )

    def test_relocated_run(self, tmp_path):
        config = runner.load_config(
            write_config(tmp_path, relocate="true", relocation_seed="5")
        )
        result = runner.run_experiment(config)
        rows = read_csv(result["traces"][0])
        assert rows[0]["run_id"].startswith("labs-reloc:")


class TestSummarize:
    def test_hand_computed_summary(self):
        from heatbo.bo import IterationRecord

        def rec(value, incumbent, it):
            return IterationRecord(it, (0,), value, incumbent, 2.0, 1.0, 1)

        traces = {
            0: [rec(4.0, 4.0, 0), rec(2.0, 2.0, 1)],
            1: [rec(6.0, 6.0, 0), rec(8.0, 6.0, 1)],
        }
        rows = runner.summarize(traces)
        assert float(rows[0]["mean_incumbent"]) == 5.0
        assert float(rows[1]["mean_incumbent"]) == 4.0
        assert float(rows[0]["sem"]) == pytest.approx(np.std([4, 6], ddof=1) / np.sqrt(2))

    def test_mismatched_lengths_rejected(self):
        from heatbo.bo import IterationRecord

        r = IterationRecord(0, (0,), 1.0, 1.0, 0.0, 0.0, 1)
        with pytest.raises(Exception):
            runner.summarize({0: [r], 1: [r, r]})


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        import time

        t0 = time.perf_counter()
        assert runner.selftest() is True
        assert time.perf_counter() - t0 < 120.0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(runner.SELFTEST_CHECKS)
        assert "77 15 9 5 3 1" in out
        assert "padded distance 4 vs sorted 7" in out


class TestCompareSpeed:
    def test_pins_bundled_openblas_without_threadpoolctl(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        libs = runner._bundled_openblas()
        before = [get() for get, _ in libs]
        with runner._single_threaded_blas() as pinned:
            assert pinned is bool(libs)
            assert all(get() == 1 for get, _ in libs)
        assert [get() for get, _ in libs] == before
        rows = runner.compare_speed(category_sizes=(8,), num_points=60, dims=10)
        assert len(rows) == 2
        assert all(row["blas_pinned"] is bool(libs) for row in rows)
        assert [get() for get, _ in libs] == before

    def test_threadpoolctl_route_reports_pinned(self):
        pytest.importorskip("threadpoolctl")
        rows = runner.compare_speed(category_sizes=(8,), num_points=60, dims=10)
        assert all(row["blas_pinned"] is True for row in rows)


class TestCli:
    def test_run_with_bad_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nbenchmark = mystery\n")
        assert runner.main(["run", str(path)]) == 1

    def test_misspelled_ga_key_exits_one_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        text = path.read_text().replace("population_size = 12", "populaton_size = 10")
        path.write_text(text)
        assert runner.main(["run", str(path)]) == 1
        assert "populaton_size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_section_exits_one_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[ga]\ngenerations = 5\n")
        assert runner.main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_ga_value_exits_one_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        text = path.read_text().replace("population_size = 12", "population_size = abc")
        path.write_text(text)
        assert runner.main(["run", str(path)]) == 1
        assert "population_size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_kernel_key_exits_one_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[kernel]\nbetta = 5\n")
        assert runner.main(["run", str(path)]) == 1
        assert "betta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kernel_lines",
        ["beta = nan", "beta = -1", "sigma2 = inf", "sigma2 = nan", "sigma2 = abc"],
    )
    def test_invalid_kernel_value_exits_one_before_writing(
        self, tmp_path, capsys, kernel_lines
    ):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + f"\n[kernel]\n{kernel_lines}\n")
        assert runner.main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("n = 10", "n = abc"),
            ("n = 10", "n = 10\nbogus = 3"),
            ("population_size = 12", "population_size = 2.5"),
            ("generations = 4", "generations = true"),
            ("[optimizer]", "[trust_region]\nl_init = 0\n\n[optimizer]"),
            ("steps = 10", "steps = 10\nlearning_rate = true"),
            ("steps = 10", "steps = 10\njitter_ladder = 1e-6"),
            ("steps = 10", "steps = 10\nepsilon = 0"),
            ("budget = 3", "budgt = 3"),
            ("kernel = heat", "kernel = heat\nard = maybe"),
            ("[optimizer]", "[kernal]\nbeta = 0.5\n\n[optimizer]"),
            ("generations = 4", "generations = 4\nseed = 5"),
            ("generations = 4", "generations ="),
            ("n = 10", "n = 7.9"),
            ("n = 10", "n = true"),
            ("[optimizer]", "[trust_region]\nl_min = 0\n\n[optimizer]"),
            ("[optimizer]", "[trust_region]\nfailure_tolerance = 0\n\n[optimizer]"),
            ("init_count = 3", "init_count = 1"),
            ("generations = 4", "generations = -1"),
            ("generations = 4", "generations = 4\ntournament_size = 0"),
            ("generations = 4", "generations = 4\nelite_count = -1"),
            ("generations = 4", "generations = 4\ncrossover_prob = nan"),
            ("generations = 4", "generations = 4\nmutation_prob = -1"),
            ("steps = 10", "steps = 10\nlearning_rate = nan"),
            ("steps = 10", "steps = 10\ninitial_noise = 0"),
            ("steps = 10", "steps = -1"),
        ],
    )
    def test_invalid_option_value_exits_one_before_writing(
        self, tmp_path, capsys, old, new
    ):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        assert runner.main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_failed_seed_keeps_finished_traces(self, tmp_path, capsys, monkeypatch, parallel):
        monkeypatch.setattr(runner, "_run_single_seed", _fail_seed_one)
        path = write_config(tmp_path, seeds="0,1,2", parallel=parallel)
        assert runner.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "seed(s) [1] failed" in err and "seed 1 broke" in err
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "trace_labs_seed0.csv", "trace_labs_seed2.csv"
        ]
        for seed in (0, 2):
            assert len(read_csv(out / f"trace_labs_seed{seed}.csv")) == 6

    def test_run_command(self, tmp_path, capsys):
        path = write_config(tmp_path, seeds="0")
        assert runner.main(["run", str(path)]) == 0
        assert "summary" in capsys.readouterr().out

    def test_non_integer_cli_seed_exits_one_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert runner.main(["run", str(path), "--seeds", "0,x"]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags", [["--budget", "x"], ["--budgt", "3"], ["--parallel", "1.5"]]
    )
    def test_usage_error_exits_one_before_writing(self, tmp_path, capsys, flags):
        path = write_config(tmp_path)
        assert runner.main(["run", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_speed_usage_error_exits_one_before_writing(self, tmp_path, capsys):
        out = tmp_path / "speed.csv"
        assert runner.main(["speed", "--points", "x", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["run", "--help"]):
            with pytest.raises(SystemExit) as info:
                runner.main(argv)
            assert info.value.code == 0
        assert "usage: heatbo" in capsys.readouterr().out

    def test_cli_overrides(self, tmp_path):
        path = write_config(tmp_path, seeds="0")
        out_dir = tmp_path / "cli_out"
        code = runner.main(
            ["run", str(path), "--seeds", "3", "--budget", "2", "--out", str(out_dir),
             "--no-timing"]
        )
        assert code == 0
        rows = read_csv(out_dir / "trace_labs_seed3.csv")
        assert len(rows) == 5  # 3 init + 2 budget

    def test_list_commands(self, capsys):
        assert runner.main(["list-benchmarks"]) == 0
        assert "labs" in capsys.readouterr().out
        assert runner.main(["list-kernels"]) == 0
        assert "heat" in capsys.readouterr().out

    def test_module_entry_point(self):
        src = str(Path(heatbo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "heatbo", "list-kernels"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.split() == list(kernels.FAMILY_NAMES)

    def test_selftest_command(self):
        assert runner.main(["selftest"]) == 0

    def test_speed_command(self, tmp_path, capsys):
        out = tmp_path / "speed.csv"
        code = runner.main(
            ["speed", "--sizes", "8", "--points", "60", "--dims", "10", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2  # one row per (kernel, space) pair
        assert {r["kernel"] for r in rows} == {"heat_closed_form", "spectral_numeric"}

    @pytest.mark.parametrize(
        "flags", [["--sizes", "8,x"], ["--sizes", "1"], ["--dims", "0"], ["--points", "0"]]
    )
    def test_bad_speed_input_exits_one(self, capsys, flags):
        assert runner.main(["speed", *flags]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_speed_table_reports_pinning(self, capsys):
        code = runner.main(["speed", "--sizes", "8", "--points", "60", "--dims", "10"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kernel,categories,dims,points,median_ms,blas_pinned"
        assert len(lines) == 3
        assert all(line.rsplit(",", 1)[1] in ("True", "False") for line in lines[1:])
