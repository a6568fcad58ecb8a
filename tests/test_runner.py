import csv
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import heatbo
from heatbo import benchmarks, kernels, runner, spectral
from heatbo.space import InvalidInputError
from test_benchmarks import NON_FINITE_WEIGHTS


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
        with pytest.raises(InvalidInputError, match="cannot read"):
            runner.load_config(tmp_path / "nope.ini")

    def test_duplicate_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path, seeds="1,1")
        with pytest.raises(runner.ConfigError):
            runner.load_config(path)

    def test_unknown_kernel_rejected(self, tmp_path):
        path = write_config(tmp_path, kernel="mystery")
        with pytest.raises(runner.ConfigError, match=r"'mystery'; known: \[.*'heat'"):
            runner.load_config(path)

    def test_unknown_benchmark_rejected(self, tmp_path):
        path = write_config(tmp_path, benchmark="mystery")
        with pytest.raises(runner.ConfigError, match=r"'mystery'; known: \[.*'labs'"):
            runner.load_config(path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"seeds": ()}, "seed list must be non-empty"),
            ({"parallel": 0}, "parallel degree must be >= 1"),
        ],
    )
    def test_validate_rejects(self, fields, match):
        with pytest.raises(runner.ConfigError, match=match):
            runner.ExperimentConfig(**fields).validate()

    @pytest.mark.parametrize(
        "kernel, ard, param, shape",
        [
            ("heat", "true", "betas", (6,)),
            ("casmopolitan", "true", "lengthscales", (6,)),
            ("casmopolitan", "false", "lengthscales", (1,)),
            ("hamming_rbf", "false", "lengthscale", ()),
            ("rho", "true", "rhos", (6,)),
        ],
    )
    def test_kernel_section_sets_initial_values(self, tmp_path, kernel, ard, param, shape):
        from heatbo.space import SearchSpace

        path = write_config(tmp_path, kernel=kernel, ard=ard)
        path.write_text(path.read_text() + f"\n[kernel]\n{param} = 0.25\nsigma2 = 2\n")
        config = runner.load_config(path)
        assert type(config.kernel_options["sigma2"]) is float
        spec = runner._initial_kernel_spec(config, SearchSpace((2,) * 6))
        assert np.shape(spec.params[param]) == shape
        np.testing.assert_allclose(spec.params[param], 0.25)
        assert spec.sigma2 == 2.0

    @pytest.mark.parametrize(
        "kernel, ard",
        [("heat", True), ("combo", True), ("casmopolitan", True), ("rho", True),
         ("hamming_rbf", False), ("invariant", False)],
    )
    def test_unset_ard_takes_the_family_default(self, tmp_path, kernel, ard):
        from heatbo.space import SearchSpace

        config = runner.load_config(write_config(tmp_path, kernel=kernel))
        assert config.kernel_ard is None
        assert runner._initial_kernel_spec(config, SearchSpace((2,) * 6)).ard is ard

    @pytest.mark.parametrize(
        "kernel, line", [("heat", "betas = 0.3"), ("additive_sum", "vs = 0.5")]
    )
    def test_number_for_a_vector_parameter_fills_it(self, tmp_path, kernel, line):
        path = write_config(tmp_path, kernel=kernel, ard="true", seeds="0")
        path.write_text(path.read_text() + f"\n[kernel]\n{line}\n")
        assert runner.main(["run", str(path)]) == 0
        config = runner.load_config(path)
        [(key, value)] = config.kernel_options.items()
        spec = runner._initial_kernel_spec(config, runner._build_objective(config).space)
        assert spec.ard and np.shape(spec.params[key]) == (10,)  # labs n = 10
        np.testing.assert_array_equal(spec.params[key], value)

    @pytest.mark.parametrize("name", ["2024", "true"])
    def test_benchmark_option_read_by_its_type(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        instance = benchmarks.generate_synthetic_wcnf(7, 20, seed=1)
        (tmp_path / name).write_text(benchmarks.serialize_wcnf(instance))
        path = write_config(tmp_path, benchmark="maxsat")
        path.write_text(path.read_text().replace("n = 10", f"path = {name}"))
        config = runner.load_config(path)
        assert config.benchmark_options == {"path": name}
        assert runner._build_objective(config).space.n == 7

    @pytest.mark.parametrize("weights, error", NON_FINITE_WEIGHTS)
    def test_non_finite_wcnf_weight_exits_one_before_writing(
        self, tmp_path, capsys, weights, error
    ):
        (tmp_path / "bad.wcnf").write_text("p wcnf 2 2\n{} 1 0\n{} 2 0\n".format(*weights))
        path = write_config(tmp_path, benchmark="maxsat")
        path.write_text(path.read_text().replace("n = 10", f"path = {tmp_path / 'bad.wcnf'}"))
        assert runner.main(["run", str(path)]) == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kernel_section_reads_integers_and_text(self, tmp_path):
        path = write_config(tmp_path, kernel="invariant")
        path.write_text(path.read_text() + "\n[kernel]\nmode = proj\nsamples = 50\n")
        assert runner.load_config(path).kernel_options == {"mode": "proj", "samples": 50}


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

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"kernel_family": "mystery"}, r"'mystery'; known: \[.*'heat'"),
            ({"benchmark": "mystery"}, r"'mystery'; known: \[.*'labs'"),
            ({"kernel_options": {"gamma": 1.0}}, r"unknown key\(s\) \['gamma'\]"),
        ],
    )
    def test_unknown_names_and_kernel_keys_rejected_before_writing(
        self, tmp_path, fields, match
    ):
        config = runner.ExperimentConfig(output_dir=str(tmp_path / "out"), **fields)
        with pytest.raises(runner.ConfigError, match=match):
            runner.run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_is_config_error(self, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        config = runner.load_config(write_config(tmp_path, output_dir=blocker / "out"))
        with pytest.raises(runner.ConfigError, match="output path not writable"):
            runner.run_experiment(config)
        assert blocker.read_text() == ""

    def test_writability_probe_leaves_user_files_alone(self, tmp_path):
        config = runner.load_config(write_config(tmp_path))
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True)
        (out_dir / ".write_probe").write_text("user data")
        runner.run_experiment(config)
        assert (out_dir / ".write_probe").read_text() == "user data"

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


def _crash(*args):
    raise RuntimeError("eigensolver gone")


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        import time

        t0 = time.perf_counter()
        assert runner.main(["selftest"]) == 0
        assert time.perf_counter() - t0 < 120.0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(runner.SELFTEST_CHECKS)
        assert "77 15 9 5 3 1" in out
        assert "padded distance 4 vs sorted 7" in out

    @pytest.mark.parametrize(
        "module, name, break_, line",
        [
            (kernels, "heat_betas_to_casmo_lengthscales", lambda fn: lambda sp, b: 2 * fn(sp, b),
             r"kernel-equivalence: three kernel routes agree, max deviation \S+ -- FAIL"),
            (spectral, "counterexample_eigenvalues", lambda fn: _crash,
             r"unequal-size-counterexample: crashed: eigensolver gone -- FAIL"),
        ],
    )
    def test_failed_or_crashed_check_exits_three(
        self, capsys, monkeypatch, module, name, break_, line
    ):
        monkeypatch.setattr(module, name, break_(getattr(module, name)))
        assert runner.main(["selftest"]) == 3
        out = capsys.readouterr().out.splitlines()
        failed = [text for text in out if text.endswith(" -- FAIL")]
        assert len(out) == len(runner.SELFTEST_CHECKS) and len(failed) == 1
        assert re.fullmatch(line, failed[0])


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

    def test_singular_name_of_a_vector_exits_one_naming_the_vector(self, tmp_path, capsys):
        """Each parameter has one spelling: ``beta`` beside ``betas`` is not
        dropped in silence, and the message lists ``betas``."""
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[kernel]\nbeta = 0.1\nbetas = 0.5\n")
        assert runner.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "['beta'] cannot be set in [kernel]" in err and "'betas'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kernel, kernel_lines",
        [
            ("heat", "betas = nan"), ("heat", "betas = -1"), ("heat", "sigma2 = inf"),
            ("heat", "sigma2 = nan"), ("heat", "sigma2 = abc"), ("heat", "betas = true"),
            ("invariant", "samples = 2.5"), ("invariant", "inner = hamming_rbf"),
            ("invariant", "mode = prod"),
            ("random_decomposition", "decomposition = 0"),
        ],
    )
    def test_invalid_kernel_value_exits_one_before_writing(
        self, tmp_path, capsys, kernel, kernel_lines
    ):
        path = write_config(tmp_path, kernel=kernel)
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
            ("steps = 10", "steps = 10\nlearning_rate = true"),
            ("steps = 10", "steps = 10\njitter_ladder = 1e-6"),
            ("steps = 10", "steps = 10\nbeta1 = 0.9"),
            ("budget = 3", "budgt = 3"),
            ("kernel = heat", "kernel = heat\nard = maybe"),
            ("[optimizer]", "[kernal]\nbeta = 0.5\n\n[optimizer]"),
            ("generations = 4", "generations = 4\nseed = 5"),
            ("generations = 4", "generations ="),
            ("n = 10", "n = 7.9"),
            ("n = 10", "n = true"),
            ("[optimizer]", "[trust_region]\nfailure_tolerance = 0\n\n[optimizer]"),
            ("init_count = 3", "init_count = 1"),
            ("generations = 4", "generations = -1"),
            ("generations = 4", "generations = 4\ntournament_size = 0"),
            ("generations = 4", "generations = 4\nelite_count = -1"),
            ("generations = 4", "generations = 4\ncrossover_prob = nan"),
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

    @pytest.mark.parametrize(
        "section, key",
        [("trust_region", "l_init = 2"), ("trust_region", "l_min = 1"),
         ("trust_region", "l_max = 10"), ("ga", "mutation_prob = 0.1")],
    )
    def test_settings_that_follow_from_the_space_are_unknown_keys(
        self, tmp_path, capsys, section, key
    ):
        """The radius's bounds and start, and the mutation rate, follow from n."""
        path = write_config(tmp_path)
        body = path.read_text().replace("[ga]", "[trust_region]\n\n[ga]")
        path.write_text(body.replace(f"[{section}]", f"[{section}]\n{key}"))
        assert runner.main(["run", str(path)]) == 1
        assert f"cannot be set in [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kernel, ard", [("hamming_rbf", "true"), ("rho", "false")])
    def test_contradicting_ard_exits_one_before_writing(self, tmp_path, capsys, kernel, ard):
        path = write_config(tmp_path, kernel=kernel, ard=ard)
        assert runner.main(["run", str(path)]) == 1
        assert "contradicts" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["num_clauses = 0", "num_variables = 0"])
    def test_empty_synthetic_maxsat_exits_one_before_writing(self, tmp_path, capsys, option):
        path = write_config(tmp_path, benchmark="maxsat")
        path.write_text(path.read_text().replace("n = 10", option))
        assert runner.main(["run", str(path)]) == 1
        assert "at least one variable and one clause" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "overrides, old, new, flags, message",
        [
            pytest.param({}, "n = 10", "n = 3", ["--budget", "8"],
                         "init_count + budget exceeds the space's 8 points", id="budget-8"),
            # seed 0's initial draws repeat, so its run could finish: rejected all the same
            pytest.param({}, "n = 10", "n = 3", ["--budget", "6"],
                         "init_count + budget exceeds the space's 8 points", id="budget-6"),
            pytest.param({}, "", "", ["--seeds=-1"], "seed must be >= 0", id="seed"),
            pytest.param({"benchmark": "pest_control", "noise_seed": -1}, "n = 10", "", [],
                         "noise_seed must be >= 0", id="noise-seed"),
            pytest.param({"kernel": "invariant"}, "n = 10",
                         "n = 6\n[kernel]\nmode = sum\nseed = -1", [],
                         "seed must be an int >= 0", id="invariant-seed"),
        ],
    )
    def test_run_shape_and_seed_mistakes_exit_one_before_writing(
        self, tmp_path, capsys, overrides, old, new, flags, message
    ):
        path = write_config(tmp_path, seeds="0", **overrides)
        path.write_text(path.read_text().replace(old, new))
        assert runner.main(["run", str(path), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    def test_unwritable_speed_output_exits_one_before_timing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "compare_speed", _crash)  # a call would exit 2
        (tmp_path / "a_file").write_text("")
        assert runner.main(["speed", "--out", str(tmp_path / "a_file" / "speed.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error: output path not writable")

    def test_directory_speed_output_exits_one_before_timing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "compare_speed", _crash)  # a call would exit 2
        assert runner.main(["speed", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: output path is a directory")

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

    @staticmethod
    def fresh_python(*args):
        """Run a new interpreter on this checkout's ``src``."""
        src = str(Path(heatbo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    def test_module_entry_point(self):
        proc = self.fresh_python("-m", "heatbo", "list-kernels")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.split() == list(kernels.FAMILY_NAMES)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # gp's L-BFGS is numpy so that no process pays scipy.optimize's memory and time
        proc = self.fresh_python("-c", "import sys, heatbo; print('scipy.optimize' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.split() == ["False"], proc.stderr

    def test_import_leaves_scipy_packages_and_multiprocessing_unloaded(self):
        # heatbo loads scipy's LAPACK and ndtr extension files itself, and the runner imports
        # its process pool only for parallel > 1; these chains were most of the import's time
        chains = ["scipy.linalg", "scipy.special", "scipy._lib._array_api", "multiprocessing"]
        proc = self.fresh_python(
            "-c", f"import sys, heatbo; print([m for m in {chains!r} if m in sys.modules])"
        )
        assert proc.returncode == 0 and proc.stdout.split() == ["[]"], proc.stderr

    @pytest.mark.parametrize(
        "files_found, prelude",
        [
            (True, ""),
            # no extension suffix matches, as when scipy is too old to have a file
            (False, "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES = []"),
        ],
        ids=["extension-files", "public-fallback"],
    )
    def test_scipy_routines_are_the_public_functions(self, files_found, prelude):
        script = f"""
import sys
import numpy as np
{prelude}
from heatbo import bo, gp
print("scipy.linalg" not in sys.modules and "scipy.special" not in sys.modules)
print(all(m in sys.modules for m in ("scipy.linalg._flapack", "scipy.special._special_ufuncs")))
import scipy.linalg.lapack, scipy.special
names = ("dpotrf", "dpotri", "dpotrs", "dtrtrs")
print(all(getattr(gp, n) is getattr(scipy.linalg.lapack, n) for n in names))
print(bo.ndtr is scipy.special.ndtr)
x = np.linspace(-40.0, 40.0, 200_001)
print(np.array_equal(bo.ndtr(x).view(np.int64), scipy.special.ndtr(x).view(np.int64)))
"""
        proc = self.fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(files_found), "True", "True", "True", "True"]

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


@pytest.mark.parametrize(
    "module",
    [heatbo, heatbo.space, heatbo.spectral, heatbo.kernels, heatbo.gp, heatbo.bo,
     heatbo.benchmarks, heatbo.runner],
    ids=lambda module: module.__name__,
)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    exec(example.split("```", 1)[0], {})
    assert float(capsys.readouterr().out) >= 0.0
