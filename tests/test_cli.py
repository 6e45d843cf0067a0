import json

import pytest

from cusplab.cli import (
    EXIT_NUMERICAL,
    EXIT_OBSTRUCTION,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


class TestWeightsCommand:
    def test_reference_pass(self, tmp_path, capsys):
        assert run(tmp_path, "weights", "--n", "5", "--ranks", "1,2") == EXIT_PASS
        out = capsys.readouterr().out
        assert "mu0 = 3.0" in out
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["status"] == "pass"
        assert payload["report"]["mu0"] == 3.0
        for check in payload["checks"]:
            assert {"name", "value", "tolerance", "passed", "claim"} <= set(check)

    def test_rank_two_obstruction(self, tmp_path):
        assert run(tmp_path, "weights", "--n", "4", "--ranks", "2") == EXIT_OBSTRUCTION
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["status"] == "obstruction"
        assert "f = 2" in payload["error"]["reason"]

    def test_maximal_rank_obstruction(self, tmp_path):
        assert run(tmp_path, "weights", "--n", "4", "--ranks", "1,3") == EXIT_OBSTRUCTION

    def test_window_reported_for_explicit_mu0(self, tmp_path, capsys):
        assert run(tmp_path, "weights", "--n", "4", "--ranks", "1",
                   "--mu0", "1.75") == EXIT_PASS
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        window = payload["report"]["ends"][0]["window"]
        assert window[1] == pytest.approx(0.8228756555, rel=1e-9)

    def test_bad_usage(self, tmp_path):
        assert main(["weights", "--n", "not-a-number"]) == EXIT_USAGE
        assert run(tmp_path, "weights", "--n", "0", "--ranks", "1") == EXIT_USAGE


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ("solve", "--nodes", "4"),
        ("koiso", "--refine", "5,9"),
        ("sweep", "--eps", "0.99"),
        ("curvature", "--n", "2"),
        ("sweep", "--f", "3"),
        ("solve", "--weights", "1"),
        ("weights", "--ranks", "0"),
        ("schauder", "--n", "2"),
        ("schauder", "--f", "3"),
        ("koiso", "--K", "nan"),
        ("solve", "--K", "nan"),
        ("curvature", "--perturb", "1e200"),
        ("curvature", "--perturb", "1"),
    ], ids=" ".join)
    def test_usage_exit_with_one_line(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("koiso", "--refine", "17"),
        ("expand", "--stages", "0"),
    ], ids=" ".join)
    def test_meaningless_run_rejected(self, tmp_path, argv):
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert not (tmp_path / f"{argv[0]}_summary.json").exists()


class TestEveryCommandWritesItsSummary:
    @pytest.mark.parametrize("argv, code, status", [
        (("sweep", "--K", "-50"), EXIT_OBSTRUCTION, "obstruction"),
        (("solve", "--K", "-50"), EXIT_OBSTRUCTION, "obstruction"),
        (("expand", "--step", "0.5", "--stages", "1"), EXIT_NUMERICAL,
         "numerical-failure"),
        (("curvature", "--step", "0.5"), EXIT_NUMERICAL, "numerical-failure"),
        (("sweep", "--K", "-8", "--weights", "2.5,0.5", "--eps", "0.2,0.025",
          "--nodes", "40"), EXIT_NUMERICAL, "numerical-failure"),
        (("solve", "--nodes", "4"), EXIT_USAGE, "configuration-error"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_failed_run_leaves_summary(self, tmp_path, capsys, argv, code, status):
        assert run(tmp_path, *argv) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        payload = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text())
        assert payload["status"] == status
        assert payload["error"]["type"]


class TestCurvatureCommand:
    def test_pass_and_artifacts(self, tmp_path):
        assert run(tmp_path, "curvature", "--n", "4") == EXIT_PASS
        assert (tmp_path / "curvature_defects.csv").exists()
        payload = json.loads((tmp_path / "curvature_summary.json").read_text())
        assert payload["status"] == "pass"

    def test_stencil_failure_is_numerical(self, tmp_path, capsys):
        # a step this large pushes the stencil out of the chart ranges
        assert run(tmp_path, "curvature", "--step", "0.5") == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_perturbed_metric_fails(self, tmp_path):
        code = run(tmp_path, "curvature", "--n", "4", "--perturb", "0.05")
        assert code == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "curvature_summary.json").read_text())
        assert payload["status"] == "fail"


class TestSolveAndSweep:
    def test_sweep_pass(self, tmp_path):
        code = run(tmp_path, "sweep", "--eps", "0.2,0.1", "--nodes", "24")
        assert code == EXIT_PASS
        rows = (tmp_path / "sweep_ratios.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[0] == "eps"
        assert len(rows) == 3
        payload = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert payload["plateau_factor"] <= 2.0
        assert len(payload["min_eigenvalues"]) == 2
        assert all(lam > 0 for lam in payload["min_eigenvalues"])

    def test_solve_at_256_nodes(self, tmp_path):
        # the ARPACK smallest-algebraic probe used to exhaust its iteration
        # cap on this grid; shift-invert on the factorization converges
        code = run(tmp_path, "solve", "--nodes", "256", "--eps", "0.05")
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["status"] == "pass"
        (check,) = payload["checks"]
        assert check["name"] == "barrier_ratio" and check["passed"]

    def test_indefinite_flag_reports_numerical_failure(self, tmp_path):
        code = run(tmp_path, "solve", "--expect-indefinite", "--nodes", "16")
        assert code == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["status"] == "numerical-failure"
        assert "IndefiniteOperator" in payload["error"]["type"]
        # partial artifacts are still written before the exit
        assert (tmp_path / "solve_summary.json").exists()


class TestSchauderCommand:
    def test_pass(self, tmp_path):
        assert run(tmp_path, "schauder") == EXIT_PASS
        payload = json.loads((tmp_path / "schauder_summary.json").read_text())
        assert max(payload["spread"].values()) < 0.05


class TestConfigResolution:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nranks = 1,2\nseed = 7\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "weights", "--n", "4", "--ranks", "1"])
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["config"]["n"] == 4  # the flag wins over the file
        assert payload["config"]["seed"] == 7

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CUSPLAB_OUT", str(tmp_path / "envout"))
        assert main(["weights", "--n", "5", "--ranks", "1"]) == EXIT_PASS
        assert (tmp_path / "envout" / "weights_summary.json").exists()

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["--out-dir", str(out), "koiso", "--refine", "17,33",
                  "--seed", "11"])
        pa = json.loads((a / "koiso_summary.json").read_text())
        pb = json.loads((b / "koiso_summary.json").read_text())
        for p in (pa, pb):
            del p["elapsed_seconds"]
            p["config"].pop("out_dir")
            p.pop("tables")  # artifact paths differ by construction
        assert pa == pb


class TestConfigAliases:
    def test_expect_indefinite_via_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expect_indefinite = true\nnodes = 16\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "solve"])
        assert code == EXIT_NUMERICAL

    def test_chart_range_alias(self):
        from cusplab.charts import chart_from_config

        chart = chart_from_config("kind = maximal_cusp\nn = 4\nr_max = 0.7")
        assert chart.edge == 0.7


class TestInadmissibleSweep:
    def test_ratios_recorded_but_not_asserted(self, tmp_path, capsys):
        # margins < 0: the solves still run (the discrete form stays
        # coercive), the table is recorded, boundedness is not asserted
        code = main(["--out-dir", str(tmp_path), "sweep",
                     "--weights", "2.5,0.5", "--eps", "0.2,0.1",
                     "--nodes", "20"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "inadmissible" in out
        payload = json.loads((tmp_path / "sweep_summary.json").read_text())
        names = [c["name"] for c in payload["checks"]]
        assert "plateau_factor" not in names
        assert "mms_error" in names

    def test_out_dir_after_subcommand(self, tmp_path):
        code = main(["weights", "--n", "5", "--ranks", "1",
                     "--out-dir", str(tmp_path / "late")])
        assert code == EXIT_PASS
        assert (tmp_path / "late" / "weights_summary.json").exists()
