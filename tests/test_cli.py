import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cusplab import charts, cli, tensorcalc
from cusplab.cli import (
    EXIT_NUMERICAL,
    EXIT_OBSTRUCTION,
    EXIT_PASS,
    EXIT_USAGE,
    _curvature_charts,
    _load_config,
    _sample_chart_points,
    build_parser,
    main,
)


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


def _no_constant(name):
    raise ValueError(f"summary holds {name}, which is not JSON")


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

    @pytest.mark.parametrize("mu0, reason", [
        ("2.5", "requested mu0 = 2.5 outside window (1.5, 2.0)"),
        # inside the window, but so close to its end that the margin is gone
        ("1.9999999", "margins fell below delta_min = 1e-06: "),
    ])
    def test_mu0_obstruction(self, tmp_path, capsys, mu0, reason):
        assert run(tmp_path, "weights", "--n", "4", "--mu0", mu0) == EXIT_OBSTRUCTION
        err = capsys.readouterr().err
        assert err.startswith(f"obstruction: {reason}")
        assert err.count("\n") == 1
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["status"] == "obstruction"
        assert payload["error"]["type"] == "AdmissibilityObstruction"
        assert payload["error"]["reason"].startswith(reason)
        assert payload["report"]["obstruction"] == payload["error"]["reason"]

    @pytest.mark.parametrize("ranks", ["9", "1,4"])
    def test_rank_above_n_minus_1_is_a_usage_error(self, tmp_path, capsys, ranks):
        assert run(tmp_path, "weights", "--n", "4", "--ranks", ranks) == EXIT_USAGE
        bad = ranks.split(",")[-1]
        assert capsys.readouterr().err == (
            f"configuration error: invalid cusp rank {bad}: must lie in 1..n-1\n")
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["status"] == "configuration-error"
        assert payload["error"]["type"] == "ValueError"

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
        ("solve", "--weights", "nan,0.5"),
        ("solve", "--weights", "1.75,abc"),
        ("sweep", "--weights", "1.75,inf"),
        ("sweep", "--eps", "0.8"),
        ("solve", "--eps", "0.8"),
        ("sweep", "--eps", "0.6,0.5,0.3"),
        ("solve", "--eps", "0.3"),
    ], ids=" ".join)
    def test_usage_exit_with_one_line(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("koiso", "--refine", "17"),
        ("koiso", "--refine", "17,17"),
        ("koiso", "--refine", "33,17,65"),
        ("expand", "--stages", "0"),
        ("solve", "--weights", "nan,0.5"),
        ("solve", "--weights", "1.75,abc"),
        ("sweep", "--weights", "1.75,inf"),
    ], ids=" ".join)
    def test_meaningless_run_rejected(self, tmp_path, argv):
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert not (tmp_path / f"{argv[0]}_summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ("solve", "--eps", "-1"),
        ("solve", "--eps", "0"),
        ("solve", "--eps", "nan"),
        ("sweep", "--eps", "inf,0.1"),
        ("sweep", "--eps", "0.1,nan"),
        ("sweep", "--eps", "0.2,-0.1"),
        ("schauder", "--eps", "-1"),
        ("schauder", "--eps", "0.1,-inf"),
        ("schauder", "--eps", "nan"),
    ], ids=" ".join)
    def test_eps_must_be_finite_and_positive(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "configuration error: eps: must be finite and positive\n")
        assert not (tmp_path / f"{argv[0]}_summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ("solve", "--eps", "1e-12", "--nodes", "16"),
        ("sweep", "--eps", "0.1,1e-7"),
    ], ids=" ".join)
    def test_eps_below_the_cusp_grids_floor(self, tmp_path, capsys, argv):
        # theta0 runs to arccos(sqrt(eps)), which must stay below
        # pi/2 - POLE_MARGIN: eps >= sin^2(POLE_MARGIN), about 1e-6
        eps = float(argv[2].split(",")[-1])
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"configuration error: eps = {eps} is below the cusp grid's floor "
            "sin^2(POLE_MARGIN) = 1e-06: theta0 would run past pi/2 - POLE_MARGIN\n")

    @pytest.mark.parametrize("argv", [
        ("solve", "--eps", "1.5"),
        ("sweep", "--eps", "2,1"),
    ], ids=" ".join)
    def test_eps_that_leaves_no_room(self, tmp_path, capsys, argv):
        # the cusp grid checks its room before it takes arccos(sqrt(eps)),
        # which has no value for eps > 1
        eps = float(argv[2].split(",")[0])
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"configuration error: eps = {eps} leaves no room in the chart\n")

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, monkeypatch,
                                         source, below):
        # an existing file, or a path below one, cannot be the output directory
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = str(blocker / "out" if below else blocker)
        if source == "env":
            monkeypatch.setenv("CUSPLAB_OUT", out)
            argv = ["weights"]
        else:
            argv = ["--out-dir", out, "weights"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("subcommand", ["curvature", "koiso", "expand"])
    def test_seed_must_be_non_negative(self, tmp_path, capsys, subcommand):
        assert run(tmp_path, subcommand, "--seed", "-1") == EXIT_USAGE
        assert capsys.readouterr().err == (
            "configuration error: seed: must be non-negative\n")
        assert not (tmp_path / f"{subcommand}_summary.json").exists()


class TestEveryCommandWritesItsSummary:
    @pytest.mark.parametrize("argv, code, status", [
        (("sweep", "--K", "-50"), EXIT_OBSTRUCTION, "obstruction"),
        (("solve", "--K", "-50"), EXIT_OBSTRUCTION, "obstruction"),
        (("expand", "--step", "0.5", "--stages", "1"), EXIT_NUMERICAL,
         "numerical-failure"),
        (("curvature", "--step", "0.5"), EXIT_NUMERICAL, "numerical-failure"),
        # seven coordinates: the failing point prints wider than numpy wraps
        (("expand", "--n", "7", "--stages", "6"), EXIT_NUMERICAL,
         "numerical-failure"),
        (("curvature", "--n", "7", "--step", "0.5"), EXIT_NUMERICAL,
         "numerical-failure"),
        (("sweep", "--K", "-8", "--weights", "2.5,0.5", "--eps", "0.2,0.025",
          "--nodes", "40"), EXIT_NUMERICAL, "numerical-failure"),
        (("solve", "--nodes", "4"), EXIT_USAGE, "configuration-error"),
        (("solve", "--expect-indefinite", "--nodes", "16"), EXIT_NUMERICAL,
         "numerical-failure"),
        (("sweep", "--eps", "0.8"), EXIT_USAGE, "configuration-error"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_failed_run_leaves_summary(self, tmp_path, capsys, argv, code, status):
        assert run(tmp_path, *argv) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        # strict JSON: NaN and Infinity are written as null
        payload = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text(),
                             parse_constant=_no_constant)
        assert payload["status"] == status
        assert payload["error"]["type"]

    @pytest.mark.parametrize("argv", [
        ("curvature", "--step", "1e-170"),
        ("expand", "--step", "1e-170", "--stages", "1"),
        ("sweep", "--K", "1e308"),
    ], ids=" ".join)
    def test_warning_raised_as_error_leaves_summary(self, tmp_path, capsys, argv):
        # a step that underflows its differences, a K that overflows the margin
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(tmp_path, *argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        payload = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text(),
                             parse_constant=_no_constant)
        assert payload["status"] == "numerical-failure"
        assert payload["error"]["type"] == "RuntimeWarning"

    def test_warning_raised_as_error_under_python_w_error(self, tmp_path):
        import cusplab

        env = dict(os.environ, PYTHONPATH=str(Path(cusplab.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cusplab.cli", "--out-dir",
             str(tmp_path), "curvature", "--step", "1e-170"],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == EXIT_NUMERICAL
        assert out.stderr.startswith("numerical failure: ")
        assert len(out.stderr.strip().splitlines()) == 1
        payload = json.loads((tmp_path / "curvature_summary.json").read_text())
        assert payload["status"] == "numerical-failure"
        assert payload["error"]["type"] == "RuntimeWarning"

    @pytest.mark.parametrize("message, want", [
        ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
         "and data type float64",
         "out of memory: Unable to allocate 74.5 GiB for an array with shape "
         "(100000, 100000) and data type float64"),
        ("", "out of memory: an allocation failed"),
    ], ids=["numpy-allocation", "bare"])
    @pytest.mark.parametrize("subcommand", ["solve", "sweep"])
    def test_memory_error_leaves_summary(self, tmp_path, capsys, monkeypatch,
                                         subcommand, message, want):
        import cusplab.solver as sv

        def out_of_memory(grid, fn):
            raise MemoryError(message)

        monkeypatch.setattr(sv, "sample_field", out_of_memory)
        assert run(tmp_path, subcommand, "--nodes", "16") == EXIT_USAGE
        assert capsys.readouterr().err == f"configuration error: {want}\n"
        payload = json.loads((tmp_path / f"{subcommand}_summary.json").read_text(),
                             parse_constant=_no_constant)
        assert payload["status"] == "configuration-error"
        assert payload["error"] == {"type": "MemoryError", "message": want}


class TestCurvatureCommand:
    def test_pass_and_artifacts(self, tmp_path):
        assert run(tmp_path, "curvature", "--n", "4") == EXIT_PASS
        assert (tmp_path / "curvature_defects.csv").exists()
        payload = json.loads((tmp_path / "curvature_summary.json").read_text())
        assert payload["status"] == "pass"

    def test_defects_table_keeps_its_four_rows_in_order(self, tmp_path):
        run(tmp_path, "curvature", "--n", "4")
        lines = (tmp_path / "curvature_defects.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "chart"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "intermediate_cusp", "maximal_cusp", "collar", "upper_half_space"]

    def test_stencil_failure_is_numerical(self, tmp_path, capsys):
        # a step this large pushes the stencil out of the chart ranges
        assert run(tmp_path, "curvature", "--step", "0.5") == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_perturbed_metric_fails(self, tmp_path):
        code = run(tmp_path, "curvature", "--n", "4", "--perturb", "0.05")
        assert code == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "curvature_summary.json").read_text())
        assert payload["status"] == "fail"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the underflow's 0/0
    def test_nan_defects_fail_both_checks(self, tmp_path):
        # the step's square underflows, so every defect is NaN
        assert run(tmp_path / "default", "curvature") == EXIT_PASS
        assert run(tmp_path / "tiny", "curvature", "--step", "1e-170") == \
            EXIT_NUMERICAL
        for out, passed in (("default", True), ("tiny", False)):
            payload = json.loads((tmp_path / out / "curvature_summary.json")
                                 .read_text(), parse_constant=_no_constant)
            checks = {c["name"]: c for c in payload["checks"]}
            assert [c["passed"] for c in checks.values()] == [passed, passed]
            assert (checks["max_defect"]["value"] is None) == (not passed)
            assert (checks["richardson_order"]["value"] is None) == (not passed)

    def test_one_ricci_call_per_chart_and_step(self, tmp_path, monkeypatch):
        calls = []
        original = tensorcalc.ricci_at

        def counted(g, p, step=tensorcalc.DEFAULT_STEP):
            calls.append(np.shape(p))
            return original(g, p, step)

        monkeypatch.setattr(cli.tensorcalc, "ricci_at", counted)
        assert run(tmp_path, "curvature") == EXIT_PASS
        assert calls == [(51, 4)] * 8

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_sample_is_the_per_coordinate_draws(self, n):
        for f in range(1, n - 1):
            for chart in _curvature_charts(n, f).values():
                want_rng, got_rng = (np.random.default_rng(5) for _ in range(2))
                want = np.array(_scalar_draws(chart, 51, want_rng))
                got = _sample_chart_points(chart, 51, got_rng)
                assert got.shape == (51, n)
                assert np.array_equal(got, want)
                assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("perturb", [0.0, 0.1])
    def test_defects_match_the_per_point_loop(self, tmp_path, n, seed, perturb):
        run(tmp_path, "curvature", "--n", str(n), "--seed", str(seed),
            "--perturb", str(perturb))
        lines = (tmp_path / "curvature_defects.csv").read_text().splitlines()
        got = [[float(x) for x in line.split(",")[1:3]] for line in lines[1:]]
        assert got == _per_point_defects(n, seed, perturb)


def _scalar_draws(chart, count, rng):
    """The sample drawn one coordinate at a time, kept in the chart by
    rejection: the draw `_sample_chart_points` makes as one array."""
    pts = []
    while len(pts) < count:
        p = []
        for lo, hi in chart.coordinate_ranges():
            if math.isinf(lo) or math.isinf(hi):
                p.append(rng.uniform(-0.8, 0.8))
            else:
                span = hi - lo
                p.append(rng.uniform(lo + 0.25 * span, hi - 0.25 * span))
        p = np.array(p)
        if chart.contains(p):
            pts.append(p)
    return pts


def _per_point_defects(n, seed, perturb, step=1e-3):
    """[defect at step, defect at step / 2] per chart of a default
    `curvature` run, from one-point `ricci_at` calls on the scalar draws."""
    rng = np.random.default_rng(seed)
    rows = []
    for chart in _curvature_charts(n, 1).values():
        h = tensorcalc.chart_metric(chart)
        if perturb:
            @charts.batched
            def ev(p, chart=chart):
                g = chart.metric_at(p)
                wave = perturb * np.sin(3.0 * p[..., 0])
                return g + wave[..., None, None] * (g * np.eye(chart.n))

            h = tensorcalc.MetricField(chart, ev, "perturbed",
                                       chart.metric_stepped)
        defect1 = defect2 = 0.0
        for p in _scalar_draws(chart, 51, rng):
            hp = h(p)
            d1, d2 = (tensorcalc.tensor_norm(
                hp, tensorcalc.ricci_at(h, p, s) + (n - 1) * hp)
                for s in (step, step / 2))
            defect1, defect2 = max(defect1, d1), max(defect2, d2)
        rows.append([defect1, defect2])
    return rows


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
        # cap on this grid; Lanczos on the factor's Gram form converges
        code = run(tmp_path, "solve", "--nodes", "256", "--eps", "0.05")
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["status"] == "pass"
        (check,) = payload["checks"]
        assert check["name"] == "barrier_ratio" and check["passed"]

    def test_solve_assembles_its_operator_once(self, tmp_path, monkeypatch):
        # the barrier check reuses the operator the solve assembled
        import cusplab.solver as sv

        calls = []
        original = sv.assemble

        def counted(grid, K):
            calls.append(K)
            return original(grid, K)

        monkeypatch.setattr(sv, "assemble", counted)
        assert run(tmp_path, "solve", "--nodes", "24") == EXIT_PASS
        assert calls == [-2.0]

    def test_solve_records_min_eigenvalue(self, tmp_path):
        from cusplab.charts import Chart
        from cusplab.solver import assemble, cusp_grid

        grid = cusp_grid(Chart.intermediate_cusp(4, 1), 0.2, nodes=24)
        want = assemble(grid, -2.0).smallest_eigenvalue()
        assert run(tmp_path, "solve", "--nodes", "24") == EXIT_PASS
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["min_eigenvalue"] == want > 0
        assert run(tmp_path, "solve", "--nodes", "24", "--K", "6") == EXIT_PASS
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["min_eigenvalue"] is None

    def test_summaries_record_probe_steps_and_blas_threads(self, tmp_path):
        from cusplab.solver import PROBE_BASIS, solve_blas_threads

        cap = solve_blas_threads()
        assert cap in (None, 1)
        assert run(tmp_path, "solve", "--nodes", "24") == EXIT_PASS
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["probe_steps"] == PROBE_BASIS + 1 == 7
        assert payload["blas_threads"] == cap
        assert run(tmp_path, "solve", "--nodes", "24", "--K", "6") == EXIT_PASS
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["probe_steps"] is None
        assert run(tmp_path, "sweep", "--eps", "0.2,0.1,0.05", "--nodes", "24") == EXIT_PASS
        payload = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert payload["probe_steps"] == [7, 7, 7]
        assert payload["blas_threads"] == cap
        assert run(tmp_path, "sweep", "--eps", "0.2,0.1", "--nodes", "24",
                   "--K", "6") == EXIT_PASS
        payload = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert payload["probe_steps"] == [None, None]

    def test_indefinite_flag_reports_numerical_failure(self, tmp_path):
        code = run(tmp_path, "solve", "--expect-indefinite", "--nodes", "16")
        assert code == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["status"] == "numerical-failure"
        assert "IndefiniteOperator" in payload["error"]["type"]
        # partial artifacts are still written before the exit
        assert (tmp_path / "solve_summary.json").exists()


class TestKoisoCommand:
    def test_overflowed_slack_fails_the_lower_bound(self, tmp_path):
        # at K = 1e308 the pairing overflows: the slacks read inf or NaN,
        # and neither is a slack the check can pass on
        out = run_plain(tmp_path, "koiso", "--K", "1e308")
        assert out.returncode == EXIT_NUMERICAL
        assert "RuntimeWarning: overflow" in out.stderr
        payload = json.loads((tmp_path / "koiso_summary.json").read_text())
        assert payload["status"] == "fail"
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["lower_bound_slack"]["value"] is None
        assert not checks["lower_bound_slack"]["passed"]
        assert checks["identity_order"]["passed"]


class TestSchauderCommand:
    def test_pass(self, tmp_path):
        assert run(tmp_path, "schauder") == EXIT_PASS
        payload = json.loads((tmp_path / "schauder_summary.json").read_text())
        assert max(payload["spread"].values()) < 0.05

    def test_one_rescaling_call_per_family_and_eps(self, tmp_path, monkeypatch):
        import cusplab.charts as charts

        shapes = []
        original = charts.rescaled_metric_at

        def counted(case, q):
            shapes.append(q.shape)
            return original(case, q)

        monkeypatch.setattr(charts, "rescaled_metric_at", counted)
        assert run(tmp_path, "schauder") == EXIT_PASS
        # three families at four eps, each over the whole 397-point lattice
        assert shapes == [(397, 4)] * 12


class TestConfigResolution:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nranks = 1,2\nmu0 = 1.6\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "weights", "--n", "4", "--ranks", "1"])
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["config"]["n"] == 4  # the flag wins over the file
        assert payload["config"]["mu0"] == 1.6

    def test_parser_reused_across_calls_keeps_no_values(self, tmp_path):
        from cusplab.cli import build_parser

        assert build_parser() is build_parser()
        assert run(tmp_path / "a", "weights", "--n", "5", "--ranks", "1,2") == EXIT_PASS
        assert run(tmp_path / "b", "weights") == EXIT_PASS
        payload = json.loads((tmp_path / "b" / "weights_summary.json").read_text())
        assert payload["config"]["n"] == 4 and payload["config"]["ranks"] == [1]

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


EXPAND_LADDER = ("expand", "--n", "4", "--stages", "3", "--seed", "3")


def _run_record(out_dir):
    """A run's summary without its timing and paths, and its CSV bytes."""
    payload = json.loads((out_dir / "expand_summary.json").read_text())
    del payload["elapsed_seconds"]
    payload["config"].pop("out_dir")
    payload.pop("tables")
    return payload, {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}


class TestResidentHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are glibc's")
    def test_expand_ops_do_not_refault_the_heap(self, tmp_path):
        import resource

        from cusplab import cli

        cli._keep_heap_resident.cache_clear()
        assert run(tmp_path, *EXPAND_LADDER) == EXIT_PASS  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            assert run(tmp_path, *EXPAND_LADDER) == EXIT_PASS
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 < 500

    def test_without_glibc_the_run_is_unchanged(self, tmp_path, capsys,
                                                monkeypatch):
        import ctypes

        from cusplab import cli

        assert run(tmp_path / "glibc", *EXPAND_LADDER) == EXIT_PASS
        err = capsys.readouterr().err
        opened = []

        def no_libc(name, *args, **kwargs):
            opened.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        cli._keep_heap_resident.cache_clear()
        try:
            assert run(tmp_path / "none", *EXPAND_LADDER) == EXIT_PASS
        finally:
            cli._keep_heap_resident.cache_clear()
        assert opened == ["libc.so.6"]
        assert capsys.readouterr().err == err
        assert _run_record(tmp_path / "none") == _run_record(tmp_path / "glibc")


class TestExpandStages:
    def test_summary_records_each_correction_stage(self, tmp_path):
        assert run(tmp_path, *EXPAND_LADDER) == EXIT_PASS
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        stages = payload["stages"]
        assert [set(st) for st in stages] == [
            {"order", "s", "m2", "mv", "mt", "max_coefficient"}] * 2
        assert [(st["order"], st["s"]) for st in stages] == [(2, 1.0), (3, 2.0)]
        # the closed-form block scalars (K - s(s - 3))/2 at n = 4
        assert [(st["m2"], st["mv"], st["mt"]) for st in stages] == [
            (4.0, 3.0, 1.0), (4.0, 3.0, 1.0)]
        assert all(st["max_coefficient"] >= 0 for st in stages)
        # stage 2 is a no-op up to the extraction's noise; stage 3 is not
        assert stages[0]["max_coefficient"] < 1e-4
        assert stages[1]["max_coefficient"] > 0.1
        assert len(list(tmp_path.glob("*.csv"))) == 1  # the slopes table only
        # the ladder's stencil steps along rho, y1 and y2, not the azimuth
        assert payload["stencil"] == {"coordinates": ["rho", "y1", "y2"],
                                      "points": 19}

    def test_unresolved_slope_fails_its_stage(self, tmp_path, monkeypatch,
                                              one_rho_bump):
        # a residual above the floor at one rho only fixes no slope: each
        # stage headline is NaN, written as null, and fails with exit 3
        import cusplab.expansion as expansion

        fit = expansion.vanishing_order
        monkeypatch.setattr(expansion, "vanishing_order",
                            lambda g, g1, rhos, ys: fit(
                                one_rho_bump, one_rho_bump, rhos, ys))
        assert run(tmp_path, *EXPAND_LADDER) == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        assert payload["status"] == "fail"
        checks = {c["name"]: c for c in payload["checks"]}
        for j in (1, 2, 3):
            assert checks[f"stage{j}_slope"]["value"] is None
            assert not checks[f"stage{j}_slope"]["passed"]
            assert checks[f"stage{j}_gauge"]["passed"]

    def test_stage_four_is_checked_against_its_threshold(self, tmp_path):
        assert run(tmp_path, "expand", "--n", "5", "--stages", "4",
                   "--seed", "0") == EXIT_PASS
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        checks = {c["name"]: c for c in payload["checks"]}
        assert [checks[f"stage{j}_slope"]["tolerance"] for j in (1, 2, 3, 4)] == [
            0.9, 1.85, 2.7, 3.7]
        assert checks["stage4_slope"]["value"] >= 3.7

    def test_unstable_extraction_is_a_numerical_failure(self, tmp_path, capsys,
                                                        monkeypatch):
        # a leading-coefficient fit whose residual exceeds 5% of its data
        # scale stops the ladder at stage 1
        import cusplab.expansion as expansion

        fit = expansion._fit_leading_coefficient

        def unstable(rhos, values, t):
            c0, _, scale = fit(rhos, values, t)
            return c0, 0.1 * scale, scale

        monkeypatch.setattr(expansion, "_fit_leading_coefficient", unstable)
        assert run(tmp_path, *EXPAND_LADDER) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: residual coefficient "
                              "extraction unstable (fit residual ")
        assert err.endswith(" at stage 1\n") and err.count("\n") == 1
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        assert payload["status"] == "numerical-failure"
        assert payload["error"]["type"] == "IndicialExtractionFailure"
        assert payload["error"]["message"] == err[len("numerical failure: "):-1]

    @pytest.mark.parametrize("n", [6, 7])
    def test_ladder_to_stage_n_minus_one_is_a_numerical_failure(self, tmp_path,
                                                                 capsys, n):
        # a known defect: g_5 loses positivity at rho = 0.4 before either
        # ladder reaches stage n - 1
        assert run(tmp_path, "expand", "--n", str(n), "--stages", str(n - 1)) \
            == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(
            "numerical failure: metric field 'g_5' has a nonpositive diagonal "
            "at [0.4 ")
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        assert payload["status"] == "numerical-failure"
        assert payload["error"]["type"] == "StencilError"

    def test_stages_past_n_minus_one_are_capped_not_rejected(self, tmp_path):
        # the n = 4 ladder stops at stage 3 whatever --stages asks for
        args = build_parser().parse_args(["--out-dir", str(tmp_path), "expand",
                                          "--n", "4", "--stages", "9"])
        assert _load_config(args).stages == 9


class TestConfigAliases:
    def test_expect_indefinite_via_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expect_indefinite = true\nnodes = 16\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "solve"])
        assert code == EXIT_NUMERICAL

    def test_expect_indefinite_records_the_K_it_runs_at(self, tmp_path):
        code = run(tmp_path, "solve", "--expect-indefinite", "--nodes", "16")
        assert code == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["config"]["K"] == -50.0
        assert payload["error"]["type"] == "IndefiniteOperator"


class TestExpandSeeds:
    @pytest.mark.parametrize("seed", range(41))
    def test_every_check_passes(self, tmp_path, seed):
        # criterion 8's ladder on 41 seeds, not only seed 3
        assert run(tmp_path, "expand", "--n", "4", "--stages", "3",
                   "--seed", str(seed)) == EXIT_PASS
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        assert len(payload["checks"]) == 6
        assert all(check["passed"] for check in payload["checks"])

    @pytest.mark.parametrize("seed", ["106", "1285638640"])
    def test_seeds_that_once_left_the_stencil_pass(self, tmp_path, seed):
        code = run(tmp_path, "expand", "--n", "4", "--stages", "3",
                   "--seed", seed)
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "expand_summary.json").read_text())
        assert payload["status"] == "pass" and payload["error"] is None
        assert len(payload["checks"]) == 6
        assert all(c["passed"] for c in payload["checks"])


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


# the options each subcommand reads, as its summary's `config` records them
READS = {
    "weights": {"n", "ranks", "K", "mu0"},
    "curvature": {"n", "f", "seed", "step", "perturb"},
    "solve": {"n", "f", "K", "mu0", "weights_mode", "eps", "nodes",
              "expect_indefinite"},
    "sweep": {"n", "f", "K", "mu0", "weights_mode", "eps", "nodes"},
    "koiso": {"n", "K", "refine", "seed"},
    "schauder": {"n", "f", "eps"},
    "expand": {"n", "seed", "stages", "step"},
}

SMALL_RUNS = {
    "weights": ("--n", "5", "--ranks", "1,2"),
    "curvature": ("--n", "3"),
    "solve": ("--nodes", "16"),
    "sweep": ("--nodes", "16", "--eps", "0.2,0.1"),
    "koiso": ("--refine", "17,33"),
    "schauder": ("--eps", "0.1,0.01"),
    "expand": ("--stages", "1"),
}


class ReadRecorder:
    """Stands in for a run's configuration and records each option read."""

    def __init__(self, cfg):
        self.cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


def accepted_options(subcommand):
    from cusplab.cli import build_parser

    (subparsers,) = [a for a in build_parser()._actions if a.choices]
    return {a.dest for a in subparsers.choices[subcommand]._actions
            if a.dest not in ("help", "out_dir", "config")}


class TestOptionTable:
    @pytest.mark.parametrize("argv", [
        ("weights", "--f", "1"), ("weights", "--seed", "1"),
        ("weights", "--step", "0.001"), ("weights", "--tolerance", "1"),
        ("weights", "--nodes", "16"), ("weights", "--eps", "0.2,0.1"),
        ("curvature", "--K", "-2"), ("curvature", "--nodes", "16"),
        ("curvature", "--eps", "0.2,0.1"), ("curvature", "--tolerance", "10"),
        ("solve", "--seed", "1"), ("solve", "--step", "0.001"),
        ("solve", "--tolerance", "1"),
        ("sweep", "--seed", "1"), ("sweep", "--step", "0.001"),
        ("sweep", "--tolerance", "1"),
        ("koiso", "--f", "1"), ("koiso", "--step", "0.001"),
        ("koiso", "--tolerance", "1"), ("koiso", "--nodes", "16"),
        ("koiso", "--eps", "0.2,0.1"),
        ("schauder", "--K", "-2"), ("schauder", "--seed", "1"),
        ("schauder", "--step", "0.001"), ("schauder", "--tolerance", "1"),
        ("schauder", "--nodes", "16"),
        ("expand", "--f", "1"), ("expand", "--K", "-2"),
        ("expand", "--tolerance", "1"), ("expand", "--nodes", "16"),
        ("expand", "--eps", "0.2,0.1"),
    ], ids=" ".join)
    def test_flag_the_command_never_reads_is_rejected(self, tmp_path, argv):
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert not (tmp_path / f"{argv[0]}_summary.json").exists()

    @pytest.mark.parametrize("sub, text", [
        ("sweep", "nodse = 96\n"),
        ("solve", "expect_indefinite = ture\nnodes = 16\n"),
    ])
    def test_bad_config_key_or_value_is_rejected(self, tmp_path, capsys, sub,
                                                 text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path), sub])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / f"{sub}_summary.json").exists()

    def test_keys_of_other_commands_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = 0\nseed = 7\nn = 5\nranks = 1,2\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "weights"])
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "weights_summary.json").read_text())
        assert payload["config"]["n"] == 5
        assert "stages" not in payload["config"]
        assert "seed" not in payload["config"]

    @pytest.mark.parametrize("sub", ["solve", "sweep"])
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_mu0_beside_explicit_weights_is_rejected(self, tmp_path, capsys,
                                                     sub, where):
        argv = [sub, "--weights", "2.5,0.5", "--eps", "0.2,0.1", "--nodes", "20"]
        if where == "flag":
            argv += ["--mu0", "1.6"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("mu0 = 1.6\n")
            argv = ["--config", str(cfg), *argv]
        assert main(["--out-dir", str(tmp_path), *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("configuration error: mu0")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / f"{sub}_summary.json").exists()

    @pytest.mark.parametrize("mu0", ["1.75", "1.6"])
    def test_mu0_flag_equals_config_key(self, tmp_path, mu0):
        small = ["--nodes", "20", "--eps", "0.2,0.1"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mu0 = {mu0}\n")
        payloads = []
        for out, argv in ((tmp_path / "flag", ["sweep", "--mu0", mu0, *small]),
                          (tmp_path / "file", ["--config", str(cfg), "sweep",
                                               *small])):
            assert main(["--out-dir", str(out), *argv]) == EXIT_PASS
            p = json.loads((out / "sweep_summary.json").read_text())
            del p["elapsed_seconds"]
            p["config"].pop("out_dir")
            p.pop("tables")  # artifact paths differ by construction
            payloads.append(p)
        assert payloads[0] == payloads[1]
        assert payloads[0]["config"]["mu0"] == float(mu0)

    @pytest.mark.parametrize("sub", sorted(READS))
    def test_command_reads_every_option_it_accepts_and_records_only_those(
            self, tmp_path, monkeypatch, sub):
        import cusplab.cli as cli

        command = cli.COMMANDS[sub]
        recorders = []

        def recorded(cfg, rep):
            recorders.append(ReadRecorder(cfg))
            command(recorders[-1], rep)

        monkeypatch.setitem(cli.COMMANDS, sub, recorded)
        run(tmp_path, sub, *SMALL_RUNS[sub])
        payload = json.loads((tmp_path / f"{sub}_summary.json").read_text())
        assert payload["error"] is None
        assert set(payload["config"]) == READS[sub] | {"subcommand", "out_dir"}
        assert accepted_options(sub) == READS[sub]
        assert recorders[0].read >= READS[sub]


# Prints whether scipy is loaded after `import cusplab.cli` and after each
# in-process run, with the run's exit code.
SCIPY_PROBE = """
import json, sys
import cusplab.cli as cli
seen = [[None, "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = cli.main(["--out-dir", sys.argv[2], *argv])
    seen.append([code, "scipy" in sys.modules])
print(json.dumps(seen))
"""


def probe_scipy(tmp_path, runs):
    import cusplab

    env = dict(os.environ, PYTHONPATH=str(Path(cusplab.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(runs), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_plain(tmp_path, *argv):
    """`python -m cusplab.cli --out-dir tmp_path *argv` in a subprocess,
    under Python's default warnings filter, as a user runs the command
    (pytest's `filterwarnings = error` turns every warning of an in-process
    run into exit 3)."""
    import cusplab

    env = dict(os.environ, PYTHONPATH=str(Path(cusplab.__file__).parent.parent))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "cusplab.cli", "--out-dir", str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=300)


class TestScipyStaysUnloaded:
    def test_import_expand_curvature_and_weights_stay_scipy_free(self, tmp_path):
        seen = probe_scipy(tmp_path, [
            ["expand", "--n", "4", "--stages", "2"],  # one correction step
            ["curvature", "--n", "4", "--perturb", "0.05"],
            ["weights", "--n", "5", "--ranks", "1,2"],
        ])
        assert seen == [[None, False], [EXIT_PASS, False],
                        [EXIT_NUMERICAL, False], [EXIT_PASS, False]]

    def test_solving_commands_stay_scipy_free(self, tmp_path):
        # the solver runs dstevd in numpy's OpenBLAS and its own Lanczos
        # probe; scipy's eigh_tridiagonal is only its fallback
        from cusplab import solver

        if solver._lapacke_dstevd() is None:
            pytest.skip("numpy bundles no OpenBLAS with LAPACKE's dstevd here, "
                        "so the solver falls back to scipy.linalg.eigh_tridiagonal")
        subcommands = ["solve", "sweep", "koiso", "schauder"]
        seen = probe_scipy(tmp_path, [[sub, *SMALL_RUNS[sub]] for sub in subcommands])
        assert seen == [[None, False]] + [[EXIT_PASS, False]] * len(subcommands)

    def test_solver_failures_are_the_exit_map_class(self):
        from cusplab import charts, cli, solver

        assert solver.NonConvergence is charts.NonConvergence
        assert issubclass(solver.IndefiniteOperator, charts.NonConvergence)
        assert charts.NonConvergence in cli.NUMERICAL_FAILURES


def readme_command_lines():
    """(argv, exit code) of each `cusplab ...` line in the README's "Command
    line" block: the code its `# exits k` comment states, else 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("cusplab "):
            code = re.match(r"\s*exits (\d)", comment)
            lines.append((command.split()[1:], int(code[1]) if code else 0))
    return lines


class TestReadmeCommands:
    @pytest.mark.parametrize("argv, code", readme_command_lines(),
                             ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_line_exits_as_stated(self, tmp_path, argv, code):
        assert run(tmp_path, *argv) == code

    def test_block_is_found(self):
        assert len(readme_command_lines()) >= 10
