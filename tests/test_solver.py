import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from cusplab.charts import Chart
from cusplab.solver import (
    DiscreteField,
    IndefiniteOperator,
    _flux_coefficients,
    NonConvergence,
    SupportViolation,
    assemble,
    collar_grid,
    compact_patch_grid,
    condition_number_spread,
    cusp_grid,
    default_bump_recipe,
    default_scan_families,
    exhaustion_sweep,
    koiso_quadrature,
    maximal_grid,
    maximum_principle_check,
    plateau_factor,
    random_bump_tensor,
    sample_field,
    schauder_coefficient_scan,
    solve_dirichlet,
    weighted_sup_norm,
)
from cusplab.weights import WeightVector, admissible_weights

CUSP = Chart.intermediate_cusp(4, 1)
W41, _ = admissible_weights(4, (1,))


class TestGrids:
    def test_cusp_grid_stays_in_exhaustion(self):
        g = cusp_grid(CUSP, 0.1, nodes=16)
        assert g.sigma().min() >= 0.1 - 1e-12
        # the inscribed corner touches the exhaustion boundary
        assert g.sigma().min() == pytest.approx(0.1, rel=1e-12)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            cusp_grid(CUSP, 0.1, nodes=4)

    def test_collar_and_maximal(self):
        g = collar_grid(Chart.collar(4), 0.05, nodes=12)
        assert g.sigma().min() == pytest.approx(0.05)
        m = maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=16)
        assert m.ndim == 1


class TestAssembly:
    def test_constant_maps_to_K_exactly(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        op = assemble(grid, -2.0)
        out = op.apply_to_values(np.full(grid.shape, 3.0))
        assert np.abs(out + 6.0).max() < 1e-11
        assert op.pattern_symmetric

    @pytest.mark.parametrize("K", [-2.0, 6.0])
    def test_cusp_barrier_consistency_order(self, K):
        mu, nu = 0.5, 1.75
        errs = []
        for nodes in (17, 33, 65):
            grid = cusp_grid(CUSP, 0.1, nodes=nodes)
            op = assemble(grid, K)
            r, th = grid.meshes()
            vals = r ** mu * np.cos(th) ** nu
            got = op.apply_to_values(vals)
            cc = K - (mu * mu + mu - 2 * nu)
            cs = K - nu * (nu - 3)
            want = ((cc * np.cos(th) ** 2 + cs * np.sin(th) ** 2) * vals)[
                grid.interior_mask()
            ]
            errs.append(np.abs(got - want).max())
        order = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert min(order, order2) >= 1.9

    def test_collar_barrier_consistency(self):
        chart = Chart.collar(4)
        nu, K = 1.6, -2.0
        errs = []
        for nodes in (17, 33):
            grid = collar_grid(chart, 0.1, nodes=nodes, y_range=(-0.5, 0.5))
            op = assemble(grid, K)
            rho = grid.meshes()[0]
            vals = rho ** nu
            got = op.apply_to_values(vals)
            want = ((K - nu * (nu - 3)) * vals)[grid.interior_mask()]
            errs.append(np.abs(got - want).max())
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_maximal_barrier_consistency(self):
        chart = Chart.maximal_cusp(4)
        mu, K = 0.8, -2.0
        grid = maximal_grid(chart, 0.1, nodes=129)
        op = assemble(grid, K)
        r = grid.axes[0]
        vals = r ** mu
        got = op.apply_to_values(vals)
        want = ((K - mu * (mu + 3)) * vals)[grid.interior_mask()]
        assert np.abs(got - want).max() < 5e-3


def _edge_loop_assemble(grid, K):
    """Reference assembly: one Python iteration per grid edge."""
    shape = grid.shape
    ntot = int(np.prod(shape))
    Wf = np.asarray(grid._coefficients()[0], dtype=float).reshape(-1)
    rows, cols, vals = [], [], []
    diag = K * Wf.copy()
    strides = np.array([int(np.prod(shape[d + 1:])) for d in range(grid.ndim)])
    for axis in range(grid.ndim):
        dx = grid.spacing[axis]
        mid_axes = list(grid.axes)
        a = grid.axes[axis]
        mid_axes[axis] = 0.5 * (a[1:] + a[:-1])
        Amid = _flux_coefficients(grid.chart, mid_axes)[1][axis]
        it = np.ndindex(*[s - (1 if d == axis else 0) for d, s in enumerate(shape)])
        for idx in it:
            jdx = list(idx)
            jdx[axis] += 1
            i = int(np.dot(idx, strides))
            j = int(np.dot(jdx, strides))
            c = float(Amid[idx]) / (dx * dx)
            diag[i] += c
            diag[j] += c
            rows += [i, j]
            cols += [j, i]
            vals += [-c, -c]
    L_all = sp.coo_matrix((vals, (rows, cols)), shape=(ntot, ntot)).tocsr()
    L_all += sp.diags(diag)
    interior = grid.interior_mask().reshape(-1)
    int_idx = np.flatnonzero(interior)
    bdy_idx = np.flatnonzero(~interior)
    return L_all[int_idx][:, int_idx], L_all[int_idx][:, bdy_idx]


class TestVectorizedAssembly:
    @pytest.mark.parametrize("grid", [
        cusp_grid(CUSP, 0.1, nodes=12),
        collar_grid(Chart.collar(4), 0.05, nodes=10),
        maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=16),
    ], ids=["cusp", "collar", "maximal"])
    def test_matches_edge_loop(self, grid):
        op = assemble(grid, -2.0)
        ref_matrix, ref_cross = _edge_loop_assemble(grid, -2.0)
        for got, want in ((op.matrix, ref_matrix), (op.cross, ref_cross)):
            assert got.shape == want.shape
            scale = np.abs(want.toarray()).max()
            assert np.abs((got - want).toarray()).max() <= 1e-14 * scale


class TestFactorOnce:
    def test_one_factorization_and_one_probe_per_grid(self, monkeypatch):
        import cusplab.solver as sv

        calls = {"splu": 0, "eigsh": 0}

        def counted(name):
            orig = getattr(sv.spla, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sv.spla, name, counted(name))
        eps_list = [0.2, 0.1, 0.05, 0.025]
        rows = exhaustion_sweep(CUSP, -2.0, W41, default_bump_recipe(W41),
                                eps_list, nodes=24)
        assert calls == {"splu": len(eps_list), "eigsh": len(eps_list)}
        assert all(r.min_eigenvalue > 0 for r in rows)

    @pytest.mark.parametrize("K, eps, nodes", [
        (-50.0, 0.1, 20), (-50.0, 0.1, 48), (-8.0, 0.025, 40),
    ])
    def test_indefinite_message_counts_nonpositive_eigenvalues(self, K, eps, nodes):
        op = assemble(cusp_grid(CUSP, eps, nodes=nodes), K)
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        want = int(np.count_nonzero(dense <= 0))
        assert want > 0
        with pytest.raises(IndefiniteOperator) as exc:
            solve_dirichlet(op, np.ones(op.grid.shape))
        match = re.search(r"(\d+) nonpositive eigenvalues", str(exc.value))
        assert match is not None and int(match.group(1)) == want

    @pytest.mark.parametrize("block", [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                             ids=["off-diagonal-pivots", "singular"])
    def test_unusable_factorization_is_nonconvergence(self, block):
        import dataclasses

        op = assemble(cusp_grid(CUSP, 0.1, nodes=12), -2.0)
        matrix = sp.csr_matrix(np.kron(np.eye(op.n_unknowns // 2), block))
        op = dataclasses.replace(op, matrix=matrix)
        with pytest.raises(NonConvergence) as exc:
            op.smallest_eigenvalue()
        assert not isinstance(exc.value, IndefiniteOperator)

    @pytest.mark.parametrize("nodes", [16, 40])
    def test_smallest_eigenvalue_matches_dense_and_is_cached(self, nodes, monkeypatch):
        import cusplab.solver as sv

        op = assemble(cusp_grid(CUSP, 0.05, nodes=nodes), -2.0)
        want = np.linalg.eigvalsh(op.matrix.toarray())[0]
        lam = op.smallest_eigenvalue()
        assert lam == pytest.approx(want, rel=1e-6)
        assert op.min_eigenvalue == lam
        monkeypatch.setattr(sv.spla, "eigsh", None)  # a second probe would fail
        assert op.smallest_eigenvalue() == lam

    def test_probe_repeats_on_fresh_operators(self):
        grid = cusp_grid(CUSP, 0.05, nodes=48)
        values = {assemble(grid, -2.0).smallest_eigenvalue() for _ in range(8)}
        assert len(values) == 1


class TestSolve:
    def test_zero_source(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        op = assemble(grid, -2.0)
        u = solve_dirichlet(op, np.zeros(grid.shape))
        assert np.abs(u.values).max() == 0.0

    def test_manufactured_solution(self):
        grid = cusp_grid(CUSP, 0.1, nodes=32)
        op = assemble(grid, -2.0)
        u_star = sample_field(grid, default_bump_recipe(W41))
        rhs = np.zeros(grid.shape)
        rhs[grid.interior_mask()] = op.apply_to_values(u_star.values)
        u = solve_dirichlet(op, DiscreteField(grid, rhs))
        err = np.abs(u.values - u_star.values).max() / np.abs(u_star.values).max()
        assert err < 1e-6

    def test_discrete_maximum_principle(self):
        # monotone flux discretization: K >= 0 and f >= 0 give u >= 0
        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, 1.0)
        r, th = grid.meshes()
        f = np.exp(-((r - 0.7) ** 2 + (th - 0.8) ** 2) / 0.05)
        u = solve_dirichlet(op, f)
        assert u.values.min() >= -1e-12

    def test_indefinite_detected(self):
        grid = cusp_grid(CUSP, 0.1, nodes=20)
        op = assemble(grid, -50.0)
        with pytest.raises(IndefiniteOperator) as exc:
            solve_dirichlet(op, np.ones(grid.shape))
        assert isinstance(exc.value, NonConvergence)

    def test_nonconvergence_reports_residual(self):
        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, -2.0)
        f = sample_field(grid, default_bump_recipe(W41))
        op.smallest_eigenvalue()  # the coercivity probe runs on the true factor
        lu = op.factor()

        class WrongSolve:  # the cached factor returns a perturbed solution
            def solve(self, rhs):
                return lu.solve(rhs) * (1.0 + 1e-3)

        op._lu = WrongSolve()
        with pytest.raises(NonConvergence) as exc:
            solve_dirichlet(op, f)
        assert math.isfinite(exc.value.residual)

    def test_every_solve_reuses_the_one_factorization(self, monkeypatch):
        # 254^2 = 64,516 unknowns at K = 6, where no coercivity probe runs
        import cusplab.solver as sv

        grid = cusp_grid(CUSP, 0.05, nodes=256)
        op = assemble(grid, 6.0)
        calls = []
        original = sv.spla.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sv.spla, "splu", counted)
        u_star = sample_field(grid, default_bump_recipe(W41))
        rhs = np.zeros(grid.shape)
        rhs[grid.interior_mask()] = op.apply_to_values(u_star.values)
        u1 = solve_dirichlet(op, rhs)
        u2 = solve_dirichlet(op, 2.0 * rhs)
        assert len(calls) == 1
        assert np.array_equal(2.0 * u1.values, u2.values)
        err = np.abs(u1.values - u_star.values).max() / np.abs(u_star.values).max()
        assert err < 1e-12


class TestWeightedNorm:
    def test_homogeneity(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        smu = grid.sigma_mu(W41)
        u1 = DiscreteField(grid, smu)
        u2 = DiscreteField(grid, 2.0 * smu)
        assert weighted_sup_norm(u1, W41) == pytest.approx(1.0, rel=1e-12)
        assert weighted_sup_norm(u2, W41) == pytest.approx(2.0, rel=1e-12)

    def test_extra_decay_attained_at_largest_sigma(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        w = W41
        smu = grid.sigma_mu(w)
        extra = grid.sigma() ** 0.5  # sigma <= 1 on this grid
        u = DiscreteField(grid, smu * extra)
        idx = np.unravel_index(np.argmax(extra / 1.0), grid.shape)
        assert weighted_sup_norm(u, w) == pytest.approx(extra.max(), rel=1e-12)
        assert extra[idx] == extra.max()


class TestSweep:
    def test_ratio_table_and_plateau(self):
        rows = exhaustion_sweep(
            CUSP, -2.0, W41, default_bump_recipe(W41), [0.2, 0.1, 0.05],
            nodes=24,
        )
        assert [r.eps for r in rows] == [0.2, 0.1, 0.05]
        for r in rows:
            assert r.ratio == pytest.approx(r.norm_u / r.norm_f)
            assert r.mms_error < 1e-6
        assert plateau_factor(rows) <= 2.0

    def test_eps_must_decrease(self):
        with pytest.raises(ValueError):
            exhaustion_sweep(CUSP, -2.0, W41, default_bump_recipe(W41),
                             [0.1, 0.2], nodes=16)

    def test_source_sampled_once_per_grid(self):
        recipe = default_bump_recipe(W41)
        calls = []

        def counted(r, th):
            calls.append(r.shape)
            return recipe(r, th)

        eps_list = [0.2, 0.1, 0.05, 0.025]
        rows = exhaustion_sweep(CUSP, -2.0, W41, counted, eps_list, nodes=24)
        assert len(calls) == len(eps_list)
        assert all(r.mms_error <= 1e-12 for r in rows)


class TestMaximumPrincipleCheck:
    def test_zero_weight_gives_K_exactly(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        w0 = WeightVector(mu0=0.0, mus=(0.0,), ranks=(1,), n=4)
        rep = maximum_principle_check(assemble(grid, -2.0), w0)
        assert rep.min_ratio == pytest.approx(-2.0, abs=1e-11)

    def test_admissible_weights_match_closed_form(self):
        grid = cusp_grid(CUSP, 0.1, nodes=48)
        rep = maximum_principle_check(assemble(grid, -2.0), W41)
        assert rep.passed
        assert rep.min_ratio >= rep.closed_form_delta - rep.tolerance
        # the discrete infimum approaches but does not undershoot the margin
        assert rep.min_ratio < rep.closed_form_delta + 1.0

    def test_maximal_rank_obstruction_witnessed(self):
        chart = Chart.maximal_cusp(4)
        grid = maximal_grid(chart, 0.05, nodes=64)
        w = WeightVector(mu0=1.75, mus=(0.5,), ranks=(3,), n=4)
        op = assemble(grid, -2.0)
        rep = maximum_principle_check(op, w)
        smu = grid.sigma_mu(w)
        ratio = op.apply_to_values(smu) / smu[op.interior]
        assert ratio.max() < 0  # negative everywhere: no positive weights work
        assert rep.closed_form_delta < 0


class TestKoiso:
    def patch(self, nodes):
        chart = Chart.collar(4, edge=2.5)
        return compact_patch_grid(chart, nodes, (1.0, 2.0), (-0.5, 0.5))

    def test_zero_field(self):
        grid = self.patch(17)
        res = koiso_quadrature(grid, DiscreteField(grid, np.zeros(grid.shape + (4, 4))))
        assert res.lhs == res.rhs == 0.0

    def test_identity_gap_shrinks_second_order(self):
        # holds for general symmetric bumps, not only trace-free ones
        gaps = []
        for nodes in (17, 33):
            grid = self.patch(nodes)
            u = random_bump_tensor(grid, np.random.default_rng(1), trace_free=False)
            res = koiso_quadrature(grid, u)
            gaps.append(res.gap)
        assert math.log2(gaps[0] / gaps[1]) >= 1.8

    def test_lower_bound_slack_nonnegative(self):
        grid = self.patch(33)
        for seed in range(5):
            u = random_bump_tensor(grid, np.random.default_rng(seed))
            res = koiso_quadrature(grid, u, K=-2.0)
            assert res.slack >= -10.0 * res.gap

    def test_support_violation(self):
        grid = self.patch(17)
        vals = np.zeros(grid.shape + (4, 4))
        vals[1, 5, 0, 0] = 1.0  # one node away from the rho side
        with pytest.raises(SupportViolation):
            koiso_quadrature(grid, DiscreteField(grid, vals))

    def test_divergence_adjointness_by_quadrature(self):
        # the sign convention ties the divergence to the symmetrized
        # gradient: <delta* w, t> = <w, delta t> for compact support
        grid = self.patch(49)
        rho, y = grid.meshes()
        n = 4
        from cusplab.solver import (
            _collar_christoffels,
            _covariant_derivative,
            _trapezoid_weights,
        )

        u = random_bump_tensor(grid, np.random.default_rng(3), trace_free=False)
        bump_w = random_bump_tensor(grid, np.random.default_rng(4), trace_free=False)
        w = bump_w.values[..., 0, :]  # a compactly supported 1-form

        dv = rho ** (-4.0) * _trapezoid_weights(grid)
        up2 = rho ** 2
        gam = _collar_christoffels(n, rho)

        dw = np.stack(
            [np.gradient(w, grid.spacing[a], axis=a, edge_order=2) for a in (0, 1)],
            axis=-2,
        )
        nab_w = np.zeros(grid.shape + (n, n))
        nab_w[..., 0, :] = dw[..., 0, :]
        nab_w[..., 1, :] = dw[..., 1, :]
        nab_w -= np.einsum("...mij,...m->...ij", gam, w)
        dstar = 0.5 * (nab_w + np.einsum("...ij->...ji", nab_w))

        nab_u = _covariant_derivative(grid, u.values)
        div_u = -np.einsum("xy,xykkj->xyj", up2, nab_u)

        lhs = float(np.sum(dv * up2 ** 2 *
                           np.einsum("xyij,xyij->xy", dstar, u.values)))
        rhs = float(np.sum(dv * up2 * np.einsum("xyj,xyj->xy", w, div_u)))
        assert lhs == pytest.approx(rhs, rel=5e-3)


class TestSchauderScan:
    def test_uniform_condition_numbers(self):
        rows = schauder_coefficient_scan(
            default_scan_families(4, 1), [1e-1, 1e-2, 1e-3, 1e-4]
        )
        spread = condition_number_spread(rows)
        assert set(spread) == {"near_axis", "off_axis", "collar"}
        assert max(spread.values()) < 0.05

    def test_off_axis_bands_live_in_one_interval(self):
        # several shape ratios, one common eigenvalue band
        from cusplab.solver import ScanFamily

        fams = [
            ScanFamily(f"off_{r}", "cusp_off_axis", 4, f=1, ratio=r)
            for r in (2.0, 10.0, 100.0)
        ]
        rows = schauder_coefficient_scan(fams, [1e-3])
        lo = min(r.min_eig for r in rows)
        hi = max(r.max_eig for r in rows)
        assert lo > 0.05 and hi < 50.0

    def test_base_point_identity(self):
        from cusplab.charts import RescalingCase, rescaled_metric_at

        case = RescalingCase("collar", 4, eps=1e-2, v0=np.zeros(3))
        got = rescaled_metric_at(case, np.zeros(4))
        assert np.allclose(got, np.eye(4))


class TestOperatorInvariants:
    def test_diagonal_positive_for_nonnegative_K(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        for K in (0.0, 1.0, 6.0):
            op = assemble(grid, K)
            assert op.matrix.diagonal().min() > 0

    def test_symmetry_flag(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        assert assemble(grid, -2.0).pattern_symmetric


class TestSweepErrorRecording:
    def test_record_mode_keeps_partial_rows(self):
        rows = exhaustion_sweep(
            CUSP, -50.0, W41, default_bump_recipe(W41), [0.2, 0.1],
            nodes=16, on_error="record",
        )
        assert len(rows) == 2
        assert all(r.error is not None for r in rows)
        assert math.isnan(plateau_factor(rows))

    def test_raise_mode_propagates(self):
        with pytest.raises(NonConvergence):
            exhaustion_sweep(CUSP, -50.0, W41, default_bump_recipe(W41),
                             [0.2], nodes=16)


class TestCoercivityProbeFailure:
    def test_arpack_nonconvergence_becomes_nonconvergence(self, monkeypatch):
        import cusplab.solver as sv

        def failing(*args, **kwargs):
            raise sv.spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                              np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(sv.spla, "eigsh", failing)
        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, -2.0)
        assert op.n_unknowns > 400
        with pytest.raises(NonConvergence):
            solve_dirichlet(op, np.ones(grid.shape))


class TestTensorModeNorm:
    def test_pointwise_metric_norm_reduction(self):
        chart = Chart.collar(4, edge=2.5)
        grid = compact_patch_grid(chart, 17, (1.0, 2.0), (-0.5, 0.5))
        rho = grid.meshes()[0]
        w = WeightVector(mu0=1.75, mus=(), ranks=(), n=4)
        vals = np.zeros(grid.shape + (4, 4))
        vals[..., 0, 0] = 1.0  # |u|_h = rho^2 pointwise
        u = DiscreteField(grid, vals)
        want = float((rho ** 2 / rho ** 1.75).max())
        assert weighted_sup_norm(u, w) == pytest.approx(want, rel=1e-12)


class TestGridsLieInTheirChart:
    def test_cusp_radius_beyond_the_edge(self):
        from cusplab.solver import Grid2D

        axes = (np.linspace(0.5, 2.0, 12), np.linspace(0.2, 1.0, 12))
        with pytest.raises(ValueError, match=r"axis r has a node at 1\.0\d*, outside"):
            Grid2D(CUSP, ("r", "theta0"), axes, 0.1)

    def test_round_collar_polar_angle_below_the_pole(self):
        chart = Chart.collar(4, h_u="round_sphere")
        with pytest.raises(ValueError, match=r"axis y has a node at -1\.0, outside"):
            collar_grid(chart, 0.1)


class TestEuclideanCollarOnly:
    ROUND = Chart.collar(4, h_u="round_sphere", edge=1.9)

    def test_flux_coefficients(self):
        axes = (np.linspace(0.5, 1.0, 8), np.linspace(1.0, 1.5, 8))
        with pytest.raises(ValueError, match="Euclidean family"):
            _flux_coefficients(self.ROUND, axes)

    def test_koiso_quadrature(self):
        grid = compact_patch_grid(self.ROUND, 17, (1.0, 1.5), (0.5, 1.5))
        u = random_bump_tensor(grid, np.random.default_rng(0))
        with pytest.raises(ValueError, match="Euclidean family"):
            koiso_quadrature(grid, u)

    def test_tensor_norm(self):
        grid = compact_patch_grid(self.ROUND, 17, (1.0, 1.5), (0.5, 1.5))
        u = DiscreteField(grid, np.ones(grid.shape + (4, 4)))
        w = WeightVector(mu0=1.75, mus=(), ranks=(), n=4)
        with pytest.raises(ValueError, match="Euclidean family"):
            weighted_sup_norm(u, w)
