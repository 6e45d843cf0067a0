import contextlib
import functools
import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cusplab.charts import Chart, batched, euclidean_collar_family, smooth_bump
from cusplab.solver import (
    DiscreteField,
    IndefiniteOperator,
    _flux_factors,
    NonConvergence,
    SupportViolation,
    assemble,
    check_source,
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

    def test_large_uniform_grids_construct(self):
        # np.linspace spacings on these axes differ by up to 1.3e-12 relative,
        # the rounding of the node coordinates; nothing is assembled here
        g = cusp_grid(CUSP, 0.1, nodes=4096)
        assert g.shape == (4096, 4096)
        c = collar_grid(Chart.collar(4), 0.05, nodes=16384)
        assert c.shape == (16384, 16384)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nonuniform_axis_rejected(self, axis):
        from cusplab.solver import Grid2D

        axes = [ax.copy() for ax in cusp_grid(CUSP, 0.1, nodes=64).axes]
        axes[axis][20] += 1e-9 * (axes[axis][1] - axes[axis][0])
        with pytest.raises(ValueError, match="spacing must be uniform"):
            Grid2D(CUSP, tuple(axes), 0.1)

    @pytest.mark.parametrize("chart, axes", [
        (CUSP, (np.linspace(0.3, 0.9, 12), np.linspace(0.2, 1.3, 12))),
        (Chart.collar(4), (np.linspace(0.09, 0.9, 12), np.linspace(-1.0, 1.0, 12))),
    ], ids=["cusp-corner", "collar-face"])
    def test_grid_below_eps_rejected(self, chart, axes):
        from cusplab.solver import Grid2D

        with pytest.raises(ValueError, match="leaves the exhaustion domain"):
            Grid2D(chart, axes, 0.1)


def _dense_form(op):
    """The symmetric form as a dense array, one SparseOperator.form call per
    identity column."""
    return np.stack([op.form(e) for e in np.eye(op.n_unknowns)], axis=1)


def _kron_csr(op):
    """The symmetric form assembled from the stencils as a CSR matrix,
    kron(T_0, diag(m_1)) + kron(diag(m_0), T_1)."""
    t0, t1 = (sp.diags([-st.coupling[1:-1], st.diagonal, -st.coupling[1:-1]],
                       [-1, 0, 1]) for st in op.stencils)
    m0, m1 = (sp.diags(st.mass) for st in op.stencils)
    return sp.kron(t0, m1, format="csr") + sp.kron(m0, t1, format="csr")


class TestAssembly:
    def test_constant_maps_to_K_exactly(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        op = assemble(grid, -2.0)
        out = op.apply_to_values(np.full(grid.shape, 3.0))
        assert np.abs(out + 6.0).max() < 1e-11
        dense = _dense_form(op)
        assert np.array_equal(dense, dense.T)

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
                grid.interior
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
            grid = compact_patch_grid(chart, nodes, (0.1, chart.edge), (-0.5, 0.5))
            op = assemble(grid, K)
            rho = grid.meshes()[0]
            vals = rho ** nu
            got = op.apply_to_values(vals)
            want = ((K - nu * (nu - 3)) * vals)[grid.interior]
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
        want = ((K - mu * (mu + 3)) * vals)[grid.interior]
        assert np.abs(got - want).max() < 5e-3


def _edge_loop_assemble(grid, K):
    """Reference assembly: one Python iteration per grid edge.  Returns the
    interior block, the full interior rows (interior by all nodes) and W on
    all nodes."""
    shape = grid.shape
    ntot = int(np.prod(shape))
    w, _ = _flux_factors(grid.chart, grid.axes)
    Wf = functools.reduce(np.multiply.outer, w).reshape(-1)
    rows, cols, vals = [], [], []
    diag = K * Wf.copy()
    strides = np.array([int(np.prod(shape[d + 1:])) for d in range(grid.ndim)])
    for axis in range(grid.ndim):
        dx = grid.spacing[axis]
        mid_axes = list(grid.axes)
        a = grid.axes[axis]
        mid_axes[axis] = 0.5 * (a[1:] + a[:-1])
        Amid = functools.reduce(np.multiply.outer,
                                _flux_factors(grid.chart, mid_axes)[1][axis])
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
    int_idx = np.arange(ntot).reshape(shape)[grid.interior].reshape(-1)
    return L_all[int_idx][:, int_idx], L_all[int_idx], Wf


class TestVectorizedAssembly:
    @pytest.mark.parametrize("grid", [
        cusp_grid(CUSP, 0.1, nodes=12),
        collar_grid(Chart.collar(4), 0.05, nodes=10),
        maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=16),
    ], ids=["cusp", "collar", "maximal"])
    def test_matches_edge_loop(self, grid):
        rng = np.random.default_rng(7)
        for K in (-2.0, 6.0):
            op = assemble(grid, K)
            ref_matrix, ref_rows, W = _edge_loop_assemble(grid, K)
            dense, ref = _dense_form(op), ref_matrix.toarray()
            assert dense.shape == ref.shape
            assert np.abs(dense - ref).max() <= 1e-14 * np.abs(ref).max()
            # the Dirichlet couplings: full rows on random node values
            v = rng.standard_normal(grid.shape)
            want = (ref_rows @ v.reshape(-1)) / W.reshape(grid.shape)[grid.interior].reshape(-1)
            got = op.apply_to_values(v).reshape(-1)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestStencilForm:
    """SparseOperator.form sums each row as a CSR product with the matrix
    assembled from the same stencils does, so the two agree to the bit."""

    GRIDS = {
        "cusp41": cusp_grid(CUSP, 0.1, nodes=16),
        "cusp52": cusp_grid(Chart.intermediate_cusp(5, 2), 0.05, nodes=48),
        "collar": collar_grid(Chart.collar(4), 0.05, nodes=20),
        "maximal": maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=96),
    }

    @pytest.mark.parametrize("K", [-2.0, 6.0])
    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_equals_kron_csr_product(self, kind, K):
        op = assemble(self.GRIDS[kind], K)
        matrix = _kron_csr(op)
        assert matrix.shape == (op.n_unknowns,) * 2
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.standard_normal(op.n_unknowns)
            assert np.array_equal(op.form(x), matrix @ x)


class TestOneConstruction:
    def test_flux_factors_evaluated_once_on_nodes_and_midpoints(self, monkeypatch):
        import cusplab.solver as sv

        calls = _count_calls(monkeypatch, sv, ["_flux_factors"])
        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, -2.0)
        f = sample_field(grid, default_bump_recipe(W41))
        solve_dirichlet(op, f)  # K < 0: factors and probes
        op.apply_to_values(f.values)
        assert op.min_eigenvalue is not None
        assert calls["_flux_factors"] == 1


class TestFluxFactorsClosedForms:
    """_flux_factors reads the chart's density and metric on every chart;
    here they meet the closed forms W = rho^-n, A_d = W rho^2 on the
    Euclidean collar, W = r^(n-2), A = W r^2 on the maximal cusp, and on the
    intermediate cusp the parent's W = r^(f-1) sin^(b-1) / cos^n,
    A_r = W r^2 cos^2, A_theta0 = W cos^2 up to the one constant factor that
    the density's other coordinates contribute."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_euclidean_collar(self, n):
        rho, y = np.linspace(0.05, 1.0, 17), np.linspace(-1.0, 1.0, 9)
        (w_rho, w_y), a = _flux_factors(Chart.collar(n), (rho, y))
        np.testing.assert_allclose(w_rho, rho ** -float(n), rtol=1e-14, atol=0)
        assert np.array_equal(w_y, np.ones(len(y)))
        for a_rho, a_y in a:
            np.testing.assert_allclose(a_rho, w_rho * rho * rho, rtol=1e-14, atol=0)
            assert np.array_equal(a_y, np.ones(len(y)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_maximal_cusp(self, n):
        r = np.linspace(0.05, 1.0, 17)
        (w,), [(a,)] = _flux_factors(Chart.maximal_cusp(n), (r,))
        np.testing.assert_allclose(w, r ** (n - 2.0), rtol=1e-14, atol=0)
        np.testing.assert_allclose(a, w * r * r, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n, f", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 3), (7, 2)])
    def test_intermediate_cusp(self, n, f):
        chart = Chart.intermediate_cusp(n, f)
        r, th = np.linspace(0.1, 1.0, 17), np.linspace(0.2, 1.5, 13)
        w, a = _flux_factors(chart, (r, th))
        rr, tt = np.meshgrid(r, th, indexing="ij")
        c = np.cos(tt)
        want_w = rr ** (f - 1) * np.sin(tt) ** (chart.b - 1) / c ** n
        scale = np.multiply.outer(*w) / want_w
        np.testing.assert_allclose(scale, scale[0, 0], rtol=1e-13, atol=0)
        for a_d, h_dd in zip(a, (rr * rr * c * c, c * c)):
            np.testing.assert_allclose(np.multiply.outer(*a_d),
                                       scale[0, 0] * want_w * h_dd, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n, f", [(3, 1), (4, 1), (4, 2), (5, 3)])
    def test_upper_half_space_below_maximal_rank_is_refused(self, n, f):
        grid = compact_patch_grid(Chart.upper_half_space(n, f), 8, (0.5, 1.0),
                                  (-0.5, 0.5))
        with pytest.raises(ValueError, match=r"on the cusp chart over \(u, v1\): "
                                             "the volume density does not factor "
                                             "across u and v1"):
            assemble(grid, -2.0)


@batched
def _smooth_on_two_axes(p):
    return np.sin(1.3 * p[..., 0] + 0.4) * np.cos(0.7 * p[..., 1] - 0.2) + p[..., 0] * p[..., 1] ** 2


@batched
def _smooth_on_one_axis(p):
    return np.sin(1.3 * p[..., 0] + 0.4) + p[..., 0] ** 2


class TestOneRuleMatchesTheJetLaplacian:
    """On every chart the one flux-factor rule accepts, the assembled operator
    applied to a smooth u of the grid coordinates converges at second order
    to the jet Laplacian of the chart's own metric plus K u.  The jet values
    are taken on the interior nodes of the 17-node grid, which the 33- and
    65-node grids share, with every other coordinate at 0.3."""

    ROUND = Chart.collar(4, h_u="round_sphere", edge=1.9)
    GRIDS = {
        "cusp41": lambda nodes: cusp_grid(CUSP, 0.1, nodes),
        "cusp52": lambda nodes: cusp_grid(Chart.intermediate_cusp(5, 2), 0.1, nodes),
        "euclidean": lambda nodes: compact_patch_grid(Chart.collar(4), nodes,
                                                      (0.1, 1.0), (-0.5, 0.5)),
        "maximal": lambda nodes: maximal_grid(Chart.maximal_cusp(4), 0.1, nodes),
        "round_sphere": lambda nodes: compact_patch_grid(
            TestOneRuleMatchesTheJetLaplacian.ROUND, nodes, (0.5, 1.5), (0.5, 2.5)),
    }

    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_second_order_against_the_jet_laplacian(self, kind):
        from cusplab.tensorcalc import chart_metric, laplacian_scalar_at

        K = -2.0
        coarse = self.GRIDS[kind](17)
        chart = coarse.chart
        u = _smooth_on_two_axes if coarse.ndim == 2 else _smooth_on_one_axis
        pts = np.full(coarse.shape + (chart.n,), 0.3)
        for d, mesh in enumerate(coarse.meshes()):
            pts[..., d] = mesh
        pts = pts[coarse.interior].reshape(-1, chart.n)
        want = laplacian_scalar_at(chart_metric(chart), u, pts) + K * u(pts)
        errs = []
        for nodes in (17, 33, 65):
            grid = self.GRIDS[kind](nodes)
            full = np.zeros(grid.shape)
            full[grid.interior] = assemble(grid, K).apply_to_values(
                u(np.stack(grid.meshes(), axis=-1)))
            shared = full[(slice(None, None, (nodes - 1) // 16),) * grid.ndim]
            errs.append(np.abs(shared[coarse.interior].reshape(-1) - want).max())
        assert min(math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])) >= 1.9


def _unfactored_family(rho, y):
    """The diagonal (phi, 1 / phi, 1), phi = 1 + rho y1^2: W = rho^-n
    factors, the (y1, y1) entry phi / rho^2 does not."""
    rho, y = np.asarray(rho, dtype=float), np.asarray(y, dtype=float)
    h = euclidean_collar_family(rho, y)
    phi = 1.0 + rho * y[..., 0] ** 2
    h[..., 0], h[..., 1] = phi, 1.0 / phi
    return h


class TestOneRuleRefuses:
    """Every chart the rule cannot reduce is refused with the reason, in
    terms of the grid's coordinates."""

    @pytest.mark.parametrize("family, reason", [
        (_unfactored_family, r"over \(rho, y1\): the metric's \(y1, y1\) entry does "
                             r"not factor across rho and y1"),
    ], ids=["not-factoring"])
    def test_collar_family(self, monkeypatch, family, reason):
        from cusplab.charts import H_U_FAMILIES

        monkeypatch.setitem(H_U_FAMILIES, "test_family", family)
        grid = compact_patch_grid(Chart("test_family", 4), 8, (0.5, 1.0), (-0.5, 0.5))
        with pytest.raises(ValueError, match=reason):
            assemble(grid, -2.0)

    def test_no_axis_takes_K_W(self, monkeypatch):
        # h_rhorho made to vary along y1 while h_y1y1 varies along rho: both
        # factor, but neither is constant along the other axis.  The rule
        # reads the metric and W together, and W is left as it is
        metric_diagonal_and_density_at = Chart.metric_diagonal_and_density_at

        def tilted(self, p):
            h, w = metric_diagonal_and_density_at(self, p)
            h[..., 0] *= 1.0 + np.asarray(p)[..., 1] ** 2
            return h, w

        monkeypatch.setattr(Chart, "metric_diagonal_and_density_at", tilted)
        grid = compact_patch_grid(Chart.collar(4), 8, (0.5, 1.0), (-0.5, 0.5))
        with pytest.raises(ValueError, match="K W joins neither stencil"):
            assemble(grid, -2.0)


class TestGridGeometryMatchesChart:
    """Grid2D.sigma and the operator's W against the chart's own functions.

    Chart.sigma_at blends to 1 over the outer TRUNC_FRACTION of the chart,
    so the two agree only on the nodes below that band; W is the chart's
    volume density with the transverse polar angles at pi/2."""

    GRIDS = [
        cusp_grid(CUSP, 0.05, nodes=16),
        cusp_grid(Chart.intermediate_cusp(5, 2), 0.05, nodes=16),
        maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=16),
        collar_grid(Chart.collar(4), 0.05, nodes=16),
    ]
    IDS = ["cusp41", "cusp52", "maximal", "collar"]

    @staticmethod
    def _chart_points(grid):
        """Every node as a chart point, in the grid's shape; the other
        coordinates at pi/2."""
        pts = np.full(grid.shape + (grid.chart.n,), math.pi / 2)
        for d, mesh in enumerate(grid.meshes()):
            pts[..., d] = mesh
        return pts

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_sigma_below_the_truncation_band(self, grid):
        from cusplab.charts import TRUNC_FRACTION

        pts = self._chart_points(grid).reshape(-1, grid.chart.n)
        inside = pts[:, 0] <= (1.0 - TRUNC_FRACTION) * grid.chart.edge
        assert inside.any() and not inside.all()
        got = grid.sigma().reshape(-1)[inside]
        want = grid.chart.sigma_at(pts[inside])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_weight_is_the_volume_density(self, grid):
        op = assemble(grid, -2.0)
        pts = self._chart_points(grid)[grid.interior].reshape(-1, grid.chart.n)
        want = grid.chart.volume_density_at(pts).reshape(op.weight.shape)
        assert np.abs(op.weight - want).max() <= 1e-14 * np.abs(want).max()


class TestSigmaMu:
    """Grid2D.sigma_mu, the outer product of sigma's axis factors each
    raised to its end's weight, equals its closed form on meshes."""

    W52, _ = admissible_weights(5, (2,))
    MAXIMAL_W = WeightVector(mu0=1.75, mus=(0.5,), ranks=(3,), n=4)
    COLLAR_W = WeightVector(mu0=1.75, mus=(), ranks=(), n=4)

    @staticmethod
    def _cusp(grid, w):
        r, th = grid.meshes()
        return np.cos(th) ** w.mu0 * r ** w.mus[0]

    @pytest.mark.parametrize("grid, w, closed_form", [
        (cusp_grid(CUSP, 0.05, nodes=48), W41, _cusp),
        (cusp_grid(Chart.intermediate_cusp(5, 2), 0.05, nodes=48), W52, _cusp),
        (maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=48), MAXIMAL_W,
         lambda grid, w: grid.meshes()[0] ** w.mus[0]),
        (collar_grid(Chart.collar(4), 0.05, nodes=48), COLLAR_W,
         lambda grid, w: grid.meshes()[0] ** w.mu0),
    ], ids=["cusp41", "cusp52", "maximal", "collar"])
    def test_equals_closed_form(self, grid, w, closed_form):
        got = grid.sigma_mu(w)
        assert got.shape == grid.shape
        assert np.array_equal(got, closed_form(grid, w))


class TestCheckSource:
    """check_source on the one-axis maximal grid, whose interior is
    grid.interior = (slice(1, -1),)."""

    GRID = maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=16)

    def test_interior_source_accepted(self):
        vals = np.zeros(self.GRID.shape)
        vals[7] = 1.0
        check_source(DiscreteField(self.GRID, vals))

    @pytest.mark.parametrize("end", [0, -1])
    def test_nonzero_end_node_is_support_violation(self, end):
        vals = np.zeros(self.GRID.shape)
        vals[7] = 1.0
        vals[end] = 1e-300
        with pytest.raises(SupportViolation, match="nonzero on a boundary node"):
            check_source(DiscreteField(self.GRID, vals))

    def test_zero_interior_rejected(self):
        vals = np.zeros(self.GRID.shape)
        with pytest.raises(ValueError, match="zero on every interior node") as exc:
            check_source(DiscreteField(self.GRID, vals))
        assert not isinstance(exc.value, SupportViolation)


def _count_calls(monkeypatch, owner, names):
    """Wrap owner.<name> for each name; returns the live call counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))
    return calls


def _zero_eigh(d, e):
    return np.zeros(len(d)), np.eye(len(d))


def _nan_eigh(d, e):
    return np.full(len(d), np.nan), np.eye(len(d))


def _failing_eigh(d, e):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


class TestFactorOnce:
    def test_one_factorization_and_one_probe_per_grid(self, monkeypatch):
        import cusplab.solver as sv

        # one factorization is one tridiagonal eigendecomposition per axis
        factors = _count_calls(monkeypatch, sv._AxisStencil, ["eigenpairs"])
        probes = _count_calls(monkeypatch, sv, ["_lanczos_largest"])
        eps_list = [0.2, 0.1, 0.05, 0.025]
        rows = exhaustion_sweep(CUSP, -2.0, W41, default_bump_recipe(W41),
                                eps_list, nodes=24)
        assert factors == {"eigenpairs": 2 * len(eps_list)}
        assert probes == {"_lanczos_largest": len(eps_list)}
        assert all(r.min_eigenvalue > 0 for r in rows)

    @pytest.mark.parametrize("K, eps, nodes", [
        (-50.0, 0.1, 20), (-50.0, 0.1, 48), (-8.0, 0.025, 40),
    ])
    def test_indefinite_message_counts_nonpositive_eigenvalues(self, K, eps, nodes):
        op = assemble(cusp_grid(CUSP, eps, nodes=nodes), K)
        dense = np.linalg.eigvalsh(_dense_form(op))
        want = int(np.count_nonzero(dense <= 0))
        assert want > 0
        with pytest.raises(IndefiniteOperator) as exc:
            solve_dirichlet(op, np.ones(op.grid.shape))
        match = re.search(r"(\d+) nonpositive eigenvalues", str(exc.value))
        assert match is not None and int(match.group(1)) == want

    @pytest.mark.parametrize("eigh", [_zero_eigh, _nan_eigh, _failing_eigh],
                             ids=["singular", "non-finite-pencil",
                                  "eigensolver-failure"])
    def test_unusable_factorization_is_nonconvergence(self, eigh, monkeypatch):
        import cusplab.solver as sv

        monkeypatch.setattr(sv, "_eigh_tridiagonal", eigh)
        op = assemble(cusp_grid(CUSP, 0.1, nodes=12), -2.0)
        with pytest.raises(NonConvergence) as exc:
            op.smallest_eigenvalue()
        assert not isinstance(exc.value, IndefiniteOperator)

    @pytest.mark.parametrize("nodes", [16, 40])
    def test_smallest_eigenvalue_matches_dense_and_is_cached(self, nodes, monkeypatch):
        import cusplab.solver as sv

        op = assemble(cusp_grid(CUSP, 0.05, nodes=nodes), -2.0)
        want = np.linalg.eigvalsh(_dense_form(op))[0]
        lam = op.smallest_eigenvalue()
        assert lam == pytest.approx(want, rel=1e-6)
        assert op.min_eigenvalue == lam
        monkeypatch.setattr(sv, "_lanczos_largest", None)  # a second probe would fail
        assert op.smallest_eigenvalue() == lam

    def test_probe_repeats_on_fresh_operators(self):
        # on the maximal grid and on n = 4, f = 1 cusp grids one Gram factor
        # is the identity to 1e-15, so the first Lanczos residual is tiny; a
        # random restart vector would show as a second value or step count
        for grid in [cusp_grid(CUSP, 0.05, nodes=48), *TestGramProbe.GRIDS.values()]:
            ops = [assemble(grid, -2.0) for _ in range(8)]
            values = {op.smallest_eigenvalue() for op in ops}
            assert len(values) == 1
            assert len({op.probe_steps for op in ops}) == 1

    @pytest.mark.parametrize("f, eps", [(1, 0.003), (2, 0.0125)])
    def test_convergence_test_stops_the_probe(self, f, eps):
        # ten vectors from the all-ones start with no convergence test read
        # the f = 1 grid 1.5e-9 off; the f = 2 probe restarts
        op = assemble(cusp_grid(Chart.intermediate_cusp(5, f), eps, nodes=40), -2.0)
        lam = op.smallest_eigenvalue()
        want = spla.eigsh(spla.LinearOperator((op.n_unknowns,) * 2, _gram_form(op)),
                          k=1, which="LA", tol=0, ncv=24, v0=np.ones(op.n_unknowns),
                          return_eigenvectors=False)
        assert lam == pytest.approx(1.0 / want[0], rel=1e-13, abs=0)
        if f == 2:
            assert op.probe_steps > 7


def _gram_form(op):
    """The probe's Gram form P^{-1/2} (G_0 x G_1) P^{-1/2} as a function of a
    flat vector."""
    fac = op.factor()
    s = 1.0 / np.sqrt(fac.pencil)
    g0, g1 = (v.T @ v for v in fac.vectors)
    return lambda z: (s * (g0 @ (s * z.reshape(s.shape)) @ g1)).reshape(-1)


class TestGramProbe:
    """The coercivity probe runs Lanczos on the factor's Gram form
    P^{-1/2} (G_0 x G_1) P^{-1/2}, which has the spectrum of L^{-1}."""

    GRIDS = {
        "cusp": cusp_grid(CUSP, 0.05, nodes=40),
        "collar": collar_grid(Chart.collar(4), 0.05, nodes=30),
        "maximal": maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=200),
    }

    @pytest.mark.parametrize("K", [-2.0, 1.0])
    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_matches_dense_eigenvalue(self, kind, K):
        op = assemble(self.GRIDS[kind], K)
        want = np.linalg.eigvalsh(_dense_form(op))[0]
        assert op.smallest_eigenvalue() == pytest.approx(want, rel=1e-9)
        assert op.probe_steps > 0

    @pytest.mark.parametrize("K", [-2.0, 1.0])
    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_basis_matches_arpack_default(self, kind, K):
        import cusplab.solver as sv

        op = assemble(self.GRIDS[kind], K)
        lam = op.smallest_eigenvalue()
        if kind == "maximal":
            # the Gram form is diagonal to rounding, so the start vector is
            # its top eigenvector and one step passes the residual test
            assert op.probe_steps == 1
            pencil_min = op.factor().pencil.min()
            assert lam == pytest.approx(pencil_min, rel=1e-15, abs=0)
            return
        assert op.probe_steps == sv.PROBE_BASIS + 1 == 7
        # ARPACK's default basis for k = 1 is min(n, 20) vectors
        want = spla.eigsh(spla.LinearOperator((op.n_unknowns,) * 2, _gram_form(op)),
                          k=1, which="LA", tol=1e-4, v0=np.ones(op.n_unknowns),
                          return_eigenvectors=False)
        assert lam == pytest.approx(1.0 / want[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_gram_form_has_the_spectrum_of_the_inverse(self, kind):
        op = assemble(self.GRIDS[kind], -2.0)
        fac = op.factor()
        v0, v1 = fac.vectors
        c = np.kron(v0, v1) / np.sqrt(fac.pencil.reshape(-1))
        assert np.allclose(c @ c.T, np.linalg.inv(_dense_form(op)), rtol=0,
                           atol=1e-12 * np.abs(c @ c.T).max())
        s = 1.0 / np.sqrt(fac.pencil.reshape(-1))
        gram_form = s[:, None] * np.kron(v0.T @ v0, v1.T @ v1) * s[None, :]
        assert np.allclose(c.T @ c, gram_form, rtol=0, atol=1e-12 * np.abs(gram_form).max())

    def test_probe_makes_no_factor_solve(self, monkeypatch):
        import cusplab.solver as sv

        def refuse(self, rhs):
            raise AssertionError("the probe called SeparableFactor.solve")

        monkeypatch.setattr(sv.SeparableFactor, "solve", refuse)
        op = assemble(self.GRIDS["cusp"], -2.0)
        assert op.smallest_eigenvalue() > 0

    def test_no_probe_no_steps(self):
        op = assemble(self.GRIDS["cusp"], 6.0)
        solve_dirichlet(op, np.ones(op.grid.shape))
        assert op.probe_steps is None and op.min_eigenvalue is None


@pytest.fixture
def blas_threads():
    """A reader of the thread count of numpy's OpenBLAS, which the solver
    binds, set to two threads for the test so that a cap left in place
    shows; the prior count comes back after."""
    import cusplab.solver as sv

    threads = sv._openblas_threads()
    if threads is None:
        pytest.skip("numpy loaded no OpenBLAS the solver can bind; the "
                    "solver leaves BLAS as it is")
    get, set_ = threads
    prior = get()
    set_(2)
    yield get
    set_(prior)


def _scipy_openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with
    scipy, loaded here through scipy.linalg; None where scipy bundles none
    of its own."""
    import ctypes
    import os
    from pathlib import Path

    import scipy
    import scipy.linalg  # noqa: F401
    import cusplab.solver as sv

    root = Path(scipy.__file__).parent
    paths = sorted([*root.parent.glob("scipy.libs/*openblas*"),
                    *root.glob(".dylibs/*openblas*")])
    if not paths or not hasattr(os, "RTLD_NOLOAD"):
        return None
    lib = ctypes.CDLL(str(paths[0]), mode=os.RTLD_NOLOAD)
    for name in sv._OPENBLAS_SYMBOLS:
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def _watch_gram_form(monkeypatch, watch, *, poison=False):
    """Run watch() inside each application of the probe's Gram form; with
    poison, every product it returns is NaN."""
    import cusplab.solver as sv

    lanczos = sv._lanczos_largest

    def watched(apply, start):
        def applied(z):
            watch()
            out = apply(z)
            return out * np.nan if poison else out
        return lanczos(applied, start)

    monkeypatch.setattr(sv, "_lanczos_largest", watched)


class TestBlasThreadCap:
    def test_cap_reported(self, blas_threads):
        from cusplab.solver import solve_blas_threads

        assert solve_blas_threads() == 1

    def test_cap_binds_numpys_openblas_only(self, blas_threads):
        # the solver runs no scipy code, so the OpenBLAS scipy bundles, once
        # scipy.linalg loads it, keeps its count through the cap
        import cusplab.solver as sv

        scipys = _scipy_openblas_threads()
        if scipys is None:
            pytest.skip("scipy bundles no OpenBLAS of its own here")
        before = scipys[0]()
        with sv._one_blas_thread():
            assert blas_threads() == 1
            assert scipys[0]() == before
        assert blas_threads() == 2 and scipys[0]() == before

    def test_solve_capped(self, blas_threads, monkeypatch):
        # the library is capped for the axis eigendecompositions, the solve
        # and its refinement step
        import cusplab.solver as sv

        get, set_ = sv._openblas_threads()
        seen = []

        def recording_set(n):
            seen.append(n)
            set_(n)

        monkeypatch.setattr(sv, "_openblas_threads", lambda: (get, recording_set))
        op = assemble(cusp_grid(CUSP, 0.1, nodes=10), 6.0)
        solve_dirichlet(op, np.ones(op.grid.shape))
        assert seen == [1, 2] * 3
        assert blas_threads() == 2

    def test_probe_runs_on_one_thread(self, blas_threads, monkeypatch):
        seen = []
        _watch_gram_form(monkeypatch, lambda: seen.append(blas_threads()))
        op = assemble(cusp_grid(CUSP, 0.1, nodes=24), -2.0)
        op.smallest_eigenvalue()
        assert seen == [1] * op.probe_steps == [1] * 7
        assert blas_threads() == 2

    def test_count_restored_after_solve(self, blas_threads):
        op = assemble(cusp_grid(CUSP, 0.1, nodes=24), 6.0)
        solve_dirichlet(op, np.ones(op.grid.shape))
        assert blas_threads() == 2

    def test_count_restored_after_nonconvergence(self, blas_threads, monkeypatch):
        # a non-finite Gram product ends the probe at its first step
        seen = []
        _watch_gram_form(monkeypatch, lambda: seen.append(blas_threads()), poison=True)
        op = assemble(cusp_grid(CUSP, 0.1, nodes=24), -2.0)
        with pytest.raises(NonConvergence, match="non-finite value at step 1"):
            op.smallest_eigenvalue()
        assert seen == [1]
        assert blas_threads() == 2
        assert op.probe_steps == 1 and op.min_eigenvalue is None

    def test_numbers_do_not_depend_on_the_thread_count(self, blas_threads):
        # a 512-node grid, where two threads of dstevd and of the dense
        # products move the last bits unless the solver caps them
        import cusplab.solver as sv

        _, set_ = sv._openblas_threads()
        runs = []
        for count in (2, 1):
            set_(count)
            if blas_threads() != count:
                pytest.skip(f"numpy's OpenBLAS does not take {count} threads here")
            op = assemble(cusp_grid(CUSP, 0.1, nodes=512), -2.0)
            u = solve_dirichlet(op, np.ones(op.grid.shape))
            runs.append((op.factor().pencil, op.min_eigenvalue, op.probe_steps, u.values))
        (pencil, lam, steps, u), (pencil1, lam1, steps1, u1) = runs
        assert np.array_equal(pencil, pencil1)
        assert lam == lam1 and steps == steps1
        assert np.array_equal(u, u1)


class TestSeparableFactor:
    GRIDS = {
        "cusp": cusp_grid(CUSP, 0.1, nodes=16),
        "collar": collar_grid(Chart.collar(4), 0.1, nodes=14),
        "maximal": maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=40),
    }

    @pytest.mark.parametrize("K", [-2.0, 6.0, -50.0])
    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_matches_sparse_and_dense_references(self, kind, K):
        op = assemble(self.GRIDS[kind], K)
        fac = op.factor()
        b = np.random.default_rng(1).standard_normal(op.n_unknowns)
        want = spla.spsolve(_edge_loop_assemble(op.grid, K)[0].tocsc(), b)
        assert np.abs(fac.solve(b) - want).max() <= 1e-12 * np.abs(want).max()
        dense = np.linalg.eigvalsh(_dense_form(op))
        count = int(np.count_nonzero(dense <= 0))
        assert int(np.count_nonzero(fac.pencil <= 0)) == count
        if count:
            with pytest.raises(IndefiniteOperator, match=f"has {count} nonpositive"):
                op.smallest_eigenvalue()
        else:
            assert op.smallest_eigenvalue() == pytest.approx(dense[0], rel=1e-6)


@contextlib.contextmanager
def _scipy_on_one_thread():
    """scipy's OpenBLAS, where it bundles its own, on one thread inside the
    block, as the solver caps numpy's."""
    threads = _scipy_openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _axis_grids(nodes):
    return [cusp_grid(CUSP, 0.05, nodes=nodes),
            collar_grid(Chart.collar(4), 0.05, nodes=nodes),
            maximal_grid(Chart.maximal_cusp(4), 0.05, nodes=nodes)]


class TestTridiagonalEigensolver:
    """The axis eigendecompositions call LAPACK dstevd in numpy's OpenBLAS;
    scipy.linalg.eigh_tridiagonal, which runs the same routine in scipy's,
    is the reference and the fallback.  The solver runs dstevd on one
    thread, and scipy's runs on one here too: on two, each library's dstevd
    moves some bits from 256 nodes on, and the two libraries part on one
    collar stencil at 510 nodes (1e-16)."""

    @pytest.mark.parametrize("nodes", [16, 64, 256, 510, 1024])
    def test_binding_matches_scipy_bit_for_bit(self, nodes, monkeypatch):
        from scipy.linalg import eigh_tridiagonal
        import cusplab.solver as sv

        binding, pairs = sv._eigh_tridiagonal, []

        def both(d, e):
            got, want = binding(d, e), eigh_tridiagonal(d, e)
            pairs.append((got, want))
            return got

        monkeypatch.setattr(sv, "_eigh_tridiagonal", both)
        with _scipy_on_one_thread():
            for grid in _axis_grids(nodes):
                assemble(grid, -2.0).factor()
        assert len(pairs) == 6  # two axes per grid, the maximal grid's second of one node
        for (lam, z), (want_lam, want_z) in pairs:
            assert np.array_equal(lam, want_lam) and np.array_equal(z, want_z)
            assert z.flags.f_contiguous and want_z.flags.f_contiguous

    @pytest.mark.parametrize("nodes", [16, 1024])
    def test_fallback_gives_the_same_bits(self, nodes, monkeypatch):
        import cusplab.solver as sv

        for grid in _axis_grids(nodes):
            with _scipy_on_one_thread():
                got = assemble(grid, -2.0).factor()
                with monkeypatch.context() as m:
                    m.setattr(sv, "_lapacke_dstevd", lambda: None)
                    want = assemble(grid, -2.0).factor()
            assert np.array_equal(got.pencil, want.pencil)
            for v, w in zip(got.vectors, want.vectors):
                assert np.array_equal(v, w)

    def test_nonzero_info_is_nonconvergence(self, monkeypatch):
        import cusplab.solver as sv

        monkeypatch.setattr(sv, "_lapacke_dstevd", lambda: lambda *args: 7)
        op = assemble(cusp_grid(CUSP, 0.1, nodes=12), -2.0)
        with pytest.raises(NonConvergence, match="dstevd failed with info = 7"):
            op.smallest_eigenvalue()
        assert op.probe_steps is None

    def test_binding_reports_lapack_info(self):
        import cusplab.solver as sv

        if sv._lapacke_dstevd() is None:
            pytest.skip("numpy bundles no OpenBLAS with LAPACKE's dstevd here")
        # LAPACKE checks its input: a NaN in d is argument 4
        with pytest.raises(np.linalg.LinAlgError, match="info = -4"):
            sv._eigh_tridiagonal(np.array([1.0, np.nan, 2.0]), np.array([0.5, 0.5]))
        lam, z = sv._eigh_tridiagonal(np.array([3.0]), np.array([]))
        assert lam.tolist() == [3.0] and z.tolist() == [[1.0]]


def _nan_solve(factor, rhs):
    return np.full(rhs.shape, np.nan)


@pytest.fixture(params=["nan-solve", "zero-pencil"])
def broken_factor(request, monkeypatch):
    import cusplab.solver as sv

    if request.param == "nan-solve":
        monkeypatch.setattr(sv.SeparableFactor, "solve", _nan_solve)
    else:
        monkeypatch.setattr(sv, "_eigh_tridiagonal", _zero_eigh)
    return request.param


class TestBrokenFactorIsNonConvergence:
    """A factor whose solves return NaN, or whose pencil has a zero
    eigenvalue, ends as NonConvergence, never as a usage error."""

    @pytest.mark.parametrize("K", ["1", "-2"])  # without and with the probe
    def test_cli_exits_numerical(self, broken_factor, K, tmp_path):
        from cusplab.cli import EXIT_NUMERICAL, main

        code = main(["--out-dir", str(tmp_path), "solve", "--K", K, "--nodes", "24"])
        assert code == EXIT_NUMERICAL
        payload = json.loads((tmp_path / "solve_summary.json").read_text())
        assert payload["error"]["type"] == "NonConvergence"

    def test_sweep_records_the_rows(self, broken_factor):
        rows = exhaustion_sweep(CUSP, 1.0, W41, default_bump_recipe(W41),
                                [0.2, 0.1], nodes=16)
        assert len(rows) == 2
        assert all(r.error is not None and math.isnan(r.ratio) for r in rows)

    def test_failed_sweep_row_keeps_the_probe(self, monkeypatch):
        import cusplab.solver as sv

        want = assemble(cusp_grid(CUSP, 0.2, nodes=16), -2.0)
        lam = want.smallest_eigenvalue()
        # the residual fails after a successful probe
        monkeypatch.setattr(sv.SeparableFactor, "solve", _nan_solve)
        (row,) = exhaustion_sweep(CUSP, -2.0, W41, default_bump_recipe(W41),
                                  [0.2], nodes=16)
        assert row.error.startswith("residual nan exceeds")
        assert row.min_eigenvalue == lam > 0
        assert row.probe_steps == want.probe_steps == 7


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
        rhs[grid.interior] = op.apply_to_values(u_star.values)
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
        import dataclasses

        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, -2.0)
        f = sample_field(grid, default_bump_recipe(W41))
        op.smallest_eigenvalue()  # the coercivity probe runs on the true factor
        # the cached factor's solves come out 1e-3 too large; one refinement
        # step leaves a 1e-6 relative error, far above the 1e-8 residual test
        fac = op.factor()
        op._factorization = dataclasses.replace(fac, pencil=fac.pencil / (1.0 + 1e-3))
        with pytest.raises(NonConvergence) as exc:
            solve_dirichlet(op, f)
        assert math.isfinite(exc.value.residual)

    def test_every_solve_reuses_the_one_factorization(self, monkeypatch):
        # 254^2 = 64,516 unknowns at K = 6, where no coercivity probe runs
        import cusplab.solver as sv

        grid = cusp_grid(CUSP, 0.05, nodes=256)
        op = assemble(grid, 6.0)
        calls = _count_calls(monkeypatch, sv, ["_eigh_tridiagonal"])
        u_star = sample_field(grid, default_bump_recipe(W41))
        rhs = np.zeros(grid.shape)
        rhs[grid.interior] = op.apply_to_values(u_star.values)
        u1 = solve_dirichlet(op, rhs)
        u2 = solve_dirichlet(op, 2.0 * rhs)
        assert calls == {"_eigh_tridiagonal": 2}  # one factorization: r and theta0
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


class TestSampleField:
    """sample_field evaluates a recipe on the open axes and broadcasts."""

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025])
    def test_axes_match_meshes_bit_for_bit(self, eps):
        grid = cusp_grid(CUSP, eps, nodes=96)
        recipe = default_bump_recipe(W41)
        f = sample_field(grid, recipe)
        assert f.values.shape == grid.shape and f.values.flags.writeable
        assert np.array_equal(f.values, recipe(*grid.meshes()))

    def test_one_coordinate_recipe_broadcasts(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        f = sample_field(grid, lambda r, th: np.cos(th))
        assert f.values.shape == grid.shape and f.values.flags.writeable
        assert np.array_equal(f.values, np.cos(grid.meshes()[1]))
        f.values[0, 0] = 7.0
        assert f.values[1, 0] != 7.0  # no entry aliases another


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

    @pytest.mark.parametrize("eps_list, message", [
        ([0.8], "zero on every interior node"),
        ([0.6, 0.5, 0.3], "nonzero on a boundary node"),
        ([0.3], "nonzero on a boundary node"),
    ], ids=["bump-off-the-grid", "bump-on-the-boundary", "theta-edge-below-1"])
    def test_source_off_the_grid_or_on_its_boundary_rejected(self, eps_list,
                                                            message):
        # the bump lives in r in [0.55, 0.85], theta0 in [0.45, 1]; the grid
        # of eps has r >= sqrt(eps) and theta0 <= arccos(sqrt(eps))
        with pytest.raises(ValueError, match=f"eps = {eps_list[0]}: .*{message}"):
            exhaustion_sweep(CUSP, -2.0, W41, default_bump_recipe(W41), eps_list,
                             nodes=24)

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

    def test_manufactured_solution_to_roundoff(self):
        # the solve refines once against the symmetric form; without that
        # step the fast-diagonalization solve leaves about 1e-13 here
        rows = exhaustion_sweep(CUSP, -2.0, W41, default_bump_recipe(W41),
                                [0.2, 0.1, 0.05, 0.025], nodes=96)
        assert max(r.mms_error for r in rows) <= 1e-14


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
        ratio = op.apply_to_values(smu) / smu[grid.interior]
        assert ratio.max() < 0  # negative everywhere: no positive weights work
        assert rep.closed_form_delta < 0

    def test_round_collar_refused(self):
        # the one flux-factor rule assembles this collar's (rho, y1)
        # reduction, but (Delta + K) rho^nu / rho^nu varies on its family
        chart = Chart.collar(4, h_u="round_sphere", edge=1.9)
        op = assemble(compact_patch_grid(chart, 17, (0.5, 1.5), (0.5, 2.5)), -2.0)
        w = WeightVector(mu0=1.75, mus=(), ranks=(), n=4)
        with pytest.raises(ValueError, match="no closed-form barrier margin on the "
                                             "round_sphere collar"):
            maximum_principle_check(op, w)


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
        with pytest.raises(SupportViolation,
                           match="within 3 nodes of the boundary of the 17 x 17-node grid"):
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
            assert np.diag(_dense_form(op)).min() > 0

    def test_symmetry_flag(self):
        grid = cusp_grid(CUSP, 0.1, nodes=16)
        dense = _dense_form(assemble(grid, -2.0))
        assert np.array_equal(dense, dense.T)


class TestSweepErrorRecording:
    def test_record_mode_keeps_partial_rows(self):
        rows = exhaustion_sweep(
            CUSP, -50.0, W41, default_bump_recipe(W41), [0.2, 0.1],
            nodes=16,
        )
        assert len(rows) == 2
        assert all(r.error is not None for r in rows)
        assert math.isnan(plateau_factor(rows))


class TestCoercivityProbeFailure:
    def test_step_cap_is_nonconvergence(self, monkeypatch):
        import cusplab.solver as sv

        monkeypatch.setattr(sv, "PROBE_MAX_STEPS", 3)  # this grid takes 7
        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, -2.0)
        with pytest.raises(NonConvergence, match="did not converge in 3 steps"):
            solve_dirichlet(op, np.ones(grid.shape))
        assert op.probe_steps == 3 and op.min_eigenvalue is None

    def test_non_finite_value_is_nonconvergence(self):
        import dataclasses

        grid = cusp_grid(CUSP, 0.1, nodes=24)
        op = assemble(grid, -2.0)
        fac = op.factor()
        # a NaN eigenvector entry leaves the pencil usable and poisons G_0
        v0 = fac.vectors[0].copy()
        v0[3, 5] = np.nan
        op._factorization = dataclasses.replace(fac, vectors=(v0, fac.vectors[1]))
        with pytest.raises(NonConvergence, match="non-finite value at step 1"):
            solve_dirichlet(op, np.ones(grid.shape))
        assert op.probe_steps == 1 and op.min_eigenvalue is None


class TestGridsLieInTheirChart:
    def test_cusp_radius_beyond_the_edge(self):
        from cusplab.solver import Grid2D

        axes = (np.linspace(0.5, 2.0, 12), np.linspace(0.2, 1.0, 12))
        with pytest.raises(ValueError, match=r"axis r has a node at 1\.0\d*, outside"):
            Grid2D(CUSP, axes, 0.1)

    def test_round_collar_polar_angle_below_the_pole(self):
        chart = Chart.collar(4, h_u="round_sphere")
        with pytest.raises(ValueError, match=r"axis y1 has a node at -1\.0, outside"):
            collar_grid(chart, 0.1)


class TestEuclideanCollarOnly:
    ROUND = Chart.collar(4, h_u="round_sphere", edge=1.9)

    def test_koiso_quadrature(self):
        grid = compact_patch_grid(self.ROUND, 17, (1.0, 1.5), (0.5, 1.5))
        u = random_bump_tensor(grid, np.random.default_rng(0))
        with pytest.raises(ValueError, match="Euclidean family"):
            koiso_quadrature(grid, u)

    def test_one_guard_refuses_the_cusp(self):
        grid = cusp_grid(CUSP, 0.1, nodes=17)
        u = DiscreteField(grid, np.zeros(grid.shape + (4, 4)))
        with pytest.raises(ValueError, match="Euclidean family, the chart is "
                                             "'intermediate_cusp'"):
            koiso_quadrature(grid, u)


class TestBoxBump:
    def test_default_recipe_keeps_its_bits(self):
        # the box's centre (r0 + r1) / 2 doubles back to r0 + r1 exactly
        r, th = cusp_grid(CUSP, 0.05, nodes=64).meshes()
        want = (np.cos(th) ** W41.mu0 * r ** W41.mus[0]
                * smooth_bump((2 * r - (0.55 + 0.85)) / (0.85 - 0.55))
                * smooth_bump((2 * th - (0.45 + 1.0)) / (1.0 - 0.45)))
        assert np.array_equal(default_bump_recipe(W41)(r, th), want)
