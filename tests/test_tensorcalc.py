import math
import tracemalloc

import numpy as np
import pytest

from cusplab.charts import Chart, ChartDomainError, at_points, batched
from cusplab.tensorcalc import (
    BATCH_CAP,
    DEFAULT_STEP,
    MetricField,
    SymTensorField,
    Q_at,
    Q_gauge_at,
    L_at,
    chart_metric,
    christoffels_at,
    coordinate_steps,
    covector_norm,
    deturck_field_at,
    laplacian_scalar_at,
    ricci_at,
    tensor_norm,
    StencilError,
)
from cusplab import tensorcalc
from cusplab.weights import barrier_cusp

COLLAR4 = Chart.collar(4)
P4 = np.array([0.4, 0.2, -0.1, 0.3])


def flat_field(chart=COLLAR4):
    n = chart.n
    return MetricField(chart, lambda p: np.eye(n), "flat")


# -- reference operators ------------------------------------------------------
# Tensor operators that no subcommand runs, kept as oracles for the calculus
# behind Q and L.  They are written on tensorcalc's jet algebra and wrapped by
# its `_on_points`, so point sets, bad points and empty sets behave as in the
# shipped operators.  The lowered curvature array is
# riem[i,j,k,l] = <R(e_i,e_j)e_k, e_l>, which on a hyperbolic metric equals
# -(g_jk g_il - g_ik g_jl).  `_inverse_2jet` and `_trace_reversal` are the
# second-order routes that `_g_trace_jet` and `_reversed_divergence` replace.


def _riemann_up(gam):
    """R[..., l, k, i, j] = R^l_kij
    = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    g0, dg = gam
    return (np.einsum("...iljk->...lkij", dg) - np.einsum("...jlik->...lkij", dg)
            + tensorcalc._contract("lim,mjk->lkij", g0, g0)
            - tensorcalc._contract("ljm,mik->lkij", g0, g0))


def _riemann_down(G, up):
    """riem[..., i, j, k, l] from R^l_kij and the metric's jet G."""
    return tensorcalc._contract("lm,mkij->ijkl", G[0], up)


@tensorcalc._on_points
def _riemann_at(g, p, step=DEFAULT_STEP):
    (G,) = tensorcalc._metric_jets(g, p, step)
    return _riemann_down(G, _riemann_up(tensorcalc._christoffel(G)))


@tensorcalc._on_points
def _difference_tensor_at(g, h, p, step=DEFAULT_STEP):
    """A[k, i, j] = Gamma(h) - Gamma(g), from covariant derivatives of
    e = g - h."""
    H, G = tensorcalc._metric_jets(h, p, step, g)
    e = tensorcalc._jlin((1.0, G), (-1.0, H))
    nab = tensorcalc._nabla(tensorcalc._christoffel(H), e)[0]
    t = nab + np.swapaxes(nab, -3, -2) - np.einsum("...mij->...ijm", nab)
    return -0.5 * tensorcalc._contract("pm,ijm->pij", np.linalg.inv(G[0]), t)


def _difference_tensor_field(g, h, step=DEFAULT_STEP):
    return MetricField(g.chart, batched(lambda p: _difference_tensor_at(g, h, p, step)),
                       "A")


@tensorcalc._on_points
def _rough_laplacian_tensor_at(g, u, p, step=DEFAULT_STEP):
    """Componentwise nabla* nabla on symmetric 2-tensors."""
    G, U = tensorcalc._metric_jets(g, p, step, u)
    lap = tensorcalc._rough_laplacian(G, tensorcalc._christoffel(G), U)
    return tensorcalc._sym(lap)


@tensorcalc._on_points
def _lichnerowicz_at(h, u, p, step=DEFAULT_STEP):
    """nabla*nabla u + 2 Rc-action - 2 Rm-action; the curvature tensor is
    formed once from the 2-jet of h, and Ricci is its trace."""
    H, U = tensorcalc._metric_jets(h, p, step, u)
    gam = tensorcalc._christoffel(H)
    up = _riemann_up(gam)
    ric = tensorcalc._sym(np.einsum("...kikj->...ij", up))
    hinv, u0 = np.linalg.inv(H[0]), U[0]
    rc_u = 0.5 * (ric @ hinv @ u0 + u0 @ hinv @ ric)
    rm_u = tensorcalc._contract("kijl,kl->ij", _riemann_down(H, up),
                                hinv @ u0 @ hinv)
    lap = tensorcalc._rough_laplacian(H, gam, U)
    return tensorcalc._sym(lap + 2.0 * rc_u - 2.0 * rm_u)


@tensorcalc._on_points
def _lichnerowicz_hyperbolic_at(h, u, p, step=DEFAULT_STEP):
    """Closed form on a hyperbolic background: nabla*nabla u - 2n u + 2 (tr u) h."""
    H, U = tensorcalc._metric_jets(h, p, step, u)
    h0, u0 = H[0], U[0]
    lap = tensorcalc._sym(
        tensorcalc._rough_laplacian(H, tensorcalc._christoffel(H), U))
    return lap - 2.0 * h.chart.n * u0 + 2.0 * tensorcalc._g_trace(h0, u0) * h0


def _g_trace_reversal(g0, t0):
    """G_g t = t - (tr_g t / 2) g on values (one point, or stacked)."""
    return t0 - 0.5 * tensorcalc._g_trace(g0, t0) * g0


@tensorcalc._on_points
def _divergence_at(g, t, p, step=DEFAULT_STEP):
    """delta_g t = -tr_12 nabla t, a covector."""
    G, T = tensorcalc._metric_jets(g, p, step, t)
    Ginv = tensorcalc._jinv(G)
    return tensorcalc._divergence(Ginv, tensorcalc._christoffel(G, Ginv), T)[0]


@tensorcalc._on_points
def _deltastar_at(g, omega, p, step=DEFAULT_STEP):
    """delta*_g omega, the symmetrized covariant derivative of a 1-form."""
    G, W = tensorcalc._metric_jets(g, p, step, omega)
    return tensorcalc._deltastar(tensorcalc._christoffel(G), W)


@tensorcalc._on_points
def _bianchi_ops_at(g, t, p, step=DEFAULT_STEP):
    """(delta_g t, G_g t, delta*_g(delta_g(G_g t))) for a symmetric t."""
    G, T = tensorcalc._metric_jets(g, p, step, t)
    Ginv = tensorcalc._jinv(G)
    gam = tensorcalc._christoffel(G, Ginv)
    div = tensorcalc._divergence(Ginv, gam, T)
    closure = tensorcalc._deltastar(
        gam, tensorcalc._reversed_divergence(Ginv, G, T, div))
    return div[0], _g_trace_reversal(G[0], T[0]), closure


def _inverse_2jet(jet):
    """2-jet of the matrix inverse: d M^-1 = -M^-1 dM M^-1, differentiated
    once more."""
    inv, d = tensorcalc._jinv(jet)
    inv2 = inv[..., None, None, :, :]
    d_a = d[..., :, None, :, :]  # d_a M^-1 at (a, b)
    dm_b = jet[1][..., None, :, :, :]  # d_b M at (a, b)
    dd = d_a @ dm_b @ inv2 + inv2 @ dm_b @ d_a + inv2 @ jet[2] @ inv2
    return inv, d, -dd


def _trace_reversal(Ginv, G, T):
    """2-jet of G_g t = t - (tr_g t / 2) g, from the 2-jet of g^{-1}."""
    tr = tensorcalc._jeinsum("kl,kl->", Ginv, T)
    return tensorcalc._jlin((1.0, T), (-0.5, tensorcalc._jeinsum(",ij->ij", tr, G)))


class TestChristoffels:
    def test_flat_is_zero(self):
        gam = christoffels_at(flat_field(), P4)
        assert np.abs(gam).max() < 1e-13

    def test_conformal_plane(self):
        # h = (dx^2 + dy^2)/rho^2 in n = 2: the nonzero symbols are +-1/rho
        chart = Chart.collar(2)
        h = chart_metric(chart)
        p = np.array([0.5, 0.2])
        gam = christoffels_at(h, p)
        assert gam[0, 0, 0] == pytest.approx(-2.0, abs=1e-5)
        assert gam[0, 1, 1] == pytest.approx(2.0, abs=1e-5)
        assert gam[1, 0, 1] == pytest.approx(-2.0, abs=1e-5)
        assert gam[1, 1, 1] == pytest.approx(0.0, abs=1e-6)

    def test_lower_symmetry(self):
        h = chart_metric(Chart.intermediate_cusp(4, 1))
        gam = christoffels_at(h, [0.5, 0.7, 1.2, 0.3])
        assert np.abs(gam - gam.transpose(0, 2, 1)).max() < 1e-12

    def test_stencil_guard(self):
        # an unscaled (flat) field cannot shrink its stencil near the edge
        with pytest.raises(StencilError):
            coordinate_steps(flat_field(), np.array([1e-4, 0.0, 0.0, 0.0]), 1e-3)


class TestCurvature:
    @pytest.mark.parametrize("chart,p", [
        (Chart.intermediate_cusp(4, 1), [0.5, 0.7, 1.2, 0.3]),
        (Chart.intermediate_cusp(5, 3), [0.6, 0.8, 0.1, 0.2, 0.3]),
        (Chart.maximal_cusp(4), [0.7, 0.1, 0.2, 0.3]),
        (COLLAR4, [0.3, 0.1, -0.2, 0.5]),
        (Chart.collar(4, h_u="round_sphere"), [0.3, 1.2, 1.0, 0.4]),
        (Chart.upper_half_space(4, 1), [0.5, 0.3, -0.2, 0.4]),
    ])
    def test_hyperbolic_einstein_identity(self, chart, p):
        h = chart_metric(chart)
        hp = h(p)
        defect = tensor_norm(hp, ricci_at(h, p) + (chart.n - 1) * hp)
        assert defect < 1e-4

    def test_flat_and_scaled_flat(self):
        for c2 in (1.0, 2.89):
            g = MetricField(COLLAR4, lambda p, c2=c2: c2 * np.eye(4))
            assert np.abs(ricci_at(g, P4)).max() < 1e-12

    def test_richardson_order(self):
        h = chart_metric(Chart.intermediate_cusp(4, 1))
        p = [0.5, 0.7, 1.2, 0.3]
        hp = h(p)
        d1 = tensor_norm(hp, ricci_at(h, p, 1e-3) + 3 * hp)
        d2 = tensor_norm(hp, ricci_at(h, p, 5e-4) + 3 * hp)
        assert math.log2(d1 / d2) > 1.9

    def test_riemann_constant_curvature_form(self):
        h = chart_metric(COLLAR4)
        hp = h(P4)
        riem = _riemann_at(h, P4)
        want = -(np.einsum("jk,il->ijkl", hp, hp) - np.einsum("ik,jl->ijkl", hp, hp))
        scale = np.abs(want).max()
        assert np.abs(riem - want).max() < 1e-4 * scale

    def test_ricci_from_curvature_split(self):
        # Ricci of g = h + e recovered through the background-plus-difference
        # decomposition of the curvature
        chart = COLLAR4
        h = chart_metric(chart)

        def emat(q):
            a = 0.05 * math.sin(2 * q[1]) * math.cos(q[2] + q[0])
            return a * np.diag([1.0, 0.5, -0.3, 0.2]) / q[0] ** 2

        g = MetricField(chart, lambda q: chart.metric_at(q) + emat(q), "g")
        direct = ricci_at(g, P4)
        split = _ricci_via_split(g, h, P4, 1e-3)
        assert tensor_norm(h(P4), direct - split) < 1e-4


def _ricci_via_split(g, h, p, step):
    """Independent route: curvature of the background plus covariant
    derivatives of the connection-difference tensor plus its square."""
    p = np.asarray(p, float)
    hs = coordinate_steps(h, p, step)

    def dgam(q):
        return christoffels_at(g, q, step) - christoffels_at(h, q, step)

    D0 = dgam(p)
    gam_h = christoffels_at(h, p, step)
    dD = np.stack([
        (dgam(_sh(p, a, hs[a])) - dgam(_sh(p, a, -hs[a]))) / (2 * hs[a])
        for a in range(len(p))
    ])
    nabD = (
        dD
        + np.einsum("lam,mjk->aljk", gam_h, D0)
        - np.einsum("maj,lmk->aljk", gam_h, D0)
        - np.einsum("mak,ljm->aljk", gam_h, D0)
    )  # nabD[a, l, j, k] = nabla^h_a D^l_jk
    hp = h(p)
    hinv = np.linalg.inv(hp)
    low_h = _riemann_at(h, p, step)  # <R(e_i,e_j)e_k, e_l>
    up_h = np.einsum("lm,ijkm->lkij", hinv, low_h)
    up_g = (
        up_h
        + np.einsum("iljk->lkij", nabD)
        - np.einsum("jlik->lkij", nabD)
        + np.einsum("lim,mjk->lkij", D0, D0)
        - np.einsum("ljm,mik->lkij", D0, D0)
    )
    ric = np.einsum("lklj->kj", up_g)
    return 0.5 * (ric + ric.T)


def _sh(p, i, d):
    q = p.copy()
    q[i] += d
    return q


class TestLaplacians:
    def test_flat_quadratic(self):
        got = laplacian_scalar_at(flat_field(), lambda p: p[1] ** 2, P4)
        assert got == pytest.approx(-2.0, abs=1e-9)

    def test_constant(self):
        got = laplacian_scalar_at(flat_field(), lambda p: 7.0, P4)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_cusp_barrier_matches_closed_form(self):
        chart = Chart.intermediate_cusp(4, 1)
        h = chart_metric(chart)
        p = np.array([0.5, 0.7, 1.2, 0.3])
        mu, nu, K = 0.5, 1.75, -2.0

        def u(q):
            return q[0] ** mu * math.cos(q[1]) ** nu

        got = laplacian_scalar_at(h, u, p) + K * u(p)
        cc, cs = barrier_cusp(K, mu, nu, 1, 4)
        want = (cc * math.cos(p[1]) ** 2 + cs * math.sin(p[1]) ** 2) * u(p)
        assert got == pytest.approx(want, rel=1e-4)

    def test_rough_laplacian_flat_constant(self):
        u = SymTensorField(COLLAR4, lambda p: np.diag([1.0, 2.0, 3.0, 4.0]))
        got = _rough_laplacian_tensor_at(flat_field(), u, P4)
        assert np.abs(got).max() < 1e-10

    def test_metric_is_parallel(self):
        h = chart_metric(COLLAR4)
        u = SymTensorField(COLLAR4, COLLAR4.metric_at)
        got = _rough_laplacian_tensor_at(h, u, P4)
        assert tensor_norm(h(P4), got) < 1e-8

    def test_conformal_factor_pulls_out(self):
        h = chart_metric(COLLAR4)

        def phi(q):
            return math.sin(q[0] + q[1]) * math.cos(q[2])

        u = SymTensorField(COLLAR4, lambda q: phi(q) * COLLAR4.metric_at(q))
        got = _rough_laplacian_tensor_at(h, u, P4)
        want = laplacian_scalar_at(h, phi, P4) * h(P4)
        assert tensor_norm(h(P4), got - want) < 1e-4


class TestLichnerowicz:
    def test_metric_direction_annihilated(self):
        h = chart_metric(COLLAR4)
        u = SymTensorField(COLLAR4, COLLAR4.metric_at)
        for op in (_lichnerowicz_at, _lichnerowicz_hyperbolic_at):
            assert tensor_norm(h(P4), op(h, u, P4)) < 1e-4

    def test_trace_free_reduction(self):
        h = chart_metric(COLLAR4)

        def u(q):
            a = math.sin(q[1]) / q[0] ** 2
            return a * np.diag([1.0, -1.0, 2.0, -2.0])

        uf = SymTensorField(COLLAR4, u)
        got = _lichnerowicz_at(h, uf, P4)
        want = _rough_laplacian_tensor_at(h, uf, P4) - 8.0 * u(P4)
        assert tensor_norm(h(P4), got - want) < 1e-4

    def test_zero(self):
        h = chart_metric(COLLAR4)
        u = SymTensorField(COLLAR4, lambda q: np.zeros((4, 4)))
        assert np.abs(_lichnerowicz_at(h, u, P4)).max() < 1e-12

    def test_general_matches_hyperbolic_closed_form(self):
        h = chart_metric(COLLAR4)

        def u(q):
            a = math.cos(q[1] + q[3])
            return a * np.array([
                [1.0, 0.2, 0.0, 0.1],
                [0.2, -0.4, 0.3, 0.0],
                [0.0, 0.3, 0.8, 0.2],
                [0.1, 0.0, 0.2, -0.5],
            ]) / q[0] ** 2

        uf = SymTensorField(COLLAR4, u)
        a = _lichnerowicz_at(h, uf, P4)
        b = _lichnerowicz_hyperbolic_at(h, uf, P4)
        assert tensor_norm(h(P4), a - b) < 1e-4


class TestBianchiOps:
    def test_trace_reversal_of_metric(self):
        h = chart_metric(COLLAR4)
        hp = h(P4)
        assert np.allclose(_g_trace_reversal(hp, hp), (1 - 2.0) * hp)

    def test_trace_free_fixed(self):
        hp = chart_metric(COLLAR4)(P4)
        t = np.diag([1.0, -1.0, 2.0, -2.0]) / P4[0] ** 2
        assert np.allclose(_g_trace_reversal(hp, t), t)

    def test_deltastar_of_zero(self):
        h = chart_metric(COLLAR4)
        got = _deltastar_at(h, lambda q: np.zeros(4), P4)
        assert np.abs(got).max() < 1e-14

    def test_divergence_of_metric_vanishes(self):
        h = chart_metric(COLLAR4)
        got = _divergence_at(h, h, P4)
        assert covector_norm(h(P4), got) < 1e-8

    def test_combined(self):
        h = chart_metric(COLLAR4)
        div, grev, dstar = _bianchi_ops_at(h, h, P4)
        hp = h(P4)
        assert covector_norm(hp, div) < 1e-8
        assert np.allclose(grev, -hp)
        assert tensor_norm(hp, dstar) < 1e-6


class TestGaugeAdjusted:
    def test_hyperbolic_zero(self):
        h = chart_metric(Chart.intermediate_cusp(4, 1))
        p = [0.5, 0.7, 1.2, 0.3]
        q = Q_at(h, h, p)
        assert tensor_norm(h(p), q) < 1e-4

    def test_gauge_term_vanishes_on_diagonal(self):
        chart = COLLAR4
        h = chart_metric(chart)

        def gmat(q):
            e = 0.1 * math.sin(q[1]) * math.cos(q[2]) / q[0] ** 2
            return chart.metric_at(q) + e * np.diag([1.0, 0.3, -0.2, 0.4])

        g = MetricField(chart, gmat, "g")
        gauge = Q_gauge_at(g, g, P4, 1e-3)
        assert tensor_norm(g(P4), gauge) < 10 * 1e-3 ** 2
        qq = Q_at(g, g, P4)
        want = ricci_at(g, P4) + 3 * g(P4)
        assert tensor_norm(g(P4), qq - want) < 10 * 1e-3 ** 2

    def test_scaled_hyperbolic(self):
        chart = COLLAR4
        c2 = 1.44
        g = MetricField(chart, lambda q: c2 * chart.metric_at(q), "c2h")
        got = Q_at(g, g, P4)
        want = 3 * (c2 - 1.0) * chart.metric_at(P4)
        assert tensor_norm(chart.metric_at(P4), got - want) < 1e-4

    @pytest.mark.parametrize("points", [P4, np.array([P4 + 0.01 * k for k in range(7)])],
                             ids=["point", "array"])
    @pytest.mark.parametrize("field", [
        chart_metric(COLLAR4),
        MetricField(COLLAR4, lambda q: COLLAR4.metric_at(q)
                    * (1 + 0.1 * math.sin(q[1] + q[0])), "g"),
    ], ids=["array-native", "pointwise"])
    def test_Q_of_g_and_g_is_ricci_plus_metric(self, field, points):
        # Q(g, g) has no gauge term: the same bits as Rc(g) + (n - 1) g
        want = ricci_at(field, points) + 3.0 * field(points)
        assert np.array_equal(Q_at(field, field, points), want)

    def test_Q_of_g_and_g_on_the_ladder(self, extraction_set):
        g1, _, points = extraction_set
        want = ricci_at(g1, points, 5e-4) + 3.0 * g1(points)
        assert np.array_equal(Q_at(g1, g1, points, 5e-4), want)

    def test_the_gauge_check_still_computes_the_gauge_term(self, monkeypatch,
                                                          extraction_set):
        # Q(g, g) skips the gauge term; Q_gauge_at, deturck_field_at and
        # expansion.gauge_term_norm, which checks that term, must not
        from cusplab.expansion import gauge_term_norm

        calls = []
        parts = tensorcalc._gauge_parts

        def counted(*args):
            calls.append(args[0].label)
            return parts(*args)

        monkeypatch.setattr(tensorcalc, "_gauge_parts", counted)
        _, g3, _ = extraction_set
        h = chart_metric(COLLAR4)
        Q_at(h, h, P4)
        assert calls == []
        Q_gauge_at(h, h, P4)
        deturck_field_at(h, h, P4)
        assert calls == ["h", "h"]
        calls.clear()
        points = [np.concatenate(([r], g3.bd._reference_y())) for r in (0.15, 0.35)]
        assert gauge_term_norm(g3, points) <= 10 * 1e-3 ** 2
        assert calls == ["g_3"]


class TestLinearizedOperator:
    def test_metric_multiples(self):
        h = chart_metric(COLLAR4)
        c = 0.37
        r = SymTensorField(COLLAR4, lambda q: c * COLLAR4.metric_at(q))
        got = L_at(h, r, P4)
        assert tensor_norm(h(P4), got - 3 * c * h(P4)) < 1e-8

    def test_zero(self):
        h = chart_metric(COLLAR4)
        r = SymTensorField(COLLAR4, lambda q: np.zeros((4, 4)))
        assert np.abs(L_at(h, r, P4)).max() < 1e-12

    def test_linearity(self):
        h = chart_metric(COLLAR4)

        def r1(q):
            return math.sin(q[1]) * np.diag([1.0, 0.5, -0.2, 0.1]) / q[0] ** 2

        def r2(q):
            return math.cos(q[2]) * np.array([
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]) / q[0] ** 2

        a, b = 1.7, -0.6
        f1 = SymTensorField(COLLAR4, r1)
        f2 = SymTensorField(COLLAR4, r2)
        comb = SymTensorField(COLLAR4, lambda q: a * r1(q) + b * r2(q))
        lhs = L_at(h, comb, P4)
        rhs = a * L_at(h, f1, P4) + b * L_at(h, f2, P4)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())

    def test_directional_derivative_of_Q(self):
        # L agrees with the first variation of Q in its first slot; the
        # differencing in s is second order where the variation dominates the
        # fixed stencil noise of the operator evaluations
        chart = COLLAR4
        h = chart_metric(chart)

        def rmat(q):
            a = math.sin(2 * q[1]) * math.cos(q[2])
            b = math.cos(q[0] + q[3])
            return np.array([
                [1.0 + 0.3 * a, 0.2 * b, 0.1 * a, 0.0],
                [0.2 * b, -0.5 + 0.1 * a, 0.05 * b, 0.1 * a],
                [0.1 * a, 0.05 * b, 0.4, 0.0],
                [0.0, 0.1 * a, 0.0, -0.2 + 0.2 * b],
            ]) / q[0] ** 2

        r = SymTensorField(chart, rmat, "r")
        Lr = L_at(h, r, P4, step=5e-4)

        def dq(s):
            gp = MetricField(chart, lambda q: chart.metric_at(q) + s * rmat(q))
            gm = MetricField(chart, lambda q: chart.metric_at(q) - s * rmat(q))
            return (Q_at(gp, h, P4, 5e-4) - Q_at(gm, h, P4, 5e-4)) / (2 * s)

        hp = h(P4)
        e_big = tensor_norm(hp, dq(0.1) - Lr)
        e_mid = tensor_norm(hp, dq(0.05) - Lr)
        assert math.log2(e_big / e_mid) > 1.9
        # at tiny s the agreement saturates at the stencil noise floor
        assert tensor_norm(hp, dq(1e-3) - Lr) < 2e-5


class TestDeTurck:
    def test_tau_equals_g(self):
        h = chart_metric(COLLAR4)
        om = deturck_field_at(h, h, P4)
        assert covector_norm(h(P4), om) < 1e-8

    def test_tau_scaled(self):
        chart = COLLAR4
        h = chart_metric(chart)
        tau = MetricField(chart, lambda q: 1.69 * chart.metric_at(q))
        om = deturck_field_at(h, tau, P4)
        assert covector_norm(h(P4), om) < 1e-8

    def test_generic_matches_bruteforce(self):
        chart = COLLAR4
        h = chart_metric(chart)

        def taumat(q):
            return chart.metric_at(q) * (1 + 0.05 * math.sin(q[0]) * math.cos(q[1]))

        tau = MetricField(chart, taumat, "tau")
        got = deturck_field_at(h, tau, P4)

        # brute-force oracle: spell out g tau^{-1} delta_g(G_g tau) from raw
        # partial derivatives and Christoffel corrections
        step = 1e-3
        hs = coordinate_steps(h, P4, step)
        gam = christoffels_at(h, P4, step)
        hp = h(P4)
        hinv = np.linalg.inv(hp)

        def G(q):
            t = taumat(q)
            return t - 0.5 * float(np.trace(np.linalg.inv(h(q)) @ t)) * h(q)

        dG = np.stack([
            (G(_sh(P4, a, hs[a])) - G(_sh(P4, a, -hs[a]))) / (2 * hs[a])
            for a in range(4)
        ])
        G0 = G(P4)
        nabG = (
            dG
            - np.einsum("mki,mj->kij", gam, G0)
            - np.einsum("mkj,im->kij", gam, G0)
        )
        div = -np.einsum("ki,kij->j", hinv, nabG)
        want = hp @ np.linalg.inv(taumat(P4)) @ div
        assert covector_norm(hp, got - want) < 1e-8

    def test_difference_tensor(self):
        chart = COLLAR4
        h = chart_metric(chart)
        g = MetricField(chart, lambda q: 1.21 * chart.metric_at(q), "c2h")
        A = _difference_tensor_at(g, h, P4)
        assert np.abs(A).max() < 1e-6
        gen = MetricField(
            chart,
            lambda q: chart.metric_at(q) * (1 + 0.1 * math.sin(q[1] + q[0])),
            "g",
        )
        A2 = _difference_tensor_field(gen, h)(P4)
        A2_ref = christoffels_at(h, P4) - christoffels_at(gen, P4)
        assert np.abs(A2 - A2_ref).max() < 1e-5
        assert np.abs(A2 - A2.transpose(0, 2, 1)).max() < 1e-12


class TestJetKernel:
    """One stencil per field and operator: exact on quadratics, and the
    number of metric evaluations per operator stays flat."""

    @staticmethod
    def _quadratic(seed=0, n=4):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n, n))
        a = rng.standard_normal((n, n, n, n))
        a = 0.5 * (a + a.transpose(1, 0, 2, 3))  # a[k, l] symmetric Hessian
        c = c @ c.T + n * np.eye(n)

        def ev(q):
            return c + np.einsum("k,kij->ij", q, b) + 0.5 * np.einsum(
                "k,l,klij->ij", q, q, a)

        def grad(q):
            return b + np.einsum("l,klij->kij", q, a)

        return ev, grad, a

    @staticmethod
    def _quadratic_jet(ev, points=P4):
        """ev's jet at the points, sampled with the steps of the Euclidean
        collar's metric (step 0.05) on the stencil of all four coordinates."""
        return tensorcalc._metric_jets(chart_metric(COLLAR4), points, 0.05, ev)[1]

    def test_exact_on_quadratic_components(self):
        ev, grad, hess = self._quadratic()
        f0, d, dd = self._quadratic_jet(ev)
        assert np.abs(f0 - ev(P4)).max() == 0.0
        assert np.abs(d - grad(P4)).max() < 1e-9 * np.abs(grad(P4)).max()
        assert np.abs(dd - hess).max() < 1e-9 * np.abs(hess).max()

    def test_inverse_jet(self):
        ev, grad, _ = self._quadratic(seed=1)
        jet = self._quadratic_jet(ev)
        inv = np.linalg.inv(ev(P4))
        ijet = tensorcalc._jinv(jet)
        want = -np.einsum("ij,ajk,kl->ail", inv, grad(P4), inv)
        assert np.abs(ijet[0] - inv).max() == 0.0
        assert np.abs(ijet[1] - want).max() < 1e-9 * np.abs(want).max()
        # M M^{-1} = I to first order: the derivative vanishes
        one = tensorcalc._jeinsum("ij,jk->ik", jet, ijet)
        assert len(ijet) == len(one) == 2
        assert np.abs(one[0] - np.eye(4)).max() < 1e-12
        assert np.abs(one[1]).max() < 1e-9

    def test_metric_evaluations_per_operator(self, metric_points):
        # one stencil per operator, along the leading coordinates of its
        # widest field: all 33 points at n = 4 for a field that declares no
        # count, and 3 for the Euclidean collar's metric alone, which
        # varies in rho only; with both, the metric is sampled on the 33
        chart = COLLAR4
        h = chart_metric(chart)
        assert h.stepped == 1
        g = MetricField(
            chart,
            lambda q: chart.metric_at(q) * (1 + 0.1 * math.sin(q[1] + q[0])),
            "g",
        )
        Q_at(g, h, P4)
        assert metric_points[0] == 33 + 33
        metric_points[0] = 0
        ricci_at(h, P4)
        assert 3 <= metric_points[0] <= 5

    def test_one_field_type(self):
        assert MetricField is SymTensorField is tensorcalc.Tensor3Field

    @pytest.mark.parametrize("count", [0, 5, -1])
    def test_count_outside_the_coordinates_raises(self, count):
        # a count of zero would give zero jets, one above n an index error
        with pytest.raises(ValueError, match="'bad' declares .* 1..4"):
            MetricField(COLLAR4, COLLAR4.metric_at, "bad", count)

    @pytest.mark.parametrize("points", [P4, np.array([P4 + 0.01 * k for k in range(7)])],
                             ids=["point", "array"])
    @pytest.mark.parametrize("field", [
        chart_metric(COLLAR4),
        lambda q: np.sin(q[0] + q[1] * q[2]) + q[3] ** 3,
        lambda q: np.outer(q, q) * np.exp(q[0]),
    ], ids=["metric", "scalar", "matrix"])
    def test_vectorized_jet_equals_the_coordinate_loop(self, field, points):
        # both fields of a pass, the stepping metric's and the further
        # field's, against the per-coordinate loop on the stencil along the
        # wider of their counts
        g = chart_metric(COLLAR4)
        hs = coordinate_steps(g, points, 0.05)
        d = max(tensorcalc._stepped(f, 4) for f in (g, field))
        got = tensorcalc._metric_jets(g, points, 0.05, field)
        for f, jet in zip((g, field), got):
            want = _reference_jet(f, points, hs, d)
            assert all(map(_same_bits, jet, want))

    def test_metric_jets_evaluate_g_at_p_once(self):
        # per pass: each field once on its points (g's values give the
        # steps) and once on the 32 offset points.  BATCH_CAP + 5 points
        # run in two balanced passes, the first one point longer
        rows = {"g": [], "t": []}

        def counted(label, scale):
            @batched
            def ev(q):
                rows[label].append(len(np.atleast_2d(q)))
                return COLLAR4.metric_at(q) * scale
            return MetricField(COLLAR4, ev, label)

        g, t = counted("g", 1.0), counted("t", 1.1)
        points = np.array([P4 + [0.001 * k, 0, 0, 0] for k in range(BATCH_CAP + 5)])
        a, b = (BATCH_CAP + 6) // 2, (BATCH_CAP + 5) // 2
        assert a == b + 1
        Q_at(g, g, points)
        assert rows["g"] == [a, 32 * a, b, 32 * b]
        rows["g"].clear()
        Q_at(g, t, points)
        assert rows["g"] == rows["t"] == [a, 32 * a, b, 32 * b]
        rows["g"].clear()
        tensorcalc._metric_jets(g, P4, 1e-3)
        assert rows["g"] == [1, 32]


def _reference_jet(field, p, h, d, f0=None):
    """The per-coordinate loop that the vectorized stencil differences
    replace: the 2-jet of a field from the stencil along the first d
    coordinates (the centre, +e_i, -e_i, then the four mixed points of each
    pair i < j), with zeros along the later ones; f0, the values at p when
    given, is not evaluated again."""
    p, h = np.asarray(p, dtype=float), np.asarray(h, dtype=float)
    n, lead = p.shape[-1], p.ndim - 1
    eye = np.eye(n)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    offsets = np.array([np.zeros(n), *eye[:d], *-eye[:d],
                        *(si * eye[i] + sj * eye[j] for i, j in pairs
                          for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)))])
    points = p[..., None, :] + offsets * h[..., None, :]
    vals = at_points(field, points.reshape(-1, n))
    vals = np.moveaxis(vals.reshape(points.shape[:-1] + vals.shape[1:]), lead, 0)
    f0 = vals[0] if f0 is None else f0
    fp, fm = vals[1:d + 1], vals[d + 1:2 * d + 1]
    tail = (None,) * (f0.ndim - lead)

    def hh(i):
        return h[(..., i) + tail]

    zero = np.zeros(f0.shape)
    d1 = np.stack([(fp[i] - fm[i]) / (2.0 * hh(i)) if i < d else zero
                   for i in range(n)], axis=lead)
    rows = [[zero] * n for _ in range(n)]
    for i in range(d):
        rows[i][i] = (fp[i] - 2.0 * f0 + fm[i]) / hh(i) ** 2
    for k, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = vals[2 * d + 1 + 4 * k:2 * d + 5 + 4 * k]
        rows[i][j] = rows[j][i] = (pp - pm - mp + mm) / (4.0 * hh(i) * hh(j))
    d2 = np.stack([np.stack(row, axis=lead) for row in rows], axis=lead)
    return f0, d1, d2


def _per_field_jets(g, p, step, *fields):
    """The sampler the single stencil replaced, kept as an oracle: steps
    from g at the points, then each field differenced on the stencil along
    its own leading coordinates (a field identical to g reuses g's jet)."""
    n, g0 = g.chart.n, g(p)
    h = coordinate_steps(g, p, step, g0)
    G = _reference_jet(g, p, h, tensorcalc._stepped(g, n), g0)
    return (G,) + tuple(G if f is g else
                        _reference_jet(f, p, h, tensorcalc._stepped(f, n))
                        for f in fields)


def _product_rule_specs(spec):
    """A contraction and the ones `_jeinsum` forms from it by the product
    rule (derivative letters Y, Z lead the differentiated operands)."""
    ins, out = spec.split("->")
    x, y = ins.split(",")
    return [spec, f"Y{x},{y}->Y{out}", f"{x},Y{y}->Y{out}",
            f"YZ{x},{y}->YZ{out}", f"{x},YZ{y}->YZ{out}", f"Y{x},Z{y}->YZ{out}"]


def _nabla_specs(rank):
    idx = "abc"[:rank]
    return [f"mk{i},{idx[:s]}m{idx[s + 1:]}->k{idx}" for s, i in enumerate(idx)]


# every contraction of the jet algebra: the `_jeinsum` bases, each with the
# forms the product rule makes from it, then the direct `_contract` calls on
# jet values
JET_BASES = [
    "kl,lij->kij", "ki,kij->j", "kl,kl->",
    ",ij->ij",  # the trace-reversal oracle of TestSecondOrderOracle
    "ij,j->i", "ij,jk->ik",
    "ij,kij->k", "kl,l->k",  # the DeTurck covector of Q(g, t)
    *(x for r in range(4) for x in _nabla_specs(r)),
]
DIRECT_SPECS = [
    # only the reference operators use these five: curvature, difference
    # tensor, Lichnerowicz
    "lim,mjk->lkij", "ljm,mik->lkij", "lm,mkij->ijkl", "pm,ijm->pij",
    "kijl,kl->ij",
    "lk,lk->", "lk,lkab->ab",  # rough Laplacians of a scalar and a 2-tensor
    "m,mji->ij", "kjm,mki->ij",  # Ricci
    "akl,bkl->ab", "bkm,ml->bkl", "kl,abkl->ab", "abkl,kl->ab",  # tr_g t
]
JET_SPECS = sorted({*(s for base in JET_BASES for s in _product_rule_specs(base)),
                    *DIRECT_SPECS})


class TestContraction:
    """`_contract` is np.einsum as one stacked matrix product."""

    @pytest.mark.parametrize("batch", [(), (7,), (5, 3)],
                             ids=["point", "points", "grid"])
    @pytest.mark.parametrize("spec", JET_SPECS)
    def test_equals_einsum(self, spec, batch, rng):
        ins, out = spec.split("->")
        x, y = (np.asarray(rng.standard_normal(batch + (4,) * len(s)))
                for s in ins.split(","))
        full = ",".join("..." + s for s in ins.split(",")) + "->..." + out
        got = tensorcalc._contract(spec, x, y)
        want = np.einsum(full, x, y)
        scale = np.einsum(full, np.abs(x), np.abs(y))
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-13 * scale).all()

    def test_every_spec_of_the_operators_is_covered(self, monkeypatch):
        # record the contractions the operators, the reference operators and
        # the grid covariant derivative really make: each is listed, and
        # each listed base and direct contraction is made
        from cusplab import solver

        seen = set()
        contract = tensorcalc._contract

        def recorded(spec, x, y):
            seen.add(spec)
            return contract(spec, x, y)

        monkeypatch.setattr(tensorcalc, "_contract", recorded)
        h = chart_metric(COLLAR4)
        g = MetricField(COLLAR4, lambda q: COLLAR4.metric_at(q)
                        * (1 + 0.1 * math.sin(q[1])), "g")
        w = MetricField(COLLAR4, lambda q: np.array([1.0, q[1], q[2] ** 2, q[0]]))
        for op in (Q_at, L_at, _lichnerowicz_at, _difference_tensor_at,
                   _rough_laplacian_tensor_at, _lichnerowicz_hyperbolic_at,
                   _bianchi_ops_at, deturck_field_at, _divergence_at):
            op(g, h, P4)
        _riemann_at(g, P4)
        laplacian_scalar_at(g, lambda q: q[1] ** 2, P4)
        _deltastar_at(g, w, P4)
        grid = solver.collar_grid(COLLAR4, 0.05, nodes=12)
        u = np.random.default_rng(0).standard_normal(grid.shape + (4, 4))
        solver._covariant_derivative(grid, solver._covariant_derivative(grid, u))
        G, T = tensorcalc._metric_jets(g, P4, DEFAULT_STEP, h)
        _trace_reversal(_inverse_2jet(G), G, T)
        assert "mkc,abm->kabc" in seen and seen <= set(JET_SPECS)
        assert sorted({*JET_BASES, *DIRECT_SPECS} - seen) == []


# The tracemalloc peak of one Q(g_3, g_1) call on the 234-point extraction
# set, declared so that the passes cannot grow unnoticed: it reads 2.23 MB
# in two 117-point passes (BATCH_CAP = 128), 4.4 MB in one 234-point pass
# and 0.96 MB in 48-point passes.
PASS_PEAK_BYTES = 2_500_000


@pytest.fixture(scope="module")
def ladders():
    """seed -> (the 3-stage ladder at n = 4, the 39 y x 6 rho extraction
    points of its correction steps), for seeds 1 and 3."""
    from cusplab.expansion import (DEFAULT_EXTRACTION_RHOS, S_map,
                                   _extraction_grid, _grid_points,
                                   seeded_boundary_data)

    out = {}
    for seed in (1, 3):
        bd = seeded_boundary_data(Chart.collar(4, h_u="round_sphere"),
                                  seed=seed, amplitude=0.05)
        _, _, ys = _extraction_grid(bd)
        out[seed] = (S_map(bd, stages=3),
                     _grid_points(DEFAULT_EXTRACTION_RHOS, ys).reshape(-1, 4))
    return out


@pytest.fixture(scope="module")
def extraction_set(ladders):
    """Stages 1 and 3 of the seed-3 ladder at n = 4 and the 39 y x 6 rho
    extraction points of its correction steps."""
    (g1, _, g3), points = ladders[3]
    return g1, g3, points


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _interior_points(chart, count, rng):
    """count points in the middle of the chart's finite coordinate ranges,
    and in (-0.8, 0.8) on the unbounded ones."""
    pts = rng.uniform(-0.8, 0.8, (count, chart.n))
    for i, (lo, hi) in enumerate(chart.coordinate_ranges()):
        if math.isfinite(lo) and math.isfinite(hi):
            pts[:, i] = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo),
                                    count)
    return pts


# the maximal cusp is the cusp family of rank n - 1
EVERY_KIND = [
    Chart.intermediate_cusp(4, 1), Chart.intermediate_cusp(4, 2),
    Chart.intermediate_cusp(5, 1), COLLAR4,
    Chart.collar(4, h_u="round_sphere"), Chart.upper_half_space(4, 1),
    Chart.upper_half_space(4, 2), Chart.maximal_cusp(4),
]


def _every_kind(n):
    return ([Chart.intermediate_cusp(n, f) for f in range(1, n - 1)]
            + [Chart.collar(n), Chart.collar(n, h_u="round_sphere")]
            + [Chart.upper_half_space(n, f) for f in range(1, n)])


def _chart_id(chart):
    """The chart's kind, n and f."""
    return f"{chart.kind}-{chart.n}-{chart.f}"


class TestStepped:
    """A field's stencil steps along the leading coordinates it counts, and
    its jet is the full stencil's, bit for bit; the two-slot Q forms its
    gauge covector from the Christoffel difference, and agrees with the
    divergence route of `Q_gauge_at`."""

    @pytest.mark.parametrize("chart", EVERY_KIND, ids=_chart_id)
    def test_chart_metric_jet_equals_the_full_stencil(self, chart, rng):
        h = chart_metric(chart)
        assert h.stepped == chart.metric_stepped < chart.n
        full = MetricField(chart, chart.metric_at, "full")
        points = _interior_points(chart, 9, rng)
        (want,) = tensorcalc._metric_jets(full, points, DEFAULT_STEP)
        (got,) = tensorcalc._metric_jets(h, points, DEFAULT_STEP)
        assert all(map(_same_bits, got, want))
        # sampled on the full stencil beside a field that counts every
        # coordinate, the metric's jet is the same bits again
        beside = tensorcalc._metric_jets(h, points, DEFAULT_STEP, full)
        assert all(_same_bits(a, b) for jet in beside for a, b in zip(jet, want))
        # along the coordinates after its count the full stencil differences
        # equal values, and its derivatives there are exact zeros
        d = h.stepped
        assert not want[1][:, d:].any() and not want[2][:, d:].any()

    def test_ladder_jet_equals_the_full_stencil(self, extraction_set):
        _, g3, points = extraction_set
        assert g3.stepped == 3
        assert tensorcalc.stencil_of(g3) == (3, 19)
        full = MetricField(g3.chart, g3, "full")
        assert tensorcalc.stencil_of(full) == (4, 33)
        (want,) = tensorcalc._metric_jets(full, points, 5e-4)
        (got,) = tensorcalc._metric_jets(g3, points, 5e-4)
        assert all(map(_same_bits, got, want))

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("stage", [2, 3])
    def test_two_slot_Q_equals_the_divergence_route(self, ladders, seed, stage):
        # Q(g_j, g_1) with omega from Gamma(g_j) - Gamma(g_1), against
        # Rc + (n - 1) g - the gauge term through delta_g(G_g t), to 1e-12
        # of the largest term, in the h-norm
        stages, points = ladders[seed]
        g, g1 = stages[stage - 1], stages[0]
        h0 = g.chart.metric_at(points)
        ric, gauge = ricci_at(g, points, 5e-4), Q_gauge_at(g, g1, points, 5e-4)
        terms = (ric, 3.0 * g(points), gauge)
        want = terms[0] + terms[1] - terms[2]
        scale = max(tensor_norm(h0, x).max() for x in terms)
        gap = tensor_norm(h0, Q_at(g, g1, points, 5e-4) - want).max()
        assert gap <= 1e-12 * scale


class TestOneSampler:
    """The one sampler gives the bits of the per-field sampler it replaced
    (`_per_field_jets`) where the two differ in what they sample: a chart
    metric beside a field that counts every coordinate is now sampled on
    that field's wider stencil."""

    @staticmethod
    def _wide_fields(chart):
        """A pointwise scalar, a batched symmetric 2-tensor and a batched
        metric, each varying in every coordinate and declaring no count."""
        def u(q):
            return math.sin(q[0] + 0.3 * q[-1]) + 0.2 * q[1] * q[-1]

        @batched
        def r(q):
            q = np.asarray(q)
            t = np.sin(q[..., :, None] + 0.5 * q[..., None, :])
            return t + np.swapaxes(t, -1, -2)

        @batched
        def t(q):
            q = np.asarray(q)
            wave = 1.0 + 0.1 * np.sin(q[..., 0] + q[..., -1])
            return chart.metric_at(q) * wave[..., None, None]

        return u, MetricField(chart, r, "r"), MetricField(chart, t, "t")

    @pytest.mark.parametrize("chart", _every_kind(4) + _every_kind(5),
                             ids=_chart_id)
    def test_operators_give_the_per_field_samplers_bits(self, chart, rng,
                                                        monkeypatch):
        h = chart_metric(chart)
        u, r, t = self._wide_fields(chart)
        points = _interior_points(chart, 4, rng)
        ops = {
            "laplacian(h, u)": lambda: laplacian_scalar_at(h, u, points),
            "L(h, r)": lambda: L_at(h, r, points),
            "Q(h, t)": lambda: Q_at(h, t, points),
            "Q(t, h)": lambda: Q_at(t, h, points),
            "Q_gauge(h, t)": lambda: Q_gauge_at(h, t, points),
        }
        got = {name: op() for name, op in ops.items()}
        monkeypatch.setattr(tensorcalc, "_metric_jets", _per_field_jets)
        for name, op in ops.items():
            assert _same_bits(got[name], op()), name


class TestPointSets:
    """A point set is the stack of its one-point values, in balanced passes
    of at most BATCH_CAP points, and a bad point fails the set as it fails
    alone."""

    @pytest.mark.parametrize("size", [1, 17, 117, 234])
    @pytest.mark.parametrize("op", ["Q(g_3, g_1)", "L(h, g_3)", "Rc(g_3)"])
    def test_values_do_not_depend_on_the_passes(self, extraction_set,
                                                monkeypatch, op, size):
        # the set in its own passes (two of 117 points) against pieces of
        # `size` consecutive points, each in one pass, concatenated: the
        # same bits.  Q(g_3, g_1) takes the shared-ladder path
        g1, g3, points = extraction_set
        assert len(points) == 234
        assert tensorcalc._joint(g3, (g1,)) is not None
        h = chart_metric(g1.chart)
        f = {"Q(g_3, g_1)": lambda p: Q_at(g3, g1, p, 5e-4),
             "L(h, g_3)": lambda p: L_at(h, g3, p),
             "Rc(g_3)": lambda p: ricci_at(g3, p)}[op]
        whole = f(points)
        monkeypatch.setattr(tensorcalc, "BATCH_CAP", len(points))
        pieces = np.concatenate([f(points[i:i + size])
                                 for i in range(0, len(points), size)])
        assert np.array_equal(pieces, whole)

    def test_heap_peak_of_the_extraction_set(self, extraction_set):
        g1, g3, points = extraction_set
        Q_at(g3, g1, points, 5e-4)  # contraction plans built
        tracemalloc.start()
        try:
            Q_at(g3, g1, points, 5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PASS_PEAK_BYTES

    def test_batched_operators_equal_one_point_calls(self):
        from cusplab.expansion import (DEFAULT_EXTRACTION_RHOS, T_map,
                                       _grid_points, correction_step,
                                       seeded_boundary_data)

        chart = Chart.collar(4, h_u="round_sphere")
        bd = seeded_boundary_data(chart, seed=3)
        g1 = T_map(bd)
        g2 = correction_step(g1, g1)
        h = chart_metric(chart)
        # the 41 y x 6 rho extraction grid of a correction step (246 points)
        ys = np.tile(bd._reference_y(), (41, 1))
        lo, hi = bd.y_support
        ys[:, 0] = np.linspace(lo - 0.02 * (hi - lo), hi + 0.02 * (hi - lo), 41)
        points = _grid_points(DEFAULT_EXTRACTION_RHOS, ys).reshape(-1, 4)
        assert len(points) > BATCH_CAP
        for op in (lambda p: Q_at(g2, g1, p, 5e-4),
                   lambda p: L_at(h, g2, p),
                   lambda p: ricci_at(g1, p)):
            batch = op(points)
            single = np.array([op(p) for p in points])
            assert batch.shape == single.shape == (len(points), 4, 4)
            scale = np.abs(single).max(axis=(1, 2))
            err = np.abs(batch - single).max(axis=(1, 2))
            assert (err <= 1e-12 * scale).all()

    @pytest.mark.parametrize("field, bad, error", [
        # a point outside the chart
        (chart_metric(COLLAR4), [-0.2, 0.2, -0.1, 0.3], ChartDomainError),
        # a stencil that leaves the chart
        (flat_field(), [1e-4, 0.2, -0.1, 0.3], StencilError),
        # a nonpositive metric diagonal
        (MetricField(COLLAR4, lambda q: np.diag([1.0, 1.0, 1.0,
                                                 1.0 if q[1] < 0.5 else -1.0])),
         [0.4, 0.7, -0.1, 0.3], StencilError),
    ], ids=["outside", "stencil", "diagonal"])
    def test_bad_point_in_a_batch_fails_as_it_fails_alone(self, field, bad,
                                                          error):
        points = np.tile(P4, (60, 1))
        points[50] = bad
        with pytest.raises(error) as alone:
            Q_at(field, field, points[50])
        with pytest.raises(error) as batch:
            Q_at(field, field, points)
        assert type(batch.value) is type(alone.value)
        assert str(batch.value) == str(alone.value)
        assert str(points[50]) in str(batch.value)

    @pytest.mark.parametrize("op", [
        lambda g, t, p: christoffels_at(g, p),
        lambda g, t, p: ricci_at(g, p),
        lambda g, t, p: _riemann_at(g, p),
        _difference_tensor_at,
        lambda g, t, p: laplacian_scalar_at(g, batched(lambda q: q[:, 1] ** 2), p),
        _rough_laplacian_tensor_at,
        _lichnerowicz_at,
        _lichnerowicz_hyperbolic_at,
        _divergence_at,
        lambda g, t, p: _deltastar_at(g, batched(lambda q: q ** 2), p),
        _bianchi_ops_at,
        Q_gauge_at,
        Q_at,
        lambda g, t, p: Q_at(g, g, p),
        L_at,
        deturck_field_at,
    ], ids=["christoffels", "ricci", "riemann", "difference_tensor",
            "laplacian_scalar", "rough_laplacian_tensor", "lichnerowicz",
            "lichnerowicz_hyperbolic", "divergence", "deltastar", "bianchi_ops",
            "Q_gauge", "Q", "Q(g, g)", "L", "deturck_field"])
    def test_empty_point_set(self, op):
        # array-native fields give the (0, ...) stack of the values; a
        # pointwise field has none to stack and names the empty set
        h = chart_metric(COLLAR4)
        g = MetricField(COLLAR4, batched(lambda q: 1.1 * COLLAR4.metric_at(q)), "g")
        one, empty = (op(g, h, p) for p in (P4[None], np.empty((0, 4))))
        if not isinstance(one, tuple):
            one, empty = (one,), (empty,)
        assert [x.shape for x in empty] == [(0,) + x.shape[1:] for x in one]
        pointwise = MetricField(COLLAR4, lambda q: 1.1 * COLLAR4.metric_at(q), "g")
        with pytest.raises(ValueError, match=r"empty point set of shape \(0, 4\)"):
            op(pointwise, h, np.empty((0, 4)))


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestSecondOrderOracle:
    """The trace identity and the direct Ricci contraction agree with the
    routes they replace to 1e-12, relative to each array's largest entry."""

    @staticmethod
    def _symmetric_field(chart):
        # a symmetric 2-tensor field with no definite sign
        @batched
        def ev(q):
            a = np.sin(2 * q[:, 1]) * np.cos(q[:, 2])
            b = np.cos(q[:, 0] + q[:, 3])
            z = np.zeros_like(a)
            m = np.array([[1 + 0.3 * a, 0.2 * b, 0.1 * a, z],
                          [0.2 * b, -0.5 + 0.1 * a, 0.05 * b, 0.1 * a],
                          [0.1 * a, 0.05 * b, 0.4 + z, z],
                          [z, 0.1 * a, z, -0.2 + 0.2 * b]])
            return np.moveaxis(m, (0, 1), (-2, -1)) / q[:, 0, None, None] ** 2
        return MetricField(chart, ev, "r")

    @pytest.mark.parametrize("slot", ["g_1", "r"])
    def test_trace_jet_and_gauge_covector(self, extraction_set, slot):
        g1, g3, points = extraction_set
        t = g1 if slot == "g_1" else self._symmetric_field(g1.chart)
        G, T = tensorcalc._metric_jets(g3, points, 5e-4, t)
        Ginv, Ginv2 = tensorcalc._jinv(G), _inverse_2jet(G)
        got = tensorcalc._g_trace_jet(Ginv, G, T)
        want = tensorcalc._jeinsum("kl,kl->", Ginv2, T)
        assert len(got) == len(want) == 3
        assert all(_relative_gap(a, b) <= 1e-12 for a, b in zip(got, want))
        gam = tensorcalc._christoffel(G, Ginv)
        got = tensorcalc._reversed_divergence(
            Ginv, G, T, tensorcalc._divergence(Ginv, gam, T))
        want = tensorcalc._divergence(Ginv, gam, _trace_reversal(Ginv2, G, T))
        assert len(got) == len(want) == 2
        assert all(_relative_gap(a, b) <= 1e-12 for a, b in zip(got, want))
        if slot == "g_1":
            # the gauge covector omega = g t^{-1} delta_g(G_g t)
            omega = deturck_field_at(g3, t, points, 5e-4)
            want = G[0] @ np.linalg.inv(T[0]) @ want[0][..., None]
            assert _relative_gap(omega, want[..., 0]) <= 1e-12

    @pytest.mark.parametrize("field", ["g_3", "h"])
    def test_ricci_is_the_trace_of_the_curvature(self, extraction_set, field):
        g1, g3, points = extraction_set
        g = g3 if field == "g_3" else chart_metric(g1.chart)
        (G,) = tensorcalc._metric_jets(g, points, 5e-4)
        gam = tensorcalc._christoffel(G)
        want = tensorcalc._sym(np.einsum("...kikj->...ij",
                                         _riemann_up(gam)))
        assert _relative_gap(tensorcalc._ricci(gam), want) <= 1e-12
