import math

import numpy as np
import pytest

from cusplab.charts import POLE_MARGIN, Chart, batched, diagonal_matrices
from cusplab.expansion import (
    BoundaryData,
    CharacteristicExponentHit,
    ExpansionMetric,
    PositivityError,
    S_map,
    T_map,
    _SplineCoefficient,
    _embed_tangential,
    _fit_leading_coefficient,
    _grid_points,
    correction_step,
    decompose_types,
    gauge_term_norm,
    indicial_blocks,
    plateau_bump,
    recompose_types,
    seeded_boundary_data,
    stage_slope,
    vanishing_order,
)
from cusplab.tensorcalc import L_at, SymTensorField, chart_metric
from cusplab.weights import indicial_roots

ROUND = Chart.collar(4, h_u="round_sphere")
FLAT = Chart.collar(4)


@pytest.fixture(scope="module")
def bdata():
    return seeded_boundary_data(ROUND, seed=3, amplitude=0.05)


@pytest.fixture(scope="module")
def ladder(bdata):
    return S_map(bdata, stages=3)


@pytest.fixture
def background_sets(monkeypatch):
    """The point sets, as bytes, of every Q(h, h) evaluation of the
    expansion module, one entry per evaluation."""
    from cusplab import expansion

    sets = []
    q_at = expansion.Q_at

    def recorded(g, t, p, *args):
        if g is t and getattr(g, "eval", None) == g.chart.metric_at:
            sets.append(np.asarray(p).tobytes())
        return q_at(g, t, p, *args)

    monkeypatch.setattr(expansion, "Q_at", recorded)
    return sets


def zero_data(chart=ROUND):
    bd = seeded_boundary_data(chart, seed=0, amplitude=0.05)
    return BoundaryData(chart=chart, qhat=lambda t: np.zeros(np.shape(t) + (3, 3)),
                        psi_y=bd.psi_y, y_support=bd.y_support)


def extension(bd):
    """The extension E of the perturbed boundary metric: rho^2 times the
    stage-1 metric T_map(bd)."""
    g1 = T_map(bd)
    return lambda p: p[0] ** 2 * g1(p)


def mid_point(bd, rho=0.2, dy=0.0):
    y = bd._reference_y()
    y[0] = 0.5 * (bd.y_support[0] + bd.y_support[1]) + dy
    return np.concatenate(([rho], y))


class TestExtension:
    def test_zero_data_returns_compactified_metric(self, bdata):
        bd0 = zero_data()
        E = extension(bd0)
        p = mid_point(bd0)
        assert np.allclose(E(p), p[0] ** 2 * ROUND.metric_at(p), atol=1e-14)

    def test_coordinate_form_is_tangential(self, bdata):
        E = extension(bdata)
        p = mid_point(bdata)
        y = p[1:]
        diff = E(p) - extension(zero_data())(p)
        # psi = 1 here, so the difference is exactly the tangential block
        assert np.allclose(diff[1:, 1:], bdata.qhat(y[0]), atol=1e-14)
        assert diff[0, 0] == 0.0
        assert np.abs(diff[0, 1:]).max() == 0.0

    def test_support_of_extension(self, bdata):
        E = extension(bdata)
        Ez = extension(zero_data())
        y_out = bdata._reference_y()
        y_out[0] = bdata.y_support[1] + 0.05
        p = np.concatenate(([0.2], y_out))
        assert np.allclose(E(p), Ez(p))

    def test_positivity_guard(self):
        bd = seeded_boundary_data(ROUND, seed=1, amplitude=0.05)

        def negative(t):
            return -10.0 * np.ones(np.shape(t) + (1, 1)) * np.eye(3)

        with pytest.raises(PositivityError):
            BoundaryData(chart=ROUND, qhat=negative,
                         psi_y=bd.psi_y, y_support=bd.y_support).validate()

    @pytest.mark.parametrize("qhat", [
        lambda y: np.zeros((3, 3)),  # one tangential point
        lambda y: np.zeros(np.shape(y)[:-1] + (3, 3)),  # rows of points
    ], ids=["one-point", "point-rows"])
    def test_qhat_of_tangential_points_refused(self, qhat):
        # qhat is a function of t = y_1 alone: on an array of t it returns
        # one matrix per entry
        bd = seeded_boundary_data(ROUND, seed=1, amplitude=0.05)
        with pytest.raises(ValueError, match=r"^qhat must map an array of "
                           r"t = y_1 values of shape \(25,\) to shape "
                           r"\(25, 3, 3\), got shape \(3, 3\)$"):
            BoundaryData(chart=ROUND, qhat=qhat, psi_y=bd.psi_y,
                         y_support=bd.y_support).validate()


class TestBaseLine:
    """The ladder's line runs through the chart's base point: the tangential
    base point `_reference_y` keeps its values (the middle of each finite
    range, 0.3 on an unbounded one), and `line(t)` moves its y_1 alone."""

    @pytest.mark.parametrize("chart, want", [
        (ROUND, [0.5 * (POLE_MARGIN + (math.pi - POLE_MARGIN))] * 2 + [0.3]),
        (Chart.upper_half_space(4, 1), [0.3, 0.3, 0.3]),
    ], ids=["round_sphere", "upper_half_space-4-1"])
    def test_reference_y_keeps_its_values(self, chart, want):
        bd = BoundaryData(chart, qhat=lambda t: np.zeros(np.shape(t) + (3, 3)),
                          psi_y=np.ones_like, y_support=(-0.15, 0.75))
        assert np.array_equal(bd._reference_y(), want)
        t = np.array([0.1, 0.3, 0.55])
        ys = bd.line(t)
        assert np.array_equal(ys[:, 0], t)
        assert np.array_equal(ys[:, 1:], np.tile(want[1:], (3, 1)))


class TestConformalRescaling:
    def test_zero_data_gives_background(self):
        g1 = T_map(zero_data())
        p = mid_point(zero_data())
        assert np.allclose(g1(p), ROUND.metric_at(p), atol=1e-14)

    def test_boundary_recovery(self, bdata):
        g1 = T_map(bdata)
        y = mid_point(bdata)[1:]
        target = np.zeros((4, 4))
        target[0, 0] = 1.0
        target[1:, 1:] = bdata.hhat(y) + bdata.qhat(y[0])
        defects = []
        for rho in (1e-2, 1e-3):
            p = np.concatenate(([rho], y))
            defects.append(np.abs(rho ** 2 * g1(p) - target).max())
        assert defects[0] < 5e-4
        # first-order convergence to the boundary representative
        assert defects[1] < 0.2 * defects[0]


def stencil_blocks(s, chart, step=1e-3):
    """Test oracle: the indicial blocks extracted from the finite-difference
    operator.  L_at is applied to rho^{s-2} times frozen component matrices
    of each type at the chart's base point, and the leading coefficient
    as rho -> 0 is fitted over five geometric samples.  Returns the 2x2
    block on (normal-normal, tangential trace / (n-1)) and the
    normal-tangential and trace-free scalars."""
    n = chart.n
    h = chart_metric(chart)
    y_ref = chart.reference_point[1:]
    hhat = np.diag(chart.h_u(0.0, y_ref))
    e_nn = np.zeros((n, n))
    e_nn[0, 0] = 1.0
    e_nt = np.zeros((n, n))
    e_nt[0, 1] = e_nt[1, 0] = 1.0
    tf = np.zeros((n - 1, n - 1))
    tf[0, 0], tf[1, 1] = hhat[0, 0], -hhat[1, 1]
    rhos = 0.05 * 0.5 ** np.arange(5)
    points = _grid_points(rhos, y_ref[None])[0]
    t = s - 2.0

    def leading(C):
        field = SymTensorField(
            chart, batched(lambda q: (q[..., 0] ** t)[..., None, None] * C))
        c0, resid, scale = _fit_leading_coefficient(
            rhos, L_at(h, field, points, step), t)
        assert resid / scale <= 1e-3
        return decompose_types(c0, hhat)

    a_nn, _, tau_nn, _ = leading(e_nn)
    a_tr, _, tau_tr, _ = leading(_embed_tangential(n, hhat))
    m2 = np.array([[a_nn, a_tr / (n - 1)], [tau_nn, tau_tr / (n - 1)]])
    mv = leading(e_nt)[1][0]
    tf_out = leading(_embed_tangential(n, tf))[3]
    mt = np.einsum("ij,ij->", tf_out, tf) / np.einsum("ij,ij->", tf, tf)
    return m2, float(mv), float(mt)


def oracle_gap(s, chart, step=1e-3):
    """Largest gap between the oracle's blocks and the closed forms."""
    m2, mv, mt = stencil_blocks(s, chart, step)
    closed = indicial_blocks(s, chart.n)
    return max(np.abs(m2 - closed.m2 * np.eye(2)).max(),
               abs(mv - closed.mv), abs(mt - closed.mt))


class TestIndicialStructure:
    # closed forms for the conformally flat model, lam(s) = -s(s - (n-1)):
    # trace direction (lam + 2(n-1))/2, normal-tangential (lam + n)/2,
    # tangential trace-free lam/2

    @pytest.mark.parametrize("s", [0.0, 0.7, 1.0, 2.0])
    def test_block_scalars_match_closed_forms(self, s):
        n = 4
        lam = -s * (s - (n - 1))
        blocks = indicial_blocks(s, n)
        assert blocks.m2 == pytest.approx(0.5 * (lam + 2 * (n - 1)), abs=1e-14)
        assert blocks.mv == pytest.approx(0.5 * (lam + n), abs=1e-14)
        assert blocks.mt == pytest.approx(0.5 * lam, abs=1e-14)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0, 3.5])
    @pytest.mark.parametrize("family", ["euclidean", "round_sphere"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_stencil_oracle_converges_to_closed_forms(self, n, family, s):
        # the gap is the stencil's O(step^2) error: halving the step cuts it
        # about 4x
        chart = Chart.collar(n, h_u=family)
        gap = oracle_gap(s, chart, 1e-3)
        assert gap <= 3e-5
        assert oracle_gap(s, chart, 5e-4) <= gap / 3

    def test_zero_exponent_acts_by_zeroth_order_constant_on_trace(self):
        # rho^0 times the metric is parallel, so only the constant term acts
        assert indicial_blocks(0.0, 4).m2 == 3.0
        m2, _, _ = stencil_blocks(0.0, FLAT)
        hdir = np.array([1.0, 3.0])
        assert m2 @ hdir == pytest.approx(3.0 * hdir, abs=2e-4)

    def test_trace_block_singular_at_matching_indicial_roots(self):
        # the pure-trace block reproduces the scalar exponents for the
        # shifted constant 2(n-1), in closed form and on the stencil
        n = 4
        for root in indicial_roots(2.0 * (n - 1), n):
            assert abs(indicial_blocks(root, n).m2) < 1e-14
            m2, _, _ = stencil_blocks(root, FLAT)
            assert np.abs(m2 @ np.array([1.0, n - 1.0])).max() < 5e-4

    def test_trace_free_block_singular_at_stage_cap(self):
        blocks = indicial_blocks(3.0, 4)  # s = n - 1
        assert blocks.mt == 0.0
        assert blocks.singular()

    @pytest.mark.parametrize("n", range(3, 9))
    def test_block_zeros_are_the_indicial_roots(self, n):
        for attr, K in (("m2", 2.0 * (n - 1)), ("mv", float(n)), ("mt", 0.0)):
            for root in indicial_roots(K, n):
                assert abs(getattr(indicial_blocks(root, n), attr)) < 1e-13
        assert indicial_roots(0.0, n) == (0.0, n - 1.0)
        assert indicial_roots(float(n), n) == (-1.0, float(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_integer_exponents_singular_exactly_at_n_minus_1_and_n(self, n):
        singular = [s for s in range(1, n + 1)
                    if indicial_blocks(float(s), n).singular()]
        assert singular == [n - 1, n]

    def test_vanishing_block_named(self, rng):
        R = rng.standard_normal((4, 4))
        R = R + R.T
        hhat = np.diag(FLAT.h_u(0.0, FLAT.reference_point[1:]))
        with pytest.raises(CharacteristicExponentHit,
                           match=r"^trace-free block \(K = 0\) vanishes at "
                                 r"s = 3 = n - 1$"):
            indicial_blocks(3.0, 4).solve(R, hhat)
        with pytest.raises(CharacteristicExponentHit,
                           match=r"^normal-tangential block \(K = 4\) "
                                 r"vanishes at s = 4 = n$"):
            indicial_blocks(4.0, 4).solve(R, hhat)
        assert indicial_blocks(2.0, 4).vanishing() is None

    def test_quadratic_dependence_on_exponent(self):
        # each block is (K - s(s - (n-1)))/2: quadratic in s with leading
        # coefficient -1/2 and constant K/2
        n = 4
        svals = np.array([0.3, 0.8, 1.3, 1.9, 2.6])
        blocks = [indicial_blocks(s, n) for s in svals]
        scalars = np.array([[b.m2, b.mv, b.mt] for b in blocks])
        V = np.vander(svals, 3, increasing=True)
        coef, *_ = np.linalg.lstsq(V, scalars, rcond=None)
        assert np.abs(V @ coef - scalars).max() < 1e-12
        assert coef[2] == pytest.approx([-0.5] * 3, abs=1e-12)
        assert coef[1] == pytest.approx([0.5 * (n - 1)] * 3, abs=1e-12)
        assert coef[0] == pytest.approx([n - 1, 0.5 * n, 0.0], abs=1e-12)

    def test_round_family_shares_the_scalars(self):
        flat = stencil_blocks(1.0, FLAT)
        round_ = stencil_blocks(1.0, ROUND)
        assert round_[0] == pytest.approx(flat[0], abs=2e-4)
        assert round_[1] == pytest.approx(flat[1], abs=2e-4)
        assert round_[2] == pytest.approx(flat[2], abs=2e-4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_stacked_solve_equals_one_matrix_at_a_time(self, n, rng):
        chart = Chart.collar(n, h_u="round_sphere")
        blocks = indicial_blocks(1.0, n)
        ys = np.tile(chart.reference_point[1:], (9, 1))
        ys[:, 0] += rng.uniform(-0.4, 0.4, 9)
        hhats = diagonal_matrices(chart.h_u(0.0, ys))
        R = rng.standard_normal((9, n, n))
        R = R + np.swapaxes(R, -1, -2)
        stacked = blocks.solve(R, hhats)
        one_at_a_time = np.array([blocks.solve(r, h) for r, h in zip(R, hhats)])
        assert np.array_equal(stacked, one_at_a_time)
        # the preimage maps back onto R under the indicial operator
        a, V, tau, tfree = decompose_types(stacked, hhats)
        back = recompose_types(blocks.m2 * a, blocks.mv * V, blocks.m2 * tau,
                               blocks.mt * tfree, hhats)
        assert np.allclose(back, R, rtol=1e-10, atol=1e-10)


def _cusp_coframe_field(chart, s, T):
    """u^s T on the maximal cusp, T constant in the coframe (du/u, u dz):
    its components are u^s a_i a_j T_ij with a = (1/u, u, ..., u)."""
    n = chart.n

    @batched
    def ev(q):
        u = q[..., 0, None]
        a = np.concatenate([1.0 / u, np.repeat(u, n - 1, axis=-1)], axis=-1)
        return (u[..., 0] ** s)[..., None, None] * (
            a[..., :, None] * a[..., None, :] * T)

    return SymTensorField(chart, ev, f"u^{s} T", 1)


def _cusp_coframe_block(n, block):
    """A frame tensor T of one indicial block at the maximal cusp."""
    T = np.zeros((n, n))
    if block == "normal-normal":
        T[0, 0] = 1.0
    elif block == "tangential-trace":
        T[1:, 1:] = np.eye(n - 1)
    elif block == "normal-tangential":
        T[0, 1] = T[1, 0] = 1.0
    else:
        T[1, 1], T[2, 2] = 1.0, -1.0
    return T


class TestMaximalCuspBlocks:
    """The maximal cusp is homogeneous in u, so L maps u^s T, T constant in
    the coframe (du/u, u dz), to itself times a block scalar: exactly the
    face's indicial block at -s (Mazzeo & Melrose 1987)."""

    SCALAR = {"normal-normal": "m2", "tangential-trace": "m2",
              "normal-tangential": "mv", "trace-free": "mt"}

    @pytest.mark.parametrize("block", list(SCALAR))
    @pytest.mark.parametrize("s", [-2.0, -1.0, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [4, 5])
    def test_blocks_are_the_face_blocks_at_minus_s(self, n, s, block):
        chart = Chart.maximal_cusp(n)
        field = _cusp_coframe_field(chart, s, _cusp_coframe_block(n, block))
        points = np.array([[u] + [0.3 - 0.1 * k for k in range(n - 1)]
                           for u in (0.2, 0.5, 0.8)])
        scalar = getattr(indicial_blocks(-s, n), self.SCALAR[block])
        got = L_at(chart_metric(chart), field, points, 1e-4)
        values = field(points)
        assert np.abs(got - scalar * values).max() <= 1e-5 * np.abs(values).max()


class TestSplineCoefficient:
    """The natural cubic spline of the correction coefficients equals
    scipy's CubicSpline, the reference it replaced, bit for bit."""

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("amplitude", [1e-8, 1e-3, 1.0, 10.0])
    def test_equals_scipy_natural_cubic_spline(self, n, amplitude, rng):
        interpolate = pytest.importorskip("scipy.interpolate")
        lo, hi = sorted(rng.uniform(-1.0, 2.0, 2))
        pad = 0.02 * (hi - lo)
        grid = np.linspace(lo - pad, hi + pad, 41)
        values = amplitude * rng.standard_normal((41, n, n))
        ours = _SplineCoefficient(grid, values, (lo, hi))
        reference = interpolate.CubicSpline(grid, values, axis=0,
                                            bc_type="natural")
        assert np.array_equal(
            ours.coefficients,
            np.moveaxis(reference.c, 0, 1).reshape(ours.coefficients.shape))
        t = np.concatenate([
            rng.uniform(lo, hi, 300),
            grid[(lo < grid) & (grid < hi)],  # the knots
            [np.nextafter(lo, hi), np.nextafter(hi, lo)],  # next to the edges
            lo + (hi - lo) * 1e-9 * np.arange(1, 4),
            hi - (hi - lo) * 1e-9 * np.arange(1, 4),
        ])
        got = ours(t)
        assert got.shape == (len(t), n, n)
        assert np.array_equal(got, reference(t))
        assert np.array_equal(ours(t[7]), got[7])

    def test_zero_outside_the_support(self, rng):
        grid = np.linspace(-0.1, 1.1, 41)
        ours = _SplineCoefficient(grid, rng.standard_normal((41, 4, 4)),
                                  (0.0, 1.0))
        t = np.array([-0.1, -0.05, 0.0, 1.0, 1.05, 1.1, -3.0, 4.0])
        out = ours(t)
        assert np.all(out == 0.0)
        assert not np.signbit(out).any()


class TestCorrectionLadder:
    def test_zero_data_is_fixed_point(self):
        bd0 = zero_data()
        g1 = T_map(bd0)
        g2 = correction_step(g1, g1)
        p = mid_point(bd0)
        assert np.allclose(g2(p), ROUND.metric_at(p), atol=1e-12)
        assert np.abs(g2.coefficients[1](p[1])).max() == 0.0

    def test_orders_and_exponents(self, ladder):
        # a stage is its coefficients: its order is their count, the power
        # of each is its position (checked in `TestStageSum`), and each stage
        # begins with the coefficients of the one before
        assert [g.order for g in ladder] == [1, 2, 3]
        assert all(g.order == len(g.coefficients) for g in ladder)
        assert [g.label for g in ladder] == ["g_1", "g_2", "g_3"]
        for a, b in zip(ladder, ladder[1:]):
            assert b.coefficients[:-1] == a.coefficients

    def test_vanishing_order_ladder(self, bdata, ladder):
        rhos = [2.0 ** (-k) for k in range(3, 9)]
        ys = [mid_point(bdata, 0.1, dy)[1:] for dy in (-0.15, 0.0, 0.12)]
        slopes = []
        for g in ladder:
            fit = vanishing_order(g, ladder[0], rhos, ys)
            slopes.append(fit.slope)
        assert slopes[0] >= 0.85
        assert slopes[1] >= 1.85
        assert slopes[2] >= 2.85
        # monotone nondecreasing up to fit noise
        assert all(b >= a - 0.05 for a, b in zip(slopes, slopes[1:]))

    def test_locality_of_corrections(self, bdata, ladder):
        y_out = bdata._reference_y()
        y_out[0] = bdata.y_support[1] + 0.1
        for coeff in ladder[-1].coefficients[1:]:
            assert np.abs(coeff(y_out[0])).max() == 0.0

    def test_characteristic_exponent_stops_construction(self, bdata, ladder):
        with pytest.raises(CharacteristicExponentHit,
                           match=r"^stage 4: trace-free block \(K = 0\) "
                                 r"vanishes at s = 3 = n - 1; "):
            correction_step(ladder[-1], ladder[0])

    def test_stage_cap(self, bdata):
        assert len(S_map(bdata, stages=10)) == 3  # n - 1 caps the ladder

    def test_stage_slopes(self):
        # one rule, and the thresholds of stages 1-4 keep their values exactly
        assert [stage_slope(j) for j in (1, 2, 3, 4)] == [0.9, 1.85, 2.7, 3.7]
        assert [stage_slope(j) for j in (5, 6)] == [5 - 0.3, 6 - 0.3]

    def test_conformal_infinity_fidelity(self, bdata, ladder):
        y = mid_point(bdata)[1:]
        target = np.zeros((4, 4))
        target[0, 0] = 1.0
        target[1:, 1:] = bdata.hhat(y) + bdata.qhat(y[0])
        for g in ladder:
            p = np.concatenate(([1e-3], y))
            assert np.abs(p[0] ** 2 * g(p) - target).max() < 5e-3

    def test_gauge_term_small_on_diagonal(self, bdata, ladder):
        pts = [mid_point(bdata, rho) for rho in (0.15, 0.35)]
        for g in ladder:
            assert gauge_term_norm(g, pts, step=1e-3) < 10 * 1e-3 ** 2


class TestStageSum:
    """A stage is its list of coefficients: coefficient i at y_1 times
    rho^(i-2) times the radial cutoff, added to the chart metric."""

    @staticmethod
    def independent_sum(bd, coefficients, p):
        """h + sum_i c_i(y_1) rho^(i-2) plateau_bump(rho), with c_0 formed
        from the boundary data: psi_y qhat as the tangential block."""
        rho, t = p[:, 0], p[:, 1]
        first = np.zeros((len(p), 4, 4))
        first[:, 1:, 1:] = bd.psi_y(t)[:, None, None] * bd.qhat(t)
        out = ROUND.metric_at(p)
        for i, c in enumerate([first] + [c(t) for c in coefficients[1:]]):
            out = out + c * (rho ** (i - 2) * plateau_bump(rho))[:, None, None]
        return out

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_values_are_the_sum_of_the_coefficients(self, bdata, ladder, j):
        # rho on both sides of 1/2, where the radial cutoff leaves 1; y_1 on
        # qhat's support, where psi_y leaves 1, beside it, and outside the
        # cutoff support
        g = T_map(bdata) if j == 1 else ladder[j - 1]
        assert g.order == len(g.coefficients) == j
        p = np.array([mid_point(bdata, rho, dy)
                      for rho in (0.05, 0.3, 0.6, 0.85)
                      for dy in (-0.6, -0.3, -0.1, 0.0, 0.2, 0.35, 0.6)])
        want = self.independent_sum(bdata, g.coefficients, p)
        assert np.abs(g(p) - want).max() <= 1e-14 * np.abs(want).max()
        # every coefficient vanishes outside the cutoff support
        outside = [k for k, q in enumerate(p)
                   if not bdata.y_support[0] < q[1] < bdata.y_support[1]]
        assert np.array_equal(g(p[outside]), ROUND.metric_at(p[outside]))


class TestFieldReuse:
    def test_both_slots_of_Q_share_one_stencil(self, metric_points):
        # one stencil of 19 points at n = 4: the ladder steps along rho,
        # y_1 and y_2, and not along the azimuthal angle y_3
        from cusplab.tensorcalc import Q_at

        g1 = T_map(seeded_boundary_data(ROUND, seed=3))
        p = np.concatenate(([0.2], g1.bd._reference_y()))
        metric_points[0] = 0
        assert g1.stepped == 3
        Q_at(g1, g1, p)
        assert 19 <= metric_points[0] <= 21
        # two stages of one ladder share it: g_1's values are g_2's partial
        # sums
        g2 = correction_step(g1, g1)
        metric_points[0] = 0
        Q_at(g2, g1, p)
        assert 19 <= metric_points[0] <= 21

    def test_constant_qhat_ladder_steps_along_rho_y1_y2(self, metric_points):
        # every ladder is a function of the chart metric's coordinates, rho
        # and y_1, whatever its boundary data: 19 points per stencil at
        # n = 4, not 33
        from cusplab.tensorcalc import Q_at, stencil_of

        g1 = T_map(zero_data())
        assert g1.stepped == 3
        assert stencil_of(g1) == (3, 19)
        metric_points[0] = 0
        Q_at(g1, g1, mid_point(g1.bd))
        assert 19 <= metric_points[0] <= 21

    def test_each_coefficient_once_per_pass_on_distinct_y1(self, ladder,
                                                           monkeypatch):
        # each evaluation of a ladder calls every coefficient once, on the
        # distinct values of y_1 among its points
        from cusplab import expansion
        from cusplab.tensorcalc import Q_at

        g3 = ladder[-1]
        passes = []
        sums = expansion.ExpansionMetric._sums

        def recorded(self, p, k):
            if self.coefficients is coefficients:
                passes.append((p.reshape(-1, p.shape[-1])[:, 1], []))
            return sums(self, p, k)

        def counted(i, fn):
            def call(t):
                passes[-1][1].append((i, np.array(t)))
                return fn(t)
            return call

        monkeypatch.setattr(expansion.ExpansionMetric, "_sums", recorded)
        bd = g3.bd
        coefficients = tuple(counted(i, coeff)
                             for i, coeff in enumerate(g3.coefficients))
        counting = ExpansionMetric(bd, coefficients)
        p = np.array([mid_point(bd, rho, dy)
                      for rho in (0.1, 0.2) for dy in (-0.1, 0.0, 0.1)])
        assert np.array_equal(Q_at(counting, counting, p),
                              Q_at(g3, g3, p))
        assert len(passes) == 2  # the points, then the offsets
        for y1, calls in passes:
            assert [i for i, _ in calls] == [0, 1, 2]
            assert all(np.array_equal(t, np.unique(y1)) for _, t in calls)
        offsets = passes[1][0]
        assert len(np.unique(offsets)) < len(offsets)

    def test_field_calls_per_correction_iteration(self, monkeypatch):
        # each iteration evaluates its 39 (inside) y x 6 rho extraction points
        # in ceil(234 / BATCH_CAP) passes of near-equal size, the longer ones
        # first: per pass, the longer ladder is evaluated once at the points
        # (steps and both centres) and once on the 18 off-centre points of
        # the stencil along rho, y_1 and y_2, and the shorter ladder's values
        # are its partial sums
        from cusplab import expansion
        from cusplab.tensorcalc import BATCH_CAP

        g1 = T_map(seeded_boundary_data(ROUND, seed=3))
        calls = []
        original = expansion.ExpansionMetric._sums

        def recorded(self, p, k):
            calls.append((self.label, len(np.atleast_2d(p))))
            return original(self, p, k)

        monkeypatch.setattr(expansion.ExpansionMetric, "_sums", recorded)
        correction_step(g1, g1)
        passes = math.ceil(39 * 6 / BATCH_CAP)
        base, longer = divmod(39 * 6, passes)
        sizes = [base + 1] * longer + [base] * (passes - longer)
        rows = [r for size in sizes for r in (size, 18 * size)]
        # iteration 1: Q(g_1, g_1), one shared field; iteration 2: Q(g_2, g_1),
        # one shared ladder
        assert calls == ([("g_1", r) for r in rows] + [("g_2", r) for r in rows])
        assert max(sizes) <= BATCH_CAP

    def test_shared_ladder_equals_separate_evaluation(self, monkeypatch):
        # Q(g_2, g_1) on the extraction grid, with g_1's values taken from
        # g_2's partial sums, equals the same call with g_1 re-wrapped as a
        # plain field that shares nothing
        from cusplab import expansion
        from cusplab.tensorcalc import MetricField, Q_at

        g1 = T_map(seeded_boundary_data(ROUND, seed=3))
        seen = []
        q_at = expansion.Q_at

        def recorded(g, t, p, *args):
            seen.append((g, t, p, args))
            return q_at(g, t, p, *args)

        monkeypatch.setattr(expansion, "Q_at", recorded)
        g2 = correction_step(g1, g1)
        (gl, gr, points, args), = [c for c in seen if c[1] is not c[0]
                                   and c[1] is g1]
        plain = MetricField(g1.chart, g1, g1.label)
        assert gl.joint(gr) is not None
        assert gl.joint(plain) is None
        assert len(points) == 39 * 6
        shared = Q_at(gl, gr, points, *args)
        assert np.array_equal(shared, Q_at(gl, plain, points, *args))
        # and with the slots swapped, the shorter ladder first: it offers
        # no joint evaluation of the longer one, so each is sampled alone
        assert np.array_equal(Q_at(g1, g2, points, *args),
                              Q_at(plain, g2, points, *args))

    def test_stage_equals_its_plain_wrapping(self, ladder):
        # the seed-3 g_3 passed as itself, and wrapped as a plain field that
        # samples per field rather than through `joint`, gives the same bits
        # in every diagnostic
        from cusplab import tensorcalc
        from cusplab.tensorcalc import MetricField, Q_at

        g1, g3 = ladder[0], ladder[-1]
        plain = MetricField(g3.chart, g3, g3.label, g3.stepped)
        assert tensorcalc._joint(g3, (g1,)) is not None
        assert tensorcalc._joint(plain, (g1,)) is None
        assert g1.joint(g3) is None  # a stage evaluates no longer stage
        rhos = [2.0 ** (-k) for k in range(3, 9)]
        center = 0.5 * (g3.bd.y_support[0] + g3.bd.y_support[1])
        ys = g3.bd.line(center + np.array([-0.15, 0.0, 0.12]))
        pts = [np.concatenate(([r], ys[1])) for r in (0.15, 0.35)]
        fits = [vanishing_order(g, g1, rhos, ys) for g in (g3, plain)]
        assert fits[0].per_y == fits[1].per_y
        assert fits[0].slope == fits[1].slope
        assert gauge_term_norm(g3, pts) == gauge_term_norm(plain, pts)
        points = _grid_points(rhos, ys).reshape(-1, 4)
        assert np.array_equal(Q_at(g3, g1, points, 5e-4),
                              Q_at(plain, g1, points, 5e-4))

    def test_only_prefix_ladders_of_one_boundary_datum_share(self):
        bd = seeded_boundary_data(ROUND, seed=3)
        g1 = T_map(bd)
        g2 = correction_step(g1, g1)
        p = np.array([[0.2, *bd._reference_y()], [0.1, *bd._reference_y()]])
        g2_values = g2(p)
        g1_values = g1(p)
        for a, b, want in ((g2, g1, (g2_values, g1_values)),
                           (g1, ExpansionMetric(bd, g1.coefficients),
                            (g1_values, g1_values))):
            both = a.joint(b)
            assert all(np.array_equal(x, y) for x, y in zip(both(p), want))
        # one direction only: a stage does not evaluate a longer one
        assert g1.joint(g2) is None
        # another boundary datum, or as many coefficients with other callables
        other = T_map(seeded_boundary_data(ROUND, seed=4))
        assert g2.joint(other) is None
        assert g2.joint(T_map(bd)) is None
        rewired = ExpansionMetric(bd, (g1.coefficients[0], lambda y: 0.0))
        assert g2.joint(rewired) is None
        assert rewired.joint(g1) is not None

    def test_background_once_per_point_set_in_expand(self, background_sets,
                                                      tmp_path):
        # one expand run samples Q(h, h) on two point sets: the extraction
        # grid of every correction step and the vanishing-order grid of
        # every stage
        from cusplab.cli import main

        code = main(["--out-dir", str(tmp_path), "expand", "--n", "4",
                     "--stages", "3", "--seed", "3"])
        assert code == 0
        assert len(background_sets) == len(set(background_sets)) == 2

    def test_background_once_per_point_set_in_library_ladder(self,
                                                             background_sets):
        # the ladder keeps its own Q(h, h): S_map and a plain vanishing-order
        # fit of each stage share one evaluation per point set
        bd = seeded_boundary_data(ROUND, seed=3)
        stages = S_map(bd, stages=3)
        rhos = [2.0 ** (-k) for k in range(3, 9)]
        center = 0.5 * (bd.y_support[0] + bd.y_support[1])
        ys = bd.line(center + np.array([-0.15, 0.0, 0.12]))
        for g in stages:
            vanishing_order(g, stages[0], rhos, ys)
        assert len(stages) == 3
        assert len(background_sets) == len(set(background_sets)) == 2
        # a field with no boundary data computes Q(h, h) in the call: the
        # fit of h against itself records Q(h, h) twice per call, its own
        # residual term and the background
        h = chart_metric(ROUND)
        vanishing_order(h, h, rhos, ys)
        vanishing_order(h, h, rhos, ys)
        assert len(background_sets) == 2 + 2 * 2


class TestVanishingOrderFit:
    def test_exact_solution_sentinel(self):
        h = chart_metric(ROUND)
        y = zero_data()._reference_y()
        fit = vanishing_order(h, h, [0.1, 0.05, 0.025], [y])
        assert fit.sentinel
        assert fit.slope == math.inf

    def test_one_value_above_the_floor_is_unresolved(self, one_rho_bump):
        # one value above the floor fixes no slope: np.polyfit's
        # minimum-norm line through it would read 4.3 here, above every
        # stage's threshold
        rhos = [2.0 ** (-k) for k in range(3, 9)]
        y = zero_data()._reference_y()
        fit = vanishing_order(one_rho_bump, one_rho_bump, rhos, [y, y + 0.01])
        for sample in fit.per_y:
            norms = sample["norms"]  # rho = 1/8 first
            assert norms[0] > 1e-13 and max(norms[1:]) == 0.0
            assert math.isnan(sample["slope"]) and math.isnan(sample["residual"])
        assert math.isnan(fit.slope) and not fit.sentinel

    def test_prescribed_power_recovered(self, bdata):
        # synthetic residual of known order via a one-term expansion metric
        g1 = T_map(bdata)
        rhos = [2.0 ** (-k) for k in range(3, 9)]
        ys = [mid_point(bdata, 0.1)[1:]]
        fit = vanishing_order(g1, g1, rhos, ys)
        assert 1.8 < fit.slope < 2.3
        assert fit.per_y[0]["residual"] < 0.2


@pytest.mark.slow
def test_dimension_five_ladder_reaches_its_characteristic_exponent():
    # one dimension up: three solves are allowed and the trace-free block
    # goes singular exactly at s = n - 1 = 4
    chart = Chart.collar(5, h_u="round_sphere")
    assert not indicial_blocks(3.0, 5).singular()
    assert indicial_blocks(4.0, 5).singular()
    bd = seeded_boundary_data(chart, seed=2, amplitude=0.05)
    stages = S_map(bd, stages=10)  # n - 1 caps the ladder
    assert [g.order for g in stages] == [1, 2, 3, 4]
    rhos = [2.0 ** (-k) for k in range(3, 9)]
    center = 0.5 * (bd.y_support[0] + bd.y_support[1])
    ys = []
    for dy in (-0.12, 0.0, 0.1):
        y = bd._reference_y()
        y[0] = center + dy
        ys.append(y)
    slopes = [vanishing_order(g, stages[0], rhos, ys).slope for g in stages]
    assert slopes[-1] >= 3.7  # decay order n - 1 with differencing slack
    assert all(b >= a - 0.05 for a, b in zip(slopes, slopes[1:]))
