import math
from collections import Counter

import numpy as np
import pytest

from cusplab.charts import Chart
from cusplab.expansion import (
    BoundaryData,
    CharacteristicExponentHit,
    ExpansionMetric,
    PositivityError,
    S_map,
    T_map,
    _SplineCoefficient,
    _reference_y,
    correction_step,
    decompose_types,
    gauge_term_norm,
    indicial_blocks,
    indicial_matrix,
    recompose_types,
    seeded_boundary_data,
    vanishing_order,
)
from cusplab.tensorcalc import chart_metric
from cusplab.weights import indicial_roots

ROUND = Chart.collar(4, h_u="round_sphere")
FLAT = Chart.collar(4)


@pytest.fixture(scope="module")
def bdata():
    return seeded_boundary_data(ROUND, seed=3, amplitude=0.05)


@pytest.fixture(scope="module")
def ladder(bdata):
    return S_map(bdata, stages=3)


def zero_data(chart=ROUND):
    bd = seeded_boundary_data(chart, seed=0, amplitude=0.05)
    return BoundaryData(chart=chart, qhat=lambda y: np.zeros((3, 3)),
                        psi_y=bd.psi_y, y_support=bd.y_support)


def extension(bd):
    """The extension E of the perturbed boundary metric: rho^2 times the
    stage-1 metric T_map(bd)."""
    g1 = T_map(bd).field
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
        assert np.allclose(diff[1:, 1:], bdata.qhat(y), atol=1e-14)
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
        with pytest.raises(PositivityError):
            BoundaryData(chart=ROUND, qhat=lambda y: -10.0 * np.eye(3),
                         psi_y=bd.psi_y, y_support=bd.y_support).validate()


class TestConformalRescaling:
    def test_zero_data_gives_background(self):
        g1 = T_map(zero_data())
        p = mid_point(zero_data())
        assert np.allclose(g1.field(p), ROUND.metric_at(p), atol=1e-14)

    def test_boundary_recovery(self, bdata):
        g1 = T_map(bdata)
        y = mid_point(bdata)[1:]
        target = np.zeros((4, 4))
        target[0, 0] = 1.0
        target[1:, 1:] = bdata.hhat(y) + bdata.qhat(y)
        defects = []
        for rho in (1e-2, 1e-3):
            p = np.concatenate(([rho], y))
            defects.append(np.abs(rho ** 2 * g1.field(p) - target).max())
        assert defects[0] < 5e-4
        # first-order convergence to the boundary representative
        assert defects[1] < 0.2 * defects[0]

    def test_term_exponents_validated(self, bdata):
        with pytest.raises(ValueError):
            ExpansionMetric(bd=bdata, terms=((-1, lambda y: np.zeros((4, 4))),),
                            order=1)


class TestIndicialStructure:
    # closed forms for the conformally flat model, lam(s) = -s(s - (n-1)):
    # trace direction (lam + 2(n-1))/2, normal-tangential (lam + n)/2,
    # tangential trace-free lam/2

    @pytest.mark.parametrize("s", [0.0, 0.7, 1.0, 2.0])
    def test_block_scalars_match_closed_forms(self, s):
        n = 4
        lam = -s * (s - (n - 1))
        blocks = indicial_blocks(s, FLAT)
        hdir = np.array([1.0, n - 1.0])
        tr_num = blocks.m2 @ hdir / hdir
        assert tr_num == pytest.approx([0.5 * (lam + 2 * (n - 1))] * 2, abs=2e-4)
        assert blocks.mv == pytest.approx(0.5 * (lam + n), abs=2e-4)
        assert blocks.mt == pytest.approx(0.5 * lam, abs=2e-4)

    def test_zero_exponent_acts_by_zeroth_order_constant_on_trace(self):
        # rho^0 times the metric is parallel, so only the constant term acts
        blocks = indicial_blocks(0.0, FLAT)
        hdir = np.array([1.0, 3.0])
        out = blocks.m2 @ hdir
        assert out == pytest.approx(3.0 * hdir, abs=2e-4)

    def test_trace_block_singular_at_matching_indicial_roots(self):
        # the pure-trace block reproduces the scalar exponents for the
        # shifted constant 2(n-1)
        n = 4
        for root in indicial_roots(2.0 * (n - 1), n):
            blocks = indicial_blocks(root, FLAT)
            hdir = np.array([1.0, n - 1.0])
            out = blocks.m2 @ hdir
            assert np.abs(out).max() < 5e-4

    def test_trace_free_block_singular_at_stage_cap(self):
        blocks = indicial_blocks(3.0, FLAT)  # s = n - 1
        assert blocks.singular()

    def test_quadratic_dependence_on_exponent(self):
        svals = np.array([0.3, 0.8, 1.3, 1.9, 2.6])
        mats = np.array([indicial_matrix(s, 4, FLAT) for s in svals])
        V = np.vander(svals, 3, increasing=True)
        flat = mats.reshape(len(svals), -1)
        coef, *_ = np.linalg.lstsq(V, flat, rcond=None)
        assert np.abs(V @ coef - flat).max() < 1e-6

    def test_round_family_shares_the_scalars(self):
        a = indicial_blocks(1.0, FLAT)
        b = indicial_blocks(1.0, ROUND)
        assert b.mv == pytest.approx(a.mv, abs=2e-4)
        assert b.mt == pytest.approx(a.mt, abs=2e-4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_stacked_solve_equals_one_matrix_at_a_time(self, n, rng):
        chart = Chart.collar(n, h_u="round_sphere")
        blocks = indicial_blocks(1.0, chart)
        ys = np.tile(_reference_y(chart), (9, 1))
        ys[:, 0] += rng.uniform(-0.4, 0.4, 9)
        hhats = chart.h_u(0.0, ys)
        R = rng.standard_normal((9, n, n))
        R = R + np.swapaxes(R, -1, -2)
        stacked = blocks.solve(R, hhats)
        one_at_a_time = np.array([blocks.solve(r, h) for r, h in zip(R, hhats)])
        assert np.array_equal(stacked, one_at_a_time)
        # the preimage maps back onto R under the type matrix
        a, V, tau, tfree = decompose_types(stacked, hhats)
        back = recompose_types(
            blocks.m2[0, 0] * a + blocks.m2[0, 1] * tau, blocks.mv * V,
            blocks.m2[1, 0] * a + blocks.m2[1, 1] * tau, blocks.mt * tfree, hhats)
        assert np.allclose(back, R, rtol=1e-10, atol=1e-10)


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
        y = np.column_stack([t, rng.uniform(0.0, 1.0, (len(t), n - 2))])
        got = ours(y)
        assert got.shape == (len(t), n, n)
        assert np.array_equal(got, reference(t))
        assert np.array_equal(ours(y[7]), got[7])

    def test_zero_outside_the_support(self, rng):
        grid = np.linspace(-0.1, 1.1, 41)
        ours = _SplineCoefficient(grid, rng.standard_normal((41, 4, 4)),
                                  (0.0, 1.0))
        t = np.array([-0.1, -0.05, 0.0, 1.0, 1.05, 1.1, -3.0, 4.0])
        y = np.column_stack([t, np.zeros((len(t), 2))])
        out = ours(y)
        assert np.all(out == 0.0)
        assert not np.signbit(out).any()


class TestCorrectionLadder:
    def test_zero_data_is_fixed_point(self):
        bd0 = zero_data()
        g1 = T_map(bd0)
        g2 = correction_step(g1, g1)
        p = mid_point(bd0)
        assert np.allclose(g2.field(p), ROUND.metric_at(p), atol=1e-12)
        assert np.abs(g2.terms[1][1](p[1:])).max() == 0.0

    def test_orders_and_exponents(self, ladder):
        assert [g.order for g in ladder] == [1, 2, 3]
        assert [t for t, _ in ladder[-1].terms] == [-2, -1, 0]

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
        for t, coeff in ladder[-1].terms[1:]:
            assert np.abs(coeff(y_out)).max() == 0.0

    def test_characteristic_exponent_stops_construction(self, bdata, ladder):
        with pytest.raises(CharacteristicExponentHit):
            correction_step(ladder[-1], ladder[0])

    def test_stage_cap(self, bdata):
        assert len(S_map(bdata, stages=10)) == 3  # n - 1 caps the ladder

    def test_conformal_infinity_fidelity(self, bdata, ladder):
        y = mid_point(bdata)[1:]
        target = np.zeros((4, 4))
        target[0, 0] = 1.0
        target[1:, 1:] = bdata.hhat(y) + bdata.qhat(y)
        for g in ladder:
            p = np.concatenate(([1e-3], y))
            assert np.abs(p[0] ** 2 * g.field(p) - target).max() < 5e-3

    def test_gauge_term_small_on_diagonal(self, bdata, ladder):
        pts = [mid_point(bdata, rho) for rho in (0.15, 0.35)]
        for g in ladder:
            assert gauge_term_norm(g, pts, step=1e-3) < 10 * 1e-3 ** 2


class TestFieldReuse:
    def test_both_slots_of_Q_share_one_stencil(self, metric_points):
        from cusplab.tensorcalc import Q_at

        g1 = T_map(seeded_boundary_data(ROUND, seed=3))
        p = np.concatenate(([0.2], g1.bd._reference_y()))
        metric_points[0] = 0
        assert g1.field is g1.field
        Q_at(g1.field, g1.field, p)
        assert 33 <= metric_points[0] <= 35
        # two stages of one ladder share it: g_1's values are g_2's partial
        # sums
        g2 = correction_step(g1, g1)
        metric_points[0] = 0
        Q_at(g2.field, g1.field, p)
        assert 33 <= metric_points[0] <= 35


    def test_field_calls_per_correction_iteration(self, monkeypatch):
        # each iteration evaluates its 39 (inside) y x 6 rho extraction points
        # in chunks of BATCH_CAP: per chunk, the longer ladder is evaluated
        # once at the points (steps and both centres) and once on the
        # off-centre stencil points, and the shorter ladder's values are its
        # partial sums
        from cusplab import expansion
        from cusplab.tensorcalc import BATCH_CAP

        g1 = T_map(seeded_boundary_data(ROUND, seed=3))
        calls = []
        original = expansion._Ladder._sums

        def recorded(self, p, k):
            calls.append((f"g_{len(self.terms)}", len(np.atleast_2d(p))))
            return original(self, p, k)

        monkeypatch.setattr(expansion._Ladder, "_sums", recorded)
        correction_step(g1, g1)
        chunks = math.ceil(39 * 6 / BATCH_CAP)
        stencils = Counter(label for label, rows in calls if rows > BATCH_CAP)
        steps = Counter(label for label, rows in calls if rows <= BATCH_CAP)
        # iteration 1: Q(g_1, g_1), one shared field; iteration 2: Q(g_2, g_1),
        # one shared ladder
        assert stencils == {"g_1": chunks, "g_2": chunks}
        assert steps == {"g_1": chunks, "g_2": chunks}
        assert max(rows for _, rows in calls) <= BATCH_CAP * 32

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
                                   and c[1] is g1.field]
        plain = MetricField(g1.chart, g1.field, g1.field.label)
        assert gl.eval.joint(gr.eval) is not None
        assert gl.eval.joint(plain.eval) is None
        assert len(points) == 39 * 6
        shared = Q_at(gl, gr, points, *args)
        assert np.array_equal(shared, Q_at(gl, plain, points, *args))
        # and with the slots swapped, the shorter ladder first
        assert np.array_equal(Q_at(g1.field, g2.field, points, *args),
                              Q_at(plain, g2.field, points, *args))

    def test_only_prefix_ladders_of_one_boundary_datum_share(self):
        bd = seeded_boundary_data(ROUND, seed=3)
        g1 = T_map(bd)
        g2 = correction_step(g1, g1)
        p = np.array([[0.2, *bd._reference_y()], [0.1, *bd._reference_y()]])
        g2_values = g2.field(p)
        g1_values = g1.field(p)
        for a, b, want in ((g2, g1, (g2_values, g1_values)),
                           (g1, g2, (g1_values, g2_values)),
                           (g1, ExpansionMetric(bd, g1.terms, 1),
                            (g1_values, g1_values))):
            both = a.field.eval.joint(b.field.eval)
            assert all(np.array_equal(x, y) for x, y in zip(both(p), want))
        # another boundary datum, or the same exponents with other callables
        other = T_map(seeded_boundary_data(ROUND, seed=4))
        assert g2.field.eval.joint(other.field.eval) is None
        assert g2.field.eval.joint(T_map(bd).field.eval) is None
        rewired = ExpansionMetric(bd, ((-2, g1.terms[0][1]),
                                       (g2.terms[1][0], lambda y: 0.0)), 2)
        assert g2.field.eval.joint(rewired.field.eval) is None
        assert rewired.field.eval.joint(g1.field.eval) is not None

    def test_background_once_per_point_set_in_expand(self, monkeypatch,
                                                      tmp_path):
        # one expand run samples Q(h, h) on two point sets: the extraction
        # grid of every correction step and the vanishing-order grid of
        # every stage
        from cusplab import expansion
        from cusplab.cli import main

        sets = []
        q_at = expansion.Q_at

        def recorded(g, t, p, *args):
            if g is t and g.eval == g.chart.metric_at:
                sets.append(np.round(p, 12).tobytes())
            return q_at(g, t, p, *args)

        monkeypatch.setattr(expansion, "Q_at", recorded)
        code = main(["--out-dir", str(tmp_path), "expand", "--n", "4",
                     "--stages", "3", "--seed", "3"])
        assert code == 0
        assert len(sets) == len(set(sets)) == 2


class TestVanishingOrderFit:
    def test_exact_solution_sentinel(self):
        h = chart_metric(ROUND)
        y = zero_data()._reference_y()
        fit = vanishing_order(h, h, [0.1, 0.05, 0.025], [y])
        assert fit.sentinel
        assert fit.slope == math.inf

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
    assert not indicial_blocks(3.0, chart).singular()
    assert indicial_blocks(4.0, chart).singular()
    bd = seeded_boundary_data(chart, seed=2, amplitude=0.05)
    stages = S_map(bd, stages=4)
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
