import math

import numpy as np
import pytest

from cusplab.charts import (
    TRUNC_FRACTION,
    Chart,
    ChartDomainError,
    RescalingCase,
    RescalingCaseError,
    rescaled_metric_at,
    truncate_bdf,
)
from cusplab.solver import half_ball_lattice

EVERY_KIND = [
    Chart.intermediate_cusp(4, 1),
    Chart.intermediate_cusp(5, 1),
    Chart.intermediate_cusp(5, 2),
    Chart.maximal_cusp(4),
    Chart.collar(4),
    Chart.collar(4, h_u="round_sphere"),
    Chart.upper_half_space(4, 2),
]


@pytest.fixture
def cusp41():
    return Chart.intermediate_cusp(4, 1)


class TestMetricAt:
    def test_cusp_closed_form(self, cusp41):
        # hand evaluation: diag(1/(r^2 c^2), 1/c^2, s^2/c^2, r^2/c^2)
        p = [0.5, math.pi / 4, 0.3, 0.2]
        got = cusp41.metric_at(p)
        assert np.allclose(got, np.diag([8.0, 2.0, 1.0, 0.5]), rtol=1e-12)

    def test_cusp_near_pole(self, cusp41):
        # at the pole margin cos(theta0) ~ 1 and the non-spherical entries
        # approach (1/r^2, 1, ., r^2)
        p = [0.5, 1e-3, 0.0, 0.0]
        got = np.diag(cusp41.metric_at(p))
        assert got[0] == pytest.approx(4.0, rel=1e-5)
        assert got[1] == pytest.approx(1.0, rel=1e-5)
        assert got[3] == pytest.approx(0.25, rel=1e-5)
        # the transverse sphere block carries the polar factor sin^2(theta0)
        assert got[2] == pytest.approx(math.sin(1e-3) ** 2, rel=1e-5)

    def test_maximal_at_unit_radius(self):
        chart = Chart.maximal_cusp(3)
        assert np.allclose(chart.metric_at([1.0, 0.3, -0.4]), np.eye(3))

    def test_collar_euclidean(self):
        chart = Chart.collar(3)
        got = chart.metric_at([0.1, 0.2, -0.3])
        assert np.allclose(got, 100.0 * np.eye(3), rtol=1e-12)

    def test_upper_half_space(self):
        chart = Chart.upper_half_space(4, 1)
        got = chart.metric_at([1.0, 0.0, 0.0, 0.5])
        # u=1, v=0: (u^2+|v|^2)^2/u^2 = 1 on the cusp block
        assert np.allclose(got, np.eye(4))

    def test_spd_across_kinds(self, rng):
        charts = [
            Chart.intermediate_cusp(4, 1),
            Chart.intermediate_cusp(5, 2),
            Chart.intermediate_cusp(5, 3),
            Chart.maximal_cusp(4),
            Chart.collar(4),
            Chart.collar(4, h_u="round_sphere"),
            Chart.upper_half_space(4, 2),
        ]
        for chart in charts:
            for p in sample_points(chart, 10, rng):
                g = chart.metric_at(p)
                assert np.allclose(g, g.T)
                assert np.linalg.eigvalsh(g)[0] > 0

    def test_translation_invariance_in_w(self, cusp41):
        a = cusp41.metric_at([0.5, 0.7, 1.1, 0.3])
        b = cusp41.metric_at([0.5, 0.7, 1.1, -2.7])
        assert np.array_equal(a, b)

    def test_angle_invariance_on_circle_block(self, cusp41):
        # b - 1 = 1: the transverse sphere is a circle, so the components do
        # not depend on the angular position at all
        a = cusp41.metric_at([0.5, 0.7, 0.2, 0.3])
        b = cusp41.metric_at([0.5, 0.7, 2.9, 0.3])
        assert np.array_equal(a, b)

    def test_rejects_degenerate_points(self, cusp41):
        with pytest.raises(ChartDomainError):
            cusp41.metric_at([0.0, 0.7, 0.1, 0.0])
        with pytest.raises(ChartDomainError):
            cusp41.metric_at([0.5, math.pi / 2, 0.1, 0.0])
        with pytest.raises(ChartDomainError):
            Chart.collar(3).metric_at([0.0, 0.1, 0.1])

    def test_rejects_out_of_range(self, cusp41):
        with pytest.raises(ChartDomainError):
            cusp41.metric_at([1.5, 0.7, 0.1, 0.0])
        with pytest.raises(ChartDomainError):
            cusp41.metric_at([0.5, 0.7, 0.1])

    def test_seven_coordinates_fit_one_message_line(self):
        # numpy's str wraps this point at 75 characters; the message does not
        p = np.array([1.5, 0.60481928, 0.85021825, 0.81184318, 2.0625668,
                      0.66040892, 0.17061724])
        assert "\n" in str(p)
        with pytest.raises(ChartDomainError) as info:
            Chart.intermediate_cusp(7, 1).validate_point(p)
        assert str(info.value) == (
            "r = 1.5 outside allowed range [0.0, 1.0] at point [1.5        "
            "0.60481928 0.85021825 0.81184318 2.0625668  0.66040892 0.17061724]")


def _every_kind(n):
    """Every chart at dimension n; the maximal cusp is the cusp family of
    rank n - 1."""
    return ([Chart.intermediate_cusp(n, f) for f in range(1, n - 1)]
            + [Chart.collar(n), Chart.collar(n, h_u="round_sphere")]
            + [Chart.upper_half_space(n, f) for f in range(1, n)])


def _chart_id(chart):
    """The chart's kind, n and f."""
    return f"{chart.kind}-{chart.n}-{chart.f}"


class TestMetricStepped:
    """`metric_stepped` counts the leading coordinates the closed forms
    depend on: moving only the later ones leaves `metric_at` the same bits,
    and moving any of the counted ones moves some component."""

    @pytest.mark.parametrize("chart", _every_kind(4) + _every_kind(5),
                             ids=_chart_id)
    def test_later_coordinates_leave_the_metric_unchanged(self, chart, rng):
        d = chart.metric_stepped
        assert 1 <= d < chart.n
        pts = np.array(sample_points(chart, 20, rng))
        moved = pts.copy()
        moved[:, d:] = np.array(sample_points(chart, 20, rng))[:, d:]
        want = chart.metric_at(pts)
        got = chart.metric_at(moved)
        assert got.tobytes() == want.tobytes()
        for i in range(d):
            nudged = pts.copy()
            nudged[:, i] += 0.01
            assert (chart.metric_at(nudged) != want).any(axis=(1, 2)).all()


class TestVolumeDensity:
    def test_cusp_closed_form(self, cusp41):
        # sqrt(r^0 sin^2 / cos^8) at theta0 = pi/4 equals 2 sqrt(2)
        got = cusp41.volume_density_at([0.5, math.pi / 4, 0.3, 0.2])
        assert got == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_collar_power(self):
        chart = Chart.collar(3)
        got = chart.volume_density_at([0.1, 0.0, 0.0])
        assert got == pytest.approx(1000.0, rel=1e-12)

    def test_matches_determinant(self, rng):
        charts = [
            Chart.intermediate_cusp(4, 1),
            Chart.intermediate_cusp(5, 1),
            Chart.maximal_cusp(4),
            Chart.collar(4, h_u="round_sphere"),
            Chart.upper_half_space(4, 2),
        ]
        for chart in charts:
            for p in sample_points(chart, 8, rng):
                dens = chart.volume_density_at(p)
                det = np.linalg.det(chart.metric_at(p))
                assert dens ** 2 == pytest.approx(det, rel=1e-12)


class TestSigma:
    def test_cusp_product(self, cusp41):
        got = cusp41.sigma_at([0.2, math.pi / 3, 0.1, 0.0])
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_collar_is_rho(self):
        chart = Chart.collar(4)
        assert chart.sigma_at([0.05, 0.1, 0.0, 0.2]) == pytest.approx(0.05)

    def test_truncates_to_one_at_edge(self):
        chart = Chart.maximal_cusp(4)
        assert chart.sigma_at([1.0, 0.0, 0.0, 0.0]) == 1.0

    def test_truncation_profile_smooth_and_monotone(self):
        xs = np.linspace(0.01, 1.0, 400)
        vals = [truncate_bdf(x, 1.0, 0.2) for x in xs]
        assert np.all(np.diff(vals) >= -1e-14)
        assert vals[0] == xs[0]
        assert vals[-1] == 1.0

    def test_in_exhaustion(self, cusp41):
        p_in = [0.2, math.pi / 3, 0.1, 0.0]  # sigma = 0.1
        assert cusp41.in_exhaustion(p_in, 0.05)
        assert cusp41.in_exhaustion(p_in, 0.1)  # boundary included
        assert not cusp41.in_exhaustion(p_in, 0.2)
        with pytest.raises(ValueError):
            cusp41.in_exhaustion(p_in, 0.0)


class TestRescaling:
    def test_near_axis_origin_is_identity(self):
        case = RescalingCase("cusp_near_axis", 4, eps=0.01, v0=[0.0, 0.0], f=1)
        got = rescaled_metric_at(case, [0.0, 0.0, 0.0, 0.0])
        assert np.allclose(got, np.eye(4), atol=1e-14)

    def test_off_axis_origin_is_identity(self):
        case = RescalingCase("cusp_off_axis", 4, eps=0.01, v0=[0.3, 0.0], f=1)
        got = rescaled_metric_at(case, [0.0, 0.0, 0.0, 0.0])
        assert np.allclose(got, np.eye(4), atol=1e-14)

    def test_eigenvalue_band_uniform_in_eps(self):
        # fixed shape parameter v0 = 0: the pulled-back metric has no eps
        # dependence at all, so the band is literally constant
        bands = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            case = RescalingCase("cusp_near_axis", 4, eps=eps, v0=[0.0, 0.0], f=1)
            eigs = []
            for s in (0.0, 0.4, 0.8):
                for t in (-0.5, 0.0, 0.5):
                    q = [s, t, 0.0, 0.1]
                    if s * s + t * t + 0.01 < 1:
                        eigs += list(np.linalg.eigvalsh(rescaled_metric_at(case, q)))
            bands.append((min(eigs), max(eigs)))
        assert np.allclose(bands, bands[0])

    def test_invariants_enforced(self):
        with pytest.raises(RescalingCaseError):
            RescalingCase("cusp_near_axis", 4, eps=0.01, v0=[0.5, 0.0], f=1)
        with pytest.raises(RescalingCaseError):
            RescalingCase("cusp_off_axis", 4, eps=0.01, v0=[0.005, 0.0], f=1)
        with pytest.raises(RescalingCaseError):
            RescalingCase("cusp_off_axis", 4, eps=0.01, v0=[1.5, 0.0], f=1)
        case = RescalingCase("cusp_near_axis", 4, eps=0.01, v0=[0.0, 0.0], f=1)
        with pytest.raises(ChartDomainError):
            rescaled_metric_at(case, [0.9, 0.9, 0.0, 0.0])
        with pytest.raises(ChartDomainError):
            rescaled_metric_at(case, [-0.1, 0.0, 0.0, 0.0])

    def test_collar_case_takes_no_rank(self):
        with pytest.raises(RescalingCaseError, match="collar rescaling takes no rank"):
            RescalingCase("collar", 4, 0.1, f=2)

    @pytest.mark.parametrize("case, f, v0, want", [
        ("collar", None, [0.01], r"v0 must have 3 components, got shape \(1,\)"),
        ("collar", None, np.zeros((1, 3)), r"3 components, got shape \(1, 3\)"),
        ("cusp_near_axis", 1, [0.0], "v0 must have 2 components"),
    ], ids=["collar-one-component", "collar-2d", "cusp-one-component"])
    def test_v0_length_is_checked(self, case, f, v0, want):
        with pytest.raises(RescalingCaseError, match=want):
            RescalingCase(case, 4, 0.1, v0=v0, f=f)

    @pytest.mark.parametrize("case, f, dim", [
        ("collar", None, 3), ("cusp_near_axis", 1, 2), ("cusp_near_axis", 2, 1),
    ])
    def test_omitted_v0_is_the_origin(self, case, f, dim):
        omitted = RescalingCase(case, 4, 0.1, f=f)
        origin = RescalingCase(case, 4, 0.1, v0=np.zeros(dim), f=f)
        assert np.array_equal(omitted.v0, np.zeros(dim))
        lattice = half_ball_lattice(5)
        q = np.zeros((len(lattice), 4))
        q[:, [0, 1, 3]] = lattice
        assert np.array_equal(rescaled_metric_at(omitted, q),
                              rescaled_metric_at(origin, q))


class TestBatchedEqualsSingle:
    """An (N, n) array gives, row by row, exactly the one-point values."""

    @pytest.mark.parametrize("chart", EVERY_KIND,
                             ids=_chart_id)
    def test_chart_quantities(self, chart, rng):
        pts = np.array(sample_points(chart, 12, rng))
        # the last rows reach into the truncation band and to the edge
        pts[-3:, 0] = chart.edge * np.array([0.85, 0.95, 1.0])
        for quantity in (chart.volume_density_at, chart.sigma_at):
            batch = quantity(pts)
            assert batch.shape == (len(pts),)
            assert np.array_equal(batch, [quantity(p) for p in pts])
        eps = float(np.median(chart.sigma_at(pts)))
        inside = chart.in_exhaustion(pts, eps)
        assert inside.any() and not inside.all()
        assert np.array_equal(inside, [chart.in_exhaustion(p, eps) for p in pts])

    @pytest.mark.parametrize("case", [
        RescalingCase("cusp_near_axis", 4, eps=0.01, v0=[0.005, 0.0], f=1),
        RescalingCase("cusp_off_axis", 4, eps=0.01, v0=[0.3, 0.1], f=1),
        RescalingCase("collar", 4, eps=0.01, v0=[0.01, 0.0, -0.02]),
    ], ids=lambda c: c.case)
    def test_rescaled_metric(self, case):
        lattice = half_ball_lattice(5)
        q = np.zeros((len(lattice), 4))
        q[:, [0, 1, 3]] = lattice
        batch = rescaled_metric_at(case, q)
        assert batch.shape == (len(q), 4, 4)
        assert np.array_equal(batch, [rescaled_metric_at(case, p) for p in q])

    def test_rescaled_metric_rejects_any_row_outside(self):
        case = RescalingCase("collar", 4, eps=0.01, v0=np.zeros(3))
        with pytest.raises(ChartDomainError):
            rescaled_metric_at(case, [[0.0, 0.0, 0.0, 0.0], [0.5, 0.9, 0.0, 0.0]])

    def test_half_ball_lattice_order(self):
        s = np.linspace(0.0, 0.9, 9)
        t = np.linspace(-0.9, 0.9, 9)
        want = [(a, b, c) for a in s for b in t for c in t
                if a * a + b * b + c * c < 0.995]
        got = half_ball_lattice(9)
        assert len(want) == 397
        assert np.array_equal(got, np.array(want))


class TestCollarFamilies:
    def test_family_looked_up_by_name(self):
        from cusplab.charts import H_U_FAMILIES

        chart = Chart.collar(4, h_u="round_sphere")
        assert chart.h_u is H_U_FAMILIES["round_sphere"]
        assert Chart.collar(4).kind == "euclidean"

    def test_one_field_names_the_end(self):
        assert [c.kind for c in (Chart.intermediate_cusp(4, 1), Chart.collar(4),
                                 Chart.collar(4, h_u="round_sphere"),
                                 Chart.upper_half_space(4, 1), Chart.maximal_cusp(4))] \
            == ["intermediate_cusp", "euclidean", "round_sphere", "cusp", "cusp"]
        assert Chart("round_sphere", 4) == Chart.collar(4, h_u="round_sphere")
        with pytest.raises(TypeError):
            Chart.intermediate_cusp(4, 1, h_u_name="round_sphere")
        with pytest.raises(ValueError, match="unknown chart kind 'collar'"):
            Chart("collar", 4)
        with pytest.raises(ValueError, match="unknown collar family 'intermediate_cusp'"):
            Chart.collar(4, h_u="intermediate_cusp", f=1)

    def test_the_intermediate_cusp_has_no_family(self):
        with pytest.raises(ValueError, match="intermediate cusp is not a collar"):
            Chart.intermediate_cusp(4, 1).h_u

    def test_unknown_family_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown collar family 'hyperbolic'"):
            Chart.collar(4, h_u="hyperbolic")

    def test_only_the_cusp_family_takes_a_rank(self):
        with pytest.raises(ValueError, match="cusp collar family needs rank"):
            Chart.collar(4, h_u="cusp")
        with pytest.raises(ValueError, match="cusp collar family needs rank"):
            Chart.upper_half_space(4, 4)
        with pytest.raises(ValueError, match="euclidean collar family takes no rank"):
            Chart.collar(4, f=2)

    def test_cusp_family_reads_the_chart_rank(self):
        # F_1 at u = 0.5, v = (0.3, 0.4): (u^2 + |v|^2)^2 = 0.25 on the z entry
        y = np.array([0.3, 0.4, 7.0])
        got = Chart.upper_half_space(4, 1).h_u(0.5, y)
        assert np.allclose(got, np.diag([1.0, 1.0, 0.25]), rtol=1e-15)
        assert np.array_equal(Chart.maximal_cusp(4).h_u(0.5, y), np.eye(3) / 16)


# Closed forms of the upper half space and the maximal cusp, written out
# apart from the cusp collar family, as references for it.


def _upper_half_space_metric(chart, p):
    x, b = p[..., 0], chart.b
    v = p[..., 1 : 1 + b]
    s2 = x * x + np.einsum("...i,...i->...", v, v)
    out = np.zeros(p.shape + (chart.n,))
    out[..., : 1 + b, : 1 + b] = np.eye(1 + b)
    out[..., 1 + b :, 1 + b :] = (s2 * s2)[..., None, None] * np.eye(chart.f)
    return out / (x * x)[..., None, None]


def _upper_half_space_density(chart, p):
    x, v = p[..., 0], p[..., 1 : 1 + chart.b]
    return (x * x + np.einsum("...i,...i->...", v, v)) ** chart.f / x ** chart.n


def _maximal_cusp_metric(chart, p):
    x = p[..., 0]
    out = np.zeros(p.shape + (chart.n,))
    out[..., 0, 0] = 1.0 / (x * x)
    out[..., 1:, 1:] = (x * x)[..., None, None] * np.eye(chart.n - 1)
    return out


def _maximal_cusp_density(chart, p):
    return p[..., 0] ** (chart.n - 2)


def _truncated_first_coordinate(chart, p):
    """sigma of both: u (r on the maximal cusp), truncated toward the edge."""
    return truncate_bdf(p[..., 0], chart.edge, TRUNC_FRACTION)


class TestCuspFamilyKeepsTheOldClosedForms:
    """On 200 points per chart, 20 of them in the truncation band, the cusp
    family gives the upper half space's metric and sigma bit for bit and the
    maximal cusp's metric to 1 ulp ((u^2)^2 / u^2 is not u^2 in floating
    point), and both densities to rtol 1e-14 (sqrt det against a power)."""

    @staticmethod
    def _points(chart, rng):
        pts = np.array(sample_points(chart, 200, rng))
        pts[-20:, 0] = chart.edge * rng.uniform(1.0 - TRUNC_FRACTION, 1.0, 20)
        return pts

    @pytest.mark.parametrize("chart", [Chart.upper_half_space(n, f)
                                       for n in range(3, 7) for f in range(1, n)],
                             ids=_chart_id)
    def test_upper_half_space(self, chart, rng):
        pts = self._points(chart, rng)
        assert (chart.metric_at(pts).tobytes()
                == _upper_half_space_metric(chart, pts).tobytes())
        np.testing.assert_allclose(chart.volume_density_at(pts),
                                   _upper_half_space_density(chart, pts),
                                   rtol=1e-14, atol=0)
        assert (chart.sigma_at(pts).tobytes()
                == _truncated_first_coordinate(chart, pts).tobytes())

    @pytest.mark.parametrize("n", range(3, 7))
    def test_maximal_cusp(self, n, rng):
        chart = Chart.maximal_cusp(n)
        assert chart == Chart.upper_half_space(n, n - 1)
        pts = self._points(chart, rng)
        got, want = chart.metric_at(pts), _maximal_cusp_metric(chart, pts)
        assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()
        np.testing.assert_allclose(chart.volume_density_at(pts),
                                   _maximal_cusp_density(chart, pts),
                                   rtol=1e-14, atol=0)
        assert (chart.sigma_at(pts).tobytes()
                == _truncated_first_coordinate(chart, pts).tobytes())


def sample_points(chart, count, rng):
    pts = []
    ranges = chart.coordinate_ranges()
    while len(pts) < count:
        p = []
        for lo, hi in ranges:
            if math.isinf(lo) or math.isinf(hi):
                p.append(rng.uniform(-0.8, 0.8))
            else:
                span = hi - lo
                p.append(rng.uniform(lo + 0.2 * span, hi - 0.2 * span))
        p = np.array(p)
        if chart.contains(p):
            pts.append(p)
    return pts
