"""Asymptotic solutions of the gauge-adjusted Einstein equation near the
conformal boundary.

A compactly supported perturbation of the boundary metric on a collar patch
is extended into the interior, conformally rescaled, and then corrected
order by order in the defining function: at each stage the leading Taylor
coefficient of the residual is extracted numerically and cancelled by
inverting the (numerically assembled) indicial type matrix of the
linearized operator.  The construction stops one order before the first
characteristic exponent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .charts import Chart, COLLAR, smooth_bump, smooth_step
from .tensorcalc import (
    DEFAULT_STEP,
    MetricField,
    SymTensorField,
    L_at,
    Q_at,
    Q_gauge_at,
    chart_metric,
    tensor_norm,
)

SLOPE_SENTINEL = math.inf


class IndicialExtractionFailure(RuntimeError):
    """Leading-coefficient extraction did not stabilize."""


class CharacteristicExponentHit(RuntimeError):
    """The indicial matrix is singular at the requested exponent."""


class PositivityError(ValueError):
    """Perturbed boundary metric is not positive definite."""


# -- boundary data -------------------------------------------------------------


def plateau_bump(t: float, inner: float = 0.5) -> float:
    """Smooth plateau on (-1, 1): identically 1 on [-inner, inner], 0 outside."""
    a = abs(t)
    if a <= inner:
        return 1.0
    if a >= 1.0:
        return 0.0
    return 1.0 - smooth_step((a - inner) / (1.0 - inner))


@dataclass(frozen=True)
class BoundaryData:
    """Compactly supported boundary perturbation on a collar patch.

    qhat maps tangential coordinates y to symmetric (n-1)x(n-1) component
    matrices, supported strictly inside the cutoff plateau; psi_y is the
    tangential cutoff profile (a function of y[0]) with support interval
    y_support, and the radial cutoff equals 1 for rho <= 1/2 and 0 for
    rho >= 1.
    """

    chart: Chart
    qhat: Callable[[np.ndarray], np.ndarray]
    psi_y: Callable[[float], float]
    y_support: tuple[float, float]

    def __post_init__(self):
        if self.chart.kind != COLLAR:
            raise ValueError("boundary data lives on a collar chart")

    @property
    def n(self) -> int:
        return self.chart.n

    def hhat(self, y: np.ndarray) -> np.ndarray:
        """Boundary representative: the collar family at rho = 0."""
        return self.chart.h_u(0.0, np.asarray(y, dtype=float))

    def psi_rho(self, rho: float) -> float:
        return plateau_bump(rho)

    def psi(self, rho: float, y: np.ndarray) -> float:
        return self.psi_rho(rho) * float(self.psi_y(float(np.asarray(y)[0])))

    def validate(self, samples: int = 25):
        """Positivity of hhat + qhat and compact support inside the cutoff."""
        lo, hi = self.y_support
        mid = self._reference_y()
        for t in np.linspace(lo - 1e-9, hi + 1e-9, samples):
            y = mid.copy()
            y[0] = min(max(t, lo + 1e-12), hi - 1e-12)
            g = self.hhat(y) + self.qhat(y)
            if np.linalg.eigvalsh(g)[0] <= 0:
                raise PositivityError(
                    f"hhat + qhat not positive definite at y[0] = {y[0]:.4g}"
                )
        for t in (lo - 1e-6, hi + 1e-6):
            y = mid.copy()
            y[0] = t
            if np.abs(self.qhat(y)).max() > 0:
                raise PositivityError("qhat support leaks outside the cutoff plateau")

    def _reference_y(self) -> np.ndarray:
        return _reference_y(self.chart)


def _reference_y(chart: Chart) -> np.ndarray:
    """A tangential base point in the middle of the coordinate ranges (0.3
    on an unbounded range)."""
    out = []
    for lo, hi in chart.coordinate_ranges()[1:]:
        if math.isinf(lo) or math.isinf(hi):
            out.append(0.3)
        else:
            out.append(0.5 * (lo + hi))
    return np.array(out)


def seeded_boundary_data(
    chart: Chart,
    seed: int = 0,
    amplitude: float = 0.05,
) -> BoundaryData:
    """Boundary data with a seeded random symmetric coefficient matrix times
    a smooth bump of half-width 0.25 in the first tangential coordinate,
    inside a cutoff plateau of half-width 0.45 around the reference point;
    sup of the component matrix equals `amplitude`."""
    rng = np.random.default_rng(seed)
    n = chart.n
    A = rng.standard_normal((n - 1, n - 1))
    A = 0.5 * (A + A.T)
    A *= amplitude / np.abs(A).max()
    center = float(_reference_y(chart)[0])

    def qhat(y):
        return A * smooth_bump((float(np.asarray(y)[0]) - center) / 0.25)

    def psi_y(t):
        return plateau_bump((t - center) / 0.45, inner=0.25 / 0.45)

    bd = BoundaryData(
        chart=chart,
        qhat=qhat,
        psi_y=psi_y,
        y_support=(center - 0.45, center + 0.45),
    )
    bd.validate()
    return bd


# -- extension and conformal rescaling ----------------------------------------


def _embed_tangential(n: int, q_tan: np.ndarray) -> np.ndarray:
    out = np.zeros((n, n))
    out[1:, 1:] = q_tan
    return out


def extend(bd: BoundaryData) -> MetricField:
    """Extension E of the perturbed boundary metric: the compactified collar
    metric plus the cutoff times the tangential, radially parallel extension
    of qhat (normal components: rho-rho equals 1, mixed equal 0)."""

    def ev(p):
        rho, y = p[0], p[1:]
        n = bd.n
        out = np.zeros((n, n))
        out[0, 0] = 1.0
        out[1:, 1:] = bd.chart.h_u(rho, y)
        return out + bd.psi(rho, y) * _embed_tangential(n, bd.qhat(y))

    return MetricField(bd.chart, ev, "E(g-hat)")


@dataclass(frozen=True)
class ExpansionMetric:
    """Conformally rescaled extension plus power-law correction terms.

    terms hold (component exponent, coefficient function of y) pairs with
    strictly increasing exponents starting at -2; the stage-1 term is the
    cutoff boundary perturbation itself, later coefficients come out of the
    indicial solves.  Radial cutoff factors keep every term supported in the
    collar.
    """

    bd: BoundaryData
    terms: tuple[tuple[int, Callable[[np.ndarray], np.ndarray]], ...]
    order: int

    def __post_init__(self):
        exps = [t for t, _ in self.terms]
        if exps and (exps[0] != -2 or any(b <= a for a, b in zip(exps, exps[1:]))):
            raise ValueError("term exponents must increase strictly from -2")

    @property
    def chart(self) -> Chart:
        return self.bd.chart

    @functools.cached_property
    def field(self) -> MetricField:
        """The metric as one field object, built once, so both slots of
        Q_at(g.field, g.field, p) share a jet."""
        bd = self.bd
        terms = self.terms

        def ev(p):
            rho, y = p[0], p[1:]
            out = bd.chart.metric_at(p).copy()
            if not terms:
                return out
            psi_r = bd.psi_rho(rho)
            if psi_r == 0.0:
                return out
            t0, c0 = terms[0]
            out += (rho ** t0) * psi_r * bd.psi_y(float(y[0])) * c0(y)
            for t, coeff in terms[1:]:
                out += (rho ** t) * psi_r * coeff(y)
            return out

        return MetricField(bd.chart, ev, f"g_{self.order}")


def T_map(bd: BoundaryData) -> ExpansionMetric:
    """Conformal rescaling of the extension: h + rho^{-2} psi qbar."""
    n = bd.n
    return ExpansionMetric(
        bd=bd,
        terms=((-2, lambda y: _embed_tangential(n, bd.qhat(y))),),
        order=1,
    )


# -- numerical indicial machinery ----------------------------------------------


def _fit_leading_coefficient(rhos: np.ndarray, values: np.ndarray, t: int):
    """Least-squares polynomial fit of values ~ rho^t (c0 + c1 rho + ...);
    returns (c0, absolute fit residual, data scale)."""
    scaled = values / rhos[:, None, None] ** t
    degree = max(len(rhos) - 2, 1)
    V = np.vander(rhos, degree + 1, increasing=True)
    flat = scaled.reshape(len(rhos), -1)
    coef, *_ = np.linalg.lstsq(V, flat, rcond=None)
    resid = float(np.abs(V @ coef - flat).max())
    scale = float(np.abs(flat).max())
    c0 = coef[0].reshape(values.shape[1:])
    return c0, resid, scale


def decompose_types(C: np.ndarray, hhat: np.ndarray):
    """Split a symmetric component matrix into (normal-normal, normal-
    tangential, tangential trace, tangential trace-free) parts."""
    nm1 = hhat.shape[0]
    a = float(C[0, 0])
    V = C[0, 1:].copy()
    tang = C[1:, 1:]
    tau = float(np.trace(np.linalg.inv(hhat) @ tang))
    tfree = tang - (tau / nm1) * hhat
    return a, V, tau, tfree


def recompose_types(a, V, tau, tfree, hhat: np.ndarray) -> np.ndarray:
    nm1 = hhat.shape[0]
    C = np.zeros((nm1 + 1, nm1 + 1))
    C[0, 0] = a
    C[0, 1:] = V
    C[1:, 0] = V
    C[1:, 1:] = (tau / nm1) * hhat + tfree
    return C


@dataclass
class IndicialBlocks:
    """Block scalars of the indicial type matrix at one exponent: a 2x2 on
    (normal-normal, tangential trace), and scalars on the normal-tangential
    and tangential trace-free parts."""

    s: float
    m2: np.ndarray
    mv: float
    mt: float

    def singular(self) -> bool:
        scale = max(np.abs(self.m2).max(), abs(self.mv), abs(self.mt), 1e-3)
        return (
            abs(np.linalg.det(self.m2)) < 1e-4 * scale ** 2
            or abs(self.mv) < 1e-4 * scale
            or abs(self.mt) < 1e-4 * scale
        )

    def solve(self, R: np.ndarray, hhat: np.ndarray) -> np.ndarray:
        if self.singular():
            raise CharacteristicExponentHit(
                f"indicial matrix singular at exponent s = {self.s}"
            )
        a_r, V_r, tau_r, tf_r = decompose_types(R, hhat)
        a_x, tau_x = np.linalg.solve(self.m2, np.array([a_r, tau_r]))
        return recompose_types(a_x, V_r / self.mv, tau_x, tf_r / self.mt, hhat)

    def as_matrix(self) -> np.ndarray:
        """Full 4x4 matrix on type coordinates (nn, nt, trace, trace-free)."""
        out = np.zeros((4, 4))
        out[0, 0], out[0, 2] = self.m2[0]
        out[2, 0], out[2, 2] = self.m2[1]
        out[1, 1] = self.mv
        out[3, 3] = self.mt
        return out


def _indicial_probe_rhos(count: int = 5, base: float = 0.05) -> np.ndarray:
    return base * 0.5 ** np.arange(count)


def indicial_blocks(s: float, chart: Chart) -> IndicialBlocks:
    """Assemble the indicial action of the linearized operator numerically.

    The operator is applied to rho^{s-2} times frozen component matrices of
    each type at the reference point of the chart; the leading coefficient
    as rho -> 0 is extracted by a polynomial fit over geometric samples
    (relative fit residual at most 1e-3).  The normalization is the
    invariant one: the pure-trace input rho^s * h reproduces the scalar
    zeroth-order action at s = 0.
    """
    if chart.kind != COLLAR:
        raise ValueError("indicial analysis runs on a collar chart")
    n = chart.n
    h = chart_metric(chart)
    y_ref = _reference_y(chart)
    hhat = chart.h_u(0.0, y_ref)

    e_nn = np.zeros((n, n)); e_nn[0, 0] = 1.0
    e_nt = np.zeros((n, n)); e_nt[0, 1] = e_nt[1, 0] = 1.0
    e_tr = _embed_tangential(n, hhat)
    tf = np.zeros((n - 1, n - 1))
    tf[0, 0], tf[1, 1] = hhat[0, 0], -hhat[1, 1]
    e_tf = _embed_tangential(n, tf)

    rhos = _indicial_probe_rhos()
    t = s - 2.0

    def extract_general(Cin):
        r_field = SymTensorField(chart, lambda q: (q[0] ** t) * Cin)
        vals = [L_at(h, r_field, np.concatenate(([rho], y_ref)), DEFAULT_STEP)
                for rho in rhos]
        c0, resid, scale = _fit_leading_coefficient(rhos, np.array(vals), t)
        rel = resid / (scale or 1.0)
        if rel > 1e-3:
            raise IndicialExtractionFailure(
                f"indicial extraction residual {rel:.2e} at s = {s}"
            )
        return c0

    out_nn = extract_general(e_nn)
    out_nt = extract_general(e_nt)
    out_tr = extract_general(e_tr)
    out_tf = extract_general(e_tf)

    a1, _, tau1, _ = decompose_types(out_nn, hhat)
    a2, _, tau2, _ = decompose_types(out_tr, hhat)
    nm1 = n - 1
    m2 = np.array([[a1, a2 / nm1], [tau1, tau2 / nm1]])

    _, V_nt, _, _ = decompose_types(out_nt, hhat)
    mv = float(V_nt[0] / e_nt[0, 1])

    _, _, _, tf_out = decompose_types(out_tf, hhat)
    denom = float(np.einsum("ij,ij->", tf, tf))
    mt = float(np.einsum("ij,ij->", tf_out, tf) / denom)

    return IndicialBlocks(s=s, m2=m2, mv=mv, mt=mt)


def indicial_matrix(
    s: float,
    n: int = 4,
    chart: Optional[Chart] = None,
) -> np.ndarray:
    """4x4 indicial type matrix at invariant exponent s, on the component
    types (normal-normal, normal-tangential, tangential trace, tangential
    trace-free)."""
    chart = chart if chart is not None else Chart.collar(n)
    return indicial_blocks(s, chart).as_matrix()


# -- coefficient extraction and correction steps --------------------------------


DEFAULT_EXTRACTION_RHOS = 0.4 * 0.5 ** np.arange(6)
EXTRACTION_STEP = 5e-4  # finite-difference step of every residual evaluation


@dataclass
class _BackgroundCache:
    chart: Chart
    values: dict = field(default_factory=dict)

    def q_hh(self, p: np.ndarray) -> np.ndarray:
        key = tuple(np.round(p, 12))
        if key not in self.values:
            h = chart_metric(self.chart)
            self.values[key] = Q_at(h, h, p, EXTRACTION_STEP)
        return self.values[key]


def extract_residual_coefficient(
    g_j: ExpansionMetric,
    g_1: ExpansionMetric,
    t: int,
    y: np.ndarray,
    cache: Optional[_BackgroundCache] = None,
):
    """Leading Taylor coefficient {Q(g_j, g_1)}_t of the residual at fixed y.

    The same-point evaluation of the operator on the exact background is
    subtracted first: it vanishes identically in exact arithmetic, and the
    subtraction cancels the dominant finite-difference truncation error.
    """
    cache = cache or _BackgroundCache(g_j.chart)
    gl, gr = g_j.field, g_1.field
    vals = []
    for rho in DEFAULT_EXTRACTION_RHOS:
        p = np.concatenate(([rho], y))
        vals.append(Q_at(gl, gr, p, EXTRACTION_STEP) - cache.q_hh(p))
    return _fit_leading_coefficient(DEFAULT_EXTRACTION_RHOS, np.array(vals), t)


class _SplineCoefficient:
    """Componentwise cubic-spline coefficient in the first tangential
    coordinate, identically zero outside the cutoff support."""

    def __init__(self, grid: np.ndarray, values: np.ndarray,
                 support: tuple[float, float]):
        self.support = support
        self.spline = CubicSpline(grid, values, axis=0, bc_type="natural")
        self.n = values.shape[1]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        t = float(np.asarray(y)[0])
        lo, hi = self.support
        if not (lo < t < hi):
            return np.zeros((self.n, self.n))
        return self.spline(t)


def correction_step(
    g_j: ExpansionMetric,
    g_1: ExpansionMetric,
    cache: Optional[_BackgroundCache] = None,
) -> ExpansionMetric:
    """One order-raising step: cancel the leading residual coefficient.

    The residual coefficient at the current component exponent is extracted
    on a 41-point tangential grid, the indicial blocks inverted pointwise,
    and the correction re-extracted once so that quadratic cross terms at
    the same order are swept up as well.  Coefficients vanish identically
    outside the cutoff support.  Raises CharacteristicExponentHit at a
    singular exponent.
    """
    bd = g_j.bd
    chart = g_j.chart
    t = g_j.order - 2  # residual component exponent: -1 for stage 1, then 0, 1, ...
    s_inv = float(t + 2)
    blocks = indicial_blocks(s_inv, chart)
    if blocks.singular():
        raise CharacteristicExponentHit(
            f"stage {g_j.order + 1} sits at a characteristic exponent "
            f"(s = {s_inv}); the construction stops here"
        )
    cache = cache or _BackgroundCache(chart)
    lo, hi = bd.y_support
    pad = 0.02 * (hi - lo)
    ygrid = np.linspace(lo - pad, hi + pad, 41)
    y_ref = bd._reference_y()
    n = bd.n

    coeff = np.zeros((len(ygrid), n, n))
    current = g_j
    for _ in range(2):
        raw = np.zeros_like(coeff)
        resids = np.zeros(len(ygrid))
        scale = 0.0
        for i, t_y in enumerate(ygrid):
            y = y_ref.copy()
            y[0] = t_y
            if not (lo < t_y < hi):
                continue
            c, resid, sc = extract_residual_coefficient(
                current, g_1, t, y, cache=cache
            )
            raw[i] = c
            resids[i] = resid
            scale = max(scale, sc)
        if scale > 0 and resids.max() > 0.05 * scale:
            raise IndicialExtractionFailure(
                f"residual coefficient extraction unstable (fit residual "
                f"{resids.max():.2e} vs scale {scale:.2e}) at stage {g_j.order}"
            )
        new_vals = np.zeros_like(coeff)
        for i, t_y in enumerate(ygrid):
            if not (lo < t_y < hi):
                continue
            y = y_ref.copy()
            y[0] = t_y
            new_vals[i] = blocks.solve(-raw[i], bd.hhat(y))
        coeff = coeff + new_vals
        fn = _SplineCoefficient(ygrid, coeff, (lo, hi))
        current = ExpansionMetric(
            bd=bd,
            terms=g_j.terms + ((t, fn),),
            order=g_j.order + 1,
        )
        if float(np.abs(new_vals).max()) < 1e-9:
            break
    return current


def S_map(
    bd: BoundaryData,
    stages: Optional[int] = None,
) -> list[ExpansionMetric]:
    """Build the expansion ladder g_1, g_2, ..., up to stage n - 1 (or the
    first characteristic exponent, whichever comes first)."""
    cap = bd.n - 1 if stages is None else min(stages, bd.n - 1)
    out = [T_map(bd)]
    cache = _BackgroundCache(bd.chart)
    while out[-1].order < cap:
        out.append(correction_step(out[-1], out[0], cache=cache))
    return out


# -- vanishing-order diagnostics -------------------------------------------------


@dataclass
class VanishingOrderFit:
    """Log-log decay fit of the residual over a family of base points."""

    slope: float  # max over tangential samples of the per-sample slopes
    per_y: list[dict]
    sentinel: bool  # every sample below the floor (exact solution)


def vanishing_order(
    gL: MetricField | ExpansionMetric,
    gR: MetricField | ExpansionMetric,
    rho_samples: Sequence[float],
    y_samples: Sequence[np.ndarray],
) -> VanishingOrderFit:
    """Least-squares slope of log |Q(gL, gR) - Q(h, h)|_h against log rho.

    Values at or below the floor 1e-13 are left out of the fit; samples with
    all values below it are reported with an infinite sentinel slope and
    excluded from the headline maximum.
    """
    fl = gL.field if isinstance(gL, ExpansionMetric) else gL
    fr = gR.field if isinstance(gR, ExpansionMetric) else gR
    chart = fl.chart
    cache = _BackgroundCache(chart)
    rho_samples = np.asarray(sorted(rho_samples, reverse=True), dtype=float)

    per_y = []
    slopes = []
    for y in y_samples:
        y = np.asarray(y, dtype=float)
        norms = []
        for rho in rho_samples:
            p = np.concatenate(([rho], y))
            q = Q_at(fl, fr, p, EXTRACTION_STEP) - cache.q_hh(p)
            norms.append(tensor_norm(chart.metric_at(p), q))
        norms = np.array(norms)
        if norms.max() < 1e-13:
            per_y.append({"y": y.tolist(), "slope": SLOPE_SENTINEL,
                          "residual": 0.0, "norms": norms.tolist()})
            continue
        keep = norms > 1e-13
        logr = np.log(rho_samples[keep])
        logn = np.log(norms[keep])
        slope, intercept = np.polyfit(logr, logn, 1)
        resid = float(np.abs(np.polyval([slope, intercept], logr) - logn).max())
        per_y.append({"y": y.tolist(), "slope": float(slope),
                      "residual": resid, "norms": norms.tolist()})
        slopes.append(float(slope))

    if not slopes:
        return VanishingOrderFit(slope=SLOPE_SENTINEL, per_y=per_y, sentinel=True)
    return VanishingOrderFit(slope=max(slopes), per_y=per_y, sentinel=False)


def gauge_term_norm(
    g: MetricField | ExpansionMetric, points: Sequence[np.ndarray],
    step: float = DEFAULT_STEP,
) -> float:
    """Max |gauge term of Q(g, g)|_h over the sampled points (vanishes in
    exact arithmetic when both slots agree)."""
    f = g.field if isinstance(g, ExpansionMetric) else g
    worst = 0.0
    for p in points:
        p = np.asarray(p, dtype=float)
        val = Q_gauge_at(f, f, p, step)
        worst = max(worst, tensor_norm(f.chart.metric_at(p), val))
    return worst
