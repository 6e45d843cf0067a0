"""Asymptotic solutions of the gauge-adjusted Einstein equation near the
conformal boundary.

A compactly supported perturbation of the boundary metric on a collar patch
is extended into the interior, conformally rescaled, and then corrected
order by order in the defining function: at each stage the leading Taylor
coefficient of the residual is extracted numerically and cancelled by
inverting the indicial operator of the linearized operator, whose three
block scalars are closed-form quadratics in the exponent.  The construction
stops one order before the first characteristic exponent.

The construction runs along one line through the reference point: each
correction coefficient is extracted at the 39 values of t = y_1 that a
41-node grid across the padded cutoff support has inside it, and stored as
a spline in t on all 41 nodes.  So `qhat`, the cutoff `psi_y` and every
coefficient are functions of t alone: each takes an array of t and returns
its values stacked on the array's shape.  Each stage g_j, an
`ExpansionMetric`, is its list of j coefficients: coefficient i multiplies
rho^(i-2) times the radial cutoff, and the first is psi_y qhat.  A stage is
an array-native field that evaluates each coefficient once per distinct t
of a point array, and its stencils step along no coordinate after the chart
metric's, rho's and y_1's.
Each correction iteration samples its 39 y x 6 rho = 234 extraction points,
and each vanishing-order fit its rho x y grid, in a few `Q_at` calls on
whole point arrays; the background Q(h, h) is computed once per point set
and kept on the ladder's `BoundaryData`.
Q(h, h), and Q(g_1, g_1) in stage 1's extraction and its vanishing-order
fit, have both slots on one field, so `Q_at` forms them as Rc + (n-1) g with
no gauge term (it vanishes there); `gauge_term_norm` computes that term in
full, as a check.  In Q(g_j, g_1) the two slots share one evaluation: g_1's
coefficients begin g_j's, and a stage adds its terms in order, so g_1's
values are g_j's partial sum after its first term, bit for bit, and g_j is
evaluated once per stencil for both slots (`ExpansionMetric.joint`, which
the longer stage in the first slot offers; a stage does not evaluate a
longer one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .charts import Chart, INTERMEDIATE_CUSP, diagonal_matrices, smooth_bump, smooth_step
from .tensorcalc import (
    DEFAULT_STEP,
    Q_at,
    Q_gauge_at,
    chart_metric,
    tensor_norm,
)
from .weights import barrier_H0

SLOPE_SENTINEL = math.inf


class IndicialExtractionFailure(RuntimeError):
    """Leading-coefficient extraction did not stabilize."""


class CharacteristicExponentHit(RuntimeError):
    """A block of the indicial operator vanishes at the requested exponent."""


class PositivityError(ValueError):
    """Perturbed boundary metric is not positive definite."""


# -- boundary data -------------------------------------------------------------


def plateau_bump(t, inner: float = 0.5):
    """Smooth plateau on (-1, 1), elementwise: identically 1 on
    [-inner, inner], 0 outside."""
    a = np.abs(np.asarray(t, dtype=float))
    return np.where(a <= inner, 1.0,
                    1.0 - smooth_step((a - inner) / (1.0 - inner)))[()]


@dataclass(frozen=True)
class BoundaryData:
    """Compactly supported boundary perturbation on a collar patch.

    qhat maps an array of t = y_1 values to the symmetric (n-1)x(n-1)
    component matrices there, shape t.shape + (n-1, n-1), supported strictly
    inside the cutoff plateau; psi_y is the tangential cutoff profile, an
    elementwise function of t, with support interval y_support.  The
    radial cutoff, `plateau_bump` of rho, equals 1 for rho <= 1/2 and 0 for
    rho >= 1.
    """

    chart: Chart
    qhat: Callable[[np.ndarray], np.ndarray]
    psi_y: Callable[[np.ndarray], np.ndarray]
    y_support: tuple[float, float]
    _backgrounds: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.chart.kind == INTERMEDIATE_CUSP:
            raise ValueError("boundary data lives on a collar chart")

    @property
    def n(self) -> int:
        return self.chart.n

    def hhat(self, y: np.ndarray) -> np.ndarray:
        """Boundary representative: the collar family at rho = 0, as matrices."""
        return diagonal_matrices(self.chart.h_u(0.0, np.asarray(y, dtype=float)))

    def validate(self):
        """qhat's shape on an array of t, positivity of hhat + qhat at 25
        points across the cutoff support, and compact support inside the
        cutoff."""
        lo, hi = self.y_support
        t = np.clip(np.linspace(lo - 1e-9, hi + 1e-9, 25), lo + 1e-12, hi - 1e-12)
        q = np.asarray(self.qhat(t))
        want = t.shape + (self.n - 1, self.n - 1)
        if q.shape != want:
            raise ValueError(
                f"qhat must map an array of t = y_1 values of shape {t.shape} "
                f"to shape {want}, got shape {q.shape}")
        bad = np.linalg.eigvalsh(self.hhat(self.line(t)) + q)[:, 0] <= 0
        if bad.any():
            raise PositivityError(
                f"hhat + qhat not positive definite at y[0] = {t[bad][0]:.4g}")
        if np.abs(self.qhat(np.array([lo - 1e-6, hi + 1e-6]))).max() > 0:
            raise PositivityError("qhat support leaks outside the cutoff plateau")

    def _reference_y(self) -> np.ndarray:
        return _reference_y(self.chart)

    def line(self, t: np.ndarray) -> np.ndarray:
        """The points (len(t), n-1) through the reference point with y_1 = t."""
        ys = np.tile(self._reference_y(), (len(t), 1))
        ys[:, 0] = t
        return ys

    def background(self, points: np.ndarray) -> np.ndarray:
        """Q(h, h) at the rows of points, computed the first time this
        point set (its exact bytes) is seen."""
        key = (points.shape, points.tobytes())
        if key not in self._backgrounds:
            self._backgrounds[key] = _background(self.chart, points)
        return self._backgrounds[key]


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

    def qhat(t):
        bump = smooth_bump((np.asarray(t) - center) / 0.25)
        return np.asarray(bump)[..., None, None] * A

    def psi_y(t):
        return plateau_bump((t - center) / 0.45, inner=0.25 / 0.45)

    bd = BoundaryData(chart, qhat, psi_y, (center - 0.45, center + 0.45))
    bd.validate()
    return bd


# -- extension and conformal rescaling ----------------------------------------


def _embed_tangential(n: int, q_tan: np.ndarray) -> np.ndarray:
    """Tangential blocks (one, or stacked) as n x n component matrices."""
    out = np.zeros(q_tan.shape[:-2] + (n, n))
    out[..., 1:, 1:] = q_tan
    return out


@dataclass(frozen=True)
class ExpansionMetric:
    """Conformally rescaled extension plus power-law correction terms: the
    background metric with its coefficients added in order, an array-native
    metric field (`chart`, `label`, `stepped`, called on (N, n) arrays).

    Coefficient i maps an array of t = y_1 values to the n x n component
    matrices there, shape t.shape + (n, n), and multiplies
    rho^(i-2) psi_rho(rho), the radial cutoff (`plateau_bump`) that keeps
    every term supported in the collar; the stage's order is the number of
    coefficients.  The first coefficient is the boundary perturbation times
    its tangential cutoff (`T_map`), later ones come out of the indicial
    solves.

    The values depend on the chart metric's leading coordinates, rho (the
    cutoff and powers) and y_1 (the coefficients) alone, so the field
    declares the wider of the chart metric's count and 2, and its stencils
    step along no later coordinate.  A stage whose coefficients begin with
    another stage's (the same callables, on the same boundary data) passes
    through that stage's values on the way: after the shared coefficients,
    its running sum is the other stage's value bit for bit.  `joint`
    evaluates both in that one pass.
    """

    bd: BoundaryData
    coefficients: tuple[Callable[[np.ndarray], np.ndarray], ...]

    batched = True  # a class attribute: calling a stage takes arrays

    @property
    def chart(self) -> Chart:
        return self.bd.chart

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def label(self) -> str:
        return f"g_{self.order}"

    @property
    def stepped(self) -> int:
        return max(self.chart.metric_stepped, 2)

    def __call__(self, p) -> np.ndarray:
        return self._sums(np.asarray(p, dtype=float), self.order)[1]

    def _sums(self, p: np.ndarray, k: int):
        """(the sum after the first k coefficients' terms, the full sum) at p.

        Term i is coefficient i at y_1 times rho^(i-2) psi_rho(rho), added
        in order.  A stencil array repeats each y_1 many times, so every
        coefficient is evaluated once on its distinct values and gathered."""
        q = p.reshape(-1, p.shape[-1])
        rho = q[:, 0]
        out = self.bd.chart.metric_at(q)
        prefix = None
        psi_r = plateau_bump(rho)
        distinct, at = np.unique(q[:, 1], return_inverse=True)
        for i, coeff in enumerate(self.coefficients):
            term = coeff(distinct)[at]
            term *= ((rho ** (i - 2)) * psi_r)[:, None, None]
            if i == k:  # the prefix ends here: add into a new array
                prefix, out = out, out + term
            else:
                out += term
        shape = p.shape[:-1] + out.shape[1:]
        return (out if prefix is None else prefix).reshape(shape), out.reshape(shape)

    def joint(self, other):
        """p -> (self's values, other's values) from one pass of self, if
        other is a stage on the same boundary data whose coefficients begin
        self's; otherwise None."""
        if not isinstance(other, ExpansionMetric) or other.bd is not self.bd:
            return None
        k = other.order
        if k > self.order or any(
                a is not b for a, b in zip(self.coefficients, other.coefficients)):
            return None
        return lambda p: self._sums(np.asarray(p, dtype=float), k)[::-1]


def T_map(bd: BoundaryData) -> ExpansionMetric:
    """Conformal rescaling of the extension: h + rho^{-2} psi_rho psi_y qbar,
    one coefficient psi_y(t) qhat(t) embedded as the tangential block."""
    n = bd.n

    def qbar(t):
        return _embed_tangential(n, bd.psi_y(t)[..., None, None] * bd.qhat(t))

    return ExpansionMetric(bd, (qbar,))


# -- indicial operator ----------------------------------------------------------


def decompose_types(C: np.ndarray, hhat: np.ndarray):
    """Split a symmetric component matrix, or a stack of them with their
    hhat (one, or stacked alike), into (normal-normal, normal-tangential,
    tangential trace, tangential trace-free) parts."""
    nm1 = hhat.shape[-1]
    a = C[..., 0, 0]
    V = C[..., 0, 1:].copy()
    tang = C[..., 1:, 1:]
    tau = np.trace(np.linalg.inv(hhat) @ tang, axis1=-2, axis2=-1)
    tfree = tang - (tau / nm1)[..., None, None] * hhat
    return a, V, tau, tfree


def recompose_types(a, V, tau, tfree, hhat: np.ndarray) -> np.ndarray:
    """Inverse of decompose_types, one matrix or stacked."""
    nm1 = hhat.shape[-1]
    tau = np.asarray(tau)
    C = np.zeros(tau.shape + (nm1 + 1, nm1 + 1))
    C[..., 0, 0] = a
    C[..., 0, 1:] = V
    C[..., 1:, 0] = V
    C[..., 1:, 1:] = (tau / nm1)[..., None, None] * hhat + tfree
    return C


def _block_constants(n: int):
    """(attribute, block, K) of the three indicial blocks: each block scalar
    is (K - s(s - (n-1)))/2, the barrier quadratic with that block's K."""
    return (("m2", "normal-normal/trace", 2.0 * (n - 1)),
            ("mv", "normal-tangential", float(n)),
            ("mt", "trace-free", 0.0))


@dataclass(frozen=True)
class IndicialBlocks:
    """Block scalars of the indicial operator of the linearized operator at
    exponent s in dimension n: m2 acts on the normal-normal part and the
    tangential trace alike, mv on the normal-tangential part, mt on the
    tangential trace-free part."""

    s: float
    n: int
    m2: float
    mv: float
    mt: float

    def vanishing(self) -> Optional[str]:
        """'<block> block (K = ...) vanishes at s = ...' for the first block
        scalar that is 0, or None."""
        for attr, block, K in _block_constants(self.n):
            if getattr(self, attr) == 0.0:
                at = {-1: " = n - 1", 0: " = n"}.get(self.s - self.n, "")
                return f"{block} block (K = {K:g}) vanishes at s = {self.s:g}{at}"
        return None

    def singular(self) -> bool:
        return self.vanishing() is not None

    def solve(self, R: np.ndarray, hhat: np.ndarray) -> np.ndarray:
        """The preimage of R under the indicial operator: one component
        matrix, or a stack of them with their hhat stacked alike."""
        vanishing = self.vanishing()
        if vanishing:
            raise CharacteristicExponentHit(vanishing)
        a_r, V_r, tau_r, tf_r = decompose_types(R, hhat)
        return recompose_types(a_r / self.m2, V_r / self.mv, tau_r / self.m2,
                               tf_r / self.mt, hhat)


def indicial_blocks(s: float, n: int) -> IndicialBlocks:
    """The indicial operator at exponent s in dimension n, in closed form:
    applied to rho^{s-2} times a frozen component matrix, the linearized
    operator returns rho^{s-2} times a block scalar times it, at leading
    order (Graham & Lee, Adv. Math. 1991; Mazzeo & Melrose, J. Funct. Anal.
    1987).  Each block scalar is half the barrier quadratic
    `weights.barrier_H0` with its own K; its zeros are
    `weights.indicial_roots(K, n)`."""
    return IndicialBlocks(s=s, n=n, **{
        attr: 0.5 * barrier_H0(K, s, n) for attr, _, K in _block_constants(n)})


# -- coefficient extraction and correction steps --------------------------------


DEFAULT_EXTRACTION_RHOS = 0.4 * 0.5 ** np.arange(6)
EXTRACTION_STEP = 5e-4  # finite-difference step of every residual evaluation


def _grid_points(rhos, ys: np.ndarray) -> np.ndarray:
    """The points (rho, y) for each row y of ys and each rho: (M, R, n)."""
    rhos = np.asarray(rhos, dtype=float)
    shape = (len(ys), len(rhos))
    return np.concatenate([np.broadcast_to(rhos[None, :, None], shape + (1,)),
                           np.broadcast_to(ys[:, None, :], shape + ys.shape[1:])],
                          axis=2)


def _fit_leading_coefficient(rhos: np.ndarray, values: np.ndarray, t: int):
    """Least-squares polynomial fit of values ~ rho^t (c0 + c1 rho + ...),
    where values[..., r, :, :] is sampled at rhos[r] and leading axes hold
    independent samples; returns (c0, absolute fit residual, data scale),
    each with those leading axes."""
    lead = values.shape[:-3]
    scaled = values / rhos[:, None, None] ** t
    degree = max(len(rhos) - 2, 1)
    V = np.vander(rhos, degree + 1, increasing=True)
    flat = np.moveaxis(scaled.reshape(lead + (len(rhos), -1)), -2, 0)
    columns = flat.reshape(len(rhos), -1)
    coef, *_ = np.linalg.lstsq(V, columns, rcond=None)
    resid = np.abs(V @ coef - columns).reshape(flat.shape).max(axis=(0, -1))
    scale = np.abs(flat).max(axis=(0, -1))
    c0 = coef[0].reshape(lead + values.shape[-2:])
    return c0, resid, scale


def _background(chart: Chart, points: np.ndarray) -> np.ndarray:
    """Q(h, h) on the chart's background at the rows of points."""
    h = chart_metric(chart)
    return Q_at(h, h, points, EXTRACTION_STEP)


def _residuals(gl, gr, points: np.ndarray) -> np.ndarray:
    """Q(gl, gr) - Q(h, h) at the rows of points, for two fields; Q(h, h)
    comes from gl's boundary data when it has one."""
    bd = getattr(gl, "bd", None)
    background = bd.background(points) if bd else _background(gl.chart, points)
    return Q_at(gl, gr, points, EXTRACTION_STEP) - background


def extract_residual_coefficient(
    g_j: ExpansionMetric,
    g_1: ExpansionMetric,
    t: int,
    ys: np.ndarray,
):
    """Leading Taylor coefficient {Q(g_j, g_1)}_t of the residual at each
    row of ys, an (M, n-1) array of tangential points.

    All M x 6 extraction points are evaluated in one call, and each
    row gets its own fit: returns (c0, absolute fit residual, data scale),
    stacked over the rows.  The same-point evaluation of the operator on
    the exact background is subtracted first: it vanishes identically in
    exact arithmetic, and the subtraction cancels the dominant
    finite-difference truncation error.
    """
    points = _grid_points(DEFAULT_EXTRACTION_RHOS, np.asarray(ys, dtype=float))
    vals = _residuals(g_j, g_1, points.reshape(-1, points.shape[-1]))
    return _fit_leading_coefficient(
        DEFAULT_EXTRACTION_RHOS, vals.reshape(points.shape[:2] + vals.shape[1:]), t)


def _natural_spline_coefficients(grid: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power coefficients, highest first, of the natural cubic spline through
    the columns of y (len(grid), m): an (intervals, 4, m) block.

    They equal scipy's CubicSpline(grid, y, axis=0, bc_type="natural") bit
    for bit. The node slopes solve the tridiagonal system CubicSpline
    assembles; it is strictly diagonally dominant, so it is eliminated as
    LAPACK dgtsv does it, with no row interchanges. The coefficients are
    then formed as CubicHermiteSpline forms them.
    """
    dx = np.diff(grid)
    dxr = dx[:, None]
    dy = np.diff(y, axis=0)
    slope = dy / dxr
    # diagonal d, superdiagonal du and subdiagonal dl; the first and last
    # rows hold the zero second derivative at the ends
    d = np.empty(len(grid))
    d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.concatenate(([dx[0]], dx[:-1]))
    dl = np.concatenate((dx[1:], [dx[-1]]))
    s = np.empty(y.shape)
    s[0], s[-1] = 3 * dy[0], 3 * dy[-1]
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    for k in range(len(grid) - 1):
        fact = dl[k] / d[k]
        d[k + 1] -= fact * du[k]
        s[k + 1] -= fact * s[k]
    s[-1] /= d[-1]
    for k in range(len(grid) - 2, -1, -1):
        s[k] = (s[k] - du[k] * s[k + 1]) / d[k]
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]),
                    axis=1)


class _SplineCoefficient:
    """Componentwise natural cubic spline in t = y_1, identically zero
    outside the cutoff support: maps an array of t to
    t.shape + values.shape[1:].

    Values equal scipy's CubicSpline(grid, values, axis=0,
    bc_type="natural") bit for bit: the interval is found and the cubic
    summed in PPoly's order, from one gather of the coefficient block, at
    each t it is given.  An expansion metric hands the spline the distinct
    t of a stencil array only: a 117-point pass of the n = 4 expand ladder
    has 2,106 off-centre stencil points with 254 distinct first
    coordinates.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray,
                 support: tuple[float, float]):
        self.support = support
        self.grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        self.shape = values.shape[1:]
        self.values = values  # at the grid nodes
        self.coefficients = _natural_spline_coefficients(
            self.grid, values.reshape(len(self.grid), -1))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = t.ravel()
        lo, hi = self.support
        i = np.clip(np.searchsorted(self.grid, x, side="right") - 1,
                    0, len(self.grid) - 2)
        z = (x - self.grid[i])[:, None]
        c = self.coefficients[i]
        z2 = z * z
        value = c[:, 3] + c[:, 2] * z + c[:, 1] * z2 + c[:, 0] * (z2 * z)
        value[~((lo < x) & (x < hi))] = 0.0
        return value.reshape(t.shape + self.shape)


def _extraction_grid(bd: BoundaryData):
    """The tangential grid of a correction step: 41 values of the first
    tangential coordinate across the cutoff support padded by 2% each side,
    the mask of those strictly inside it, and the inside ones as (M, n-1)
    points y through the reference point."""
    lo, hi = bd.y_support
    pad = 0.02 * (hi - lo)
    ygrid = np.linspace(lo - pad, hi + pad, 41)
    inside = (lo < ygrid) & (ygrid < hi)
    return ygrid, inside, bd.line(ygrid[inside])


def correction_step(
    g_j: ExpansionMetric,
    g_1: ExpansionMetric,
) -> ExpansionMetric:
    """One order-raising step: cancel the leading residual coefficient.

    The residual coefficient at the current component exponent is extracted
    at the 39 inside values of a 41-node tangential grid (39 x 6 = 234
    points, in one evaluation), divided pointwise by the closed-form
    indicial block scalar of each component type (`indicial_blocks`), and
    the correction re-extracted once so that quadratic cross terms at the
    same order are swept up as well.  The new coefficient is stored as a
    spline on all 41 nodes and vanishes identically outside the cutoff
    support.  Raises CharacteristicExponentHit at a singular exponent.
    """
    bd = g_j.bd
    t = g_j.order - 2  # residual component exponent: -1 for stage 1, then 0, 1, ...
    blocks = indicial_blocks(float(t + 2), bd.n)
    vanishing = blocks.vanishing()
    if vanishing:
        raise CharacteristicExponentHit(
            f"stage {g_j.order + 1}: {vanishing}; the construction stops here")
    ygrid, inside, ys = _extraction_grid(bd)
    hhats = bd.hhat(ys)
    n = bd.n

    coeff = np.zeros((len(ygrid), n, n))
    current = g_j
    for _ in range(2):
        raw, resids, scales = extract_residual_coefficient(current, g_1, t, ys)
        scale = float(scales.max())
        if scale > 0 and resids.max() > 0.05 * scale:
            raise IndicialExtractionFailure(
                f"residual coefficient extraction unstable (fit residual "
                f"{resids.max():.2e} vs scale {scale:.2e}) at stage {g_j.order}"
            )
        new_vals = np.zeros_like(coeff)
        new_vals[inside] = blocks.solve(-raw, hhats)
        coeff = coeff + new_vals
        fn = _SplineCoefficient(ygrid, coeff, bd.y_support)
        current = ExpansionMetric(bd, g_j.coefficients + (fn,))
        if float(np.abs(new_vals).max()) < 1e-9:
            break
    return current


def stage_cap(n: int, stages: Optional[int] = None) -> int:
    """The last stage `S_map` builds in dimension n: `stages`, at most
    n - 1, one order before the first characteristic exponent."""
    return n - 1 if stages is None else min(stages, n - 1)


def stage_slope(j: int) -> float:
    """The residual vanishing order stage j of the ladder must reach: j, less
    the slack of the differencing; 0.9 at stage 1, 1.85 at stage 2 and
    j - 0.3 from stage 3 on."""
    return {1: 0.9, 2: 1.85}.get(j, j - 0.3)


def S_map(
    bd: BoundaryData,
    stages: Optional[int] = None,
) -> list[ExpansionMetric]:
    """Build the expansion ladder g_1, g_2, ..., up to stage
    `stage_cap(n, stages)`."""
    out = [T_map(bd)]
    while out[-1].order < stage_cap(bd.n, stages):
        out.append(correction_step(out[-1], out[0]))
    return out


# -- vanishing-order diagnostics -------------------------------------------------


@dataclass
class VanishingOrderFit:
    """Log-log decay fit of the residual over a family of base points."""

    slope: float  # max of the per-sample slopes; NaN if one is unresolved
    per_y: list[dict]
    sentinel: bool  # every sample below the floor (exact solution)


def vanishing_order(
    gL,
    gR,
    rho_samples: Sequence[float],
    y_samples: Sequence[np.ndarray],
) -> VanishingOrderFit:
    """Least-squares slope of log |Q(gL, gR) - Q(h, h)|_h against log rho,
    for two fields (expansion stages, or any field of `tensorcalc`).

    Values at or below the floor 1e-13 are left out of the fit; samples with
    all values below it are reported with an infinite sentinel slope and
    excluded from the headline maximum.  A sample with one value above the
    floor fixes no slope: it is reported unresolved (slope and residual
    NaN), and so is the headline.  Q(h, h) comes from gL's boundary data,
    so fits of every stage of one ladder on the same samples compute it
    once; a field with no boundary data computes it in the call.
    """
    chart = gL.chart
    rho_samples = np.asarray(sorted(rho_samples, reverse=True), dtype=float)
    ys = np.array(y_samples, dtype=float)
    points = _grid_points(rho_samples, ys).reshape(-1, chart.n)
    q = _residuals(gL, gR, points)
    all_norms = tensor_norm(chart.metric_at(points), q).reshape(len(ys), -1)

    per_y = []
    slopes = []
    for y, norms in zip(ys, all_norms):
        if norms.max() < 1e-13:
            per_y.append({"y": y.tolist(), "slope": SLOPE_SENTINEL,
                          "residual": 0.0, "norms": norms.tolist()})
            continue
        keep = norms > 1e-13
        if keep.sum() < 2:
            per_y.append({"y": y.tolist(), "slope": math.nan,
                          "residual": math.nan, "norms": norms.tolist()})
            slopes.append(math.nan)
            continue
        logr = np.log(rho_samples[keep])
        logn = np.log(norms[keep])
        slope, intercept = np.polyfit(logr, logn, 1)
        resid = float(np.abs(np.polyval([slope, intercept], logr) - logn).max())
        per_y.append({"y": y.tolist(), "slope": float(slope),
                      "residual": resid, "norms": norms.tolist()})
        slopes.append(float(slope))

    if not slopes:
        return VanishingOrderFit(slope=SLOPE_SENTINEL, per_y=per_y, sentinel=True)
    headline = math.nan if any(map(math.isnan, slopes)) else max(slopes)
    return VanishingOrderFit(slope=headline, per_y=per_y, sentinel=False)


def gauge_term_norm(g, points: Sequence[np.ndarray],
                    step: float = DEFAULT_STEP) -> float:
    """Max |gauge term of Q(g, g)|_h over the sampled points of a field
    (vanishes in exact arithmetic when both slots agree)."""
    points = np.array(points, dtype=float)
    val = Q_gauge_at(g, g, points, step)
    return float(tensor_norm(g.chart.metric_at(points), val).max())
