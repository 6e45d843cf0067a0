"""Discrete Dirichlet problems on truncated chart grids.

The reduced operator Delta + K is assembled in flux (divergence) form on
structured 2D grids over the (r, theta0), (rho, y) or (r,) coordinates; for
data independent of the remaining angles the reduction is exact because the
transverse Laplacian blocks annihilate such functions.  Multiplying through
by the volume density gives a symmetric matrix, which is factored once
per operator (sparse LU) for the coercivity check and every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .charts import (
    Chart,
    INTERMEDIATE_CUSP,
    MAXIMAL_CUSP,
    COLLAR,
    NonConvergence,
    smooth_bump,
)
from .weights import (
    WeightVector,
    cusp_margin,
    h0_margin,
    maximal_margin,
)


class IndefiniteOperator(NonConvergence):
    """The symmetrized operator is not positive definite."""


class SupportViolation(ValueError):
    """A nominally compactly supported field touches the grid boundary."""


@dataclass(frozen=True)
class Grid2D:
    """Structured grid over the two active coordinates of a truncated chart.

    axes holds the node coordinates per active axis, the chart's leading
    coordinates in order (the maximal-rank cusp uses a single axis).  Every
    node lies in the chart's coordinate ranges and satisfies sigma >= eps;
    all outer sides carry Dirichlet data.
    """

    chart: Chart
    axis_names: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    eps: float

    def __post_init__(self):
        ranges = self.chart.coordinate_ranges()
        for name, ax, (lo, hi) in zip(self.axis_names, self.axes, ranges):
            if len(ax) < 8:
                raise ValueError("grids need at least 8 nodes per axis")
            d = np.diff(ax)
            if not np.allclose(d, d[0], rtol=1e-12, atol=0):
                raise ValueError("grid spacing must be uniform per axis")
            out = ax[(ax < lo) | (ax > hi) | ((ax <= lo) & (lo == 0.0))]
            if out.size:
                raise ValueError(f"grid axis {name} has a node at {out[0]}, "
                                 f"outside the chart's range [{lo}, {hi}]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        sig = self.sigma()
        if sig.min() < self.eps - 1e-12:
            raise ValueError("grid leaves the exhaustion domain sigma >= eps")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def interior_mask(self) -> np.ndarray:
        m = np.ones(self.shape, dtype=bool)
        for d in range(self.ndim):
            idx_lo = [slice(None)] * self.ndim
            idx_hi = [slice(None)] * self.ndim
            idx_lo[d] = 0
            idx_hi[d] = -1
            m[tuple(idx_lo)] = False
            m[tuple(idx_hi)] = False
        return m

    # -- chart-geometry samples on nodes ---------------------------------

    def _uv(self):
        if self.ndim == 1:
            return (self.axes[0],)
        return self.meshes()

    def sigma(self) -> np.ndarray:
        """Raw defining-function product on nodes (no edge truncation: the
        grid sits inside the tubular neighbourhood)."""
        if self.chart.kind == INTERMEDIATE_CUSP:
            r, th = self.meshes()
            return r * np.cos(th)
        if self.chart.kind == MAXIMAL_CUSP:
            return self.axes[0].copy()
        r = self.meshes()[0]
        return r.copy()

    def sigma_mu(self, w: WeightVector) -> np.ndarray:
        """Multi-weight sigma^mu on nodes (the cusp weight of end 0)."""
        if self.chart.kind == INTERMEDIATE_CUSP:
            r, th = self.meshes()
            return np.cos(th) ** w.mu0 * r ** w.mus[0]
        if self.chart.kind == MAXIMAL_CUSP:
            return self.axes[0] ** w.mus[0]
        rho = self.meshes()[0]
        return rho ** w.mu0

    def _coefficients(self):
        """(W, [A_1, A_2, ...]) on the nodes; see _flux_coefficients."""
        return _flux_coefficients(self.chart, self.axes)

    def _coefficients_midpoint(self, axis: int) -> np.ndarray:
        """Flux coefficient A_axis evaluated at staggered midpoints."""
        mid_axes = list(self.axes)
        a = self.axes[axis]
        mid_axes[axis] = 0.5 * (a[1:] + a[:-1])
        return _flux_coefficients(self.chart, mid_axes)[1][axis]


def _flux_coefficients(chart: Chart, axes: Sequence[np.ndarray]):
    """(W, [A_1, A_2, ...]) on the tensor grid of the given axes, with W the
    reduced volume density and A_d the flux coefficient W * h^{dd} along
    each active axis."""
    kind = chart.kind
    n = chart.n
    meshes = np.meshgrid(*axes, indexing="ij")
    if kind == INTERMEDIATE_CUSP:
        f, b = chart.f, chart.b
        r, th = meshes
        W = r ** (f - 1) * np.sin(th) ** (b - 1) / np.cos(th) ** n
        c2 = np.cos(th) ** 2
        return W, [W * r * r * c2, W * c2]
    if kind == COLLAR:
        _require_euclidean_collar(chart)
        rho = meshes[0]
        W = rho ** (-float(n))
        A = W * rho * rho
        return W, [A, A.copy()]
    if kind == MAXIMAL_CUSP:
        r = meshes[0]
        W = r ** (n - 2.0)
        return W, [W * r * r]
    raise ValueError(f"no reduced operator for chart kind {kind!r}")


def _require_euclidean_collar(chart: Chart) -> None:
    """The closed-form collar densities, Christoffels and norms in this module
    hold for the Euclidean collar family only."""
    if chart.h_u_name != "euclidean":
        raise ValueError(f"this collar formula assumes the Euclidean family, "
                         f"the chart has {chart.h_u_name!r}")


def cusp_grid(chart: Chart, eps: float, nodes: int = 48) -> Grid2D:
    """Inscribed rectangle of the exhaustion domain on a cusp chart:
    r in [sqrt(eps), edge], theta0 in [0.2, arccos(sqrt(eps))], so the
    corner node realizes sigma = eps exactly."""
    if chart.kind != INTERMEDIATE_CUSP:
        raise ValueError("cusp_grid needs an intermediate-rank cusp chart")
    r_lo = math.sqrt(eps)
    th_hi = math.acos(math.sqrt(eps))
    if not (r_lo < chart.edge and 0.2 < th_hi):
        raise ValueError(f"eps = {eps} leaves no room in the chart")
    return Grid2D(
        chart,
        ("r", "theta0"),
        (np.linspace(r_lo, chart.edge, nodes), np.linspace(0.2, th_hi, nodes)),
        eps,
    )


def collar_grid(
    chart: Chart,
    eps: float,
    nodes: int = 48,
    y_range: tuple[float, float] = (-1.0, 1.0),
) -> Grid2D:
    if chart.kind != COLLAR:
        raise ValueError("collar_grid needs a collar chart")
    return Grid2D(
        chart,
        ("rho", "y"),
        (np.linspace(eps, chart.edge, nodes), np.linspace(*y_range, nodes)),
        eps,
    )


def compact_patch_grid(
    chart: Chart,
    nodes: int,
    rho_range: tuple[float, float],
    y_range: tuple[float, float],
) -> Grid2D:
    """Compact patch well inside a collar chart, for quadrature tests."""
    return Grid2D(
        chart,
        ("rho", "y"),
        (np.linspace(*rho_range, nodes), np.linspace(*y_range, nodes)),
        rho_range[0],
    )


def maximal_grid(chart: Chart, eps: float, nodes: int = 64) -> Grid2D:
    if chart.kind != MAXIMAL_CUSP:
        raise ValueError("maximal_grid needs a maximal-rank cusp chart")
    return Grid2D(chart, ("r",), (np.linspace(eps, chart.edge, nodes),), eps)


@dataclass
class DiscreteField:
    """Scalar (or component-stacked) values on the nodes of a grid."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[: self.grid.ndim] != self.grid.shape:
            raise ValueError("field shape does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @property
    def is_tensor(self) -> bool:
        return self.values.ndim > self.grid.ndim


def sample_field(grid: Grid2D, fn: Callable) -> DiscreteField:
    pts = grid._uv()
    return DiscreteField(grid, fn(*pts))


@dataclass
class SparseOperator:
    """Discrete Delta + K with Dirichlet rows eliminated.

    matrix is the symmetric weighted form L = -D^T C D + K diag(W) acting on
    interior unknowns; cross couples interior rows to boundary nodes; the
    pointwise operator is diag(1/W) (L u_int + cross u_bdy).

    The operator is factored at most once: the coercivity decision, the
    eigenvalue probe and every solve share one sparse LU.
    """

    grid: Grid2D
    K: float
    matrix: sp.csr_matrix
    cross: sp.csr_matrix
    weight: np.ndarray
    interior: np.ndarray  # flat indices of interior nodes
    boundary: np.ndarray
    _lu: Optional[spla.SuperLU] = field(default=None, init=False, repr=False,
                                        compare=False)
    min_eigenvalue: Optional[float] = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def pattern_symmetric(self) -> bool:
        d = (self.matrix - self.matrix.T).tocoo()
        return len(d.data) == 0 or float(np.abs(d.data).max()) < 1e-10

    @property
    def n_unknowns(self) -> int:
        return len(self.interior)

    def apply_to_values(self, values: np.ndarray) -> np.ndarray:
        """(Delta + K) applied to node values, returned on interior nodes."""
        v = values.reshape(-1)
        out = self.matrix @ v[self.interior] + self.cross @ v[self.boundary]
        return out / self.weight

    def factor(self) -> spla.SuperLU:
        """Sparse LU of the symmetric form, computed on first use; every
        Dirichlet solve on this operator is one back-substitution with it.

        SuperLU's symmetric mode orders A + A^T and prefers diagonal pivots,
        so for a symmetric matrix without zero pivots P A P^T = L D L^T with
        U = D L^T.
        """
        if self._lu is None:
            try:
                self._lu = spla.splu(
                    self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise NonConvergence(f"sparse factorization failed: {exc}") from exc
        return self._lu

    def smallest_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetric form, cached on the operator.

        With the pivots on the diagonal, Sylvester's law of inertia makes the
        number of nonpositive pivots of L D L^T the number of nonpositive
        eigenvalues; IndefiniteOperator reports it when it is not zero.
        Otherwise the smallest eigenvalue is the one nearest 0, found by
        shift-invert Lanczos on the cached factorization from a fixed start
        vector, so the value repeats run to run.
        """
        if self.min_eigenvalue is None:
            lu = self.factor()
            if not np.array_equal(lu.perm_r, lu.perm_c):
                raise NonConvergence(
                    "sparse factorization pivoted off the diagonal; "
                    "its inertia does not count eigenvalues")
            count = int(np.count_nonzero(lu.U.diagonal() <= 0))
            if count:
                raise IndefiniteOperator(
                    f"symmetrized operator has {count} nonpositive eigenvalues "
                    "(inertia of its L D L^T factorization); the discrete "
                    "problem is not coercive")
            inverse = spla.LinearOperator(self.matrix.shape, matvec=lu.solve,
                                          dtype=float)
            try:
                vals = spla.eigsh(
                    self.matrix, k=1, sigma=0.0, which="LM", OPinv=inverse,
                    tol=1e-4, v0=np.ones(self.n_unknowns),
                    return_eigenvectors=False,
                )
            except spla.ArpackNoConvergence as exc:
                raise NonConvergence(f"coercivity probe did not converge: {exc}") from exc
            self.min_eigenvalue = float(vals[0])
        return self.min_eigenvalue


def assemble(grid: Grid2D, K: float) -> SparseOperator:
    """Second-order flux-form discretization of Delta + K on the grid.

    The matrix built here is the weighted symmetric form: row i holds
    W_i ((Delta + K) u)_i, with midpoint flux coefficients, so applying it to
    a constant returns exactly K * W * const.
    """
    shape = grid.shape
    ntot = int(np.prod(shape))
    W = np.asarray(grid._coefficients()[0], dtype=float)
    interior = grid.interior_mask().reshape(-1)
    nodes = np.arange(ntot).reshape(shape)

    diag = K * W
    rows, cols, vals = [], [], []
    for axis in range(grid.ndim):
        dx = grid.spacing[axis]
        a = np.asarray(grid._coefficients_midpoint(axis), dtype=float) / (dx * dx)
        # every edge along this axis joins node lo to node hi
        lo = [slice(None)] * grid.ndim
        hi = [slice(None)] * grid.ndim
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        diag[hi] += a
        diag[lo] += a
        rows += [nodes[lo], nodes[hi]]
        cols += [nodes[hi], nodes[lo]]
        vals += [-a, -a]
    rows.append(nodes)
    cols.append(nodes)
    vals.append(diag)

    L_all = sp.coo_matrix(
        (np.concatenate([v.reshape(-1) for v in vals]),
         (np.concatenate([r.reshape(-1) for r in rows]),
          np.concatenate([c.reshape(-1) for c in cols]))),
        shape=(ntot, ntot),
    ).tocsr()

    int_idx = np.flatnonzero(interior)
    bdy_idx = np.flatnonzero(~interior)
    L_int = L_all[int_idx][:, int_idx].tocsr()
    cross = L_all[int_idx][:, bdy_idx].tocsr()
    return SparseOperator(
        grid=grid,
        K=K,
        matrix=L_int,
        cross=cross,
        weight=W.reshape(-1)[int_idx],
        interior=int_idx,
        boundary=bdy_idx,
    )


def solve_dirichlet(op: SparseOperator, f: DiscreteField | np.ndarray) -> DiscreteField:
    """Solve (Delta + K) u = f with zero Dirichlet data on all grid sides.

    The solve is one back-substitution with the operator's cached sparse LU
    (SparseOperator.factor).  For K < 0 coercivity is checked first
    (SparseOperator.smallest_eigenvalue) and an IndefiniteOperator error
    raised when the symmetric form is not positive.  A pointwise residual
    above 1e-8 |f| raises NonConvergence with that residual.
    """
    fv = f.values if isinstance(f, DiscreteField) else np.asarray(f, dtype=float)
    fv = fv.reshape(-1)
    rhs = op.weight * fv[op.interior]

    if op.K < 0:
        lam = op.smallest_eigenvalue()
        if lam <= 0:
            raise IndefiniteOperator(
                f"symmetrized operator has smallest eigenvalue {lam:.3e} <= 0; "
                "the discrete problem is not coercive", residual=math.nan
            )

    full = np.zeros(int(np.prod(op.grid.shape)))
    full[op.interior] = op.factor().solve(rhs)

    resid = op.apply_to_values(full) - fv[op.interior]
    tol = 1e-8 * (float(np.abs(fv[op.interior]).max()) or 1.0)
    rinf = float(np.abs(resid).max())
    if rinf > max(tol, 1e-30):
        raise NonConvergence(f"residual {rinf:.3e} exceeds 1e-8 * |f| = {tol:.3e}",
                             residual=rinf)
    return DiscreteField(op.grid, full.reshape(op.grid.shape))


def weighted_sup_norm(u: DiscreteField, w: WeightVector) -> float:
    """Weighted sup norm max |u| / sigma^mu over the grid nodes; tensor-mode
    fields are reduced to the pointwise metric norm of their components."""
    smu = u.grid.sigma_mu(w)
    if u.is_tensor:
        vals = _pointwise_tensor_norm(u)
    else:
        vals = np.abs(u.values)
    return float((vals / smu).max())


def _pointwise_tensor_norm(u: DiscreteField) -> np.ndarray:
    grid = u.grid
    if grid.chart.kind != COLLAR:
        raise NotImplementedError("tensor-mode norms are used on collar patches")
    _require_euclidean_collar(grid.chart)
    rho = grid.meshes()[0]
    return rho ** 2 * np.sqrt(np.einsum("xyij,xyij->xy", u.values, u.values))


# -- exhaustion sweep ---------------------------------------------------------


def default_bump_recipe(w: WeightVector):
    """sigma^mu times a smooth bump supported in the coordinate box
    r in [0.55, 0.85], theta0 in [0.45, 1]."""
    (r0, r1), (t0, t1) = (0.55, 0.85), (0.45, 1.0)

    def recipe(r, th):
        br = smooth_bump((2 * r - (r0 + r1)) / (r1 - r0))
        bt = smooth_bump((2 * th - (t0 + t1)) / (t1 - t0))
        return np.cos(th) ** w.mu0 * r ** w.mus[0] * br * bt

    return recipe


@dataclass
class SweepRow:
    eps: float
    norm_u: float
    norm_f: float
    ratio: float
    mms_error: float
    shape: tuple[int, ...]
    error: Optional[str] = None
    min_eigenvalue: Optional[float] = None  # coercivity probe, when one ran


def exhaustion_sweep(
    chart: Chart,
    K: float,
    w: WeightVector,
    f_recipe: Callable,
    eps_list: Sequence[float],
    nodes: int = 48,
    on_error: str = "raise",
) -> list[SweepRow]:
    """Dirichlet solves over a shrinking family of truncation parameters.

    For each eps the fixed source recipe is sampled on the inscribed grid of
    {sigma >= eps}, the problem solved, and the weighted-norm ratio
    |u|_mu / |f|_mu recorded; uniform boundedness of this ratio is the
    quantity of interest.  The sampled source doubles as a manufactured
    solution: it is pushed through the assembled operator and solved for
    again to measure the solver error.

    Solver failures propagate per eps: with on_error='record' the row keeps
    the error message and the sweep continues, so partial tables survive.
    """
    if any(b >= a for a, b in zip(eps_list, list(eps_list)[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    rows = []
    for eps in eps_list:
        grid = cusp_grid(chart, eps, nodes=nodes)
        op = assemble(grid, K)
        f = sample_field(grid, f_recipe)
        try:
            u = solve_dirichlet(op, f)
            nu = weighted_sup_norm(u, w)
            nf = weighted_sup_norm(f, w)

            rhs = np.zeros(grid.shape)
            rhs[grid.interior_mask()] = op.apply_to_values(f.values)
            u_sol = solve_dirichlet(op, DiscreteField(grid, rhs))
            scale = float(np.abs(f.values).max()) or 1.0
            mms = float(np.abs(u_sol.values - f.values).max()) / scale
        except NonConvergence as exc:
            if on_error == "raise":
                raise
            rows.append(SweepRow(eps, math.nan, math.nan, math.nan, math.nan,
                                 grid.shape, error=str(exc)))
            continue
        rows.append(SweepRow(eps, nu, nf, nu / nf, mms, grid.shape,
                             min_eigenvalue=op.min_eigenvalue))
    return rows


def plateau_factor(rows: Sequence[SweepRow]) -> float:
    ratios = [r.ratio for r in rows if r.error is None]
    if not ratios:
        return math.nan
    return max(ratios) / min(ratios)


# -- barrier ratio check --------------------------------------------------------


@dataclass
class MaxPrincipleReport:
    min_ratio: float
    closed_form_delta: float
    tolerance: float
    passed: bool
    nodes_checked: int


def maximum_principle_check(op: SparseOperator, w: WeightVector) -> MaxPrincipleReport:
    """Evaluate the assembled (Delta + K) sigma^mu / sigma^mu over interior
    nodes and compare its minimum against the closed-form margin, within
    50 h^2 for the largest spacing h."""
    grid, K = op.grid, op.K
    smu = grid.sigma_mu(w)
    ratio = op.apply_to_values(smu) / smu.reshape(-1)[op.interior]
    spc = max(grid.spacing)
    if grid.chart.kind == INTERMEDIATE_CUSP:
        delta = cusp_margin(K, w.mus[0], w.mu0, grid.chart.f, w.n).delta
    elif grid.chart.kind == MAXIMAL_CUSP:
        delta = maximal_margin(K, w.mus[0], w.n).delta
    else:
        delta = h0_margin(K, w.mu0, w.n).delta
    tol = 50.0 * spc * spc
    min_ratio = float(ratio.min())
    return MaxPrincipleReport(
        min_ratio=min_ratio,
        closed_form_delta=delta,
        tolerance=tol,
        passed=min_ratio >= delta - tol,
        nodes_checked=int(ratio.size),
    )


# -- quadrature identities on a compact hyperbolic patch -----------------------


def _collar_christoffels(n: int, rho: np.ndarray) -> np.ndarray:
    """Closed-form Christoffels of (d rho^2 + |dy|^2) / rho^2 on node arrays;
    returned as gam[..., k, i, j]."""
    shp = rho.shape
    gam = np.zeros(shp + (n, n, n))
    inv = 1.0 / rho
    gam[..., 0, 0, 0] = -inv
    for a in range(1, n):
        gam[..., 0, a, a] = inv
        gam[..., a, 0, a] = -inv
        gam[..., a, a, 0] = -inv
    return gam


def _grid_partials(grid: Grid2D, comp: np.ndarray) -> list[np.ndarray]:
    """Central differences of node arrays along the two active axes."""
    out = []
    for axis in range(grid.ndim):
        out.append(np.gradient(comp, grid.spacing[axis], axis=axis, edge_order=2))
    return out


def _covariant_derivative(grid: Grid2D, u: np.ndarray) -> np.ndarray:
    """nabla u on the collar patch for a covariant tensor u of any rank on
    the nodes (node axes, then the slots); derivative index first,
    nab[x, y, k, i, ...] = nabla_k u_{i ...}."""
    _require_euclidean_collar(grid.chart)
    n = grid.chart.n
    gam = _collar_christoffels(n, grid.meshes()[0])
    idx = "ijpqrs"[: u.ndim - 2]
    nab = np.zeros(grid.shape + (n,) + u.shape[2:])
    for axis, d in enumerate(_grid_partials(grid, u)):
        nab[:, :, axis] = d
    for s, c in enumerate(idx):
        slot = idx[:s] + "m" + idx[s + 1:]
        nab -= np.einsum(f"...mk{c},...{slot}->...k{idx}", gam, u)
    return nab


def _trapezoid_weights(grid: Grid2D) -> np.ndarray:
    ws = []
    for ax, d in zip(grid.axes, grid.spacing):
        w = np.full(len(ax), d)
        w[0] = w[-1] = d / 2.0
        ws.append(w)
    return np.multiply.outer(*ws) if grid.ndim == 2 else ws[0]


def check_support_margin(grid: Grid2D, values: np.ndarray):
    """Raise SupportViolation unless the field vanishes within 3 nodes of
    every grid side."""
    v = np.abs(values)
    while v.ndim > grid.ndim:
        v = v.max(axis=-1)
    for axis in range(grid.ndim):
        sl_lo = [slice(None)] * grid.ndim
        sl_hi = [slice(None)] * grid.ndim
        sl_lo[axis] = slice(0, 3)
        sl_hi[axis] = slice(-3, None)
        if v[tuple(sl_lo)].max() > 0 or v[tuple(sl_hi)].max() > 0:
            raise SupportViolation(
                "field support reaches within 3 nodes of the boundary"
            )


@dataclass
class KoisoResult:
    """Both sides of the integration-by-parts identity and the improved
    lower bound slack for the tensor Laplacian."""

    lhs: float                 # |nabla u|^2
    rhs: float                 # |T|^2/2 + |div u|^2 - |tr u|^2 + n |u|^2
    gap: float
    grad_sq: float
    t_sq: float
    div_sq: float
    tr_sq: float
    u_sq: float
    pairing: float             # (u, (nabla*nabla + K) u)
    slack: float               # pairing - (n + K) |u|^2


def koiso_quadrature(grid: Grid2D, u: DiscreteField, K: float = -2.0) -> KoisoResult:
    """Trapezoid quadrature of the tensor integration-by-parts identity on a
    compact hyperbolic collar patch.

    u holds symmetric 2-tensor components on the nodes (shape grid.shape +
    (n, n)), compactly supported away from the patch boundary so that no
    boundary terms arise.
    """
    if grid.chart.kind != COLLAR:
        raise ValueError("the quadrature patch must be a collar chart")
    n = grid.chart.n
    vals = u.values
    if vals.shape != grid.shape + (n, n):
        raise ValueError("tensor field must have shape grid.shape + (n, n)")
    check_support_margin(grid, vals)

    rho = grid.meshes()[0]
    dv = rho ** (-float(n)) * _trapezoid_weights(grid)
    up2 = rho ** 2  # inverse metric is rho^2 * identity here

    nab = _covariant_derivative(grid, vals)
    grad_sq = float(np.sum(dv * up2 ** 3 * np.einsum("xykij,xykij->xy", nab, nab)))

    T = nab - np.einsum("...kij->...ikj", nab)  # T_ijk = nabla_k u_ij - nabla_i u_jk, slots (k,i,j)
    t_sq = float(np.sum(dv * up2 ** 3 * np.einsum("xykij,xykij->xy", T, T)))

    div = np.einsum("xy,xykkj->xyj", up2, nab)
    div_sq = float(np.sum(dv * up2 * np.einsum("xyj,xyj->xy", div, div)))

    tr = up2 * np.einsum("xyii->xy", vals)
    tr_sq = float(np.sum(dv * tr ** 2))

    u_sq = float(np.sum(dv * up2 ** 2 * np.einsum("xyij,xyij->xy", vals, vals)))

    lhs = grad_sq
    rhs = 0.5 * t_sq + div_sq - tr_sq + n * u_sq

    # second route: pair u against the discrete rough Laplacian plus K
    nab2 = _covariant_derivative(grid, nab)
    rough = -np.einsum("xy,xyllij->xyij", up2, nab2)
    p2u = rough + K * vals
    pairing = float(np.sum(dv * up2 ** 2 * np.einsum("xyij,xyij->xy", vals, p2u)))

    return KoisoResult(
        lhs=lhs,
        rhs=rhs,
        gap=abs(lhs - rhs),
        grad_sq=grad_sq,
        t_sq=t_sq,
        div_sq=div_sq,
        tr_sq=tr_sq,
        u_sq=u_sq,
        pairing=pairing,
        slack=pairing - (n + K) * u_sq,
    )


def random_bump_tensor(
    grid: Grid2D,
    rng: np.random.Generator,
    trace_free: bool = True,
) -> DiscreteField:
    """Seeded smooth compactly supported symmetric tensor field on the patch.

    The bump geometry is fixed in physical coordinates (support strictly
    inside the patch by a fifth of each side), so the same seed
    samples the same function on every refinement of the patch.  With
    trace_free=True the constant coefficient matrices are Euclidean
    trace-free, which makes the field pointwise trace-free for the conformal
    patch metric.
    """
    n = grid.chart.n
    rho, y = grid.meshes()
    lo = [ax[0] + 0.2 * (ax[-1] - ax[0]) for ax in grid.axes]
    hi = [ax[-1] - 0.2 * (ax[-1] - ax[0]) for ax in grid.axes]

    def bump(center, width):
        tr = (2 * rho - 2 * center[0]) / width[0]
        ty = (2 * y - 2 * center[1]) / width[1]
        return smooth_bump(tr) * smooth_bump(ty)

    vals = np.zeros(grid.shape + (n, n))
    for _ in range(2):
        center = [rng.uniform(l + 0.3 * (h - l), h - 0.3 * (h - l))
                  for l, h in zip(lo, hi)]
        width = [min(center[0] - lo[0], hi[0] - center[0]) * 2,
                 min(center[1] - lo[1], hi[1] - center[1]) * 2]
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        if trace_free:
            A -= np.trace(A) / n * np.eye(n)
        vals += bump(center, width)[..., None, None] * A
    return DiscreteField(grid, vals)


# -- rescaled-metric uniformity scan -------------------------------------------


@dataclass(frozen=True)
class ScanFamily:
    """One rescaling family scanned across eps at a fixed shape parameter:
    v0 = ratio * eps * direction, which the uniform-boundedness claim says
    makes the coefficient bands eps-independent."""

    name: str
    case: str
    n: int
    f: Optional[int] = None
    ratio: float = 0.0


@dataclass
class ScanRow:
    family: str
    eps: float
    min_eig: float
    max_eig: float
    cond: float
    max_coeff_diff: float


def half_ball_lattice(points_per_axis: int = 9) -> np.ndarray:
    """Lattice over (s, t_p, t_q) inside the unit half-ball: s >= 0 along the
    radial direction, t_p along a fixed transverse direction, t_q along a
    fixed cusp direction; points in lexicographic (s, t_p, t_q) order."""
    s = np.linspace(0.0, 0.9, points_per_axis)
    t = np.linspace(-0.9, 0.9, points_per_axis)
    a, b, c = np.meshgrid(s, t, t, indexing="ij")
    inside = a * a + b * b + c * c < 0.995
    return np.stack([a[inside], b[inside], c[inside]], axis=1)


def schauder_coefficient_scan(
    families: Sequence[ScanFamily],
    eps_list: Sequence[float],
    points_per_axis: int = 9,
) -> list[ScanRow]:
    """Extremal eigenvalues and first-difference coefficient variation of the
    rescaled metrics over a fixed reference lattice, per family and eps.  The
    lattice's t_q runs along the last coordinate on the collar and along the
    first cusp direction otherwise."""
    from .charts import RescalingCase, rescaled_metric_at

    lattice = half_ball_lattice(points_per_axis)
    rows = []
    for fam in families:
        for eps in eps_list:
            if fam.case == "collar":
                v0 = np.full(fam.n - 1, fam.ratio * eps / math.sqrt(fam.n - 1))
                case = RescalingCase("collar", fam.n, eps, v0=v0)
                tq_axis = fam.n - 1
            else:
                v0 = np.zeros(fam.n - 1 - fam.f)
                if fam.ratio > 0:
                    v0[0] = fam.ratio * eps
                case = RescalingCase(fam.case, fam.n, eps, v0=v0, f=fam.f)
                tq_axis = fam.n - fam.f
            q = np.zeros((len(lattice), fam.n))
            q[:, 0] = lattice[:, 0]
            q[:, 1] = lattice[:, 1]
            q[:, tq_axis] = lattice[:, 2]
            mats = rescaled_metric_at(case, q)
            eigs = np.linalg.eigvalsh(mats)
            coeff_diff = float(
                np.abs(np.diff(mats.reshape(len(mats), -1), axis=0)).max()
            )
            rows.append(
                ScanRow(
                    family=fam.name,
                    eps=eps,
                    min_eig=float(eigs.min()),
                    max_eig=float(eigs.max()),
                    cond=float(eigs.max() / eigs.min()),
                    max_coeff_diff=coeff_diff,
                )
            )
    return rows


def default_scan_families(n: int = 4, f: int = 1) -> list[ScanFamily]:
    if not 1 <= f <= n - 2:
        raise ValueError(f"scan families need a cusp rank 1 <= f <= n - 2, "
                         f"got f = {f} at n = {n}")
    return [
        ScanFamily("near_axis", "cusp_near_axis", n, f=f, ratio=0.5),
        ScanFamily("off_axis", "cusp_off_axis", n, f=f, ratio=5.0),
        ScanFamily("collar", "collar", n, ratio=0.0),
    ]


def condition_number_spread(rows: Sequence[ScanRow]) -> dict[str, float]:
    """Per-family max relative deviation of the condition number from the
    family median across eps."""
    by_family: dict[str, list[float]] = {}
    for r in rows:
        by_family.setdefault(r.family, []).append(r.cond)
    out = {}
    for fam, conds in by_family.items():
        med = float(np.median(conds))
        out[fam] = float(max(abs(c - med) / med for c in conds))
    return out
