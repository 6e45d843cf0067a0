"""Discrete Dirichlet problems on truncated chart grids.

The reduced operator Delta + K is discretized in flux (divergence) form on
structured grids over a chart's first one or two coordinates, by one rule:
the volume density and the metric's diagonal are read from the chart, whose
metric must be diagonal in the grid axes and factor across them
(_flux_factors); for data independent of the other coordinates the
reduction is exact because the transverse Laplacian blocks annihilate such
functions.  Multiplying through by the volume density gives a symmetric
form, a Kronecker sum of 1-D tridiagonal stencils, one per axis, built once
per grid (a one-axis grid gets a second axis of one node).  No matrix is
assembled: the form's product, the pointwise apply with Dirichlet data and
the fast-diagonalization factor (one generalized eigendecomposition per
axis, serving the coercivity check and every solve) all read the stencils.

The axis eigendecompositions, the coercivity probe and the solves run
with numpy's OpenBLAS capped at one thread, the previous count restored
afterwards, so the solver's numbers do not depend on the thread count.
The axis eigendecompositions and the probe's Ritz values come from LAPACK
dstevd in the same OpenBLAS, so the solver loads no second BLAS.  Where
numpy bundles no OpenBLAS the solver can find, BLAS is left as it is (its
thread count, reported as null, is then the host's) and the
eigendecompositions fall back to scipy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .charts import Chart, INTERMEDIATE_CUSP, POLE_MARGIN, NonConvergence, smooth_bump
from .tensorcalc import _nabla
from .weights import WeightVector, cusp_margin, h0_margin


class IndefiniteOperator(NonConvergence):
    """The symmetrized operator is not positive definite."""


class SupportViolation(ValueError):
    """A nominally compactly supported field touches the grid boundary."""


# -- numpy's OpenBLAS: thread cap and tridiagonal eigensolver -----------------

# Thread-count entry points of the OpenBLAS bundled with numpy's wheels:
# scipy-openblas with 64-bit integers (numpy 2.0 on) and with 32-bit
# integers, and plain OpenBLAS before.
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_", "openblas_{}_num_threads",
)


@functools.cache
def _numpy_openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS library bundled with numpy, None when there is none.  It
    is looked up among the shared objects of numpy's wheel and bound only if
    numpy already loaded it (RTLD_NOLOAD), so no further copy of OpenBLAS is
    ever loaded."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob(f"{root.name}.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            return ctypes.CDLL(str(path), mode=noload)
        except OSError:
            continue
    return None


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's OpenBLAS, None when it
    has none the solver can find."""
    lib = _numpy_openblas()
    if lib is None:
        return None
    for name in _OPENBLAS_SYMBOLS:
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


_LAPACK_COL_MAJOR = 102


@functools.cache
def _lapacke_dstevd():
    """LAPACKE's dstevd in numpy's OpenBLAS (numpy 2.0 on, 64-bit integers),
    None when numpy bundles none."""
    lib = _numpy_openblas()
    fn = None if lib is None else getattr(lib, "scipy_LAPACKE_dstevd64_", None)
    if fn is not None:
        array = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                       array, array, array, ctypes.c_int64]
    return fn


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray):
    """(w, z): eigenvalues in ascending order and orthonormal eigenvectors,
    the columns of the Fortran-ordered z, of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e.  LAPACK dstevd, the routine
    scipy.linalg.eigh_tridiagonal runs, called in numpy's OpenBLAS, or
    scipy's routine where numpy bundles none; the two give the same bits.
    A failed decomposition raises LinAlgError."""
    dstevd = _lapacke_dstevd()
    if dstevd is None:
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(d, e)
    w = np.array(d, dtype=float)  # dstevd overwrites d with w and destroys e
    n = len(w)
    z = np.empty((n, n), order="F")
    info = dstevd(_LAPACK_COL_MAJOR, b"V", n, w, np.array(e, dtype=float), z, n)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dstevd failed with info = {info}")
    return w, z


class _DeferredModule:
    """A module imported on first attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# scipy.sparse.linalg, unused and not imported by the solver itself: the
# per-layer tracer of bench/layer_trace.py reads solver.spla and wraps its
# spsolve and cg.  ROADMAP item 1's next benchmark change drops that hook,
# and this handle with it.
spla = _DeferredModule("scipy.sparse.linalg")


# Relative spread within which chart values count as a product or a constant:
# their rounding reaches 1e-14 (n = 7), a metric that does not factor far more.
_SEPARABLE_RTOL = 1e-12

# Lanczos basis of the coercivity probe, which holds at most PROBE_BASIS + 1
# vectors and restarts from its top Ritz vector when they are all taken.
# The probe starts at the factor's lowest mode and stops by ARPACK's
# residual test at tol 1e-8, so the basis bounds its memory, not its
# accuracy: a Ritz value's error is at most |r|^2 / gap (Parlett 1980).
# Against a 24-vector ARPACK basis run to machine precision (tol 0) it read
# lambda_min within 2e-15 relative at K = -2 and K = 1 on cusp grids of
# ranks (n, f) in {(4, 1), (5, 1), (5, 2), (6, 2), (6, 3)} at 16 to 96 nodes
# per axis, on collar grids of 16 to 192 and on maximal-cusp grids of 30 to
# 1024 nodes, at eps 0.2 to 0.003.  It took 7 steps on the n = 4 cusp grids,
# 6 or 7 on the collars, 7 to 9 on the (5, 1) cusp and 11 to 18 on the
# rank-2 and rank-3 cusps, which restart; on the maximal cusp, whose Gram
# form is diagonal to rounding, the start vector is an eigenvector and one
# step passes the test.
PROBE_BASIS = 6
PROBE_TOL = 1e-8
# Gram-form applications after which the probe gives up (NonConvergence).
PROBE_MAX_STEPS = 300


def solve_blas_threads() -> Optional[int]:
    """OpenBLAS thread count of the solver's BLAS work: 1, None when no
    OpenBLAS was found and BLAS is left as it is."""
    return None if _openblas_threads() is None else 1


@contextlib.contextmanager
def _one_blas_thread():
    """Cap numpy's OpenBLAS at one thread for the block; its previous count
    is restored however the block ends."""
    threads = _openblas_threads()
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


@dataclass(frozen=True)
class Grid2D:
    """Structured grid over the two active coordinates of a truncated chart.

    axes holds the node coordinates per active axis, the chart's leading
    coordinates in order, named by chart.coordinate_names (the maximal-rank
    cusp uses a single axis).  Every node lies in the chart's coordinate
    ranges and satisfies sigma >= eps; all outer sides carry Dirichlet data.
    """

    chart: Chart
    axes: tuple[np.ndarray, ...]
    eps: float

    def __post_init__(self):
        ranges = self.chart.coordinate_ranges()
        for name, ax, (lo, hi) in zip(self.chart.coordinate_names, self.axes, ranges):
            if len(ax) < 8:
                raise ValueError("grids need at least 8 nodes per axis")
            # spacings of a uniform axis differ by the rounding of its node
            # coordinates, a few ulp of its largest |node|
            d = np.diff(ax)
            if not np.abs(d - d[0]).max() <= 8 * np.spacing(np.abs(ax).max()):
                raise ValueError("grid spacing must be uniform per axis")
            out = ax[(ax < lo) | (ax > hi) | ((ax <= lo) & (lo == 0.0))]
            if out.size:
                raise ValueError(f"grid axis {name} has a node at {out[0]}, "
                                 f"outside the chart's range [{lo}, {hi}]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        # sigma is an outer product of per-axis factors, so its least value
        # on the grid is one of the products of their extremes
        extremes = [np.array([f.min(), f.max()]) for f in self._sigma_factors()]
        if functools.reduce(np.multiply.outer, extremes).min() < self.eps - 1e-12:
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

    @property
    def interior(self) -> tuple[slice, ...]:
        """Index of the interior nodes, the unknowns of every solve."""
        return (slice(1, -1),) * self.ndim

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    # -- chart-geometry samples on nodes ---------------------------------

    def _sigma_factors(self) -> tuple[np.ndarray, ...]:
        """Per-axis factors of sigma: r cos(theta0) on the cusp, on a collar
        rho (u, or r on the maximal cusp) and ones on any second axis."""
        if self.chart.kind == INTERMEDIATE_CUSP:
            r, th = self.axes
            return r, np.cos(th)
        return (self.axes[0],) + tuple(np.ones(len(ax)) for ax in self.axes[1:])

    def sigma(self) -> np.ndarray:
        """Raw defining-function product on nodes, without edge truncation.

        This is not Chart.sigma_at, which blends to 1 over the outer
        TRUNC_FRACTION of the chart: the two agree only on nodes with r (or
        rho) <= (1 - TRUNC_FRACTION) * edge, and grids run to the edge, where
        they differ by up to about 0.05 at eps = 0.05."""
        return np.array(functools.reduce(np.multiply.outer, self._sigma_factors()))

    def sigma_mu(self, w: WeightVector) -> np.ndarray:
        """Multi-weight sigma^mu on nodes (the cusp weight of end 0): each
        factor of sigma raised to the weight of its end, and their outer
        product taken as in sigma.  On a chart with a cusp rank r takes mu_1
        and cos(theta0) mu0 (the maximal cusp's one factor r takes mu_1
        only); on a collar without one rho and its unit factor take mu0."""
        mu = (w.mu0, w.mu0) if self.chart.f is None else (w.mus[0], w.mu0)
        return functools.reduce(
            np.multiply.outer, [f ** m for f, m in zip(self._sigma_factors(), mu)])


def _flux_factors(chart: Chart, axes: Sequence[np.ndarray]):
    """Per-axis 1-D factors of the reduced volume density W and of the flux
    coefficients A_d = W / h_dd: W = w[0] x w[1] and A_d = a[d][0] x a[d][1]
    (outer products), where the factors on axis e depend on axes[e] only.

    One rule for every chart: W and h_dd are read from the chart at its base
    point (`Chart.reference_point`), on the line along each axis through it
    (`Chart.line`) and at the grid's corners; axis 1's factors are divided
    by the base point's values.  A chart whose W or h_dd does not factor
    across the axes at the corners is refused with the reason (every
    chart's metric is diagonal in its coordinates)."""
    ndim, names = len(axes), chart.coordinate_names[: len(axes)]
    refusal = f"no reduced operator on the {chart.kind} chart over ({', '.join(names)})"
    ref = chart.reference_point
    lines = [chart.line(d, ax) for d, ax in enumerate(axes)] + [ref[None]]
    if ndim == 2:  # the grid's corners
        corners = np.tile(ref, (4, 1))
        corners[:, 0], corners[:, 1] = axes[0][[0, 0, -1, -1]], axes[1][[0, -1, 0, -1]]
        lines.append(corners)
    pts = np.concatenate(lines)
    h, w = chart.metric_diagonal_and_density_at(pts)
    q = np.column_stack([w, h[:, :ndim]])  # W, h_dd
    *near, at_ref, at_corners = np.split(q, np.cumsum([len(ax) for ax in axes] + [1]))
    factors = [near[0]] + [v / at_ref for v in near[1:]]
    if ndim == 2:
        want = (factors[0][[0, -1], None] * factors[1][None, [0, -1]]).reshape(4, -1)
        off = (np.abs(at_corners - want) > _SEPARABLE_RTOL * np.abs(want)).any(axis=0)
        if off.any():
            what = ["the volume density"] + [f"the metric's ({x}, {x}) entry"
                                             for x in names]
            raise ValueError(f"{refusal}: {what[np.argmax(off)]} does not factor "
                             f"across {names[0]} and {names[1]}")
    return (tuple(v[:, 0] for v in factors),
            [tuple(v[:, 0] / v[:, 1 + d] for v in factors) for d in range(ndim)])


def _require_euclidean_collar(chart: Chart) -> None:
    """The one guard of the closed-form collar Christoffels and tensor norms
    of koiso_quadrature and _covariant_derivative: they hold for the
    Euclidean collar family only, so every other chart kind is refused."""
    if chart.kind != "euclidean":
        raise ValueError(f"this collar formula assumes the Euclidean family, "
                         f"the chart is {chart.kind!r}")


def cusp_grid(chart: Chart, eps: float, nodes: int = 48) -> Grid2D:
    """Inscribed rectangle of the exhaustion domain on a cusp chart:
    r in [sqrt(eps), edge], theta0 in [0.2, arccos(sqrt(eps))], so the
    corner node realizes sigma = eps exactly."""
    if chart.kind != INTERMEDIATE_CUSP:
        raise ValueError("cusp_grid needs an intermediate-rank cusp chart")
    r_lo = math.sqrt(eps)
    # the room first: arccos(sqrt(eps)) is defined for eps <= 1 only
    if not (r_lo < chart.edge and r_lo < math.cos(0.2)):
        raise ValueError(f"eps = {eps} leaves no room in the chart")
    th_hi = math.acos(r_lo)
    if th_hi > chart.coordinate_ranges()[1][1]:
        raise ValueError(f"eps = {eps} is below the cusp grid's floor "
                         f"sin^2(POLE_MARGIN) = {math.sin(POLE_MARGIN) ** 2:.4g}: "
                         f"theta0 would run past pi/2 - POLE_MARGIN")
    return Grid2D(
        chart,
        (np.linspace(r_lo, chart.edge, nodes), np.linspace(0.2, th_hi, nodes)),
        eps,
    )


def collar_grid(chart: Chart, eps: float, nodes: int = 48) -> Grid2D:
    return compact_patch_grid(chart, nodes, (eps, chart.edge), (-1.0, 1.0))


def compact_patch_grid(
    chart: Chart,
    nodes: int,
    rho_range: tuple[float, float],
    y_range: tuple[float, float],
) -> Grid2D:
    """Compact patch well inside a collar chart, for quadrature tests."""
    return Grid2D(
        chart,
        (np.linspace(*rho_range, nodes), np.linspace(*y_range, nodes)),
        rho_range[0],
    )


def maximal_grid(chart: Chart, eps: float, nodes: int = 64) -> Grid2D:
    if chart.f != chart.n - 1:
        raise ValueError("maximal_grid needs a maximal-rank cusp chart")
    return Grid2D(chart, (np.linspace(eps, chart.edge, nodes),), eps)


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


def sample_field(grid: Grid2D, fn: Callable) -> DiscreteField:
    """fn evaluated on the grid's nodes.  fn takes one coordinate array per
    axis and combines them elementwise; it is called on the open axes
    (np.ix_), so it computes one value per axis node rather than per grid
    node, in the same order of operations and so to the same bits as on the
    full meshes, and its result is broadcast to a writable array of
    grid.shape."""
    values = np.broadcast_to(fn(*np.ix_(*grid.axes)), grid.shape)
    return DiscreteField(grid, np.array(values, dtype=float))


def check_source(f: DiscreteField) -> None:
    """Raise ValueError unless the sampled source is zero on every boundary
    node, where the solves impose zero data (SupportViolation), and nonzero
    on some interior node, or |f|_mu = 0 leaves |u|_mu / |f|_mu undefined."""
    inner = f.values[f.grid.interior]
    if np.count_nonzero(f.values) > np.count_nonzero(inner):
        raise SupportViolation(f"at eps = {f.grid.eps}: the source is nonzero on a "
                               "boundary node, where the solve imposes zero data")
    if not np.any(inner):
        raise ValueError(f"at eps = {f.grid.eps}: the source is zero on every "
                         "interior node of the grid")


@dataclass(frozen=True)
class SeparableFactor:
    """Fast-diagonalization factorization of a separable Dirichlet operator
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964).

    The operator is a Kronecker sum L = S_0 x M_1 + M_0 x S_1 of symmetric
    tridiagonal S_d and positive diagonal M_d.  Each axis has one generalized
    eigendecomposition S_d V_d = M_d V_d diag(lam_d) with V_d^T M_d V_d = I,
    so (V_0 x V_1)^T L (V_0 x V_1) = diag(lam_0[i] + lam_1[j]), the pencil.
    A solve is X = V_0 [(V_0^T B V_1) / pencil] V_1^T, four dense products,
    and by Sylvester's law of inertia L has as many nonpositive eigenvalues
    as the pencil has nonpositive entries.  With V = V_0 x V_1 and
    P = diag(pencil), L^{-1} = V P^{-1} V^T = C C^T for C = V P^{-1/2}, so
    for a positive pencil the Gram form C^T C = P^{-1/2} (G_0 x G_1) P^{-1/2},
    G_d = V_d^T V_d, has exactly the spectrum of L^{-1} and is applied with
    two dense products.  A 1-D operator carries a second axis with one node,
    V = G = [[1]] and lam = [0].
    """

    vectors: tuple[np.ndarray, np.ndarray]
    pencil: np.ndarray  # lam_0[i] + lam_1[j] on the interior nodes

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        v0, v1 = self.vectors
        with _one_blas_thread():
            y = (v0.T @ rhs.reshape(self.pencil.shape) @ v1) / self.pencil
            return (v0 @ y @ v1.T).reshape(rhs.shape)


class _AxisStencil(NamedTuple):
    """One axis of the reduced operator.  coupling holds the midpoint flux
    coefficients c = A_d / dx^2 between all N nodes of the axis (N - 1
    values); potential (the axis's share of K W, else zeros) and mass (the
    factor this axis lends to the other axis's stencil) hold values on its
    N - 2 interior nodes."""

    coupling: np.ndarray
    potential: np.ndarray
    mass: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        c = self.coupling
        return c[:-1] + c[1:] + self.potential

    def eigenpairs(self):
        """(lam, V) with T V = diag(mass) V diag(lam) and V^T diag(mass) V = I."""
        s = 1.0 / np.sqrt(self.mass)
        lam, y = _eigh_tridiagonal(self.diagonal * s * s,
                                   -self.coupling[1:-1] * s[:-1] * s[1:])
        return lam, s[:, None] * y


def _axis_stencils(grid: Grid2D, K: float):
    """(stencils, w): the per-axis stencils of assemble(grid, K) and the
    factors of W on the interior nodes, from one _flux_factors call on each
    axis's nodes and midpoints.  The interior form is T_0 x diag(a[0][1]) +
    diag(a[1][0]) x T_1 + K W, T_d the flux stencil of a[d][d].  K W joins
    the stencil of the axis d whose h_dd does not vary along the other axis
    e (theta0 on the cusp, rho on a collar): there w_e = c a[d][e] for a
    constant c, so K W = diag(a[d][e]) x diag(K c w_d).  A one-axis operator
    is T_0 + K diag(w_0) with unit mass, beside a one-node second stencil.
    """
    refined = [np.append(np.column_stack([ax[:-1], (ax[1:] + ax[:-1]) / 2]), ax[-1])
               for ax in grid.axes]  # nodes at even entries, midpoints at odd ones
    w, a = _flux_factors(grid.chart, refined)
    w = [f[2:-2:2] for f in w]
    couplings = [a[d][d][1::2] / (dx * dx) for d, dx in enumerate(grid.spacing)]
    if grid.ndim == 1:
        return (_AxisStencil(couplings[0], K * w[0], np.ones(len(w[0]))),
                _AxisStencil(np.zeros(2), np.zeros(1), np.ones(1))), w
    masses = (a[1][0][2:-2:2], a[0][1][2:-2:2])
    for fold in (1, 0):
        c = w[1 - fold] / masses[1 - fold]
        if (np.abs(c - c[0]) <= _SEPARABLE_RTOL * abs(c[0])).all():
            break
    else:
        raise ValueError(f"K W joins neither stencil on the {grid.chart.kind} grid: "
                         "each h_dd varies along the other axis")
    return tuple(_AxisStencil(couplings[d], K * c[0] * w[d] if d == fold
                              else np.zeros(len(w[d])), masses[d]) for d in (0, 1)), w


@dataclass
class SparseOperator:
    """Discrete Delta + K with Dirichlet rows eliminated, kept as one
    stencil per axis (coupling c_d, potential p_d, mass m_d) and never
    assembled.  The name stays from when a sparse matrix was assembled:
    bench/layer_trace.py patches SparseOperator.smallest_eigenvalue.

    The symmetric weighted form on the interior unknowns (grid.interior) is
    the Kronecker sum L = T_0 x diag(m_1) + diag(m_0) x T_1 of the
    tridiagonals T_d = tridiag(-c_d, c_d[:-1] + c_d[1:] + p_d, -c_d),
    applied by form from its couplings and diagonal, built once with the
    operator; weight is the volume density W on the interior nodes, shaped
    like them, and the pointwise operator is diag(1/W) L with the Dirichlet
    values entering through the edge couplings (apply_to_values).

    The operator is factored at most once: the coercivity decision, the
    eigenvalue probe and every solve share one SeparableFactor, whose
    eigenpairs come from the same stencils.
    """

    grid: Grid2D
    K: float
    weight: np.ndarray
    stencils: tuple[_AxisStencil, _AxisStencil]
    # form's couplings (-c_0) m_1 and m_0 (-c_1), and its diagonal
    _couplings: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                      compare=False)
    _diagonal: np.ndarray = field(init=False, repr=False, compare=False)
    _factorization: Optional[SeparableFactor] = field(default=None, init=False,
                                                      repr=False, compare=False)
    min_eigenvalue: Optional[float] = field(default=None, init=False, repr=False,
                                            compare=False)
    probe_steps: Optional[int] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        s0, s1 = self.stencils
        m0, m1 = s0.mass[:, None], s1.mass
        self._couplings = (-s0.coupling[1:-1, None] * m1, m0 * -s1.coupling[1:-1])
        self._diagonal = s0.diagonal[:, None] * m1 + m0 * s1.diagonal

    @property
    def n_unknowns(self) -> int:
        return self.weight.size

    def form(self, x: np.ndarray) -> np.ndarray:
        """L x for interior values x (flat in node order or shaped like the
        interior; returned in the shape given), stencil by stencil: row
        (i, j) sums from zero its terms at (i-1, j), (i, j-1), (i, j),
        (i, j+1), (i+1, j) in turn, with couplings (-c_0) m_1 and m_0 (-c_1)
        and diagonal d_0[i] m_1[j] + m_0[i] d_1[j], as a CSR product with the
        assembled L would, to the last bit."""
        off0, off1 = self._couplings
        y = np.reshape(x, self._diagonal.shape)
        out = np.zeros(y.shape)
        out[1:] += off0 * y[:-1]
        out[:, 1:] += off1 * y[:, :-1]
        out += self._diagonal * y
        out[:, :-1] += off1 * y[:, 1:]
        out[:-1] += off0 * y[1:]
        return out.reshape(np.shape(x))

    def apply_to_values(self, values: np.ndarray) -> np.ndarray:
        """(Delta + K) applied to node values, returned on the interior nodes
        in their shape: form acts on the interior values, and the Dirichlet
        values enter through each stencil's two edge couplings, scaled by the
        other axis's mass; the sum is divided by W."""
        v = values.reshape(self.grid.shape)
        inner = self.grid.interior
        out = self.form(v[inner]).reshape(self._diagonal.shape)
        for d in range(v.ndim):
            for side in (0, -1):
                face, row = list(inner), [slice(None)] * v.ndim
                face[d], row[d] = side, side
                out[tuple(row)] -= (self.stencils[d].coupling[side] * v[tuple(face)]
                                    * self.stencils[1 - d].mass)
        return out.reshape(self.weight.shape) / self.weight

    def factor(self) -> SeparableFactor:
        """Fast-diagonalization factorization of the symmetric form, computed
        on first use from each stencil's generalized tridiagonal
        eigendecomposition; every Dirichlet solve on this operator applies
        it.  A failed eigendecomposition or a zero or non-finite pencil
        eigenvalue raises NonConvergence."""
        if self._factorization is None:
            try:
                with _one_blas_thread():
                    (lam0, v0), (lam1, v1) = [st.eigenpairs() for st in self.stencils]
            except np.linalg.LinAlgError as exc:
                raise NonConvergence(f"axis eigendecomposition failed: {exc}") from exc
            pencil = lam0[:, None] + lam1[None, :]
            if not np.all(np.isfinite(pencil) & (pencil != 0)):
                raise NonConvergence("separable factorization is singular: a pencil "
                                     "eigenvalue lam_i + mu_j is zero or not finite")
            self._factorization = SeparableFactor((v0, v1), pencil)
        return self._factorization

    def smallest_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetric form, cached on the operator.

        The factorization is a congruence to the diagonal pencil, so by
        Sylvester's law of inertia the number of nonpositive pencil entries
        is the number of nonpositive eigenvalues; IndefiniteOperator reports
        it when it is not zero.  Otherwise the smallest eigenvalue is
        1 / theta_max for the largest eigenvalue theta_max of the factor's
        Gram form B = P^{-1/2} (G_0 x G_1) P^{-1/2}, which has the spectrum of
        L^{-1} (SeparableFactor).  Lanczos (_lanczos_largest) finds
        theta_max, starting at the unit vector of the pencil's smallest
        entry: the factor's lowest mode, which already carries most of
        theta_max's eigenvector, and a fixed start, so the value repeats run
        to run.  Each step applies B as Z -> s (G_0 (s Z) G_1),
        s = pencil^{-1/2}, two dense products.
        solve_dirichlet runs the probe at K < 0 only.  probe_steps records
        the number of B applications, also when the probe fails.
        """
        if self.min_eigenvalue is None:
            fac = self.factor()
            count = int(np.count_nonzero(fac.pencil <= 0))
            if count:
                raise IndefiniteOperator(
                    f"symmetrized operator has {count} nonpositive eigenvalues "
                    "(inertia of its fast-diagonalization pencil); the discrete "
                    "problem is not coercive")
            s = 1.0 / np.sqrt(fac.pencil)
            start = np.zeros(self.n_unknowns)
            start[np.argmin(fac.pencil)] = 1.0
            self.probe_steps = 0

            def gram_form(z):
                self.probe_steps += 1
                return (s * (g0 @ (s * z.reshape(s.shape)) @ g1)).reshape(-1)

            with _one_blas_thread():
                g0, g1 = (v.T @ v for v in fac.vectors)
                self.min_eigenvalue = 1.0 / _lanczos_largest(gram_form, start)
        return self.min_eigenvalue


def _lanczos_largest(apply: Callable[[np.ndarray], np.ndarray],
                     start: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric positive definite operator, by
    Lanczos from the unit vector start (Parlett, The Symmetric Eigenvalue
    Problem, 1980).

    Step k applies the operator to the newest basis vector, reorthogonalizes
    the result against the whole basis (classical Gram-Schmidt, twice, the
    second pass's correction added to T's diagonal as ARPACK adds it) and
    takes the Ritz values of the k x k tridiagonal T from dstevd.  ARPACK's
    residual test stops it: beta_k |s_k| <= PROBE_TOL theta, theta the top
    Ritz value, s its eigenvector of T and beta_k the norm of the new
    residual.  The basis holds PROBE_BASIS + 1 vectors; when it is full the
    iteration restarts from the top Ritz vector.  A non-finite value, or
    PROBE_MAX_STEPS applications without passing the test, raises
    NonConvergence.
    """
    basis = np.empty((PROBE_BASIS + 1, start.size))
    basis[0] = start
    alpha, beta = [], []
    for step in range(1, PROBE_MAX_STEPS + 1):
        k = len(alpha)
        w = apply(basis[k])
        alpha.append(0.0)
        for _ in range(2):
            coefficients = basis[:k + 1] @ w
            w -= coefficients @ basis[:k + 1]
            alpha[-1] += float(coefficients[k])
        norm = float(np.linalg.norm(w))
        if not (math.isfinite(alpha[-1]) and math.isfinite(norm)):
            raise NonConvergence(f"coercivity probe met a non-finite value at "
                                 f"step {step}")
        try:
            theta, y = _eigh_tridiagonal(np.array(alpha), np.array(beta))
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"coercivity probe failed: {exc}") from exc
        if norm * abs(y[-1, -1]) <= PROBE_TOL * theta[-1]:
            return float(theta[-1])
        if k + 1 < len(basis):
            beta.append(norm)
            basis[k + 1] = w / norm
        else:
            ritz = y[:, -1] @ basis
            basis[0] = ritz / np.linalg.norm(ritz)
            alpha, beta = [], []
    raise NonConvergence(f"coercivity probe did not converge in "
                         f"{PROBE_MAX_STEPS} steps")


def assemble(grid: Grid2D, K: float) -> SparseOperator:
    """Second-order flux-form discretization of Delta + K on the grid.

    The operator is its per-axis Dirichlet stencils; its weighted symmetric
    form (SparseOperator.form), row i holding W_i ((Delta + K) u)_i, is the
    Kronecker sum T_0 x diag(m_1) + diag(m_0) x T_1 of their tridiagonals,
    so applying it to a constant returns K * W * const.
    """
    stencils, w = _axis_stencils(grid, K)
    return SparseOperator(grid=grid, K=K,
                          weight=functools.reduce(np.multiply.outer, w),
                          stencils=stencils)


def solve_dirichlet(op: SparseOperator, f: DiscreteField | np.ndarray) -> DiscreteField:
    """Solve (Delta + K) u = f with zero Dirichlet data on all grid sides.

    The solve applies the operator's cached fast-diagonalization factor
    (SparseOperator.factor) and refines once against the symmetric form,
    x += solve(rhs - L x) (SparseOperator.form).  For K < 0 coercivity is
    checked first (SparseOperator.smallest_eigenvalue, which raises
    IndefiniteOperator when the symmetric form is not positive).
    A pointwise residual above 1e-8 |f|, or a non-finite one, raises
    NonConvergence with that residual.
    """
    fv = f.values if isinstance(f, DiscreteField) else np.asarray(f, dtype=float)
    fi = fv.reshape(op.grid.shape)[op.grid.interior]
    rhs = op.weight * fi

    if op.K < 0:
        op.smallest_eigenvalue()

    fac = op.factor()
    x = fac.solve(rhs)
    x += fac.solve(rhs - op.form(x))
    full = np.zeros(op.grid.shape)
    full[op.grid.interior] = x

    resid = op.apply_to_values(full) - fi
    tol = 1e-8 * (float(np.abs(fi).max()) or 1.0)
    rinf = float(np.abs(resid).max())
    if not rinf <= tol:  # a NaN residual fails too
        raise NonConvergence(f"residual {rinf:.3e} exceeds 1e-8 * |f| = {tol:.3e}",
                             residual=rinf)
    return DiscreteField(op.grid, full)


def weighted_sup_norm(u: DiscreteField, w: WeightVector) -> float:
    """Weighted sup norm max |u| / sigma^mu over the grid nodes."""
    return float((np.abs(u.values) / u.grid.sigma_mu(w)).max())


# -- exhaustion sweep ---------------------------------------------------------


def box_bump(coords, center, width, scale=1.0) -> np.ndarray:
    """scale times a product of smooth bumps over a coordinate box, one per
    axis, multiplied in axis order: scale at center, supported where each
    |coords[d] - center[d]| < width[d] / 2."""
    return functools.reduce(np.multiply, [
        smooth_bump((2 * x - 2 * c) / h) for x, c, h in zip(coords, center, width)],
        scale)


def default_bump_recipe(w: WeightVector):
    """sigma^mu times a smooth bump supported in the coordinate box
    r in [0.55, 0.85], theta0 in [0.45, 1]."""
    (r0, r1), (t0, t1) = (0.55, 0.85), (0.45, 1.0)
    center, width = ((r0 + r1) / 2, (t0 + t1) / 2), (r1 - r0, t1 - t0)

    def recipe(r, th):
        return box_bump((r, th), center, width, np.cos(th) ** w.mu0 * r ** w.mus[0])

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
    probe_steps: Optional[int] = None  # its operator applications


def exhaustion_sweep(
    chart: Chart,
    K: float,
    w: WeightVector,
    f_recipe: Callable,
    eps_list: Sequence[float],
    nodes: int = 48,
) -> list[SweepRow]:
    """Dirichlet solves over a shrinking family of truncation parameters.

    For each eps the fixed source recipe is sampled on the inscribed grid of
    {sigma >= eps}, the problem solved, and the weighted-norm ratio
    |u|_mu / |f|_mu recorded; uniform boundedness of this ratio is the
    quantity of interest.  The sampled source doubles as a manufactured
    solution: the stencil form applies Delta + K to it (apply_to_values) and
    the result is solved for again to measure the solver error.

    A solver failure (NonConvergence) at one eps is recorded in its row,
    which keeps the error message, and the sweep continues, so partial
    tables survive.  A source that leaves the grid or touches its boundary
    raises ValueError (check_source).
    """
    if any(b >= a for a, b in zip(eps_list, list(eps_list)[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    rows = []
    for eps in eps_list:
        grid = cusp_grid(chart, eps, nodes=nodes)
        f = sample_field(grid, f_recipe)
        check_source(f)
        op = assemble(grid, K)
        try:
            u = solve_dirichlet(op, f)
            nu = weighted_sup_norm(u, w)
            nf = weighted_sup_norm(f, w)

            rhs = np.zeros(grid.shape)
            rhs[grid.interior] = op.apply_to_values(f.values)
            u_sol = solve_dirichlet(op, DiscreteField(grid, rhs))
            scale = float(np.abs(f.values).max()) or 1.0
            mms = float(np.abs(u_sol.values - f.values).max()) / scale
        except NonConvergence as exc:
            rows.append(SweepRow(eps, math.nan, math.nan, math.nan, math.nan,
                                 grid.shape, error=str(exc),
                                 min_eigenvalue=op.min_eigenvalue,
                                 probe_steps=op.probe_steps))
            continue
        rows.append(SweepRow(eps, nu, nf, nu / nf, mms, grid.shape,
                             min_eigenvalue=op.min_eigenvalue,
                             probe_steps=op.probe_steps))
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


def maximum_principle_check(op: SparseOperator, w: WeightVector) -> MaxPrincipleReport:
    """Apply the operator's stencil form to sigma^mu (apply_to_values),
    evaluate (Delta + K) sigma^mu / sigma^mu over the interior nodes and
    compare its minimum against the closed-form margin, within 50 h^2 for
    the largest spacing h.  The margin is exact on the intermediate cusp, the
    Euclidean collar and the maximal cusp; every other chart is refused."""
    grid, K, chart = op.grid, op.K, op.grid.chart
    if chart.kind == INTERMEDIATE_CUSP:
        delta = cusp_margin(K, w.mus[0], w.mu0, chart.f, w.n).delta
    elif chart.kind == "euclidean" or chart.f == chart.n - 1:
        # the maximal cusp's r^mu is the face's rho^nu at nu = -mu
        delta = h0_margin(K, w.mu0 if chart.f is None else -w.mus[0], w.n).delta
    else:
        raise ValueError(f"no closed-form barrier margin on the {chart.kind} collar: "
                         f"(Delta + K) rho^nu / rho^nu is not constant on its family")
    smu = grid.sigma_mu(w)
    ratio = op.apply_to_values(smu) / smu[grid.interior]
    spc = max(grid.spacing)
    tol = 50.0 * spc * spc
    min_ratio = float(ratio.min())
    return MaxPrincipleReport(
        min_ratio=min_ratio,
        closed_form_delta=delta,
        tolerance=tol,
        passed=min_ratio >= delta - tol,
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


def _covariant_derivative(grid: Grid2D, u: np.ndarray) -> np.ndarray:
    """nabla u on the collar patch for a covariant tensor u of any rank on
    the nodes (node axes, then the slots); derivative index first,
    nab[x, y, k, i, ...] = nabla_k u_{i ...}.  The grid differences give
    du (zero along the inactive coordinates) and tensorcalc's nabla adds
    the closed-form Christoffel terms."""
    _require_euclidean_collar(grid.chart)
    n = grid.chart.n
    du = np.zeros(grid.shape + (n,) + u.shape[2:])
    for axis, h in enumerate(grid.spacing):
        du[:, :, axis] = np.gradient(u, h, axis=axis, edge_order=2)
    return _nabla((_collar_christoffels(n, grid.meshes()[0]),), (u, du))[0]


def _trapezoid_weights(grid: Grid2D) -> np.ndarray:
    ws = []
    for ax, d in zip(grid.axes, grid.spacing):
        w = np.full(len(ax), d)
        w[0] = w[-1] = d / 2.0
        ws.append(w)
    return functools.reduce(np.multiply.outer, ws)


def check_support_margin(grid: Grid2D, values: np.ndarray):
    """Raise SupportViolation unless the field vanishes within 3 nodes of
    every grid side; the message names the grid's node counts."""
    if np.count_nonzero(values) > np.count_nonzero(values[(slice(3, -3),) * grid.ndim]):
        nodes = " x ".join(map(str, grid.shape))
        raise SupportViolation(f"field support reaches within 3 nodes of the "
                               f"boundary of the {nodes}-node grid")


@dataclass
class KoisoResult:
    """Both sides of the integration-by-parts identity and the improved
    lower bound slack for the tensor Laplacian."""

    lhs: float                 # |nabla u|^2
    rhs: float                 # |T|^2/2 + |div u|^2 - |tr u|^2 + n |u|^2
    gap: float
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
    _require_euclidean_collar(grid.chart)
    n = grid.chart.n
    vals = u.values
    if vals.shape != grid.shape + (n, n):
        raise ValueError("tensor field must have shape grid.shape + (n, n)")
    check_support_margin(grid, vals)

    rho = grid.meshes()[0]
    dv = rho ** (-float(n)) * _trapezoid_weights(grid)
    up2 = rho ** 2  # inverse metric is rho^2 * identity here

    nab = _covariant_derivative(grid, vals)
    lhs = float(np.sum(dv * up2 ** 3 * np.einsum("xykij,xykij->xy", nab, nab)))

    T = nab - np.einsum("...kij->...ikj", nab)  # T_ijk = nabla_k u_ij - nabla_i u_jk, slots (k,i,j)
    t_sq = float(np.sum(dv * up2 ** 3 * np.einsum("xykij,xykij->xy", T, T)))

    div = np.einsum("xy,xykkj->xyj", up2, nab)
    div_sq = float(np.sum(dv * up2 * np.einsum("xyj,xyj->xy", div, div)))

    tr = up2 * np.einsum("xyii->xy", vals)
    tr_sq = float(np.sum(dv * tr ** 2))

    u_sq = float(np.sum(dv * up2 ** 2 * np.einsum("xyij,xyij->xy", vals, vals)))

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
    meshes = grid.meshes()
    lo = [ax[0] + 0.2 * (ax[-1] - ax[0]) for ax in grid.axes]
    hi = [ax[-1] - 0.2 * (ax[-1] - ax[0]) for ax in grid.axes]
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
        vals += box_bump(meshes, center, width)[..., None, None] * A
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
            # every rescaled metric is diagonal: its diagonal is its spectrum
            eigs = np.diagonal(rescaled_metric_at(case, q), axis1=1, axis2=2)
            coeff_diff = float(np.abs(np.diff(eigs, axis=0)).max())
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
