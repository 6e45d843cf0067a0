"""Model coordinate charts for hyperbolic metrics with cusp ends.

One field, `Chart.kind`, names the end a chart describes: the blown-up
intermediate-rank cusp, or one of the collar families of H_U_FAMILIES.  A
collar chart is (d rho^2 + F(rho, y)) / rho^2 for its tangential family F:
`euclidean` near the infinite-volume face, `round_sphere`, or `cusp`, the
rank-f family F_f(u, (v, z)) = dv^2 + (u^2 + |v|^2)^2 dz^2, which is H^n
over a lattice of parabolic translations (the pre-blow-up upper half space;
the maximal cusp at f = n - 1, with r = u).  The intermediate cusp is F_f in
polar form, u = r cos theta0 and |v| = r sin theta0, but keeps its own kind:
its sigma is truncate(r) cos theta0, not truncate(u).  Every chart's metric
is diagonal in its coordinates, diag(b) / x^2, and its volume density is
sqrt(prod b) / x^n (Chart._conformal_block); every chart carries the
(truncated) total boundary defining function sigma and membership tests for
the exhaustion domains {sigma >= eps}; the boundary rescalings of the
Schauder step carry their pulled-back metrics.

Every chart quantity takes one point (n,) or an (N, n) array of points and
returns one value (or matrix) per point, stacked on a leading axis for an
array: one point is the one-point case of the same array algebra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

INTERMEDIATE_CUSP = "intermediate_cusp"

POLE_MARGIN = 1e-3  # excludes the coordinate-singular polar axes
TRUNC_FRACTION = 0.2  # where sigma blends to 1 near the chart edge


class ChartDomainError(ValueError):
    """Point lies outside the chart's valid coordinate ranges."""


class NonConvergence(RuntimeError):
    """A factorization, eigenvalue probe or solve failed, or a solve left a
    large residual (raised by the solver; defined here so that the exit-code
    map needs no solver import)."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class RescalingCaseError(ValueError):
    """Rescaling-case invariants violated (base point vs eps mismatch)."""


def point_text(q: np.ndarray) -> str:
    """One point as numpy prints it, on one line however many coordinates it
    has, for an error message."""
    return np.array2string(q, max_line_width=np.inf)


def batched(fn):
    """Mark fn as array-native: it takes one point (n,) or an (N, n) array of
    points and returns the values, stacked on a leading axis for an array."""
    fn.batched = True
    return fn


def at_points(fn, p) -> np.ndarray:
    """fn at one point (n,) or at each row of an (N, n) array, values stacked.

    An array-native callable (marked with `batched`) gets the whole array in
    one call. Any other callable is taken to be pointwise and gets the rows
    one at a time: this is the one fallback for user-supplied callables.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 1 or getattr(fn, "batched", False):
        return np.asarray(fn(p), dtype=float)
    if len(p) == 0:
        raise ValueError(
            f"a pointwise callable cannot be evaluated on the empty point set "
            f"of shape {p.shape}: it has no value to give the stack its shape")
    return np.stack([np.asarray(fn(q), dtype=float) for q in p])


def smooth_step(t):
    """C-infinity step, elementwise: 0 for t <= 0, 1 for t >= 1, strictly
    monotone between."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    s = np.where(inside, t, 0.5)  # keeps exp finite where it is masked out
    a = np.exp(-1.0 / s)
    b = np.exp(-1.0 / (1.0 - s))
    return np.where(inside, a / (a + b), np.where(t >= 1.0, 1.0, 0.0))[()]


def truncate_bdf(x, edge: float, fraction: float):
    """Smoothly blend a boundary defining function to 1 over the outer
    ``fraction`` of its tubular neighbourhood [0, edge], elementwise."""
    x = np.asarray(x, dtype=float)
    lo = (1.0 - fraction) * edge
    s = smooth_step((x - lo) / (edge - lo))
    return np.where(x <= lo, x, np.where(x >= edge, 1.0, (1.0 - s) * x + s))[()]


def smooth_bump(t):
    """C-infinity bump on (-1, 1), elementwise: 1 at t = 0, identically 0
    outside."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    s = np.where(inside, t, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - s * s)), 0.0)[()]


def diagonal_matrices(d) -> np.ndarray:
    """The diagonal matrices with entries d (..., k), stacked (..., k, k)."""
    out = np.zeros(np.shape(d) + np.shape(d)[-1:])
    np.einsum("...ii->...i", out)[...] = d  # a writable view of the diagonals
    return out


def round_sphere_diagonal(angles) -> np.ndarray:
    """Diagonal (1, sin^2 xi_1, sin^2 xi_1 sin^2 xi_2, ...) of the round
    metric on S^d in spherical coordinates (xi_1, ..., xi_d), polar then
    azimuthal (d = angles.shape[-1]), at one point or each row of an array."""
    factors = np.ones(np.shape(angles))
    factors[..., 1:] = np.sin(np.asarray(angles, dtype=float)[..., :-1]) ** 2
    return np.cumprod(factors, axis=-1)


# A collar family maps (rho, y) to the diagonal of its tangential block,
# shaped like y: one point (n-1,), or arrays rho (N,) and y (N, n-1) to
# (N, n-1).  Every model end is diagonal in its chart coordinates, so no
# family has an off-diagonal entry to return.


def euclidean_collar_family(rho, y) -> np.ndarray:
    """Default boundary family: the identity for every rho."""
    return np.ones(np.shape(y))


def round_collar_family(rho, y) -> np.ndarray:
    """Family (1 - rho^2/4)^2 * round(S^{n-1}); the collar metric it induces
    is exactly hyperbolic (ball model in normal form around the boundary)."""
    rho = np.asarray(rho, dtype=float)[..., None]
    return round_sphere_diagonal(y) * (1.0 - rho * rho / 4.0) ** 2


def cusp_collar_family(rho, y, f: int) -> np.ndarray:
    """Family F_f = dv^2 + (rho^2 + |v|^2)^2 dz^2 of a rank-f cusp, with v the
    first n-1-f coordinates of y and z the last f (the chart binds f)."""
    y = np.asarray(y, dtype=float)
    v = y[..., : y.shape[-1] - f]
    s2 = np.asarray(rho * rho + np.einsum("...i,...i->...", v, v))[..., None]
    h = euclidean_collar_family(rho, y)
    h[..., -f:] *= s2 * s2
    return h


H_U_FAMILIES = {
    "euclidean": euclidean_collar_family,
    "round_sphere": round_collar_family,
    "cusp": cusp_collar_family,
}


@dataclass(frozen=True)
class Chart:
    """A model coordinate patch with exact metric components.

    kind names the end: the intermediate cusp, or a collar family (a key of
    H_U_FAMILIES); n is the manifold dimension; f the cusp rank (of the
    intermediate cusp or the cusp family).  edge is the outer coordinate
    value of the defining-function direction (r, rho or u range (0, edge]).

    metric_stepped declares, from each diagonal b and coordinate x, the number
    of leading coordinates the metric components depend on: rho alone on the
    Euclidean collar, all but the azimuthal angle on the round collar, u and
    v (1 + b) on the cusp family, so u alone on the maximal cusp, and r,
    theta0 and the polar angles (no torus coordinate) on the intermediate
    cusp.  Moving only the later coordinates leaves `metric_at` the same
    bits, so a finite-difference stencil need not step along them.
    """

    kind: str
    n: int
    f: Optional[int] = None
    edge: float = 1.0

    def __post_init__(self):
        if self.kind != INTERMEDIATE_CUSP and self.kind not in H_U_FAMILIES:
            raise ValueError(f"unknown chart kind {self.kind!r}; known: "
                             f"{', '.join((INTERMEDIATE_CUSP, *H_U_FAMILIES))}")
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.edge <= 0:
            raise ValueError("edge must be positive")
        if self.kind == INTERMEDIATE_CUSP:
            if self.f is None or not (1 <= self.f <= self.n - 2):
                raise ValueError("intermediate cusp needs rank 1 <= f <= n-2")
        elif self.kind == "cusp":
            if self.f is None or not (1 <= self.f <= self.n - 1):
                raise ValueError("the cusp collar family needs rank 1 <= f <= n-1")
        elif self.f is not None:
            raise ValueError(f"the {self.kind} collar family takes no rank f")
        if self.kind == "round_sphere" and self.edge >= 2:
            raise ValueError("round-sphere collar degenerates at rho = 2")

    # -- constructors ------------------------------------------------------

    @classmethod
    def intermediate_cusp(cls, n: int, f: int, **kw) -> "Chart":
        return cls(INTERMEDIATE_CUSP, n, f=f, **kw)

    @classmethod
    def maximal_cusp(cls, n: int, **kw) -> "Chart":
        """The cusp family of rank n - 1, with r = u."""
        return cls.upper_half_space(n, n - 1, **kw)

    @classmethod
    def collar(cls, n: int, h_u: str = "euclidean", **kw) -> "Chart":
        """The collar chart of the family h_u, a key of H_U_FAMILIES."""
        if h_u not in H_U_FAMILIES:
            raise ValueError(f"unknown collar family {h_u!r}; "
                             f"known: {', '.join(H_U_FAMILIES)}")
        return cls(h_u, n, **kw)

    @classmethod
    def upper_half_space(cls, n: int, f: int, **kw) -> "Chart":
        return cls("cusp", n, f=f, **kw)

    # -- structure ---------------------------------------------------------

    @functools.cached_property
    def h_u(self):
        """The collar family the kind names (the cusp family with f bound)."""
        if self.kind == INTERMEDIATE_CUSP:
            raise ValueError("the intermediate cusp is not a collar chart: it "
                             "has no tangential family h_u")
        fam = H_U_FAMILIES[self.kind]
        return fam if self.kind != "cusp" else functools.partial(fam, f=self.f)

    @property
    def b(self) -> int:
        """Transverse dimension n - 1 - f (charts with a cusp rank only)."""
        if self.f is None:
            raise AttributeError("b is defined only for charts with a cusp rank")
        return self.n - 1 - self.f

    @property
    def coordinate_names(self) -> tuple[str, ...]:
        if self.kind == INTERMEDIATE_CUSP:
            sph = tuple(f"theta_{a}" for a in range(1, self.b))
            return ("r", "theta0") + sph + tuple(f"w{j}" for j in range(1, self.f + 1))
        if self.f is None:
            return ("rho",) + tuple(f"y{j}" for j in range(1, self.n))
        return ("u",) + tuple(f"v{j}" for j in range(1, self.b + 1)) + tuple(
            f"z{j}" for j in range(1, self.f + 1)
        )

    def coordinate_ranges(self) -> list[tuple[float, float]]:
        """Open/closed bounds actually enforced by validate_point."""
        big = math.inf
        m = POLE_MARGIN
        if self.kind == INTERMEDIATE_CUSP:
            rng = [(0.0, self.edge), (m, math.pi / 2 - m)]
            rng += [(m, math.pi - m)] * max(self.b - 2, 0)
            if self.b >= 2:
                rng += [(-big, big)]  # azimuthal angle of the transverse sphere
            rng += [(-big, big)] * self.f
            return rng
        rng = [(0.0, self.edge)]
        if self.kind == "round_sphere":
            return rng + [(m, math.pi - m)] * (self.n - 2) + [(-big, big)]
        return rng + [(-big, big)] * (self.n - 1)

    @functools.cached_property
    def coordinate_bounds(self) -> np.ndarray:
        """coordinate_ranges() as the two arrays (lo, hi)."""
        return np.array(self.coordinate_ranges()).T

    @property
    def reference_point(self) -> np.ndarray:
        """The chart's base point, a new array on each call: the middle of
        each finite coordinate range, 0.3 on an unbounded one."""
        return np.array([0.5 * (lo + hi) if math.isfinite(hi - lo) else 0.3
                         for lo, hi in self.coordinate_ranges()])

    def line(self, d: int, values) -> np.ndarray:
        """The points (len(values), n) through reference_point along
        coordinate d, which takes the values."""
        p = np.tile(self.reference_point, (len(values), 1))
        p[:, d] = values
        return p

    @property
    def metric_stepped(self) -> int:
        """The number of leading coordinates `metric_at` depends on (see the
        class docstring)."""
        if self.kind == INTERMEDIATE_CUSP:
            return max(self.b, 2)
        if self.kind == "round_sphere":
            return self.n - 1
        return 1 if self.f is None else 1 + self.b

    def validate_point(self, p) -> np.ndarray:
        """p as a float array, one point (n,) or an (N, n) array of points.
        Raises ChartDomainError naming the first point outside the chart."""
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.n:
            raise ChartDomainError(
                f"point has {p.shape} coordinates, chart expects ({self.n},)"
            )
        lo, hi = self.coordinate_bounds
        ok = np.isfinite(p) & (lo <= p) & (p <= hi) & ((p > lo) | (lo != 0.0))
        if not ok.all():
            ok = ok.reshape(-1, self.n)
            i = int(np.argmin(ok.all(axis=1)))  # the first point outside
            j = int(np.argmin(ok[i]))  # and its first coordinate outside
            q = p.reshape(-1, self.n)[i]
            x, name = q[j], self.coordinate_names[j]
            lo, hi = self.coordinate_ranges()[j]
            if not np.isfinite(q).all():
                reason = "non-finite coordinate"
            elif x <= lo and lo == 0.0:
                reason = f"degenerate point: {name} = {x} <= 0"
            else:
                reason = f"{name} = {x} outside allowed range [{lo}, {hi}]"
            raise ChartDomainError(f"{reason} at point {point_text(q)}")
        return p

    def contains(self, p) -> bool:
        try:
            self.validate_point(p)
            return True
        except ChartDomainError:
            return False

    # -- metric data -------------------------------------------------------

    def _conformal_block(self, p):
        """(b, x) at validated points (N, n), the metric being diag(b) / x^2:
        on a collar b = (1, h_u(rho, y)) and x = rho; on the intermediate
        cusp, F_f pulled back by the polar map, b = (1, r^2 round(theta0,
        ...), r^4, ..., r^4) over (r, the transverse angles, w) and
        x = r cos(theta0)."""
        b, x = np.ones(p.shape), p[:, 0]
        if self.kind == INTERMEDIATE_CUSP:
            r2, k = (x * x)[:, None], 1 + self.b
            b[:, 1:k] = r2 * round_sphere_diagonal(p[:, 1:k])
            b[:, k:] = r2 * r2
            return b, x * np.cos(p[:, 1])
        y = p[:, 1:]
        h = np.asarray(self.h_u(x, y))
        if h.shape != y.shape:
            raise ValueError(f"collar family {self.kind!r} must return the diagonal "
                             f"of its tangential block, shaped like y {y.shape}; "
                             f"got shape {h.shape}")
        b[:, 1:] = h
        return b, x

    @staticmethod
    def _diagonal(b, x):
        """The metric's diagonal b / x^2 from the conformal block."""
        return b / (x * x)[:, None]

    def _density(self, b, x):
        """sqrt(det diag(b)) / x^n from the conformal block (b[:, 0] is 1).
        numpy's det goes through log and exp: a plain product of b moves the
        density by up to 3e-14 relative, which the barrier ratio of `solve`
        amplifies past the golden record's rtol 1e-12."""
        return np.sqrt(np.linalg.det(diagonal_matrices(b[:, 1:]))) / x ** self.n

    @batched
    def metric_at(self, p) -> np.ndarray:
        """Metric components diag(b) / x^2 (diagonal, positive) at one point
        (n,), or stacked (N, n, n) at the rows of an (N, n) array."""
        p = self.validate_point(p)
        # one point as the one-row array, so a point and a batch agree bit for bit
        g = diagonal_matrices(self._diagonal(*self._conformal_block(np.atleast_2d(p))))
        return g if p.ndim == 2 else g[0]

    @batched
    def volume_density_at(self, p):
        """sqrt(det diag(b)) / x^n (sqrt(det g) overflows from rho = 1e-25 at
        n = 7) at one point (a scalar) or at each row of an (N, n) array."""
        p = self.validate_point(p)
        w = self._density(*self._conformal_block(np.atleast_2d(p)))
        return w if p.ndim == 2 else w[0]

    def metric_diagonal_and_density_at(self, points):
        """(the diagonal of metric_at, volume_density_at) at the rows of an
        (N, n) array, shapes (N, n) and (N,), from one validation and one
        conformal block."""
        b, x = self._conformal_block(np.atleast_2d(self.validate_point(points)))
        return self._diagonal(b, x), self._density(b, x)

    @batched
    def sigma_at(self, p):
        """Total boundary defining function, smoothly truncated to 1 toward
        the chart edge and deep interior, at one point or each row of an
        (N, n) array."""
        p = self.validate_point(p)
        if p.ndim == 1:
            return self.sigma_at(p[None])[0]
        sigma = truncate_bdf(p[..., 0], self.edge, TRUNC_FRACTION)
        if self.kind == INTERMEDIATE_CUSP:
            return sigma * np.cos(p[..., 1])
        # rho, or u on the cusp family (r on the maximal cusp)
        return sigma

    def in_exhaustion(self, p, eps: float):
        """Membership in the superlevel exhaustion domain {sigma >= eps}, at
        one point or each row of an (N, n) array."""
        if eps <= 0:
            raise ValueError("exhaustion parameter eps must be positive")
        return self.sigma_at(p) >= eps


# -- Schauder rescaling maps ------------------------------------------------

CUSP_NEAR_AXIS = "cusp_near_axis"
CUSP_OFF_AXIS = "cusp_off_axis"
COLLAR_CASE = "collar"


@dataclass(frozen=True)
class RescalingCase:
    """One family of boundary rescalings of the exhaustion domain.

    v0 holds the transverse part of the base boundary point (eps, v0, z0):
    n - 1 - f components in the cusp cases, where the z0 block never enters
    the pulled-back metric, and n - 1 in the collar case, which rescales the
    Euclidean collar family and takes no rank f.  An omitted v0 is the
    origin.  The near-axis case requires |v0| <= eps, the off-axis case
    eps < |v0| < 1.
    """

    case: str
    n: int
    eps: float
    v0: Optional[np.ndarray] = None
    f: Optional[int] = None

    def __post_init__(self):
        if self.eps <= 0:
            raise RescalingCaseError("eps must be positive")
        if self.case == COLLAR_CASE:
            if self.f is not None:
                raise RescalingCaseError("the collar rescaling takes no rank f")
            dim = self.n - 1
        elif self.case in (CUSP_NEAR_AXIS, CUSP_OFF_AXIS):
            if self.f is None or not (1 <= self.f <= self.n - 1):
                raise RescalingCaseError("cusp rescaling needs a rank 1 <= f <= n-1")
            dim = self.n - 1 - self.f
        else:
            raise RescalingCaseError(f"unknown rescaling case {self.case!r}")
        v0 = np.zeros(dim) if self.v0 is None else np.asarray(self.v0, dtype=float)
        if v0.shape != (dim,):
            raise RescalingCaseError(
                f"v0 must have {dim} components, got shape {v0.shape}")
        object.__setattr__(self, "v0", v0)
        r = float(np.linalg.norm(v0))
        if self.case == CUSP_NEAR_AXIS and r > self.eps:
            raise RescalingCaseError(
                f"near-axis case needs |v0| <= eps, got |v0|={r}, eps={self.eps}"
            )
        if self.case == CUSP_OFF_AXIS and not (self.eps < r < 1.0):
            raise RescalingCaseError(
                f"off-axis case needs eps < |v0| < 1, got |v0|={r}, eps={self.eps}"
            )


def rescaled_metric_at(case: RescalingCase, q) -> np.ndarray:
    """Pullback of the hyperbolic metric under the boundary rescaling map,
    evaluated at q = (s, p, q) in the reference half-ball B+: one point (n,)
    gives one matrix, an (N, n) array the stacked (N, n, n) matrices."""
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != case.n:
        raise ChartDomainError(f"reference point needs {case.n} coordinates")
    if q.ndim == 1:  # the one-row array, so a point and a batch agree bit for bit
        return rescaled_metric_at(case, q[None])[0]
    s = q[..., 0]
    if not ((s >= 0.0) & (np.einsum("...i,...i->...", q, q) < 1.0)).all():
        raise ChartDomainError("reference point outside the unit half-ball B+")
    shrink, out = np.exp(-2.0 * s)[:, None], np.ones(q.shape)
    if case.case == COLLAR_CASE:
        out[:, 1:] = shrink * euclidean_collar_family(
            case.eps * np.exp(s), case.v0 + case.eps * q[:, 1:])
    else:  # F_f at u = e^s, v shifted by v0 / eps (z does not enter)
        f, y = case.f, q[:, 1:] + np.append(case.v0 / case.eps, np.zeros(case.f))
        out[:, 1:] = shrink * cusp_collar_family(np.exp(s), y, f)
        if case.case == CUSP_OFF_AXIS:
            out[:, -f:] /= (1.0 + float(case.v0 @ case.v0) / case.eps ** 2) ** 2
    return diagonal_matrices(out)
