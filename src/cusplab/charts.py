"""Model coordinate charts for hyperbolic metrics with cusp ends.

One field, `Chart.kind`, names the end a chart describes: the blown-up
intermediate-rank cusp, or one of the collar families of H_U_FAMILIES.  A
collar chart is (d rho^2 + F(rho, y)) / rho^2 for its tangential family F:
`euclidean` near the infinite-volume face, `round_sphere`, or `cusp`, the
rank-f family F_f(u, (v, z)) = dv^2 + (u^2 + |v|^2)^2 dz^2, which is H^n
over a lattice of parabolic translations (the pre-blow-up upper half space;
the maximal cusp at f = n - 1, with r = u).  The intermediate cusp is F_f in
polar form but keeps its own kind: its sigma is truncate(r) cos theta0, not
truncate(u).  Every chart carries exact closed-form metric components, the
volume density, the (truncated) total boundary defining function sigma, and
membership tests for the exhaustion domains {sigma >= eps}; the boundary
rescalings of the Schauder step carry their pulled-back metrics.

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


def round_sphere_metric(angles) -> np.ndarray:
    """Round metric on S^d in spherical coordinates (d = angles.shape[-1]),
    for one point or for each row of an array of points.

    Coordinates are (xi_1, ..., xi_d) with xi_1..xi_{d-1} polar and xi_d
    azimuthal; the component matrix is diag(1, sin^2 xi_1, sin^2 xi_1
    sin^2 xi_2, ...).
    """
    angles = np.asarray(angles, dtype=float)
    d = angles.shape[-1]
    g = np.zeros(angles.shape + (d,))
    acc = np.ones(angles.shape[:-1])
    for k in range(d):
        g[..., k, k] = acc
        acc = acc * np.sin(angles[..., k]) ** 2
    return g


# A collar family maps (rho, y) to the tangential block: one point, or
# arrays rho (N,) and y (N, n-1) to (N, n-1, n-1).


def euclidean_collar_family(rho, y) -> np.ndarray:
    """Default boundary family: the identity for every rho."""
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    return np.broadcast_to(np.eye(d), y.shape[:-1] + (d, d)).copy()


def round_collar_family(rho, y) -> np.ndarray:
    """Family (1 - rho^2/4)^2 * round(S^{n-1}); the collar metric it induces
    is exactly hyperbolic (ball model in normal form around the boundary)."""
    rho = np.asarray(rho, dtype=float)
    g = round_sphere_metric(y)
    g *= _matrix_scale((1.0 - rho * rho / 4.0) ** 2)
    return g


def cusp_collar_family(rho, y, f: int) -> np.ndarray:
    """Family F_f = dv^2 + (rho^2 + |v|^2)^2 dz^2 of a rank-f cusp, with v the
    first n-1-f coordinates of y and z the last f (the chart binds f)."""
    y = np.asarray(y, dtype=float)
    v = y[..., : y.shape[-1] - f]
    s2 = rho * rho + np.einsum("...i,...i->...", v, v)
    g = euclidean_collar_family(rho, y)
    g[..., -f:, -f:] *= _matrix_scale(s2 * s2)
    return g


def _matrix_scale(s) -> np.ndarray:
    """A scalar per point, shaped to multiply a stack of matrices."""
    return np.asarray(s)[..., None, None]


H_U_FAMILIES = {
    "euclidean": euclidean_collar_family,
    "round_sphere": round_collar_family,
    "cusp": cusp_collar_family,
}


@dataclass(frozen=True)
class Chart:
    """A model coordinate patch with closed-form metric components.

    kind names the end: the intermediate cusp, or a collar family (a key of
    H_U_FAMILIES); n is the manifold dimension; f the cusp rank (of the
    intermediate cusp or the cusp family).  edge is the outer coordinate
    value of the defining-function direction (r, rho or u range (0, edge]).

    metric_stepped declares, from each closed form, the number of leading
    coordinates the metric components depend on: rho alone on the Euclidean
    collar, all but the azimuthal angle on the round collar, u and v (1 + b)
    on the cusp family, so u alone on the maximal cusp, and r, theta0 and the
    polar angles (no torus coordinate) on the intermediate cusp.  Moving
    only the later coordinates leaves `metric_at` the same bits, so a
    finite-difference stencil need not step along them.
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

    @batched
    def metric_at(self, p) -> np.ndarray:
        """Exact closed-form metric components (symmetric positive definite)
        at one point (n,), or stacked (N, n, n) at the rows of an (N, n)
        array."""
        p = self.validate_point(p)
        n = self.n
        out = np.zeros(p.shape + (n,))
        x = p[..., 0]
        if self.kind == INTERMEDIATE_CUSP:
            b, th = self.b, p[..., 1]
            c2 = np.cos(th) ** 2
            out[..., 0, 0] = 1.0 / (x * x * c2)
            out[..., 1, 1] = 1.0 / c2
            if b >= 2:
                out[..., 2 : 1 + b, 2 : 1 + b] = _matrix_scale(
                    np.sin(th) ** 2 / c2
                ) * round_sphere_metric(p[..., 2 : 1 + b])
            out[..., 1 + b :, 1 + b :] = _matrix_scale(x * x / c2) * np.eye(self.f)
            return out
        out[..., 0, 0] = 1.0
        out[..., 1:, 1:] = self.h_u(x, p[..., 1:])
        out /= _matrix_scale(x * x)
        return out

    @batched
    def volume_density_at(self, p):
        """sqrt(det h) from the closed-form determinant of each family, at
        one point (a scalar) or at each row of an (N, n) array."""
        p = self.validate_point(p)
        if p.ndim == 1:  # the one-row array, so a point and a batch agree bit for bit
            return self.volume_density_at(p[None])[0]
        n = self.n
        x = p[..., 0]
        if self.kind == INTERMEDIATE_CUSP:
            th = p[..., 1]
            dens = x ** (self.f - 1) * np.sin(th) ** (self.b - 1) / np.cos(th) ** n
            if self.b >= 2:
                dens = dens * np.sqrt(
                    np.linalg.det(round_sphere_metric(p[..., 2 : 1 + self.b])))
            return dens
        return np.sqrt(np.linalg.det(self.h_u(x, p[..., 1:]))) / x ** n

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
    shrink = np.exp(-2.0 * s)
    out = np.zeros(q.shape + (case.n,))
    out[..., 0, 0] = 1.0
    if case.case == COLLAR_CASE:
        out[..., 1:, 1:] = _matrix_scale(shrink) * euclidean_collar_family(
            case.eps * np.exp(s), case.v0 + case.eps * q[..., 1:]
        )
        return out
    # F_f at u = e^s, v shifted by v0 / eps (z does not enter)
    f, y = case.f, q[..., 1:] + np.append(case.v0 / case.eps, np.zeros(case.f))
    out[..., 1:, 1:] = _matrix_scale(shrink) * cusp_collar_family(np.exp(s), y, f)
    if case.case == CUSP_OFF_AXIS:
        out[..., -f:, -f:] /= (1.0 + float(case.v0 @ case.v0) / case.eps ** 2) ** 2
    return out
