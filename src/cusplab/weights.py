"""Weight algebra for the ends: square-integrability cutoffs, barrier
closed forms, admissible weight windows and indicial roots.

All formulas here are exact closed forms; the finite-difference Laplacian
cross-checks them in the test suite.  Each barrier quadratic has one copy:
the maximal cusp's r^mu is the face's rho^nu at nu = -mu, so
`barrier_maximal` is `barrier_H0` there, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional

L2_ANCHOR = "l2-cutoff"
CUSP_ANCHOR = "cusp-barrier"
H0_ANCHOR = "infinite-volume-face-barrier"

DELTA_MIN = 1e-6  # smallest barrier margin accepted as positive


class AdmissibilityObstruction(Exception):
    """No admissible weight vector exists for the requested end structure."""

    def __init__(self, reason: str, report: Optional["AdmissibilityReport"] = None):
        super().__init__(reason)
        self.reason = reason
        self.report = report


class DimensionTooSmall(AdmissibilityObstruction):
    """The weight window at the infinite-volume face is empty."""


class NoRealIndicialRoots(ValueError):
    """The indicial quadratic has no real roots for this constant."""


@dataclass(frozen=True)
class WeightVector:
    """Multi-weight mu = (mu0, mu_1, ..., mu_nc) with per-cusp ranks."""

    mu0: float
    mus: tuple[float, ...]
    ranks: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "mus", tuple(float(m) for m in self.mus))
        object.__setattr__(self, "ranks", tuple(int(f) for f in self.ranks))
        if len(self.mus) != len(self.ranks):
            raise ValueError("one weight per cusp end is required")
        for f in self.ranks:
            if not (1 <= f <= self.n - 1):
                raise ValueError(f"cusp rank {f} outside [1, {self.n - 1}]")


@dataclass(frozen=True)
class EstimateMargin:
    """Exact infimum delta of (Delta + K) sigma^mu / sigma^mu over one end."""

    delta: float
    end_kind: str
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Window:
    """An open interval (lo, hi); empty when hi <= lo or undefined."""

    lo: float = math.nan
    hi: float = math.nan

    @property
    def empty(self) -> bool:
        return not (self.lo < self.hi)

    def contains(self, x: float) -> bool:
        return (not self.empty) and self.lo < x < self.hi

    @property
    def midpoint(self) -> float:
        if self.empty:
            raise ValueError("empty window has no midpoint")
        return 0.5 * (self.lo + self.hi)

    def as_tuple(self):
        return None if self.empty else (self.lo, self.hi)


def l2_cutoff_check(w: WeightVector) -> bool:
    """Strict inequalities mu0 > (n-1)/2 and mu_j > -f_j/2 for every cusp."""
    if not (w.mu0 > (w.n - 1) / 2.0):
        return False
    return all(m > -f / 2.0 for m, f in zip(w.mus, w.ranks))


def barrier_cusp(K: float, mu: float, nu: float, f: int, n: int) -> tuple[float, float]:
    """Coefficient pair of (Delta + K) applied to r^mu cos(theta0)^nu on an
    intermediate-rank cusp: the multiplier is c_cos cos^2 + c_sin sin^2 and
    its infimum over the end is min(c_cos, c_sin)."""
    b = n - 1 - f
    if b < 1:
        raise ValueError("maximal-rank end: use barrier_maximal instead")
    c_cos = K - (mu * mu + f * mu - b * nu)
    return c_cos, barrier_H0(K, nu, n)


def barrier_H0(K: float, nu: float, n: int) -> float:
    """(Delta + K) rho^nu = (K - nu(nu - (n - 1))) rho^nu near the
    infinite-volume boundary face."""
    return K - nu * (nu - (n - 1))


def barrier_maximal(K: float, mu: float, n: int) -> float:
    """(Delta + K) r^mu = (K - mu(mu + n - 1)) r^mu on a maximal-rank cusp:
    the face's barrier at nu = -mu, bit for bit (negation is exact)."""
    return barrier_H0(K, -mu, n)


def cusp_margin(K: float, mu: float, nu: float, f: int, n: int) -> EstimateMargin:
    c_cos, c_sin = barrier_cusp(K, mu, nu, f, n)
    return EstimateMargin(
        delta=min(c_cos, c_sin),
        end_kind="intermediate_cusp",
        parameters={"K": K, "mu": mu, "nu": nu, "f": f, "b": n - 1 - f, "n": n,
                    "c_cos": c_cos, "c_sin": c_sin},
    )


def h0_margin(K: float, nu: float, n: int) -> EstimateMargin:
    return EstimateMargin(
        delta=barrier_H0(K, nu, n),
        end_kind="collar",
        parameters={"K": K, "nu": nu, "n": n},
    )


def mu0_window(n: int, K: float = -2.0) -> Window:
    """Weights at the infinite-volume face compatible with both the square
    integrability cutoff nu > (n-1)/2 and a positive barrier margin, i.e.
    the part of (nu_-, nu_+) above the cutoff; empty for a double root."""
    try:
        lo_root, hi_root = indicial_roots(K, n)
    except NoRealIndicialRoots:
        return Window()
    return Window(max((n - 1) / 2.0, lo_root), hi_root)


def cusp_weight_window(n: int, f: int, mu0: float, K: float = -2.0) -> Window:
    """Positive cusp weights mu with K - (mu^2 + f mu - (n-1-f) mu0) > 0,
    i.e. (0, mu*) with mu* the positive root of mu^2 + f mu = (n-1-f) mu0 + K."""
    if not (1 <= f <= n - 2):
        raise ValueError("cusp weight window needs an intermediate rank")
    c = (n - 1 - f) * mu0 + K
    if c <= 0:
        return Window()
    return Window(0.0, _quadratic_roots(f, c)[1])


def indicial_roots(K: float, n: int) -> tuple[float, float]:
    """Ascending real roots of nu(nu - (n-1)) = K."""
    roots = _quadratic_roots(-(n - 1), K)
    if roots is None:
        raise NoRealIndicialRoots(f"no real indicial roots for K={K}, n={n}")
    return roots


def _quadratic_roots(p: float, q: float) -> Optional[tuple[float, float]]:
    """Ascending real roots of x^2 + p x = q, or None when there are none."""
    disc = p * p + 4.0 * q
    if disc < 0:
        return None
    return (-p - math.sqrt(disc)) / 2.0, (-p + math.sqrt(disc)) / 2.0


@dataclass
class EndReport:
    """Per-cusp admissibility bookkeeping for one end."""

    index: int
    rank: int
    window: Optional[tuple[float, float]]
    candidate: float
    candidate_inside: bool
    candidate_margin: Optional[EstimateMargin]
    chosen: Optional[float]
    chosen_margin: Optional[EstimateMargin]

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("candidate_margin", "chosen_margin"):
            if d[key] is not None:
                d[key]["anchor"] = CUSP_ANCHOR
        return d


@dataclass
class AdmissibilityReport:
    """Everything the admissible-weight search measured, machine-checkable."""

    n: int
    K: float
    mu0_window: Optional[tuple[float, float]]
    mu0: Optional[float]
    h0_margin: Optional[EstimateMargin]
    ends: list[EndReport]
    l2_ok: Optional[bool]
    obstruction: Optional[str] = None
    notes: list[str] = field(default_factory=list)

    @property
    def min_margin(self) -> float:
        deltas = []
        if self.h0_margin is not None:
            deltas.append(self.h0_margin.delta)
        deltas += [e.chosen_margin.delta for e in self.ends if e.chosen_margin]
        return min(deltas) if deltas else math.nan

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "mu0_window": self.mu0_window,
            "mu0": self.mu0,
            "h0_margin": None if self.h0_margin is None else
                {**asdict(self.h0_margin), "anchor": H0_ANCHOR},
            "ends": [e.to_dict() for e in self.ends],
            "l2_ok": self.l2_ok,
            "min_margin": self.min_margin,
            "obstruction": self.obstruction,
            "notes": self.notes,
        }


def admissible_weights(
    n: int,
    ranks,
    K: float = -2.0,
    mu0: Optional[float] = None,
) -> tuple[WeightVector, AdmissibilityReport]:
    """Search for a weight vector with positive barrier margins on every end.

    mu0 defaults to n - 2 when that sits strictly inside the window at the
    infinite-volume face, otherwise to the window midpoint.  Each cusp weight
    defaults to 1/(n-2) when strictly inside its window; otherwise half the
    window width is used and the failed closed-form candidate is kept in the
    report.  Raises AdmissibilityObstruction (maximal-rank cusp, or an empty
    cusp window), DimensionTooSmall (empty mu0 window) or ValueError (a rank
    outside 1..n-1).
    """
    ranks = tuple(int(f) for f in ranks)
    report = AdmissibilityReport(
        n=n, K=K, mu0_window=None, mu0=None, h0_margin=None, ends=[], l2_ok=None
    )

    for i, f in enumerate(ranks):
        if not 1 <= f <= n - 1:
            raise ValueError(f"invalid cusp rank {f}: must lie in 1..n-1")
        if f == n - 1:
            report.obstruction = f"end {i}: maximal-rank cusp (f = {f} = n - 1)"
            raise AdmissibilityObstruction(report.obstruction, report)

    win0 = mu0_window(n, K)
    report.mu0_window = win0.as_tuple()
    if win0.empty:
        report.obstruction = (
            f"empty weight window at the infinite-volume face for n = {n}"
        )
        raise DimensionTooSmall(report.obstruction, report)

    if mu0 is None:
        mu0 = float(n - 2) if win0.contains(n - 2) else win0.midpoint
    elif not win0.contains(mu0):
        report.obstruction = f"requested mu0 = {mu0} outside window {win0.as_tuple()}"
        raise AdmissibilityObstruction(report.obstruction, report)
    report.mu0 = mu0
    report.h0_margin = h0_margin(K, mu0, n)

    candidate = 1.0 / (n - 2)
    chosen_mus = []
    for i, f in enumerate(ranks):
        win = cusp_weight_window(n, f, mu0, K)
        cand_margin = cusp_margin(K, candidate, mu0, f, n)
        inside = win.contains(candidate) and cand_margin.delta >= DELTA_MIN
        if win.empty:
            end = EndReport(i, f, None, candidate, False, cand_margin, None, None)
            report.ends.append(end)
            report.obstruction = (
                f"end {i}: empty cusp weight window for rank f = {f} at n = {n}"
            )
            raise AdmissibilityObstruction(report.obstruction, report)
        chosen = candidate if inside else 0.5 * win.hi
        chosen_margin = cusp_margin(K, chosen, mu0, f, n)
        if not inside:
            report.notes.append(
                f"end {i}: closed-form candidate mu = 1/(n-2) = {candidate:.6g} "
                f"violates the cusp barrier inequality (margin "
                f"{cand_margin.delta:.6g}); fell back to mu = {chosen:.6g}"
            )
        report.ends.append(
            EndReport(i, f, win.as_tuple(), candidate, inside, cand_margin,
                      chosen, chosen_margin)
        )
        chosen_mus.append(chosen)

    vector = WeightVector(mu0=mu0, mus=tuple(chosen_mus), ranks=ranks, n=n)
    report.l2_ok = l2_cutoff_check(vector)

    if report.min_margin < DELTA_MIN:
        report.obstruction = (
            f"margins fell below delta_min = {DELTA_MIN}: {report.min_margin}"
        )
        raise AdmissibilityObstruction(report.obstruction, report)
    if not report.l2_ok:
        report.obstruction = "selected vector fails the square-integrability cutoff"
        raise AdmissibilityObstruction(report.obstruction, report)

    return vector, report
