"""Finite-difference tensor calculus on chart metrics.

Every operator is evaluated pointwise from one derivative kernel: `_jet`
samples a field once on a single central-and-mixed stencil around p and
returns its 2-jet (value, first and second partial derivatives), from
1 + 2n + 2n(n-1) evaluations.  The operators are then product-rule algebra
on jets (`_jeinsum`, `_jinv`): Christoffel symbols and their derivatives
come from the metric's 2-jet, covariant derivatives lower a jet's order by
one, and nothing is differenced twice.  Steps are scaled per coordinate by
the local metric diagonal, so stencils shrink toward degenerate chart
boundaries and accuracy is uniform in the geometric (unit-frame) sense.

A jet is a tuple (value, d, dd) with d[a, ...] = d_a value and
dd[a, b, ...] = d_a d_b value; shorter tuples are jets of lower order, and
combining jets keeps the lowest order present.

Sign conventions, fixed once and used everywhere:
  * Laplacian is the nonnegative rough Laplacian, Delta = nabla* nabla;
  * divergence of a symmetric 2-tensor is delta t = -tr_12 (nabla t), and
    delta* (the symmetrized covariant derivative) is its formal adjoint;
  * the lowered curvature array is riem[i,j,k,l] = <R(e_i,e_j)e_k, e_l>,
    which on a hyperbolic metric equals -(g_jk g_il - g_ik g_jl).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, ChartDomainError

DEFAULT_STEP = 1e-3


class StencilError(ChartDomainError):
    """Finite-difference stencil leaves the chart's coordinate ranges."""


@dataclass(frozen=True)
class MetricField:
    """A map from chart points to component arrays: a metric (symmetric
    positive definite), a symmetric 2-tensor or a rank-3 tensor.
    SymTensorField and Tensor3Field name the same class."""

    chart: Chart
    eval: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, p) -> np.ndarray:
        return self.eval(np.asarray(p, dtype=float))


SymTensorField = Tensor3Field = MetricField


def chart_metric(chart: Chart, label: str = "h") -> MetricField:
    """The chart's own closed-form model metric as a field."""
    return MetricField(chart, chart.metric_at, label)


def coordinate_steps(g: MetricField, p: np.ndarray, step: float) -> np.ndarray:
    """Per-coordinate steps step / sqrt(g_ii(p)); checks ~double-stencil room."""
    gp = g(p)
    diag = np.diag(gp)
    if np.any(diag <= 0):
        raise StencilError(
            f"metric field {g.label!r} has a nonpositive diagonal at {p}"
        )
    h = step / np.sqrt(diag)
    ranges = g.chart.coordinate_ranges()
    for i, (lo, hi) in enumerate(ranges):
        if p[i] - 2.2 * h[i] <= lo or p[i] + 2.2 * h[i] >= hi:
            raise StencilError(
                f"stencil around coordinate {i} (value {p[i]}, step {h[i]}) "
                f"leaves the range ({lo}, {hi}); reduce step or move inward"
            )
    return h


# -- the jet kernel -------------------------------------------------------------


def _jet(field, p: np.ndarray, h: np.ndarray):
    """2-jet of an array-valued callable at p: central differences for the
    gradient and pure second derivatives, the four-point mixed stencil for
    the cross derivatives."""
    n = len(p)

    def at(*shifts):
        q = p.copy()
        for i, sign in shifts:
            q[i] += sign * h[i]
        return np.asarray(field(q), dtype=float)

    f0 = at()
    fp = [at((i, 1)) for i in range(n)]
    fm = [at((i, -1)) for i in range(n)]
    d = np.stack([(fp[i] - fm[i]) / (2.0 * h[i]) for i in range(n)])
    dd = np.empty((n, n) + f0.shape)
    for i in range(n):
        dd[i, i] = (fp[i] - 2.0 * f0 + fm[i]) / h[i] ** 2
        for j in range(i + 1, n):
            dd[i, j] = dd[j, i] = (
                at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                - at((i, -1), (j, 1)) + at((i, -1), (j, -1))
            ) / (4.0 * h[i] * h[j])
    return f0, d, dd


def _jeinsum(spec: str, *jets):
    """np.einsum over jets by the product rule, to the lowest order given."""
    ins, out = spec.split("->")
    subs = ins.split(",")
    order = min(len(j) for j in jets)
    vals = [j[0] for j in jets]

    def term(parts):
        # parts: {operand index: (derivative letters, jet component)}
        ops = list(vals)
        terms = list(subs)
        lead = ""
        for k, (letters, comp) in parts.items():
            ops[k] = comp
            terms[k] = letters + terms[k]
            lead += letters
        return np.einsum(",".join(terms) + "->" + lead + out, *ops)

    res = [np.einsum(spec, *vals)]
    if order > 1:
        res.append(sum(term({k: ("Y", j[1])}) for k, j in enumerate(jets)))
    if order > 2:
        dd = sum(term({k: ("YZ", j[2])}) for k, j in enumerate(jets))
        for k in range(len(jets)):
            for m in range(k + 1, len(jets)):
                x = term({k: ("Y", jets[k][1]), m: ("Z", jets[m][1])})
                dd = dd + x + x.swapaxes(0, 1)
        res.append(dd)
    return tuple(res)


def _jinv(jet):
    """Jet of the matrix inverse: d M^-1 = -M^-1 dM M^-1, differentiated once more."""
    inv = np.linalg.inv(jet[0])
    res = [inv]
    if len(jet) > 1:
        d = -np.einsum("ij,ajk,kl->ail", inv, jet[1], inv)
        res.append(d)
    if len(jet) > 2:
        res.append(
            -np.einsum("aij,bjk,kl->abil", d, jet[1], inv)
            - np.einsum("ij,bjk,akl->abil", inv, jet[1], d)
            - np.einsum("ij,abjk,kl->abil", inv, jet[2], inv)
        )
    return tuple(res)


def _jlin(*terms):
    """Linear combination sum c * jet over (c, jet) pairs, to the lowest order."""
    return tuple(
        sum(c * part for (c, _), part in zip(terms, parts))
        for parts in zip(*(jet for _, jet in terms))
    )


def _sym(t: np.ndarray) -> np.ndarray:
    return 0.5 * (t + t.T)


def _metric_jets(g: MetricField, p, step: float, *fields):
    """Steps from g at p, then the jets of g and of each further field on
    that one stencil (a field identical to g reuses g's jet)."""
    p = np.asarray(p, dtype=float)
    h = coordinate_steps(g, p, step)
    G = _jet(g, p, h)
    return (G,) + tuple(G if f is g else _jet(f, p, h) for f in fields)


# -- connection and curvature on jets -------------------------------------------


def _christoffel(G):
    """1-jet of Gamma[k, i, j] = Gamma^k_ij from the metric's 2-jet."""

    def first_kind(dg):  # dg[..., a, b, c] = d_a g_bc -> Gamma_{l,ij}
        return 0.5 * (
            np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
        )

    return _jeinsum("kl,lij->kij", _jinv(G[:2]), tuple(map(first_kind, G[1:])))


def _riemann_up(gam) -> np.ndarray:
    """R[l, k, i, j] = R^l_kij
    = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    g0, dg = gam
    return (
        np.einsum("iljk->lkij", dg)
        - np.einsum("jlik->lkij", dg)
        + np.einsum("lim,mjk->lkij", g0, g0)
        - np.einsum("ljm,mik->lkij", g0, g0)
    )


def _ricci(gam) -> np.ndarray:
    return _sym(np.einsum("kikj->ij", _riemann_up(gam)))


def _nabla(gam, T):
    """Jet of nabla T, nab[k, i1, ...] = nabla_k T_{i1 ...}, for a covariant
    tensor jet T; one order lower than T."""
    idx = "abcdefgh"[: T[0].ndim]
    out = T[1:]
    for s, i in enumerate(idx):
        slot = idx[:s] + "m" + idx[s + 1:]
        out = _jlin((1.0, out), (-1.0, _jeinsum(f"mk{i},{slot}->k{idx}", gam, T)))
    return out


def _rough_laplacian(G, gam, U) -> np.ndarray:
    """-g^{lk} nabla_l nabla_k U for a covariant tensor jet U (scalars too)."""
    nab2 = _nabla(gam, _nabla(gam, U))[0]
    return -np.einsum("lk,lk...->...", np.linalg.inv(G[0]), nab2)


def _divergence(Ginv, gam, T):
    """Jet of delta_g t = -tr_12 nabla t."""
    return _jlin((-1.0, _jeinsum("ki,kij->j", Ginv, _nabla(gam, T))))


def _deltastar(gam, W) -> np.ndarray:
    """delta*_g omega, the symmetrized covariant derivative of a 1-form jet."""
    return _sym(_nabla(gam, W)[0])


def _trace_reversal(Ginv, G, T):
    """Jet of G_g t = t - (tr_g t / 2) g."""
    return _jlin((1.0, T), (-0.5, _jeinsum("kl,kl,ij->ij", Ginv, T, G)))


def _gauge_covector(G, T, gam):
    """1-jet of omega = g t^{-1} delta_g(G_g t)."""
    Ginv = _jinv(G)
    div = _divergence(Ginv, gam, _trace_reversal(Ginv, G, T))
    return _jeinsum("ij,jk,k->i", G, _jinv(T[:2]), div)


def christoffels_at(g: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_ij of g at p."""
    (G,) = _metric_jets(g, p, step)
    return _christoffel(G)[0]


def ricci_at(g: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Ricci tensor of g at p from the 2-jet of g."""
    (G,) = _metric_jets(g, p, step)
    return _ricci(_christoffel(G))


def riemann_at(g: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Lowered curvature riem[i,j,k,l] = <R(e_i, e_j) e_k, e_l>.

    On a hyperbolic metric this equals -(g_jk g_il - g_ik g_jl).
    """
    (G,) = _metric_jets(g, p, step)
    return np.einsum("lm,mkij->ijkl", G[0], _riemann_up(_christoffel(G)))


def difference_tensor_at(
    g: MetricField, h: MetricField, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Difference tensor A[k, i, j] between the connections of h and g,
    A = Gamma(h) - Gamma(g), from covariant derivatives of e = g - h."""
    H, G = _metric_jets(h, p, step, g)
    nab = _nabla(_christoffel(H), _jlin((1.0, G), (-1.0, H)))[0]
    t = nab + nab.transpose(1, 0, 2) - np.einsum("mij->ijm", nab)
    return -0.5 * np.einsum("pm,ijm->pij", np.linalg.inv(G[0]), t)


def difference_tensor_field(
    g: MetricField, h: MetricField, step: float = DEFAULT_STEP
) -> Tensor3Field:
    """The connection-difference tensor as an evaluable field."""
    return Tensor3Field(
        g.chart, lambda p: difference_tensor_at(g, h, p, step), "A"
    )


# -- Laplacians ---------------------------------------------------------------


def laplacian_scalar_at(
    g: MetricField, u: Callable[[np.ndarray], float], p, step: float = DEFAULT_STEP
) -> float:
    """Nonnegative Laplace-Beltrami operator on functions."""
    G, U = _metric_jets(g, p, step, u)
    return float(_rough_laplacian(G, _christoffel(G), U))


def rough_laplacian_tensor_at(
    g: MetricField, u: SymTensorField, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Componentwise nabla* nabla on symmetric 2-tensors."""
    G, U = _metric_jets(g, p, step, u)
    return _sym(_rough_laplacian(G, _christoffel(G), U))


def lichnerowicz_at(
    h: MetricField, u: SymTensorField, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Lichnerowicz Laplacian nabla*nabla u + 2 Rc-action - 2 Rm-action,
    with the curvature terms from the 2-jet of h."""
    H, U = _metric_jets(h, p, step, u)
    h0, u0 = H[0], U[0]
    hinv = np.linalg.inv(h0)
    gam = _christoffel(H)
    ric = _ricci(gam)
    riem = np.einsum("lm,mkij->ijkl", h0, _riemann_up(gam))
    rc_u = 0.5 * (ric @ hinv @ u0 + u0 @ hinv @ ric)
    rm_u = np.einsum("kijl,kl->ij", riem, hinv @ u0 @ hinv)
    return _sym(_rough_laplacian(H, gam, U) + 2.0 * rc_u - 2.0 * rm_u)


def lichnerowicz_hyperbolic_at(
    h: MetricField, u: SymTensorField, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Closed form on a hyperbolic background: nabla*nabla u - 2n u + 2 (tr u) h."""
    H, U = _metric_jets(h, p, step, u)
    h0, u0 = H[0], U[0]
    tr = float(np.trace(np.linalg.inv(h0) @ u0))
    lap = _sym(_rough_laplacian(H, _christoffel(H), U))
    return lap - 2.0 * h.chart.n * u0 + 2.0 * tr * h0


# -- Bianchi machinery and the gauge-adjusted operator ------------------------


def g_trace_reversal(g0: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """G_g t = t - (tr_g t / 2) g, the algebraic trace reversal."""
    tr = float(np.trace(np.linalg.inv(g0) @ t0))
    return t0 - 0.5 * tr * g0


def divergence_at(
    g: MetricField, t, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """delta_g t = -tr_12 nabla t, a covector."""
    G, T = _metric_jets(g, p, step, t)
    return _divergence(_jinv(G), _christoffel(G), T)[0]


def deltastar_at(
    g: MetricField, omega, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """delta*_g omega = symmetrized covariant derivative of a 1-form."""
    G, W = _metric_jets(g, p, step, omega)
    return _deltastar(_christoffel(G), W)


def bianchi_ops_at(g: MetricField, t, p, step: float = DEFAULT_STEP):
    """Divergence, trace reversal and the symmetrized-gradient closure of the
    Bianchi chain: returns (delta_g t, G_g t, delta*_g(delta_g(G_g t)))."""
    G, T = _metric_jets(g, p, step, t)
    Ginv, gam = _jinv(G), _christoffel(G)
    rev = _trace_reversal(Ginv, G, T)
    return (_divergence(Ginv, gam, T)[0], rev[0],
            _deltastar(gam, _divergence(Ginv, gam, rev)))


def Q_gauge_at(g: MetricField, t, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Only the gauge term delta*_g(g t^{-1} delta_g(G_g t)) of Q."""
    G, T = _metric_jets(g, p, step, t)
    gam = _christoffel(G)
    return _deltastar(gam, _gauge_covector(G, T, gam))


def Q_at(g: MetricField, t: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Gauge-adjusted Einstein operator
    Q(g, t) = Rc(g) + (n-1) g - delta*_g(g t^{-1}(delta_g(G_g t)))."""
    G, T = _metric_jets(g, p, step, t)
    gam = _christoffel(G)
    gauge = _deltastar(gam, _gauge_covector(G, T, gam))
    return _ricci(gam) + (g.chart.n - 1.0) * G[0] - gauge


def L_at(
    h: MetricField,
    r: SymTensorField,
    p,
    step: float = DEFAULT_STEP,
) -> np.ndarray:
    """Linearized gauge-adjusted operator at a hyperbolic background:
    L r = ((Delta + K1)(u h) + (Delta + K2) r_0) / 2 on the trace split
    r = u h + r_0, with (K1, K2) = (2(n-1), -2).  Delta is linear, so this
    is (Delta r + K1 u h + K2 r_0) / 2."""
    n = h.chart.n
    k1, k2 = 2.0 * (n - 1), -2.0
    H, R = _metric_jets(h, p, step, r)
    h0, r0 = H[0], R[0]
    uh = float(np.trace(np.linalg.inv(h0) @ r0)) / n * h0
    lap = _sym(_rough_laplacian(H, _christoffel(H), R))
    return 0.5 * (lap + k1 * uh + k2 * (r0 - uh))


def deturck_field_at(
    g: MetricField, tau: MetricField, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Gauge-breaking covector omega = g tau^{-1} delta_g(G_g tau) at p."""
    G, T = _metric_jets(g, p, step, tau)
    return _gauge_covector(G, T, _christoffel(G))[0]


# -- norms --------------------------------------------------------------------


def tensor_norm(g0: np.ndarray, t0: np.ndarray) -> float:
    """Pointwise norm |t|_g of a symmetric 2-tensor."""
    ginv = np.linalg.inv(g0)
    return float(np.sqrt(abs(np.einsum("ik,jl,ij,kl->", ginv, ginv, t0, t0))))


def covector_norm(g0: np.ndarray, v: np.ndarray) -> float:
    return float(np.sqrt(abs(v @ np.linalg.inv(g0) @ v)))
