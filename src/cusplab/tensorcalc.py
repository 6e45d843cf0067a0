"""Finite-difference tensor calculus on chart metrics.

Every operator is evaluated from one derivative kernel: `_metric_jets`
samples the fields of an operator on a single central-and-mixed stencil
around each point and returns their 2-jets (value, first and second partial
derivatives).  Each field declares the number d of leading coordinates its
values depend on (`MetricField.stepped`; a chart metric declares
`Chart.metric_stepped`), and the stencil steps along the first d of the
widest field: 1 + 2d + 2d(d-1) = 1 + 2d^2 points per point, so 19 for the
n = 4 round collar and its expansion ladder (rho, y_1, y_2) where all
n = 4 coordinates would take 33.  A jet carries the derivatives along those d
coordinates only; the ones along the later coordinates are zeros and are not
stored, and a field sampled on a wider stencil than its own differences equal
values there, which gives the same zeros (`_differences`).  Each field is
evaluated once at the points themselves (the metric's values give the steps)
and once on the off-centre points of the stencils of a pass, one array, so
an array-native field is called twice per pass.  Sampling and differencing
are two steps (`_stencil_points`, `_differences`), so two fields that one
evaluation yields together share it: with two stages of one expansion ladder
in the two slots of Q, the longer ladder is evaluated for both, and the
shorter ladder's values are its partial sums (`_joint`).  The operators are
then product-rule algebra on jets (`_jeinsum`, `_jinv`): Christoffel symbols
and their derivatives come from the metric's 2-jet, covariant derivatives
lower a jet's order by one, and nothing is differenced twice.  The inverse
metric is needed to first order only, and the Ricci tensor is contracted
from the Christoffel 1-jet without forming the curvature tensor.  Every
two-operand contraction, each product-rule term included, is one stacked
matrix product over the batch axes (`_contract`); np.einsum is left for
permutations and traces.  Steps are scaled per coordinate by the local
metric diagonal, so stencils shrink toward degenerate chart boundaries and
accuracy is uniform in the geometric (unit-frame) sense; the room for the
stencil is checked along every coordinate, stepped or not.

Points: every public operator takes one point p of shape (n,) and returns
its value, or an (N, n) array of points and returns the N values stacked
on a leading axis.  A single point is the one-point case of the same
algebra.  A set of N points is evaluated in ceil(N / BATCH_CAP) passes of
near-equal size, as few as the memory of the stencil arrays allows; each
pass carries a fixed Python cost, and the values do not depend on how the
set is split.

Fields: a field maps points to component arrays.  It has a `chart`, a
`label` for messages and a `stepped` count (None: all n), and calling it on
an (N, n) array of points returns (N, ...) in one call (it is marked
`batched`).  It may also offer `joint(other)`: a callable p -> (its values,
the other field's values) from one evaluation, or None when it has none for
that field.  An expansion stage (`expansion.ExpansionMetric`) is such a
field itself.  `MetricField` is the adapter for a bare callable
(`chart_metric` wraps the chart's own metric_at): an array-native callable,
marked with `charts.batched`, gets the whole array, and any other, such as
a lambda on one point, is sampled one point at a time through
`charts.at_points`, the one fallback.

A jet is a tuple (value, d, dd) with d[..., a, :] = d_a value and
dd[..., a, b, :] = d_a d_b value for a, b < d, the stepped count of the pass,
where the leading `...` is the batch of points (empty for one point); shorter
tuples are jets of lower order, and combining jets keeps the lowest order
present.  Product-rule algebra keeps the derivative axes d long.  A
derivative index becomes a tensor index, n long, in four places: the
Christoffel symbols of the first kind (`_christoffel`), the d_j Gamma^k_ki
trace of `_ricci`, the dT term of `_nabla`, and d(tr_g t) in
`_reversed_divergence`.  Each puts its d slices into an n-wide array whose
later entries are the zeros of the derivatives not stored (a copy of the
metric's derivatives in the first kind, the result in the other three) and
sums in the order of the sum over all n, so every entry has the bits it
would have from jets carrying all n derivatives.  A matrix product with a
derivative axis among its free axes may round differently with d rows than
with n (BLAS picks its kernel by shape): of the operators, only the gauge
term of `Q_gauge_at` does, at 1e-15.  A jet whose derivative axes run over
all n (a pass that steps every coordinate, or `solver._covariant_derivative`'s
grid jets) goes through the same code.

Sign conventions, fixed once and used everywhere:
  * Laplacian is the nonnegative rough Laplacian, Delta = nabla* nabla;
  * divergence of a symmetric 2-tensor is delta t = -tr_12 (nabla t), and
    delta* (the symmetrized covariant derivative) is its formal adjoint;
  * G_g t = t - (tr_g t / 2) g is the trace reversal, and
    delta_g(G_g t) = delta_g t + d(tr_g t) / 2, since delta_g(f g) = -df;
  * Q(g, g) = Rc(g) + (n-1) g: nabla g = 0 makes G_g g = (1 - n/2) g
    divergence-free, so `Q_at` forms no gauge term when both slots hold the
    same field object (`Q_gauge_at` forms it in full);
  * the gauge covector is DeTurck's: g t^{-1} delta_g(G_g t) =
    g_kl g^{ij} (Gamma(g)^l_ij - Gamma(t)^l_ij), exactly, and `Q_at` forms
    it so from the two Christoffel 1-jets, with no covariant derivative of
    t and no 2-jet of tr_g t.  `Q_gauge_at` and `deturck_field_at` keep the
    divergence route, so the gauge checks built on them stay an independent
    derivation: through the Christoffel difference, Q(g, g)'s gauge term
    would be Gamma(g) - Gamma(g), zero by construction.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charts import Chart, ChartDomainError, at_points, point_text

DEFAULT_STEP = 1e-3
# Points per pass of an operator.  It bounds the heap of a pass: one
# Q(g_3, g_1) call on the 234-point extraction set of the n = 4 ladder, in
# two passes of 117 points, peaks at 1.6 MB of live numpy arrays
# (tracemalloc), against 2.9 MB in one pass and 0.7 MB in 48-point passes.
BATCH_CAP = 128


class StencilError(ChartDomainError):
    """Finite-difference stencil leaves the chart's coordinate ranges."""


@dataclass(frozen=True)
class MetricField:
    """A map from chart points to component arrays: a metric (symmetric
    positive definite), a symmetric 2-tensor or a rank-3 tensor.
    SymTensorField and Tensor3Field name the same class.

    eval takes one point, or the whole (N, n) array if it is marked with
    `charts.batched`; calling the field accepts one point or an (N, n) array
    either way.  stepped, when given, is the number d of leading coordinates
    the values depend on: moving any later coordinate leaves them the same
    bits, so a stencil for this field alone steps along the first d (None:
    all n).  A count outside 1..n raises ValueError.
    """

    chart: Chart
    eval: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    stepped: Optional[int] = None

    batched = True  # a class attribute: calling a field takes arrays

    def __post_init__(self):
        if self.stepped is not None and not 1 <= self.stepped <= self.chart.n:
            raise ValueError(
                f"field {self.label!r} declares {self.stepped} stepped "
                f"coordinates; a count is 1..{self.chart.n}")

    def __call__(self, p) -> np.ndarray:
        return at_points(self.eval, p)


SymTensorField = Tensor3Field = MetricField


def chart_metric(chart: Chart, label: str = "h") -> MetricField:
    """The chart's own closed-form model metric as a field, stepped along
    the leading coordinates its components depend on
    (`Chart.metric_stepped`)."""
    return MetricField(chart, chart.metric_at, label, chart.metric_stepped)


def stencil_of(field: MetricField) -> tuple[int, int]:
    """(the number d of leading coordinates a field's stencil steps along,
    the points of one stencil): 1 + 2d^2 points, 33 when all four of n = 4
    are stepped."""
    d = _stepped(field, field.chart.n)
    return d, 1 + 2 * d * d


def coordinate_steps(g: MetricField, p, step: float, g0=None) -> np.ndarray:
    """Per-coordinate steps step / sqrt(g_ii(p)) at one point (n,) or at each
    row of an (N, n) array; checks ~double-stencil room.  g0, the values of
    g at p when the caller has them, saves evaluating g again."""
    p = np.asarray(p, dtype=float)
    diag = np.diagonal(g(p) if g0 is None else g0, axis1=-2, axis2=-1)
    bad = np.atleast_2d(diag <= 0).any(axis=1)
    if bad.any():
        q = np.atleast_2d(p)[np.argmax(bad)]
        raise StencilError(
            f"metric field {g.label!r} has a nonpositive diagonal at {point_text(q)}"
        )
    h = step / np.sqrt(diag)
    lo, hi = g.chart.coordinate_bounds
    leaves = (p - 2.2 * h <= lo) | (p + 2.2 * h >= hi)
    if leaves.any():
        k, i = np.argwhere(np.atleast_2d(leaves))[0]
        q, hq = np.atleast_2d(p)[k], np.atleast_2d(h)[k]
        raise StencilError(
            f"stencil around coordinate {i} (value {q[i]}, step {hq[i]}) "
            f"of the point {point_text(q)} leaves the range ({lo[i]}, {hi[i]}); "
            "reduce step or move inward"
        )
    return h


def _on_points(op):
    """The public form of an operator body written for an (N, n) array p:
    p may also be one point (n,), which gives unstacked values, and a point
    set is evaluated in ceil(N / BATCH_CAP) passes of near-equal size (the
    first N mod passes one point longer, as np.array_split splits)."""
    signature = inspect.signature(op)

    @functools.wraps(op)
    def on_points(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        p = np.asarray(bound.arguments["p"], dtype=float)
        points = p.reshape(-1, p.shape[-1])
        parts = []
        passes = max(1, math.ceil(len(points) / BATCH_CAP))
        for part in np.array_split(points, passes):
            bound.arguments["p"] = part
            out = op(*bound.args, **bound.kwargs)
            parts.append(out if isinstance(out, tuple) else (out,))
        out = tuple(np.concatenate(values) for values in zip(*parts))
        if p.ndim == 1:
            out = tuple(x[0] for x in out)
        return out if len(out) > 1 else out[0]

    return on_points


# -- the jet kernel -------------------------------------------------------------


def _stepped(field, n: int) -> int:
    """The number of leading coordinates a field's values depend on: its
    declared `stepped`, or all n (a plain callable declares none)."""
    d = getattr(field, "stepped", None)
    return n if d is None else d


@functools.lru_cache(maxsize=None)
def _stencil(n: int, d: int):
    """Offsets of the stencil along the first d of n coordinates, in units of
    the steps, its centre left out: +e_i, -e_i for each i < d, then
    (+e_i +e_j, +e_i -e_j, -e_i +e_j, -e_i -e_j) for each pair i < j < d;
    and the pairs as two index arrays (i, j)."""
    eye = np.eye(n)[:d]
    i, j = np.triu_indices(d, 1)
    mixed = [si * eye[x] + sj * eye[y] for x, y in zip(i, j)
             for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.vstack([eye, -eye, *mixed]), (i, j)


def _stencil_points(p: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """The off-centre points of the stencil along the first d coordinates
    around each row of p (or around one point p), with steps h of the same
    shape, the stencil offset as their leading axis: shape (S,) + p.shape,
    so values taken at points.reshape(-1, n) reshape to (S,) + p.shape[:-1]
    + the value shape, stacked by offset."""
    offsets, _ = _stencil(p.shape[-1], d)
    return p + offsets.reshape((len(offsets),) + (1,) * (p.ndim - 1) + (-1,)) * h


def _differences(f0: np.ndarray, vals: np.ndarray, h: np.ndarray, d: int):
    """2-jet from the values f0 at the stencil centres and vals at the
    off-centre points of the stencil along the first d coordinates (the
    offset axis leading, as `_stencil_points` stacks them), with steps h:
    central differences for the gradient and pure second derivatives, the
    four-point mixed stencil for the cross derivatives.  The derivative axes
    have length d: a gradient (..., d, ...) and a Hessian (..., d, d, ...).
    A field that varies in fewer than d coordinates has equal values along
    the rest, and differencing them, (a - a), (a - 2a + a) and
    ((a - a) - b) + b, gives +0.0, the derivative along a coordinate it does
    not vary in."""
    lead = h.ndim - 1
    _, (i, j) = _stencil(h.shape[-1], d)
    fp, fm = vals[:d], vals[d:2 * d]
    # hs[i] is the step in coordinate i < d, shaped like the values
    hs = np.moveaxis(h, -1, 0)[:d].reshape(
        (d,) + h.shape[:-1] + (1,) * (f0.ndim - lead))
    grad = (fp - fm) / (2.0 * hs)
    hess = np.empty((d, d) + f0.shape)
    k = np.arange(d)
    hess[k, k] = (fp - 2.0 * f0 + fm) / hs ** 2
    pp, pm, mp, mm = vals[2 * d:].reshape((len(i), 4) + f0.shape).swapaxes(0, 1)
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * hs[i] * hs[j])
    return f0, np.moveaxis(grad, 0, lead), np.moveaxis(hess, (0, 1), (lead, lead + 1))


@functools.lru_cache(maxsize=None)
def _contraction_plan(spec: str, ndim_x: int, ndim_y: int):
    """How `_contract` lays out two operands of the given ranks for one
    stacked matrix product: the axis orders of x and y, which of x's tensor
    axes size the kept, free and summed groups (x's tensor axes come
    ordered kept, free, summed; y's kept, summed, free), and the axis order
    that takes the product's (kept, free x, free y) tensor axes to `out`."""
    ins, out = spec.split("->")
    sx, sy = ins.split(",")
    kept = [c for c in out if c in sx and c in sy]
    free_x = [c for c in sx if c not in sy]
    free_y = [c for c in sy if c not in sx]
    summed = [c for c in sx if c in sy and c not in out]
    if (len(set(sx)) < len(sx) or len(set(sy)) < len(sy)
            or sorted(kept + free_x + free_y) != sorted(out)):
        raise ValueError(f"{spec!r} is not a contraction of two operands")
    bx, by = ndim_x - len(sx), ndim_y - len(sy)
    axes_x = tuple(range(bx)) + tuple(
        bx + sx.index(c) for c in kept + free_x + summed)
    axes_y = tuple(range(by)) + tuple(
        by + sy.index(c) for c in kept + summed + free_y)
    product = kept + free_x + free_y
    batch = max(bx, by)
    axes_out = tuple(range(batch)) + tuple(batch + product.index(c) for c in out)
    return axes_x, axes_y, bx, by, len(kept), len(free_x), len(free_y), axes_out


def _contract(spec: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.einsum of two operands with leading batch axes, spec written for
    their tensor axes only ("kl,lij->kij" for "...kl,...lij->...kij"), as one
    stacked matrix product: each operand is transposed and reshaped to
    (batch, kept, free, summed) blocks, and the batch axes broadcast as
    einsum's ellipsis does.  The layout is planned once per spec and rank."""
    axes_x, axes_y, bx, by, nk, nfx, nfy, axes_out = _contraction_plan(
        spec, x.ndim, y.ndim)
    x, y = x.transpose(axes_x), y.transpose(axes_y)
    tx, ty = x.shape[bx:], y.shape[by:]
    kept, free_x, free_y = tx[:nk], tx[nk:nk + nfx], ty[len(ty) - nfy:]
    k, fx, s = math.prod(kept), math.prod(free_x), math.prod(tx[nk + nfx:])
    out = np.matmul(x.reshape(x.shape[:bx] + (k, fx, s)),
                    y.reshape(y.shape[:by] + (k, s, math.prod(free_y))))
    return out.reshape(out.shape[:-3] + kept + free_x + free_y).transpose(axes_out)


def _jeinsum(spec: str, x, y):
    """The contraction `spec` of two jets by the product rule, to the lower
    order of the two; spec names the tensor indices, the batch axes lead
    every operand."""
    ins, out = spec.split("->")
    sx, sy = ins.split(",")
    order = min(len(x), len(y))
    res = [_contract(spec, x[0], y[0])]
    if order > 1:
        d = _contract(f"Y{sx},{sy}->Y{out}", x[1], y[0])
        d += _contract(f"{sx},Y{sy}->Y{out}", x[0], y[1])
        res.append(d)
    if order > 2:
        dd = _contract(f"YZ{sx},{sy}->YZ{out}", x[2], y[0])
        dd += _contract(f"{sx},YZ{sy}->YZ{out}", x[0], y[2])
        cross = _contract(f"Y{sx},Z{sy}->YZ{out}", x[1], y[1])
        dd += cross
        dd += cross.swapaxes(-len(out) - 2, -len(out) - 1)
        res.append(dd)
    return tuple(res)


def _jinv(jet):
    """1-jet of the matrix inverse from the first two orders of a jet:
    d M^-1 = -M^-1 dM M^-1 (stacked matrix products; an axis of None
    broadcasts over the derivative index).  The one second derivative of
    g^-1 the operators need, inside tr_g t, is `_g_trace_jet`'s identity."""
    inv = np.linalg.inv(jet[0])
    ia = inv[..., None, :, :]
    d = ia @ jet[1] @ ia
    return inv, np.negative(d, out=d)


def _jlin(*terms):
    """Linear combination sum c * jet over (c, jet) pairs, to the lowest
    order: each order is summed into one array, from zero and in the order
    given, as sum() adds them."""
    res = []
    for parts in zip(*(jet for _, jet in terms)):
        acc = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in parts)))
        for (c, _), part in zip(terms, parts):
            acc += c * part
        res.append(acc)
    return tuple(res)


def _sym(t: np.ndarray) -> np.ndarray:
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def _joint(g: MetricField, others):
    """p -> (values of g, values of the one further field) from one
    evaluation, if g offers one for that field (`g.joint(other)`, as two
    stages of one expansion ladder do); otherwise None."""
    if len(others) != 1:
        return None
    joint = getattr(g, "joint", None)
    return None if joint is None else joint(others[0])


def _metric_jets(g: MetricField, p, step: float, *fields):
    """Jets of g and of each further field at the points p, all from one
    stencil with the steps g gives there.  Each distinct field is evaluated
    at p, and g's values give the steps; a field identical to g reuses g's
    values and jet.  The stencil steps along the leading coordinates that
    any of the fields varies in (`_stepped`): each field is evaluated on its
    off-centre points, through g's `_joint` evaluation when it offers one
    and field by field otherwise, and its values are differenced on their
    own (`_differences`).  This is the one place jets are sampled."""
    n = p.shape[-1]
    distinct = [g, *(f for f in fields if f is not g)]
    evaluate = _joint(g, distinct[1:]) or (
        lambda q: [at_points(f, q) for f in distinct])
    centres = evaluate(p)
    h = coordinate_steps(g, p, step, centres[0])
    d = max(_stepped(f, n) for f in distinct)
    points = _stencil_points(p, h, d)
    stencils = evaluate(points.reshape(-1, n))
    jets = iter([_differences(f0, v.reshape(points.shape[:-1] + v.shape[1:]), h, d)
                 for f0, v in zip(centres, stencils)])
    G = next(jets)
    return (G,) + tuple(G if f is g else next(jets) for f in fields)


# -- connection and Ricci curvature on jets ------------------------------------


def _christoffel(G, Ginv=None):
    """1-jet of Gamma[..., k, i, j] = Gamma^k_ij from the metric's 2-jet
    (and the jet of its inverse, if the caller has it)."""

    def first_kind(dg):  # dg[..., a, b, c] = d_a g_bc, a < d -> Gamma_{l,ij}
        d, n = dg.shape[-3], dg.shape[-1]
        full = np.zeros(dg.shape[:-3] + (n, n, n))  # d_a g_bc for every a
        full[..., :d, :, :] = dg
        jil = full.swapaxes(-1, -3)  # [l, i, j] = d_j g_il
        return 0.5 * (jil.swapaxes(-1, -2) + jil - full)

    Ginv = _jinv(G) if Ginv is None else Ginv
    return _jeinsum("kl,lij->kij", Ginv, tuple(map(first_kind, G[1:])))


def _ricci(gam) -> np.ndarray:
    """Ric_ij = d_k G^k_ji - d_j G^k_ki + G^k_km G^m_ji - G^k_jm G^m_ki, the
    trace R^k_ikj contracted from the Christoffel 1-jet directly."""
    g0, dg = gam  # dg[..., a, k, j, i] = d_a G^k_ji, a < d
    d = dg.shape[-4]
    ric = np.einsum("...kkji->...ij", dg[..., :d, :, :])
    ric[..., :d] -= np.einsum("...jkki->...ij", dg)
    ric += _contract("m,mji->ij", np.einsum("...kkm->...m", g0), g0)
    ric -= _contract("kjm,mki->ij", g0, g0)
    return _sym(ric)


def _indices(gam, T) -> str:
    """Index letters for the tensor slots of T (its batch axes excluded);
    the batch rank is read off the Christoffel jet."""
    return "abcdefgh"[: T[0].ndim - (gam[0].ndim - 3)]


def _nabla(gam, T):
    """Jet of nabla T, nab[..., k, i1, ...] = nabla_k T_{i1 ...}, for a
    covariant tensor jet T; one order lower than T.  The last derivative
    axis of T's derivative jet is the slot k: its d slices are added into
    the n-wide result, and each connection term is subtracted from it."""
    idx = _indices(gam, T)
    lead, n = gam[0].ndim - 3, gam[0].shape[-1]
    out = []
    for o, part in enumerate(T[1:]):
        k = lead + o
        acc = np.zeros(part.shape[:k] + (n,) + part.shape[k + 1:])
        acc[tuple(map(slice, part.shape))] += part
        out.append(acc)
    order = len(out)  # the orders of gam and T the result needs
    for s, i in enumerate(idx):
        slot = idx[:s] + "m" + idx[s + 1:]
        terms = _jeinsum(f"mk{i},{slot}->k{idx}", gam[:order], T[:order])
        for acc, term in zip(out, terms):
            acc -= term
    return tuple(out)


def _rough_laplacian(G, gam, U) -> np.ndarray:
    """-g^{lk} nabla_l nabla_k U for a covariant tensor jet U (scalars too)."""
    idx = _indices(gam, U)
    nab2 = _nabla(gam, _nabla(gam, U))[0]
    return -_contract(f"lk,lk{idx}->{idx}", np.linalg.inv(G[0]), nab2)


def _g_trace(g0: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """tr_g t, per point, shaped to multiply a stack of matrices."""
    return np.trace(np.linalg.inv(g0) @ t0, axis1=-2, axis2=-1)[..., None, None]


def _divergence(Ginv, gam, T):
    """Jet of delta_g t = -tr_12 nabla t."""
    return _jlin((-1.0, _jeinsum("ki,kij->j", Ginv, _nabla(gam, T))))


def _deltastar(gam, W) -> np.ndarray:
    """delta*_g omega, the symmetrized covariant derivative of a 1-form jet."""
    return _sym(_nabla(gam, W)[0])


def _g_trace_jet(Ginv, G, T):
    """2-jet of tr_g t = g^{kl} t_kl for symmetric g and t, from the 1-jet
    of g^{-1}.  The second derivatives of g^{-1} enter only through

      tr(d_a d_b g^{-1} t) = -tr(d_a g^{-1} d_b g g^{-1} t)
                             - tr(g^{-1} d_b g d_a g^{-1} t)
                             - tr(g^{-1} d_a d_b g g^{-1} t),

    whose first two terms are equal for symmetric g and t.  With
    w_ab = tr(d_a g^{-1} (d_b t - d_b g g^{-1} t)) this gives
    d_a d_b tr_g t = w_ab + w_ba + tr(g^{-1} d_a d_b t)
                     - tr(d_a d_b g g^{-1} t g^{-1})."""
    ginv, dginv = Ginv
    tr, dtr = _jeinsum("kl,kl->", Ginv, T[:2])
    m = ginv @ T[0]  # g^{-1} t
    w = _contract("akl,bkl->ab", dginv, T[1] - _contract("bkm,ml->bkl", G[1], m))
    ddtr = w + np.swapaxes(w, -1, -2)
    ddtr += _contract("kl,abkl->ab", ginv, T[2])
    ddtr -= _contract("abkl,kl->ab", G[2], m @ ginv)
    return tr, dtr, ddtr


def _reversed_divergence(Ginv, G, T, div):
    """1-jet of delta_g(G_g t) = delta_g t + d(tr_g t) / 2, from div, the
    1-jet of delta_g t.  The last derivative axis of d(tr_g t) is the
    covector slot: its d slices are added into div's n-wide slot."""
    out = _jlin((1.0, div))
    for acc, part in zip(out, _g_trace_jet(Ginv, G, T)[1:]):
        acc[tuple(map(slice, part.shape))] += 0.5 * part
    return out


def _gauge_parts(g: MetricField, t, p, step: float):
    """(the Christoffel 1-jet of g, g at p, the 1-jet of the gauge covector
    omega = g t^{-1} delta_g(G_g t)) at the points p, from one pair of
    metric jets (one inverse jet when t is g)."""
    G, T = _metric_jets(g, p, step, t)
    Ginv = _jinv(G)
    gam = _christoffel(G, Ginv)
    div = _reversed_divergence(Ginv, G, T, _divergence(Ginv, gam, T))
    Tinv = Ginv if T is G else _jinv(T)
    return gam, G[0], _jeinsum("ij,j->i", _jeinsum("ij,jk->ik", G, Tinv), div)


# -- operators ----------------------------------------------------------------
# Each body below is written for an (N, n) array of points; `_on_points`
# lets p be one point as well and caps the points per evaluation.


@_on_points
def christoffels_at(g: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_ij of g at p."""
    (G,) = _metric_jets(g, p, step)
    return _christoffel(G)[0]


@_on_points
def ricci_at(g: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Ricci tensor of g at p from the 2-jet of g."""
    (G,) = _metric_jets(g, p, step)
    return _ricci(_christoffel(G))


# -- Laplacians ---------------------------------------------------------------


@_on_points
def laplacian_scalar_at(
    g: MetricField, u: Callable[[np.ndarray], float], p, step: float = DEFAULT_STEP
) -> float:
    """Nonnegative Laplace-Beltrami operator on functions."""
    G, U = _metric_jets(g, p, step, u)
    return _rough_laplacian(G, _christoffel(G), U)


# -- the gauge-adjusted operator and its linearization ------------------------


@_on_points
def Q_gauge_at(g: MetricField, t, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Only the gauge term delta*_g(g t^{-1} delta_g(G_g t)) of Q."""
    gam, _, omega = _gauge_parts(g, t, p, step)
    return _deltastar(gam, omega)


def _deturck_covector(G, Ginv, gam, T):
    """1-jet of omega_k = g_kl g^{ij} (Gamma(g)^l_ij - Gamma(t)^l_ij) from
    the 2-jets of g and t, g's inverse 1-jet and Christoffel 1-jet.  It is
    the gauge covector g t^{-1} delta_g(G_g t): with A = Gamma(g) - Gamma(t),
    nabla_i t_jk = -A^m_ij t_mk - A^m_ik t_jm, so delta_g(G_g t)_k =
    t_km g^{ij} A^m_ij, the d tr_g t half cancelling the rest."""
    difference = tuple(a - b for a, b in zip(gam, _christoffel(T)))
    return _jeinsum("kl,l->k", G, _jeinsum("ij,kij->k", Ginv, difference))


@_on_points
def Q_at(g: MetricField, t: MetricField, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Gauge-adjusted Einstein operator
    Q(g, t) = Rc(g) + (n-1) g - delta*_g(g t^{-1}(delta_g(G_g t))).

    Q(g, g) = Rc(g) + (n-1) g comes from g's jet alone: nabla g = 0, so
    G_g g = (1 - n/2) g has no divergence and the gauge term vanishes.
    With two fields, the gauge covector is formed from the difference of
    their Christoffel symbols (`_deturck_covector`).  `Q_gauge_at` still
    computes the gauge term by the divergence, as a check."""
    if t is g:
        (G,) = _metric_jets(g, p, step)
        return _ricci(_christoffel(G)) + (g.chart.n - 1.0) * G[0]
    G, T = _metric_jets(g, p, step, t)
    Ginv = _jinv(G)
    gam = _christoffel(G, Ginv)
    gauge = _deltastar(gam, _deturck_covector(G, Ginv, gam, T))
    return _ricci(gam) + (g.chart.n - 1.0) * G[0] - gauge


@_on_points
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
    uh = _g_trace(h0, r0) / n * h0
    lap = _sym(_rough_laplacian(H, _christoffel(H), R))
    return 0.5 * (lap + k1 * uh + k2 * (r0 - uh))


@_on_points
def deturck_field_at(
    g: MetricField, tau: MetricField, p, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Gauge-breaking covector omega = g tau^{-1} delta_g(G_g tau) at p."""
    return _gauge_parts(g, tau, p, step)[2][0]


# -- norms --------------------------------------------------------------------


def tensor_norm(g0: np.ndarray, t0: np.ndarray):
    """Pointwise norm |t|_g of a symmetric 2-tensor (one point, or per point
    of stacked matrices)."""
    ginv = np.linalg.inv(g0)
    return np.sqrt(np.abs(np.einsum("...ik,...jl,...ij,...kl->...",
                                    ginv, ginv, t0, t0)))[()]


def covector_norm(g0: np.ndarray, v: np.ndarray):
    """Pointwise norm |v|_g of a covector (one point, or per point)."""
    return np.sqrt(np.abs(np.einsum("...i,...ij,...j->...",
                                    v, np.linalg.inv(g0), v)))[()]
