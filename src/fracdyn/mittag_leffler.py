"""Two-parameter Mittag-Leffler function and its monotone/oscillatory split.

``ml`` evaluates E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta) for
real z by inverting its Laplace transform s^(alpha-beta) / (s^alpha - z):
the trapezoid rule on the optimal parabolic contour s(u) = mu (1 + iu)^2,
plus the residues of the poles s^alpha = z to the right of the contour
(R. Garrappa, "Numerical evaluation of two and three parameter
Mittag-Leffler functions", SIAM J. Numer. Anal. 53 (2015) 1350-1369).
Absolute accuracy is ~1e-10 on the tested domain (|z| <= 50, alpha in
[0.3, 3], 0 < beta <= 6); a value past the float range is +inf.  Past
beta = 6 the contour runs so close to the branch point at the origin that
round-off in s^(alpha-beta) exceeds that accuracy, so ``MLParams`` rejects
such beta.

``ml_grid`` evaluates E_{alpha,beta}(-lam t^alpha) for several beta over a
sorted grid of t at once, and ``ml`` is its one-node case: z != 0 is the
node t = 1 with lam = -z, so the package has one contour loop.  In the
s = sigma / t plane one contour serves a whole band of nodes
[t_top / 4, t_top]: it is the contour designed for z = -lam t_top^alpha
at the band's top node, widened until truncation holds at its bottom node
(contour and singularities both scale with t) (J. A. C. Weideman and
L. N. Trefethen, Math. Comp. 76 (2007) 1341-1356; R. Garrappa and
M. Popolizio, Adv. Comput. Math. 39 (2013) 205-225).  A band of N
equally spaced nodes also shares its exponentials, e^(s t_base + s m dt)
= e^(s t_base) e^(s m dt): it costs N / _BLOCK + _BLOCK rows of exp(s_k t)
over the contour nodes instead of N, and its values lie within
2e-14 max(1, |v|) of those of one row per node, which a band whose
nodes are not equally spaced still takes.  A node's value thus depends
on its band and on the largest beta asked: ``ml`` at z = -lam t^alpha
and a node t of a wider ``ml_grid`` call are not bit-identical, but agree
within ~1e-13.

For 1 < alpha < 2 the relaxation function E_alpha(-t^alpha) splits into an
exponentially damped oscillation g_{alpha,k} (pole-pair contribution, in
closed form) and a completely monotone remainder f_{alpha,k} (a cut
integral, evaluated by quadrature).  The index k counts antiderivatives:
d/dt f_{alpha,k} = f_{alpha,k-1} and likewise for g.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyLossError, FracDomainError

__all__ = ["MLParams", "ml", "ml_grid", "ml_decomp_f", "ml_decomp_g"]

# target accuracy of the contour quadrature (log), relaxed a decade at a
# time while the cheapest contour needs more than _MAX_NODES nodes a side
_LOG_TOL = math.log(1e-15)
_MAX_NODES = 200
_EPS = np.finfo(float).eps
_LOG_EPS = math.log(_EPS)
_LOG_MAX = math.log(np.finfo(float).max)
# largest beta for which the contour meets ~1e-10, measured against the
# series over alpha in [0.3, 3] and z in [-50, 50]: beta = 7.5 misses it
# by 10x at alpha = 2.0001, z = 0.1, beta = 7 reaches 0.6 of it
_BETA_MAX = 6.0
# ml_grid: ratio of a band's top node to its bottom node, and nodes per
# block of shared exponentials (rows per product).  A ratio of 4 keeps the
# widening for the bottom node small (110 to 241 contour nodes a band on
# t = j 2^-9 <= 10, against 173 to 530 at 10) and the distance from one
# exp row per node at 1.3e-14 (2.5e-14 at 10).  OpenBLAS splits a product
# over threads, whose sums round differently, once rows x contour nodes x
# betas reach 65 536: 16 rows stay under that up to 4 096 contour-node
# betas, so no value depends on the thread count; 32 rows ran 15-20%
# faster but crossed it at 10 betas on that grid
_BAND = 4.0
_BLOCK = 16


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) of E_{alpha,beta}, 0 < beta <= 6."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise FracDomainError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.beta <= _BETA_MAX:
            raise FracDomainError(f"beta must be in (0, {_BETA_MAX:g}], got {self.beta}")


def _bounded(phi0: float, phi1: float, p: float, log_tol: float):
    """(N, mu, h) of a contour between singularity levels phi0 < phi1, the
    left one of strength p and the right one a simple pole; N is inf when
    the region cannot meet the tolerance."""
    f_max = math.exp(log_tol - _LOG_EPS)
    sq0 = math.sqrt(phi0)
    sq1 = min(math.sqrt(phi1), 2.0 * math.sqrt(log_tol - _LOG_EPS) - sq0)
    if p < 1e-14:
        # only the branch point at the origin is this weak, so sq0 = 0
        f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
        b0 = 0.0
        b1 = 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * (sq0 + sq1) / (sq1 - sq0) ** max(p, 1.0)
        if not f_min < f_max:
            return math.inf, 0.0, 0.0
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p)
        fq = 1.0 / f_bar
        w = -phi1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        b0 = ((2.0 + w + fq) * sq0 + fp * sq1) / den
        b1 = (-(1.0 + w) * fq * sq0 + (2.0 + w - (1.0 + w) * fp) * sq1) / den
    log_tol -= math.log(f_bar)
    w = -b1 * b1 / log_tol
    mu = (((1.0 + w) * b0 + b1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (b1 - b0) / ((1.0 + w) * b0 + b1)
    return math.ceil(math.sqrt(1.0 - log_tol / mu) / h), mu, h


def _open(phi0: float, p: float, log_tol: float):
    """(N, mu, h) of a contour right of every singularity, the rightmost at
    level phi0 with strength p."""
    sq0 = math.sqrt(phi0)
    phib = 1.01 * phi0 if phi0 > 0.0 else 0.01
    sqb = math.sqrt(phib)
    while True:
        lt = log_tol / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * lt + math.sqrt(1.0 - 2.0 * lt)))
        a = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        f_bar = ((sqb - sq0) / sq_mu) ** (-p)
        if p < 1e-14 or 1.0 < f_bar < 10.0:
            break
        sqb = 5.0 ** (-1.0 / p) * sq_mu + sq0
        phib = sqb * sqb
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # round-off in e^s grows like eps e^mu: move the contour left if needed
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
        phib = (q + sq0) ** 2
        if not phib < threshold:
            return math.inf, 0.0, 0.0
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phib / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return n, mu, h


def _level(s: complex) -> float:
    """phi of the parabola Re w = phi - (Im w)^2 / (4 phi) through s."""
    return (s.real + abs(s)) / 2.0


def _contour(alpha: float, beta: float, z: float):
    """Design of the contour for E_{alpha,beta}(z), z != 0: (n, mu, h,
    log_tol, poles), where mu (1 + iu)^2 at u = h k, |k| <= n, meets the
    tolerance e^log_tol and ``poles`` are the poles right of it."""
    # poles s^alpha = z on the principal sheet |arg s| <= pi, ordered by
    # level; those on the cut (level ~0) are not singularities there
    theta = 0.0 if z > 0.0 else math.pi
    # r = |z|^(1/alpha) <= |z| is finite for alpha > 1.  For alpha <= 1 it
    # stops near 1e300, where it and its level stay finite: past that, z < 0
    # has no pole right of the contour and z > 0 one whose residue is +inf
    size = abs(z) if alpha > 1.0 else min(abs(z), 1e300**alpha)
    r, k0 = size ** (1.0 / alpha), theta / (2.0 * math.pi)
    ks = range(math.ceil(-alpha / 2.0 - k0), math.floor(alpha / 2.0 - k0) + 1)
    poles = [r * cmath.exp(1j * (theta + 2.0 * math.pi * k) / alpha) for k in ks]
    poles = sorted((s for s in poles if _level(s) > 1e-15), key=_level)
    # singularity levels: the branch point at 0, the poles, then +inf
    phi = [0.0] + [_level(s) for s in poles] + [math.inf]
    p = [max(0.0, -2.0 * (alpha - beta + 1.0))] + [1.0] * len(poles)
    # region j's contour has mu > phi[j]; its round-off eps e^mu must stay < tol
    top = _LOG_TOL - _LOG_EPS
    regions = [j for j in range(len(poles) + 1) if phi[j] < min(phi[j + 1], top)]
    log_tol = _LOG_TOL
    while True:
        cands = [
            (_bounded(phi[j], phi[j + 1], p[j], log_tol) if j < len(poles)
             else _open(phi[j], p[j], log_tol)) + (j,)
            for j in regions
        ]
        n, mu, h, j = min(cands, key=lambda c: c[0])
        if n <= _MAX_NODES:
            return n, mu, h, log_tol, poles[j:]
        log_tol += math.log(10.0)


def _bands(alpha: float, betas: np.ndarray, lam: float, t: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-lam t^alpha) for each beta of ``betas`` and each node
    of a sorted t >= 0, any finite lam != 0: the body of ``ml_grid``."""
    out = np.empty((len(betas), len(t)))
    zero = int(np.searchsorted(t, 0.0, side="right"))
    out[:, :zero] = np.array([1.0 / math.gamma(b) for b in betas])[:, None]
    hi = len(t)
    while hi > zero:
        t_top = t[hi - 1]
        lo = max(zero, int(np.searchsorted(t, t_top / _BAND)))
        tb = t[lo:hi]
        # designed at the top node for the strongest branch point; scaled
        # by t, its mu falls to mu t_bot / t_top at the bottom node, where
        # truncation needs u_n >= sqrt(1 - log_tol / mu)
        n, mu, h, log_tol, poles = _contour(alpha, betas.max(), -lam * t_top**alpha)
        n = max(n, math.ceil(math.sqrt(1.0 - log_tol * t_top / (mu * tb[0])) / h))
        # the sum is symmetric in u: the nodes u >= 0, the others by weight 2
        u = h * np.arange(n + 1)
        mu_s = mu / t_top
        s = mu_s * (1.0 + 1j * u) ** 2
        g = (h / math.pi) * (2.0 * mu_s) * (1j - u) / (s**alpha + lam)
        g[0] /= 2.0
        kern = np.array([g * s ** (alpha - b) for b in betas]).T
        out[:, lo:hi] = _contour_sums(tb, s, kern).T
        out[:, lo:hi] *= tb ** (1.0 - betas[:, None])
        for pole in poles:
            sig = pole * (tb / t_top)
            # e^sig sig^(1 - beta) as one exp-log, +-inf where that exponent
            # passes the float range: numpy's power at an integer exponent
            # multiplies out |sig|^(beta - 1), which overflows.  The poles
            # share one modulus, so their level order is the order of
            # Re arg: the last pole to overflow dominates the sum, and the
            # sign of its real part, cos(Im arg), is the sign of the value
            arg = sig + (1.0 - betas[:, None]) * np.log(sig)
            over = arg.real > _LOG_MAX
            sign = np.cos(arg.imag[over])
            arg[over] = 0.0
            out[:, lo:hi] += np.exp(arg).real / alpha
            out[:, lo:hi][over] = np.copysign(math.inf, sign)
        hi = lo
    return out


def _contour_sums(tb: np.ndarray, s: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Im sum_k e^(s_k t) kern[k, :] for each node t of the band tb: an
    array (len(tb), kern.shape[1]).

    Nodes t = t_0 + j dt, equally spaced up to 8 eps times the top node,
    share their exponentials where that saves some (len(tb) / _BLOCK +
    _BLOCK rows of them against len(tb)): a block of _BLOCK nodes from
    t_base takes e^(s t_base + s m dt) = e^(s t_base) e^(s m dt), m < _BLOCK,
    so it costs one row of exponentials, scaled into the kernel, times the
    band's one table of offset factors.  Other bands take one row of
    exp(s t) per node.  Either way each product has _BLOCK rows, one column
    per beta and one term per contour node."""
    m, nb = len(tb), kern.shape[1]
    if m > _BLOCK + math.ceil(m / _BLOCK):
        dt = (tb[-1] - tb[0]) / (m - 1)
        if np.abs(tb - (tb[0] + dt * np.arange(m))).max() <= 8.0 * _EPS * tb[-1]:
            offsets = np.exp(np.outer(dt * np.arange(_BLOCK), s))
            bases = tb[::_BLOCK]
            out = np.empty((len(bases) * _BLOCK, nb))
            for i in range(0, len(bases), _BLOCK):
                scaled = np.exp(np.outer(bases[i : i + _BLOCK], s))[:, :, None] * kern
                out[i * _BLOCK : (i + _BLOCK) * _BLOCK] = (offsets @ scaled).imag.reshape(-1, nb)
            return out[:m]
    out = np.empty((m, nb))
    for i in range(0, m, _BLOCK):
        out[i : i + _BLOCK] = (np.exp(np.outer(tb[i : i + _BLOCK], s)) @ kern).imag
    return out


def ml(params: MLParams, z):
    """E_{alpha,beta}(z) for finite real z: a float for a scalar z, an array
    of the same shape for an array z, each element as its own scalar call.
    A z != 0 is the one node t = 1 of ``ml_grid``'s bands with lam = -z."""
    if isinstance(z, np.ndarray):
        vals = [ml(params, x) for x in z.ravel().tolist()]
        return np.array(vals, dtype=float).reshape(z.shape)
    z = float(z)
    if not math.isfinite(z):
        raise FracDomainError(f"z must be finite, got {z}")
    if z == 0.0:
        return 1.0 / math.gamma(params.beta)
    return float(_bands(params.alpha, np.array([params.beta]), -z, np.ones(1))[0, 0])


def ml_grid(alpha: float, betas, lam: float, t) -> np.ndarray:
    """E_{alpha,beta}(-lam t^alpha) for each beta in ``betas`` and each
    node of a sorted array t >= 0: an array (len(betas), len(t)).

    Nodes t = 0 get 1/Gamma(beta).  The others fall into bands
    [t_top / _BAND, t_top], and each band sums on one contour for every
    beta: with F(s) = s^(alpha-beta) / (s^alpha + lam),
    E = t^(1-beta) (h/2pi) Im sum_k e^(s_k t) F(s_k) s'(u_k) plus the
    residues of the poles right of the contour."""
    t = np.asarray(t, dtype=float)
    if not 0.0 < lam < math.inf:
        raise FracDomainError(f"lam must be positive and finite, got {lam}")
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise FracDomainError("t must be a 1-d array of finite values")
    if len(t) and not (t[0] >= 0.0 and np.all(t[1:] >= t[:-1])):
        raise FracDomainError("t must be sorted and >= 0")
    betas = np.array([MLParams(alpha, b).beta for b in betas])
    if not len(betas):
        raise FracDomainError("betas must hold at least one beta")
    return _bands(alpha, betas, lam, t)


# ---------------------------------------------------------------------------
# decomposition pair, 1 < alpha < 2

def _check_decomp_domain(alpha: float, k: int) -> None:
    if not 1.0 < alpha < 2.0:
        raise FracDomainError(f"decomposition needs alpha in (1,2), got {alpha}")
    if k not in (-1, 0, 1):
        raise FracDomainError(f"index k must be -1, 0 or 1, got {k}")


def ml_decomp_g(alpha: float, k: int, t: float) -> float:
    """Damped-oscillation part (2/alpha) e^{t cos(pi/a)} cos[t sin(pi/a) - pi k/a]."""
    _check_decomp_domain(alpha, k)
    if t < 0.0:
        raise FracDomainError("t must be >= 0")
    th = math.pi / alpha
    return (2.0 / alpha) * math.exp(t * math.cos(th)) * math.cos(
        t * math.sin(th) - k * th
    )


def _f_integrand(u: np.ndarray, alpha: float, k: int, t: float) -> np.ndarray:
    # cut integral over r in (0,inf), substituted r = e^u
    ea = np.exp(alpha * u)
    denom = ea * ea + 2.0 * math.cos(math.pi * alpha) * ea + 1.0
    return (
        ((-1.0) ** k / math.pi)
        * np.exp(-t * np.exp(u) + (alpha - k) * u)
        * math.sin(math.pi * alpha)
        / denom
    )


def ml_decomp_f(alpha: float, k: int, t: float) -> float:
    """Completely monotone part of the split: the branch-cut integral
    ((-1)^k/pi) int_0^inf e^{-rt} r^{alpha-1-k} sin(pi alpha)
    / (r^{2 alpha} + 2 r^alpha cos(pi alpha) + 1) dr,
    by Gauss-Legendre panels after r = e^u.  Absolute error <= ~1e-9.
    """
    _check_decomp_domain(alpha, k)
    if t <= 0.0:
        raise FracDomainError("t must be > 0")
    # locate the peak, then truncate where the integrand drops below 1e-16 of it
    u = np.linspace(-80.0, max(10.0, -math.log(t) + 8.0), 3000)
    w = np.abs(_f_integrand(u, alpha, k, t))
    peak = w.max()
    keep = np.nonzero(w >= 1e-16 * peak)[0]
    lo = u[max(keep[0] - 1, 0)]
    hi = u[min(keep[-1] + 1, len(u) - 1)]

    nodes, weights = np.polynomial.legendre.leggauss(20)
    prev = None
    panels = 8
    while panels <= 2048:
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        pts = (mid[:, None] + half * nodes[None, :]).ravel()
        vals = _f_integrand(pts, alpha, k, t).reshape(panels, -1)
        est = float(half * np.sum(vals @ weights))
        if prev is not None and abs(est - prev) < 1e-9 * max(1.0, abs(est)):
            return est
        prev = est
        panels *= 2
    raise AccuracyLossError(
        "cut-integral quadrature did not settle", achieved=abs(est - prev)
    )
