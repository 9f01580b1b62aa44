"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``fracdyn``: each reference is written from the
mathematics, so a fault in the library cannot hide behind the same fault
in its check.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# L1 Caputo sums


def l1_first_order(x: np.ndarray, h: float, alpha: float):
    """L1 Caputo derivative of order alpha in (0, 1) at every node i, as the
    plain panel sum

        h^-alpha / Gamma(2-alpha) * sum_{j<i} (x[j+1]-x[j]) * ((i-j)^(1-alpha) - (i-j-1)^(1-alpha)).

    Returns (values, magnitudes), where magnitudes are the same sums taken
    over absolute terms: the scale that rounding errors are measured against.
    """
    n = len(x) - 1
    k = np.arange(1, n + 1, dtype=float)
    w = k ** (1.0 - alpha) - (k - 1.0) ** (1.0 - alpha)  # by distance i - j
    d = np.diff(x)
    scale = h ** (-alpha) / math.gamma(2.0 - alpha)
    vals = np.zeros(n + 1)
    mags = np.zeros(n + 1)
    vals[1:] = np.convolve(d, w)[:n] * scale
    mags[1:] = np.convolve(np.abs(d), w)[:n] * scale
    return vals, mags


def caputo_from_acceleration(acc: np.ndarray, h: float, order: float) -> np.ndarray:
    """Caputo derivative of order in (1, 2) at nodes 0..len(acc), for a
    trajectory whose acceleration is acc[j] on panel [t_j, t_j+1].

    That is J^(2-order) of a piecewise-constant second derivative, which is
    exact: sum_j acc[j] * int_panel (t_i - s)^(1-order) ds / Gamma(2-order).
    """
    nu = 2.0 - order
    n = len(acc)
    k = np.arange(n + 1, dtype=float)
    w = np.zeros(n + 1)
    w[1:] = k[1:] ** nu - k[:-1] ** nu  # panel weight by distance in steps
    out = np.zeros(n + 1)
    out[1:] = np.convolve(acc, w[1:])[:n]
    return out * h**nu / math.gamma(nu + 1.0)


def fractional_integral_trapezoid(f: np.ndarray, h: float, eps: float) -> np.ndarray:
    """J^eps of the piecewise-linear interpolant of samples f, at every node.

    Panel j contributes int_{t_j}^{t_j+1} (t_i - s)^(eps-1) lin(s) ds in
    closed form; the sum over panels is divided by Gamma(eps).
    """
    n = len(f) - 1
    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        d = i - np.arange(i, dtype=float)  # distance of each panel's left end
        a = (d**eps - (d - 1.0) ** eps) / eps
        b = d * a - (d ** (eps + 1.0) - (d - 1.0) ** (eps + 1.0)) / (eps + 1.0)
        out[i] = h**eps * (f[:i] @ a + (f[1 : i + 1] - f[:i]) @ b)
    return out / math.gamma(eps)


# ---------------------------------------------------------------------------
# Mittag-Leffler series in arbitrary precision


def ml_series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta) in mpmath.

    The working precision is sized from the largest term: the alternating
    series for z < 0 cancels that many digits, and 25 more are kept on top.
    """
    if z == 0.0:
        return float(1.0 / mpmath.gamma(beta))
    lz = math.log(abs(z))
    peak = -math.inf
    k = 0
    while True:
        lt = k * lz - math.lgamma(alpha * k + beta)
        peak = max(peak, lt)
        if lt < peak - 60.0 and alpha * k + beta > abs(z) ** (1.0 / alpha):
            break
        k += 1
    dps = 25 + max(0, int(math.ceil(peak / math.log(10.0))))
    with mpmath.workdps(dps):
        zm = mpmath.mpf(z)
        am = mpmath.mpf(alpha)
        bm = mpmath.mpf(beta)
        total = mpmath.mpf(0)
        tol = mpmath.mpf(10) ** (-dps)
        k = 0
        zk = mpmath.mpf(1)
        while True:
            term = zk / mpmath.gamma(am * k + bm)
            total += term
            if abs(term) < tol and alpha * k + beta > abs(z) ** (1.0 / alpha):
                return float(total)
            k += 1
            zk *= zm


# ---------------------------------------------------------------------------
# constant-A Hamilton motion


def projected_harmonic(A, k: float, q0, p0, t: np.ndarray):
    """Closed form (q(t), p(t)) of hamilton-linear with constant A and
    U = k|q|^2/2.

    With dA/dq = dA/dD = 0 the equations are qdot = P p, pdot = -k q, with
    P = I - A A^T / |A|^2.  The A-component of q keeps its initial value and
    the projected part y = P q obeys ydd = -k y, so

        q(t) = (A.q0/|A|^2) A + P q0 cos(wt) + P p0 sin(wt)/w,   w = sqrt(k),

    while P p = ydot and A.p falls linearly, A.p0 - k (A.q0) t.
    """
    A = np.asarray(A, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    a2 = A @ A
    P = np.eye(len(A)) - np.outer(A, A) / a2
    w = math.sqrt(k)
    c = np.cos(w * t)[:, None]
    s = np.sin(w * t)[:, None]
    pq0 = (P @ q0)[None, :]
    pp0 = (P @ p0)[None, :]
    q = (A @ q0) / a2 * A[None, :] + c * pq0 + s / w * pp0
    p = ((A @ p0) - k * (A @ q0) * t)[:, None] / a2 * A[None, :] - w * s * pq0 + c * pp0
    return q, p


def euler_error_bounds(M: np.ndarray, h: float, z: np.ndarray) -> np.ndarray:
    """Per-node bound on |z_num - z| for explicit Euler z_{i+1} = (I + hM) z_i
    started on the exact solution z (one row per node).

    The local defects tau_j = z_{j+1} - (I + hM) z_j are O(h^2); the step
    matrix carries each to node i, so |e_i| <= sum_{j<i} |(I+hM)^(i-1-j)| |tau_j|,
    a sum of about t/h defects: first order in h.
    """
    step = np.eye(len(M)) + h * M
    tau = np.linalg.norm(z[1:] - z[:-1] @ step.T, axis=1)
    norms = np.empty(len(tau))
    power = np.eye(len(M))
    for k in range(len(tau)):
        norms[k] = np.linalg.norm(power, 2)
        power = step @ power
    return np.concatenate(([0.0], np.convolve(tau, norms)[: len(tau)]))
