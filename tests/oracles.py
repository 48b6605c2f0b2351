"""Independent oracles for the test suite.

Everything here is written as plain scalar loops transcribed directly
from the update formulas and pseudocode, deliberately avoiding the
vectorized code paths of the package: step oracles use math.exp and
per-cell arithmetic, operator oracles use naive triple loops, the SVD
oracle goes through the Gram-matrix eigendecomposition, and sums that
back accuracy claims use compensated (Kahan) accumulation.

The last section keeps reference copies of retired package code: the
per-state HLL fan of the SWE, the
projection of a full field onto a POD basis, the window SVD through
scipy's LAPACK wrappers, the POD basis of one slice through the chain
the offline build runs, the whole-field DEIM
interpolation and the per-refresh point evaluations of
the SWE online context, each refresh deriving its own values from the
sampled points.  The package's replacements must match them bitwise.
"""

import math

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from hyporom.deim import deim_online_values
from hyporom.errors import (BreakdownInEigensolve, DegenerateWaveFan,
                            EmptySlice, EvaluationError, ShapeMismatch)
from hyporom.fom.swe import hll_fan
from hyporom.pod import (_QR_BLOCK, _fix_signs, numerical_rank, pod_basis,
                         select_modes, thin_svd)


def kahan_sum(values):
    total = 0.0
    carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


# ---------------------------------------------------------------------------
# scalar step transcriptions (free boundaries by stationary-extension ghosts)

def transport_step_scalar(w, c, alpha, nu, dx, dt):
    n = len(w)
    em = math.exp(-alpha * dx / (2.0 * c))
    ep = math.exp(alpha * dx / (2.0 * c))
    a0 = nu * dx / dt
    ghost_l = w[0] * math.exp(-alpha * dx / c)
    ghost_r = w[-1] * math.exp(alpha * dx / c)
    out = np.empty(n)
    for i in range(n):
        wm = ghost_l if i == 0 else w[i - 1]
        wp = ghost_r if i == n - 1 else w[i + 1]
        wi = w[i]
        adv = wp * em + wi * (ep - em) - wm * ep
        visc = a0 * (wp * em - wi * ep) - a0 * (wi * em - wm * ep)
        src = wi * ep - wi * em
        out[i] = wi - dt / (2 * dx) * c * adv + dt / (2 * dx) * visc \
            + dt / dx * c * src
    return out


def burgers_step_scalar(w, alpha, nu, dx, dt):
    n = len(w)
    big_em = math.exp(-alpha * dx)
    big_ep = math.exp(alpha * dx)
    em = math.exp(-alpha * dx / 2.0)
    ep = math.exp(alpha * dx / 2.0)
    a0 = nu * dx / dt
    ghost_l = w[0] * math.exp(-alpha * dx)
    ghost_r = w[-1] * math.exp(alpha * dx)
    out = np.empty(n)
    for i in range(n):
        wm = ghost_l if i == 0 else w[i - 1]
        wp = ghost_r if i == n - 1 else w[i + 1]
        wi = w[i]
        adv = wp ** 2 * big_em + wi ** 2 * (big_ep - big_em) - wm ** 2 * big_ep
        visc = a0 * (wp * em - wi * ep) - a0 * (wi * em - wm * ep)
        src = wi ** 2 * (big_ep - big_em)
        out[i] = wi - dt / (4 * dx) * adv + dt / (2 * dx) * visc \
            + dt / (2 * dx) * src
    return out


def swe_lf_step_scalar(h, q, z, g, n_b, nu, dx, dt):
    n = len(h)
    a0 = nu * dx / dt
    hn = np.empty(n)
    qn = np.empty(n)

    def at(arr, i):
        return arr[min(max(i, 0), n - 1)]

    for i in range(n):
        hm, hi, hp = at(h, i - 1), h[i], at(h, i + 1)
        qm, qi, qp = at(q, i - 1), q[i], at(q, i + 1)
        zm, zi, zp = at(z, i - 1), z[i], at(z, i + 1)
        em, ei, epp = hm + zm, hi + zi, hp + zp
        hn[i] = hi - dt / (2 * dx) * (qp - qm) \
            + dt / (2 * dx) * (a0 * (epp - ei) - a0 * (ei - em))
        mom_p = qp ** 2 / hp + 0.5 * g * hp ** 2
        mom_m = qm ** 2 / hm + 0.5 * g * hm ** 2
        slope = (hp + hi) * (zp - zi) + (hi + hm) * (zi - zm)
        qn[i] = qi - dt / (2 * dx) * (mom_p - mom_m) \
            + dt / (2 * dx) * (a0 * (qp - qi) - a0 * (qi - qm)) \
            - g * dt / (4 * dx) * slope \
            - dt * g * n_b ** 2 * qi * abs(qi) / hi ** (7.0 / 3.0)
    return hn, qn


def roe_scalar(hl, hr, ul, ur):
    ht = 0.5 * (hl + hr)
    ut = (math.sqrt(hr) * ur + math.sqrt(hl) * ul) \
        / (math.sqrt(hr) + math.sqrt(hl))
    return ht, ut


def hll_coeffs_scalar(sl, sr):
    a0 = (sr * abs(sl) - sl * abs(sr)) / (sr - sl)
    a1 = (abs(sr) - abs(sl)) / (sr - sl)
    return a0, a1


def hll_fan_scalar(hl, hr, ul, ur, g):
    ht, ut = roe_scalar(hl, hr, ul, ur)
    sl = min(ul - math.sqrt(g * hl), ut - math.sqrt(g * ht))
    sr = max(ur + math.sqrt(g * hr), ut + math.sqrt(g * ht))
    a0, a1 = hll_coeffs_scalar(sl, sr)
    return a0, a1, ht, ut


def swe_hll_step_scalar(h, q, z, g, n_b, dx, dt):
    n = len(h)

    def at(arr, i):
        return arr[min(max(i, 0), n - 1)]

    # Interface quantities j = 0..n between cells j-1 and j (clamped).
    a0 = np.empty(n + 1)
    a1 = np.empty(n + 1)
    ht = np.empty(n + 1)
    ut = np.empty(n + 1)
    for j in range(n + 1):
        hl, hr = at(h, j - 1), at(h, j)
        ul, ur = at(q, j - 1) / hl, at(q, j) / hr
        a0[j], a1[j], ht[j], ut[j] = hll_fan_scalar(hl, hr, ul, ur, g)

    hn = np.empty(n)
    qn = np.empty(n)
    for i in range(n):
        hm, hi, hp = at(h, i - 1), h[i], at(h, i + 1)
        qm, qi, qp = at(q, i - 1), q[i], at(q, i + 1)
        zm, zi, zp = at(z, i - 1), z[i], at(z, i + 1)
        em, ei, epp = hm + zm, hi + zi, hp + zp
        jr, jl = i + 1, i
        hn[i] = hi - dt / (2 * dx) * (qp - qm) \
            + dt / (2 * dx) * a0[jr] * (epp - ei) \
            - dt / (2 * dx) * a0[jl] * (ei - em) \
            + dt / (2 * dx) * a1[jr] * (qp - qi) \
            - dt / (2 * dx) * a1[jl] * (qi - qm)
        mom_p = qp ** 2 / hp + 0.5 * g * hp ** 2
        mom_m = qm ** 2 / hm + 0.5 * g * hm ** 2
        wr = -ut[jr] ** 2 + g * ht[jr]
        wl = -ut[jl] ** 2 + g * ht[jl]
        slope = (hp + hi) * (zp - zi) + (hi + hm) * (zi - zm)
        qn[i] = qi - dt / (2 * dx) * (mom_p - mom_m) \
            + dt / (2 * dx) * a1[jr] * wr * (epp - ei) \
            - dt / (2 * dx) * a1[jl] * wl * (ei - em) \
            + dt / (2 * dx) * (a0[jr] * (qp - qi) - a0[jl] * (qi - qm)) \
            + dt / dx * (a1[jr] * ut[jr] * (qp - qi)
                         - a1[jl] * ut[jl] * (qi - qm)) \
            - g * dt / (4 * dx) * slope \
            - dt * g * n_b ** 2 * qi * abs(qi) / hi ** (7.0 / 3.0)
    return hn, qn


# ---------------------------------------------------------------------------
# decomposition oracles

def svd_via_gram(data):
    """Singular triplets from the eigendecomposition of the small Gram matrix."""
    data = np.asarray(data, dtype=float)
    n_rows, n_cols = data.shape
    if n_cols <= n_rows:
        gram = data.T @ data
        lam, vecs = np.linalg.eigh(gram)
        order = np.argsort(lam)[::-1]
        lam = lam[order]
        vecs = vecs[:, order]
        sigma = np.sqrt(np.maximum(lam, 0.0))
        left = np.zeros((n_rows, n_cols))
        for k in range(n_cols):
            if sigma[k] > 0:
                left[:, k] = data @ vecs[:, k] / sigma[k]
        return left, sigma
    gram = data @ data.T
    lam, vecs = np.linalg.eigh(gram)
    order = np.argsort(lam)[::-1]
    sigma = np.sqrt(np.maximum(lam[order], 0.0))
    return vecs[:, order], sigma


def deim_offline_transcription(modes):
    """Literal step-by-step transcription of the greedy offline stage."""
    modes = np.asarray(modes, dtype=float)
    n, m = modes.shape
    i1 = int(np.argmax(np.abs(modes[:, 0])))
    u = modes[:, [0]]
    picks = [i1]
    for k in range(1, m):
        sub = u[picks, :]
        rhs = modes[picks, k]
        coef = np.linalg.inv(sub) @ rhs
        r = modes[:, k] - u @ coef
        picks.append(int(np.argmax(np.abs(r))))
        u = np.hstack([u, modes[:, [k]]])
    return picks


# ---------------------------------------------------------------------------
# triple-loop operator assemblies (ghosts substituted explicitly)

def _ghosted(phi, gl, gr):
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        return np.concatenate(([phi[0] * gl], phi, [phi[-1] * gr]))
    return np.vstack([phi[0] * gl, phi, phi[-1] * gr])


def transport_ops_oracle(phi, c, alpha, dx):
    n, m = phi.shape
    em = math.exp(-alpha * dx / (2 * c))
    ep = math.exp(alpha * dx / (2 * c))
    pg = _ghosted(phi, math.exp(-alpha * dx / c), math.exp(alpha * dx / c))
    a = np.zeros((m, m))
    b = np.zeros((m, m))
    cmat = np.zeros((m, m))
    for p in range(m):
        for k in range(m):
            for i in range(1, n + 1):
                a[p, k] += (pg[i + 1, k] * em + pg[i, k] * (ep - em)
                            - pg[i - 1, k] * ep) * phi[i - 1, p]
                b[p, k] += (pg[i + 1, k] * em - pg[i, k] * (ep + em)
                            + pg[i - 1, k] * ep) * phi[i - 1, p]
                cmat[p, k] += pg[i, k] * (ep - em) * phi[i - 1, p]
    return a, b, cmat


def burgers_ops_oracle(phi, alpha, dx):
    n, m = phi.shape
    big_em = math.exp(-alpha * dx)
    big_ep = math.exp(alpha * dx)
    em = math.exp(-alpha * dx / 2)
    ep = math.exp(alpha * dx / 2)
    pg = _ghosted(phi, math.exp(-alpha * dx), math.exp(alpha * dx))
    a = np.zeros((m, m, m))
    b = np.zeros((m, m))
    c = np.zeros((m, m, m))
    for p in range(m):
        for k in range(m):
            for i in range(1, n + 1):
                b[p, k] += (pg[i + 1, k] * em - pg[i, k] * (ep + em)
                            + pg[i - 1, k] * ep) * phi[i - 1, p]
            for l in range(m):
                for i in range(1, n + 1):
                    a[p, l, k] += (pg[i + 1, k] * pg[i + 1, l] * big_em
                                   + pg[i, k] * pg[i, l] * (big_ep - big_em)
                                   - pg[i - 1, k] * pg[i - 1, l] * big_ep) \
                        * phi[i - 1, p]
                    c[p, l, k] += pg[i, k] * pg[i, l] * (big_ep - big_em) \
                        * phi[i - 1, p]
    return a, b, c


def swe_lf_ops_oracle(phih, phiq, z, phiu=None):
    """A, B, C, E, F, G (and D when a u basis is given); unit-free sums."""
    n, m = phih.shape
    hg = _ghosted(phih, 1.0, 1.0)
    qg = _ghosted(phiq, 1.0, 1.0)
    zg = _ghosted(z, 1.0, 1.0)
    a = np.zeros((m, m))
    b = np.zeros((m, m))
    cv = np.zeros(m)
    e = np.zeros((m, m, m))
    f = np.zeros((m, m))
    g = np.zeros((m, m))
    d = np.zeros((m, m, m)) if phiu is not None else None
    ug = _ghosted(phiu, 1.0, 1.0) if phiu is not None else None
    for p in range(m):
        for i in range(1, n + 1):
            cv[p] += (zg[i + 1] - 2 * zg[i] + zg[i - 1]) * phih[i - 1, p]
        for k in range(m):
            for i in range(1, n + 1):
                a[p, k] += (qg[i + 1, k] - qg[i - 1, k]) * phih[i - 1, p]
                b[p, k] += (hg[i + 1, k] - 2 * hg[i, k] + hg[i - 1, k]) \
                    * phih[i - 1, p]
                f[p, k] += (qg[i + 1, k] - 2 * qg[i, k] + qg[i - 1, k]) \
                    * phiq[i - 1, p]
                g[p, k] += ((hg[i + 1, k] + hg[i, k]) * (zg[i + 1] - zg[i])
                            + (hg[i, k] + hg[i - 1, k]) * (zg[i] - zg[i - 1])) \
                    * phiq[i - 1, p]
            for l in range(m):
                for i in range(1, n + 1):
                    e[p, l, k] += (hg[i + 1, k] * hg[i + 1, l]
                                   - hg[i - 1, k] * hg[i - 1, l]) * phiq[i - 1, p]
                    if d is not None:
                        d[p, l, k] += (qg[i + 1, k] * ug[i + 1, l]
                                       - qg[i - 1, k] * ug[i - 1, l]) \
                            * phiq[i - 1, p]
    out = {"A": a, "B": b, "C": cv, "E": e, "F": f, "G": g}
    if d is not None:
        out["D"] = d
    return out


def swe_hll_tav_ops_oracle(phih, phiq, z, a0, a1, utilde, htilde, g):
    """U1..U7 with window-averaged fan data; interface j sits left of cell j."""
    n, m = phih.shape
    hg = _ghosted(phih, 1.0, 1.0)
    qg = _ghosted(phiq, 1.0, 1.0)
    zg = _ghosted(z, 1.0, 1.0)
    wgt = [-utilde[j] ** 2 + g * htilde[j] for j in range(n + 1)]
    u1 = np.zeros((m, m))
    u2 = np.zeros((m, m))
    u3 = np.zeros(m)
    u4 = np.zeros((m, m))
    u5 = np.zeros((m, m))
    u6 = np.zeros((m, m))
    u7 = np.zeros(m)
    for p in range(m):
        for i in range(1, n + 1):
            jr, jl = i, i - 1
            u3[p] += (a0[jr] * (zg[i + 1] - zg[i])
                      - a0[jl] * (zg[i] - zg[i - 1])) * phih[i - 1, p]
            u7[p] += (a1[jr] * wgt[jr] * (zg[i + 1] - zg[i])
                      - a1[jl] * wgt[jl] * (zg[i] - zg[i - 1])) * phiq[i - 1, p]
        for k in range(m):
            for i in range(1, n + 1):
                jr, jl = i, i - 1
                u1[p, k] += (a0[jr] * (hg[i + 1, k] - hg[i, k])
                             - a0[jl] * (hg[i, k] - hg[i - 1, k])) * phih[i - 1, p]
                u2[p, k] += (a1[jr] * (qg[i + 1, k] - qg[i, k])
                             - a1[jl] * (qg[i, k] - qg[i - 1, k])) * phih[i - 1, p]
                u4[p, k] += (a1[jr] * wgt[jr] * (hg[i + 1, k] - hg[i, k])
                             - a1[jl] * wgt[jl] * (hg[i, k] - hg[i - 1, k])) \
                    * phiq[i - 1, p]
                u5[p, k] += (a0[jr] * (qg[i + 1, k] - qg[i, k])
                             - a0[jl] * (qg[i, k] - qg[i - 1, k])) * phiq[i - 1, p]
                u6[p, k] += 2 * (a1[jr] * utilde[jr] * (qg[i + 1, k] - qg[i, k])
                                 - a1[jl] * utilde[jl] * (qg[i, k] - qg[i - 1, k])) \
                    * phiq[i - 1, p]
    return {"U1": u1, "U2": u2, "U3": u3, "U4": u4, "U5": u5, "U6": u6,
            "U7": u7}


def swe_hll_deim_ops_oracle(phih, phiq, z, ca0, ca1, utilde, htilde, g):
    """U1..U7 with fan-coefficient basis columns in place of the averages."""
    n, m = phih.shape
    hg = _ghosted(phih, 1.0, 1.0)
    qg = _ghosted(phiq, 1.0, 1.0)
    zg = _ghosted(z, 1.0, 1.0)
    wgt = [-utilde[j] ** 2 + g * htilde[j] for j in range(n + 1)]
    u1 = np.zeros((m, m, m))
    u2 = np.zeros((m, m, m))
    u3 = np.zeros((m, m))
    u4 = np.zeros((m, m, m))
    u5 = np.zeros((m, m, m))
    u6 = np.zeros((m, m, m))
    u7 = np.zeros((m, m))
    for p in range(m):
        for k in range(m):
            for i in range(1, n + 1):
                jr, jl = i, i - 1
                u3[p, k] += (ca0[jr, k] * (zg[i + 1] - zg[i])
                             - ca0[jl, k] * (zg[i] - zg[i - 1])) * phih[i - 1, p]
                u7[p, k] += (ca1[jr, k] * wgt[jr] * (zg[i + 1] - zg[i])
                             - ca1[jl, k] * wgt[jl] * (zg[i] - zg[i - 1])) \
                    * phiq[i - 1, p]
            for l in range(m):
                for i in range(1, n + 1):
                    jr, jl = i, i - 1
                    u1[p, l, k] += (ca0[jr, l] * (hg[i + 1, k] - hg[i, k])
                                    - ca0[jl, l] * (hg[i, k] - hg[i - 1, k])) \
                        * phih[i - 1, p]
                    u2[p, l, k] += (ca1[jr, l] * (qg[i + 1, k] - qg[i, k])
                                    - ca1[jl, l] * (qg[i, k] - qg[i - 1, k])) \
                        * phih[i - 1, p]
                    u4[p, l, k] += (ca1[jr, l] * wgt[jr] * (hg[i + 1, k] - hg[i, k])
                                    - ca1[jl, l] * wgt[jl] * (hg[i, k] - hg[i - 1, k])) \
                        * phiq[i - 1, p]
                    u5[p, l, k] += (ca0[jr, l] * (qg[i + 1, k] - qg[i, k])
                                    - ca0[jl, l] * (qg[i, k] - qg[i - 1, k])) \
                        * phiq[i - 1, p]
                    u6[p, l, k] += 2 * (ca1[jr, l] * utilde[jr] * (qg[i + 1, k] - qg[i, k])
                                        - ca1[jl, l] * utilde[jl] * (qg[i, k] - qg[i - 1, k])) \
                        * phiq[i - 1, p]
    return {"U1": u1, "U2": u2, "U3": u3, "U4": u4, "U5": u5, "U6": u6,
            "U7": u7}


def friction_ops_oracle(phiq, u_bar, h_bar, phif=None, variant="tav"):
    n, m = phiq.shape
    if variant == "tav":
        h = np.zeros(m)
        for p in range(m):
            for i in range(n):
                h[p] += abs(u_bar[i]) * u_bar[i] / h_bar[i] ** (1.0 / 3.0) \
                    * phiq[i, p]
        return h
    if variant == "tav_f":
        h = np.zeros((m, m))
        for p in range(m):
            for k in range(m):
                for i in range(n):
                    h[p, k] += abs(u_bar[i]) / h_bar[i] ** (4.0 / 3.0) \
                        * phiq[i, k] * phiq[i, p]
        return h
    h = np.zeros((m, m, m))
    for p in range(m):
        for l in range(m):
            for k in range(m):
                for i in range(n):
                    h[p, l, k] += phif[i, k] * phiq[i, l] * phiq[i, p]
    return h


def random_orthonormal(n, m, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return q


# ---------------------------------------------------------------------------
# reduced steps by operator name

def transport_rom_step_oracle(w_hat, ops, params, dx, dt):
    """One reduced transport step read off the named operators."""
    lam = dt / dx
    c = params.c
    mats = ops.matrices
    return (w_hat - 0.5 * c * lam * (mats["A"] @ w_hat)
            + 0.5 * params.nu * (mats["B"] @ w_hat)
            + c * lam * (mats["C"] @ w_hat))


def burgers_rom_step_oracle(w_hat, ops, params, dx, dt):
    """One reduced Burgers step read off the named operators, each tensor
    contracted on its own."""
    lam = dt / dx
    quad_a = (ops.tensors3["A"] @ w_hat) @ w_hat
    quad_c = (ops.tensors3["C"] @ w_hat) @ w_hat
    return (w_hat - 0.25 * lam * quad_a
            + 0.5 * params.nu * (ops.matrices["B"] @ w_hat)
            + 0.5 * lam * quad_c)


def swe_rom_step_oracle(h_hat, q_hat, ops, bases, interps, params, dx, dt):
    """One reduced SWE step read off the named operators: the momentum
    flux, friction and viscosity forms are chosen by which names the
    window holds, tensors are contracted with einsum, and each DEIM
    coefficient vector solves U_I c = values on the lifted fields."""
    mats, vecs, tens = ops.matrices, ops.vectors, ops.tensors3
    lam = dt / dx
    g = params.g
    h = bases["h"].modes @ h_hat
    q = bases["q"].modes @ q_hat
    n = len(h)

    def coeffs(name, values_at):
        it = interps[name]
        return np.linalg.solve(it.basis[it.indices],
                               [values_at(int(i)) for i in it.indices])

    def quad(tensor, left, right):
        return np.einsum("plk,l,k->p", tensor, left, right)

    def fan(j, which):
        hl, hr = h[min(max(j - 1, 0), n - 1)], h[min(j, n - 1)]
        ql, qr = q[min(max(j - 1, 0), n - 1)], q[min(j, n - 1)]
        return hll_fan_scalar(hl, hr, ql / hl, qr / hr, g)[which]

    if "Dbar" in mats:
        flux_u = mats["Dbar"] @ q_hat
    else:
        flux_u = quad(tens["D"], coeffs("u", lambda i: q[i] / h[i]), q_hat)

    gnb2 = g * params.n_b ** 2
    if "H" in vecs:
        friction = gnb2 * vecs["H"]
    elif "H" in mats:
        friction = gnb2 * (mats["H"] @ q_hat)
    elif "H" in tens:
        f_hat = coeffs("f", lambda i: abs(q[i]) / h[i] ** (7.0 / 3.0))
        friction = gnb2 * quad(tens["H"], q_hat, f_hat)
    else:
        friction = 0.0

    if "B" in mats:
        visc_h = 0.5 * params.nu * (mats["B"] @ h_hat + vecs["C"])
        visc_q = 0.5 * params.nu * (mats["F"] @ q_hat)
    elif "U1" in mats:
        visc_h = 0.5 * lam * (mats["U1"] @ h_hat + mats["U2"] @ q_hat
                              + vecs["U3"])
        visc_q = 0.5 * lam * (mats["U4"] @ h_hat + mats["U5"] @ q_hat
                              + mats["U6"] @ q_hat + vecs["U7"])
    else:
        a0 = coeffs("alpha0", lambda j: fan(j, 0))
        a1 = coeffs("alpha1", lambda j: fan(j, 1))
        visc_h = 0.5 * lam * (quad(tens["U1"], a0, h_hat)
                              + quad(tens["U2"], a1, q_hat)
                              + mats["U3"] @ a0)
        visc_q = 0.5 * lam * (quad(tens["U4"], a1, h_hat)
                              + quad(tens["U5"], a0, q_hat)
                              + quad(tens["U6"], a1, q_hat)
                              + mats["U7"] @ a1)

    h_new = h_hat - 0.5 * lam * (mats["A"] @ q_hat) + visc_h
    q_new = (q_hat - 0.5 * lam * flux_u
             - 0.25 * g * lam * quad(tens["E"], h_hat, h_hat)
             + visc_q
             - 0.25 * g * lam * (mats["G"] @ h_hat)
             - dt * friction)
    return h_new, q_new


# ---------------------------------------------------------------------------
# Reference copies of retired package code


def interface_fan(state, g):
    """(h_tilde, u_tilde, alpha0, alpha1) at all n_cells+1 interfaces of
    one SWE state, ghosts replicated: the fan an HLL step of the state
    forms, through the ``hll_fan`` closure of a 1-D state."""
    hg = np.concatenate(([state.h[0]], state.h, [state.h[-1]]))
    ug = np.concatenate(([state.q[0]], state.q, [state.q[-1]])) / hg
    root = np.sqrt(hg)
    c = np.sqrt(g * hg)
    return hll_fan(hg[:-1], hg[1:], ug[:-1], ug[1:], root[:-1], root[1:],
                   c[:-1], c[1:], g)


def project(basis, fld):
    """Coefficients U^T fld of a full field in a POD basis."""
    fld = np.asarray(fld, dtype=float)
    if fld.shape != (basis.n_rows,):
        raise ShapeMismatch(f"field length {fld.shape} vs {basis.n_rows} rows")
    return basis.modes.T @ fld


def thin_svd_scipy(data, k=None, kept=None):
    """``pod.thin_svd`` through scipy's f2py LAPACK wrappers, which hold
    the GIL: dgeqrt, scipy.linalg.svd (dgesdd) of triu(R), dgemqrt."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise EmptySlice("snapshot slice is empty")
    if not np.isfinite(data).all():
        raise BreakdownInEigensolve("snapshot slice holds NaN or Inf")
    n, c = data.shape
    p = min(n, c)
    k = p if k is None else min(max(int(k), 1), p)
    qr, t, info = lapack.dgeqrt(min(_QR_BLOCK, p), data)
    if info != 0:
        raise BreakdownInEigensolve(f"dgeqrt returned info={info}")
    if kept:
        u_r, s = kept["svd"]
        s = s.copy()
    else:
        try:
            u_r, s, _ = scipy.linalg.svd(np.triu(qr[:p]),
                                         full_matrices=False,
                                         check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise BreakdownInEigensolve(str(exc)) from exc
        if kept is not None:
            kept["svd"] = (u_r, s.copy())
    lead = np.zeros((n, k), order="F")
    lead[:p] = u_r[:, :k]
    u, info = lapack.dgemqrt(qr[:, :p], t, lead, overwrite_c=1)
    if info != 0:
        raise BreakdownInEigensolve(f"dgemqrt returned info={info}")
    return _fix_signs(u), s


def window_basis(data, eps_pod, m_max=None):
    """POD basis of one slice as ``rom.driver._window_bases`` forms it for
    a single variable: thin_svd, numerical_rank, select_modes, pod_basis."""
    data = np.asarray(data, dtype=float)
    u, s = thin_svd(data, m_max)
    rank = numerical_rank(s, *data.shape)
    m = select_modes(s, eps_pod, m_max=m_max)
    return pod_basis(u, s, rank, m)


def deim_interpolate(interp, field):
    """U (P^T U)^-1 P^T field: the DEIM approximation of a full field from
    its values at the interpolation points."""
    return interp.basis @ deim_online_values(interp, field[interp.indices])


def refresh_u_reference(ctx, pts):
    """DEIM coefficients of u = q/h from the sampled points ``pts``
    (2 x points x 1, h rows then q rows)."""
    at = ctx.u_samples.at
    h_pts = pts[0, at, 0]
    if h_pts.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM point")
    return deim_online_values(ctx.u_samples.interp, pts[1, at, 0] / h_pts)


def refresh_f_reference(ctx, pts):
    """DEIM coefficients of f = |q|/h^(7/3) from the sampled points."""
    at = ctx.f_samples.at
    h_pts = pts[0, at, 0]
    if h_pts.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM point")
    return deim_online_values(ctx.f_samples.interp,
                              np.abs(pts[1, at, 0]) / h_pts ** (7.0 / 3.0))


def refresh_alphas_reference(ctx, pts):
    """Fan coefficients at the stacked interpolation interfaces.  Its
    degenerate-fan test compares the smallest gap with one scale taken
    over all interfaces, not with each interface's own."""
    h_l = pts[0, ctx.fan_left, 0]
    h_r = pts[0, ctx.fan_right, 0]
    if h_l.min() <= 0.0 or h_r.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM interface")
    u_l = pts[1, ctx.fan_left, 0] / h_l
    u_r = pts[1, ctx.fan_right, 0] / h_r
    sqrt_l = np.sqrt(h_l)
    sqrt_r = np.sqrt(h_r)
    u_t = (sqrt_r * u_r + sqrt_l * u_l) / (sqrt_r + sqrt_l)
    g = ctx.g
    c_t = np.sqrt(g * (0.5 * (h_l + h_r)))
    s_l = np.minimum(u_l - np.sqrt(g * h_l), u_t - c_t)
    s_r = np.maximum(u_r + np.sqrt(g * h_r), u_t + c_t)
    gap = s_r - s_l
    abs_l = np.abs(s_l)
    abs_r = np.abs(s_r)
    if gap.min() < 1e-12 * max(1.0, abs_l.max(), abs_r.max()):
        raise DegenerateWaveFan(
            "HLL wave speeds are not separated at a DEIM interface")
    m0 = ctx.a0_samples.interp.m
    a0_hat = deim_online_values(ctx.a0_samples.interp,
                                ((s_r * abs_l - s_l * abs_r) / gap)[:m0])
    a1_hat = deim_online_values(ctx.a1_samples.interp,
                                ((abs_r - abs_l) / gap)[m0:])
    return a0_hat, a1_hat
