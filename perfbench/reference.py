"""Independent references that the benchmark checks the package's outputs against.

Nothing here calls into ``greensfn``.  The Green's function and the
projectors come from an eigendecomposition ``A = V diag(lam) V^-1``, batched
over many times at once, so that checking every output costs less than
producing it.  The condition-bound integral uses its own adaptive
Gauss-Legendre rule, not ``quad_vec``, and the bounded solution under the
trigonometric forcing comes from the resolvent in closed form.
"""

from __future__ import annotations

import math

import numpy as np

DIGITS_CAP = 16.0
# The reference integral is asked for far more accuracy than any bound it checks.
REF_RTOL = 1e-12
REF_MAX_PANELS = 100_000
# The condition-bound integral runs over [-T, T] with T = TAIL_FACTOR / gap.
TAIL_FACTOR = 40.0

_X_HI, _W_HI = np.polynomial.legendre.leggauss(20)
_X_LO, _W_LO = np.polynomial.legendre.leggauss(10)


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 16 (an exact match gives 16)."""
    if not math.isfinite(rel_err):
        return 0.0
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def rel_err(x, ref) -> float:
    """Frobenius (or 2-norm for vectors) distance relative to the reference."""
    scale = float(np.linalg.norm(ref))
    diff = float(np.linalg.norm(np.asarray(x) - ref))
    return diff / scale if scale > 0.0 else diff


class EigenRoute:
    """G(t) and the projectors of one matrix from its eigendecomposition.

    ``lam``/``vecs`` may be given exactly (for matrices the benchmark built
    as ``Q diag(lam) Q^H``); otherwise they come from ``numpy.linalg.eig``.
    """

    def __init__(self, a, lam=None, vecs=None):
        if lam is None:
            lam, vecs = np.linalg.eig(np.asarray(a, dtype=complex))
        self.lam = np.asarray(lam, dtype=complex)
        self.vecs = np.asarray(vecs, dtype=complex)
        self.inv = np.linalg.inv(self.vecs)
        self.decay = self.lam.real < 0.0
        self.gap = float(np.min(np.abs(self.lam.real)))
        self._sides = (self._factors(self.decay), self._factors(~self.decay))

    def green(self, ts) -> np.ndarray:
        """Stack of G(t) for an array of nonzero times, shape (len(ts), n, n)."""
        ts = np.asarray(ts, dtype=float)
        pos = ts[:, None] > 0.0
        # t > 0 keeps the decaying eigenvalues, t < 0 the growing ones with a minus sign
        mask = np.where(pos, self.decay[None, :], ~self.decay[None, :])
        sign = np.where(pos, 1.0, -1.0)
        # masked-out exponents become -inf, so growing modes never overflow
        exponents = np.where(mask, np.outer(ts, self.lam), -np.inf)
        weights = np.exp(exponents) * sign
        return (self.vecs[None, :, :] * weights[:, None, :]) @ self.inv

    def _factors(self, mask):
        """R1, R2 with V[:, mask] = Q1 R1 and V^-1[mask, :]^H = Q2 R2."""
        r1 = np.linalg.qr(self.vecs[:, mask], mode="r")
        r2 = np.linalg.qr(self.inv[mask, :].conj().T, mode="r")
        return self.lam[mask], r1, r2.conj().T

    def green_norms(self, ts) -> np.ndarray:
        """||G(t)||_2 for an array of nonzero times.

        On each side G(t) = Q1 R1 diag(e^(lam t)) R2^H Q2^H with orthonormal
        Q1, Q2, so its 2-norm is that of the small middle factor, taken as
        the square root of the top eigenvalue of M M^H.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(len(ts))
        for sel, (lam, r1, r2h) in zip((ts > 0.0, ts < 0.0), self._sides):
            if lam.size and sel.any():
                m = (r1[None, :, :] * np.exp(np.outer(ts[sel], lam))[:, None, :]) @ r2h
                top = np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1))[:, -1]
                out[sel] = np.sqrt(np.maximum(top, 0.0))
        return out

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """P+ onto the decaying subspace and P- = P+ - I."""
        p_plus = (self.vecs * self.decay[None, :]) @ self.inv
        p_minus = -(self.vecs * (~self.decay)[None, :]) @ self.inv
        return p_plus, p_minus


def adaptive_gauss_legendre(h, cuts) -> float:
    """Integral of a vectorised scalar h over consecutive intervals of ``cuts``.

    Every panel is integrated with 20- and 10-point Gauss-Legendre rules.  A
    panel is kept when the two agree to its share of the tolerance, or to the
    rounding noise of its own values; otherwise it is bisected.  All panels
    of a round are evaluated in one call.  The difference of the two rules
    bounds the error of the 10-point one, so the 20-point sum kept is far
    more accurate than ``REF_RTOL``.
    """
    cuts = [float(c) for c in cuts]
    panels = np.array(list(zip(cuts[:-1], cuts[1:])), dtype=float)
    accepted = 0.0
    while len(panels) <= REF_MAX_PANELS:
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        half = 0.5 * (panels[:, 1] - panels[:, 0])
        s_hi = (mid[:, None] + half[:, None] * _X_HI).ravel()
        s_lo = (mid[:, None] + half[:, None] * _X_LO).ravel()
        vals = h(np.concatenate([s_hi, s_lo]))
        v_hi = vals[: s_hi.size].reshape(-1, _X_HI.size)
        hi = half * (v_hi @ _W_HI)
        lo = half * (vals[s_hi.size:].reshape(-1, _X_LO.size) @ _W_LO)
        share = REF_RTOL * abs(accepted + float(hi.sum())) / len(panels)
        noise = 64.0 * np.finfo(float).eps * half * (np.abs(v_hi) @ _W_HI)
        done = np.abs(hi - lo) <= np.maximum(share, noise)
        accepted += float(hi[done].sum())
        if done.all():
            return accepted
        todo = panels[~done]
        mids = 0.5 * (todo[:, 0] + todo[:, 1])
        panels = np.concatenate(
            [np.stack([todo[:, 0], mids], axis=1), np.stack([mids, todo[:, 1]], axis=1)]
        )
    raise RuntimeError(f"reference quadrature needs more than {REF_MAX_PANELS} panels")


def condition_bound_reference(route: EigenRoute, t: float) -> float:
    """Integral over [-T, T] of ||G(s)|| ||G(t - s)||, T = TAIL_FACTOR / gap."""
    horizon = TAIL_FACTOR / route.gap

    def h(s):
        return route.green_norms(s) * route.green_norms(t - s)

    # The integrand is concentrated within a few 1/|Re lam| of the jumps at
    # s = 0 and s = t, where a coarse panel's nodes could all miss it, so
    # the starting panels grow geometrically away from both jumps.
    steps = np.geomspace(1.0 / 16.0, 2.0 * horizon, 24)
    cuts = {-horizon, horizon}
    for jump in (0.0, float(t)):
        cuts.update(c for c in np.concatenate([jump - steps, [jump], jump + steps])
                    if -horizon < c < horizon)
    return adaptive_gauss_legendre(h, sorted(cuts))


def trig_forcing_solution(a, t: float) -> np.ndarray:
    """Bounded solution of x' = A x + f for f_i = cos(k t) (i even), sin(k t) (i odd).

    k = 1 + i // 2.  Writing f(t) = sum over w of c_w e^(i w t), the bounded
    solution is sum (i w I - A)^-1 c_w e^(i w t).
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    ident = np.eye(n, dtype=complex)
    x = np.zeros(n, dtype=complex)
    for k in sorted({1 + i // 2 for i in range(n)}):
        for w in (k, -k):
            c = np.zeros(n, dtype=complex)
            for i in range(n):
                if 1 + i // 2 != k:
                    continue
                # cos = (e^{ikt} + e^{-ikt}) / 2, sin = (e^{ikt} - e^{-ikt}) / 2i
                c[i] = 0.5 if i % 2 == 0 else (0.5 / 1j if w > 0 else -0.5 / 1j)
            x += np.linalg.solve(1j * w * ident - a, c) * np.exp(1j * w * t)
    return x
