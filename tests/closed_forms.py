"""Closed forms the tests check the library against."""

import numpy as np

from cbilab.cumulant import discount_integral


def closed_form_quadratic(b_star: float, c_star: float, lam, t):
    """Cumulant of the scalar quadratic mechanism phi(z) = b z + c z^2.

    v(t) = e^{-b t} lam / (1 + c q(b,t) lam) with q(b,t) = int_0^t e^{-bs} ds.
    Broadcasts over lam and t; scalar in, scalar out.
    """
    lam = np.asarray(lam, dtype=float)
    t = np.asarray(t, dtype=float)
    q = discount_integral(b_star, t)
    out = np.exp(-b_star * t) * lam / (1.0 + c_star * q * lam)
    return out if out.ndim else float(out)
