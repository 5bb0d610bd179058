"""Continuum oracle for the d = 1 third-order A+A diagram, shared by the
acceptance gate and the perturbation tests.

For a Gaussian kernel and intensity the three loop-momentum integrals carry
Gaussian weights, so tensor Gauss-Hermite in (l, m, n) converges fast.  The
time-simplex factor at each node is the (0, 3) entry of expm(t A), A upper
bidiagonal with diagonal -a_i and superdiagonal 1 (Van Loan, IEEE TAC 23:395,
1978): the convolution of the four exponentials, computed without the partial
fractions under test and without the grid's FFT indexing.
"""

import math

import numpy as np
from scipy import linalg


def third_order_continuum(k, t, D, cR, sR, cv, sv, nodes=20):
    """-1/(4 pi) times the integral over R^3 of
    Rhat(l) Rhat(m) Rhat(n) vhat(k-m-n) vhat(m) vhat(n) T(l, m, n; t),
    where Rhat(q) = cR exp(-sR^2 q^2 / 2) and vhat(q) = cv exp(-sv^2 q^2 / 2)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    # scale each axis so exp(-x^2) matches the diagonal of its Gaussian exponent
    scales = (math.sqrt(2.0) / sR,) + (math.sqrt(2.0 / (sR ** 2 + 2 * sv ** 2)),) * 2
    axes = [s * x for s in scales]
    weights = [s * w * np.exp(x ** 2) for s in scales]
    ll, mm, nn = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    wt = np.einsum("i,j,k->ijk", *weights).ravel()
    rh = lambda q: cR * np.exp(-sR ** 2 * q ** 2 / 2)
    vh = lambda q: cv * np.exp(-sv ** 2 * q ** 2 / 2)
    f = rh(ll) * rh(mm) * rh(nn) * vh(k - mm - nn) * vh(mm) * vh(nn)
    rates = D * np.stack([
        ((k - mm - nn) ** 2 + mm ** 2 + nn ** 2),
        ((k - mm - nn + ll) ** 2 + (mm - ll) ** 2 + nn ** 2),
        ((k - mm - nn + ll) ** 2 + (mm + nn - ll) ** 2),
        np.full_like(ll, k ** 2),
    ], axis=1)
    A = np.zeros((len(ll), 4, 4))
    A[:, range(4), range(4)] = -rates
    A[:, range(3), range(1, 4)] = 1.0
    T = linalg.expm(t * A)[:, 0, 3]
    return -1.0 / (4.0 * math.pi) * float(np.sum(wt * f * T))
