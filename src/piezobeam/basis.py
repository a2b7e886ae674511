"""Admissible functions for the assumed-mode expansion.

Flexural shapes are the clamped-free Euler-Bernoulli eigenfunctions
phi_j(x) = cosh(bx) - cos(bx) - sigma_j*(sinh(bx) - sin(bx)), b = lambda_j/L,
with the classical normalization (int phi_j^2 dx = L).  Torsional shapes are
the fixed-free rod sinusoids psi_j(x) = sin((2j-1)*pi*x/(2L)).
"""

from dataclasses import dataclass, field

import numpy as np


def _char(lam):
    return 1.0 + np.cos(lam) * np.cosh(lam)


def _char_prime(lam):
    return np.cos(lam) * np.sinh(lam) - np.sin(lam) * np.cosh(lam)


def flexural_eigenvalues(n):
    """First n roots of 1 + cos(lam)*cosh(lam) = 0, ascending.

    Root j lies within 1 of (2j-1)*pi/2 and the characteristic function
    changes sign across that bracket, so bisection halves it down to 1e-13
    (or to adjacent floats) and always converges.  A couple of Newton polish
    steps push the residual toward machine level.
    """
    if n < 0:
        raise ValueError("mode count must be >= 0")
    roots = []
    for j in range(1, n + 1):
        center = (2 * j - 1) * np.pi / 2.0
        a, b = center - 1.0, center + 1.0
        a_negative = _char(a) < 0.0
        while b - a > 1e-13:
            m = 0.5 * (a + b)
            if not a < m < b:
                break
            if (_char(m) < 0.0) == a_negative:
                a = m
            else:
                b = m
        lam = 0.5 * (a + b)
        for _ in range(2):
            slope = _char_prime(lam)
            if slope != 0.0:
                lam -= _char(lam) / slope
        roots.append(lam)
    return roots


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Flexural + torsional admissible functions for one beam length.

    Compared and hashed by identity: its fields are arrays.
    """

    n: int
    length: float
    flexural_roots: np.ndarray
    sigma: np.ndarray
    # 1 - sigma_j, computed cancellation-free; needed for stable evaluation
    # of the hyperbolic part at large arguments.
    one_minus_sigma: np.ndarray = field(repr=False, default=None)

    @classmethod
    def build(cls, n, length):
        if n < 1:
            raise ValueError("mode count must be >= 1")
        if not 0 < length < np.inf:
            raise ValueError("beam length must be finite and > 0")
        lam = np.asarray(flexural_eigenvalues(n))
        sigma = (np.cosh(lam) + np.cos(lam)) / (np.sinh(lam) + np.sin(lam))
        # 1 - sigma = (sin - cos - exp(-lam)) / (sinh + sin), exact rearrangement
        dsig = (np.sin(lam) - np.cos(lam) - np.exp(-lam)) / (np.sinh(lam) + np.sin(lam))
        basis = cls(n=n, length=float(length), flexural_roots=lam, sigma=sigma,
                    one_minus_sigma=dsig)
        # evaluated once per basis and shared read-only by every caller
        for name, mode in (("_flexural_tips", basis.flexural_mode),
                           ("_torsional_tips", basis.torsional_mode)):
            tips = mode(np.arange(1, n + 1), basis.length)[0]
            tips.setflags(write=False)
            object.__setattr__(basis, name, tips)  # frozen, and not a field
        return basis

    def _check_args(self, j, x):
        j = np.asarray(j)
        if not np.all((1 <= j) & (j <= self.n)):
            raise ValueError(f"mode index {j} outside 1..{self.n}")
        x = np.asarray(x, dtype=float)
        if np.any(x < 0) or np.any(x > self.length * (1 + 1e-12)):
            raise ValueError(f"position outside [0, {self.length}]")
        return j, x

    def flexural_mode(self, j, x):
        """Return (phi, phi', phi'') of flexural mode j at x, with j an int
        or an int array of mode indices broadcast against x (scalar or array).

        The combinations cosh(z) - sigma*sinh(z) are evaluated as
        0.5*((1-sigma)*e^z + (1+sigma)*e^-z) so no large-argument cancellation
        occurs even though sigma -> 1 for high modes.
        """
        j, x = self._check_args(j, x)
        lam = self.flexural_roots[j - 1]
        sig = self.sigma[j - 1]
        dsig = self.one_minus_sigma[j - 1]
        beta = lam / self.length
        z = beta * x
        ep, em = np.exp(z), np.exp(-z)
        even = 0.5 * (dsig * ep + (1.0 + sig) * em)   # cosh z - sig*sinh z
        odd = 0.5 * (dsig * ep - (1.0 + sig) * em)    # sinh z - sig*cosh z
        c, s = np.cos(z), np.sin(z)
        phi = even - c + sig * s
        dphi = beta * (odd + s + sig * c)
        ddphi = beta * beta * (even + c - sig * s)
        return phi, dphi, ddphi

    def torsional_mode(self, j, x):
        """Return (psi, psi') of torsional mode j at x, broadcast as in
        flexural_mode."""
        j, x = self._check_args(j, x)
        k = (2 * j - 1) * np.pi / (2.0 * self.length)
        return np.sin(k * x), k * np.cos(k * x)

    def flexural_tip_values(self):
        """phi_j(L) for all modes (output weights of the tip deflection), as a
        read-only array computed once by build."""
        return self._flexural_tips

    def torsional_tip_values(self):
        """psi_j(L) for all modes, as a read-only array computed once by build."""
        return self._torsional_tips
