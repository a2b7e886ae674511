"""Section properties and modal system matrices.

All coefficient integrals are evaluated by composite Gauss-Legendre
quadrature with the panels split at the piezo patch edges, so no integrand
ever crosses the Heaviside jump in the section properties.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve, eig, eigh

from .basis import ModalBasis


class AssemblyError(RuntimeError):
    """Assembled mass matrix lost positive definiteness (quadrature/basis bug)."""


class SpinDestabilizedError(RuntimeError):
    """Effective stiffness indefinite at the requested base rotation."""

    def __init__(self, eigenvalue):
        super().__init__(f"spin-destabilized: effective stiffness eigenvalue {eigenvalue:.6g} < 0")
        self.eigenvalue = eigenvalue


def _positive(obj, names):
    for name in names:
        if not 0 < getattr(obj, name) < np.inf:
            raise ValueError(f"{type(obj).__name__}.{name} must be finite and > 0")


@dataclass(frozen=True)
class BeamSpec:
    """Substrate geometry, material and modal damping ratios."""

    L: float = 0.15
    t_b: float = 0.8e-3
    b: float = 1.5e-2
    rho_b: float = 3960.0
    E_b: float = 70e9
    G_b: float = 30e9
    zeta_flex: tuple = (0.01, 0.0016)
    zeta_tors: tuple = (0.01, 0.0033)

    def __post_init__(self):
        _positive(self, ("L", "t_b", "b", "rho_b", "E_b", "G_b"))
        for name in ("zeta_flex", "zeta_tors"):
            for z in getattr(self, name):
                if not 0.0 <= z < 1.0:
                    raise ValueError(f"BeamSpec.{name}: damping ratio out of [0,1)")


@dataclass(frozen=True)
class PiezoSpec:
    """Surface-bonded actuator patch spanning [l1, l2] on top of the beam."""

    l1: float = 0.01
    l2: float = 0.06
    t_p: float = 0.4e-3
    w_p: float = 1.5e-2
    E_p: float = 62e9
    G_p: float = 23e9
    rho_p: float = 7500.0
    d31: float = -320e-12
    v_max: float = 200.0  # None disables saturation

    def __post_init__(self):
        _positive(self, ("t_p", "w_p", "E_p", "G_p", "rho_p"))
        if not 0.0 <= self.l1 <= self.l2:
            raise ValueError("PiezoSpec: need 0 <= l1 <= l2")


@dataclass(frozen=True)
class SectionProperties:
    """Per-length section values at one axial station."""

    rhoA: float
    Ix: float
    EIy: float
    GJ: float
    EA: float
    zn: float


def rect_torsion_constant(width, thick):
    """Saint-Venant torsion constant of a thin rectangle (width >= thick)."""
    r = thick / width
    return width * thick ** 3 * (1.0 / 3.0 - 0.21 * r * (1.0 - r ** 4 / 12.0))


def neutral_axis_offset(beam, piezo):
    """Composite neutral-axis shift from the substrate midplane inside the patch."""
    return (piezo.E_p * piezo.t_p * (beam.t_b + piezo.t_p)
            / (2.0 * (beam.E_b * beam.t_b + piezo.E_p * piezo.t_p)))


def _bare_values(beam):
    rhoA = beam.rho_b * beam.b * beam.t_b
    Ix = beam.rho_b * beam.b * beam.t_b * (beam.b ** 2 + beam.t_b ** 2) / 12.0
    EIy = beam.E_b * beam.b * beam.t_b ** 3 / 12.0
    GJ = beam.G_b * rect_torsion_constant(beam.b, beam.t_b)
    EA = beam.E_b * beam.b * beam.t_b
    return rhoA, Ix, EIy, GJ, EA


def _patch_values(beam, piezo):
    """Additive patch contributions (per-length) over [l1, l2]."""
    zn = neutral_axis_offset(beam, piezo)
    rhoA = piezo.rho_p * piezo.w_p * piezo.t_p
    # thin strip about its own centroid plus parallel-axis offset to the
    # substrate midplane
    zc = (beam.t_b + piezo.t_p) / 2.0
    Ix = piezo.rho_p * piezo.w_p * piezo.t_p * (piezo.w_p ** 2 + piezo.t_p ** 2) / 12.0 \
        + piezo.rho_p * piezo.w_p * piezo.t_p * zc ** 2
    # bending: both layers taken about the shifted neutral axis; the substrate
    # term in excess of its bare midplane value belongs to the patch correction
    EI_sub_shift = beam.E_b * beam.b * beam.t_b * zn ** 2
    EI_patch = piezo.E_p * (piezo.w_p * piezo.t_p ** 3 / 12.0
                            + piezo.w_p * piezo.t_p * (zc - zn) ** 2)
    EIy = EI_sub_shift + EI_patch
    GJ = piezo.G_p * rect_torsion_constant(piezo.w_p, piezo.t_p)
    EA = piezo.E_p * piezo.w_p * piezo.t_p
    return rhoA, Ix, EIy, GJ, EA, zn


def section_properties(x, beam, piezo=None):
    """Section values at station x; piezo=None means bare beam everywhere."""
    if not 0.0 <= x <= beam.L:
        raise ValueError(f"position {x} outside [0, {beam.L}]")
    rhoA, Ix, EIy, GJ, EA = _bare_values(beam)
    zn = 0.0
    if piezo is not None and piezo.l1 <= x <= piezo.l2 and piezo.l2 > piezo.l1:
        dr, di, de, dg, da, zn = _patch_values(beam, piezo)
        rhoA, Ix, EIy, GJ, EA = rhoA + dr, Ix + di, EIy + de, GJ + dg, EA + da
    return SectionProperties(rhoA=rhoA, Ix=Ix, EIy=EIy, GJ=GJ, EA=EA, zn=zn)


def piezo_moment_coefficient(beam, piezo):
    """Actuation moment per volt of the bonded patch."""
    return -0.5 * beam.b * piezo.E_p * piezo.d31 * (beam.t_b + piezo.t_p)


@dataclass
class SystemMatrices:
    """All modal coefficient matrices, the cubic tensor and the forcing vector.

    The cubic tensor carries the variational form G1_ijkl = int EA phi_i'
    phi_j' phi_k' phi_l' dx, the exact gradient structure of the quartic
    strain energy 1/4 int EA w'^4 dx: it is fully index-symmetric, positive
    semidefinite as a quartic form, and makes the undamped dynamics
    conservative.  The strong-form projection of the cubic term is not the
    gradient of any potential and is dynamically unbounded; see README.
    """

    n: int
    M1: np.ndarray
    M2: np.ndarray
    CB: np.ndarray
    CT: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    D1: np.ndarray
    G1: np.ndarray
    F1: np.ndarray
    Mp0: float
    # Derived from the fields above by __post_init__, which replaces any value
    # passed in, so a copy built from another instance's fields is consistent.
    # The matrices are read-only once assembled.
    M1inv: np.ndarray = field(default=None, repr=False, compare=False)
    M2inv: np.ndarray = field(default=None, repr=False, compare=False)
    b: np.ndarray = field(default=None, repr=False, compare=False)   # M1^-1 F1
    N: np.ndarray = field(default=None, repr=False, compare=False)   # M1^-1 G1, (n^3, n)
    # (flexural, torsional) linear frequencies at Omega = 0 in rad/s
    natural_frequencies: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        self.M1inv = cho_solve(cho_factor(self.M1), np.eye(n))
        self.M2inv = cho_solve(cho_factor(self.M2), np.eye(n))
        self.b = self.M1inv @ self.F1
        self.N = (self.M1inv @ self.G1.reshape(n, -1)).reshape(-1, n)
        self.natural_frequencies = linear_frequencies(self, 0.0)

    def tobytes(self):
        parts = [np.ascontiguousarray(a).tobytes() for a in
                 (self.M1, self.M2, self.CB, self.CT, self.C1, self.C2,
                  self.K1, self.K2, self.D1, self.G1, self.F1)]
        return b"".join(parts) + np.float64(self.Mp0).tobytes()


@dataclass(frozen=True)
class StateOperator:
    """First-order form of the modal equations at one base rotation Omega.

    With x = [p; q; pdot; qdot] the equations of motion read

        x' = A x + [0; 0; M1^-1 (F1 v + f - G1(p, p, p)); 0]

    for piezo voltage v and generalized flexural force f.  A carries the
    kinematic identities and every linear term (stiffness, centrifugal,
    damping, gyroscopic), already multiplied through by M1^-1 or M2^-1.
    Only A depends on Omega; M1^-1, M1^-1 F1 and M1^-1 G1 are the fields
    M1inv, b and N of SystemMatrices.
    """

    A: np.ndarray        # (4n, 4n)

    @classmethod
    def build(cls, mats, omega):
        n = mats.n
        M1inv, M2inv = mats.M1inv, mats.M2inv
        A = np.zeros((4 * n, 4 * n))
        A[:2 * n, 2 * n:] = np.eye(2 * n)
        A[2 * n:3 * n, :n] = -M1inv @ (mats.K1 + omega ** 2 * mats.D1)
        A[2 * n:3 * n, 2 * n:3 * n] = -M1inv @ mats.CB
        A[2 * n:3 * n, 3 * n:] = -omega * (M1inv @ mats.C1)
        A[3 * n:, n:2 * n] = -M2inv @ mats.K2
        A[3 * n:, 2 * n:3 * n] = -omega * (M2inv @ mats.C2)
        A[3 * n:, 3 * n:] = -M2inv @ mats.CT
        return cls(A=A)


def gauss_panels(breakpoints, points_per_panel):
    """Gauss-Legendre nodes/weights on each [a,b] panel, concatenated."""
    xg, wg = leggauss(points_per_panel)
    nodes, weights = [], []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if b - a <= 0.0:
            continue
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def assemble(beam, piezo, basis, quad_points=32):
    """Evaluate every coefficient integral into a SystemMatrices value."""
    if abs(basis.length - beam.L) > 1e-12 * beam.L:
        raise ValueError("basis length does not match beam length")
    n = basis.n
    has_patch = piezo is not None and piezo.l2 > piezo.l1
    breaks = [0.0, beam.L] if not has_patch else \
        sorted({0.0, piezo.l1, piezo.l2, beam.L})
    x, w = gauss_panels(breaks, quad_points)

    rhoA0, Ix0, EIy0, GJ0, EA0 = _bare_values(beam)
    rhoA = np.full_like(x, rhoA0)
    Ix = np.full_like(x, Ix0)
    EIy = np.full_like(x, EIy0)
    GJ = np.full_like(x, GJ0)
    EA = np.full_like(x, EA0)
    if has_patch:
        dr, di, de, dg, da, _ = _patch_values(beam, piezo)
        mask = (x >= piezo.l1) & (x <= piezo.l2)
        rhoA[mask] += dr
        Ix[mask] += di
        EIy[mask] += de
        GJ[mask] += dg
        EA[mask] += da

    phi = np.empty((n, x.size))
    dphi = np.empty((n, x.size))
    ddphi = np.empty((n, x.size))
    psi = np.empty((n, x.size))
    dpsi = np.empty((n, x.size))
    for j in range(1, n + 1):
        phi[j - 1], dphi[j - 1], ddphi[j - 1] = basis.flexural_mode(j, x)
        psi[j - 1], dpsi[j - 1] = basis.torsional_mode(j, x)

    M1 = np.einsum("m,im,jm->ij", w * rhoA, phi, phi)
    M2 = np.einsum("m,im,jm->ij", w * Ix, psi, psi)
    C1 = np.einsum("m,im,jm->ij", w * Ix, phi, dpsi)
    C2 = np.einsum("m,im,jm->ij", w * Ix, psi, dphi)
    K1 = np.einsum("m,im,jm->ij", w * EIy, ddphi, ddphi)
    K2 = np.einsum("m,im,jm->ij", w * GJ, dpsi, dpsi)
    D1 = np.einsum("m,im,jm->ij", w * Ix, phi, ddphi)
    G1 = np.einsum("m,im,jm,km,lm->ijkl", w * EA, dphi, dphi, dphi, dphi)

    Mp0 = piezo_moment_coefficient(beam, piezo) if piezo is not None else 0.0
    F1 = np.zeros(n)
    if has_patch:
        for j in range(1, n + 1):
            F1[j - 1] = Mp0 * (basis.flexural_mode(j, piezo.l2)[1]
                               - basis.flexural_mode(j, piezo.l1)[1])

    for name, M in (("M1", M1), ("M2", M2)):
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise AssemblyError(f"{name} is not positive definite after assembly")

    mats = SystemMatrices(n=n, M1=M1, M2=M2, CB=np.zeros((n, n)), CT=np.zeros((n, n)),
                          C1=C1, C2=C2, K1=K1, K2=K2, D1=D1, G1=G1, F1=F1, Mp0=Mp0)
    CB, CT = damping_matrices(mats, beam)
    mats.CB, mats.CT = CB, CT
    return mats


def linear_frequencies(mats, omega=0.0):
    """(flexural, torsional) natural frequencies in rad/s, ascending."""
    Keff = mats.K1 + omega ** 2 * mats.D1
    if omega == 0.0:
        vals_f = eigh(Keff, mats.M1, eigvals_only=True)
    else:
        # D1 is not symmetric, so the effective pencil is general
        vals_f = eig(Keff, mats.M1, right=False)
        if np.max(np.abs(vals_f.imag)) > 1e-6 * max(1.0, np.max(np.abs(vals_f.real))):
            raise SpinDestabilizedError(complex(vals_f[np.argmax(np.abs(vals_f.imag))]))
        vals_f = np.sort(vals_f.real)
    if vals_f[0] < -1e-9 * abs(vals_f).max():
        raise SpinDestabilizedError(vals_f[0])
    vals_t = eigh(mats.K2, mats.M2, eigvals_only=True)
    return np.sqrt(np.clip(vals_f, 0.0, None)), np.sqrt(np.clip(vals_t, 0.0, None))


def damping_matrices(mats, beam):
    """Diagonal modal damping CB_ii = 2*zeta_1i*omega_1i*M1_ii (and torsional)."""
    n = mats.n
    if len(beam.zeta_flex) < n or len(beam.zeta_tors) < n:
        raise ValueError(f"need at least {n} damping ratios per field")
    om_f, om_t = mats.natural_frequencies
    CB = np.diag([2.0 * beam.zeta_flex[i] * om_f[i] * mats.M1[i, i] for i in range(n)])
    CT = np.diag([2.0 * beam.zeta_tors[i] * om_t[i] * mats.M2[i, i] for i in range(n)])
    return CB, CT


def export_matrices(mats, path):
    """Plain-text dump of all matrices (row-major) for external inspection."""
    with open(path, "w") as fh:
        fh.write(f"# modal system matrices, n = {mats.n}\n")
        fh.write("# units: M1 kg*m^2-scale modal mass, K1 N*m-scale modal "
                 "stiffness, F1 modal force per volt; row-major rows below\n")
        for name in ("M1", "M2", "CB", "CT", "C1", "C2", "K1", "K2", "D1"):
            arr = getattr(mats, name)
            fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(f"G1 {mats.n} {mats.n} {mats.n} {mats.n}\n")
        for block in mats.G1.reshape(mats.n * mats.n, -1):
            fh.write(" ".join(f"{v:.17g}" for v in block) + "\n")
        fh.write(f"F1 {mats.n}\n")
        fh.write(" ".join(f"{v:.17g}" for v in mats.F1) + "\n")
        fh.write(f"Mp0 {mats.Mp0:.17g}\n")
