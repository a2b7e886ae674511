"""Section properties and modal system matrices.

All coefficient integrals are evaluated by composite 32-point Gauss-Legendre
quadrature with the panels split at the piezo patch edges, so no integrand
ever crosses the Heaviside jump in the section properties.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import ModalBasis


class AssemblyError(RuntimeError):
    """A mass matrix is not positive definite (quadrature/basis bug)."""


class SpinDestabilizedError(RuntimeError):
    """Effective stiffness indefinite at the requested base rotation."""

    def __init__(self, eigenvalue):
        super().__init__(f"spin-destabilized: effective stiffness eigenvalue {eigenvalue:.6g} < 0")
        self.eigenvalue = eigenvalue


class SpecError(ValueError):
    """A field, name, of a BeamSpec or PiezoSpec, kind, that breaks its rule."""

    def __init__(self, spec, name, rule):
        super().__init__(f"{type(spec).__name__}.{name}: {rule}")
        self.kind, self.name, self.rule = type(spec), name, rule


def _positive(spec, names):
    for name in names:
        if not 0 < getattr(spec, name) < np.inf:
            raise SpecError(spec, name, "must be finite and > 0")


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
                    raise SpecError(self, name, "damping ratio out of [0,1)")


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

    def __post_init__(self):
        _positive(self, ("t_p", "w_p", "E_p", "G_p", "rho_p"))
        if not 0.0 <= self.l1 <= self.l2:
            raise SpecError(self, "l1", "need 0 <= l1 <= l2")


@dataclass(frozen=True)
class SectionProperties:
    """Per-length section values at one axial station or at an array of
    them (see section_properties)."""

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
    """Section values at station x, a scalar or an array of stations;
    piezo=None means bare beam everywhere.

    Without a patch every value is a scalar.  With one, each value has x's
    shape: the bare value plus the patch's on [l1, l2].
    """
    if not np.all((0.0 <= x) & (x <= beam.L)):
        raise ValueError(f"position {x} outside [0, {beam.L}]")
    values = _bare_values(beam) + (0.0,)
    if piezo is not None and piezo.l2 > piezo.l1:
        inside = (piezo.l1 <= x) & (x <= piezo.l2)
        values = [np.where(inside, v + d, v)[()]  # [()]: a scalar for scalar x
                  for v, d in zip(values, _patch_values(beam, piezo))]
    return SectionProperties(*values)


def piezo_moment_coefficient(beam, piezo):
    """Actuation moment per volt of the bonded patch."""
    return -0.5 * beam.b * piezo.E_p * piezo.d31 * (beam.t_b + piezo.t_p)


# the assembled matrices, in the order that tobytes and export_matrices write them
MATRICES = ("M1", "M2", "CB", "CT", "C1", "C2", "K1", "K2", "D1", "G1", "F1")


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
    zeta_flex: tuple   # modal damping ratios, n of each
    zeta_tors: tuple
    C1: np.ndarray
    C2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    D1: np.ndarray
    G1: np.ndarray
    F1: np.ndarray
    Mp0: float
    # Derived from the fields above by __post_init__, which replaces any value
    # passed in, so a copy built from another instance's fields is consistent,
    # damping included.  The matrices are read-only once assembled.
    # (flexural, torsional) linear frequencies at Omega = 0 in rad/s
    natural_frequencies: tuple = field(default=None, repr=False, compare=False)
    CB: np.ndarray = field(default=None, repr=False, compare=False)  # diag 2 zeta omega M1_ii
    CT: np.ndarray = field(default=None, repr=False, compare=False)  # diag 2 zeta omega M2_ii
    M1inv: np.ndarray = field(default=None, repr=False, compare=False)
    M2inv: np.ndarray = field(default=None, repr=False, compare=False)
    b: np.ndarray = field(default=None, repr=False, compare=False)   # M1^-1 F1
    N: np.ndarray = field(default=None, repr=False, compare=False)   # M1^-1 G1, (n^3, n)
    # (A0, A1, A2): StateOperator's A(Omega) = A0 + Omega A1 + Omega^2 A2
    A_parts: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if len(self.zeta_flex) != n or len(self.zeta_tors) != n:
            raise ValueError(f"need {n} damping ratios per field")
        (L1, L1inv), (L2, L2inv) = _cholesky(self.M1, "M1"), _cholesky(self.M2, "M2")
        # K v = lam M v reduced to the symmetric L^-1 K L^-T
        om_f = _root_frequencies(np.linalg.eigvalsh(L1inv @ self.K1 @ L1inv.T))
        om_t = np.sqrt(np.clip(np.linalg.eigvalsh(L2inv @ self.K2 @ L2inv.T), 0.0, None))
        for om in (om_f, om_t):
            om.setflags(write=False)
        self.natural_frequencies = om_f, om_t
        self.CB = np.diag(2.0 * np.asarray(self.zeta_flex) * om_f * np.diag(self.M1))
        self.CT = np.diag(2.0 * np.asarray(self.zeta_tors) * om_t * np.diag(self.M2))
        # M^-1 = L^-T L^-1 by a second triangular solve, as LAPACK's potrs does
        self.M1inv, self.M2inv = M1inv, M2inv = (np.linalg.solve(L1.T, L1inv),
                                                 np.linalg.solve(L2.T, L2inv))
        self.b = M1inv @ self.F1
        self.N = (M1inv @ self.G1.reshape(n, -1)).reshape(-1, n)
        p, q, pd, qd = (slice(k * n, (k + 1) * n) for k in range(4))
        A0, A1, A2 = self.A_parts = tuple(np.zeros((3, 4 * n, 4 * n)))
        A0[:2 * n, 2 * n:] = np.eye(2 * n)
        A0[pd, p] = -M1inv @ self.K1
        A2[pd, p] = -M1inv @ self.D1
        A0[pd, pd] = -M1inv @ self.CB
        A1[pd, qd] = -(M1inv @ self.C1)
        A0[qd, q] = -M2inv @ self.K2
        A1[qd, pd] = -(M2inv @ self.C2)
        A0[qd, qd] = -M2inv @ self.CT

    def tobytes(self):
        return b"".join(np.ascontiguousarray(getattr(self, name)).tobytes()
                        for name in MATRICES) + np.float64(self.Mp0).tobytes()


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
        """A at omega from the Omega-independent parts mats.A_parts."""
        A0, A1, A2 = mats.A_parts
        return cls(A=A0 + omega * A1 + omega ** 2 * A2)


GAUSS_RULE = leggauss(32)  # (nodes, weights) on [-1, 1] of every panel


def gauss_panels(breakpoints):
    """GAUSS_RULE's nodes/weights on each [a,b] panel, concatenated."""
    xg, wg = GAUSS_RULE
    nodes, weights = [], []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if b - a <= 0.0:
            continue
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def assemble(beam, piezo, basis):
    """Evaluate every coefficient integral into a SystemMatrices value."""
    if not abs(basis.length - beam.L) <= 1e-12 * beam.L:  # a NaN length fails too
        raise ValueError("basis length does not match beam length")
    n = basis.n
    has_patch = piezo is not None and piezo.l2 > piezo.l1
    breaks = [0.0, beam.L] if not has_patch else \
        sorted({0.0, piezo.l1, piezo.l2, beam.L})
    x, w = gauss_panels(breaks)
    sec = section_properties(x, beam, piezo)

    modes = np.arange(1, n + 1)
    phi, dphi, ddphi = basis.flexural_mode(modes[:, None], x)  # (n, nodes) each
    psi, dpsi = basis.torsional_mode(modes[:, None], x)

    M1 = np.einsum("m,im,jm->ij", w * sec.rhoA, phi, phi)
    M2 = np.einsum("m,im,jm->ij", w * sec.Ix, psi, psi)
    C1 = np.einsum("m,im,jm->ij", w * sec.Ix, phi, dpsi)
    C2 = np.einsum("m,im,jm->ij", w * sec.Ix, psi, dphi)
    K1 = np.einsum("m,im,jm->ij", w * sec.EIy, ddphi, ddphi)
    K2 = np.einsum("m,im,jm->ij", w * sec.GJ, dpsi, dpsi)
    D1 = np.einsum("m,im,jm->ij", w * sec.Ix, phi, ddphi)
    G1 = np.einsum("m,im,jm,km,lm->ijkl", w * sec.EA, dphi, dphi, dphi, dphi)

    Mp0 = piezo_moment_coefficient(beam, piezo) if piezo is not None else 0.0
    F1 = Mp0 * (basis.flexural_mode(modes, piezo.l2)[1]
                - basis.flexural_mode(modes, piezo.l1)[1]) if has_patch else np.zeros(n)

    return SystemMatrices(n=n, M1=M1, M2=M2, zeta_flex=beam.zeta_flex[:n],
                          zeta_tors=beam.zeta_tors[:n], C1=C1, C2=C2, K1=K1, K2=K2,
                          D1=D1, G1=G1, F1=F1, Mp0=Mp0)


def _cholesky(M, name):
    """(L, L^-1) for the Cholesky factorization M = L L^T of a mass matrix;
    AssemblyError names M if it is not positive definite."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise AssemblyError(f"{name} is not positive definite") from None
    return L, np.linalg.solve(L, np.eye(len(M)))


def _root_frequencies(vals):
    """Frequencies of ascending flexural eigenvalues; SpinDestabilizedError if negative."""
    if vals[0] < -1e-9 * abs(vals).max():
        raise SpinDestabilizedError(vals[0])
    return np.sqrt(np.clip(vals, 0.0, None))


def linear_frequencies(mats, omega=0.0):
    """(flexural, torsional) natural frequencies in rad/s, ascending.  Only
    the flexural ones depend on omega; at omega = 0 both are the read-only
    mats.natural_frequencies."""
    if omega == 0.0:
        return mats.natural_frequencies
    # D1 is not symmetric, so the effective pencil is general
    vals_f = np.linalg.eigvals(np.linalg.solve(mats.M1, mats.K1 + omega ** 2 * mats.D1))
    if np.max(np.abs(vals_f.imag)) > 1e-6 * max(1.0, np.max(np.abs(vals_f.real))):
        raise SpinDestabilizedError(complex(vals_f[np.argmax(np.abs(vals_f.imag))]))
    return _root_frequencies(np.sort(vals_f.real)), mats.natural_frequencies[1]


def export_matrices(mats, path):
    """Plain-text dump of all matrices (row-major) for external inspection."""
    with open(path, "w") as fh:
        fh.write(f"# modal system matrices, n = {mats.n}\n")
        fh.write("# units: M1 kg*m^2-scale modal mass, K1 N*m-scale modal "
                 "stiffness, F1 modal force per volt; row-major rows below\n")
        for name in MATRICES:
            arr = getattr(mats, name)
            fh.write(" ".join(map(str, (name, *arr.shape))) + "\n")
            # a matrix by rows, G1 by its n^2 (i, j) blocks, F1 on one line
            for row in arr.reshape(math.prod(arr.shape[:arr.ndim // 2]), -1):
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(f"Mp0 {mats.Mp0:.17g}\n")
