"""Section properties and modal system matrices.

All coefficient integrals are evaluated by composite 32-point Gauss-Legendre
quadrature with the panels split at the piezo patch edges, so no integrand
ever crosses the Heaviside jump in the section properties.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import ModalBasis


class AssemblyError(RuntimeError):
    """A mass matrix is not positive definite: a quadrature or basis bug, or
    densities so small that it rounds to 0."""


class SpinDestabilizedError(RuntimeError):
    """Effective stiffness indefinite at the requested base rotation."""

    def __init__(self, eigenvalue):
        super().__init__(f"spin-destabilized: effective stiffness eigenvalue {eigenvalue:.6g} < 0")
        self.eigenvalue = eigenvalue


class SpecError(ValueError):
    """A field, name, of a spec, kind, that breaks its rule (see check)."""

    def __init__(self, spec, name, rule):
        super().__init__(f"{type(spec).__name__}.{name}: {rule}")
        self.kind, self.name, self.rule = type(spec), name, rule


def check(spec, rules):
    """Raise SpecError for the first (field, holds, rule) of spec that does not hold."""
    for name, ok, rule in rules:
        if not ok:
            raise SpecError(spec, name, rule)


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
        check(self, [(name, 0 < getattr(self, name) < math.inf, "must be finite and > 0")
                     for name in ("L", "t_b", "b", "rho_b", "E_b", "G_b")]
              + [(name, all(0.0 <= z < 1.0 for z in getattr(self, name)),
                  "damping ratio out of [0,1)") for name in ("zeta_flex", "zeta_tors")])


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
        check(self, [(name, 0 < getattr(self, name) < math.inf, "must be finite and > 0")
                     for name in ("t_p", "w_p", "E_p", "G_p", "rho_p")]
              + [("l1", 0.0 <= self.l1 <= self.l2, "need 0 <= l1 <= l2")])


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
    # term beyond its bare midplane value belongs to the patch correction
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


@functools.lru_cache(maxsize=None)
def cubic_lattice(n):
    """(lattice, weights), read-only and shared by every model of n modes,
    for the cubic forms in n variables as sums of cubes of fixed linear forms.

    lattice (R, n), R = C(n + 2, 3), holds the principal-lattice directions
    e_j + e_k + e_l (j <= k <= l, in lexicographic order); the R cubes
    (lattice p)^3 are a basis of the cubic forms in p.  weights (n^3, R) maps
    a tensor T, flattened in row-major (j, k, l) order, to the W with
    sum_jkl T_jkl p_j p_k p_l = W . (lattice p)^3 for every p, so rows T_i
    stacked into a matrix give the rows W_i.
    """
    triples = list(itertools.combinations_with_replacement(range(n), 3))
    row = {t: a for a, t in enumerate(triples)}
    of = np.array([row[tuple(sorted(jkl))]  # the triple that each (j, k, l) sorts to
                   for jkl in itertools.product(range(n), repeat=3)])
    triples = np.array(triples)
    lattice = (triples[:, :, None] == np.arange(n)).sum(axis=1).astype(float)
    # V[a, r]: the coefficient of the monomial of triple a in (lattice_r p)^3,
    # the count of its orderings times the product of lattice_r over it
    V = np.bincount(of)[:, None] * lattice[:, triples].prod(axis=-1).T
    weights = np.linalg.solve(V, of == np.arange(len(triples))[:, None]).T.copy()
    for a in (lattice, weights):
        a.setflags(write=False)
    return lattice, weights


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
    # Derived from the fields above by __post_init__.
    # (flexural, torsional) linear frequencies at Omega = 0 in rad/s
    natural_frequencies: tuple = field(init=False, repr=False, compare=False)
    CB: np.ndarray = field(init=False, repr=False, compare=False)  # diag 2 zeta omega M1_ii
    CT: np.ndarray = field(init=False, repr=False, compare=False)  # diag 2 zeta omega M2_ii
    M1inv: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)   # M1^-1 F1
    # M1^-1 G1(p, p, p) = W (lattice p)^3: cubic_lattice(n)'s lattice on p
    # scaled by s, s_j the power of two in (c, 2c], c = cbrt(G1_jjjj) (1 for 0)
    lattice: np.ndarray = field(init=False, repr=False, compare=False)  # (R, n)
    W: np.ndarray = field(init=False, repr=False, compare=False)        # (n, R)
    # (A0, A1, A2): StateOperator's open-loop A(Omega) = A0 + Omega A1 + Omega^2 A2
    A_parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        check(self, ((name, len(getattr(self, name)) == n, f"need {n} damping ratios")
                     for name in ("zeta_flex", "zeta_tors")))
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
        self.M1inv = M1inv = np.linalg.solve(L1.T, L1inv)
        M2inv = np.linalg.solve(L2.T, L2inv)
        self.b = M1inv @ self.F1
        # scaling p_j by s_j, a power of two, is exact; unscaled, a force led
        # by the first modes would be a difference of terms that carry the
        # last modes' far larger coefficients
        lattice, weights = cubic_lattice(n)
        s = np.ldexp(1.0, np.frexp(np.cbrt(np.einsum("jjjj->j", self.G1)))[1])
        self.lattice = lattice * s
        weights = np.einsum("j,k,l->jkl", 1.0 / s, 1.0 / s, 1.0 / s).reshape(-1, 1) * weights
        self.W = M1inv @ (self.G1.reshape(n, -1) @ weights)
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
    """The linear model at one base rotation Omega, open loop or closed by a
    voltage law.  With x = [p; q; pdot; qdot] and u = [(lattice p)^3; v; d],
    the cubes of cubic_lattice's R linear forms of p, the piezo voltage and
    the disturbance value, the modal equations read

        x' = A x + [0; 0; E u; 0].

    A carries the kinematic identities and every linear term (stiffness,
    centrifugal, damping, gyroscopic), multiplied through by M1^-1 or M2^-1;
    E = [-W | b | M1^-1 e_target], with W (lattice p)^3 = M1^-1 G1(p, p, p)
    the cubic force (W of SystemMatrices) and b = M1^-1 F1 (a zero last
    column without a disturbance).  A law's unclipped voltage v = h x + rho
    (lattice p)^3, h = -(g + c A_flex) / beta and rho = (c / beta) W, is
    folded in: b h is added to A's flexural rows A_flex, E's cubic block is
    -(I - b c / beta) W = b rho - W, and readout is (rho, h).
    """

    A: np.ndarray        # (4n, 4n)
    E: np.ndarray        # (n, R + 2)
    lattice: np.ndarray  # (R, n)
    readout: tuple = None  # (rho, h) of the law, or None

    @classmethod
    def build(cls, mats, omega, disturbance=None, law=None):
        """The operator at omega from mats.A_parts, for a dynamics.Disturbance
        and a control.VoltageLaw (g, c and beta read) or None; ValueError for
        a disturbance target outside the flexural equations 1..n."""
        A0, A1, A2 = mats.A_parts
        A = A0 + omega * A1 + omega * omega * A2
        n, b, W = mats.n, mats.b, mats.W
        R = W.shape[1]
        E = np.zeros((n, R + 2))
        E[:, R] = b
        if disturbance is not None:
            if not 1 <= disturbance.target <= n:
                raise ValueError(f"Disturbance.target = {disturbance.target} is outside "
                                 f"the model's flexural equations 1..{n}")
            E[:, R + 1] = mats.M1inv[:, disturbance.target - 1]
        if law is None:
            E[:, :R] = -W
            return cls(A, E, mats.lattice)
        flex = slice(2 * n, 3 * n)
        rho = (law.c / law.beta).dot(W)
        h = -(law.g + law.c.dot(A[flex])) / law.beta
        A[flex] += b[:, None] * h
        E[:, :R] = b[:, None] * rho - W
        return cls(A, E, mats.lattice, (rho, h))

    def cubes(self, p):
        """(lattice p)^3 for the flexural coordinates p, or for each row of
        a (samples, n) array of them."""
        return np.float_power(p.dot(self.lattice.T), 3.0)

    def demand(self, x, cubes=None):
        """The law's unclipped voltage x h + (lattice p)^3 rho, (rho, h) the
        readout, at the state x, or at each row of a (samples, 4n) array;
        cubes is (lattice p)^3 of x (see cubes) when the caller has it."""
        rho, h = self.readout
        if cubes is None:
            cubes = self.cubes(x[..., :self.lattice.shape[1]])
        return x.dot(h) + cubes.dot(rho)


GAUSS_RULE = leggauss(32)  # (nodes, weights) on [-1, 1] of every panel


def gauss_panels(breakpoints):
    """GAUSS_RULE's nodes/weights on each [a,b] panel, concatenated."""
    xg, wg = GAUSS_RULE
    nodes, weights = [], []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
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
    mats.natural_frequencies.  At omega != 0 the flexural ones are those of
    StateOperator's stiffness block -A[pdot, p] = M1^-1 (K1 + omega^2 D1),
    without the gyroscopic C1/C2 coupling that A also carries."""
    if omega == 0.0:
        return mats.natural_frequencies
    n = mats.n
    # D1 is not symmetric, so the effective stiffness is a general matrix
    A = StateOperator.build(mats, omega).A
    vals_f = np.linalg.eigvals(-A[2 * n:3 * n, :n])
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
