import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson
from scipy.optimize import brentq

from piezobeam import ModalBasis, flexural_eigenvalues


def brentq_roots(n):
    """Independent oracle: scipy's brentq on 1 + cos(l)cosh(l) = 0, on the
    brackets (2j-1)pi/2 -+ 1."""
    f = lambda lam: 1.0 + np.cos(lam) * np.cosh(lam)
    return [brentq(f, (2 * j - 1) * np.pi / 2 - 1.0, (2 * j - 1) * np.pi / 2 + 1.0,
                   xtol=1e-14, rtol=4 * np.finfo(float).eps)
            for j in range(1, n + 1)]


def test_eigenvalues_empty():
    assert flexural_eigenvalues(0) == []


@pytest.mark.parametrize("n", range(1, 13))
def test_eigenvalues_against_brentq_oracle(n):
    lam = flexural_eigenvalues(n)
    assert_allclose(lam, brentq_roots(n), atol=1e-11)
    assert_allclose(lam[:2], [1.87510, 4.69409][:n], atol=1e-5)


def test_eigenvalue_residuals():
    for lam in flexural_eigenvalues(5):
        assert abs(1.0 + np.cos(lam) * np.cosh(lam)) < 1e-9


def test_roots_increasing_first_in_window():
    lam = flexural_eigenvalues(4)
    assert all(a < b for a, b in zip(lam, lam[1:]))
    assert 1.8 < lam[0] < 1.9


def test_clamped_end_conditions():
    b = ModalBasis.build(3, 0.15)
    for j in (1, 2, 3):
        phi, dphi, _ = b.flexural_mode(j, 0.0)
        assert abs(phi) < 1e-12
        assert abs(dphi) < 1e-10


def test_tip_value_mode1():
    b = ModalBasis.build(2, 0.15)
    phi, _, _ = b.flexural_mode(1, 0.15)
    assert abs(phi - 2.0) < 1e-10


def test_tip_values_stored_once_read_only():
    b = ModalBasis.build(3, 0.15)
    for tips, mode in ((b.flexural_tip_values, b.flexural_mode),
                       (b.torsional_tip_values, b.torsional_mode)):
        assert tips() is tips() and not tips().flags.writeable
        assert np.array_equal(tips(), [mode(j, 0.15)[0] for j in (1, 2, 3)])


def test_equality_and_hash_by_identity():
    # array fields: generated field-wise __eq__ would raise, and __hash__
    # would be unhashable
    b = ModalBasis.build(2, 0.15)
    assert b == b
    assert (b == ModalBasis.build(2, 0.15)) is False
    assert hash(b) == hash(b)
    assert {b: 1}[b] == 1


def test_norm_integral_is_length():
    # classical property of the sigma normalization, fine trapezoid oracle
    L = 0.15
    b = ModalBasis.build(2, L)
    x = np.linspace(0.0, L, 20001)
    for j in (1, 2):
        phi = b.flexural_mode(j, x)[0]
        assert abs(np.trapezoid(phi * phi, x) - L) / L < 1e-6


def test_flexural_orthogonality():
    L = 0.15
    b = ModalBasis.build(4, L)
    x = np.linspace(0.0, L, 20001)
    for i in range(1, 5):
        for j in range(1, i):
            fi = b.flexural_mode(i, x)[0]
            fj = b.flexural_mode(j, x)[0]
            assert abs(simpson(fi * fj, x=x)) / L < 1e-8


def test_torsional_orthogonality():
    L = 0.15
    b = ModalBasis.build(4, L)
    x = np.linspace(0.0, L, 20001)
    for i in range(1, 5):
        for j in range(1, i):
            si = b.torsional_mode(i, x)[0]
            sj = b.torsional_mode(j, x)[0]
            assert abs(np.trapezoid(si * sj, x)) / L < 1e-12


def test_free_end_zero_curvature():
    L = 0.15
    b = ModalBasis.build(3, L)
    x = np.linspace(0.0, L, 2001)
    for j in (1, 2, 3):
        dd = b.flexural_mode(j, x)[2]
        assert abs(dd[-1]) < 1e-6 * np.max(np.abs(dd))


def test_no_cancellation_vs_mpmath_oracle():
    # high-precision evaluation of the textbook form, modes up to lambda_5
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    L = 0.15
    b = ModalBasis.build(5, L)
    xs = np.linspace(0.01 * L, L, 23)
    for j in (3, 4, 5):
        lam = mpmath.mpf(repr(float(b.flexural_roots[j - 1])))
        sig = (mpmath.cosh(lam) + mpmath.cos(lam)) / (mpmath.sinh(lam) + mpmath.sin(lam))
        beta = lam / mpmath.mpf("0.15")
        scale = max(abs(b.flexural_mode(j, x)[0]) for x in xs)
        for x in xs:
            z = beta * mpmath.mpf(repr(float(x)))
            exact = mpmath.cosh(z) - mpmath.cos(z) - sig * (mpmath.sinh(z) - mpmath.sin(z))
            got = b.flexural_mode(j, x)[0]
            assert abs(got - float(exact)) / scale < 1e-8


def test_torsional_mode_values():
    L = 0.15
    b = ModalBasis.build(2, L)
    assert b.torsional_mode(1, 0.0)[0] == 0.0
    assert abs(b.torsional_mode(1, L)[0] - 1.0) < 1e-14
    assert abs(b.torsional_mode(2, L / 3)[0] - 1.0) < 1e-14
    # free-end torsion BC: psi'(L) = 0
    for j in (1, 2):
        assert abs(b.torsional_mode(j, L)[1]) < 1e-12


@pytest.mark.parametrize("length", [0.0, -0.15, math.nan, math.inf])
def test_length_must_be_finite_and_positive(length):
    with pytest.raises(ValueError, match="finite and > 0"):
        ModalBasis.build(2, length)


def test_domain_errors():
    b = ModalBasis.build(2, 0.15)
    with pytest.raises(ValueError):
        b.flexural_mode(0, 0.05)
    with pytest.raises(ValueError):
        b.flexural_mode(3, 0.05)
    with pytest.raises(ValueError):
        b.flexural_mode(1, -0.01)
    with pytest.raises(ValueError):
        b.torsional_mode(1, 0.2)


@pytest.mark.parametrize("n", [1, 3, 12])
def test_mode_arrays_are_the_stacked_single_modes(n):
    # bit for bit: assemble and the tip vectors rely on it
    b = ModalBasis.build(n, 0.15)
    modes = np.arange(1, n + 1)
    x = np.concatenate(([0.0, 0.15], np.linspace(0.0, 0.15, 37)))
    for mode in (b.flexural_mode, b.torsional_mode):
        for j, at in ((modes[:, None], x), (modes, 0.15)):
            for k, got in enumerate(mode(j, at)):
                want = np.stack([mode(i, at)[k] for i in modes])
                assert got.shape == want.shape and np.array_equal(got, want)
    for bad in ([1, 0], [1, n + 1], [[1], [n + 1]]):
        with pytest.raises(ValueError, match="mode index"):
            b.flexural_mode(np.array(bad), x)
        with pytest.raises(ValueError, match="mode index"):
            b.torsional_mode(np.array(bad), x)


def test_derivatives_are_analytic_not_fd():
    # derivative values match central differences of phi to O(h^2)
    b = ModalBasis.build(2, 0.15)
    h = 1e-6
    for j in (1, 2):
        for x in (0.03, 0.08, 0.12):
            phi_m = b.flexural_mode(j, x - h)[0]
            phi_p = b.flexural_mode(j, x + h)[0]
            dphi = b.flexural_mode(j, x)[1]
            assert abs((phi_p - phi_m) / (2 * h) - dphi) < 1e-4 * max(1.0, abs(dphi))
