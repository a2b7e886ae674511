import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from piezobeam import (AssemblyError, BeamSpec, ModalBasis, PiezoSpec, SpinDestabilizedError,
                       assemble, linear_frequencies, section_properties)
import piezobeam
from piezobeam import assembly
from piezobeam.assembly import SpecError

from cases import model, oracle_matrices


class TestSectionProperties:
    def test_bare_bending_stiffness(self, beam, piezo):
        sp = section_properties(0.005, beam, piezo)
        assert_allclose(sp.EIy, 70e9 * 0.015 * (0.8e-3) ** 3 / 12.0, rtol=1e-12)
        assert abs(sp.EIy - 4.48e-2) < 1e-4

    def test_bare_mass_per_length(self, beam, piezo):
        sp = section_properties(0.005, beam, piezo)
        assert_allclose(sp.rhoA, 3960 * 0.015 * 0.8e-3, rtol=1e-12)
        assert abs(sp.rhoA - 4.752e-2) < 1e-4

    def test_zero_thickness_patch_degenerates_to_bare(self, beam):
        thin = PiezoSpec(t_p=1e-14)
        inside = section_properties(0.03, beam, thin)
        bare = section_properties(0.03, beam, None)
        for name in ("rhoA", "Ix", "EIy", "GJ", "EA"):
            assert abs(getattr(inside, name) - getattr(bare, name)) \
                < 1e-9 * getattr(bare, name)
        assert abs(inside.zn) < 1e-12

    def test_patch_only_raises_values_inside(self, beam, piezo):
        bare = section_properties(0.005, beam, piezo)
        inside = section_properties(0.03, beam, piezo)
        outside = section_properties(0.1, beam, piezo)
        for name in ("rhoA", "Ix", "EIy", "GJ", "EA"):
            assert getattr(inside, name) > getattr(bare, name)
            assert getattr(outside, name) == getattr(bare, name)

    def test_out_of_range(self, beam, piezo):
        with pytest.raises(ValueError):
            section_properties(-0.01, beam, piezo)
        with pytest.raises(ValueError):
            section_properties(0.16, beam, piezo)
        with pytest.raises(ValueError):
            section_properties(np.array([0.03, 0.16]), beam, piezo)

    def test_array_stations_match_scalar_ones(self, beam, piezo):
        # stations outside, on both edges of and inside the patch
        x = np.array([0.0, 0.005, piezo.l1, 0.03, piezo.l2, 0.1, beam.L])
        at = section_properties(x, beam, piezo)
        for name in ("rhoA", "Ix", "EIy", "GJ", "EA", "zn"):
            assert getattr(at, name).shape == x.shape
            assert [getattr(section_properties(xi, beam, piezo), name) for xi in x] \
                == list(getattr(at, name))


class TestAssemble:
    def test_mass_entry_no_patch_n1(self):
        _, m = model(1, piezo=None)
        # int phi^2 = L, so M1_11 = rhoA * L
        assert_allclose(m.M1[0, 0], 4.752e-2 * 0.15, rtol=1e-9)

    def test_empty_patch_zero_forcing(self, beam, basis2, piezo):
        empty = PiezoSpec(l1=0.03, l2=0.03)
        m = assemble(beam, empty, basis2)
        assert np.all(m.F1 == 0.0)

    def test_against_trapezoid_oracle(self, beam, piezo, basis2, mats):
        oracle = oracle_matrices(beam, piezo, basis2)
        for name, ref in oracle.items():
            got = getattr(mats, name)
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err < 1e-7, f"{name}: {err}"

    def test_forcing_vector_formula(self, beam, piezo, basis2, mats):
        Mp0 = -0.5 * beam.b * piezo.E_p * piezo.d31 * (beam.t_b + piezo.t_p)
        assert_allclose(mats.Mp0, Mp0, rtol=1e-14)
        for j in (1, 2):
            expected = Mp0 * (basis2.flexural_mode(j, piezo.l2)[1]
                              - basis2.flexural_mode(j, piezo.l1)[1])
            assert_allclose(mats.F1[j - 1], expected, rtol=1e-12)

    def test_symmetry_and_definiteness(self, mats):
        for M in (mats.M1, mats.M2, mats.K1, mats.K2):
            assert_allclose(M, M.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(mats.M1) > 0)
        assert np.all(np.linalg.eigvalsh(mats.M2) > 0)
        assert np.all(np.linalg.eigvalsh(mats.K1) > 0)
        assert np.all(np.linalg.eigvalsh(mats.K2) >= 0)

    def test_cubic_tensor_middle_index_symmetry(self, mats):
        assert_allclose(mats.G1, np.transpose(mats.G1, (0, 2, 1, 3)), rtol=1e-12)

    def test_cubic_tensor_quartic_nonnegative(self, mats):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.normal(size=2)
            assert np.einsum("ijkl,i,j,k,l->", mats.G1, p, p, p, p) >= 0.0

    def test_patch_monotonicity(self, beam, basis2):
        small = PiezoSpec(l1=0.02, l2=0.05)
        large = PiezoSpec(l1=0.01, l2=0.07)
        ms = assemble(beam, small, basis2)
        ml = assemble(beam, large, basis2)
        for name in ("M1", "M2", "K1", "K2"):
            ds = np.diag(getattr(ms, name))
            dl = np.diag(getattr(ml, name))
            assert np.all(dl >= ds - 1e-15 * np.abs(ds))

    def test_quadrature_convergence(self, beam, piezo, basis2, monkeypatch):
        m32 = assemble(beam, piezo, basis2)
        monkeypatch.setattr(assembly, "GAUSS_RULE", leggauss(64))
        m64 = assemble(beam, piezo, basis2)
        for name in ("M1", "M2", "C1", "C2", "K1", "K2", "D1", "G1", "F1"):
            a, b = getattr(m32, name), getattr(m64, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_forcing_depends_only_on_boundary_slopes(self, beam, piezo, basis2):
        # same geometry, different patch density / shear modulus: F1 unchanged
        other = PiezoSpec(rho_p=9999.0, G_p=40e9)
        m1 = assemble(beam, piezo, basis2)
        m2 = assemble(beam, other, basis2)
        assert_allclose(m1.F1, m2.F1, rtol=1e-14)

    def test_length_mismatch(self, beam, piezo):
        with pytest.raises(ValueError):
            assemble(beam, piezo, ModalBasis.build(2, 0.2))

    def test_nan_basis_length_mismatches(self, beam, piezo, basis2):
        with pytest.raises(ValueError, match="basis length"):
            assemble(beam, piezo, dataclasses.replace(basis2, length=math.nan))

    def test_one_construction_and_one_factorization_per_mass_matrix(
            self, beam, piezo, basis2, monkeypatch):
        calls = {"post_init": 0, "cholesky": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(assembly.SystemMatrices, "__post_init__",
                            counted("post_init", assembly.SystemMatrices.__post_init__))
        monkeypatch.setattr(assembly, "_cholesky", counted("cholesky", assembly._cholesky))
        assemble(beam, piezo, basis2)
        assert calls == {"post_init": 1, "cholesky": 2}

    @pytest.mark.parametrize("name", ["M1", "M2"])
    def test_indefinite_mass_matrix_named(self, mats, name):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(AssemblyError, match=name):
            dataclasses.replace(mats, **{name: indefinite})


def contract3(T, p):
    """sum_jkl T_ijkl p_j p_k p_l for T of shape (n, n, n, n), as three
    nested contractions."""
    return T.dot(p).dot(p).dot(p)


CUBIC_RTOL = 5e-13  # of the force's largest entry; measured up to 6.2e-14 (n = 8)


class TestCubicLattice:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_principal_lattice(self, n):
        lattice, weights = assembly.cubic_lattice(n)
        R = math.comb(n + 2, 3)
        assert lattice.shape == (R, n) and weights.shape == (n ** 3, R)
        expected = sorted(tuple(np.bincount(t, minlength=n))
                          for t in itertools.combinations_with_replacement(range(n), 3))
        assert sorted(map(tuple, lattice.astype(int))) == expected
        assert np.array_equal(lattice, lattice.astype(int))
        assert assembly.cubic_lattice(n) is assembly.cubic_lattice(n)
        assert not (lattice.flags.writeable or weights.flags.writeable)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weights_map_any_tensor_to_its_cubic_form(self, n):
        # an arbitrary tensor, not symmetric, has only its symmetric part's form
        rng = np.random.default_rng(n)
        lattice, weights = assembly.cubic_lattice(n)
        T = rng.normal(size=(n, n, n, n))
        W = T.reshape(n, -1) @ weights
        for p in rng.normal(size=(20, n)):
            ref = contract3(T, p)
            got = W @ (lattice @ p) ** 3
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
    def test_cubic_force_is_the_nested_contraction(self, n):
        # M1^-1 G1(p, p, p) at modal amplitudes that fall 10x per mode
        _, mats = model(n, zeta_flex=(0.01,) * n, zeta_tors=(0.01,) * n)
        T = np.einsum("ia,ajkl->ijkl", mats.M1inv, mats.G1)
        rng = np.random.default_rng(24 + n)
        for p in rng.normal(size=(50, n)) * 1e-3 * 10.0 ** -np.arange(n):
            ref = contract3(T, p)
            got = mats.W @ np.float_power(mats.lattice @ p, 3)
            assert np.max(np.abs(got - ref)) <= CUBIC_RTOL * np.max(np.abs(ref))


class TestLinearFrequencies:
    def test_first_flexural_matches_euler_bernoulli(self, beam, basis2, mats_bare):
        om_f, _ = linear_frequencies(mats_bare, 0.0)
        sp = section_properties(0.0, beam, None)
        lam1 = basis2.flexural_roots[0]
        exact = lam1 ** 2 * np.sqrt(sp.EIy / (sp.rhoA * beam.L ** 4))
        assert abs(om_f[0] - exact) / exact < 1e-9
        assert abs(exact - 151.7) < 0.1
        assert abs(exact / (2 * np.pi) - 24.1) < 0.05

    def test_first_torsional_matches_rod_formula(self, beam, mats_bare):
        _, om_t = linear_frequencies(mats_bare, 0.0)
        sp = section_properties(0.0, beam, None)
        exact = (np.pi / (2 * beam.L)) * np.sqrt(sp.GJ / sp.Ix)
        assert abs(om_t[0] - exact) / exact < 1e-9

    def test_sorted_nonnegative(self, mats):
        om_f, om_t = linear_frequencies(mats, 20.0)
        assert np.all(np.diff(om_f) > 0) and np.all(om_f >= 0)
        assert np.all(np.diff(om_t) > 0) and np.all(om_t >= 0)

    def test_zero_spin_returns_the_stored_read_only_frequencies(self, mats):
        for got, stored in zip(linear_frequencies(mats, 0.0), mats.natural_frequencies):
            assert got is stored and not got.flags.writeable
        assert linear_frequencies(mats, 20.0)[1] is mats.natural_frequencies[1]

    def test_spin_term_vanishes_at_zero(self, mats):
        a = linear_frequencies(mats, 0.0)
        m_noD = dataclasses.replace(mats, D1=np.zeros_like(mats.D1))
        b = linear_frequencies(m_noD, 0.0)
        assert_allclose(a[0], b[0], rtol=1e-12)

    @pytest.mark.parametrize("omega", [0.0, 20.0])
    def test_five_modes_match_inverse_mass_times_stiffness(self, omega):
        # eigenvalues of M^-1 K from the general solver, not the Cholesky reduction
        zeta = (0.01,) * 5
        _, m = model(5, zeta_flex=zeta, zeta_tors=zeta)
        om_f, om_t = linear_frequencies(m, omega)
        for got, K, M in ((om_f, m.K1 + omega ** 2 * m.D1, m.M1), (om_t, m.K2, m.M2)):
            vals = np.linalg.eig(np.linalg.inv(M) @ K)[0]
            assert np.all(vals.imag == 0.0)
            assert_allclose(got, np.sqrt(np.sort(vals.real)), rtol=1e-12)

    def test_spin_destabilized_error(self, mats):
        # doctored effective stiffness: strongly negative D1 at high spin
        bad = dataclasses.replace(mats, D1=-np.eye(2) * 1.0)
        with pytest.raises(SpinDestabilizedError, match=r"eigenvalue -\S+ < 0$") as info:
            linear_frequencies(bad, 1000.0)
        assert info.value.eigenvalue is not None

    def test_coalesced_flexural_pair_is_not_real(self, mats):
        # at 7000 rad/s the two flexural eigenvalues of the default model
        # have met and left the real axis: no eigenvalue is below 0
        with pytest.raises(SpinDestabilizedError, match=r"eigenvalue \S+j is not real$") as info:
            linear_frequencies(mats, 7000.0)
        value = info.value.eigenvalue
        assert isinstance(value, complex) and value.real > 0.0 and value.imag != 0.0


class TestDamping:
    def test_zero_ratios_zero_matrices(self, mats_undamped):
        assert np.all(mats_undamped.CB == 0.0) and np.all(mats_undamped.CT == 0.0)

    def test_diagonal_structure(self, mats):
        assert np.all(mats.CB == np.diag(np.diag(mats.CB)))
        assert np.all(mats.CT == np.diag(np.diag(mats.CT)))

    def test_first_entry_value(self, mats_bare):
        om_f, _ = linear_frequencies(mats_bare, 0.0)
        assert_allclose(mats_bare.CB[0, 0], 2 * 0.01 * om_f[0] * mats_bare.M1[0, 0],
                        rtol=1e-12)
        assert abs(om_f[0] - 151.7) < 0.1

    def test_copy_with_new_stiffness_rederives_damping(self, mats):
        stiffer = dataclasses.replace(mats, K1=2 * mats.K1, K2=3 * mats.K2)
        om_f, om_t = stiffer.natural_frequencies
        assert_allclose(om_f, np.sqrt(2) * mats.natural_frequencies[0], rtol=1e-12)
        assert_allclose(stiffer.CB, np.diag(2 * np.array(mats.zeta_flex) * om_f
                                            * np.diag(mats.M1)), rtol=1e-12)
        assert_allclose(stiffer.CT, np.diag(2 * np.array(mats.zeta_tors) * om_t
                                            * np.diag(mats.M2)), rtol=1e-12)

    def test_short_zeta_list_rejected(self, piezo):
        beam = BeamSpec(zeta_flex=(0.01,))
        basis = ModalBasis.build(2, beam.L)
        with pytest.raises(SpecError, match=r"^SystemMatrices\.zeta_flex: need 2 damping ratios$"):
            assemble(beam, piezo, basis)


def test_runtime_imports_no_scipy():
    # a fresh process, since the test suite itself imports scipy, on the
    # tree whose package the suite tests
    src = str(Path(piezobeam.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, piezobeam, piezobeam.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_public_names():
    # a name added to or dropped from the package is a deliberate diff here
    assert set(piezobeam.__all__) == {
        "AssemblyError", "BeamSpec", "ControlAuthorityError", "ControllerConfig",
        "Disturbance", "IntegrationBlowupError", "ModalBasis", "PiezoSpec",
        "SectionProperties", "SimConfig", "SpinDestabilizedError", "SystemMatrices",
        "Trajectory", "assemble", "avf_step", "closed_loop", "design_gains", "energy",
        "export_matrices", "flexural_eigenvalues", "linear_frequencies", "make_policy",
        "rhs", "rk4_step", "section_properties", "simulate", "step"}
