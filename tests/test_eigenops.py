import numpy as np
import pytest

from spinlind import eigenops as eo
from spinlind import spincore as sc
from spinlind.errors import ValidationError

from conftest import random_system

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def decompose_xi_x(system, b_o, gap_tol=1e-9):
    return eo.decompose(sc.xi_operator(system, "x"), sc.level_data(system, b_o),
                        gap_tol)


class TestQubitBlocks:
    def test_two_blocks_at_larmor_frequency(self):
        gamma, b_o = -1.76e3, 2.0
        system = sc.SpinSystem([0.5], [gamma])
        dec = decompose_xi_x(system, b_o)
        w0 = -gamma * b_o
        assert sorted(dec.labels()) == [(-1, -w0), (1, w0)]
        assert np.allclose(dec.block(1, w0).matrix, -(gamma / 2.0) * SIGMA_MINUS)
        assert np.allclose(dec.block(-1, -w0).matrix, -(gamma / 2.0) * SIGMA_PLUS)

    def test_adjoint_of_lowering_block_is_raising_block(self):
        gamma, b_o = -1.76e3, 2.0
        system = sc.SpinSystem([0.5], [gamma])
        dec = decompose_xi_x(system, b_o)
        w0 = -gamma * b_o
        adj = eo.adjoint_block(dec, 1, w0)
        assert np.allclose(adj.matrix, -(gamma / 2.0) * SIGMA_PLUS)

    def test_missing_block_lookup_raises(self):
        system = sc.SpinSystem([0.5], [-1.0])
        dec = decompose_xi_x(system, 1.0)
        with pytest.raises(KeyError):
            dec.block(0, 0.0)
        with pytest.raises(KeyError):
            eo.adjoint_block(dec, 0, 0.0)


class TestTwoSpinGaps:
    def test_four_single_element_blocks(self):
        gamma = np.array([-2.0e3, -3.0e3])
        t12, b_o = 50.0, 1.0
        couplings = np.array([[0.0, t12], [t12, 0.0]])
        system = sc.SpinSystem([0.5, 0.5], gamma, couplings)
        dec = decompose_xi_x(system, b_o)

        # oracle: enumerate energies and magnetizations over the 4 levels
        lev = sc.level_data(system, b_o)
        expected = set()
        for a in range(4):
            for b in range(4):
                if lev.magnetizations[b] - lev.magnetizations[a] == 1.0:
                    expected.add(round(lev.energies[b] - lev.energies[a], 6))
        plus = [b for b in dec.blocks if b.step == 1]
        assert len(plus) == 4
        got = {round(b.omega, 6) for b in plus}
        assert got == expected
        analytic = {round(-g * b_o + s * t12 / 2.0, 6)
                    for g in gamma for s in (+1.0, -1.0)}
        assert got == analytic
        for b in plus:
            assert np.count_nonzero(b.matrix) == 1


class TestGeneralProperties:
    def test_completeness_and_selection_rule(self, rng):
        for _ in range(6):
            system = random_system(rng)
            xi = sc.xi_operator(system, "x")
            dec = eo.decompose(xi, sc.level_data(system, 1.4))
            if not dec.blocks:
                assert np.max(np.abs(xi)) == 0.0
                continue
            assert np.max(np.abs(dec.sum() - xi)) == 0.0
            assert all(b.step in (1, -1) for b in dec.blocks)

    def test_ladder_commutators(self, rng):
        system = random_system(rng)
        b_o = 1.1
        lev = sc.level_data(system, b_o)
        zo = sc.build_zo(system, b_o)
        sz = sc.total_sz(system)
        dec = decompose_xi_x(system, b_o)
        scale = max(np.max(np.abs(lev.energies)), 1.0)
        for blk in dec.blocks:
            m = blk.matrix
            comm_z = zo @ m - m @ zo
            assert np.max(np.abs(comm_z + blk.omega * m)) <= 1e-10 * scale * np.max(np.abs(m))
            comm_s = sz @ m - m @ sz
            assert np.max(np.abs(comm_s + blk.step * m)) <= 1e-10 * np.max(np.abs(m))

    def test_adjoint_identity_holds_for_every_block(self, rng):
        system = random_system(rng, max_spins=3)
        dec = decompose_xi_x(system, 0.9)
        for blk in dec.blocks:
            adj = eo.adjoint_block(dec, blk.step, blk.omega)
            assert np.array_equal(adj.matrix, blk.matrix.conj().T)

    def test_block_application_lands_on_shifted_sector(self, rng):
        system = random_system(rng, max_spins=3)
        b_o = 1.6
        lev = sc.level_data(system, b_o)
        dec = decompose_xi_x(system, b_o)
        tol = 1e-9 * max(np.max(np.abs(lev.energies)), 1.0)
        for blk in dec.blocks[:6]:
            for idx in range(system.dim):
                e = np.zeros(system.dim, dtype=complex)
                e[idx] = 1.0
                image = blk.matrix @ e
                support = np.nonzero(np.abs(image) > 1e-14)[0]
                for s in support:
                    assert abs(lev.energies[s] - (lev.energies[idx] - blk.omega)) <= tol
                    assert abs(lev.magnetizations[s]
                               - (lev.magnetizations[idx] - blk.step)) <= 1e-9

    def test_labels_unique(self, rng):
        system = random_system(rng)
        dec = decompose_xi_x(system, 1.2)
        labels = dec.labels()
        assert len(labels) == len(set(labels))

    def test_empty_decomposition_has_no_sum(self):
        # a spin-0 system has no transverse moment, so no blocks
        dec = decompose_xi_x(sc.SpinSystem([0.0], [1.0]), 1.0)
        assert dec.blocks == ()
        with pytest.raises(ValidationError, match="empty decomposition"):
            dec.sum()

    def test_dimension_mismatch_rejected(self):
        system = sc.SpinSystem([0.5], [1.0])
        lev = sc.level_data(system, 1.0)
        with pytest.raises(ValidationError):
            eo.decompose(np.zeros((3, 3)), lev)

    def test_close_gaps_same_step_bin_together(self):
        # two gaps closer than the tolerance collapse onto one label
        energies = np.array([0.0, 1.0, 1.0 + 1e-12, 3.0])
        mags = np.array([0.0, 1.0, 1.0, 2.0])
        lev = sc.LevelData(energies=energies, magnetizations=mags)
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = a[1, 0] = 1.0
        a[0, 2] = a[2, 0] = 1.0
        dec = eo.decompose(a, lev, gap_tol=1e-9)
        assert len([b for b in dec.blocks if b.step == 1]) == 1
        assert np.max(np.abs(dec.sum() - a)) == 0.0
