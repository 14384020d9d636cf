import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlind import spincore as sc
from spinlind.errors import ValidationError

from conftest import random_system
from oracles import (embed_single_spin, kron_embed, kron_spin_spin, kron_total_sz, kron_x,
                     kron_xi, kron_zo, occupation_couplings, per_pair_couplings, scatter_xi,
                     single_spin_matrix, standard_spin_matrix)

ORACLE_SPINS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
ORACLE_MAX_DIM = 64
# zero or of magnitude >= 1e-6, so no product underflows: halving then commutes with
# rounding, which the exact comparison of the coupling terms relies on
COEFFICIENTS = st.one_of(st.just(0.0), st.floats(1e-6, 1e4), st.floats(-1e4, -1e-6))


@st.composite
def mixed_systems(draw):
    """Spin lists from ORACLE_SPINS with D <= ORACLE_MAX_DIM, random gammas and couplings."""
    spins, dim = [], 1
    for _ in range(draw(st.integers(1, 6))):
        options = [j for j in ORACLE_SPINS if dim * int(2 * j + 1) <= ORACLE_MAX_DIM]
        if not options:
            break
        spins.append(draw(st.sampled_from(options)))
        dim *= int(2 * spins[-1] + 1)
    n = len(spins)
    gammas = draw(st.lists(COEFFICIENTS, min_size=n, max_size=n))
    upper = draw(st.lists(COEFFICIENTS, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    couplings = np.zeros((n, n))
    couplings[np.triu_indices(n, 1)] = upper
    return sc.SpinSystem(spins, gammas, couplings + couplings.T)


class TestIndexCompression:
    def test_three_qubits_101_maps_to_5(self):
        assert sc.compress((1, 0, 1), (0.5, 0.5, 0.5)) == 5

    def test_all_zero_tuple_maps_to_0(self):
        assert sc.compress((0, 0, 0, 0), (0.5, 1.0, 1.5, 0.5)) == 0

    def test_mixed_spins_enumeration_is_lexicographic(self):
        # spins {1, 1/2}: d = (3, 2), weights (2, 1); last tuple hits dim - 1
        spins = (1.0, 0.5)
        tuples = list(itertools.product(range(3), range(2)))
        indices = [sc.compress(t, spins) for t in tuples]
        assert indices == list(range(6))
        assert sc.compress((2, 1), spins) == 5
        for idx, t in zip(indices, tuples):
            assert sc.decompress(idx, spins) == t

    def test_out_of_range_occupation_raises(self):
        with pytest.raises(ValidationError):
            sc.compress((2,), (0.5,))
        with pytest.raises(ValidationError):
            sc.compress((-1, 0), (0.5, 0.5))
        with pytest.raises(ValidationError):
            sc.decompress(8, (0.5, 0.5, 0.5))

    def test_fractional_occupation_or_index_raises(self):
        # int() truncated these to 2 and (1, 0)
        with pytest.raises(ValidationError, match="whole number"):
            sc.compress((1.7, 0), (0.5, 0.5))
        with pytest.raises(ValidationError, match="whole number"):
            sc.decompress(2.9, (0.5, 0.5))
        assert sc.compress(np.array([1, 0]), (0.5, 0.5)) == 2
        assert sc.decompress(np.int64(2), (0.5, 0.5)) == (1, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                    min_size=1, max_size=5))
    def test_bijection_on_random_multisets(self, spins):
        dim = 1
        for j in spins:
            dim *= int(round(2 * j)) + 1
        if dim > 200:
            return
        seen = set()
        for t in itertools.product(*[range(int(round(2 * j)) + 1) for j in spins]):
            idx = sc.compress(t, spins)
            assert 0 <= idx < dim
            assert sc.decompress(idx, spins) == t
            seen.add(idx)
        assert len(seen) == dim


class TestSpinOperators:
    def test_single_half_spin_sz_is_diag_plus_minus_half(self):
        system = sc.SpinSystem([0.5], [1.0])
        sz = embed_single_spin(system, 0, "z")
        assert np.allclose(sz, np.diag([0.5, -0.5]))

    def test_three_qubit_total_sz_spectrum(self):
        system = sc.SpinSystem([0.5] * 3, [1.0] * 3)
        expected = [1.5, 0.5, 0.5, -0.5, 0.5, -0.5, -0.5, -1.5]
        assert np.allclose(np.diag(sc.total_sz(system)).real, expected)

    def test_raising_operator_matches_ladder_formula(self):
        # brute-force ladder table for j = 1 as the oracle
        system = sc.SpinSystem([1.0, 0.5], [1.0, 1.0])
        s_plus = embed_single_spin(system, 0, "+")
        j = 1.0
        oracle = np.zeros((3, 3))
        for n in range(1, 3):  # occupation n -> n - 1 raises m by one
            m = j - n
            oracle[n - 1, n] = np.sqrt(j * (j + 1) - m * (m + 1))
        assert np.allclose(s_plus, np.kron(oracle, np.eye(2)))
        # applying twice from the lowest state climbs two rungs
        lowest = np.zeros(6)
        lowest[sc.compress((2, 0), system.spins)] = 1.0
        twice = s_plus @ s_plus @ lowest
        top = np.zeros(6)
        top[sc.compress((0, 0), system.spins)] = 1.0
        assert np.allclose(twice, np.sqrt(2.0) * np.sqrt(2.0) * top)

    def test_xi_x_hermitian_traceless(self, rng):
        system = random_system(rng)
        xi = sc.xi_operator(system, "x")
        assert sc.is_hermitian(xi)
        assert abs(np.trace(xi)) < 1e-12 * max(np.max(np.abs(xi)), 1.0)

    def test_bad_axis(self):
        with pytest.raises(ValidationError):
            sc.xi_operator(sc.SpinSystem([0.5], [-1.0]), "q")


class TestKroneckerOracle:
    """The occupation-table operators equal the Kronecker products exactly."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_systems(), st.floats(0.1, 10.0))
    def test_operators_equal_kronecker_products(self, system, b_o):
        for axis in "xyz+-":
            assert np.array_equal(sc.xi_operator(system, axis), kron_xi(system, axis))
            # the ladder tables against each spin's whole textbook matrix scattered
            assert np.array_equal(sc.xi_operator(system, axis), scatter_xi(system, axis))
            for j in set(system.spins):
                assert np.array_equal(single_spin_matrix(j, axis),
                                      standard_spin_matrix(j, axis))
            for site in range(system.n_spins):
                assert np.array_equal(embed_single_spin(system, site, axis),
                                      kron_embed(system, site, axis))
        assert np.array_equal(sc.total_sz(system), kron_total_sz(system))
        assert np.array_equal(sc.build_zo(system, b_o), kron_zo(system, b_o))
        assert np.array_equal(sc.build_x(system), kron_x(system))
        assert np.array_equal(sc.spin_spin_hamiltonian(system), kron_spin_spin(system))
        # the one pass over all coupled pairs against the loop over them
        for zz, got in ((False, sc.build_x(system)), (True, sc.spin_spin_hamiltonian(system))):
            assert np.array_equal(got, per_pair_couplings(system, zz))
            assert np.array_equal(got, occupation_couplings(system, zz))

    @settings(max_examples=60, deadline=None)
    @given(mixed_systems(), st.floats(0.1, 10.0))
    def test_sectors_rebuild_the_levels_and_x(self, system, b_o):
        # the one table pass of the thermal ladder: the energies of level_data
        # bit for bit, the total-M sectors in increasing M, and X's entries
        # inside them, which scatter back into build_x exactly
        eps, sectors = sc.level_data(system, b_o), system._sectors
        idx = np.concatenate([sector[0] for sector in sectors])
        assert np.array_equal(np.sort(idx), np.arange(system.dim))
        mags = sc.total_sz(system).diagonal().real
        m = [np.unique(mags[sector[0]]) for sector in sectors]
        assert all(v.size == 1 for v in m) and np.all(np.diff(np.concatenate(m)) > 0)
        assert all(np.all(np.diff(sector[0]) > 0) for sector in sectors)   # a stable sort
        x = np.zeros((system.dim, system.dim), dtype=complex)
        for at, rows, cols, values in sectors:
            x[at[rows], at[cols]] = x[at[cols], at[rows]] = values
        assert np.array_equal(x, sc.build_x(system))

    @pytest.mark.parametrize("spins", [(1.0, 1.0, 0.5), (0.5,) * 6, (1.5, 1.0, 2.0),
                                       (2.5, 0.0, 0.5, 1.5)])
    def test_every_pair_coupled_matches_the_per_pair_loop(self, spins, rng):
        # every T_ij nonzero, up to 15 pairs whose Sz_i Sz_j share the diagonal
        n = len(spins)
        couplings = rng.normal(size=(n, n))
        system = sc.SpinSystem(spins, rng.normal(size=n), couplings + couplings.T
                               - 2 * np.diag(np.diag(couplings)))
        for zz, got in ((False, sc.build_x(system)), (True, sc.spin_spin_hamiltonian(system))):
            assert np.array_equal(got, per_pair_couplings(system, zz))
            assert np.array_equal(got, occupation_couplings(system, zz))

    def test_dims_weights_and_dim(self):
        system = sc.SpinSystem([1.0, 0.5, 1.5], [1.0, 1.0, 1.0])
        assert (system.dims, system.weights, system.dim) == ((3, 2, 4), (8, 4, 1), 24)


class TestStaticHamiltonians:
    def test_uncoupled_system_has_zero_flip_flop(self):
        system = sc.SpinSystem([0.5, 1.0], [2.0, 3.0])
        assert np.max(np.abs(sc.build_x(system))) == 0.0
        zo = sc.build_zo(system, 2.5)
        assert np.allclose(zo, 2.5 * sc.xi_operator(system, "z"))

    def test_zo_commutes_with_total_sz(self, rng):
        for _ in range(5):
            system = random_system(rng)
            zo = sc.build_zo(system, float(rng.uniform(0.5, 3.0)))
            sz = sc.total_sz(system)
            comm = zo @ sz - sz @ zo
            assert np.max(np.abs(comm)) <= 1e-12 * max(np.max(np.abs(zo)), 1.0)

    def test_two_spin_reconstruction_against_dot_product(self):
        t12 = 1.0
        b_o = 3.0
        couplings = np.array([[0.0, t12], [t12, 0.0]])
        system = sc.SpinSystem([0.5, 0.5], [1.2, -0.7], couplings)
        # independent 4x4 construction from full dot-product matrices
        dot = np.zeros((4, 4), dtype=complex)
        for axis in "xyz":
            dot += t12 * (embed_single_spin(system, 0, axis)
                          @ embed_single_spin(system, 1, axis))
        expected = dot + b_o * sc.xi_operator(system, "z")
        got = sc.build_zo(system, b_o) + sc.build_x(system)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_reconstruction_identity_random(self, rng):
        system = random_system(rng)
        b_o = 1.7
        lhs = sc.build_zo(system, b_o) + sc.build_x(system)
        rhs = sc.static_hamiltonian(system, b_o)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)

    def test_flip_flop_is_hermitian(self, rng):
        system = random_system(rng)
        assert sc.is_hermitian(sc.build_x(system))

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            sc.SpinSystem([2.0] * 8, [1.0] * 8)  # 5^8 > 4096

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, value):
        with pytest.raises(ValidationError, match="gammas"):
            sc.SpinSystem([0.5, 0.5], [1.0, value])
        with pytest.raises(ValidationError, match="couplings"):
            sc.SpinSystem([0.5, 0.5], [1.0, 2.0], [[0.0, value], [value, 0.0]])


class TestBoltzmann:
    def test_infinite_temperature_is_maximally_mixed(self):
        system = sc.SpinSystem([0.5, 1.0], [1.0, 2.0])
        rho = sc.boltzmann_state(sc.level_data(system, 1.0), 0.0)
        assert np.allclose(rho, np.eye(6) / 6.0)

    def test_qubit_polarization_is_tanh(self):
        gamma, b_o, beta = -2.0, 1.5, 0.3
        system = sc.SpinSystem([0.5], [gamma])
        w0 = -gamma * b_o
        rho = sc.boltzmann_state(sc.level_data(system, b_o), beta)
        sigma3 = np.diag([1.0, -1.0])
        assert np.isclose(np.trace(rho @ sigma3).real, -np.tanh(beta * w0 / 2.0))

    def test_populations_normalized_and_monotone(self, rng):
        system = random_system(rng)
        energies = sc.level_data(system, 2.0)
        rho = sc.boltzmann_state(energies, 1e-4)
        pops = np.diag(rho).real
        assert np.isclose(pops.sum(), 1.0, atol=1e-10)
        order = np.argsort(energies)
        assert np.all(np.diff(pops[order]) <= 1e-15)

    # beta times the level spread; one formula serves both signs of beta
    @pytest.mark.parametrize("spread", [-5.0, -1e-2, 1e-2, 5.0])
    def test_populations_match_the_dense_exponential(self, spread):
        system = sc.SpinSystem([0.5, 1.0, 0.5], [-2.0, 3.0, -1.2], np.diag([0.7, -0.4], 1)
                               + np.diag([0.7, -0.4], -1))
        b_o = 1.3
        energies = sc.level_data(system, b_o)
        beta = spread / np.ptp(energies)
        oracle = scipy.linalg.expm(-beta * sc.build_zo(system, b_o))
        oracle /= np.trace(oracle)
        rho = sc.boltzmann_state(energies, beta)
        assert np.max(np.abs(rho - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_extreme_beta_fills_one_level(self, sign):
        # beta times the spread 1e6: exp(-beta eps) alone would overflow either way
        energies = np.array([-1.0, 0.25, 1.0, 0.5])
        rho = sc.boltzmann_state(energies, sign * 5e5)
        want = np.zeros(4)
        want[0 if sign > 0 else 2] = 1.0
        assert np.array_equal(np.diagonal(rho).real, want)

    def test_field_past_the_float_range_refused(self):
        # b_o = 1e306 overflowed Z0's Zeeman part: a RuntimeWarning, or without the
        # warning filter "rho0 must be finite" further on
        system = sc.SpinSystem([0.5, 0.5], [-2.0e3, -3.0e3], [[0.0, 40.0], [40.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"b_o must be finite.*got b_o = 1e\+306"):
                sc.level_data(system, 1.0e306)

    @pytest.mark.parametrize("beta", [1.0e306, -1.0e306])
    def test_beta_past_the_float_range_refused(self, beta):
        # beta eps overflowed in _populations, which every thermal route reads
        system = sc.SpinSystem([0.5, 0.5], [-2.0e3, -3.0e3], [[0.0, 40.0], [40.0, 0.0]])
        energies = sc.level_data(system, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=re.escape(f"got beta = {beta}")):
                sc.boltzmann_state(energies, beta)

    def test_exponent_past_the_float_range_is_a_zero_population(self):
        # beta eps = -1e308 and 1e308 are finite; their difference -2e308 is not, and
        # exp of it is the population 0, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho = sc.boltzmann_state(np.array([-1.0, 1.0]), 1.0e308)
        assert np.array_equal(np.diagonal(rho).real, [1.0, 0.0])

    @pytest.mark.parametrize("beta", [np.inf, -np.inf, np.nan])
    def test_nonfinite_beta_rejected(self, beta):
        # spin 1 has a level at energy 0, where an infinite beta gives beta eps = NaN
        system = sc.SpinSystem([1.0], [1.0])
        with pytest.raises(ValidationError, match="beta must be finite"):
            sc.boltzmann_state(sc.level_data(system, 1.0), beta)

    def test_level_data_consistent_with_operators(self, rng):
        system = random_system(rng)
        b_o = 1.3
        eps = sc.level_data(system, b_o)
        zo = sc.build_zo(system, b_o)
        sz = sc.total_sz(system)
        for idx in range(system.dim):
            e = np.zeros(system.dim)
            e[idx] = 1.0
            assert abs((zo @ e)[idx].real - eps[idx]) <= 1e-12 * max(np.max(np.abs(eps)), 1.0)
            assert abs((sz @ e)[idx].real - system._tables[0][:, idx].sum()) <= 1e-12 * 2


class TestUnits:
    def test_beta_from_kelvin_scale(self):
        beta = sc.beta_from_kelvin(300.0)
        assert beta == pytest.approx(sc.HBAR / (sc.K_BOLTZMANN * 300.0))
        with pytest.raises(ValidationError):
            sc.beta_from_kelvin(0.0)

    @pytest.mark.parametrize("kelvin", [math.nan, math.inf, -1.0, 1e-320])
    def test_beta_from_kelvin_refuses_a_non_finite_beta(self, kelvin):
        with pytest.raises(ValidationError, match="temperature must be positive"):
            sc.beta_from_kelvin(kelvin)

    # finite j whose 2j overflows to inf, which round() cannot take
    @pytest.mark.parametrize("j", [math.nan, math.inf, -0.5, 8.98846567431158e+307,
                                   np.float64(9e307)])
    def test_non_finite_or_negative_spin_rejected(self, j):
        with pytest.raises(ValidationError, match="spin quantum number"):
            sc.SpinSystem([j], [1.0])

    def test_density_check_helpers(self):
        good = np.diag([0.25, 0.75]).astype(complex)
        sc.check_density(good, 1.0)
        with pytest.raises(ValidationError):
            sc.check_density(good, 0.0)
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            sc.check_density(bad, 1.0)


class TestRefusals:
    """Each refusal of the spin core, matched by its message."""

    def test_empty_spin_list_refused(self):
        with pytest.raises(ValidationError, match="needs at least one spin"):
            sc.SpinSystem([], [])

    @pytest.mark.parametrize("couplings", [[[0.0, 1.0]], [0.0, 1.0], np.zeros((3, 3))])
    def test_couplings_of_the_wrong_shape_refused(self, couplings):
        with pytest.raises(ValidationError, match="couplings must be 2x2, got"):
            sc.SpinSystem([0.5, 0.5], [-1.0, -2.0], couplings)

    def test_asymmetric_couplings_refused(self):
        with pytest.raises(ValidationError, match="couplings must be symmetric"):
            sc.SpinSystem([0.5, 0.5], [-1.0, -2.0], [[0.0, 1.0], [1.5, 0.0]])

    def test_nonzero_coupling_diagonal_refused(self):
        with pytest.raises(ValidationError, match="couplings must have zero diagonal"):
            sc.SpinSystem([0.5, 0.5], [-1.0, -2.0], [[0.3, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("occupations", [(0,), (0, 1, 0)])
    def test_compress_length_must_match(self, occupations):
        with pytest.raises(ValidationError, match="occupation tuple length"):
            sc.compress(occupations, [0.5, 1.0])

    def test_boltzmann_state_takes_energies_only(self):
        # the dense diagonal Z0 was once accepted; its energies are the one input form
        zo = np.diag(sc.level_data(sc.SpinSystem([0.5], [1.0]), 1.0))
        with pytest.raises(ValidationError, match="1-D energies"):
            sc.boltzmann_state(zo, 0.5)
