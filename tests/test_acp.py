
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from spinlind import acp
from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import numutil as nu
from spinlind import spincore as sc
from spinlind.errors import ValidationError

from oracles import liouvillian_matrix, van_loan_generator, whole_matrix_ladder


def two_spin_system(t12=6.0, gammas=(-2.0e2, -3.0e2)):
    couplings = np.array([[0.0, t12], [t12, 0.0]])
    return sc.SpinSystem([0.5, 0.5], gammas, couplings)


def simplex_oracle(x_mat, eps, beta, n, m):
    """Tensor-product Gauss-Legendre value of the ordered simplex integral.

    Integrates X(i u_1) ... X(i u_n) over beta >= u_1 >= ... >= u_n >= 0 via
    the prefix-product substitution u_k = beta v_1 ... v_k onto [0, 1]^n, with
    ``m`` nodes per level.  An independent route to (-1)^n Y^(n)(i beta).
    """
    dim = x_mat.shape[0]
    v, w = np.polynomial.legendre.leggauss(m)
    v = 0.5 * (v + 1.0)
    w = 0.5 * w
    gaps = eps[:, None] - eps[None, :]

    def x_at(u):
        # stacked X(i u) for a flat array of u values
        return x_mat[None, :, :] * np.exp(u[:, None, None] * gaps[None, :, :])

    chunk_limit = 1 << 17  # bound on prefix * node count per batch

    def level(prefix, depth):
        """Sum over the remaining levels for a flat array of prefix values."""
        if prefix.size * m > chunk_limit and prefix.size > 1:
            half = prefix.size // 2
            return np.concatenate([level(prefix[:half], depth),
                                   level(prefix[half:], depth)])
        u = np.repeat(prefix, m) * np.tile(v, prefix.size)
        mats = x_at(u).reshape(prefix.size, m, dim, dim)
        power = n - depth - 1  # Jacobian exponent of this level's v
        lw = w * v ** power
        if depth == n - 1:
            return np.einsum("j,pjab->pab", lw, mats)
        inner = level(u, depth + 1).reshape(prefix.size, m, dim, dim)
        return np.einsum("j,pjab,pjbc->pac", lw, mats, inner)

    if n == 0:
        return np.eye(dim, dtype=complex)
    top = level(np.array([beta]), 0)[0]
    return (beta ** n) * top


def _chain(n_spins):
    couplings = np.diag([0.9, -0.7, 0.8, 0.6][:n_spins - 1], 1)
    return sc.SpinSystem([0.5] * n_spins, -np.linspace(2.0, 3.0, n_spins),
                         couplings + couplings.T)


def _mixed():
    # spins 1/2, 1, 3/2, 1/2: the spin-j ladder elements of X
    couplings = np.array([[0.0, 0.8, 0.5, 0.24], [0.8, 0.0, 0.12, 0.0],
                          [0.5, 0.12, 0.0, 0.06], [0.24, 0.0, 0.06, 0.0]])
    return sc.SpinSystem([0.5, 1.0, 1.5, 0.5], [-2.0, -0.31, -0.19, -2.6], couplings)


def _equivalent():
    # one electron-like spin and three equivalent nuclei coupled to it alike
    couplings = np.zeros((4, 4))
    couplings[0, 1:] = couplings[1:, 0] = 0.7
    return sc.SpinSystem([0.5] * 4, [-3.0, 0.4, 0.4, 0.4], couplings)


def _with_uncoupled_spin():
    couplings = np.array([[0.0, 0.9, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return sc.SpinSystem([0.5] * 3, [-2.0, -2.5, -3.0], couplings)


# case -> (system, b_o, beta, order); the simplex quadrature sets the orders.  The
# beta * (eps_max - eps_min) >= 40 case is test_ladder_matches_simplex_oracle
LADDER_CASES = {
    "chain3": lambda: (_chain(3), 3.0, 0.4, 4),
    "chain5": lambda: (_chain(5), 3.0, 0.4, 3),
    "mixed_spins": lambda: (_mixed(), 1.0, 0.3, 3),
    "equivalent_spins": lambda: (_equivalent(), 3.0, 0.3, 4),
    "uncoupled_spin": lambda: (_with_uncoupled_spin(), 3.0, 0.4, 4),
}


def sector_ys(eps, sectors, order, beta):
    """[Y^(0), ..., Y^(order)] scattered from ``acp._sector_ladder`` on hand-made sectors."""
    dim = eps.size
    ys = [np.eye(dim)] + [np.zeros((dim, dim)) for _ in range(order)]
    for idx, blocks in acp._sector_ladder(eps, sectors, order, beta):
        z = beta * eps[idx]
        for n in range(1, order + 1):
            ys[n][np.ix_(idx, idx)] = np.exp(z - z.min())[:, None] * blocks[n]
    return ys


def system_ys(system, b_o, order, beta):
    """[Y^(0), ..., Y^(order)] of a system, scattered from its sector ladder."""
    return sector_ys(sc.level_data(system, b_o), system._sectors, order, beta)


def assert_matches_whole_ladder(system, b_o, beta, order, nodes=16):
    """The sector ladder, the moments and the corrections of every order against
    the whole-matrix ladder and the simplex quadrature, at 1e-12 of their scale."""
    eps = sc.level_data(system, b_o)
    x0 = sc.build_x(system)
    whole = whole_matrix_ladder(eps, x0, order, beta)
    p = np.diagonal(sc.boltzmann_state(eps, beta)).real
    moments = acp.moments_up_to(system, b_o, order, beta).values
    ys = system_ys(system, b_o, order, beta)
    for n in range(1, order + 1):
        y = ys[n]
        oracle = (-1.0) ** n * simplex_oracle(x0, eps, beta, n, nodes)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(y - whole[n])) <= 1e-12 * scale
        assert np.max(np.abs(y - oracle)) <= 1e-12 * scale
        terms = p * np.diagonal(whole[n])
        assert abs(moments[n - 1] - terms.sum()) <= 1e-12 * max(np.abs(terms).sum(), 1e-300)
    whole_moments = acp.AcpMoments([(p * np.diagonal(y)).sum() for y in whole[1:]])
    zetas = acp.zeta_recursive(whole_moments).zetas
    for n in range(1, order + 1):
        want = nu.hermitize(sum(zetas[k] * (p[:, None] * whole[n - k]) for k in range(n + 1)))
        got = acp.initial_correction(system, b_o, n, beta)
        assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)


def overflow_pair():
    # the ground state lies in the M = 0 sector, whose two levels are 0.1 apart
    return two_spin_system(t12=5.0, gammas=(-2.0, -3.0)), 0.1


def closed_form_second_moment(system, b_o, beta):
    """<Y^(2)>_0 of two spin-1/2: beta^2 X_ab^2 sum (p_b - p_a - p_a z) / z^2 over both
    orderings of the M = 0 pair, z = beta (eps_a - eps_b), each term at its own scale."""
    eps = sc.level_data(system, b_o)
    p = np.exp(-beta * (eps - eps.min()))
    p /= p.sum()
    x = 0.5 * system.couplings[0, 1]
    total = 0.0
    for a, b in ((1, 2), (2, 1)):
        z = beta * (eps[a] - eps[b])
        total += (p[b] - p[a] - p[a] * z) / z ** 2
    return beta ** 2 * x ** 2 * total


class TestNestedIntegrals:
    def test_uncoupled_system_has_zero_moments(self):
        system = sc.SpinSystem([0.5, 0.5], [-1.0, -2.0])
        assert acp.moments_up_to(system, 1.0, 3, 0.5).values == (0.0,) * 3

    def test_first_order_matches_elementwise_closed_form(self):
        system = two_spin_system()
        b_o, beta = 1.0, 3e-3
        y1 = system_ys(system, b_o, 1, beta)[1]
        eps = np.real(np.diag(sc.build_zo(system, b_o)))
        x0 = sc.build_x(system)
        oracle = np.zeros_like(x0)
        for a in range(4):
            for b in range(4):
                if x0[a, b] != 0:
                    gap = eps[a] - eps[b]
                    if abs(gap) < 1e-14:
                        oracle[a, b] = -x0[a, b] * beta
                    else:
                        oracle[a, b] = -x0[a, b] * (np.exp(beta * gap) - 1.0) / gap
        assert np.max(np.abs(y1 - oracle)) <= 1e-8 * max(np.max(np.abs(oracle)), 1e-300)

    def test_flip_flop_first_moment_vanishes(self):
        system = two_spin_system()
        assert abs(acp.moments_up_to(system, 1.0, 1, 2e-3).values[0]) < 1e-12

    def test_moment_homogeneity_in_coupling(self):
        base = two_spin_system(t12=2.0)
        scaled = two_spin_system(t12=6.0)  # X -> 3 X with identical Z0 Zeeman part
        b_o, beta = 200.0, 1e-3  # Zeeman dominates; the T Sz Sz shift is tiny but differs
        # compare against a system where only X is scaled: rebuild by hand
        eps = np.real(np.diag(sc.build_zo(base, b_o)))
        x0 = sc.build_x(base)

        def moment_of(c, n):
            rho0 = sc.boltzmann_state(eps, beta)
            y = (-1.0) ** n * simplex_oracle(c * x0, eps, beta, n, 32)
            return complex(np.trace(rho0 @ y))

        for n in (1, 2, 3):
            m1 = moment_of(1.0, n)
            m3 = moment_of(3.0, n)
            assert m3 == pytest.approx(3.0 ** n * m1, rel=1e-9, abs=1e-18)

    def test_imaginary_argument_moments_real(self):
        system = two_spin_system()
        for m in acp.moments_up_to(system, 1.0, 2, 4e-3).values:
            assert abs(m.imag) <= 1e-10 * max(abs(m), 1e-300)

    def test_order_cap(self):
        system = two_spin_system()
        with pytest.raises(ValidationError, match="capped at order 4"):
            acp.initial_correction(system, 1.0, 5, 1e-3)

    def test_ladder_matches_simplex_oracle(self):
        # three strongly coupled spins at beta * (eps_max - eps_min) = 45, where
        # exp(-beta Z0) spans twenty decades
        couplings = np.array([[0.0, 0.9, -0.7], [0.9, 0.0, 0.8], [-0.7, 0.8, 0.0]])
        system = sc.SpinSystem([0.5] * 3, [-2.0, -2.5, -3.0], couplings)
        b_o, beta = 3.0, 2.0
        eps = sc.level_data(system, b_o)
        assert beta * (eps.max() - eps.min()) >= 40.0
        assert_matches_whole_ladder(system, b_o, beta, 4)

    @pytest.mark.parametrize("case", sorted(LADDER_CASES))
    def test_ladder_matches_whole_matrix_and_simplex(self, case):
        # one exponential per total-M sector against one of the whole (k D)^2
        # matrix and against quadrature of the ordered simplex
        system, b_o, beta, order = LADDER_CASES[case]()
        assert_matches_whole_ladder(system, b_o, beta, order)

    def test_single_index_component_is_not_skipped(self, monkeypatch):
        # a 1 x 1 sector with a nonzero X entry takes its exponential:
        # Y^(n) there is (-beta x)^n / n!, Z0 commuting with it
        eps = np.array([0.0, 1.0, 2.5])
        x = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.3], [0.0, 0.3, 0.0]], dtype=complex)
        sectors = [(np.array([0]), np.array([0]), np.array([0]), np.array([0.5])),
                   (np.array([1, 2]), np.array([1]), np.array([0]), np.array([0.3]))]
        shapes = []
        expm = nu.expm
        monkeypatch.setattr(nu, "expm", lambda a: shapes.append(a.shape) or expm(a))
        beta = 0.7
        ys = sector_ys(eps, sectors, 3, beta)
        assert sorted(shapes) == [(1, 4 * 1, 4 * 1), (1, 4 * 2, 4 * 2)]
        whole = whole_matrix_ladder(eps, x, 3, beta)
        for n in (1, 2, 3):
            assert ys[n][0, 0] == pytest.approx((-beta * 0.5) ** n / math.factorial(n),
                                                rel=1e-14)
            assert nu.max_abs(ys[n] - whole[n]) <= 1e-14 * nu.max_abs(whole[n])

    def test_zero_x_takes_no_exponential(self, monkeypatch):
        monkeypatch.setattr(nu, "expm", lambda a: pytest.fail("expm called"))
        empty = np.array([], dtype=int)
        sectors = [(np.array([0, 2]), empty, empty, np.array([])),
                   (np.array([1]), empty, empty, np.array([]))]
        assert acp._sector_ladder(np.array([0.0, 1.0, 3.0]), sectors, 4, 2.0) == []
        system = sc.SpinSystem([0.5, 0.5], [-1.0, -2.0])
        assert acp.moments_up_to(system, 1.0, 4, 2.0).values == (0.0,) * 4
        assert not acp.initial_correction(system, 1.0, 4, 2.0).any()

    @pytest.mark.parametrize("beta", [1e4, 2e4, 5e4])
    def test_moments_stay_finite_at_large_beta_spread(self, beta):
        # beta * (the M = 0 sector's spread) = 1000 to 5000: a positive
        # exponent of that size overflows, and none is formed
        system, b_o = overflow_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            moments = acp.moments_up_to(system, b_o, 2, beta).values
            correction = acp.initial_correction(system, b_o, 2, beta)
        want = closed_form_second_moment(system, b_o, beta)
        assert moments[0] == 0.0
        assert abs(moments[1] - want) <= 1e-10 * abs(want)
        assert np.all(np.isfinite(correction))

    def test_moments_need_order_at_least_one(self):
        system = two_spin_system()
        for order in (0, -1):
            with pytest.raises(ValidationError):
                acp.moments_up_to(system, 1.0, order, 1e-3)
        with pytest.raises(ValidationError):
            acp.moments_up_to(system, 1.0, acp.MAX_ORDER + 1, 1e-3)

    @pytest.mark.parametrize("b_o", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, b_o):
        system = two_spin_system()
        calls = (lambda: acp.moments_up_to(system, b_o, 2, 1e-3),
                 lambda: acp.initial_correction(system, b_o, 0, 1e-3),
                 lambda: acp.initial_correction(system, b_o, 2, 1e-3))
        for call in calls:
            with pytest.raises(ValidationError, match="b_o"):
                call()


class TestTableStructure:
    """An ACP table (moments, then the correction) builds the spin tables and the
    sectors once per system and takes one stacked exponential per sector size per
    ladder, with no dense X."""

    @pytest.mark.parametrize("n_spins, stacks", [
        (3, [(2, 15, 15)]), (4, [(2, 20, 20), (1, 30, 30)])])
    def test_one_table_pass_and_one_exponential_per_size(self, n_spins, stacks, monkeypatch):
        system = TestExpm._random_system(n_spins)
        passes, shapes = [], []
        tabulate, sectors, expm = sc._tabulate, sc._tabulate_sectors, nu.expm
        monkeypatch.setattr(sc, "_tabulate", lambda s: passes.append("tables") or tabulate(s))
        monkeypatch.setattr(sc, "_tabulate_sectors",
                            lambda s: passes.append("sectors") or sectors(s))
        monkeypatch.setattr(nu, "expm", lambda a: shapes.append(a.shape) or expm(a))

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for module, name in ((sc, "build_x"), (sc, "spin_spin_hamiltonian"),
                             (nu, "_components"), (sc, "boltzmann_state"),
                             (acp, "boltzmann_state")):
            monkeypatch.setattr(module, name, refuse(name))
        acp.moments_up_to(system, 3.0, 4, 0.4)
        assert passes == ["tables", "sectors"] and shapes == stacks
        acp.initial_correction(system, 3.0, 4, 0.4)
        assert passes == ["tables", "sectors"] and shapes == stacks * 2


class TestZetaCoefficients:
    def test_first_coefficient_forced_by_recursion(self):
        moments = acp.AcpMoments([0.3 + 0.1j])
        zetas = acp.zeta_recursive(moments).zetas
        assert zetas[1] == pytest.approx(-(0.3 + 0.1j))

    def test_second_coefficient_hand_unrolled(self):
        y1, y2 = 0.2 - 0.5j, 1.1 + 0.3j
        zetas = acp.zeta_recursive(acp.AcpMoments([y1, y2])).zetas
        assert zetas[2] == pytest.approx(y1 * y1 - y2)
        assert acp.zeta_determinant(acp.AcpMoments([y1, y2]), 2) == pytest.approx(
            y1 * y1 - y2)

    def test_zero_moments_give_kronecker_delta(self):
        zetas = acp.zeta_recursive(acp.AcpMoments([0.0] * 5)).zetas
        assert zetas[0] == 1.0
        assert all(z == 0.0 for z in zetas[1:])

    def test_determinant_equals_recursion_random(self, rng):
        for _ in range(30):
            vals = rng.normal(size=6) + 1j * rng.normal(size=6)
            moments = acp.AcpMoments(vals)
            zetas = acp.zeta_recursive(moments).zetas
            for n in range(1, 7):
                det = acp.zeta_determinant(moments, n)
                assert abs(det - zetas[n]) < 1e-10 * max(1.0, abs(zetas[n]))

    def test_geometric_moments_collapse(self):
        q = 0.37
        moments = acp.AcpMoments([q, q ** 2, q ** 3])
        zetas = acp.zeta_recursive(moments).zetas
        # 1 / sum_k q^k l^k = 1 - q l: all higher coefficients vanish
        assert zetas[1] == pytest.approx(-q)
        assert abs(zetas[2]) < 1e-15
        assert abs(zetas[3]) < 1e-15
        assert acp.zeta_determinant(moments, 3) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)])
    def test_non_finite_moments_refused(self, bad):
        with pytest.raises(ValidationError, match="moments must be finite"):
            acp.AcpMoments([bad, 1.0])
        with pytest.raises(ValidationError, match="moments must be finite"):
            acp.AcpMoments([0.5, bad])

    def test_determinant_validation(self):
        moments = acp.AcpMoments([1.0])
        with pytest.raises(ValidationError):
            acp.zeta_determinant(moments, 2)
        with pytest.raises(ValidationError):
            acp.zeta_determinant(moments, 0)


class TestInitialCorrections:
    def test_order_zero_is_boltzmann(self):
        system = two_spin_system()
        b_o, beta = 1.0, 2e-3
        rho = acp.initial_correction(system, b_o, 0, beta)
        eps = np.real(np.diag(sc.build_zo(system, b_o)))
        assert np.allclose(rho, sc.boltzmann_state(eps, beta))

    @pytest.mark.parametrize("beta", [-2e-3, 2e-3])
    def test_ladder_populations_are_the_boltzmann_state(self, beta):
        # one Boltzmann formula: the ladder's weights are boltzmann_state's diagonal
        system, b_o = _chain(3), 1.0
        eps = sc.level_data(system, b_o)
        p = acp._thermal_blocks(system, b_o, 2, beta)[0]
        assert np.array_equal(p, np.diagonal(sc.boltzmann_state(eps, beta)).real)

    def test_higher_orders_traceless_hermitian(self):
        system = two_spin_system()
        report = []
        for n in (1, 2):
            rho_n = acp.initial_correction(system, 1.0, n, 2e-3,
                                           herm_report=report)
            assert abs(np.trace(rho_n)) < 1e-9
            assert np.max(np.abs(rho_n - rho_n.conj().T)) == 0.0  # hermitized output
        assert all(r < 1e-8 for r in report)

    def test_truncated_sum_approaches_gibbs_cubically(self):
        # scaling study: residual of the order-2 truncation falls as the cube
        # of the coupling scale; keep beta * energies moderate so the
        # imaginary-time quadrature stays in a healthy regime
        b_o, beta = 3.0, 0.4
        scales = np.array([0.5, 0.25, 0.125, 0.0625])
        residuals = []
        for c in scales:
            system = two_spin_system(t12=0.8 * c, gammas=(-2.0, -3.0))
            pieces = [acp.initial_correction(system, b_o, n, beta) for n in (0, 1, 2)]
            total = sum(pieces)
            h_full = sc.static_hamiltonian(system, b_o)
            gibbs = scipy.linalg.expm(-beta * h_full)
            gibbs = gibbs / np.trace(gibbs)
            residuals.append(np.max(np.abs(total - gibbs)))
        slopes = np.diff(np.log(residuals)) / np.diff(np.log(scales))
        assert np.all(np.abs(slopes - 3.0) < 0.1)


class TestOrderNPropagation:
    @pytest.fixture
    def model(self):
        system = two_spin_system()
        dist = ls.lorentzian(2.2e2, 40.0)
        field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=dist)
        return me.build_model(system, field, 2e-3)

    def test_zero_inhomogeneity_zero_start_stays_zero(self, model):
        zero = np.zeros((4, 4), dtype=complex)
        traj = acp.propagate_order_n(model, 1, lambda t: zero, 0.02, dt=2e-5,
                                     rho_n0=zero)
        assert np.max(np.abs(traj.final)) == 0.0

    def test_zero_inhomogeneity_matches_order_zero_dynamics(self, model):
        zero = np.zeros((4, 4), dtype=complex)
        rho1 = acp.initial_correction(model.system, model.field.b_o, 1, model.beta)
        traj_n = acp.propagate_order_n(model, 1, lambda t: zero, 0.01, dt=1e-5,
                                       rho_n0=rho1)
        traj_0 = me.propagate(model, rho1, 0.01, dt=1e-5, unsafe=True)
        # one shared stepper: adding a zero inhomogeneity changes no bit
        assert np.array_equal(traj_n.times, traj_0.times)
        assert np.array_equal(traj_n.states, traj_0.states)

    def test_trace_stays_zero(self, model):
        rho1 = acp.initial_correction(model.system, model.field.b_o, 1, model.beta)
        g = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex) * 1e-3
        traj = acp.propagate_order_n(model, 1, lambda t: g, 0.02, dt=2e-5,
                                     rho_n0=rho1)
        for state in traj.states:
            assert abs(np.trace(state)) < 1e-10

    def test_constant_inhomogeneity_duhamel_oracle(self, model):
        # undriven model variant: A(t) = 0, so rho(t) = int_0^t e^{L s} G ds
        quiet = me.FieldConfig(b_o=model.field.b_o, b_1=0.0, dist=model.field.dist)
        model0 = me.build_model(model.system, quiet, model.beta)
        g = np.zeros((4, 4), dtype=complex)
        g[0, 0], g[1, 1] = 1e-2, -1e-2
        g[2, 3] = g[3, 2] = 2e-3
        zero = np.zeros_like(g)
        t_end = 0.05
        traj = acp.propagate_order_n(model0, 1, lambda t: g, t_end, dt=2e-5,
                                     rho_n0=zero)
        lmat = liouvillian_matrix(model0)
        aug = np.zeros((17, 17), dtype=complex)
        aug[:16, :16] = lmat
        aug[:16, 16] = nu.vec(g)
        prop = scipy.linalg.expm(aug * t_end)
        oracle = nu.unvec(prop[:16, 16], 4)
        assert np.max(np.abs(traj.final - oracle)) < 1e-9

    def test_traceful_inhomogeneity_rejected(self, model):
        bad = np.eye(4, dtype=complex)
        with pytest.raises(ValidationError):
            acp.propagate_order_n(model, 1, lambda t: bad, 0.01, dt=1e-3,
                                  rho_n0=np.zeros((4, 4), dtype=complex))

    @pytest.mark.parametrize("probe", ["nan", "shape"])
    def test_bad_start_rejected(self, model, probe):
        zero = np.zeros((4, 4), dtype=complex)
        if probe == "nan":
            bad = zero.copy()
            bad[0, 1] = bad[1, 0] = np.nan
        else:
            bad = np.zeros((3, 3), dtype=complex)
        with pytest.raises(ValidationError, match="rho0 must"):
            acp.propagate_order_n(model, 1, lambda t: zero, 0.01, dt=1e-3, rho_n0=bad)

    def test_non_finite_inhomogeneity_rejected(self, model):
        # an inf off the diagonal is traceless, and 0 <= 1e-9 * inf passes a trace test alone
        inf_off_diagonal = np.zeros((4, 4), dtype=complex)
        inf_off_diagonal[0, 1] = np.inf
        for bad in (np.full((4, 4), np.nan, dtype=complex), inf_off_diagonal):
            with pytest.raises(ValidationError, match="finite and traceless"):
                acp.propagate_order_n(model, 1, lambda t: bad, 0.01, dt=1e-3,
                                      rho_n0=np.zeros((4, 4), dtype=complex))

    def test_store_every_not_a_whole_number_refused(self, model):
        zero = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValidationError, match="store_every"):
            acp.propagate_order_n(model, 1, lambda t: zero, 0.01, dt=1e-3,
                                  store_every=2.5, rho_n0=zero)

    def test_traceful_initial_correction_refused(self, model):
        zero = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValidationError, match="initial corrections must be traceless"):
            acp.propagate_order_n(model, 1, lambda t: zero, 0.01, dt=1e-3,
                                  rho_n0=np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4)])
    def test_misshapen_inhomogeneity_refused(self, model, shape):
        with pytest.raises(ValidationError, match="callback returned a wrong shape"):
            acp.propagate_order_n(model, 1, lambda t: np.zeros(shape, dtype=complex), 0.01,
                                  dt=1e-3, rho_n0=np.zeros((4, 4), dtype=complex))

    def test_order_zero_redirected(self, model):
        with pytest.raises(ValidationError):
            acp.propagate_order_n(model, 0, lambda t: None, 0.01)

    def test_dimension_above_the_map_cap_refused_first(self, monkeypatch):
        system = sc.SpinSystem([0.5] * 7, [-2.0 - 0.1 * k for k in range(7)])
        field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=ls.lorentzian(2.2, 0.4))
        model = me.build_model(system, field, 2e-3)
        assert model.dim == 128 > me.MAP_DIM_CAP

        def untouched(*args, **kwargs):
            raise AssertionError("work done before the dimension check")
        monkeypatch.setattr(acp, "initial_correction", untouched)
        with pytest.raises(ValidationError, match="MAP_DIM_CAP = 64"):
            acp.propagate_order_n(model, 1, untouched, 0.01)


def _order_routes():
    system = two_spin_system()
    field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=ls.lorentzian(2.2e2, 40.0))
    model = me.build_model(system, field, 2e-3)
    zero = np.zeros((4, 4), dtype=complex)
    return {
        "moments_up_to": lambda n: acp.moments_up_to(system, 1.0, n, 1e-3).values,
        "initial_correction": lambda n: acp.initial_correction(system, 1.0, n, 2e-3),
        "zeta_determinant": lambda n: acp.zeta_determinant(acp.AcpMoments([0.3, 0.1]), n),
        "propagate_order_n": lambda n: acp.propagate_order_n(
            model, n, lambda t: zero, 0.01, dt=1e-3, rho_n0=zero).states,
    }


ORDER_ROUTES = sorted(_order_routes())


@pytest.mark.parametrize("order", [2.5, 1.0, "1", None])
@pytest.mark.parametrize("route", ORDER_ROUTES)
def test_order_must_be_a_whole_number(route, order):
    with pytest.raises(ValidationError, match="order must be a whole number"):
        _order_routes()[route](order)


@pytest.mark.parametrize("route", ORDER_ROUTES)
def test_numpy_integer_order_accepted(route):
    call = _order_routes()[route]
    assert np.array_equal(call(np.int64(1)), call(1))


class TestExpm:
    """numutil.expm against scipy.linalg.expm as the oracle."""

    @staticmethod
    def _random_system(n_spins):
        rng = np.random.default_rng(n_spins)
        couplings = rng.normal(scale=0.8, size=(n_spins, n_spins))
        couplings = couplings + couplings.T
        np.fill_diagonal(couplings, 0.0)
        return sc.SpinSystem([0.5] * n_spins, -rng.uniform(2.0, 3.0, n_spins), couplings)

    @pytest.mark.parametrize("n_spins", [2, 3, 4])
    def test_van_loan_blocks(self, n_spins, monkeypatch):
        # every order-4 block an ACP table exponentiates at D = 4, 8, 16: one
        # per total-M sector, stacked by size, the fully polarised ones (X = 0
        # there) taking none
        system = self._random_system(n_spins)
        stacks = []
        expm = nu.expm

        def spy(a):
            stacks.append(a)
            return expm(a)

        monkeypatch.setattr(nu, "expm", spy)
        acp.moments_up_to(system, 3.0, 4, 0.4)
        sectors = [math.comb(n_spins, k) for k in range(1, n_spins)]
        assert sorted(b.shape[-1] for a in stacks for b in a) == sorted(5 * m for m in sectors)
        assert len(stacks) == len(set(sectors))
        for stack in stacks:
            assert stack.ndim == 3 and stack.shape[1] == stack.shape[2]
            got = expm(stack)
            for block, result in zip(stack, got):
                want = scipy.linalg.expm(block)
                assert nu.max_abs(result - want) <= 1e-13 * nu.max_abs(want)

    @pytest.mark.parametrize("n_spins", [2, 3, 4])
    def test_whole_van_loan_matrix(self, n_spins):
        # the order-4 block-bidiagonal matrix over all of D = 4, 8, 16 (5 D wide)
        system = self._random_system(n_spins)
        eps = np.real(np.diag(sc.build_zo(system, 3.0)))
        block = van_loan_generator(eps, sc.build_x(system), 4, 0.4)
        assert block.shape == (5 * 2 ** n_spins,) * 2
        want = scipy.linalg.expm(block)
        assert nu.max_abs(nu.expm(block) - want) <= 1e-13 * nu.max_abs(want)

    @pytest.mark.parametrize("norm, order, squarings", [
        (1e-3, 3, 0), (0.1, 5, 0), (0.5, 7, 0), (1.5, 9, 0), (4.0, 13, 0),
        (30.0, 13, 3), (1e3, 13, 8)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_matrices_every_branch(self, norm, order, squarings, dtype, monkeypatch):
        rng = np.random.default_rng(int(norm * 1000))
        a = rng.normal(size=(6, 6)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(6, 6))
        a *= norm / np.linalg.norm(a, 1)
        calls = []
        pade = nu._pade

        def spy(b, m):
            calls.append((m, max(np.linalg.norm(matrix, 1) for matrix in b.reshape(-1, 6, 6))))
            return pade(b, m)

        monkeypatch.setattr(nu, "_pade", spy)
        got = nu.expm(a)
        # one approximant of a / 2^s, squared s times back up to e^a
        ((m, scaled),) = calls
        assert m == order and scaled * 2 ** squarings == pytest.approx(norm, rel=1e-14)
        want = scipy.linalg.expm(a)
        assert got.dtype == want.dtype
        assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)
        # a stack under a's norm takes a's branch, each matrix exponentiated on its own
        stack = np.stack([a, 0.5 * a[::-1], 0.01 * a @ a / norm])
        calls.clear()
        got = nu.expm(stack)
        ((m, scaled),) = calls
        assert m == order and scaled * 2 ** squarings == pytest.approx(norm, rel=1e-14)
        assert got.shape == stack.shape and got.dtype == want.dtype
        for matrix, result in zip(stack, got):
            want = scipy.linalg.expm(matrix)
            assert nu.max_abs(result - want) <= 1e-12 * nu.max_abs(want)

    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 30.0, 1e3])
    def test_single_matrix_unchanged_bit_for_bit(self, norm):
        # a 2-D input: the order and scaling of numpy's 1-norm, the approximant
        # squared back up, bit for bit
        rng = np.random.default_rng(int(norm * 1000))
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a *= norm / np.linalg.norm(a, 1)
        one_norm = np.linalg.norm(a, 1)
        m = next((m for m in (3, 5, 7, 9) if one_norm <= nu._PADE_THETA[m]), 13)
        s = max(0, math.ceil(math.log2(one_norm / nu._PADE_THETA[13]))) if m == 13 else 0
        want = nu._pade(a / 2.0 ** s, m)
        for _ in range(s):
            want = want @ want
        assert np.array_equal(nu.expm(a), want)


class TestRefusals:
    """Each refusal of the thermal routes, matched by its message."""

    @pytest.mark.parametrize("zetas", [[], [0.5, 0.1], [1.0 + 1e-9j]])
    def test_first_zeta_must_be_one(self, zetas):
        with pytest.raises(ValidationError, match="zeta_0 must be 1"):
            acp.ZetaCoefficients(zetas)

    @pytest.mark.parametrize("order", [0, 2])
    def test_beta_past_the_float_range_refused(self, order):
        # the order-0 state and the sector tables both read spincore._populations
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"beta must be finite.*got beta = 1e\+306"):
                acp.initial_correction(two_spin_system(), 1.0, order, 1.0e306)

    @pytest.mark.parametrize("route", ["initial_correction"])
    def test_negative_order_refused(self, route):
        with pytest.raises(ValidationError, match="order must be nonnegative"):
            _order_routes()[route](-1)
