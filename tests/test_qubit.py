import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import qubit as qb
from spinlind.errors import ValidationError

from conftest import resonant_qubit_setup
from oracles import heisenberg_operator, simpson_doubling



@pytest.fixture
def params(resonant_qubit):
    system, field, beta = resonant_qubit
    return qb.QubitParams.from_field(system.gammas[0], field.b_o, field.b_1,
                                     beta, field.dist)


def simpson_sigma_plus(params, t, rtol=1e-13):
    """Oracle: <sigma_+(t)> by Simpson doubling of the damped convolution."""
    if t == 0:
        return 0.0 + 0.0j
    kappa = params.rate + 1j * (params.varpi - params.omega_o)

    def integrand(tp):
        return np.exp(-kappa * (t - tp)) * np.real(ls.characteristic(params.dist, tp))

    val = simpson_doubling(integrand, 0.0, t, rtol=rtol, atol=1e-300)
    return 1j * params.omega_1 * params.thermal_polarization * val


def qubit_cfg_params(dist):
    """The driven spin-1/2 of configs/qubit.cfg with another drive line shape."""
    system, field, beta = resonant_qubit_setup()
    return qb.QubitParams.from_field(system.gammas[0], field.b_o, field.b_1,
                                     beta, dist)


def slow_envelope_params():
    """Drive density centered at zero with a long memory: the coherence
    follows the quasi-static solution after the initial transient."""
    w0 = 5.0
    dist = ls.lorentzian(0.0, 0.02)            # tau_f = 100
    target_rate = 0.8
    dens = 2.0 * float(ls.density(dist, w0))
    w1 = 2.0 * math.sqrt(target_rate / (2.0 * math.pi * dens))
    beta = 1.0 / w0
    return qb.QubitParams(omega_o=w0, omega_1=w1, beta=beta, dist=dist)


class TestTrajectory:
    def test_initial_point_is_thermal(self, params):
        s1, s2, s3 = qb.trajectory(params, 0.0)
        assert s1 == 0.0 and s2 == 0.0
        assert s3 == pytest.approx(-math.tanh(params.beta * params.omega_o / 2.0))

    def test_long_time_limit_is_center(self, params):
        # wait out both the polarization decay and the drive envelope
        s1, s2, s3 = qb.trajectory(params, 30.0 / params.rate)
        assert abs(s3) < 1e-10
        assert abs(s1) < 1e-3 and abs(s2) < 1e-3

    def test_undriven_polarization_frozen(self):
        dist = ls.lorentzian(10.0, 1.0)
        p = qb.QubitParams(omega_o=10.0, omega_1=0.0, beta=0.2, dist=dist)
        assert p.rate == 0.0
        for t in (0.0, 1.0, 7.0):
            s1, s2, s3 = qb.trajectory(p, t)
            assert (s1, s2) == (0.0, 0.0)
            assert s3 == pytest.approx(-math.tanh(0.2 * 10.0 / 2.0))

    def test_bloch_norm_bounded_by_thermal_start(self, params):
        # the norm is not monotone (the drive rebuilds transverse polarization
        # after the longitudinal part has decayed) but it never exceeds the
        # initial thermal value and dies out in the end
        ts = np.linspace(0.0, 6.0 / params.rate, 31)
        norms = [np.linalg.norm(qb.trajectory(params, float(t))) for t in ts]
        assert max(norms) <= norms[0] + 1e-9
        late = np.linalg.norm(qb.trajectory(params, 15.0 / params.rate))
        assert late < 0.1 * norms[0]

    def test_matches_master_equation(self, resonant_qubit, params):
        system, field, beta = resonant_qubit
        model = me.build_model(system, field, beta)
        t_end = 2.0 / params.rate
        traj = me.propagate(model, model.boltzmann, t_end,
                            dt=me.default_dt(model) / 2)
        states = traj.schrodinger_states()
        for i in (len(traj.times) // 3, -1):
            t = float(traj.times[i])
            rho = states[i]
            num = [float(np.real(np.trace(rho @ qb.SIGMA[k]))) for k in (1, 2, 3)]
            ana = qb.trajectory(params, t)
            assert max(abs(a - b) for a, b in zip(num, ana)) < 1e-7

    def test_gaussian_drive_matches_master_equation(self, resonant_qubit):
        system, field, beta = resonant_qubit
        w0 = field.dist.center
        field = me.FieldConfig(b_o=field.b_o, b_1=field.b_1,
                               dist=ls.gaussian(w0 + 5.0, 3.0 * field.dist.width))
        model = me.build_model(system, field, beta)
        params = qb.QubitParams.from_field(system.gammas[0], field.b_o, field.b_1,
                                           beta, field.dist)
        t_end = 2.0 / params.rate
        traj = me.propagate(model, model.boltzmann, t_end,
                            dt=me.default_dt(model) / 2)
        states = traj.schrodinger_states()
        for i in (len(traj.times) // 5, len(traj.times) // 2, -1):
            t = float(traj.times[i])
            num = [float(np.real(np.trace(states[i] @ qb.SIGMA[k]))) for k in (1, 2, 3)]
            ana = qb.trajectory(params, t)
            assert max(abs(a - b) for a, b in zip(num, ana)) < 1e-7


class TestParams:
    @pytest.mark.parametrize("field, bad", [("omega_o", math.nan), ("omega_o", math.inf),
                                            ("omega_o", -math.inf), ("omega_1", math.nan),
                                            ("omega_1", math.inf), ("beta", math.nan)])
    def test_non_finite_input_rejected(self, field, bad):
        values = dict(omega_o=5.0, omega_1=0.1, beta=0.2, dist=ls.lorentzian(5.0, 0.5))
        values[field] = bad
        with pytest.raises(ValidationError, match=field):
            qb.QubitParams(**values)


    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_degenerate_pair_at_zero_temperature(self, kind):
        # tanh(0 * inf) is NaN; a degenerate pair's Gibbs state is maximally mixed at any beta
        p = qb.QubitParams(omega_o=0.0, omega_1=0.1, beta=math.inf, dist=kind(0.0, 0.5))
        assert p.thermal_polarization == 0.0
        for t in (0.0, 0.7, 30.0):
            assert qb.trajectory(p, t) == (0.0, 0.0, 0.0)
        assert np.array_equal(qb.trajectory(p, np.array([0.0, 0.7])), np.zeros((3, 2)))
        # exp(-inf * 0) is NaN too; the pair's Boltzmann factor is 1
        assert qb.fdt_check(p) == {"adiabatic_detailed_balance": 0.0, "fdt": 0.0}


class TestTimeArrays:
    def test_array_matches_scalar_calls(self, params):
        times = np.linspace(0.0, 4.0 / params.rate, 9)
        s1, s2, s3 = qb.trajectory(params, times)
        for n, t in enumerate(times.tolist()):
            one = qb.trajectory(params, t)
            assert all(type(v) is float for v in one)
            assert (s1[n], s2[n], s3[n]) == pytest.approx(one, rel=1e-15, abs=1e-300)
        sp = qb.sigma_plus_expectation(params, times)
        assert sp.shape == times.shape
        assert type(qb.sigma_plus_expectation(params, float(times[3]))) is complex
        assert sp[3] == qb.sigma_plus_expectation(params, float(times[3]))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_bad_times_rejected(self, params, bad, as_array):
        t = np.array([0.0, 0.1, bad]) if as_array else bad
        for fn in (qb.trajectory, qb.sigma_plus_expectation):
            with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
                fn(params, t)


class TestClosedForm:
    W0 = 1760.0
    T_END = 0.284090909090909

    @pytest.mark.parametrize("kind, center_shift, width", [
        ("lorentzian", 0.0, 14.08),
        ("gaussian", 0.0, 14.08),
        ("gaussian", 0.0, 200.0),
        ("gaussian", 0.0, 3000.0),
        ("gaussian", 25.0, 200.0),
        ("lorentzian", 25.0, 80.0),
    ])
    def test_matches_simpson_oracle(self, kind, center_shift, width):
        params = qubit_cfg_params(
            ls.FrequencyDistribution(kind, self.W0 + center_shift, width))
        times = np.concatenate([[1e-5, 3e-4, 2e-3], np.linspace(0.0, self.T_END, 7)[1:]])
        got = np.array([qb.sigma_plus_expectation(params, float(t)) for t in times])
        want = np.array([simpson_sigma_plus(params, float(t)) for t in times])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_gaussian_cases_reach_both_upper_end_branches(self):
        # lower end t' = 0 always lies below Re z = 0 (Gamma > 0); the upper
        # end t crosses it at t = Gamma / s^2, which the oracle cases straddle
        below = above = False
        for width in (14.08, 200.0, 3000.0):
            params = qubit_cfg_params(ls.gaussian(self.W0, width))
            s = width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            crossing = params.rate / s ** 2
            below |= crossing > 1e-5
            above |= crossing < self.T_END
        assert below and above

    @pytest.mark.parametrize("dist", [ls.lorentzian(5.0, 0.02), ls.gaussian(5.0, 0.0094)])
    def test_long_time_stays_finite(self, dist):
        # Gamma t = 800: exp(Gamma t) alone would overflow the bare integral
        w0, rate = 5.0, 0.8
        dens = float(ls.density(dist, w0) + ls.density(dist, -w0))
        w1 = 2.0 * math.sqrt(rate / (2.0 * math.pi * dens))
        p = qb.QubitParams(omega_o=w0, omega_1=w1, beta=1.0 / w0, dist=dist)
        t = 800.0 / p.rate
        sp = qb.sigma_plus_expectation(p, t)
        want = simpson_sigma_plus(p, t, rtol=1e-10)
        assert np.isfinite(sp.real) and np.isfinite(sp.imag)
        assert abs(want) > 1e-6
        assert abs(sp - want) < 1e-8 * abs(want)


class TestStationary:
    def test_rate_required(self):
        p = qb.QubitParams(omega_o=1.0, omega_1=0.0, beta=0.1,
                           dist=ls.lorentzian(1.0, 0.5))
        with pytest.raises(ValidationError):
            qb.stationary_sigma_plus(p, 1.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_times_rejected(self, params, bad):
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            qb.stationary_sigma_plus(params, bad)

    def test_infinite_temperature_coherence_vanishes(self):
        p = qb.QubitParams(omega_o=5.0, omega_1=1.0, beta=0.0,
                           dist=ls.lorentzian(5.0, 0.5))
        assert qb.stationary_sigma_plus(p, 0.3) == 0.0

    def test_envelope_decay_kills_stationary_value(self):
        p = slow_envelope_params()
        tau = ls.relaxation_time(p.dist)
        assert abs(qb.stationary_sigma_plus(p, 30.0 * tau)) < 1e-10

    def test_trajectory_approaches_stationary(self):
        p = slow_envelope_params()
        t = 10.0 / p.rate
        sp = qb.sigma_plus_expectation(p, t)
        st = qb.stationary_sigma_plus(p, t)
        assert abs(st) > 1e-2  # non-vacuous comparison
        assert abs(sp - st) < 1e-4


class TestGaussianFarOut:
    """qubit.cfg's spin under a Gaussian line past s t = 1.3e154, where (s t)^2 overflowed."""

    @pytest.mark.parametrize("t", [1e200, 1e300])
    def test_closed_forms_settle_with_no_overflow(self, t):
        p = qubit_cfg_params(ls.gaussian(1760.0, 14.080000000000002))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bloch = qb.trajectory(p, t)
            stationary = qb.stationary_sigma_plus(p, t)
            coeffs = qb.heisenberg_coefficients(p, t, qb.SIGMA[1])
        assert bloch == (0.0, 0.0, 0.0) and stationary == 0.0
        # Tr[rho0 X(t)] = <sigma_1(t)> = 0 for the settled state
        rho0 = 0.5 * (qb.SIGMA[0] - p.thermal_polarization * qb.SIGMA[3])
        x_t = sum(c * qb.SIGMA[i] for i, c in enumerate(coeffs))
        assert abs(np.trace(rho0 @ x_t)) <= 1e-12


class TestPhasesPastTheFloatRange:
    """qubit.cfg's spin past t = 1e306, where w0 t overflowed to NaN with a RuntimeWarning."""

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    @pytest.mark.parametrize("t", [1e306, 1.7e308])
    def test_closed_forms_take_their_settled_values(self, kind, t):
        p = qubit_cfg_params(kind(1760.0, 14.080000000000002))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qb.trajectory(p, t) == qb.trajectory(p, 1e300) == (0.0, 0.0, 0.0)
            assert qb.stationary_sigma_plus(p, t) == 0.0
            both = np.array(qb.trajectory(p, np.array([0.01, t])))
        assert np.array_equal(both, np.array(qb.trajectory(p, np.array([0.01, 1e300]))))


class TestHeisenbergCoefficients:
    def test_sigma3_at_time_zero(self, params):
        c = qb.heisenberg_coefficients(params, 0.0, qb.SIGMA[3])
        assert np.allclose(c, [0.0, 0.0, 0.0, 1.0])

    def test_identity_duality(self, params):
        rho0 = 0.5 * (qb.SIGMA[0] - params.thermal_polarization * qb.SIGMA[3])
        for t in (0.1 / params.rate, 0.8 / params.rate):
            x_t = heisenberg_operator(params, t, qb.SIGMA[0])
            lhs = np.trace(rho0 @ x_t)
            assert lhs.real == pytest.approx(1.0, abs=1e-9)
            assert abs(lhs.imag) < 1e-10

    def test_duality_against_direct_propagation(self, resonant_qubit, params, rng):
        system, field, beta = resonant_qubit
        model = me.build_model(system, field, beta)
        t_end = 0.7 / params.rate
        traj = me.propagate(model, model.boltzmann, t_end,
                            dt=me.default_dt(model) / 2)
        rho_t = traj.schrodinger_states()[-1]
        t = float(traj.times[-1])
        rho0 = model.boltzmann
        ops = [qb.SIGMA[0], qb.SIGMA[3],
               np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)]
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ops.append(a + a.conj().T)
        for x_op in ops:
            x_t = heisenberg_operator(params, t, x_op)
            lhs = complex(np.trace(rho_t @ x_op))
            rhs = complex(np.trace(rho0 @ x_t))
            assert abs(lhs - rhs) < 1e-8

    def test_zero_temperature_singular(self):
        p = qb.QubitParams(omega_o=5.0, omega_1=0.1, beta=math.inf,
                           dist=ls.lorentzian(5.0, 0.5))
        with pytest.raises(ValidationError):
            qb.heisenberg_coefficients(p, 0.1, qb.SIGMA[3])

    @pytest.mark.parametrize("bad", ["nan", "inf", (1, 1), (3, 3), (4,)])
    def test_operator_must_be_finite_two_by_two(self, params, bad):
        # the coefficients are traces of X against the Pauli matrices
        if isinstance(bad, str):
            x_op = qb.SIGMA[1].copy()
            x_op[0, 1] = float(bad)
        else:
            x_op = np.ones(bad, dtype=complex)
        with pytest.raises(ValidationError, match=r"X must be a finite \(2, 2\) matrix"):
            qb.heisenberg_coefficients(params, 0.1 / params.rate, x_op)


class TestStructureFactor:
    def test_peak_location_and_hwhm(self, params):
        w0, g2 = params.omega_o, 2.0 * params.rate
        peak = qb.structure_factor(params, "-+", w0).smooth
        up = qb.structure_factor(params, "-+", w0 + g2).smooth
        down = qb.structure_factor(params, "-+", w0 - g2).smooth
        assert up == pytest.approx(peak / 2.0, rel=1e-12)
        assert down == pytest.approx(peak / 2.0, rel=1e-12)
        # measured half-width from the implemented function
        half = scipy.optimize.brentq(
            lambda d: qb.structure_factor(params, "-+", w0 + d).smooth - peak / 2.0,
            0.1 * g2, 10.0 * g2, xtol=1e-13 * g2)
        assert half == pytest.approx(g2, rel=1e-10)

    def test_difference_relation(self, params):
        th = params.thermal_polarization
        g2 = 2.0 * params.rate
        for wp in (params.omega_o - 3.0, params.omega_o, params.omega_o + 11.0):
            s_mp = qb.structure_factor(params, "-+", wp)
            s_pm = qb.structure_factor(params, "+-", -wp)
            smooth_diff = s_mp.smooth - s_pm.smooth
            expected = th / math.pi * g2 / (g2 ** 2 + (wp - params.omega_o) ** 2)
            assert smooth_diff == pytest.approx(expected, rel=1e-12)
            # the delta pieces cancel: equal weights, and the spike of the
            # mirrored spectrum sits at the mirrored location
            assert s_mp.delta_weight == s_pm.delta_weight
            assert s_mp.delta_location == params.omega_o
            assert s_pm.delta_location == -params.omega_o

    def test_infinite_temperature_smooth_part_vanishes(self):
        dist = ls.lorentzian(4.0, 1.0)
        p = qb.QubitParams(omega_o=4.0, omega_1=0.4, beta=0.0, dist=dist)
        assert qb.structure_factor(p, "-+", 4.5).smooth == 0.0
        assert qb.structure_factor(p, "+-", -4.5).smooth == 0.0

    def test_unknown_label(self, params):
        with pytest.raises(ValidationError):
            qb.structure_factor(params, "++", 0.0)

    @pytest.mark.parametrize("which", ["-+", "+-"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, params, which, bad):
        with pytest.raises(ValidationError, match="omega_prime must be finite"):
            qb.structure_factor(params, which, bad)

    @pytest.mark.parametrize("which", ["-+", "+-"])
    def test_smooth_part_needs_a_rate(self, which):
        # an undriven spin (omega_1 = 0) has Gamma = 0
        p = qb.QubitParams(omega_o=4.0, omega_1=0.0, beta=0.1, dist=ls.lorentzian(4.0, 1.0))
        assert p.rate == 0.0
        with pytest.raises(ValidationError, match="the smooth part needs a finite rate"):
            qb.structure_factor(p, which, 4.0)

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_labels_mirror_each_other(self, kind):
        # S_+-(w') is S_-+ mirrored: location -w0, smooth part negated at -w'
        p = qb.QubitParams(omega_o=4.0, omega_1=0.3, beta=0.7, dist=kind(3.7, 1.3))
        for wp in (-5.0, -4.0, 0.0, 2.5, 4.0):
            s_mp, s_pm = qb.structure_factor(p, "-+", wp), qb.structure_factor(p, "+-", -wp)
            assert (s_pm.delta_weight, s_pm.delta_location, s_pm.smooth) == (
                s_mp.delta_weight, -s_mp.delta_location, -s_mp.smooth)


class TestFdt:
    def test_detailed_balance_weight_ratio(self):
        dist = ls.lorentzian(3.0, 0.5)
        p = qb.QubitParams(omega_o=3.0, omega_1=0.2, beta=1.0 / 3.0, dist=dist)
        th = p.thermal_polarization
        w_mp = 0.5 * (1.0 + th)
        w_pm = 0.5 * (1.0 - th)
        assert w_pm / w_mp == pytest.approx(math.exp(-p.beta * p.omega_o), rel=1e-14)
        res = qb.fdt_check(p)
        assert res["adiabatic_detailed_balance"] < 1e-14
        assert res["fdt"] < 1e-14

    def test_infinite_temperature_weight(self):
        dist = ls.lorentzian(3.0, 0.5)
        p = qb.QubitParams(omega_o=3.0, omega_1=0.2, beta=0.0, dist=dist)
        assert p.thermal_polarization == 0.0
        res = qb.fdt_check(p)
        assert res["fdt"] < 1e-14

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_negative_larmor_frequency(self, beta):
        # w0 = -gamma B0 < 0 for a proton: e^{-beta w0} overflows at beta w0 < -709, and
        # is inf at beta = inf; the heavy/light pair keeps the factor e^{-|beta w0|} <= 1
        p = qb.QubitParams(omega_o=-1e3, omega_1=1.0, beta=beta, dist=ls.lorentzian(-1e3, 0.5))
        res = qb.fdt_check(p)
        assert res["adiabatic_detailed_balance"] < 1e-14
        assert res["fdt"] < 1e-14

    def test_random_inverse_temperatures(self, rng):
        dist = ls.lorentzian(2.0, 0.3)
        for _ in range(20):
            beta = float(rng.uniform(0.0, 3.0))
            p = qb.QubitParams(omega_o=2.0, omega_1=0.1, beta=beta, dist=dist)
            res = qb.fdt_check(p)
            assert res["adiabatic_detailed_balance"] < 1e-14
            assert res["fdt"] < 1e-14
