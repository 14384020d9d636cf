import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import response as rs
from spinlind import spincore as sc
from spinlind.errors import ValidationError

from conftest import random_system
from oracles import (ChiKernel, absorbed_power_oracle, chi_infinity, chi_transient,
                     commutator_average, decompose, dense_ladder, kramers_kronig_residual,
                     magnetization_terms, rho_integral, steady_magnetization_oracle,
                     transition_rate_oracle, two_pass_steady_magnetization)
from test_mastereq import (OPERATOR_SUM_CASES, one_pass_case, operator_sum_model,
                           radical_model, random_hermitian)


def response_model(system, b_o, beta):
    """Model for the response kernels, which read only its state and ladder."""
    field = me.FieldConfig(b_o=b_o, b_1=0.0, dist=ls.lorentzian(1.0, 1.0))
    return me.build_model(system, field, beta)


def lorentzian_transient_closed_form(kernel, dist):
    """Contour-integral oracle for a Lorentzian density (plus branch)."""
    assert dist.kind == "lorentzian" and kernel.sign == 1
    t = kernel.transient_time
    w = 0.5 * dist.width
    dw = dist.center - kernel.omega_o
    return -kernel.commutator_avg * np.exp(1j * dw * t) * math.exp(-w * t) / (dw + 1j * w)


def qubit_transient_setup():
    gamma = -2.0e3
    system = sc.SpinSystem([0.5], [gamma])
    model = response_model(system, 1.0, 5e-4)
    return model, -gamma, -sc.xi_operator(system, "x")


def two_spin_model():
    couplings = np.array([[0.0, 40.0], [40.0, 0.0]])
    system = sc.SpinSystem([0.5, 0.5], [-1.0e3, -1.6e3], couplings)
    return response_model(system, 1.0, 1e-4)


# The scalar kernel route (commutator_average, ChiKernel, rho_integral) is rs.magnetization's
# oracle in tests/oracles.py; its tests below check it against dense commutators and
# closed forms.
class TestChiInfinity:
    def test_longitudinal_observable_does_not_respond(self):
        model = two_spin_model()
        xi_z = sc.xi_operator(model.system, "z")
        for w in model.ladder.omegas:
            k = chi_infinity(model, xi_z, w, +1)
            assert abs(k.commutator_avg) < 1e-14

    def test_qubit_imaginary_part_weight(self):
        gamma, b_o, beta = -2.0e3, 1.0, 5e-4
        system = sc.SpinSystem([0.5], [gamma])
        model = response_model(system, b_o, beta)
        w0 = -gamma * b_o
        mu_x = -sc.xi_operator(system, "x")
        kern = chi_infinity(model, mu_x, w0, +1)
        # Im chi = -pi delta(w' - w0) tanh(beta w0 / 2), in units of (gamma/2)^2
        weight = kern.delta_weight.imag / (gamma / 2.0) ** 2
        assert weight == pytest.approx(-math.pi * math.tanh(beta * w0 / 2.0), rel=1e-12)
        assert kern.delta_location == pytest.approx(w0)

    def test_commutator_average_brute_force(self, rng):
        for _ in range(4):
            system = random_system(rng, max_spins=2, allowed_spins=(0.5, 1.0))
            model = response_model(system, 1.2, 2e-4)
            a = rng.normal(size=(system.dim,) * 2) + 1j * rng.normal(size=(system.dim,) * 2)
            x_op = a + a.conj().T
            for w, block in zip(model.ladder.omegas[:3], dense_ladder(model.ladder)[:3]):
                got = commutator_average(model, x_op, w)
                comm = x_op @ block - block @ x_op
                oracle = complex(np.trace(comm @ model.boltzmann))
                assert got == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["e_4_4h"])
    def test_commutator_average_matches_dense_commutator(self, rng, case):
        # every block against Tr(xi_w [rho0, X]) with the dense commutator;
        # e_4_4h is the whole naphthalene anion (D = 512)
        model = radical_model((4, 4)) if case == "e_4_4h" else operator_sum_model(case)
        ladder, d = model.ladder, model.dim
        x_op = random_hermitian(rng, d)
        comm = model.boltzmann @ x_op - x_op @ model.boltzmann
        for k, w in enumerate(ladder.omegas):
            at = ladder.block == k
            xi_w = np.zeros((d, d))
            xi_w[ladder.rows[at], ladder.cols[at]] = ladder.values[at]
            terms = xi_w * comm.T
            got = commutator_average(model, x_op, w)
            assert got == pytest.approx(complex(np.sum(terms)), rel=1e-12,
                                        abs=1e-13 * np.sum(np.abs(terms)))

    def test_projected_commutator_identity(self, rng):
        # <[X, B]>_0 equals <[X^dag(+1, w), B]>_0 with X's own (+1, w) block
        for _ in range(4):
            system = random_system(rng, max_spins=2, allowed_spins=(0.5, 1.0))
            model = response_model(system, 0.9, 3e-4)
            a = rng.normal(size=(system.dim,) * 2) + 1j * rng.normal(size=(system.dim,) * 2)
            x_op = a + a.conj().T
            x_dec = decompose(x_op, model.levels)
            for w, block in zip(model.ladder.omegas[:3], dense_ladder(model.ladder)[:3]):
                full = commutator_average(model, x_op, w)
                try:
                    x_plus = x_dec.block(1, w)
                except KeyError:
                    assert abs(full) < 1e-12
                    continue
                proj = x_plus.matrix.conj().T
                comm = proj @ block - block @ proj
                partial = complex(np.trace(comm @ model.boltzmann))
                assert full == pytest.approx(partial, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_steady_integral_of_each_sign(self, kind):
        # g [-s pi rho^>(s w0) - i pi rho_f(s w0)], the two branches by hand
        dist = kind(1.9e3, 300.0)
        for w0 in (2.0e3, -2.0e3, 0.0):
            plus = rho_integral(ChiKernel(w0, +1, 0.3 - 0.2j), dist)
            minus = rho_integral(ChiKernel(w0, -1, 0.3 - 0.2j), dist)
            assert plus == (0.3 - 0.2j) * (-math.pi * ls.hilbert(dist, w0)
                                           - 1j * math.pi * float(ls.density(dist, w0)))
            assert minus == (0.3 - 0.2j) * (math.pi * ls.hilbert(dist, -w0)
                                            - 1j * math.pi * float(ls.density(dist, -w0)))


class TestChiTransient:
    def test_zero_time_negates_steady_kernel(self):
        model = two_spin_model()
        x_op = -sc.xi_operator(model.system, "x")
        w = model.ladder.omegas[0]
        inf_k = chi_infinity(model, x_op, w, +1)
        tr_k = chi_transient(model, x_op, w, +1, 0.0)
        assert tr_k.pv_weight == pytest.approx(-inf_k.pv_weight)
        assert tr_k.delta_weight == pytest.approx(-inf_k.delta_weight)

    def test_density_integral_decays(self):
        gamma = -2.0e3
        system = sc.SpinSystem([0.5], [gamma])
        model = response_model(system, 1.0, 5e-4)
        w0 = -gamma
        dist = ls.lorentzian(w0, 60.0)
        x_op = -sc.xi_operator(system, "x")
        tau = ls.relaxation_time(dist)
        early = rho_integral(chi_transient(model, x_op, w0, +1, 0.0), dist)
        late = rho_integral(chi_transient(model, x_op, w0, +1, 20.0 * tau), dist)
        assert abs(late) < 1e-6 * abs(early)

    def test_lorentzian_contour_closed_form(self):
        gamma = -2.0e3
        system = sc.SpinSystem([0.5], [gamma])
        model = response_model(system, 1.0, 5e-4)
        w0 = -gamma
        dist = ls.lorentzian(w0 + 25.0, 80.0)  # slightly detuned center
        x_op = -sc.xi_operator(system, "x")
        for t in (0.0, 0.005, 0.02):
            kern = chi_transient(model, x_op, w0, +1, t)
            quad = rho_integral(kern, dist)
            closed = lorentzian_transient_closed_form(kern, dist)
            assert abs(quad - closed) < 1e-6 * max(abs(closed), 1e-12)

    @pytest.mark.parametrize("kind", [ls.gaussian, ls.lorentzian])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_zero_time_is_minus_steady(self, kind, sign):
        model, w0, x_op = qubit_transient_setup()
        dist = kind(w0 + 25.0, 80.0)
        steady = rho_integral(chi_infinity(model, x_op, w0, sign), dist)
        transient = rho_integral(chi_transient(model, x_op, w0, sign, 0.0), dist)
        assert abs(transient + steady) <= 1e-9 * abs(steady)

    def test_broad_lorentzian_matches_contour(self):
        model, w0, x_op = qubit_transient_setup()
        dist = ls.lorentzian(w0 - 300.0, 500.0)
        for t in (0.0, 0.01, 0.1):
            kern = chi_transient(model, x_op, w0, +1, t)
            closed = lorentzian_transient_closed_form(kern, dist)
            got = rho_integral(kern, dist)
            assert abs(got - closed) <= 1e-12 * abs(closed)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_times_rejected(self, bad):
        model, w0, x_op = qubit_transient_setup()
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            chi_transient(model, x_op, w0, +1, bad)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_gaussian_tail_far_out_is_zero(self, sign):
        # past s t = 1.3e154 the Gaussian end term's (s t)^2 overflowed
        model, w0, x_op = qubit_transient_setup()
        dist = ls.gaussian(w0 + 25.0, 80.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e200, 1e300):
                assert rho_integral(chi_transient(model, x_op, w0, sign, t), dist) == 0.0

    def test_delta_line_rejected(self):
        model, w0, x_op = qubit_transient_setup()
        with pytest.raises(ValidationError):
            rho_integral(chi_transient(model, x_op, w0, +1, 0.1), ls.delta_line(w0))


class TestSteadyMagnetization:
    def _model(self, beta, gamma=-2.0e3):
        system = sc.SpinSystem([0.5], [gamma])
        w0 = -gamma
        dist = ls.lorentzian(w0, 100.0)
        field = me.FieldConfig(b_o=1.0, b_1=5e-5, dist=dist)
        return me.build_model(system, field, beta), w0

    def test_infinite_temperature_gives_nothing(self):
        model, w0 = self._model(0.0)
        assert rs.steady_magnetization(model, 0.3 / w0) == pytest.approx(0.0, abs=1e-18)

    def test_qubit_oscillation_amplitude(self):
        beta = 4e-4
        model, w0 = self._model(beta)
        b1 = model.field.b_1
        gamma = model.system.gammas[0]
        th = math.tanh(beta * w0 / 2.0)
        dist = model.field.dist
        g = (gamma ** 2 / 4.0) * th
        expected_cos = 2.0 * b1 * g * math.pi * (ls.hilbert(dist, -w0) - ls.hilbert(dist, w0))
        expected_sin = 2.0 * b1 * g * math.pi * (float(ls.density(dist, w0))
                                                 + float(ls.density(dist, -w0)))
        for t in (0.0, 0.25 * 2 * math.pi / w0, 1.33 / w0):
            got = rs.steady_magnetization(model, t)
            oracle = math.cos(w0 * t) * expected_cos + math.sin(w0 * t) * expected_sin
            assert got == pytest.approx(oracle, rel=1e-10, abs=1e-20)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_times_rejected(self, bad):
        model, _ = self._model(4e-4)
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            rs.steady_magnetization(model, bad)

    def test_spinless_system_silent(self):
        system = sc.SpinSystem([0.0], [1.0])
        field = me.FieldConfig(b_o=1.0, b_1=1e-4, dist=ls.lorentzian(1.0, 0.2))
        model = me.build_model(system, field, 1e-3)
        assert rs.steady_magnetization(model, 0.5) == 0.0

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["mixed_spins"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_equals_the_two_pass_formula(self, case, kind):
        model = me.build_model(*one_pass_case(case, kind))
        tau = 1.0 / float(np.max(np.abs(model.ladder.omegas)))
        for t in (0.0, 0.3 * tau, 7.1 * tau):
            got = rs.steady_magnetization(model, t)
            assert got.hex() == two_pass_steady_magnetization(model, t).hex()

    def test_one_call_per_line_shape(self, monkeypatch):
        model = me.build_model(*one_pass_case("mixed_spins", ls.gaussian))
        calls = []
        for name in ("density", "hilbert"):
            real = getattr(rs, name)
            monkeypatch.setattr(rs, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a))
        rs.steady_magnetization(model, 1e-4)
        assert sorted(calls) == ["density", "hilbert"]


class TestNearDegenerateBlocks:
    """Two plus blocks 7.5e-7 apart, just above the 5e-7 the gaps are binned with."""

    def _model(self):
        couplings = np.array([[0.0, 7.5e-7], [7.5e-7, 0.0]])
        system = sc.SpinSystem([0.5, 0.5], [-1000.0, -1e-3], couplings)
        field = me.FieldConfig(b_o=1.0, b_1=1e-5, dist=ls.lorentzian(1000.0, 50.0))
        return me.build_model(system, field, 1e-3)

    def per_block_averages(self, model, x_op):
        return [complex(np.trace((x_op @ b - b @ x_op) @ model.boltzmann))
                for b in dense_ladder(model.ladder)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frequency_refused(self, bad):
        model = self._model()
        m_x = -sc.xi_operator(model.system, "x")
        for call in (lambda: commutator_average(model, m_x, bad),
                     lambda: chi_infinity(model, m_x, bad, +1),
                     lambda: chi_transient(model, m_x, bad, +1, 0.1)):
            with pytest.raises(ValidationError, match="omega_o and X must be finite"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_operator_refused(self, bad):
        model = self._model()
        m_x = -sc.xi_operator(model.system, "x")
        m_x[1, 0] = bad
        with pytest.raises(ValidationError, match="omega_o and X must be finite"):
            commutator_average(model, m_x, float(model.ladder.omegas[0]))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2,), (2, 3)])
    def test_operator_of_another_shape_refused(self, shape):
        # X is read at the model's level indices, so only a (D, D) X is meaningful
        model, w0, _ = qubit_transient_setup()
        x_op = np.ones(shape, dtype=complex)
        for call in (lambda: commutator_average(model, x_op, w0),
                     lambda: chi_infinity(model, x_op, w0, +1),
                     lambda: chi_transient(model, x_op, w0, +1, 0.1)):
            with pytest.raises(ValidationError, match=r"X must have shape \(2, 2\)"):
                call()

    def test_commutator_average_reads_its_own_block(self):
        model = self._model()
        assert model.ladder.omegas[3] - model.ladder.omegas[2] == pytest.approx(7.5e-7, rel=1e-3)
        m_x = -sc.xi_operator(model.system, "x")
        want = self.per_block_averages(model, m_x)
        got = [commutator_average(model, m_x, w) for w in model.ladder.omegas]
        assert got == pytest.approx(want, rel=1e-13)
        # the pairs differ: 5.776462e4 against 5.776467e4, 3.36e-14 against 9.13e-14
        assert abs(want[3] - want[2]) > 5e-7 * abs(want[3])
        assert abs(want[1] - want[0]) > 0.5 * abs(want[1])

    def test_steady_magnetization_sums_every_block(self):
        model = self._model()
        m_x = -sc.xi_operator(model.system, "x")
        dist, b1, t = model.field.dist, model.field.b_1, 3.7e-4
        total = 0.0
        for w, g in zip(model.ladder.omegas, self.per_block_averages(model, m_x)):
            chi_p = g.real * math.pi * (ls.hilbert(dist, -w) - ls.hilbert(dist, w))
            chi_pp = g.real * math.pi * float(ls.density(dist, w) + ls.density(dist, -w))
            total += math.cos(w * t) * chi_p + math.sin(w * t) * chi_pp
        assert rs.steady_magnetization(model, t) == pytest.approx(2.0 * b1 * total, rel=1e-12)


def magnetization_case(case, kind):
    """A driven model of an operator-sum case, the mixed spins or e + 4 + 4 H under ``kind``."""
    if case != "e_4_4h":
        return me.build_model(*one_pass_case(case, kind))
    base = radical_model((4, 4))
    dist = kind(base.field.dist.center, base.field.dist.width)
    return me.build_model(base.system, dataclasses.replace(base.field, dist=dist), base.beta)


class TestMagnetization:
    """rs.magnetization, the steady and transient kernels of every block at once."""

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["mixed_spins", "e_4_4h"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_equals_the_per_block_per_sign_sum(self, case, kind):
        model = magnetization_case(case, kind)
        times = np.array([0.05, 0.5, 3.0]) * ls.relaxation_time(model.field.dist)
        at_once = rs.magnetization(model, times)
        assert at_once.shape == times.shape
        for t, got_in_array in zip(times.tolist(), at_once):
            steady, transient = magnetization_terms(model, t)
            scale = np.sum(np.abs(steady)) + np.sum(np.abs(transient))
            want = np.sum(steady) + np.sum(transient)
            got = rs.magnetization(model, t)
            assert type(got) is float
            assert abs(got - want) <= 1e-13 * scale
            assert abs(got_in_array - want) <= 1e-13 * scale

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["mixed_spins", "e_4_4h"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_nothing_at_the_start(self, case, kind):
        # the transient kernels are the exact negatives of the steady ones at t = 0
        model = magnetization_case(case, kind)
        steady, _ = magnetization_terms(model, 0.0)
        assert abs(rs.magnetization(model, 0.0)) <= 1e-12 * np.sum(np.abs(steady))

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_tends_to_the_steady_part(self, kind):
        model = magnetization_case("generic3", kind)
        late = 60.0 * ls.relaxation_time(model.field.dist)
        assert rs.magnetization(model, late) == pytest.approx(
            rs.steady_magnetization(model, late), rel=1e-12)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["mixed_spins"])
    def test_steady_part_over_an_array_is_each_time_bit_for_bit(self, case):
        model = magnetization_case(case, ls.gaussian)
        times = np.array([0.0, 0.3, 7.1]) / float(np.max(np.abs(model.ladder.omegas)))
        got = rs.steady_magnetization(model, times)
        assert [x.hex() for x in got.tolist()] == [
            rs.steady_magnetization(model, t).hex() for t in times.tolist()]

    def test_one_envelope_integral_and_one_call_per_line_shape(self, monkeypatch):
        model = magnetization_case("mixed_spins", ls.gaussian)
        calls = []
        for name in ("density", "hilbert", "envelope_integral"):
            real = getattr(rs, name)
            monkeypatch.setattr(rs, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a))
        rs.magnetization(model, np.linspace(0.0, 1e-3, 5))
        assert sorted(calls) == ["density", "envelope_integral", "hilbert"]

    def test_takes_no_keyword(self):
        params = inspect.signature(rs.magnetization).parameters.values()
        assert [(p.name, p.kind) for p in params] == [
            ("model", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("t", inspect.Parameter.POSITIONAL_OR_KEYWORD)]

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, [[0.1]]])
    def test_bad_times_rejected(self, bad):
        model = magnetization_case("generic2", ls.lorentzian)
        with pytest.raises(ValidationError, match="t must be"):
            rs.magnetization(model, bad)

    def test_delta_line_rejected(self):
        # a delta line never decays, as rho_integral refused its transient kernels; a driven
        # one has no finite rates, so the model is undriven
        system, field, beta = one_pass_case("generic2", ls.lorentzian)
        field = dataclasses.replace(field, b_1=0.0, dist=ls.delta_line(0.5))
        model = me.build_model(system, field, beta)
        rs.steady_magnetization(model, 0.1)
        with pytest.raises(ValidationError, match="does not decay"):
            rs.magnetization(model, 0.1)

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_phases_past_the_float_range_refused(self, kind):
        # the steady response never decays, so w0 t past the float range has no value;
        # at 1e300 it still has one
        model = magnetization_case("generic2", kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(rs.magnetization(model, 1e300))
            for call in (rs.steady_magnetization, rs.magnetization):
                with pytest.raises(ValidationError, match="phase w0 t passes the float range"):
                    call(model, np.array([0.0, 1e307]))


class TestKuboLinkAtEveryMapSize:
    """Claim 2 of the abstract on every map size the code accepts: the exact map's
    Re Tr(rho_S(t) M_x) is rs.magnetization up to a relative O(B1^2)."""

    @staticmethod
    def residuals(case, kind, b1):
        base = operator_sum_model(case)
        field = me.FieldConfig(b_o=base.field.b_o, b_1=b1, dist=kind(22.0, 4.0))
        model = me.build_model(base.system, field, base.beta)
        times = np.array([0.05, 0.5, 3.0, 30.0]) * ls.relaxation_time(field.dist)
        states = me.Trajectory(times, me.lambda_map(model, times, model.boltzmann),
                               model.levels.energies).schrodinger_states()
        exact = np.einsum("nab,ba->n", states, -sc.xi_operator(model.system, "x")).real
        response = rs.magnetization(model, times)
        return np.abs(exact - response) / np.abs(response)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["generic6"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_residual_is_second_order_in_the_drive(self, case, kind):
        large, small = self.residuals(case, kind, 1e-3), self.residuals(case, kind, 1e-4)
        assert small.max() <= 1e-3
        assert np.all((large / small >= 50.0) & (large / small <= 200.0))


class TestAbsorbedPower:
    def _model(self, beta, center_shift=0.0, kind=ls.lorentzian):
        gamma = -2.0e3
        system = sc.SpinSystem([0.5], [gamma])
        w0 = -gamma
        dist = kind(w0 + center_shift, 40.0)
        field = me.FieldConfig(b_o=1.0, b_1=5e-5, dist=dist)
        return me.build_model(system, field, beta), w0

    def test_equal_populations_absorb_nothing(self):
        model, _ = self._model(0.0)
        total, lines = rs.absorbed_power(model)
        assert total == pytest.approx(0.0, abs=1e-18)

    def test_qubit_closed_form(self):
        beta = 4e-4
        model, w0 = self._model(beta)
        total, lines = rs.absorbed_power(model)
        pops = np.real(np.diag(model.boltzmann))
        rate = transition_rate_oracle(model, 0, 1)
        oracle = w0 * (pops[1] - pops[0]) * rate
        assert total == pytest.approx(oracle, rel=1e-12)
        assert total > 0
        assert len(lines) == 1 and lines[0].omega_o == pytest.approx(w0)

    def test_detuned_field_absorbs_nothing(self):
        # gaussian wings die fast enough that a 20-linewidth detuning
        # suppresses every rate by far more than ten decades
        beta = 4e-4
        on_model, w0 = self._model(beta, kind=ls.gaussian)
        off_model, _ = self._model(beta, center_shift=800.0, kind=ls.gaussian)
        on_total, _ = rs.absorbed_power(on_model)
        off_total, _ = rs.absorbed_power(off_model)
        assert off_total < 1e-10 * on_total


def driven_model(seed, kind):
    """A random mixed-spin system driven near its mean Larmor frequency."""
    system = random_system(np.random.default_rng(seed), max_dim=36,
                           allowed_spins=(0.5, 1.0, 1.5, 2.0))
    center = float(np.mean(np.abs(system.gammas)))
    field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=kind(center, 0.5 * center))
    return me.build_model(system, field, 0.5 / center)


class TestPerBlockOracles:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_steady_magnetization(self, seed, kind):
        model = driven_model(seed, kind)
        tau = 1.0 / float(np.max(np.abs(model.ladder.omegas)))
        for t in (0.0, 0.3 * tau, 7.1 * tau):
            want = steady_magnetization_oracle(model, t)
            got = rs.steady_magnetization(model, t)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_absorbed_power(self, seed, kind):
        model = driven_model(seed, kind)
        want_total, want_lines = absorbed_power_oracle(model)
        total, lines = rs.absorbed_power(model)
        assert [line.omega_o for line in lines] == [w for w, _ in want_lines]
        scale = max(abs(p) for _, p in want_lines)
        for line, (_, p) in zip(lines, want_lines):
            assert abs(line.power - p) <= 1e-13 * scale
        assert total == pytest.approx(want_total, rel=1e-13)
        assert total == sum(line.power for line in lines)


class TestKramersKronig:
    def test_single_pole_residual_small(self):
        w0 = 1.0
        kern = ChiKernel(omega_o=w0, sign=+1, commutator_avg=1.0 + 0.0j)
        grid = w0 + np.array([-0.4, -0.15, 0.08, 0.3, 0.9])
        res = kramers_kronig_residual([kern], grid, eta=1e-3 * w0, window=5.0)
        assert res < 1e-4

    def test_residual_scales_with_eta(self):
        w0 = 1.0
        kern = ChiKernel(omega_o=w0, sign=+1, commutator_avg=1.0 + 0.0j)
        grid = w0 + np.array([-0.3, 0.2, 0.6])
        r1 = kramers_kronig_residual([kern], grid, eta=2e-3, window=5.0)
        r2 = kramers_kronig_residual([kern], grid, eta=1e-3, window=5.0)
        assert 1.4 < r1 / r2 < 2.6

    def test_empty_response_zero(self):
        assert kramers_kronig_residual([], [0.0, 1.0], eta=1e-3) == 0.0
