import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from spinlind import lineshape as ls
from spinlind.errors import PoleError, ValidationError

from oracles import drive_weight_oracle, envelope_integral_oracle


def pv_integral(f, pole: float, lo: float, hi: float, *, h0: float,
                breakpoints=()) -> float:
    """Cauchy principal value of int f(u)/(pole - u) du over [lo, hi].

    Independent oracle for the closed-form Hilbert transforms: symmetric
    excision of half-width h around the pole with Richardson extrapolation
    over h, h/2, h/4 (leading excision error is linear in h, next correction
    cubic).  ``breakpoints`` marks sharp features of f so the adaptive
    quadrature cannot skip over them on wide windows.
    """
    def plain(a: float, b: float) -> float:
        pts = [p for p in breakpoints if a < p < b] or None
        val, _ = scipy.integrate.quad(lambda u: f(u) / (pole - u), a, b,
                                      points=pts, epsabs=1e-12, epsrel=1e-10,
                                      limit=400)
        return val

    if not lo < pole < hi:
        return plain(lo, hi)

    def excised(h: float) -> float:
        return plain(lo, pole - h) + plain(pole + h, hi)

    i_h = excised(h0)
    i_h2 = excised(0.5 * h0)
    i_h4 = excised(0.25 * h0)
    r_h = 2.0 * i_h2 - i_h          # removes the O(h) term
    r_h2 = 2.0 * i_h4 - i_h2
    return (8.0 * r_h2 - r_h) / 7.0  # removes the O(h^3) term


def gaussian_hilbert_oracle(dist, x: float) -> float:
    """PV quadrature of the Gaussian Hilbert transform over +-8 sigma."""
    s = dist.width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    lo, hi = dist.center - 8.0 * s, dist.center + 8.0 * s
    if not lo < x < hi:
        val, _ = scipy.integrate.quad(lambda u: ls.density(dist, u) / (x - u), lo, hi,
                                      points=[dist.center], epsabs=1e-13,
                                      epsrel=1e-11, limit=200)
        return val / math.pi
    h0 = min(0.05 * s, 0.25 * min(x - lo, hi - x))
    return pv_integral(lambda u: ls.density(dist, u), x, lo, hi, h0=h0,
                       breakpoints=[dist.center]) / math.pi


def simpson(f, a: float, b: float, n: int = 40_000):
    """Dense composite Simpson sum of a vectorized integrand on [a, b]."""
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return np.dot(w, f(x)) * (b - a) / (3.0 * n)


class TestDensity:
    def test_lorentzian_peak_and_fwhm(self):
        dist = ls.lorentzian(5.0, 2.0)
        peak = ls.density(dist, 5.0)
        assert peak == pytest.approx(2.0 / (math.pi * 2.0))
        assert ls.density(dist, 5.0 + 1.0) == pytest.approx(peak / 2.0)
        assert ls.density(dist, 5.0 - 1.0) == pytest.approx(peak / 2.0)

    def test_gaussian_fwhm(self):
        dist = ls.gaussian(0.0, 3.0)
        peak = ls.density(dist, 0.0)
        assert ls.density(dist, 1.5) == pytest.approx(peak / 2.0)

    @pytest.mark.parametrize("dist", [ls.lorentzian(2.0, 1.5), ls.gaussian(-1.0, 0.8)])
    def test_unit_normalization_by_quadrature(self, dist):
        if dist.kind == "gaussian":
            s = dist.width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            lo, hi = dist.center - 8.0 * s, dist.center + 8.0 * s
            target = 1.0
        else:
            half = 0.5 * dist.width
            lo, hi = dist.center - 1e4 * half, dist.center + 1e4 * half
            target = (2.0 / math.pi) * math.atan(1e4)  # mass inside the window
        val, _ = scipy.integrate.quad(lambda x: ls.density(dist, x), lo, hi,
                                      points=[dist.center], limit=400)
        assert val == pytest.approx(target, abs=1e-6)

    def test_symmetry_about_center(self):
        for dist in (ls.lorentzian(3.0, 0.7), ls.gaussian(3.0, 0.7)):
            for d in (0.1, 1.0, 4.2):
                assert ls.density(dist, 3.0 + d) == pytest.approx(ls.density(dist, 3.0 - d))

    def test_delta_line_is_a_symbolic_spike(self):
        dist = ls.delta_line(2.0)
        assert ls.density(dist, 2.0) == math.inf and ls.density(dist, 2.5) == 0.0
        assert ls.density(dist, np.array([1.0, 2.0, 3.0])).tolist() == [0.0, math.inf, 0.0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ls.FrequencyDistribution("lorentzian", 0.0, 0.0)
        with pytest.raises(ValidationError):
            ls.FrequencyDistribution("delta", 0.0, 1.0)
        with pytest.raises(ValidationError):
            ls.FrequencyDistribution("boxcar", 0.0, 1.0)


class TestGaussianFarTail:
    """Past s t = 1.3e154 the square (s t)^2 overflows; e^{-(s t)^2 / 2} is 0 long before."""

    TIMES = (1.5e154, 1e200, 1e300)

    def test_characteristic_is_zero_with_no_overflow(self):
        dist = ls.gaussian(1760.0, 14.08)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in self.TIMES:
                assert ls.characteristic(dist, t) == 0.0
                assert ls.characteristic(dist, -t) == 0.0
            assert not ls.characteristic(dist, np.array([-1e300, 1e200, 1e154])).any()

    @pytest.mark.parametrize("kappa", [0.3, -1j * 1760.0, 2.0 + 1.0j, -5.0])
    def test_envelope_end_far_out_is_the_infinite_end(self, kappa):
        dist = ls.gaussian(1760.0, 14.08)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = ls.envelope_integral(dist, kappa, 0.1, math.inf)
            for t in self.TIMES:
                assert ls.envelope_integral(dist, kappa, 0.1, t) == tail
                assert ls.envelope_integral(dist, kappa, t, t) == 0.0

    def test_values_short_of_the_cap_are_unchanged(self):
        # the square is taken as before wherever it is finite
        dist = ls.gaussian(0.0, 2.0)
        s = dist.width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        t = np.array([0.0, 0.3, 2.0, 37.0, 1e150 / s])
        assert np.array_equal(ls.characteristic(dist, t), np.exp(-0.5 * (s * t) ** 2))


class TestPhasesPastTheFloatRange:
    """Past t = 1e306 a kHz phase w t overflowed to NaN with a RuntimeWarning.  A decayed
    term is now 0 there, its value at t = 1e300; an undecayed one is a ValidationError."""

    LATE = (1e306, 1.7e308)

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_decayed_terms_take_their_converged_values(self, kind):
        dist = kind(2.0e3, 200.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in self.LATE:
                assert ls.characteristic(dist, t) == ls.characteristic(dist, 1e300) == 0.0
                for kappa in (-1.0e3j, 2.0e3j):
                    assert (ls.envelope_integral(dist, kappa, 0.0, t)
                            == ls.envelope_integral(dist, kappa, 0.0, math.inf))
                    assert ls.envelope_integral(dist, kappa, t, math.inf) == 0.0
                for lam in (0.0, -0.5 + 3.0j, -40.0 + 2.0e3j):
                    assert (ls.drive_weight(dist, lam, 1.0e3, t)
                            == ls.drive_weight(dist, lam, 1.0e3, 1e300))

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_earlier_times_keep_their_bits(self, kind):
        # one scalar check sends a call down the late route; there only the lost entries change
        dist, times = kind(2.0e3, 200.0), np.array([0.0, 1e-3, 0.02, 1e306])
        for route in (lambda t: ls.characteristic(dist, t),
                      lambda t: ls.envelope_integral(dist, -1.0e3j, 0.0, t),
                      lambda t: ls.drive_weight(dist, -40.0 + 2.0e3j, 1.0e3, t)):
            assert np.array_equal(route(times)[:3], route(times[:3]))

    @pytest.mark.parametrize("call", [
        lambda: ls.characteristic(ls.delta_line(2.0e3), 1e306),
        # an envelope e^{-5} that has not decayed where its carrier phase is lost
        lambda: ls.characteristic(ls.lorentzian(2.0e3, 1e-305), 1e306),
        lambda: ls.envelope_integral(ls.delta_line(2.0e3), -1.0e3j, 0.0, 1e306),
        # a mode e^{lam t} that never decays
        lambda: ls.drive_weight(ls.lorentzian(2.0e3, 200.0), 5.0e3j, 1.0e3, 1e306),
    ])
    def test_undecayed_terms_refused(self, call):
        with pytest.raises(ValidationError, match="phase passes the float range"):
            call()


class TestCharacteristic:
    def test_value_at_zero(self):
        for dist in (ls.lorentzian(2.0, 1.0), ls.gaussian(2.0, 1.0), ls.delta_line(2.0)):
            assert ls.characteristic(dist, 0.0) == pytest.approx(1.0)

    def test_lorentzian_closed_form(self):
        omega, width = 7.0, 3.0
        dist = ls.lorentzian(omega, width)
        for t in (-1.2, 0.4, 2.5):
            expected = np.exp(1j * omega * t) * np.exp(-0.5 * width * abs(t))
            assert ls.characteristic(dist, t) == pytest.approx(expected)

    @pytest.mark.parametrize("dist", [ls.lorentzian(1.5, 0.8), ls.gaussian(1.5, 0.8)])
    def test_closed_form_matches_defining_integral(self, dist):
        # quadrature oracle for int rho_f(w) e^{iwt} dw, oscillatory weights
        span = 2e4 * dist.width
        for t in (0.3, 1.1):
            re, _ = scipy.integrate.quad(
                lambda w: ls.density(dist, w), dist.center - span,
                dist.center + span, weight="cos", wvar=t, limit=800)
            im, _ = scipy.integrate.quad(
                lambda w: ls.density(dist, w), dist.center - span,
                dist.center + span, weight="sin", wvar=t, limit=800)
            got = ls.characteristic(dist, t)
            assert got.real == pytest.approx(re, abs=1e-8)
            assert got.imag == pytest.approx(im, abs=1e-8)

    @pytest.mark.parametrize("dist", [ls.lorentzian(4.0, 1.0), ls.gaussian(4.0, 1.0)])
    def test_polya_properties(self, dist):
        ts = np.linspace(0.0, 12.0, 60)
        env = np.real(ls.characteristic(dist, ts) * np.exp(-1j * dist.center * ts))
        assert np.all(np.abs(ls.characteristic(dist, ts)) <= 1.0 + 1e-12)
        # even envelope
        env_neg = np.real(ls.characteristic(dist, -ts) * np.exp(1j * dist.center * ts))
        assert np.allclose(env, env_neg)
        assert np.all(np.diff(env) <= 1e-12)  # monotone decay for t > 0
        if dist.kind == "lorentzian":
            # exponential envelope is convex on t > 0
            second = env[2:] - 2 * env[1:-1] + env[:-2]
            assert np.all(second >= -1e-12)
        assert abs(env[-1]) < 1e-2

    def test_relaxation_time(self):
        assert ls.relaxation_time(ls.lorentzian(0.0, 4.0)) == pytest.approx(0.5)
        assert math.isinf(ls.relaxation_time(ls.delta_line(1.0)))


class TestHilbert:
    def test_zero_at_center(self):
        for dist in (ls.lorentzian(2.5, 1.0), ls.gaussian(2.5, 1.0)):
            assert ls.hilbert(dist, 2.5) == pytest.approx(0.0, abs=1e-12)

    def test_lorentzian_closed_form_vs_pv_quadrature(self):
        dist = ls.lorentzian(1.0, 2.0)
        half = 0.5 * dist.width
        span = 2e3 * half
        for x in (-3.0, 0.2, 1.4, 2.0, 6.0):
            oracle = pv_integral(lambda u: ls.density(dist, u), x,
                                 dist.center - span, dist.center + span,
                                 h0=0.05 * half,
                                 breakpoints=[dist.center]) / math.pi
            assert ls.hilbert(dist, x) == pytest.approx(oracle, abs=1e-6)

    def test_gaussian_quadrature_matches_dawson_closed_form(self):
        dist = ls.gaussian(0.5, 1.3)
        xs = (-2.0, 0.1, 0.49, 0.9, 3.0, 12.0)
        scale = max(abs(ls.hilbert(dist, x)) for x in xs)
        for x in xs:
            assert ls.hilbert(dist, x) == pytest.approx(
                gaussian_hilbert_oracle(dist, x), abs=1e-9 * scale)

    def test_far_field_decay(self):
        dist = ls.lorentzian(0.0, 1.0)
        peak = abs(ls.hilbert(dist, 0.5 * dist.width))
        far = abs(ls.hilbert(dist, 1e6 * dist.width))
        assert far < 1e-5 * peak

    def test_odd_about_center(self):
        for dist in (ls.lorentzian(2.0, 0.6), ls.gaussian(2.0, 0.6)):
            for d in (0.3, 1.7):
                assert ls.hilbert(dist, 2.0 + d) == pytest.approx(
                    -ls.hilbert(dist, 2.0 - d), abs=1e-9)

    def test_delta_kind(self):
        dist = ls.delta_line(3.0)
        assert ls.hilbert(dist, 4.0) == pytest.approx(1.0 / math.pi)
        with pytest.raises(PoleError):
            ls.hilbert(dist, 3.0)


class TestHalfLineSplit:
    @pytest.mark.parametrize("dist", [ls.lorentzian(1.0, 2.0), ls.gaussian(0.5, 1.3)])
    def test_half_line_envelope_is_density_and_hilbert(self, dist):
        # int_0^inf phi_f(tau) e^{-i x tau} dtau = pi rho_f(x) - i pi rho^>(x)
        for x in (-2.0, 0.1, 0.9, 3.0):
            val = ls.envelope_integral(dist, -1j * x, 0.0, math.inf)
            assert val.real == pytest.approx(math.pi * ls.density(dist, x), abs=1e-14)
            assert val.imag == pytest.approx(-math.pi * ls.hilbert(dist, x), abs=1e-14)


class TestEnvelopeIntegral:
    KAPPAS = (0.0, 2.0, -2.0, 1.0 + 5.0j, -3.0 - 7.0j, 10.0j, 8.0 - 4.0j)
    WINDOWS = ((0.0, 0.3), (0.2, 1.5), (0.0, 4.0), (1.0, 2.0), (1.5, 1.5))

    @pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
    def test_matches_dense_simpson(self, kind):
        # one array call over the KAPPAS x WINDOWS grid per line shape, with a
        # nonzero log_scale, checked element by element against the scalar
        # oracle and Simpson.  Gaussian ends sit on either side of Re z = 0
        # (z = (s^2 tau - b)/(s sqrt 2)), so both-above, straddling and
        # both-below windows all occur; Lorentzian spans are zero, below 1
        # and above 1 in the same call
        kappas = np.array(self.KAPPAS)[:, None]
        t0, t1 = np.array(self.WINDOWS).T
        log_scale = -0.5 * kappas * t1
        branches, spans = set(), set()
        for center in (-30.0, 0.0, 5.0, 40.0):
            for width in (0.5, 3.0, 20.0):
                dist = ls.FrequencyDistribution(kind, center, width)
                s = width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
                got = ls.envelope_integral(dist, kappas, t0, t1, log_scale=log_scale)
                assert got.shape == (len(self.KAPPAS), len(self.WINDOWS))
                for i, kappa in enumerate(self.KAPPAS):
                    for j, (a, b) in enumerate(self.WINDOWS):
                        boundary = kappa.real / s ** 2
                        branches.add((a >= boundary, b >= boundary))
                        span = abs((kappa + 1j * center - 0.5 * width) * (b - a))
                        spans.add(0 if span == 0 else 1 if span < 1 else 2)
                        want = envelope_integral_oracle(dist, kappa, a, b,
                                                        log_scale=log_scale[i, j])
                        assert abs(got[i, j] - want) <= 1e-13 * abs(want)
                        ref = simpson(lambda t: ls.characteristic(dist, t)
                                      * np.exp(kappa * t), a, b)
                        bare = got[i, j] * np.exp(-log_scale[i, j])
                        assert abs(bare - ref) <= 1e-10 * max(abs(ref), 1e-12)
        if kind == "gaussian":
            assert branches == {(True, True), (False, True), (False, False)}
        else:
            assert spans == {0, 1, 2}

    @pytest.mark.parametrize("dist", [ls.lorentzian(3.0, 2.0), ls.gaussian(3.0, 2.0)])
    def test_infinite_upper_limit(self, dist):
        kappas, t0 = np.array([-1j, 0.5 - 2.0j]), np.array([0.0, 0.7])
        tail = ls.envelope_integral(dist, kappas, t0, math.inf)
        head = ls.envelope_integral(dist, kappas, t0, 80.0)
        assert np.max(np.abs(tail - head)) <= 1e-14
        # finite and infinite ends in one call, against the scalar oracle
        t1 = np.array([[2.0], [math.inf]])
        got = ls.envelope_integral(dist, kappas, t0, t1, log_scale=0.3 - 0.2j)
        for (i, j), val in np.ndenumerate(got):
            want = envelope_integral_oracle(dist, kappas[j], t0[j], t1[i, 0],
                                            log_scale=0.3 - 0.2j)
            assert abs(val - want) <= 1e-13 * abs(want)

    def test_log_scale_is_a_prefactor(self):
        for dist in (ls.lorentzian(3.0, 2.0), ls.gaussian(3.0, 2.0)):
            kappa, t = 4.0 + 1.0j, 1.3
            plain = ls.envelope_integral(dist, kappa, 0.0, t)
            scaled = ls.envelope_integral(dist, kappa, 0.0, t, log_scale=-kappa * t)
            assert scaled == pytest.approx(plain * np.exp(-kappa * t), rel=1e-13)

    def test_small_exponent_uses_exact_length(self):
        dist = ls.lorentzian(0.0, 2e-12)
        assert ls.envelope_integral(dist, 0.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-11)
        assert ls.envelope_integral(ls.delta_line(0.0), 0.0, 1.0, 3.0) == 2.0
        # a = 0 exactly on one element of an array call
        got = ls.envelope_integral(ls.delta_line(0.0), np.array([0.0, -1j]), 1.0, 3.0)
        assert got[0] == 2.0
        assert got[1] == pytest.approx(envelope_integral_oracle(ls.delta_line(0.0), -1j,
                                                                1.0, 3.0), rel=1e-14)

    def test_scalar_inputs_give_a_complex(self):
        for dist in (ls.lorentzian(3.0, 2.0), ls.gaussian(3.0, 2.0), ls.delta_line(1.0)):
            assert type(ls.envelope_integral(dist, -1.0, 0.0, 2.0)) is complex
            assert type(ls.drive_weight(dist, -1.0, 2.0, 0.5)) is complex

    def test_validation(self):
        with pytest.raises(ValidationError):
            ls.envelope_integral(ls.gaussian(0.0, 1.0), 0.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            ls.envelope_integral(ls.gaussian(0.0, 1.0), 0.0, -1.0, 1.0)
        with pytest.raises(ValidationError):  # growing exponential, no limit
            ls.envelope_integral(ls.lorentzian(0.0, 1.0), 1.0, 0.0, math.inf)
        with pytest.raises(ValidationError):
            ls.envelope_integral(ls.delta_line(1.0), -1j, 0.0, math.inf)

    @pytest.mark.parametrize("dist", [ls.lorentzian(0.0, 1.0), ls.gaussian(0.0, 1.0)])
    @pytest.mark.parametrize("t0, t1", [
        ([0.0, -1.0], 1.0), ([0.0, 2.0], 1.0), ([0.0, math.nan], 1.0),
        (0.0, [1.0, math.nan]), ([0.0, math.inf], math.inf),
    ])
    def test_one_bad_element_rejects_the_call(self, dist, t0, t1):
        with pytest.raises(ValidationError, match="0 <= t0 <= t1"):
            ls.envelope_integral(dist, -1.0, np.array(t0), np.array(t1))

    def test_one_growing_element_rejects_an_infinite_end(self):
        dist = ls.lorentzian(0.0, 1.0)
        # growing only where the end is finite: allowed
        ls.envelope_integral(dist, np.array([-1.0, 1.0]), 0.0, np.array([math.inf, 2.0]))
        with pytest.raises(ValidationError, match="diverges"):
            ls.envelope_integral(dist, np.array([1.0, -1.0]), 0.0, np.array([math.inf, 2.0]))
        with pytest.raises(ValidationError, match="diverges"):
            ls.envelope_integral(dist, np.array([-1.0, 1.0]), 0.0, math.inf)


class TestDriveWeight:
    LAMS = (0.0, -0.5 + 3.0j, -2.0 - 1.0j, -0.01, -40.0 + 7.0j)
    FREQS = (0.0, 5.0, -7.0, 30.0)
    TIMES = (0.0, 0.1, 1.0, 3.0, 25.0)

    @pytest.mark.parametrize("dist", [ls.lorentzian(4.0, 2.0), ls.gaussian(4.0, 2.0),
                                      ls.gaussian(-3.0, 0.3), ls.delta_line(2.0)])
    def test_grid_matches_scalar_oracle(self, dist):
        lam = np.array(self.LAMS)[:, None, None]
        w = np.array(self.FREQS)[None, :, None]
        got = ls.drive_weight(dist, lam, w, np.array(self.TIMES))
        assert got.shape == (len(self.LAMS), len(self.FREQS), len(self.TIMES))
        for (i, j, n), val in np.ndenumerate(got):
            want = drive_weight_oracle(dist, self.LAMS[i], self.FREQS[j], self.TIMES[n])
            assert abs(val - want) <= 1e-12 * abs(want)
        assert not np.any(got[..., 0])       # W(lam, w, 0) = 0

    @pytest.mark.parametrize("dist", [ls.lorentzian(4.0, 2.0), ls.gaussian(4.0, 2.0),
                                      ls.delta_line(2.0)])
    def test_halves_share_the_start_term(self, dist):
        # both halves start from e^{lam t}, taken once per element: each half
        # alone, with its own start exponential, gives the same value; for the
        # delta line at w = 2 one half has a = 0 and takes the t e^{lam t} limit
        lam = np.array(self.LAMS)[:, None, None]
        w = np.array(self.FREQS + (2.0,))[None, :, None]
        t = np.array(self.TIMES)
        got = ls.drive_weight(dist, lam, w, t)
        kappa = -1j * w - lam
        halves = [ls.envelope_integral(dist, k, 0.0, t, log_scale=lam * t)
                  for k in (kappa, kappa - 2j * dist.center)]
        assert np.array_equal(got, 0.5 * (halves[0] + halves[1]))
        assert not np.any(got[..., 0])
        for (i, j, n), val in np.ndenumerate(got[..., 1:]):
            want = drive_weight_oracle(dist, lam.flat[i], w.flat[j], t[n + 1])
            assert abs(val - want) <= 1e-12 * abs(want)

    def test_matches_dense_simpson(self):
        dist = ls.gaussian(4.0, 2.0)
        for lam, w, t in ((-0.5 + 3.0j, 5.0, 1.0), (0.0, -7.0, 3.0)):
            ref = simpson(lambda s: np.exp(lam * (t - s)) * np.real(ls.characteristic(dist, s))
                          * np.exp(-1j * w * s), 0.0, t)
            assert abs(ls.drive_weight(dist, lam, w, t) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("field, value", [("center", math.nan), ("center", math.inf),
                                          ("width", math.nan), ("width", math.inf)])
def test_non_finite_distribution_rejected(field, value):
    args = {"center": 1.0, "width": 1.0, field: value}
    for kind in ("lorentzian", "gaussian"):
        with pytest.raises(ValidationError, match=field):
            ls.FrequencyDistribution(kind, args["center"], args["width"])
