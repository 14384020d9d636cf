"""Frequency distribution of the oscillating field and its transforms.

The drive is a superposition of rotating fields whose frequencies follow a
normalized probability density rho_f centered on the carrier frequency.  The
module provides the density itself, its characteristic function phi_f(t)
(which damps the inhomogeneous drive term), its Hilbert transform (which
feeds the Lamb shift) and the envelope integral
int_{t0}^{t1} phi_f(tau) exp(kappa tau) dtau, all in closed form and
broadcasting over arrays.  The envelope integral is the one primitive behind
the transient linear response (the tails int_t^inf phi_f(tau) e^{-+i w tau}
dtau) and the damped drive weight
int_0^t e^{lam (t-s)} Re[phi_f(s)] e^{-i w s} ds, which in turn gives the
map's drive term, the time-integrated drive and the qubit coherence; on the
half line with kappa = -i x it gives pi rho_f(x) - i pi rho^>(x), the pair
behind the dissipator rates and the Lamb shift.  Past the float range of a
phase, a decayed term is 0 and any other a ValidationError.

Note on the Lorentzian: the normalized Cauchy density
``(1/pi) (w/2) / ((w/2)^2 + (omega - x)^2)`` (w = FWHM) is used, which is the
density whose characteristic function is ``exp(i omega t - (w/2)|t|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, ValidationError

__all__ = [
    "FrequencyDistribution",
    "lorentzian",
    "gaussian",
    "delta_line",
    "density",
    "characteristic",
    "hilbert",
    "relaxation_time",
    "envelope_integral",
    "drive_weight",
]

_KINDS = ("lorentzian", "gaussian", "delta")


@dataclass(frozen=True)
class FrequencyDistribution:
    """Symmetric frequency density of the drive: kind, center, FWHM width."""

    kind: str
    center: float
    width: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        for name in ("center", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "delta":
            if self.width != 0.0:
                raise ValidationError("a delta line has zero width")
        elif not self.width > 0.0:
            raise ValidationError("width (FWHM) must be positive")


def lorentzian(center: float, width: float) -> FrequencyDistribution:
    return FrequencyDistribution("lorentzian", float(center), float(width))


def gaussian(center: float, width: float) -> FrequencyDistribution:
    return FrequencyDistribution("gaussian", float(center), float(width))


def delta_line(center: float) -> FrequencyDistribution:
    return FrequencyDistribution("delta", float(center), 0.0)


def _gauss_sigma(dist: FrequencyDistribution) -> float:
    return dist.width / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _half_square(s, t):
    """(s t)^2 / 2, s > 0, with |s t| held near 1e154: e^{-(s t)^2 / 2} is 0 long before."""
    return 0.5 * (s * np.minimum(np.abs(t), 1e154 / s)) ** 2


def density(dist: FrequencyDistribution, omega_prime):
    """Probability density rho_f evaluated at omega_prime (vectorized)."""
    x = np.asarray(omega_prime, dtype=float)
    if dist.kind == "lorentzian":
        hw = 0.5 * dist.width
        out = (hw / np.pi) / (hw * hw + (dist.center - x) ** 2)
    elif dist.kind == "gaussian":
        s = _gauss_sigma(dist)
        out = np.exp(-0.5 * ((x - dist.center) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    else:  # delta: symbolic spike, zero elsewhere
        out = np.where(x == dist.center, np.inf, 0.0)
    return out if out.ndim else float(out)


def characteristic(dist: FrequencyDistribution, t):
    """Characteristic function phi_f(t) = int rho_f(w') exp(i w' t) dw' (0 where the
    carrier phase c t passes the float range, refused there for a delta line)."""
    tt, envelope = np.asarray(t, dtype=float), None     # a delta line has none
    if dist.kind == "lorentzian":   # |t| capped at 1e308 / w, where e^{-w |t| / 2} is 0 already
        envelope = np.exp(-0.5 * dist.width * np.minimum(np.abs(tt), 1e308 / dist.width))
    elif dist.kind == "gaussian":
        envelope = np.exp(-_half_square(_gauss_sigma(dist), tt))
    out = _cexp(1j * dist.center, tt, envelope)
    return out if out.ndim else complex(out)


def _far(rate, t) -> bool:
    """Whether some phase rate * t may pass the float range: max |rate| * max |t| = inf."""
    big = [float(x.max() if x.ndim else x) for x in map(np.abs, (rate, t)) if x.size]
    return len(big) == 2 and math.isinf(big[0] * big[1])


def _cexp(rate, t, factor=None):
    """exp(rate t) times ``factor`` (1 if None), broadcasting; where :func:`_far` fires, an
    entry whose phase passes the float range must have decayed to 0 (:func:`_settled`)."""
    if _far(rate, t):   # an entry whose phase passes the float range keeps its modulus e^{Re x}
        with np.errstate(over="ignore"):
            x = rate * t
        lost = ~np.isfinite(np.imag(x))
        x = np.where(lost, np.real(x), x)
    else:
        x, lost = rate * t, False
    return _settled(np.exp(x) if factor is None else np.exp(x) * factor, lost)


def _settled(values, lost):
    """``values``, which must be 0 wherever ``lost``: the term has decayed there."""
    if lost is not False and np.any(np.where(lost, values, 0.0) != 0.0):
        raise ValidationError("an undecayed term's phase passes the float range at this t")
    return values


def relaxation_time(dist: FrequencyDistribution) -> float:
    """Time for the envelope of phi_f to decay to 1/e (inf for a delta line)."""
    if dist.kind == "lorentzian":
        return 2.0 / dist.width
    if dist.kind == "gaussian":
        return math.sqrt(2.0) / _gauss_sigma(dist)
    return math.inf


def hilbert(dist: FrequencyDistribution, x):
    """Hilbert transform (1/pi) PV int rho_f(w') / (x - w') dw', closed form, vectorized.

    Lorentzian: the dispersion profile u / (pi (u^2 + (w/2)^2)), u = x - c;
    Gaussian: the Dawson form sqrt(2)/(pi s) D(u / (sqrt(2) s)); delta:
    1/(pi u).
    """
    u = np.asarray(x, dtype=float) - dist.center
    if dist.kind == "lorentzian":
        hw = 0.5 * dist.width
        out = (1.0 / math.pi) * u / (u * u + hw * hw)
    elif dist.kind == "delta":
        if np.any(u == 0.0):
            raise PoleError("Hilbert transform of a delta line diverges at its center")
        out = 1.0 / (math.pi * u)
    else:
        from scipy.special import dawsn

        s = _gauss_sigma(dist)
        out = math.sqrt(2.0) / (math.pi * s) * dawsn(u / (math.sqrt(2.0) * s))
    return out if out.ndim else float(out)


def envelope_integral(dist: FrequencyDistribution, kappa, t0, t1, *, log_scale=0.0):
    """exp(log_scale) * int_{t0}^{t1} phi_f(tau) exp(kappa tau) dtau, 0 <= t0 <= t1.

    Broadcasts over all four arguments; scalars give a complex.  ``t1 = inf``
    is allowed where phi_f(tau) exp(kappa tau) decays; ``t0`` must be finite.
    A caller's prefactor passed as ``log_scale`` is folded into each term's
    exponent, so the result stays finite where the bare integral would
    overflow (e.g. exp(-kappa t) int_0^t with Re kappa t in the hundreds).

    Lorentzian and delta lines give exponentials in a = kappa + i c - w/2:
    e^{a t0} expm1(a (t1 - t0)) / a where |a (t1 - t0)| < 1, else
    (e^{a t1} - e^{a t0}) / a.  The Gaussian gives the Faddeeva function
    w(z) = exp(-z^2) erfc(-iz) (Abramowitz & Stegun 7.1): with b = kappa + i c
    and z(tau) = (s^2 tau - b) / (s sqrt 2), each end contributes E(tau) w(iz)
    when Re z >= 0 and 2 C - E(tau) w(-iz) when Re z < 0, where the integrand
    is E(tau) = exp(b tau - s^2 tau^2 / 2) and C = exp(b^2 / (2 s^2)); the C
    terms cancel unless the ends straddle Re z = 0, so C is formed only on
    those elements (as expm1 sees only small spans).  |w| <= 1 on both branches.
    """
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    if not ((t0 >= 0.0).all() and (t1 >= t0).all() and np.isfinite(t0).all()):
        raise ValidationError("envelope integral needs 0 <= t0 <= t1 with t0 finite")
    gauss = dist.kind == "gaussian"     # a is b for a Gaussian
    a = np.asarray(kappa) + (1j * dist.center - (0.0 if gauss else 0.5 * dist.width))
    inf = np.isinf(t1)
    some_inf = inf.any()
    if some_inf and not gauss and not ((a.real < 0.0) | ~inf).all():
        raise ValidationError("the envelope does not decay; the integral diverges")
    if some_inf:
        t1 = np.where(inf, t0, t1)      # an infinite end contributes 0 (set below)
    if _far(a, t1) or gauss and _far(_gauss_sigma(dist) ** 2, t1):
        # a lost end has decayed (:func:`_lost_end`): 0, as an infinite end; at t0, all is 0
        gone, late = (_lost_end(dist, a, tau, log_scale) for tau in (t0, t1))
        t0, log_scale = np.where(gone, 0.0, t0), np.where(gone, -np.inf, log_scale)
        inf = inf | late | gone
        t1, some_inf = np.where(inf, t0, t1), inf.any()
    # from t0 = 0 the start term's exponential is exp(log_scale) alone, taken
    # once per element of log_scale rather than of kappa
    from_zero = not t0.any()
    if not gauss:
        length = t1 - t0
        span = a * length
        e0 = np.exp(log_scale if from_zero else a * t0 + log_scale)
        small = np.abs(span) < 1.0
        every = small.all()
        num = e0 * np.expm1(span if every else np.where(small, span, 0.0))
        if not every:
            num = np.where(small, num, np.exp(a * t1 + log_scale) - e0)
        if some_inf:
            num = np.where(inf, -e0, num)
        nonzero = a != 0.0      # e0 (t1 - t0) is the a -> 0 limit
        out = num / a if nonzero.all() else np.where(
            nonzero, num / np.where(nonzero, a, 1.0), e0 * length)
        return out if out.ndim else complex(out)

    from scipy.special import wofz

    s = _gauss_sigma(dist)
    root2s = math.sqrt(2.0) * s

    def end(tau, exponent):
        """(Re z >= 0, E(tau) w(+-iz)) at each element of one end, E(tau) = exp(exponent)."""
        z = (s * s * tau - a) / root2s
        upper = z.real >= 0.0
        w = wofz(np.where(upper, 1j * z, -1j * z))
        return upper, np.exp(exponent) * w

    up0, e0 = end(t0, log_scale if from_zero else a * t0 - _half_square(s, t0) + log_scale)
    up1, e1 = end(t1, a * t1 - _half_square(s, t1) + log_scale)
    if some_inf:
        up1, e1 = up1 | inf, np.where(inf, 0.0, e1)
    val = np.where(up0, e0 - e1, e1 - e0)
    straddle = up1 & ~up0
    if straddle.any():
        c = np.exp(np.where(straddle, a * a / (2.0 * s * s) + log_scale, 0.0))
        val = np.where(straddle, 2.0 * c - e0 - e1, val)
    out = math.sqrt(0.5 * math.pi) / s * val
    return out if out.ndim else complex(out)


def _lost_end(dist: FrequencyDistribution, a, tau, log_scale):
    """Where the end term at ``tau``, or a Gaussian's z(tau), passes the float range."""
    gauss, s = dist.kind == "gaussian", _gauss_sigma(dist)
    with np.errstate(over="ignore", invalid="ignore"):
        x = a * tau + log_scale - (_half_square(s, tau) if gauss else 0.0)
        lost = ~np.isfinite(x) | gauss & np.isinf(s * s * tau)
        _settled(np.exp(x.real), lost)
    return lost


def drive_weight(dist: FrequencyDistribution, lam, w, t):
    """W(lam, w, t) = int_0^t e^{lam (t-s)} Re[phi_f(s)] e^{-i w s} ds in closed form.

    Broadcasts over ``lam``, ``w`` and ``t``; scalars give a complex.  Since
    conj phi_f(s) = phi_f(s) e^{-2 i c s}, it is (1/2) [I(kappa) + I(kappa - 2 i c)],
    kappa = -i w - lam, with I the envelope integral over [0, t] and e^{lam t}
    folded into its exponent: both halves in one call, on a trailing axis,
    sharing the start term e^{lam t}, taken once per element.
    """
    t, lam = np.asarray(t, dtype=float)[..., None], np.asarray(lam)[..., None]
    kappa = -1j * np.asarray(w)[..., None] - lam - np.array([0.0, 2j * dist.center])
    with np.errstate(over="ignore"):    # it overflows only where _far fires: settled below
        log_scale = lam * t
    if _far(lam, t):    # where lam t passes the float range, e^{lam t} and phi_f(t) decayed: 0
        lost = ~np.isfinite(log_scale)
        _settled(np.exp(log_scale.real) + np.abs(characteristic(dist, t)), lost)
        t, log_scale = np.where(lost, 0.0, t), np.where(lost, -np.inf, log_scale)
    pair = envelope_integral(dist, kappa, 0.0, t, log_scale=log_scale)
    out = 0.5 * (pair[..., 0] + pair[..., 1])
    return out if out.ndim else complex(out)
