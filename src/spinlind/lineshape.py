"""Frequency distribution of the oscillating field and its transforms.

The drive is a superposition of rotating fields whose frequencies follow a
normalized probability density rho_f centered on the carrier frequency.  The
module provides the density itself, its characteristic function phi_f(t)
(which damps the inhomogeneous drive term), its Hilbert transform (which
feeds the Lamb shift) and the envelope integral
int_{t0}^{t1} phi_f(tau) exp(kappa tau) dtau, all in closed form.  The
envelope integral is the one primitive behind the qubit coherence, the
transient response kernels and the time-integrated drive; on the half line
with kappa = -i x it gives pi rho_f(x) - i pi rho^>(x), the pair behind the
dissipator rates and the Lamb shift.

Note on the Lorentzian: the normalized Cauchy density
``(1/pi) (w/2) / ((w/2)^2 + (omega - x)^2)`` (w = FWHM) is used, which is the
density whose characteristic function is ``exp(i omega t - (w/2)|t|)``.
"""

from __future__ import annotations

import cmath
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
    "dissipator_weight",
    "lamb_weight",
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
    """Characteristic function phi_f(t) = int rho_f(w') exp(i w' t) dw'."""
    tt = np.asarray(t, dtype=float)
    carrier = np.exp(1j * dist.center * tt)
    if dist.kind == "lorentzian":
        out = carrier * np.exp(-0.5 * dist.width * np.abs(tt))
    elif dist.kind == "gaussian":
        s = _gauss_sigma(dist)
        out = carrier * np.exp(-0.5 * (s * tt) ** 2)
    else:
        out = carrier
    return out if out.ndim else complex(out)


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


def envelope_integral(dist: FrequencyDistribution, kappa: complex, t0: float,
                      t1: float, *, log_scale: complex = 0.0) -> complex:
    """exp(log_scale) * int_{t0}^{t1} phi_f(tau) exp(kappa tau) dtau, 0 <= t0 <= t1.

    ``t1 = math.inf`` is allowed when phi_f(tau) exp(kappa tau) decays.  A
    caller's prefactor is passed as ``log_scale`` and folded into each term's
    exponent, so the result stays finite where the bare integral would
    overflow (e.g. exp(-kappa t) int_0^t with Re kappa t in the hundreds).

    Lorentzian and delta lines give exponentials.  The Gaussian gives the
    Faddeeva function w(z) = exp(-z^2) erfc(-iz) (Abramowitz & Stegun 7.1):
    with b = kappa + i c and z(tau) = (s^2 tau - b) / (s sqrt 2), each end
    contributes E(tau) w(iz) when Re z >= 0 and 2 C - E(tau) w(-iz) when
    Re z < 0, where E(tau) = exp(b tau - s^2 tau^2 / 2) is the integrand and
    C = exp(b^2 / (2 s^2)); the C terms cancel unless the ends straddle
    Re z = 0, so they are formed only then.  |w| <= 1 on both branches.
    """
    if not 0.0 <= t0 <= t1:
        raise ValidationError("envelope integral needs 0 <= t0 <= t1")
    b = complex(kappa) + 1j * dist.center
    if dist.kind != "gaussian":
        a = b - 0.5 * dist.width
        if math.isinf(t1):
            if not a.real < 0.0:
                raise ValidationError("the envelope does not decay; the integral diverges")
            return -cmath.exp(a * t0 + log_scale) / a
        span = a * (t1 - t0)
        if span == 0.0:
            return cmath.exp(a * t0 + log_scale) * (t1 - t0)
        if abs(span) < 1.0:  # expm1 keeps the small-span difference exact
            return cmath.exp(a * t0 + log_scale) * complex(np.expm1(span)) / a
        return (cmath.exp(a * t1 + log_scale) - cmath.exp(a * t0 + log_scale)) / a

    from scipy.special import wofz

    s = _gauss_sigma(dist)
    root2s = math.sqrt(2.0) * s

    def end(tau):
        """(Re z >= 0, E(tau) w(+-iz)) at one end of the interval."""
        if math.isinf(tau):
            return True, 0.0
        z = (s * s * tau - b) / root2s
        upper = z.real >= 0.0
        w = complex(wofz(1j * z if upper else -1j * z))
        return upper, cmath.exp(b * tau - 0.5 * (s * tau) ** 2 + log_scale) * w

    up0, e0 = end(t0)
    up1, e1 = end(t1)
    if up0:
        val = e0 - e1
    elif not up1:
        val = e1 - e0
    else:
        val = 2.0 * cmath.exp(b * b / (2.0 * s * s) + log_scale) - e0 - e1
    return math.sqrt(0.5 * math.pi) / s * val


def dissipator_weight(dist: FrequencyDistribution, omega_o, b_1: float, sign: int):
    """Stimulated rate 2 pi B1^2 rho_f(sign * omega_o) after the frequency integral.

    Vectorized over ``omega_o``, as is :func:`lamb_weight`.
    """
    if dist.kind == "delta":
        raise ValidationError(
            "a delta line gives no finite dissipator rates; use a finite-width kind"
        )
    return 2.0 * math.pi * b_1 * b_1 * density(dist, sign * omega_o)


def lamb_weight(dist: FrequencyDistribution, omega_o, b_1: float, sign: int):
    """Lamb-shift weight sign * pi B1^2 rho_f^>(sign * omega_o)."""
    return sign * math.pi * b_1 * b_1 * hilbert(dist, sign * omega_o)
