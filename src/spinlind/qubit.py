"""Closed-form CW dynamics of a driven spin-1/2 ensemble.

With a single spin there is no flip-flop term and the master equation is
exactly solvable.  In the Schrodinger picture,

    <sigma_3(t)> = -tanh(beta w0 / 2) exp(-2 Gamma t)
    <sigma_+(t)> = i w1 tanh(beta w0 / 2)
                   int_0^t exp(-(Gamma + i(varpi - w0))(t - t')) Re[phi_f(t')] dt'

with the stimulated rate ``Gamma = 2 pi (w1/2)^2 [rho_f(w0) + rho_f(-w0)]``
and the Lamb-shift rate ``varpi = 2 pi (w1/2)^2 [rho^>(w0) - rho^>(-w0)]``
(w0 = -gamma B_o is the Larmor frequency, w1 = -gamma B_1).  The transverse
components follow as <sigma_1> = 2 Re<sigma_+>, <sigma_2> = 2 Im<sigma_+>.
The convolution is the damped drive weight W(-kappa, 0, t) of
:func:`lineshape.drive_weight` (exponentials for a Lorentzian line, Faddeeva
functions for a Gaussian), evaluated at one time or a 1-D array of times.

Heisenberg-picture coefficients, dynamic structure factors of sigma-+ and
the adiabatic-limit detailed-balance / fluctuation-dissipation identities
are provided alongside; Dirac deltas are carried as (weight, location)
records so those identities stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lineshape import (FrequencyDistribution, _cexp, characteristic, density, drive_weight,
                        hilbert, lorentzian)
from .mastereq import _map_time, _map_times

__all__ = [
    "SIGMA",
    "QubitParams",
    "trajectory",
    "sigma_plus_expectation",
    "stationary_sigma_plus",
    "heisenberg_coefficients",
    "StructureFactorValue",
    "structure_factor",
    "fdt_check",
]

SIGMA = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class QubitParams:
    """Larmor frequency, drive frequency scale, temperature and line shape."""

    omega_o: float   # -gamma B_o
    omega_1: float   # -gamma B_1
    beta: float
    dist: FrequencyDistribution

    def __post_init__(self):
        for name in ("omega_o", "omega_1"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.beta):       # beta = +inf is the zero-temperature start
            raise ValidationError("beta must not be NaN")

    @classmethod
    def from_field(cls, gamma: float, b_o: float, b_1: float, beta: float,
                   dist: FrequencyDistribution) -> "QubitParams":
        return cls(omega_o=-gamma * b_o, omega_1=-gamma * b_1, beta=beta, dist=dist)

    @property
    def rate(self) -> float:
        """Stimulated transition rate Gamma(w0)."""
        quarter = (0.5 * self.omega_1) ** 2
        return 2.0 * math.pi * quarter * (float(density(self.dist, self.omega_o))
                                          + float(density(self.dist, -self.omega_o)))

    @property
    def varpi(self) -> float:
        """Lamb-shift rate; varpi/2 is the frequency pull of the coherence."""
        quarter = (0.5 * self.omega_1) ** 2
        return 2.0 * math.pi * quarter * (hilbert(self.dist, self.omega_o)
                                          - hilbert(self.dist, -self.omega_o))

    @property
    def thermal_polarization(self) -> float:
        """tanh(beta w0 / 2); 0 for a degenerate pair, maximally mixed at every beta."""
        return math.tanh(0.5 * self.beta * self.omega_o) if self.omega_o else 0.0


def sigma_plus_expectation(params: QubitParams, t):
    """<sigma_+(t)> at one finite t >= 0 (a complex) or a 1-D array of them.

    With kappa = Gamma + i(varpi - w0), the convolution
    exp(-kappa t) int_0^t Re[phi_f(t')] exp(kappa t') dt' is the damped drive
    weight W(-kappa, 0, t) of :func:`lineshape.drive_weight`.
    """
    kappa = params.rate + 1j * (params.varpi - params.omega_o)
    val = drive_weight(params.dist, -kappa, 0.0, _map_times(t))
    return 1j * params.omega_1 * params.thermal_polarization * val


def trajectory(params: QubitParams, t):
    """Bloch vector (<sigma_1>, <sigma_2>, <sigma_3>): floats, or arrays over 1-D times."""
    times = _map_times(t)
    s3 = -params.thermal_polarization * _cexp(-2.0 * params.rate, times)
    sp = sigma_plus_expectation(params, times)
    out = 2.0 * np.real(sp), 2.0 * np.imag(sp), s3
    return out if times.ndim else tuple(map(float, out))


def stationary_sigma_plus(params: QubitParams, t: float) -> complex:
    """Quasi-static coherence -w1 tanh(beta w0/2) Re[phi(t)] / ((w0 - varpi) + i Gamma)."""
    t = _map_time(t)
    gamma = params.rate
    if gamma <= 0:
        raise ValidationError("no stationary state without a finite rate")
    re_phi = float(np.real(characteristic(params.dist, t)))
    denom = (params.omega_o - params.varpi) + 1j * gamma
    return -params.omega_1 * params.thermal_polarization * re_phi / denom


def heisenberg_coefficients(params: QubitParams, t: float,
                            x_op: np.ndarray) -> np.ndarray:
    """Coefficients c_i(t) with X(t) = sum_i c_i(t) sigma_i, for the thermal start.

    Determined through the duality Tr[rho(t) X] = Tr[rho(0) X(t)] with
    rho(0) the Boltzmann state; singular at zero temperature where the
    initial polarization is complete.  ``t`` must be one finite time >= 0 and X a
    finite (2, 2) matrix.  The
    transverse parts of the Bloch vector and of X turn by w0 t, one phase each
    (:func:`lineshape._cexp`); X's never decays, so where w0 t passes the float
    range an X with a transverse part is a ValidationError.
    """
    t, x_op = _map_time(t), np.asarray(x_op)
    if x_op.shape != (2, 2) or not np.all(np.isfinite(x_op)):
        raise ValidationError(f"X must be a finite (2, 2) matrix, got shape {x_op.shape}")
    z0 = -params.thermal_polarization
    if abs(z0) >= 1.0:
        raise ValidationError("zero-temperature start makes the coefficient map singular")

    s1, s2, s3p = trajectory(params, t)
    c0 = np.array([0.5 * np.trace(x_op @ SIGMA[i]) for i in range(4)])
    # s1 + i s2 and X's (c1 + i c2) / 2 turn by e^{-i w0 t}, its (c1 - i c2) / 2 by e^{i w0 t}
    turned, up, down = _cexp(np.array([-1j, -1j, 1j]) * params.omega_o, t, np.array(
        [s1 + 1j * s2, 0.5 * (c0[1] + 1j * c0[2]), 0.5 * (c0[1] - 1j * c0[2])]))
    s1p, s2p = turned.real, turned.imag
    c0[1], c0[2] = up + down, 1j * (down - up)

    denom = 1.0 - z0 * z0
    kappa0 = (1.0 - z0 * s3p) / denom
    kappa1 = 1j * (s2p * z0 - 1j * s1p) / denom
    kappa2 = -1j * (s1p * z0 + 1j * s2p) / denom
    kappa3 = (s3p - z0) / denom
    kappa = np.array([
        [kappa0, kappa1, kappa2, kappa3],
        [kappa1, kappa0, -1j * kappa3, 1j * kappa2],
        [kappa2, 1j * kappa3, kappa0, -1j * kappa1],
        [kappa3, -1j * kappa2, 1j * kappa1, kappa0],
    ])

    return kappa @ c0


@dataclass(frozen=True)
class StructureFactorValue:
    """Delta piece (weight, location) plus the smooth part at the query point."""

    delta_weight: float
    delta_location: float
    smooth: float


def structure_factor(params: QubitParams, which: str,
                     omega_prime: float) -> StructureFactorValue:
    """Dynamic structure factor of sigma-+ ("-+", s = +1) or sigma+- ("+-", s = -1).

    A half-weight delta at s w0 plus s th / 2 times the Lorentzian density of
    FWHM 4 Gamma centered there: the "+-" spectrum mirrors the "-+"
    one, its smooth part with opposite sign.  ``omega_prime`` must be
    finite, ``which`` one of the two labels and the rate Gamma positive.
    """
    if not math.isfinite(omega_prime):
        raise ValidationError(f"omega_prime must be finite, got {omega_prime}")
    s = {"-+": 1, "+-": -1}.get(which)
    if s is None:
        raise ValidationError(f"unknown structure factor label {which!r}")
    gamma = params.rate
    if gamma <= 0:
        raise ValidationError("the smooth part needs a finite rate")
    return StructureFactorValue(
        delta_weight=0.5,
        delta_location=s * params.omega_o,
        smooth=s * 0.5 * params.thermal_polarization
        * density(lorentzian(s * params.omega_o, 4.0 * gamma), omega_prime),
    )


def fdt_check(params: QubitParams) -> dict:
    """Adiabatic-limit detailed balance and fluctuation-dissipation residuals.

    In the adiabatic limit both spectra collapse to pure delta lines with
    weights (1 +- th)/2; the residuals are evaluated on those weights, so
    they vanish to machine precision by construction of the implemented
    forms.  They are taken on the pair ordered by weight, heavy (1 + |th|)/2
    and light (1 - |th|)/2 = e^{-x} heavy with x = |beta w0|, so the factor
    e^{-x} <= 1 stays finite for w0 < 0 (a proton) and at beta = inf.
    """
    th = abs(params.thermal_polarization)
    heavy, light = 0.5 * (1.0 + th), 0.5 * (1.0 - th)
    boltz = math.exp(-abs(params.beta * params.omega_o)) if params.omega_o else 1.0
    detailed_balance = abs(light - boltz * heavy)

    im_chi_weight = math.pi * th              # |Im chi_{-+}|: pi delta(w'-w0) |th|
    fdt = abs(im_chi_weight - math.pi * (1.0 - boltz) * heavy)
    return {"adiabatic_detailed_balance": detailed_balance, "fdt": fdt}
