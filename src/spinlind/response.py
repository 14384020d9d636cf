"""Linear response of a general multispin system in the relaxation-free limit.

With the semigroup part off and an equilibrium start, the drive moves an
observable X through one thermal commutator average per ladder block w,
g_w = <[X, xi^x(+1, w)]>_0 = Tr(xi_w [rho0, X]), in the steady kernels
g_w / ((+-w' - w) + i 0+) (principal value plus a (-i pi g_w)-weighted delta)
and the transient kernels that cancel them at t = 0 and decay with the
field.  Their density integrals are Hilbert transforms and density values,
and the envelope-integral tails i g_w int_t^inf phi_f(+-tau) e^{-i w tau} dtau.
For M_x = -xi^x, g_w is block w's population flow (:func:`_flows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lineshape import _far, density, envelope_integral, hilbert
from .mastereq import MasterEquationModel, _map_times

__all__ = ["magnetization", "steady_magnetization", "absorbed_power", "PowerLine"]


def magnetization(model: MasterEquationModel, t):
    """Transverse magnetization under the drive in linear response (relaxation-free), per unit N/V.

    ``t`` is one finite time >= 0 (a float) or a 1-D array of them (an array).  To
    :func:`steady_magnetization` it adds the transient kernels, 2 B1 sum_w Re[e^{iwt} i g_w
    (T+ + conj T-)] with T+- = int_t^inf phi_f(tau) e^{-+i w tau} dtau from one envelope
    integral over the (times x 2K) table: 0 at t = 0, refused for a delta line.
    """
    steady, times = steady_magnetization(model, t), _map_times(t)
    g, w0 = _flows(model), model.ladder.omegas
    plus, minus = np.split(envelope_integral(model.field.dist, 1j * np.concatenate([-w0, w0]),
                                             times[..., None], math.inf), 2, axis=-1)
    transient = np.exp(1j * w0 * times[..., None]) * 1j * g * (plus + minus.conj())
    out = steady + 2.0 * model.field.b_1 * np.sum(transient.real, axis=-1)
    return out if times.ndim else float(out)


def steady_magnetization(model: MasterEquationModel, t):
    """Steady-limit transverse magnetization under the drive (relaxation-free), per unit N/V.

    2 B1 int dw' rho_f(w') sum_w0 [cos(w0 t) chi' + sin(w0 t) chi''] from the steady kernels
    of M_x, one Hilbert and one density call over w0 and -w0; g = Tr(xi_w [rho0, M_x]) is real
    as rho0 is diagonal and M_x[b, a] = -conj(xi_w[a, b]).  ``t`` as for :func:`magnetization`;
    a phase w0 t past the float range, which never decays, is a ValidationError.
    """
    times = _map_times(t)
    g, w0, dist = _flows(model), model.ladder.omegas, model.field.dist
    if _far(w0, times):
        raise ValidationError("a steady phase w0 t passes the float range, and it never decays")
    both, k = np.concatenate([w0, -w0]), w0.size
    h, rho = hilbert(dist, both), density(dist, both)
    # the two steady branches summed: g [pi (rho^>(-w0) - rho^>(w0)) - i pi (rho_f(+-w0))]
    branches = g * math.pi * ((h[k:] - h[:k]) - 1j * (rho[:k] + rho[k:]))
    chi_p, chi_pp = branches.real, -branches.imag   # rho_f integrals of chi', chi''
    wt = w0 * times[..., None]
    out = 2.0 * model.field.b_1 * np.sum(np.cos(wt) * chi_p + np.sin(wt) * chi_pp, axis=-1)
    return out if times.ndim else float(out)


@dataclass(frozen=True)
class PowerLine:
    omega_o: float
    power: float


def absorbed_power(model: MasterEquationModel):
    """Absorbed power per unit N/V and its per-frequency decomposition.

    P = sum_w0 w0 sum_{n,n'} (P_n - P_n') Gamma_{n,n'}(w0) over the
    canonical (+1)-step transition entries: per block, w0 g_w0 (the block's rate) times
    sum_ab |xi_w0[a, b]|^2 (P_a - P_b).  The total is the sum of the lines.
    """
    omegas = model.ladder.omegas
    powers = omegas * model.rates * _flows(model)
    lines = tuple(map(PowerLine, omegas.tolist(), powers.tolist()))
    return sum((line.power for line in lines), 0.0), lines


def _flows(model: MasterEquationModel) -> np.ndarray:
    """sum_ab |xi_w[a, b]|^2 (P_a - P_b) per block, one bincount over the entries."""
    ladder = model.ladder
    pops = np.real(np.diag(model.boltzmann))
    flow = np.abs(ladder.values) ** 2 * (pops[ladder.rows] - pops[ladder.cols])
    return np.bincount(ladder.block, flow, ladder.omegas.size)
