"""Linear response of a general multispin system in the relaxation-free limit.

With the semigroup part switched off and an equilibrium start, the change of
any observable X under the drive is governed by frequency response kernels
built from a single thermal commutator average,

    g = <[X, xi^x(+1, w0)]>_0 = <[X^dag(+1, w0), xi^x(+1, w0)]>_0,

through ``chi_{+-, w0, inf}(w') = g / ((+-w' - w0) + i 0+)``, i.e. a
principal-value kernel plus a (-i pi g)-weighted delta.  Deltas and PV
kernels are carried symbolically as weight/location records.  One function,
:func:`rho_integral`, takes the density integral of any kernel in closed form:
a Hilbert transform and a density value for a steady one, the tail
i g int_t^inf phi_f(+-tau) e^{-i w0 tau} dtau of the envelope integral for a transient one.
Every block sum runs over the entries of the model's ``ladder`` table, with
no dense block; the drive amplitude and density play no part in the kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lineshape import FrequencyDistribution, density, envelope_integral, hilbert
from .mastereq import MasterEquationModel, _map_time

__all__ = [
    "ChiKernel",
    "commutator_average",
    "chi_infinity",
    "chi_transient",
    "rho_integral",
    "steady_magnetization",
    "absorbed_power",
    "PowerLine",
]


def commutator_average(model: MasterEquationModel, x_op: np.ndarray,
                       omega_o: float) -> complex:
    """Thermal average <[X, xi^x(+1, w0)]>_0 (zero when no such block exists).

    The block is the one whose frequency is nearest ``omega_o``, provided it
    lies within the ladder's ``gap_atol`` of it; the average is
    Tr(xi_w [rho0, X]), summed over the block's entries.  rho0 is diagonal,
    so [rho0, X][c, r] = (P_c - P_r) X[c, r] with P its populations.  A
    non-finite ``omega_o`` or entry of X, or an X that is not (D, D), is a
    ValidationError.
    """
    x_op = np.asarray(x_op)
    if x_op.shape != (model.dim, model.dim):
        raise ValidationError(f"X must have shape {(model.dim, model.dim)}, got {x_op.shape}")
    if not (math.isfinite(omega_o) and np.all(np.isfinite(x_op))):
        raise ValidationError(f"omega_o and X must be finite, got omega_o = {omega_o}")
    ladder = model.ladder
    near = np.abs(ladder.omegas - omega_o)
    if not (near.size and near.min() <= ladder.gap_atol):
        return 0.0 + 0.0j
    lo, hi = np.searchsorted(ladder.block, int(np.argmin(near)) + np.arange(2))
    rows, cols = ladder.rows[lo:hi], ladder.cols[lo:hi]
    pops = np.real(np.diagonal(model.boltzmann))
    comm = (pops[cols] - pops[rows]) * x_op[cols, rows]
    return complex(np.sum(ladder.values[lo:hi] * comm))


@dataclass(frozen=True)
class ChiKernel:
    """Symbolic response value: PV kernel weight plus delta weight/location.

    chi(w') = pv_weight * PV(1/(sign*w' - w0)) + delta_weight * delta(w' - delta_location)

    The real/imaginary closed-form splits for Hermitian X follow from the
    complex weights (Re chi pairs Re g with the PV kernel and Im g with the
    delta, Im chi the other way around with a sign).  ``sign`` must be +1 or
    -1; every kernel, steady or transient, is refused otherwise.
    """

    omega_o: float
    sign: int
    commutator_avg: complex
    transient_time: float | None = None

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign!r}")

    @property
    def pv_weight(self) -> complex:
        g = self.commutator_avg
        return -g if self.transient_time is not None else g

    @property
    def delta_weight(self) -> complex:
        g = self.commutator_avg
        w = -1j * math.pi * g
        return -w if self.transient_time is not None else w

    @property
    def delta_location(self) -> float:
        # sign * w' = w0  =>  w' = sign * w0
        return self.sign * self.omega_o


def chi_infinity(model: MasterEquationModel, x_op: np.ndarray, omega_o: float,
                 sign: int) -> ChiKernel:
    """Steady-state response kernel chi_{sign, w0, inf}."""
    g = commutator_average(model, x_op, omega_o)
    return ChiKernel(omega_o=omega_o, sign=sign, commutator_avg=g)


def chi_transient(model: MasterEquationModel, x_op: np.ndarray, omega_o: float,
                  sign: int, t: float) -> ChiKernel:
    """Transient kernel: minus the steady kernel with phase exp(i(sign*w'-w0)t).

    At t = 0 the pieces are the exact negatives of :func:`chi_infinity`.
    """
    t = _map_time(t)
    g = commutator_average(model, x_op, omega_o)
    return ChiKernel(omega_o=omega_o, sign=sign, commutator_avg=g,
                     transient_time=t)


def rho_integral(kernel: ChiKernel, dist: FrequencyDistribution) -> complex:
    """Frequency-density integral of a kernel, in closed form.

    A steady kernel's PV piece becomes a Hilbert-transform evaluation and its
    delta piece a density evaluation: g [ -s pi rho^>(s w0) - i pi rho_f(s w0) ],
    s the sign.  A transient kernel's integral -g [ PV int rho_f(w')
    e^{i(s w' - w0)t}/(s w' - w0) dw' - i pi rho_f(s w0) ] equals the tail
    i g int_t^inf phi_f(s tau) e^{-i w0 tau} dtau, an envelope integral that
    decays with the field's relaxation time and carries no cancellation at
    large t.  A delta line never decays, so it is refused for a transient kernel.
    """
    s, w0, t = kernel.sign, kernel.omega_o, kernel.transient_time
    if t is None:
        pv = -s * math.pi * hilbert(dist, s * w0)
        return kernel.commutator_avg * (pv - 1j * math.pi * float(density(dist, s * w0)))
    if dist.kind == "delta":
        raise ValidationError("a delta line has no decaying transient; use a finite-width kind")
    if s == 1:
        tail = envelope_integral(dist, -1j * w0, t, math.inf)
    else:  # phi_f(-tau) = conj phi_f(tau) for a real density
        tail = envelope_integral(dist, 1j * w0, t, math.inf).conjugate()
    return 1j * kernel.commutator_avg * tail


def steady_magnetization(model: MasterEquationModel, t: float) -> float:
    """Steady-limit transverse magnetization under the drive (relaxation-free), per unit N/V.

    Assembles 2 B1 int dw' rho_f(w') sum_w0 [cos(w0 t) chi' + sin(w0 t) chi''] from the steady
    kernels of M_x = -xi^x, whose density integrals are Hilbert transforms and density values
    (:func:`rho_integral`), one call of each over the block frequencies w0 and -w0 concatenated.
    The commutator average of block w, g = Tr(xi_w [rho0, M_x]), is its population flow
    (:func:`_flows`), real by construction: rho0 is diagonal and M_x[b, a] = -conj(xi_w[a, b]).
    """
    t = _map_time(t)
    g, w0, dist = _flows(model), model.ladder.omegas, model.field.dist
    both, k = np.concatenate([w0, -w0]), w0.size
    h, rho = hilbert(dist, both), density(dist, both)
    # the two steady branches summed: g [pi (rho^>(-w0) - rho^>(w0)) - i pi (rho_f(+-w0))]
    branches = g * math.pi * ((h[k:] - h[:k]) - 1j * (rho[:k] + rho[k:]))
    chi_p, chi_pp = branches.real, -branches.imag   # rho_f integrals of chi', chi''
    return 2.0 * model.field.b_1 * float(np.sum(np.cos(w0 * t) * chi_p
                                                + np.sin(w0 * t) * chi_pp))


@dataclass(frozen=True)
class PowerLine:
    omega_o: float
    power: float


def absorbed_power(model: MasterEquationModel):
    """Absorbed power per unit N/V and its per-frequency decomposition.

    P = sum_w0 w0 sum_{n,n'} (P_n - P_n') Gamma_{n,n'}(w0) over the
    canonical (+1)-step transition entries: per block, w0 (g+ + g-) times
    sum_ab |xi_w0[a, b]|^2 (P_a - P_b).  The total is the sum of the lines.
    """
    omegas = model.ladder.omegas
    powers = omegas * (model.rates_plus + model.rates_minus) * _flows(model)
    lines = tuple(map(PowerLine, omegas.tolist(), powers.tolist()))
    return sum((line.power for line in lines), 0.0), lines


def _flows(model: MasterEquationModel) -> np.ndarray:
    """sum_ab |xi_w[a, b]|^2 (P_a - P_b) per block, one bincount over the entries."""
    ladder = model.ladder
    pops = np.real(np.diag(model.boltzmann))
    flow = np.abs(ladder.values) ** 2 * (pops[ladder.rows] - pops[ladder.cols])
    return np.bincount(ladder.block, flow, ladder.omegas.size)
