"""Thermal perturbation bookkeeping around the diagonal Hamiltonian.

The flip-flop term X is moved against the diagonal part Z0 before expanding,
so corrections appear already in the initial state.  The machinery consists
of imaginary-time-ordered integrals Y^(n)(i beta), their thermal averages,
normalization coefficients zeta_n (computed both by recursion and as upper
Hessenberg determinants), the initial-state corrections of each order, and the
order-n equation of motion with a caller-supplied inhomogeneity, integrated
by the shared RK4 stepper of :mod:`spinlind.mastereq`.

Y^(n)(i beta) is ``(-1)^n`` times the ordered simplex integral of products of
``X(iu) = exp(u Z0) X exp(-u Z0)`` over ``beta >= u_1 >= ... >= u_n >= 0``;
summing ``exp(-beta Z0) Y^(n)`` over n reproduces the full Gibbs operator.
Its one representation is the blocks exp(-beta (Z0 - c)) Y^(n) of each total-M
sector, which X conserves (:func:`_sector_ladder`): all orders exact from one
block-bidiagonal matrix exponential (Van Loan); no dense Y^(n) is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import numutil
from .errors import AccuracyError, ValidationError
from .spincore import SpinSystem, _populations, _whole, boltzmann_state, level_data

if TYPE_CHECKING:
    from .mastereq import MasterEquationModel, Trajectory

__all__ = [
    "AcpMoments",
    "ZetaCoefficients",
    "moments_up_to",
    "zeta_recursive",
    "zeta_determinant",
    "initial_correction",
    "propagate_order_n",
]

MAX_ORDER = 4


@dataclass(frozen=True)
class AcpMoments:
    """Thermal averages <Y^(k)(i beta)>_0 for k = 1..order."""

    values: tuple

    def __init__(self, values: Sequence[complex]):
        values = tuple(complex(v) for v in values)
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"moments must be finite, got {values}")
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ZetaCoefficients:
    """Normalization coefficients zeta_0..zeta_n, zeta_0 = 1."""

    zetas: tuple

    def __init__(self, zetas: Sequence[complex]):
        zetas = tuple(complex(z) for z in zetas)
        if not zetas or zetas[0] != 1.0:
            raise ValidationError("zeta_0 must be 1")
        object.__setattr__(self, "zetas", zetas)


def _sector_ladder(eps: np.ndarray, sectors: list, order: int, beta: float) -> list:
    """(idx, blocks) per total-M sector with X != 0, blocks[n] = exp(-beta (Z0 - c)) Y^(n)(i beta).

    ``sectors`` are the ones a system keeps, ``SpinSystem._sectors``.  blocks[n] is block (0, n)
    of the exponential of the block-bidiagonal matrix with -beta (Z0 - c) on the diagonal
    and -beta X above it (Van Loan, IEEE TAC 23 (1978) 395).  c is the sector's least
    beta eps: no exponent is positive, and p_a Y^(n)_ab = p_c blocks[n]_ab for rho0 =
    diag(p).  Sectors of one size share one stacked exponential; nothing is validated.
    """
    k, out, steps = order + 1, [], np.arange(order + 1)
    live = [sector for sector in sectors if sector[3].size]     # else Y^(n >= 1) = 0
    for m in sorted({sector[0].size for sector in live}):
        group = [sector for sector in live if sector[0].size == m]
        gen = np.zeros((len(group), k, m, k, m))
        for g, (idx, rows, cols, values) in zip(gen, group):
            z, x = beta * eps[idx], np.zeros((m, m))
            x[rows, cols] = x[cols, rows] = -beta * values
            g[steps, :, steps, :] = np.diag(z.min() - z)
            g[steps[:-1], :, steps[1:], :] = x
        top = numutil.expm(gen.reshape(-1, k * m, k * m))[:, :m].reshape(-1, m, k, m)
        out += zip((sector[0] for sector in group), top.transpose(0, 2, 1, 3).copy())
    return out


def _thermal_blocks(system: SpinSystem, b_o: float, order: int, beta: float):
    """Boltzmann populations p, :func:`_sector_ladder` on the sectors ``system`` keeps, and the
    moments <Y^(n)>_0 = sum_a p_a Y^(n)_aa, the blocks' traces weighted by p at their shift.
    ``level_data`` refuses a non-finite B0 and ``_populations`` a non-finite beta."""
    if order > MAX_ORDER:
        raise ValidationError(f"nested integrals are capped at order {MAX_ORDER}")
    eps = level_data(system, b_o)
    p, ladder = _populations(eps, beta), _sector_ladder(eps, system._sectors, order, beta)
    traces = sum((p[idx].max() * np.trace(blocks, axis1=1, axis2=2) for idx, blocks in ladder),
                 np.zeros(order + 1))
    return p, ladder, AcpMoments(traces[1:])


def moments_up_to(system: SpinSystem, b_o: float, order: int,
                  beta: float) -> AcpMoments:
    if _whole(order, "order") < 1:
        raise ValidationError(f"moments are defined for order >= 1, got {order}")
    return _thermal_blocks(system, b_o, order, beta)[2]


def zeta_recursive(moments: AcpMoments) -> ZetaCoefficients:
    """zeta_0 = 1; zeta_n = -sum_{n' < n} zeta_{n'} <Y^(n - n')>_0."""
    y = (0.0,) + moments.values  # y[k] = <Y^(k)>, y[0] unused
    zetas = [1.0 + 0.0j]
    for n in range(1, moments.order + 1):
        zetas.append(-sum(zetas[k] * y[n - k] for k in range(n)))
    return ZetaCoefficients(zetas)


def zeta_determinant(moments: AcpMoments, n: int) -> complex:
    """zeta_n as (-1)^n times an upper Hessenberg (Toeplitz) determinant."""
    if _whole(n, "order") < 1:
        raise ValidationError("the determinant form applies for n >= 1")
    if n > moments.order:
        raise ValidationError(f"need {n} moments, have {moments.order}")
    y = moments.values
    h = np.eye(n, k=-1, dtype=complex)
    for i in range(n):
        h[i, i:] = y[:n - i]
    return complex((-1.0) ** n * np.linalg.det(h))


def initial_correction(system: SpinSystem, b_o: float, n: int, beta: float, *,
                       herm_report: list | None = None) -> np.ndarray:
    """Order-n initial-state correction; the order-0 term is the Boltzmann state.

    For n >= 1 the result is traceless by construction of the zeta
    coefficients; Hermiticity is asserted (the residual is appended to
    ``herm_report`` when a list is supplied) and the Hermitian part returned.
    """
    if _whole(n, "order") < 0:
        raise ValidationError("order must be nonnegative")
    if n == 0:
        return boltzmann_state(level_data(system, b_o), beta)
    p, ladder, moments = _thermal_blocks(system, b_o, n, beta)
    zetas = np.array(zeta_recursive(moments).zetas)
    out = np.diag(zetas[n] * p)                     # zeta_n rho0 Y^(0)
    for idx, blocks in ladder:                      # zeta_n' rho0 Y^(n - n'), n' < n
        terms = zetas[n - 1::-1, None, None] * blocks[1:]
        out[np.ix_(idx, idx)] += p[idx].max() * terms.sum(0)
    residual = numutil.max_abs(out - out.conj().T)
    scale = max(numutil.max_abs(out), 1e-300)
    if herm_report is not None:
        herm_report.append(residual / scale)
    if residual > 1e-6 * scale:
        raise AccuracyError(f"order-{n} correction lost Hermiticity "
                            f"(residual {residual / scale:.2e})")
    return numutil.hermitize(out)


def propagate_order_n(model: MasterEquationModel, n: int,
                      g_callback: Callable[[float], np.ndarray],
                      t_end: float, dt: float | None = None, *,
                      store_every: int | None = None,
                      rho_n0: np.ndarray | None = None) -> Trajectory:
    """Integrate d rho^(n)/dt = A(t) rho^(n)(0) + L rho^(n)(t) + G(t).

    ``g_callback`` supplies the order-n inhomogeneity; its output must be
    traceless (Hermitian traceless corrections stay traceless).  The initial
    correction defaults to the thermal order-n term of the model's system.
    Dimensions above ``mastereq.MAP_DIM_CAP`` are refused before anything is
    computed.
    """
    from .mastereq import _check_domain, _check_map_dim, _rk4  # the moment tables need no model

    if _whole(n, "order") < 1:
        raise ValidationError("use the order-0 propagator for n = 0")
    _check_map_dim(model)
    if rho_n0 is None:
        rho_n0 = initial_correction(model.system, model.field.b_o, n, model.beta)
    _check_domain(model, rho_n0, unsafe=True)       # shape and finiteness only
    rho_n0 = np.array(rho_n0, dtype=complex)
    if not abs(complex(np.trace(rho_n0))) <= 1e-9 * max(1.0, numutil.max_abs(rho_n0)):
        raise ValidationError("order-n initial corrections must be traceless")

    d = model.dim
    scale = max(numutil.max_abs(rho_n0), 1.0)

    def g_checked(t: float) -> np.ndarray:
        g = np.asarray(g_callback(t))
        if g.shape != (d, d):
            raise ValidationError("inhomogeneity callback returned a wrong shape")
        if not (np.isfinite(g).all()
                and abs(complex(np.trace(g))) <= 1e-9 * max(numutil.max_abs(g), scale)):
            raise ValidationError("inhomogeneity callback output must be finite and traceless")
        return g

    return _rk4(model, rho_n0, t_end, dt, store_every, g_checked)
