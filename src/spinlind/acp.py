"""Thermal perturbation bookkeeping around the diagonal Hamiltonian.

The flip-flop term X is moved against the diagonal part Z0 before expanding,
so corrections appear already in the initial state.  The machinery consists
of imaginary-time-ordered integrals Y^(n)(i beta), their thermal averages,
normalization coefficients zeta_n (computed both by recursion and as upper
Hessenberg determinants), the initial-state corrections of each order, and the
order-n equation of motion with a caller-supplied inhomogeneity, integrated
by the shared RK4 stepper of :mod:`spinlind.mastereq`.

Y^(n)(i beta) is evaluated along the imaginary axis, where it reduces to
``(-1)^n`` times the ordered simplex integral of products of
``X(iu) = exp(u Z0) X exp(-u Z0)`` over ``beta >= u_1 >= ... >= u_n >= 0``;
summing ``exp(-beta Z0) Y^(n)`` over n reproduces the full Gibbs operator.
All orders up to n come exactly from one matrix exponential of a
block-bidiagonal matrix (Van Loan's construction), with no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import numutil
from .errors import AccuracyError, ValidationError
from .spincore import SpinSystem, _whole, boltzmann_state, build_x, level_data

if TYPE_CHECKING:
    from .mastereq import MasterEquationModel, Trajectory

__all__ = [
    "AcpMoments",
    "ZetaCoefficients",
    "x_interaction",
    "y_nested",
    "y_moment",
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
        object.__setattr__(self, "values", tuple(complex(v) for v in values))

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

    @property
    def order(self) -> int:
        return len(self.zetas) - 1


def _levels(system: SpinSystem, b_o: float) -> np.ndarray:
    """Diagonal of Z0, after rejecting a non-finite field."""
    if not np.isfinite(b_o):
        raise ValidationError(f"b_o must be finite, got {b_o}")
    return level_data(system, b_o).energies


def x_interaction(system: SpinSystem, b_o: float, s: complex) -> np.ndarray:
    """X(s) = exp(-i s Z0) X exp(i s Z0), exact via diagonal phases.

    Real ``s`` gives oscillating phases; imaginary ``s = i u`` gives the
    real conjugation exp(u Z0) X exp(-u Z0).
    """
    x = build_x(system)
    eps = _levels(system, b_o)
    gaps = eps[:, None] - eps[None, :]
    return x * np.exp(-1j * complex(s) * gaps)


def _y_ladder(eps: np.ndarray, x: np.ndarray, order: int, beta: float) -> list:
    """[Y^(0), ..., Y^(order)] at i beta, for Z0 = diag(eps) and the flip-flop X.

    One exponential of the block-bidiagonal matrix with -beta Z0 in every
    diagonal block and -beta X in every block above the diagonal; block
    (0, n) of its exponential is exp(-beta Z0) Y^(n) (Van Loan, IEEE TAC 23
    (1978) 395).  Z0 is shifted to the middle of its spectrum, which leaves
    Y^(n) unchanged and keeps both exponentials in range.
    """
    if order > MAX_ORDER:
        raise ValidationError(f"nested integrals are capped at order {MAX_ORDER}")
    if not np.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")
    eps = eps - 0.5 * (eps.max() + eps.min())
    dim, k = eps.size, order + 1
    gen = np.zeros((k, dim, k, dim), dtype=complex)
    blocks = np.arange(k)
    gen[blocks, :, blocks, :] = np.diag(-beta * eps)
    gen[blocks[:-1], :, blocks[1:], :] = -beta * x
    top = np.exp(beta * eps)[:, None] * numutil.expm(gen.reshape(k * dim, k * dim))[:dim]
    return [np.eye(dim, dtype=complex)] + [top[:, n * dim:(n + 1) * dim]
                                           for n in range(1, k)]


def y_nested(system: SpinSystem, b_o: float, n: int, beta: float) -> np.ndarray:
    """Matrix of Y^(n)(i beta), exact to rounding."""
    if _whole(n, "order") < 0:
        raise ValidationError("order must be nonnegative")
    return _y_ladder(_levels(system, b_o), build_x(system), n, beta)[n]


def y_moment(system: SpinSystem, b_o: float, n: int, beta: float) -> complex:
    """<Y^(n)(i beta)>_0, the thermal average against the order-0 state."""
    return moments_up_to(system, b_o, n, beta).values[-1]


def moments_up_to(system: SpinSystem, b_o: float, order: int,
                  beta: float) -> AcpMoments:
    if _whole(order, "order") < 1:
        raise ValidationError(f"moments are defined for order >= 1, got {order}")
    return _thermal_ladder(system, b_o, order, beta)[2]


def _thermal_ladder(system: SpinSystem, b_o: float, order: int, beta: float):
    """The Boltzmann state rho0, [Y^(0), ..., Y^(order)] at i beta and their moments."""
    eps = _levels(system, b_o)
    ys = _y_ladder(eps, build_x(system), order, beta)
    rho0 = boltzmann_state(eps, beta)
    return rho0, ys, AcpMoments([np.trace(rho0 @ y) for y in ys[1:]])


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
    h = np.zeros((n, n), dtype=complex)
    for i in range(n):
        if i > 0:
            h[i, i - 1] = 1.0
        for j in range(i, n):
            h[i, j] = y[j - i]
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
        return boltzmann_state(_levels(system, b_o), beta)
    rho0, ys, moments = _thermal_ladder(system, b_o, n, beta)
    zetas = zeta_recursive(moments).zetas
    out = np.zeros_like(rho0)
    for n_prime in range(n + 1):
        out = out + zetas[n_prime] * (rho0 @ ys[n - n_prime])
    residual = numutil.max_abs(out - out.conj().T)
    scale = max(numutil.max_abs(out), 1e-300)
    if herm_report is not None:
        herm_report.append(residual / scale)
    if residual > 1e-6 * scale:
        raise AccuracyError(
            f"order-{n} correction lost Hermiticity (residual {residual / scale:.2e})"
        )
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
        if not abs(complex(np.trace(g))) <= 1e-9 * max(numutil.max_abs(g), scale):
            raise ValidationError("inhomogeneity callback output must be finite and traceless")
        return g

    return _rk4(model, rho_n0, t_end, dt, store_every, g_checked)
