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
All orders up to n come exactly from matrix exponentials of block-bidiagonal
matrices (Van Loan's construction), with no quadrature.  Z0 is diagonal and
X conserves total M, so Y^(n) has no element between two connected
components of X's nonzero pattern, and each component takes its own
exponential, of (n + 1) times its size.
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
    real conjugation exp(u Z0) X exp(-u Z0).  ``s`` must be finite.
    """
    s = complex(s)
    if not np.isfinite(s):
        raise ValidationError(f"s must be finite, got {s}")
    x = build_x(system)
    eps = _levels(system, b_o)
    gaps = eps[:, None] - eps[None, :]
    return x * np.exp(-1j * s * gaps)


def _check_ladder(b_o: float, order: int, beta: float) -> None:
    """Refuse a non-finite field or beta, or an order above MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValidationError(f"nested integrals are capped at order {MAX_ORDER}")
    for name, value in (("b_o", b_o), ("beta", beta)):
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def _y_ladder(eps: np.ndarray, x: np.ndarray, order: int, beta: float) -> list:
    """[Y^(0), ..., Y^(order)] at i beta, for Z0 = diag(eps) and the flip-flop X.

    Y^(n) vanishes between the connected components of X's nonzero pattern
    (:func:`numutil._components`).  Each component takes one exponential of
    the block-bidiagonal matrix with -beta Z0 in every diagonal block and
    -beta X in every block above the diagonal, both restricted to the
    component; block (0, n) of its exponential is exp(-beta Z0) Y^(n) there
    (Van Loan, IEEE TAC 23 (1978) 395), scattered into the (D, D) Y^(n).  Z0
    is shifted to the middle of the component's own spectrum, which leaves
    Y^(n) unchanged and keeps both exponentials in range.  A component whose
    X block is zero has Y^(n) = 0 for n >= 1 and takes no exponential.  X
    has real couplings (:func:`spincore.build_x`), so only its real part is
    read and every exponential is real.  No input is validated here.
    """
    x = x.real
    dim, k = eps.size, order + 1
    ys = [np.eye(dim, dtype=complex)] + [np.zeros((dim, dim), dtype=complex)
                                         for _ in range(order)]
    label = numutil._components(x)
    blocks = np.arange(k)
    for root in np.flatnonzero(label == np.arange(dim)).tolist():   # a component's least index
        idx = np.flatnonzero(label == root)
        at = np.ix_(idx, idx)
        sub = x[at]
        if not sub.any():
            continue
        e = eps[idx] - 0.5 * (eps[idx].max() + eps[idx].min())
        m = idx.size
        gen = np.zeros((k, m, k, m))
        gen[blocks, :, blocks, :] = np.diag(-beta * e)
        gen[blocks[:-1], :, blocks[1:], :] = -beta * sub
        top = np.exp(beta * e)[:, None] * numutil.expm(gen.reshape(k * m, k * m))[:m]
        for n in range(1, k):
            ys[n][at] = top[:, n * m:(n + 1) * m]
    return ys


def y_nested(system: SpinSystem, b_o: float, n: int, beta: float) -> np.ndarray:
    """Matrix of Y^(n)(i beta), exact to rounding."""
    if _whole(n, "order") < 0:
        raise ValidationError("order must be nonnegative")
    _check_ladder(b_o, n, beta)
    return _y_ladder(level_data(system, b_o).energies, build_x(system), n, beta)[n]


def y_moment(system: SpinSystem, b_o: float, n: int, beta: float) -> complex:
    """<Y^(n)(i beta)>_0, the thermal average against the order-0 state."""
    return moments_up_to(system, b_o, n, beta).values[-1]


def moments_up_to(system: SpinSystem, b_o: float, order: int,
                  beta: float) -> AcpMoments:
    if _whole(order, "order") < 1:
        raise ValidationError(f"moments are defined for order >= 1, got {order}")
    return _thermal_ladder(system, b_o, order, beta)[2]


def _thermal_ladder(system: SpinSystem, b_o: float, order: int, beta: float):
    """The Boltzmann populations p, [Y^(0), ..., Y^(order)] at i beta and their moments.

    <Y^(n)>_0 = sum_a p_a Y^(n)_aa, as rho0 = diag(p)."""
    _check_ladder(b_o, order, beta)
    eps = level_data(system, b_o).energies
    ys = _y_ladder(eps, build_x(system), order, beta)
    p = np.diagonal(boltzmann_state(eps, beta)).copy()
    return p, ys, AcpMoments([(p * np.diagonal(y)).sum() for y in ys[1:]])


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
    p, ys, moments = _thermal_ladder(system, b_o, n, beta)
    zetas = zeta_recursive(moments).zetas
    out = np.zeros_like(ys[0])
    for n_prime in range(n + 1):
        out = out + zetas[n_prime] * (p[:, None] * ys[n - n_prime])   # rho0 Y, rho0 diagonal
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
