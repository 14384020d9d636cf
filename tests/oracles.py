"""Slow independent routes the tests check the library against.

Composite Simpson integration with node doubling, and the wavefunction
(time-dependent perturbation theory) transition probabilities of a pure
initial state.  None of these is part of the package: each is a reference
for a closed form or a master-equation rate.
"""

import numpy as np
import scipy.integrate

from spinlind.errors import AccuracyError
from spinlind.numutil import max_abs


def simpson_doubling(f, a: float, b: float, *, rtol: float = 1e-9,
                     atol: float = 0.0, n0: int = 16, max_n: int = 1 << 22):
    """Composite Simpson integration with interval doubling until converged.

    ``f`` must accept a 1-D array of nodes; it may return scalars per node or
    arrays of any trailing shape (integration runs over the leading axis).
    """
    if b == a:
        probe = np.asarray(f(np.asarray([a])))
        return np.zeros(probe.shape[1:], dtype=probe.dtype) if probe.ndim > 1 else 0.0

    def _simpson(n):
        x = np.linspace(a, b, n + 1)
        y = np.asarray(f(x))
        h = (b - a) / n
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w = w * (h / 3.0)
        return np.tensordot(w, y, axes=(0, 0))

    n = n0 if n0 % 2 == 0 else n0 + 1
    prev = _simpson(n)
    while n <= max_n:
        n *= 2
        cur = _simpson(n)
        err = max_abs(cur - prev)
        if err <= max(atol, rtol * max(max_abs(cur), 1e-300)):
            return cur
        prev = cur
    raise AccuracyError(f"Simpson rule did not converge on [{a}, {b}] with {max_n} panels")



def wavefunction_oracle(energies: np.ndarray, h_prime, k0: int, k: int,
                        t_o: float, t: float, *, rtol: float = 1e-9,
                        n0: int = 16) -> float:
    """Second-order transition probability |a_k(t)|^2 for a pure initial state.

    ``h_prime`` must map an array of times to stacked Hermitian drive
    matrices of shape (nt, D, D).  For ``k == k0`` this returns the
    first-order diagonal value (1.0); use :func:`wavefunction_distribution`
    for the second-order-corrected full distribution.  For strongly
    oscillatory drives pass an ``n0`` that already resolves the fastest
    phase, so the node-doubling convergence check is meaningful.
    """
    energies = np.asarray(energies, dtype=float)
    if k == k0:
        return 1.0
    omega = energies[k0] - energies[k]

    def integrand(ts):
        hs = np.asarray(h_prime(np.asarray(ts)))
        return np.exp(-1j * (np.asarray(ts) - t_o) * omega) * hs[:, k, k0]

    amp = simpson_doubling(integrand, t_o, t, rtol=rtol, atol=1e-300,
                           n0=n0)
    return float(abs(amp) ** 2)


def wavefunction_distribution(energies: np.ndarray, h_prime, k0: int,
                              t_o: float, t: float, *, n0: int = 256,
                              rtol: float = 1e-9, max_n: int = 1 << 20) -> np.ndarray:
    """Full second-order |a_k(t)|^2 distribution including the diagonal correction.

    The diagonal receives ``delta - 2 Re[double time-ordered integral] +
    |first-order diagonal integral|^2`` evaluated on a shared grid, so the
    normalization sum rule can be checked numerically.
    """
    energies = np.asarray(energies, dtype=float)
    dim = energies.size

    def evaluate(n):
        ts = np.linspace(t_o, t, n + 1)
        hs = np.asarray(h_prime(ts))
        # f_k(t) = <k|V(t)|k0> in the interaction picture
        phases = np.exp(1j * (ts[:, None] - t_o) * (energies[None, :] - energies[k0]))
        f = phases * hs[:, :, k0]
        first = scipy.integrate.simpson(f, x=ts, axis=0)
        # cumulative_simpson handles real data; run the parts separately
        cumulative = (
            scipy.integrate.cumulative_simpson(f.real, x=ts, initial=0.0, axis=0)
            + 1j * scipy.integrate.cumulative_simpson(f.imag, x=ts, initial=0.0, axis=0)
        )
        double = scipy.integrate.simpson(
            2.0 * np.real(np.conj(f) * cumulative).sum(axis=1), x=ts)
        probs = np.abs(first) ** 2
        probs[k0] += 1.0 - double
        return probs

    n = n0
    prev = evaluate(n)
    while n <= max_n:
        n *= 2
        cur = evaluate(n)
        if max_abs(cur - prev) <= rtol * max(max_abs(cur), 1e-300):
            return cur
        prev = cur
    raise AccuracyError("wavefunction distribution quadrature did not converge")
