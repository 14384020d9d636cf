"""Multispin Hilbert spaces, spin operators and static Hamiltonians.

Conventions used throughout the package:

- hbar = 1; energies and frequencies are angular (rad/s).
- Magnetic fields are in Gauss, gyromagnetic ratios in rad s^-1 G^-1.
- The negative total magnetic moment enters all couplings:
  ``xi^a = -sum_i gamma_i S_i^a``.
- Basis states are labeled by boson-style occupations n_i = j_i - m_i
  (n = 0 is the maximal projection m = +j) and ordered by the compressed
  index ``k = sum_i W_i n_i`` with mixed-radix weights W (last spin fastest).

Operators come from index arithmetic on the occupation table n_i(k) =
(k // W_i) mod d_i, not Kronecker products: Sz_i is the diagonal j_i - n_i(k),
and a single-spin matrix s at site i puts s[r, n_i(k)] in row
k + (r - n_i(k)) W_i of column k (S+_i on (k - W_i, k), S-_i on (k + W_i, k)).

The static Hamiltonian splits into a part diagonal in this basis,
``Z0 = B_o xi^z + sum_{i>j} T_ij Sz_i Sz_j``, and the flip-flop remainder
``X = 1/2 sum_{i>j} T_ij (S+_i S-_j + S-_i S+_j)``; their sum is the full
isotropic Hamiltonian plus Zeeman term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "HBAR",
    "K_BOLTZMANN",
    "MAX_DIM",
    "SpinSystem",
    "LevelData",
    "beta_from_kelvin",
    "compress",
    "decompress",
    "single_spin_matrix",
    "xi_operator",
    "total_sz",
    "build_zo",
    "build_x",
    "spin_spin_hamiltonian",
    "static_hamiltonian",
    "level_data",
    "boltzmann_state",
    "is_hermitian",
    "check_density",
]

HBAR = 1.054571817e-34      # J s   (CODATA 2018)
K_BOLTZMANN = 1.380649e-23  # J / K (exact)

MAX_DIM = 4096


def beta_from_kelvin(temperature: float) -> float:
    """Inverse temperature in s/rad for energies measured in rad/s."""
    k_t = K_BOLTZMANN * float(temperature)
    if not (0 < k_t < math.inf and math.isfinite(HBAR / k_t)):
        raise ValidationError(f"temperature must be positive with finite beta, got {temperature}")
    return HBAR / k_t


def _validate_spin(j: float) -> float:
    if not (0 <= j < math.inf) or abs(2 * j - round(2 * j)) > 1e-12:
        raise ValidationError(f"spin quantum number must be a nonnegative half-integer, got {j}")
    return round(2 * j) / 2.0


@dataclass(frozen=True)
class SpinSystem:
    """An ordered multiset of spins with gyromagnetic ratios and couplings.

    Parameters
    ----------
    spins:
        Spin quantum numbers j_i (nonnegative half-integers).
    gammas:
        Gyromagnetic ratios gamma_i in rad s^-1 G^-1.
    couplings:
        Symmetric coupling matrix T_ij in rad/s with zero diagonal.
    """

    spins: tuple
    gammas: tuple
    couplings: np.ndarray
    dims: tuple = field(init=False, repr=False, compare=False)     # d_i = 2 j_i + 1
    weights: tuple = field(init=False, repr=False, compare=False)  # mixed-radix W_i
    dim: int = field(init=False, repr=False, compare=False)        # prod_i d_i

    def __init__(self, spins: Sequence[float], gammas: Sequence[float],
                 couplings=None):
        spins = tuple(_validate_spin(j) for j in spins)
        gammas = tuple(float(g) for g in gammas)
        n = len(spins)
        if n == 0:
            raise ValidationError("a spin system needs at least one spin")
        if len(gammas) != n:
            raise ValidationError("spins and gammas must have equal length")
        if not all(np.isfinite(gammas)):
            raise ValidationError(f"gammas must be finite, got {gammas}")
        if couplings is None:
            couplings = np.zeros((n, n))
        couplings = np.array(couplings, dtype=float, copy=True)
        if couplings.shape != (n, n):
            raise ValidationError(f"couplings must be {n}x{n}, got {couplings.shape}")
        if not np.all(np.isfinite(couplings)):
            raise ValidationError("couplings must be finite")
        if np.max(np.abs(couplings - couplings.T), initial=0.0) > 0:
            raise ValidationError("couplings must be symmetric")
        if np.max(np.abs(np.diag(couplings)), initial=0.0) > 0:
            raise ValidationError("couplings must have zero diagonal")
        couplings.setflags(write=False)
        dims = tuple(int(round(2 * j)) + 1 for j in spins)
        weights = tuple(math.prod(dims[i + 1:]) for i in range(n))
        dim = weights[0] * dims[0]
        if dim > MAX_DIM:
            raise ValidationError(
                f"Hilbert dimension {dim} exceeds the dense-matrix cap {MAX_DIM}; "
                "use the combinatorial spectrum path for larger systems"
            )
        for name, value in zip(("spins", "gammas", "couplings", "dims", "weights", "dim"),
                               (spins, gammas, couplings, dims, weights, dim)):
            object.__setattr__(self, name, value)

    @property
    def n_spins(self) -> int:
        return len(self.spins)


@dataclass(frozen=True)
class LevelData:
    """Diagonal data of the Z0 eigenbasis: energies and total magnetizations."""

    energies: np.ndarray        # eps_n, rad/s
    magnetizations: np.ndarray  # M_n, dimensionless

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        object.__setattr__(self, "magnetizations",
                           np.asarray(self.magnetizations, dtype=float))
        if self.energies.shape != self.magnetizations.shape:
            raise ValidationError("energies and magnetizations must align")

    @property
    def dim(self) -> int:
        return self.energies.size


def compress(occupations: Sequence[int], spins: Sequence[float]) -> int:
    """Map an occupation tuple to its compressed basis index."""
    spins = tuple(_validate_spin(j) for j in spins)
    if len(occupations) != len(spins):
        raise ValidationError("occupation tuple length does not match the spin list")
    dims = [int(round(2 * j)) + 1 for j in spins]
    idx = 0
    for n, d in zip(occupations, dims):
        n = int(n)
        if not 0 <= n < d:
            raise ValidationError(f"occupation {n} out of range [0, {d - 1}]")
        idx = idx * d + n
    return idx


def decompress(index: int, spins: Sequence[float]) -> tuple:
    """Inverse of :func:`compress`."""
    spins = tuple(_validate_spin(j) for j in spins)
    dims = [int(round(2 * j)) + 1 for j in spins]
    total = math.prod(dims)
    index = int(index)
    if not 0 <= index < total:
        raise ValidationError(f"index {index} out of range [0, {total - 1}]")
    out = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        index, out[i] = divmod(index, dims[i])
    return tuple(out)


def single_spin_matrix(j: float, axis: str) -> np.ndarray:
    """Standard (2j+1)-dim spin matrix in occupation order (m = +j first).

    ``axis`` is one of x, y, z, +, -.
    """
    j = _validate_spin(j)
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)                      # m value of each basis state
    if axis == "z":
        return np.diag(m.astype(complex))
    # S+|j m> = sqrt(j(j+1) - m(m+1)) |j m+1>; raising m lowers the occupation
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)).astype(complex)
    s_plus = np.zeros((d, d), dtype=complex)
    s_plus[np.arange(d - 1), np.arange(1, d)] = ladder
    if axis == "+":
        return s_plus
    if axis == "-":
        return s_plus.conj().T
    if axis == "x":
        return 0.5 * (s_plus + s_plus.conj().T)
    if axis == "y":
        return -0.5j * (s_plus - s_plus.conj().T)
    raise ValidationError(f"unknown axis {axis!r}")


def _occupations(system: SpinSystem) -> np.ndarray:
    """Occupation table n_i(k) = (k // W_i) mod d_i, shape (N, dim)."""
    k = np.arange(system.dim)
    return k // np.array(system.weights)[:, None] % np.array(system.dims)[:, None]


def _scatter(out: np.ndarray, system: SpinSystem, site: int, axis: str,
             coeff: float = 1.0) -> np.ndarray:
    """out += coeff * (single-spin ``axis`` matrix at ``site``), in place.

    Column k receives s[r, n(k)] in row k + (r - n(k)) W for every r, with
    n(k) the occupation of ``site``; no (row, column) pair is written twice.
    """
    s = single_spin_matrix(system.spins[site], axis)
    k, r, w = np.arange(system.dim), np.arange(s.shape[0])[:, None], system.weights[site]
    n = k // w % system.dims[site]
    out[k + (r - n) * w, k] += coeff * s[r, n]
    return out


def xi_operator(system: SpinSystem, axis: str) -> np.ndarray:
    """Negative total magnetic moment along ``axis``: -sum_i gamma_i S_i^axis."""
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for i, g in enumerate(system.gammas):
        _scatter(out, system, i, axis, -g)
    return out


def _sz_diagonals(system: SpinSystem) -> np.ndarray:
    """Stack of the diagonals j_i - n_i of Sz_i for every spin, shape (N, dim)."""
    return np.array(system.spins)[:, None] - _occupations(system)


def total_sz(system: SpinSystem) -> np.ndarray:
    return np.diag(_sz_diagonals(system).sum(0).astype(complex))


def build_zo(system: SpinSystem, b_o: float) -> np.ndarray:
    """Diagonal leading Hamiltonian B_o xi^z + sum_{i>j} T_ij Sz_i Sz_j."""
    return np.diag(level_data(system, b_o).energies.astype(complex))


def _couplings(system: SpinSystem, zz: bool) -> np.ndarray:
    """sum_{i>j} T_ij [(S+_i S-_j + S-_i S+_j) / 2 + (Sz_i Sz_j if ``zz``)].

    S+_i S-_j takes column k to row k - W_i + W_j with the product of the two
    ladder values, wherever n_i(k) >= 1 and n_j(k) < d_j - 1.  Every coupled
    pair is read off the occupation table in one pass, as
    :func:`eigenops.ladder_table` reads xi^x: S+ at m = j - n gives sqrt(j (j + 1)
    - m (m + 1)) and S- gives sqrt(j (j + 1) - (m - 1) m), no dense S+ or S-.
    """
    d = system.dim
    first, second = np.nonzero(np.tril(system.couplings, -1))    # pairs i > j, in loop order
    t = system.couplings[first, second]
    spins, dims, weights = (np.array(a)[:, None] for a in (system.spins, system.dims,
                                                           system.weights))
    occ = _occupations(system)
    m = spins - occ                                               # Sz_i at each (i, k)
    up = np.sqrt(spins * (spins + 1) - m * (m + 1))[first]        # S+ at each (i, k)
    down = np.sqrt(spins * (spins + 1) - (m - 1) * m)[second]     # S- at each (j, k)
    pair, cols = np.nonzero((occ[first] >= 1) & (occ[second] < dims[second] - 1))
    rows = cols - (weights[first] - weights[second])[pair, 0]
    out = np.zeros((d, d), dtype=complex)
    out[rows, cols] = out[cols, rows] = 0.5 * t[pair] * (up[pair, cols] * down[pair, cols])
    if zz:      # the pairs' Sz_i Sz_j added in pair order
        out[np.arange(d), np.arange(d)] = np.add.reduce(t[:, None] * (m[first] * m[second]))
    return out


def build_x(system: SpinSystem) -> np.ndarray:
    """Flip-flop perturbation 1/2 sum_{i>j} T_ij (S+_i S-_j + S-_i S+_j)."""
    return _couplings(system, zz=False)


def spin_spin_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Isotropic coupling sum_{i>j} T_ij S_i . S_j: flip-flop plus Sz_i Sz_j."""
    return _couplings(system, zz=True)


def static_hamiltonian(system: SpinSystem, b_o: float) -> np.ndarray:
    """Full static Hamiltonian: spin-spin coupling plus Zeeman term."""
    return spin_spin_hamiltonian(system) + b_o * xi_operator(system, "z")


def level_data(system: SpinSystem, b_o: float) -> LevelData:
    """Energies (the diagonal of Z0) and magnetizations of the basis states."""
    sz = _sz_diagonals(system)
    energies = -b_o * np.tensordot(np.asarray(system.gammas), sz, axes=(0, 0))
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                energies = energies + t[i, j] * sz[i] * sz[j]
    return LevelData(energies=energies, magnetizations=sz.sum(0))


def boltzmann_state(zo: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta Z0)/Tr for a diagonal Z0."""
    if not np.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")
    zo = np.asarray(zo)
    if zo.ndim == 2:
        off = zo - np.diag(np.diag(zo))
        if np.max(np.abs(off), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(zo))):
            raise ValidationError("boltzmann_state requires a diagonal Hamiltonian")
        diag = np.real(np.diag(zo))
    else:
        diag = np.real(zo)
    # subtract the minimum before exponentiating to avoid overflow
    w = np.exp(-beta * (diag - diag.min() if beta >= 0 else diag - diag.max()))
    w /= w.sum()
    return np.diag(w.astype(complex))


def is_hermitian(a: np.ndarray, rtol: float = 1e-12) -> bool:
    a = np.asarray(a)
    scale = max(np.max(np.abs(a), initial=0.0), 1e-300)
    return np.max(np.abs(a - a.conj().T), initial=0.0) <= rtol * scale


def check_density(rho: np.ndarray, trace_target: float = 1.0, *,
                  herm_rtol: float = 1e-12, trace_atol: float = 1e-10) -> None:
    """Assert the density-matrix contract; raises ValidationError on failure."""
    if not is_hermitian(rho, herm_rtol):
        raise ValidationError("density matrix is not Hermitian to tolerance")
    tr = complex(np.trace(rho))
    if abs(tr - trace_target) > trace_atol:
        raise ValidationError(
            f"density matrix trace {tr:.3e} differs from target {trace_target}"
        )
