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
(k // W_i) mod d_i, not Kronecker products: one function tabulates Sz_i = m =
j_i - n_i(k) and the S-_i and S+_i elements sqrt(j (j + 1) - m (m -+ 1)) that
take column k to rows k + W_i and k - W_i; each SpinSystem keeps its tables.

The static Hamiltonian splits into a part diagonal in this basis,
``Z0 = B_o xi^z + sum_{i>j} T_ij Sz_i Sz_j``, and the flip-flop remainder
``X = 1/2 sum_{i>j} T_ij (S+_i S-_j + S-_i S+_j)``; their sum is the full
isotropic Hamiltonian plus Zeeman term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "HBAR",
    "K_BOLTZMANN",
    "MAX_DIM",
    "SpinSystem",
    "beta_from_kelvin",
    "compress",
    "decompress",
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
    twice = 2.0 * float(j)      # a Python float: inf past 1.8e308, not an overflow warning
    if not (0 <= twice < math.inf) or abs(twice - round(twice)) > 1e-12:
        raise ValidationError(f"spin quantum number must be a nonnegative half-integer, got {j}")
    return round(twice) / 2.0


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

    @cached_property
    def _tables(self) -> tuple:
        """(Sz, S-, S+) of :func:`_tabulate`, built on first use and kept read-only."""
        return _read_only(_tabulate(self))

    @cached_property
    def _sectors(self) -> tuple:
        """The sectors of :func:`_tabulate_sectors`, built on first use and kept read-only."""
        return tuple(map(_read_only, _tabulate_sectors(self)))


def _whole(value, name: str) -> int:
    """``value`` as an int if it is a Python or numpy integer, else a ValidationError."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def compress(occupations: Sequence[int], spins: Sequence[float]) -> int:
    """Map an occupation tuple to its compressed basis index."""
    spins = tuple(_validate_spin(j) for j in spins)
    if len(occupations) != len(spins):
        raise ValidationError("occupation tuple length does not match the spin list")
    dims = [int(round(2 * j)) + 1 for j in spins]
    idx = 0
    for n, d in zip(occupations, dims):
        n = _whole(n, "occupation")
        if not 0 <= n < d:
            raise ValidationError(f"occupation {n} out of range [0, {d - 1}]")
        idx = idx * d + n
    return idx


def decompress(index: int, spins: Sequence[float]) -> tuple:
    """Inverse of :func:`compress`."""
    spins = tuple(_validate_spin(j) for j in spins)
    dims = [int(round(2 * j)) + 1 for j in spins]
    total = math.prod(dims)
    index = _whole(index, "index")
    if not 0 <= index < total:
        raise ValidationError(f"index {index} out of range [0, {total - 1}]")
    out = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        index, out[i] = divmod(index, dims[i])
    return tuple(out)


def _read_only(arrays) -> tuple:
    """``arrays`` as a tuple, each made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


def _tabulate(system: SpinSystem) -> tuple:
    """(N, D) tables of Sz_i, S-_i and S+_i on column k of the occupation table.

    At m = j_i - n_i(k), S-_i takes column k to row k + W_i with
    sqrt(j (j + 1) - m (m - 1)) and S+_i to row k - W_i with
    sqrt(j (j + 1) - m (m + 1)); each is 0 where the step leaves the multiplet.
    """
    k = np.arange(system.dim)
    j = np.array(system.spins)[:, None]
    m = j - k // np.array(system.weights)[:, None] % np.array(system.dims)[:, None]
    return m, np.sqrt(j * (j + 1) - m * (m - 1)), np.sqrt(j * (j + 1) - m * (m + 1))


def xi_operator(system: SpinSystem, axis: str) -> np.ndarray:
    """Negative total magnetic moment along ``axis``: -sum_i gamma_i S_i^axis."""
    try:        # the coefficients of Sz, S- and S+ in S^axis
        c_z, c_minus, c_plus = {"z": (1, 0, 0), "-": (0, 1, 0), "+": (0, 0, 1),
                                "x": (0, 0.5, 0.5), "y": (0, 0.5j, -0.5j)}[axis]
    except KeyError:
        raise ValidationError(f"unknown axis {axis!r}") from None
    sz, s_minus, s_plus = system._tables
    coeff, k = -np.array(system.gammas)[:, None], np.arange(system.dim)
    out = np.zeros((k.size, k.size), dtype=complex)
    if c_z:     # the spins' terms added in spin order
        out[k, k] += np.add.reduce(coeff * sz)
    shift = np.array(system.weights)        # S- lands on row k + W_i, S+ on row k - W_i
    for c, table, step in ((c_minus, s_minus, shift), (c_plus, s_plus, -shift)):
        if c:
            site, cols = np.nonzero(table)
            out[cols + step[site], cols] += coeff[site, 0] * (c * table[site, cols])
    return out


def total_sz(system: SpinSystem) -> np.ndarray:
    return np.diag(system._tables[0].sum(0).astype(complex))


def build_zo(system: SpinSystem, b_o: float) -> np.ndarray:
    """Diagonal leading Hamiltonian B_o xi^z + sum_{i>j} T_ij Sz_i Sz_j."""
    return np.diag(level_data(system, b_o).astype(complex))


def build_x(system: SpinSystem) -> np.ndarray:
    """Flip-flop perturbation 1/2 sum_{i>j} T_ij (S+_i S-_j + S-_i S+_j), from the sectors."""
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for idx, rows, cols, values in system._sectors:
        out[idx[rows], idx[cols]] = out[idx[cols], idx[rows]] = values
    return out


def spin_spin_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Isotropic coupling sum_{i>j} T_ij S_i . S_j: X plus Z0's Sz_i Sz_j diagonal (B_o = 0)."""
    return build_x(system) + np.diag(level_data(system, 0.0))


def static_hamiltonian(system: SpinSystem, b_o: float) -> np.ndarray:
    """Full static Hamiltonian: spin-spin coupling plus Zeeman term."""
    return spin_spin_hamiltonian(system) + b_o * xi_operator(system, "z")


@np.errstate(over="ignore", invalid="ignore")    # a non-finite energy is refused below
def level_data(system: SpinSystem, b_o: float) -> np.ndarray:
    """The energies eps_n of the basis states, the diagonal of Z0, from the kept Sz."""
    sz = system._tables[0]
    energies = -b_o * np.dot(np.asarray(system.gammas)[None], sz)[0]
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                energies = energies + t[i, j] * sz[i] * sz[j]
    if not np.isfinite(energies).all():
        raise ValidationError(f"b_o must be finite, and so must each level energy of Z0; "
                              f"got b_o = {b_o}")
    return energies


def _tabulate_sectors(system: SpinSystem) -> list:
    """X's entries by total-M sector (idx, rows, cols, values), one pass over the pairs i > j:
    1/2 T_ij S+_i S-_j takes column k to row k - W_i + W_j (X adds the transposes) at local
    (rows, cols) of its sector, X conserving M; ``idx`` cuts a stable argsort of M."""
    sz, s_minus, s_plus = system._tables
    first, second = np.nonzero(np.tril(system.couplings, -1))    # pairs i > j, in loop order
    weights = np.array(system.weights)
    flip = s_plus[first] * s_minus[second]                        # S+_i S-_j at each (pair, k)
    pair, cols = np.nonzero(flip)
    rows = cols - (weights[first] - weights[second])[pair]
    values = 0.5 * system.couplings[first, second][pair] * flip[pair, cols]
    m = sz.sum(0)
    order = np.argsort(m, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(m[order])) + 1).tolist(), system.dim]
    local, sectors = np.empty(system.dim, dtype=int), []
    for a, b in zip(cuts, cuts[1:]):
        idx = order[a:b]
        local[idx] = np.arange(b - a)
        at = m[cols] == m[idx[0]]
        sectors.append((idx, local[rows[at]], local[cols[at]], values[at]))
    return sectors


# a non-finite beta eps is refused below; an exponent min - z past the float range is 0
@np.errstate(over="ignore", invalid="ignore")
def _populations(energies: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann populations exp(min(beta eps) - beta eps) / sum: no exponent is positive."""
    z = beta * energies
    low = z.min()
    if not (math.isfinite(low) and math.isfinite(z.max())):
        raise ValidationError(f"beta must be finite, and so must beta times each level "
                              f"energy; got beta = {beta}")
    p = np.exp(low - z)
    return p / p.sum()


def boltzmann_state(energies: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta Z0)/Tr from the energies of Z0 (:func:`level_data`)."""
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1:
        raise ValidationError(f"boltzmann_state takes the 1-D energies of Z0, not {energies.shape}")
    return np.diag(_populations(energies, beta).astype(complex))


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
