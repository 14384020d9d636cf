"""Zeroth-order semiclassical Markovian master equation for a driven multispin system.

The interaction-picture equation of motion is

    d rho / dt = -i [H_LR(t), rho(0)] - i [H_LS, rho(t)] + D[rho(t)]

where the inhomogeneous drive term acts on the *initial* (Boltzmann) state
only.  H_LR(t) is the drive Hamiltonian damped by the characteristic function
of the field's frequency density, H_LS the Lamb shift built from Hilbert
transforms of that density, and D the stimulated emission/absorption
dissipator whose rates are density evaluations at the transition gaps.

Sign convention for the Lamb shift: the commutator order is chosen so a
single spin-1/2 gives ``H_LS = -pi (omega_1/2)^2 [rho^>(w0) - rho^>(-w0)]
sigma_3``, i.e. the coherence relaxes as ``-(Gamma + i varpi) <sigma_+>`` with
``varpi = 2 pi (omega_1/2)^2 [rho^>(w0) - rho^>(-w0)]``.

The formal solution is the map ``Lambda(t) = exp(L t) + int_0^t exp(L (t-s))
A(s) ds``: trace preserving, but not completely positive because of the
inhomogeneous term.  Its domain is the Boltzmann state of the diagonal
Hamiltonian; propagation enforces this unless explicitly overridden.

Since the drive term acts on rho(0) only, it is a known function of t, and
the equation is affine in the column-stacked state: y' = L y + f(t).  L is
one table of entries (:func:`_generator_entries`), which the RK4 stepper
scatters into a matrix once per run; f(t) = Re[phi_f(t)] sum_j e^{-i w_j t} c_j
has one set of components (:func:`_drive_components`), which the stepper
tabulates and ``Lambda(t)`` integrates exactly.  ``Lambda(t)`` and the Kraus
audit read one eigensystem of L, built once per model on first use and kept
with it, one secular block at a time: the connected components of the nonzero
entries, each assembled from its own entries; for a generic system the D
populations plus D^2 - D scalar coherences.  V and V^-1 stay block diagonal,
and the audit's node sums run over the nonzeros of V^-1 only.  Both routes are
capped at dimension MAP_DIM_CAP.  Every route reads xi^x from the ladder
entries alone: L, the dissipator (at any dimension) and h_ls from pairs of
entries of a block, H_LR(t) and the drive components from one scatter each.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import lineshape, numutil
from .artifact import write_csv
from .eigenops import LadderTable, ladder_table
from .errors import (
    AccuracyError,
    DomainViolationError,
    ValidationError,
    WitnessInapplicableError,
)
from .lineshape import (FrequencyDistribution, _cexp, characteristic, drive_weight,
                        relaxation_time)
from .spincore import SpinSystem, _whole, boltzmann_state, level_data, xi_operator

__all__ = [
    "FieldConfig",
    "MasterEquationModel",
    "Trajectory",
    "KrausAudit",
    "WitnessResult",
    "build_model",
    "linear_response_hamiltonian",
    "dissipator",
    "propagate",
    "lambda_map",
    "kraus_audit",
    "noncp_witness",
    "export_trajectory_csv",
]

MAP_DIM_CAP = 64
# drive table sizes: steps in _rk4 (one (2n + 1, D^2) half-step table), times in _apply_map
RK4_CHUNK = 64
# complex elements per (nnz, D, n) node-sum temporary of kraus_audit (16 MB), nnz the
# entries of V^-1 inside its blocks; at least one node per batch
AUDIT_CHUNK = 2 ** 20
# bytes of a time grid's (frames, D, D) complex states, or of kraus_audit's nodes (256 MiB)
MAX_FRAME_BYTES = 2 ** 28
# n_steps D^4, the dense RK4 stage work a time grid may take: about 10^4 times that of the
# longest shipped or CI propagation (mixed spins 1/2, 1, 3/2, 1/2: 19 steps at D = 48, 1.0e8)
MAX_STEP_WORK = 10 ** 12
EIGVEC_COND_CAP = 1e6
DOMAIN_ATOL = 1e-10


@dataclass(frozen=True)
class FieldConfig:
    """Static field, drive amplitude and drive frequency density.

    ``b_1 = 0`` is allowed (undriven probe); the weak-field regime
    ``b_1/b_o << 1`` is advisory and only warned about.
    """

    b_o: float
    b_1: float
    dist: FrequencyDistribution

    def __post_init__(self):
        for name in ("b_o", "b_1"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.b_o > 0:
            raise ValidationError("the steady field B_o must be positive")
        if self.b_1 < 0:
            raise ValidationError("the drive amplitude B_1 cannot be negative")
        if self.b_1 > 0.1 * self.b_o:
            warnings.warn(
                f"B_1/B_o = {self.b_1 / self.b_o:.3g} is outside the weak-field regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class MasterEquationModel:
    """Assembled superoperator data, frozen: the first map or audit keeps the
    eigensystem of L built from it, so :func:`build_model` makes the arrays read-only."""

    system: SpinSystem
    field: FieldConfig
    beta: float
    levels: object
    ladder: LadderTable         # the +1-step entries of xi^x and the K block frequencies
    rates_plus: np.ndarray      # 2 pi B1^2 rho_f(+w), per block
    rates_minus: np.ndarray     # 2 pi B1^2 rho_f(-w), per block
    h_ls: np.ndarray
    boltzmann: np.ndarray
    _anti: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.system.dim

    @property
    def plus_mats(self) -> np.ndarray:
        """The (K, D, D) stack of the xi^x(+1, w), built on each read; no package route uses it."""
        ladder = self.ladder
        out = np.zeros((ladder.omegas.size, self.dim, self.dim), dtype=complex)
        out[ladder.block, ladder.rows, ladder.cols] = ladder.values
        return out

    @cached_property
    def _generator_eig(self) -> BlockEigensystem:
        """Block eigensystem of L, built by the first :func:`lambda_map` or :func:`kraus_audit`
        and kept with the model; an AccuracyError is not kept, so every read raises it.
        L generates a contraction semigroup: a rounding-positive Re lam (1e-18 on a zero
        mode, unbounded in e^{lam t} at long times) is set to 0."""
        eig = _block_eigensystem(*_generator_entries(self))
        eig.lam.real[eig.lam.real > 0] = 0.0
        return eig


def build_model(system: SpinSystem, field_cfg: FieldConfig, beta: float) -> MasterEquationModel:
    """Assemble the zeroth-order model for a system in the given field.

    The levels and the ladder table read the spin tables that ``system`` keeps
    (``SpinSystem._tables``).  The rates 2 pi B1^2 rho_f(+-w) and Lamb
    weights pi B1^2 [rho^>(w) - rho^>(-w)] take one density and one Hilbert
    call each, over the block frequencies w and -w concatenated (a driven
    delta line, with no finite rates, is refused), and h_ls = sum_w lamb_w [xi_w,
    xi_w^dag] and _anti = sum_w (g_w / 2) {xi_w, xi_w^dag} are sums over
    pairs of the table's entries (:func:`_pair_sums`).
    """
    if not np.isfinite(beta):
        raise ValidationError("beta must be finite")
    levels = level_data(system, field_cfg.b_o)
    ladder = ladder_table(system, levels)
    omegas = ladder.omegas

    b1, dist = field_cfg.b_1, field_cfg.dist
    if b1 > 0 and omegas.size:
        if dist.kind == "delta":
            raise ValidationError("a delta line gives no finite dissipator rates; "
                                  "use a finite-width kind")
        both, k = np.concatenate([omegas, -omegas]), omegas.size
        rates = 2.0 * math.pi * b1 * b1 * lineshape.density(dist, both)
        gp, gm = rates[:k], rates[k:]
        lamb = math.pi * b1 * b1 * lineshape.hilbert(dist, both)
        lamb = lamb[:k] - lamb[k:]          # pi B1^2 [rho^>(w) - rho^>(-w)]
    else:
        gp, gm, lamb = np.zeros((3, len(omegas)))

    half_g = 0.5 * (gp + gm)
    h_ls, anti = _pair_sums(ladder, (lamb, -lamb), (half_g, half_g))
    boltzmann = boltzmann_state(levels.energies, beta)
    # read-only, so an in-place edit cannot leave the kept eigensystem of L stale
    for a in (gp, gm, h_ls, anti, boltzmann, ladder.rows, ladder.cols, ladder.values,
              ladder.block, ladder.omegas):
        a.setflags(write=False)
    return MasterEquationModel(
        system=system, field=field_cfg, beta=beta, levels=levels, ladder=ladder, rates_plus=gp,
        rates_minus=gm, h_ls=h_ls, boltzmann=boltzmann, _anti=anti)


def _pairs(group: np.ndarray):
    """Every ordered pair (e, f) of indices with equal ``group``: n^2 for a group of n."""
    order = np.argsort(group, kind="stable")
    g = group[order]
    start = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    if start.size == g.size:                    # no group of two: the pairs (e, e)
        return order, order
    size = np.diff(start, append=g.size)
    n = np.repeat(size, size)                   # group size of each sorted index
    offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    return np.repeat(order, n), order[np.repeat(np.repeat(start, size), n) + offset]


def _pair_sums(ladder: LadderTable, *weights) -> np.ndarray:
    """sum_w a_w xi_w xi_w^dag + c_w xi_w^dag xi_w for each pair (a, c) of (K,) weights.

    Entry e is read twice: in xi_w, keyed by (block, col), as u = v_e landing
    on row_e; in xi_w^dag, keyed by (block, row), as u = conj(v_e) landing on
    col_e.  Each pair of readings with one key adds u_e conj(u_f) at (land_e,
    land_f), scatter-added by one ``np.add.at`` per sum.
    """
    b, rows, cols, v, d = ladder.block, ladder.rows, ladder.cols, ladder.values, ladder.dim
    k = ladder.omegas.size
    e, f = _pairs(np.concatenate([b * d + cols, (b + k) * d + rows]))
    land, u = np.concatenate([rows, cols]), np.concatenate([v, v.conj()])
    at, prod = land[e] * d + land[f], u[e] * u[f].conj()
    pick = np.append(b, b + k)[e]       # weight of each pair: a_w, or c_w after K
    out = np.zeros((len(weights), d * d), dtype=complex)
    for flat, pair in zip(out, weights):
        np.add.at(flat, at, np.concatenate(pair)[pick] * prod)
    return out.reshape(-1, d, d)


def linear_response_hamiltonian(model: MasterEquationModel, t) -> np.ndarray:
    """H_LR(t) = 2 B1 Re[phi_f(t)] sum_w exp(-i t w) xi^x(+1, w) + h.c.

    ``t`` is one time, giving (D, D), or a 1-D array of times, giving
    (nt, D, D): one :func:`characteristic` call, one (nt, K) phase table and
    one scatter of the ladder entries (:meth:`LadderTable.hermitian`).
    Every time must be finite and nonnegative; where a phase w t passes the
    float range the envelope must have decayed, and H_LR is 0 there.
    """
    times = _map_times(t)
    ts = np.atleast_1d(times)
    env = 2.0 * model.field.b_1 * np.real(characteristic(model.field.dist, ts))
    out = model.ladder.hermitian(_cexp(-1j * model.ladder.omegas, ts[:, None], env[:, None]))
    return out if times.ndim else out[0]


def dissipator(model: MasterEquationModel, rho: np.ndarray) -> np.ndarray:
    """Apply the stimulated emission/absorption dissipator to ``rho``.

    D[rho] = sum_w g_w (xi_w rho xi_w^dag + xi_w^dag rho xi_w) - {anti, rho}.
    The jump part is a sum over the pairs of :func:`_jump_pairs`, each
    coefficient times its rho element scatter-added; no (K, D, D) stack and
    no D^3 product per block.
    """
    rho = np.asarray(rho)
    d = model.dim
    if rho.shape != (d, d):
        raise ValidationError("density matrix dimension mismatch")
    row_e, row_f, col_e, col_f, forward, backward = _jump_pairs(model)
    out = -(model._anti @ rho + rho @ model._anti)
    flat = out.reshape(-1)
    np.add.at(flat, row_e * d + row_f, forward * rho[col_e, col_f])
    np.add.at(flat, col_e * d + col_f, backward * rho[row_e, row_f])
    return out


def _jump_pairs(model: MasterEquationModel):
    """Rows and columns of the pairs (e, f) of entries of one block, and their coefficients.

    With g = g_w^+ + g_w^-, g v_e conj(v_f) takes rho[col_e, col_f] to [row_e,
    row_f] (xi_w rho xi_w^dag) and g conj(v_e) v_f takes rho[row_e, row_f] to
    [col_e, col_f] (xi_w^dag rho xi_w).
    """
    ladder, v = model.ladder, model.ladder.values
    e, f = _pairs(ladder.block)
    g = (model.rates_plus + model.rates_minus)[ladder.block[e]]
    return (ladder.rows[e], ladder.rows[f], ladder.cols[e], ladder.cols[f],
            g * v[e] * v[f].conj(), g * v[e].conj() * v[f])


def default_dt(model: MasterEquationModel) -> float:
    """Step resolving the fastest drive phase and the phi_f decay."""
    max_phase = float(np.max(np.abs(model.ladder.omegas), initial=0.0))
    max_phase += abs(model.field.dist.center)
    candidates = []
    if max_phase > 0:
        candidates.append(2.0 * math.pi / (50.0 * max_phase))
    tau = relaxation_time(model.field.dist)
    if math.isfinite(tau):
        candidates.append(tau / 50.0)
    if not candidates:
        raise ValidationError("cannot pick a default step for a static problem; pass dt")
    return min(candidates)


def _check_domain(model: MasterEquationModel, rho0: np.ndarray, unsafe: bool) -> None:
    """Refuse a ``rho0`` not finite and (D, D), or, unless ``unsafe``, off the Boltzmann state."""
    rho0 = np.asarray(rho0)
    if rho0.shape != (model.dim, model.dim):
        raise ValidationError(f"rho0 must have shape {(model.dim, model.dim)}, got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise ValidationError("rho0 must be finite")
    if not (unsafe or numutil.max_abs(rho0 - model.boltzmann) <= DOMAIN_ATOL):
        raise DomainViolationError(
            "rho0 is not the model's Boltzmann state; the zeroth-order map is "
            "defined on that state only (pass unsafe=True to override)"
        )


@dataclass(frozen=True)
class Trajectory:
    """Interaction-picture trajectory on a uniform grid."""

    times: np.ndarray
    states: np.ndarray            # (nt, D, D)
    energies: np.ndarray

    def schrodinger_states(self) -> np.ndarray:
        """Conjugate with exp(-i t Z0): rho_ab(t) = e^{-i t (eps_a - eps_b)} state_ab, a
        coherence whose phase passes the float range having decayed to 0."""
        gaps = self.energies[:, None] - self.energies[None, :]
        return _cexp(-1j * gaps, self.times[:, None, None], self.states)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def propagate(model: MasterEquationModel, rho0: np.ndarray, t_end: float,
              dt: float | None = None, *, store_every: int | None = None,
              unsafe: bool = False) -> Trajectory:
    """Classical RK4 (:func:`_rk4`) of the inhomogeneous master equation from ``rho0``.

    D > MAP_DIM_CAP, the cap of :func:`lambda_map`, is refused before any step.
    """
    _check_domain(model, rho0, unsafe)
    return _rk4(model, rho0, t_end, dt, store_every)


def _time_grid(model: MasterEquationModel, t_end: float, dt: float | None,
               store_every: int | None):
    """Step and stored step numbers of the fixed-step grid on [0, t_end].

    ``dt`` defaults to :func:`default_dt` and is shrunk to t_end / n_steps so
    it divides ``t_end``; ``store_every``, a whole number, defaults to n_steps
    // 2000 (at least 1).  The stored steps are 0, every multiple of
    ``store_every`` and the last step, so the stored times are ``steps * dt``.
    Refused before anything is allocated: a step count that is not finite or
    not below 2^63, stepping work n_steps D^4 (the dense matrix of each RK4
    stage) above MAX_STEP_WORK, and stored (D, D) complex states of more
    than MAX_FRAME_BYTES.  Built from the counts alone: O(frames), not O(steps).
    """
    if dt is None:
        dt = default_dt(model)
    if not dt > 0:
        raise ValidationError("dt must be positive")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValidationError(f"t_end must be finite and positive, got {t_end}")
    if store_every is not None and _whole(store_every, "store_every") < 1:
        raise ValidationError(f"store_every must be at least 1, got {store_every}")

    ratio = t_end / dt
    if not ratio < 2.0 ** 63:
        raise ValidationError(f"t_end / dt = {ratio:.3g} steps is not a representable step count")
    n_steps = max(1, int(math.ceil(ratio - 1e-12)))
    if n_steps * model.dim ** 4 > MAX_STEP_WORK:
        raise ValidationError(
            f"{n_steps} steps at dimension {model.dim} exceed the stepping budget n_steps D^4 "
            f"<= MAX_STEP_WORK = {MAX_STEP_WORK:.0e}; raise dt or shorten t_end")
    if store_every is None:
        store_every = max(1, n_steps // 2000)
    frames = -(-n_steps // store_every) + 1
    if frames * model.dim ** 2 * 16 > MAX_FRAME_BYTES:
        raise ValidationError(
            f"{frames} stored frames of dimension {model.dim} exceed MAX_FRAME_BYTES = "
            f"{MAX_FRAME_BYTES}; raise dt or store_every")
    steps = np.arange(0, n_steps + 1, store_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return t_end / n_steps, steps


def _rk4(model: MasterEquationModel, rho0: np.ndarray, t_end: float,
         dt: float | None, store_every: int | None, extra=None) -> Trajectory:
    """Classical RK4 for y' = L y + f(t) [+ vec extra(t)], y = vec(rho), from rho0.

    The one time stepper: :func:`propagate` runs it bare, ``acp.propagate_order_n``
    with its order-n inhomogeneity as ``extra``.  L is scattered once from its entries
    (refused for D > MAP_DIM_CAP), and f(t) = Re[phi_f(t)] sum_j e^{-i w_j t} c_j, from
    the rows c_j of :func:`_drive_components` [+ vec extra(t)], is tabulated RK4_CHUNK
    steps at a time on the half-step grid t_k = k dt / 2; step i reads rows 2i to 2i + 2.
    Steps and stored frames follow :func:`_time_grid`.
    """
    dt, steps = _time_grid(model, t_end, dt, store_every)
    diag, out, inn, val = _generator_entries(model)
    lmat = np.diag(diag)        # a dense matvec is the cheapest step at these sizes
    lmat[out, inn] = val
    d = model.dim
    rho_init = np.array(rho0, dtype=complex)
    y = numutil.vec(rho_init).copy()
    states = np.empty((steps.size, d, d), dtype=complex)
    states[0] = rho_init
    comps, freqs = _drive_components(model, rho_init)

    n_steps, stored = int(steps[-1]), steps.tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    frame = 1
    for first in range(0, n_steps, RK4_CHUNK):
        ts = np.arange(2 * first, 2 * min(first + RK4_CHUNK, n_steps) + 1) * half
        env = np.real(characteristic(model.field.dist, ts))
        f = (env[:, None] * np.exp(-1j * np.outer(ts, freqs))) @ comps
        if extra is not None:
            f += [numutil.vec(extra(t)) for t in ts.tolist()]
        for step, (f_n, f_h, f_1) in enumerate(zip(f[:-1:2], f[1::2], f[2::2]), first + 1):
            k1 = lmat @ y + f_n
            k2 = lmat @ (y + half * k1) + f_h
            k3 = lmat @ (y + half * k2) + f_h
            k4 = lmat @ (y + dt * k3) + f_1
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step == stored[frame]:
                states[frame] = numutil.unvec(y, d)
                frame += 1

    return Trajectory(times=steps * dt, states=states,
                      energies=model.levels.energies.copy())


def _drive_components(model: MasterEquationModel, rho0: np.ndarray):
    """Components c_j (rows) and frequencies w_j of vec(-i [H_LR(t), rho0]).

    The drive term is Re[phi_f(t)] sum_j exp(-i w_j t) c_j with
    c = vec(-2 i B1 [xi_w, rho0]) at +w and vec(-2 i B1 [xi_w^dag, rho0]) at
    -w, for any rho0.  Entry (r_e, c_e, v_e) of block j adds u rho0[c_e, :]
    to row r_e of [xi_w, rho0] and -u rho0[:, r_e] to column c_e, u = v_e;
    the xi_w^dag half swaps rows and columns and takes u = conj(v_e).  The
    scatters write the column-stacked [j, col, row] layout; the rows c_j view it.
    """
    ladder, d = model.ladder, model.dim
    k, rows, cols = ladder.omegas.size, ladder.rows, ladder.cols
    j = np.concatenate([ladder.block, ladder.block + k])
    land, src = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    u = (-2j * model.field.b_1) * np.concatenate([ladder.values, ladder.values.conj()])[:, None]
    out = np.zeros((2 * k, d, d), dtype=complex)
    np.add.at(out, (j, slice(None), land), u * rho0[src, :])
    np.add.at(out, (j, src), -u * rho0[:, land].T)
    return out.reshape(2 * k, d * d), np.concatenate([ladder.omegas, -ladder.omegas])


def _generator_entries(model: MasterEquationModel):
    """Column-stacked L as its diagonal and off-diagonal (out, in, value) entries.

    L vec(rho) = vec(jumps + M rho + rho N), M = -i h_ls - anti, N = i h_ls - anti:
    the pairs of :func:`_jump_pairs` both ways, the diagonal M_rr + N_cc at
    c D + r and, for every c, each off-diagonal M_ab at (c D + a, c D + b) and
    N_ab at (b D + c, a D + c).  No two entries share a place, as (row, col)
    names one ladder entry.  D <= MAP_DIM_CAP.
    """
    _check_map_dim(model)
    d = model.dim
    row_e, row_f, col_e, col_f, forward, backward = _jump_pairs(model)
    # + 0.0 turns a -0.0 part into +0.0, whose sign would steer the reflections of eig
    m = (-1j * model.h_ls - model._anti) + 0.0
    n = (1j * model.h_ls - model._anti) + 0.0
    out, val = [row_f * d + row_e, col_f * d + col_e], [forward, backward]
    inn = out[::-1]                 # a backward jump swaps the places of a forward one
    off = (model.h_ls != 0) | (model._anti != 0)
    np.fill_diagonal(off, False)
    if off.any():                   # none for a generic system
        (a, b), c = np.nonzero(off), np.arange(d)[:, None]
        out, inn = out + [c * d + a, b * d + c], inn + [c * d + b, a * d + c]
        val += [np.tile(m[a, b], d), np.tile(n[a, b], d)]
    return ((m.diagonal() + n.diagonal()[:, None]).reshape(-1), np.concatenate(out, None),
            np.concatenate(inn, None), np.concatenate(val))


def _check_map_dim(model: MasterEquationModel) -> None:
    if model.dim > MAP_DIM_CAP:
        raise ValidationError(f"map-level operations and propagation are capped at dimension "
                              f"MAP_DIM_CAP = {MAP_DIM_CAP}, got {model.dim}")


def _eigensystem(mat: np.ndarray):
    """Eigenvalues lam, eigenvectors V and V^-1 of ``mat`` = V diag(lam) V^-1.

    The eigenvector form of exp(mat t) is exact only while V is well
    conditioned (Moler & Van Loan, SIAM Rev. 45 (2003) 3); an AccuracyError
    reports ||V||_1 ||V^-1||_1 > EIGVEC_COND_CAP, i.e. ``mat`` is defective
    or nearly so.  A real symmetric ``mat`` takes ``eigh``: V is orthogonal,
    V^-1 = V^T, and no such matrix is defective.
    """
    if not np.iscomplexobj(mat) and np.array_equal(mat, mat.T):
        lam, v = np.linalg.eigh(mat)
        return lam, v, v.T
    lam, v = np.linalg.eig(mat)
    try:
        v_inv = np.linalg.inv(v)
        # the matrix 1-norms, largest column sums of |V| and |V^-1|
        cond = np.abs(v).sum(0).max() * np.abs(v_inv).sum(0).max()
    except np.linalg.LinAlgError:
        cond = math.inf
    if not cond <= EIGVEC_COND_CAP:
        raise AccuracyError(
            f"the generator is defective or nearly so (eigenvector condition "
            f"number {cond:.2e} > {EIGVEC_COND_CAP:.0e})")
    return lam, v, v_inv


class BlockEigensystem(NamedTuple):
    """mat = V diag(lam) V^-1 with V and V^-1 block diagonal.

    ``lam[k]`` is the eigenvalue of index k.  ``blocks`` holds (idx, V_b,
    V_b^-1) for each block of more than one index, with ``idx`` ascending; on
    every other index V and V^-1 are 1.
    """

    lam: np.ndarray
    blocks: tuple

    def apply(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """x <- V x, or V^-1 x if ``inverse``, over the first axis of a complex ``x``, in place."""
        for idx, v, v_inv in self.blocks:
            x[idx] = (v_inv if inverse else v) @ x[idx]
        return x


def _block_eigensystem(diag, out, inn, val) -> BlockEigensystem:
    """:func:`_eigensystem` of each connected component of :func:`_generator_entries`.

    Zero entries (no drive, or rates that underflow) are dropped, so the
    components are those of the nonzero pattern, and each block is assembled
    from its own entries.  A 1 x 1 component is its own eigenvalue, with no
    ``eig`` call; every larger one goes through :func:`_eigensystem` and its
    condition cap, as a real matrix where its imaginary part is zero: a generic
    system's populations are real symmetric, as absorption and emission share a rate.
    One stable argsort of the labels groups the indices, one of the entries' labels
    groups the entries, and each block reads its slice of both.  An eigenvalue of an
    m x m block with |lam| <= m eps ||L_b||_1 is a zero mode lost in rounding, and is
    set to exactly 0, so that e^{lam t} keeps the trace at any t.  A block of populations c D + c
    with one zero mode z has every other mode made exactly traceless, however rounding mixed them.
    """
    keep = val != 0
    out, inn, val = out[keep], inn[keep], val[keep]
    n = diag.size
    label = numutil._components(out, inn, n)
    by_index = np.argsort(label, kind="stable")     # ascending within each component
    size = np.bincount(label, minlength=n)
    first = np.cumsum(size) - size
    local = np.empty_like(by_index)                 # place of each index in its block
    local[by_index] = np.arange(n) - first[label[by_index]]
    entry_label = label[out]
    by_entry = np.argsort(entry_label, kind="stable")
    rows, cols, val = local[out[by_entry]], local[inn[by_entry]], val[by_entry]
    count = np.bincount(entry_label, minlength=n)
    stop = np.cumsum(count)
    lam, blocks, eps, d = diag.astype(complex), [], np.finfo(float).eps, math.isqrt(n)
    big = size > 1
    for a, m, b, e in zip(*(x[big].tolist() for x in (first, size, stop - count, stop))):
        idx = by_index[a:a + m]
        sub = np.diag(diag[idx])
        sub[rows[b:e], cols[b:e]] = val[b:e]
        lam_b, v, v_inv = _eigensystem(sub if sub.imag.any() else sub.real)
        lam_b[np.abs(lam_b) <= m * eps * np.abs(sub).sum(0).max()] = 0.0
        zero, pop = np.flatnonzero(lam_b == 0), idx % (d + 1) == 0
        if zero.size == 1 and pop.any():    # t: the trace functional, normalized
            z, t = zero[0], pop / math.sqrt(np.count_nonzero(pop))
            if np.array_equal(v_inv, v.T):  # orthogonal V: projected off t, and t at z
                v = v - np.outer(t, t @ v)
                v[:, z] = t
                v_inv = v.T
            else:   # V <- V - V_z c^T, c = t V / (t V_z), c_z = 0; keeps V V^-1 = 1
                c = (t @ v) / (t @ v[:, z])
                c[z] = 0.0
                v_inv[z] += c @ v_inv
                v = v - np.outer(v[:, z], c)
        lam[idx] = lam_b
        blocks.append((idx, v, v_inv))
    return BlockEigensystem(lam, tuple(blocks))


def _map_times(t) -> np.ndarray:
    """``t`` as a float array, a ValidationError unless 0-d or 1-D, finite and >= 0."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValidationError(f"t must be a time or a 1-D array of times, got shape {times.shape}")
    bad = times[~(np.isfinite(times) & (times >= 0.0))]
    if bad.size:
        raise ValidationError(f"t must be finite and nonnegative, got {bad[0]}")
    return times


def _map_time(t) -> float:
    """One time through :func:`_map_times`; a ValidationError for an array."""
    times = _map_times(t)
    if times.ndim:
        raise ValidationError(f"t must be one time, got shape {times.shape}")
    return float(times)


def lambda_map(model: MasterEquationModel, t: float | np.ndarray, rho0: np.ndarray, *,
               unsafe: bool = False, include_drive: bool = True) -> np.ndarray:
    """Evaluate Lambda(t) rho0 = e^{Lt} rho0 + int_0^t e^{L(t-s)} A(s) rho0 ds exactly.

    ``t`` is one time, giving the (D, D) state, or a 1-D array of finite
    nonnegative times, giving the (nt, D, D) states, from the model's block
    eigensystem L = V diag(lam) V^-1 (:func:`_block_eigensystem`, built on
    the model's first map or audit and kept; applied by :func:`_apply_map`).
    ``include_drive=False`` drops the inhomogeneous term, leaving the
    completely positive semigroup alone.  An AccuracyError means a block of L
    is defective or nearly so.
    """
    times = _map_times(t)
    _check_domain(model, rho0, unsafe)
    states = _apply_map(model, model._generator_eig, np.atleast_1d(times), rho0, include_drive)
    return states if times.ndim else states[0]


def _apply_map(model: MasterEquationModel, eig: BlockEigensystem, times: np.ndarray,
               rho0: np.ndarray, include_drive: bool = True) -> np.ndarray:
    """(nt, D, D) states Lambda(t) rho0 at ``times`` from the block eigensystem of L.

    The semigroup part is V e^{lam t} V^-1 rho0.  The drive term is
    Re[phi_f(s)] sum_j e^{-i w_j s} c_j (:func:`_drive_components`); each c_j
    adds V [(V^-1 c_j) * W(lam, w_j, t)], W = int_0^t e^{lam (t-s)} Re[phi_f(s)]
    e^{-i w_j s} ds, from one :func:`lineshape.drive_weight` call per RK4_CHUNK
    times over the nonzero (j, k) of V^-1 c, scatter-added.
    """
    lam = eig.lam
    rho_init = np.array(rho0, dtype=complex)
    coef = _cexp(lam, times[:, None], eig.apply(numutil.vec(rho_init).copy(), inverse=True))

    if include_drive and model.field.b_1 > 0:
        comps, freqs = _drive_components(model, rho_init)
        c = eig.apply(comps.T, inverse=True).T
        rows, cols = np.nonzero(c)
        lam_k, w_j, c_jk = lam[cols], freqs[rows], c[rows, cols]
        for first in range(0, len(times), RK4_CHUNK):
            chunk = slice(first, first + RK4_CHUNK)
            weights = drive_weight(model.field.dist, lam_k, w_j, times[chunk, None])
            np.add.at(coef[chunk], (slice(None), cols), c_jk * weights)

    d = model.dim
    return eig.apply(coef.T).T.reshape(len(times), d, d).transpose(0, 2, 1)


@dataclass(frozen=True)
class KrausAudit:
    trace_residual: float
    reconstruction_residual: float
    completeness_residual: float
    phi1_choi_min: float
    phi2_choi_min: float
    n_nodes: int


def kraus_audit(model: MasterEquationModel, t: float, rho0: np.ndarray, *,
                unsafe: bool = False, n_nodes: int = 256) -> KrausAudit:
    """Rebuild Lambda(t) as a difference Phi1 - Phi2 of two CP maps and report residuals.

    The drive enters through M(s) = (I - i H_LR(s))/sqrt(2), for which
    ``M rho M^dag - M^dag rho M = -i [H_LR, rho]``.  With the Simpson rule
    over ``n_nodes`` panels (bumped to even) on [0, t], Phi1 = e^{Lt} +
    sum_n w_n e^{L(t - s_n)} Ad_M(s_n) and Phi2 = sum_n w_n e^{L(t - s_n)}
    Ad_M^dag(s_n) as superoperator matrices, every e^{Ls} = V diag(e^{lam s})
    V^-1 from the model's one block eigensystem of L.  The sums V^-1 Phi_i take
    one node sum (:func:`_node_sum`) of M and one of M^dag, both reading only the
    entries of V^-1 inside its blocks, over batches of nodes whose
    temporaries hold at most AUDIT_CHUNK elements; V is applied block by
    block at the end.  The report holds the trace and reconstruction
    residuals of Phi1 - Phi2 applied to rho0, the latter against
    :func:`lambda_map` evaluated from the same eigensystem; the completeness
    residual max|(Phi1 - Phi2)^dag (I) - I|, i.e. of sum K^dag K over the two
    Kraus sets; and the minimum Choi eigenvalue of each Phi (Choi, Linear
    Algebra Appl. 10 (1975) 285), nonnegative for a CP map.  ``t`` must be one
    finite nonnegative time and ``n_nodes`` a positive whole number whose nodes,
    16 B each, fit in MAX_FRAME_BYTES: a refusal comes before any allocation.
    """
    t = _map_time(t)
    if _whole(n_nodes, "n_nodes") < 1:
        raise ValidationError(f"n_nodes must be positive, got {n_nodes}")
    n_nodes = int(n_nodes) + int(n_nodes) % 2        # Simpson's rule takes an even count
    if (n_nodes + 1) * 16 > MAX_FRAME_BYTES:
        raise ValidationError(f"{n_nodes + 1} Simpson nodes exceed MAX_FRAME_BYTES; lower n_nodes")
    _check_domain(model, rho0, unsafe)
    d = model.dim
    eig = model._generator_eig
    lam, v_inv = eig.lam, eig.apply(np.eye(d * d, dtype=complex), inverse=True)
    rows, cols = np.nonzero(v_inv != 0)
    table = rows, cols, v_inv[rows, cols]
    rho_init = np.array(rho0, dtype=complex)
    eye = np.eye(d)

    ts = np.linspace(0.0, t, n_nodes + 1)
    weights = np.ones(n_nodes + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= t / n_nodes / 3.0

    # V^-1 Phi1 and V^-1 Phi2, a batch of nodes at a time; V applied once at the end
    phi1_mat, phi2_mat = np.exp(lam * t)[:, None] * v_inv, np.zeros_like(v_inv)
    step = max(1, AUDIT_CHUNK // (rows.size * d))
    for first in range(0, ts.size, step):
        tau, weight = ts[first:first + step], weights[first:first + step]
        m_ops = (eye - 1j * linear_response_hamiltonian(model, tau)) / math.sqrt(2.0)
        scale = weight[:, None] * np.exp(np.outer(t - tau, lam))
        phi1_mat += _node_sum(table, scale, m_ops)
        phi2_mat += _node_sum(table, scale, m_ops.conj().transpose(0, 2, 1))
    eig.apply(phi1_mat)
    eig.apply(phi2_mat)

    diff = phi1_mat - phi2_mat
    reconstructed = numutil.unvec(diff @ numutil.vec(rho_init), d)
    reference = _apply_map(model, eig, np.array([t]), rho_init)[0]
    completeness = numutil.unvec(diff.conj().T @ numutil.vec(eye), d)
    trace_residual = abs(complex(np.trace(reconstructed)) - complex(np.trace(rho_init)))

    phi1_choi_min, phi2_choi_min = (    # one (D^2, D^2) Choi matrix alive at a time
        float(np.linalg.eigvalsh(numutil.hermitize(numutil.choi_matrix(phi, d))).min())
        for phi in (phi1_mat, phi2_mat))

    return KrausAudit(
        trace_residual=trace_residual,
        reconstruction_residual=numutil.max_abs(reconstructed - reference),
        completeness_residual=numutil.max_abs(completeness - eye),
        phi1_choi_min=phi1_choi_min,
        phi2_choi_min=phi2_choi_min,
        n_nodes=n_nodes,
    )


def _node_sum(table, scale: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_n diag(scale_n) V^-1 (conj A_n (x) A_n) for a (n, D, D) stack ``ops``.

    ``table`` holds the entries (r, c, x) of V^-1, sorted by r.  With c =
    j D + i, entry e adds x scale[n, r] conj(A_n[j, :]) (x) A_n[i, :] to row r:
    one batched (D, n) @ (n, D) product per entry sums its terms over the
    nodes, and a reduction over each row's entries gives the (D^2, D^2) sum.
    2 nnz n D^2 multiply-adds for nnz entries, against 2 n D^5 for a dense V^-1.
    """
    rows, cols, x = table
    d = ops.shape[-1]
    left = np.ascontiguousarray(ops.conj().transpose(1, 2, 0))[cols // d]    # [e, l, n]
    right = np.ascontiguousarray(ops.transpose(1, 0, 2))[cols % d]           # [e, n, k]
    right *= (scale[:, rows] * x).T[:, :, None]
    terms = (left @ right).reshape(rows.size, d * d)
    return np.add.reduceat(terms, np.flatnonzero(np.diff(rows, prepend=-1)))


@dataclass(frozen=True)
class WitnessResult:
    det_value: float
    predicted: float
    x: float
    beta_abs: float


def drive_integral(model: MasterEquationModel, t: float) -> np.ndarray:
    """K(t) = int_0^t H_LR(tau) dtau in closed form, at one finite t >= 0.

    The block weights int_0^t Re[phi_f] exp(-i w tau) dtau are W(0, w, t) of
    :func:`lineshape.drive_weight`, one call over the block frequencies.
    """
    weights = drive_weight(model.field.dist, 0.0, model.ladder.omegas, _map_time(t))
    return model.ladder.hermitian(2.0 * model.field.b_1 * weights)


def noncp_witness(model: MasterEquationModel, psi: np.ndarray, t: float, *,
                  unsafe: bool = False) -> WitnessResult:
    """Negativity witness for a pure input under the drive-only (L -> 0) map.

    Builds rho(t) = rho0 - i [K(t), rho0] for rho0 = |psi><psi|, restricts it
    to span{K psi, psi - i K psi} through Q of one QR factorization of those
    two columns (Golub & Van Loan, Matrix Computations, 4th ed., 5.2), and
    returns det(Q^dag rho(t) Q) next to the closed-form prediction
    ``-x^2 (1 + x^2) |b|^2``, x = ||K psi|| and |b| = |R_11| / ||psi - i K psi||.
    When the columns align (psi an eigenvector of K), Householder QR still
    gives an orthonormal Q, and rho(t) = rho0 has rank one, so det = b = 0.
    """
    t = _map_time(t)
    if not unsafe:
        raise DomainViolationError(
            "the witness feeds a pure state to a map whose domain is the "
            "Boltzmann state; pass unsafe=True to acknowledge"
        )
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (model.dim,):
        raise ValidationError(f"psi must have shape {(model.dim,)}, got {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValidationError("psi must be finite")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValidationError("psi must be nonzero")
    psi = psi / nrm

    k_op = drive_integral(model, t)
    k_scale = 1.0 + model.field.b_1 * numutil.max_abs(model.ladder.values) * max(t, 1.0)
    if numutil.max_abs(k_op) <= 1e-13 * k_scale:
        raise WitnessInapplicableError(
            "the time-integrated drive vanishes; the map is the identity here"
        )

    rho0 = np.outer(psi, psi.conj())
    rho_t = rho0 - 1j * (k_op @ rho0 - rho0 @ k_op)

    v0 = k_op @ psi
    x = float(np.linalg.norm(v0))
    if x <= 1e-13 * k_scale:
        raise WitnessInapplicableError("K(t)|psi> vanishes; nothing to witness")
    v1 = psi - 1j * v0
    q, r = np.linalg.qr(np.stack([v0, v1], axis=1))
    beta_abs = float(abs(r[1, 1]) / np.linalg.norm(v1))

    det = np.linalg.det(q.conj().T @ rho_t @ q)
    if abs(det.imag) > 1e-10 * max(1.0, abs(det.real)):
        raise AccuracyError("restricted determinant is not numerically real")
    predicted = -x * x * (1.0 + x * x) * beta_abs * beta_abs
    return WitnessResult(det_value=float(det.real), predicted=float(predicted),
                         x=x, beta_abs=beta_abs)


def _xi_moments(system: SpinSystem, states: np.ndarray) -> np.ndarray:
    """<xi^x>, <xi^y>, <xi^z> of Schrodinger-picture states: (3, n), Tr(rho_n xi_k)."""
    xi = np.stack([xi_operator(system, axis) for axis in "xyz"])
    return np.einsum("nab,kba->kn", states, xi)


def export_trajectory_csv(model: MasterEquationModel, traj: Trajectory,
                          path) -> None:
    """Write t plus Re/Im of <xi^x>, <xi^y>, <xi^z> and populations (Schrodinger picture)."""
    states = traj.schrodinger_states()
    moments = _xi_moments(model.system, states)
    header = ["t"]
    for axis in "xyz":
        header += [f"re_xi_{axis}", f"im_xi_{axis}"]
    header += [f"pop_{n}" for n in range(model.dim)]
    columns = [traj.times]
    for ev in moments:
        columns += [ev.real, ev.imag]
    columns += list(np.real(np.diagonal(states, axis1=1, axis2=2)).T)
    write_csv(path, header, [col.tolist() for col in columns])
