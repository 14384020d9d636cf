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
the equation is affine in the column-stacked state: y' = L y + f(t).  The
RK4 stepper builds the matrix of L once per run and tabulates f over its
grid; ``Lambda(t)`` comes from one eigendecomposition of the same matrix.
Both are capped at dimension MAP_DIM_CAP, where L has D^4 entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lineshape, numutil
from .eigenops import LadderTable, ladder_table
from .errors import (
    AccuracyError,
    DomainViolationError,
    ValidationError,
    WitnessInapplicableError,
)
from .lineshape import FrequencyDistribution, characteristic, drive_weight, relaxation_time
from .spincore import SpinSystem, boltzmann_state, level_data, xi_operator

__all__ = [
    "FieldConfig",
    "MasterEquationModel",
    "Trajectory",
    "PauliRate",
    "KrausAudit",
    "WitnessResult",
    "build_model",
    "linear_response_hamiltonian",
    "dissipator",
    "propagate",
    "lambda_map",
    "kraus_audit",
    "noncp_witness",
    "pauli_rates",
    "export_trajectory_csv",
]

MAP_DIM_CAP = 64
# rows per drive table: steps in _rk4 (three (n, D^2) tables), times in _apply_map
RK4_CHUNK = 64
# complex elements per (n D^4) node-sum temporary of kraus_audit (512 kB), at least one node
AUDIT_CHUNK = 2 ** 15
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


@dataclass
class MasterEquationModel:
    """Assembled superoperator data; treat as immutable after construction."""

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
        """``ladder.dense()``, built on each read; no code of the package reads it."""
        return self.ladder.dense()


def build_model(system: SpinSystem, field_cfg: FieldConfig, beta: float) -> MasterEquationModel:
    """Assemble the zeroth-order model for a system in the given field.

    The ladder table comes from :func:`eigenops.ladder_table`; rates and Lamb
    weights are evaluated over its block frequencies at once, and
    h_ls = sum_w lamb_w [xi_w, xi_w^dag] and _anti = sum_w (g_w / 2)
    {xi_w, xi_w^dag} are sums over pairs of its entries (:func:`_pair_sums`).
    """
    if not np.isfinite(beta):
        raise ValidationError("beta must be finite")
    levels = level_data(system, field_cfg.b_o)
    ladder = ladder_table(system, levels)
    omegas = ladder.omegas

    b1, dist = field_cfg.b_1, field_cfg.dist
    if b1 > 0 and omegas.size and dist.kind == "delta":
        raise ValidationError("a delta-line drive has no finite dissipator rates")
    if b1 > 0 and omegas.size:
        gp = lineshape.dissipator_weight(dist, omegas, b1, +1)
        gm = lineshape.dissipator_weight(dist, omegas, b1, -1)
        lamb = (lineshape.lamb_weight(dist, omegas, b1, +1)
                + lineshape.lamb_weight(dist, omegas, b1, -1))
    else:
        gp, gm, lamb = np.zeros((3, len(omegas)))

    half_g = 0.5 * (gp + gm)
    h_ls, anti = _pair_sums(ladder, (lamb, -lamb), (half_g, half_g))
    return MasterEquationModel(
        system=system, field=field_cfg, beta=beta, levels=levels, ladder=ladder, rates_plus=gp,
        rates_minus=gm, h_ls=h_ls, boltzmann=boltzmann_state(levels.energies, beta), _anti=anti)


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
    Every time must be finite and nonnegative.
    """
    times = _map_times(t)
    ts = np.atleast_1d(times)
    env = 2.0 * model.field.b_1 * np.real(characteristic(model.field.dist, ts))
    out = model.ladder.hermitian(env[:, None] * np.exp(-1j * np.outer(ts, model.ladder.omegas)))
    return out if times.ndim else out[0]


def dissipator(model: MasterEquationModel, rho: np.ndarray) -> np.ndarray:
    """Apply the stimulated emission/absorption dissipator to ``rho``.

    D[rho] = sum_w g_w (xi_w rho xi_w^dag + xi_w^dag rho xi_w) - {anti, rho}
    as batched products over the dense (K, D, D) ladder stack: K D^3 work.
    """
    rho = np.asarray(rho)
    if rho.shape != (model.dim, model.dim):
        raise ValidationError("density matrix dimension mismatch")
    p = model.ladder.dense()
    p_dag = p.conj().transpose(0, 2, 1)
    g = (model.rates_plus + model.rates_minus)[:, None, None]
    return (((g * p) @ rho @ p_dag).sum(0) + ((g * p_dag) @ rho @ p).sum(0)
            - (model._anti @ rho + rho @ model._anti))


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
    if unsafe:
        return
    if numutil.max_abs(np.asarray(rho0) - model.boltzmann) > DOMAIN_ATOL:
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
        """Conjugate with exp(-i t Z0): rho_ab(t) = e^{-i t (eps_a - eps_b)} state_ab."""
        gaps = self.energies[:, None] - self.energies[None, :]
        phases = np.exp(-1j * self.times[:, None, None] * gaps[None, :, :])
        return phases * self.states

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def propagate(model: MasterEquationModel, rho0: np.ndarray, t_end: float,
              dt: float | None = None, *, store_every: int | None = None,
              unsafe: bool = False) -> Trajectory:
    """Fixed-step 4th-order integration of the inhomogeneous master equation.

    Classical RK4 on the column-stacked state with the generator L built
    once and the drive term tabulated over the grid (:func:`_rk4`); the
    dimension shares the MAP_DIM_CAP of :func:`lambda_map` and is refused
    before any step is taken.
    """
    _check_domain(model, rho0, unsafe)
    return _rk4(model, rho0, t_end, dt, store_every)


def _time_grid(model: MasterEquationModel, t_end: float, dt: float | None,
               store_every: int | None):
    """Step and stored step numbers of the fixed-step grid on [0, t_end].

    ``dt`` defaults to :func:`default_dt` and is shrunk to t_end / n_steps so
    it divides ``t_end``; ``store_every`` defaults to n_steps // 2000 (at
    least 1).  The stored steps are 0, every multiple of ``store_every`` and
    the last step, so the stored times are ``steps * dt``.  Built from the
    counts alone: O(frames), not O(steps).
    """
    if dt is None:
        dt = default_dt(model)
    if not dt > 0:
        raise ValidationError("dt must be positive")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValidationError(f"t_end must be finite and positive, got {t_end}")
    if store_every is not None and store_every < 1:
        raise ValidationError(f"store_every must be at least 1, got {store_every}")

    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    if store_every is None:
        store_every = max(1, n_steps // 2000)
    steps = np.arange(0, n_steps + 1, store_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return t_end / n_steps, steps


def _rk4(model: MasterEquationModel, rho0: np.ndarray, t_end: float,
         dt: float | None, store_every: int | None, extra=None) -> Trajectory:
    """Classical RK4 for y' = L y + f(t) [+ vec extra(t)], y = vec(rho), from rho0.

    The one time stepper of the package: :func:`propagate` runs it bare and
    ``acp.propagate_order_n`` with its order-n inhomogeneity as ``extra``.
    The generator L is built once (:func:`liouvillian_matrix`, which refuses
    D > MAP_DIM_CAP), and the drive term f(t) = vec(-i [H_LR(t), rho0]) is
    tabulated at the stage times t_n, t_n + dt/2 and t_n + dt, RK4_CHUNK
    steps at a time (:func:`_drive_table`), so each stage is one
    matrix-vector product plus a table row.  Steps and stored frames follow
    :func:`_time_grid`.
    """
    dt, steps = _time_grid(model, t_end, dt, store_every)
    lmat = liouvillian_matrix(model)
    d = model.dim
    rho_init = np.array(rho0, dtype=complex)
    comps, freqs = _drive_components(model, rho_init)
    y = numutil.vec(rho_init).copy()
    states = np.empty((steps.size, d, d), dtype=complex)
    states[0] = rho_init

    def stage(t, vec_rho, drive):
        out = lmat @ vec_rho
        out += drive
        if extra is not None:
            out += numutil.vec(extra(t))
        return out

    n_steps = int(steps[-1])
    step, frame = 0, 1
    for first in range(0, n_steps, RK4_CHUNK):
        t_n = np.arange(first, min(first + RK4_CHUNK, n_steps)) * dt
        t_h, t_1 = t_n + 0.5 * dt, t_n + dt
        tables = [_drive_table(model.field.dist, comps, freqs, ts) for ts in (t_n, t_h, t_1)]
        for t, th, t1, f_n, f_h, f_1 in zip(t_n.tolist(), t_h.tolist(), t_1.tolist(),
                                            *tables):
            k1 = stage(t, y, f_n)
            k2 = stage(th, y + 0.5 * dt * k1, f_h)
            k3 = stage(th, y + 0.5 * dt * k2, f_h)
            k4 = stage(t1, y + dt * k3, f_1)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            step += 1
            if step == steps[frame]:
                states[frame] = numutil.unvec(y, d)
                frame += 1

    return Trajectory(times=steps * dt, states=states,
                      energies=model.levels.energies.copy())


def _drive_components(model: MasterEquationModel, rho_init: np.ndarray):
    """Components c_j (rows) and frequencies w_j of vec(-i [H_LR(t), rho0]).

    The drive term is Re[phi_f(t)] sum_j exp(-i w_j t) c_j with
    c = vec(-2 i B1 [xi_w, rho0]) at +w and vec(-2 i B1 [xi_w^dag, rho0]) at
    -w, from one batched product over the dense ladder stack.
    """
    p = model.ladder.dense()
    ops = np.concatenate([p, p.conj().transpose(0, 2, 1)])
    comm = -2j * model.field.b_1 * (ops @ rho_init - rho_init @ ops)
    comps = comm.transpose(0, 2, 1).reshape(len(ops), model.dim ** 2)
    return comps, np.concatenate([model.ladder.omegas, -model.ladder.omegas])


def _drive_table(dist: FrequencyDistribution, comps: np.ndarray, freqs: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Row n is vec(-i [H_LR(times[n]), rho0]): one phase-matrix product."""
    envelope = np.real(characteristic(dist, times))
    return (envelope[:, None] * np.exp(-1j * np.outer(times, freqs))) @ comps


def liouvillian_matrix(model: MasterEquationModel) -> np.ndarray:
    """Column-stacked matrix of the semigroup generator L.

    The jump part is scattered from the pairs (e, f) of entries of one block:
    g v_e conj(v_f) takes rho[col_e, col_f] to [row_e, row_f] and g conj(v_e)
    v_f takes rho[row_e, row_f] to [col_e, col_f]; no element is written
    twice, as (row, col) names one entry and M_col - M_row = 1.  M rho + rho N,
    M = -i h_ls - anti and N = i h_ls - anti, is added through diagonal views.
    """
    _check_map_dim(model)
    d, ladder = model.dim, model.ladder
    rows, cols, v = ladder.rows, ladder.cols, ladder.values
    e, f = _pairs(ladder.block)
    g = (model.rates_plus + model.rates_minus)[ladder.block[e]]
    lmat = np.zeros((d * d, d * d), dtype=complex)
    l4 = lmat.reshape(d, d, d, d)      # [out column, out row, in column, in row]
    l4[rows[f], rows[e], cols[f], cols[e]] = g * v[e] * v[f].conj()
    l4[cols[f], cols[e], rows[f], rows[e]] = g * v[e].conj() * v[f]
    left = np.einsum("jajb->jab", l4)
    left += -1j * model.h_ls - model._anti
    right = np.einsum("jala->jal", l4)
    right += (1j * model.h_ls - model._anti).T[:, None, :]
    return lmat


def _check_map_dim(model: MasterEquationModel) -> None:
    if model.dim > MAP_DIM_CAP:
        raise ValidationError(
            f"map-level operations and propagation are capped at dimension "
            f"MAP_DIM_CAP = {MAP_DIM_CAP}, got {model.dim}"
        )


def _eigensystem(mat: np.ndarray):
    """Eigenvalues lam, eigenvectors V and V^-1 of ``mat`` = V diag(lam) V^-1.

    The eigenvector form of exp(mat t) is exact only while V is well
    conditioned (Moler & Van Loan, SIAM Rev. 45 (2003) 3); an AccuracyError
    reports ||V||_1 ||V^-1||_1 > EIGVEC_COND_CAP, i.e. ``mat`` is defective
    or nearly so.
    """
    lam, v = np.linalg.eig(mat)
    try:
        v_inv = np.linalg.inv(v)
        cond = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    except np.linalg.LinAlgError:
        cond = math.inf
    if not cond <= EIGVEC_COND_CAP:
        raise AccuracyError(
            f"the generator is defective or nearly so (eigenvector condition "
            f"number {cond:.2e} > {EIGVEC_COND_CAP:.0e})")
    return lam, v, v_inv


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

    ``t`` is one time, giving the (D, D) state, or a 1-D array of times,
    giving the (nt, D, D) states; either way the call makes one
    eigendecomposition L = V diag(lam) V^-1 of the vectorized generator
    (:func:`_apply_map`).  Every time must be finite and nonnegative.
    ``include_drive=False`` drops the inhomogeneous term, leaving the
    completely positive semigroup alone.  An AccuracyError means L is
    defective or nearly so.
    """
    times = _map_times(t)
    _check_domain(model, rho0, unsafe)
    eig = _eigensystem(liouvillian_matrix(model))
    states = _apply_map(model, eig, np.atleast_1d(times), rho0, include_drive)
    return states if times.ndim else states[0]


def _apply_map(model: MasterEquationModel, eig, times: np.ndarray, rho0: np.ndarray,
               include_drive: bool = True) -> np.ndarray:
    """(nt, D, D) states Lambda(t) rho0 at ``times`` from ``eig`` = (lam, V, V^-1) of L.

    The semigroup part is V e^{lam t} V^-1 rho0.  The drive term is
    Re[phi_f(s)] sum_j e^{-i w_j s} c_j with the components c_j of
    :func:`_drive_components`; each adds V [(V^-1 c_j) * W(lam, w_j, t)],
    W = int_0^t e^{lam (t-s)} Re[phi_f(s)] e^{-i w_j s} ds from one
    :func:`lineshape.drive_weight` call per RK4_CHUNK times over the nonzero
    (j, k) of V^-1 c, scatter-added.  Shared by :func:`lambda_map` and
    :func:`kraus_audit`, so each call makes exactly one eigendecomposition of L.
    """
    lam, v, v_inv = eig
    rho_init = np.array(rho0, dtype=complex)
    coef = np.exp(np.outer(times, lam)) * (v_inv @ numutil.vec(rho_init))

    if include_drive and model.field.b_1 > 0:
        comps, freqs = _drive_components(model, rho_init)
        c = comps @ v_inv.T
        rows, cols = np.nonzero(c)
        lam_k, w_j, c_jk = lam[cols], freqs[rows], c[rows, cols]
        for first in range(0, len(times), RK4_CHUNK):
            chunk = slice(first, first + RK4_CHUNK)
            weights = drive_weight(model.field.dist, lam_k, w_j, times[chunk, None])
            np.add.at(coef[chunk], (slice(None), cols), c_jk * weights)

    d = model.dim
    return (coef @ v.T).reshape(len(times), d, d).transpose(0, 2, 1)


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
    V^-1 from one eigendecomposition of L.  The sums V^-1 Phi_i run over
    batches of nodes whose n D^4 temporaries hold at most AUDIT_CHUNK
    elements: H_LR of a batch is one call and its sum two matrix products
    (:func:`_node_sum`), with no per-node superoperator.  The report holds
    the trace and reconstruction residuals of Phi1 - Phi2 applied to rho0,
    the latter against :func:`lambda_map` evaluated from the same
    eigendecomposition; the completeness residual max|(Phi1 - Phi2)^dag (I)
    - I|, i.e. of sum K^dag K over the two Kraus sets; and the minimum Choi
    eigenvalue of each Phi (Choi, Linear Algebra Appl. 10 (1975) 285),
    nonnegative for a CP map.  ``t`` must be one finite nonnegative time.
    """
    t = _map_time(t)
    _check_domain(model, rho0, unsafe)
    d = model.dim
    lam, v, v_inv = eig = _eigensystem(liouvillian_matrix(model))
    rho_init = np.array(rho0, dtype=complex)
    eye = np.eye(d)

    if n_nodes % 2:
        n_nodes += 1
    ts = np.linspace(0.0, t, n_nodes + 1)
    weights = np.ones(n_nodes + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= t / n_nodes / 3.0

    # V^-1 Phi_i accumulated a batch of nodes at a time; V applied once at the end
    acc1 = np.exp(lam * t)[:, None] * v_inv
    acc2 = np.zeros_like(acc1)
    step = max(1, AUDIT_CHUNK // d ** 4)
    for first in range(0, ts.size, step):
        tau, weight = ts[first:first + step], weights[first:first + step]
        m_ops = (eye - 1j * linear_response_hamiltonian(model, tau)) / math.sqrt(2.0)
        scale = weight[:, None] * np.exp(np.outer(t - tau, lam))
        acc1 += _node_sum(v_inv, scale, m_ops)
        acc2 += _node_sum(v_inv, scale, m_ops.conj().transpose(0, 2, 1))
    phi1_mat, phi2_mat = v @ acc1, v @ acc2

    diff = phi1_mat - phi2_mat
    reconstructed = numutil.unvec(diff @ numutil.vec(rho_init), d)
    reference = _apply_map(model, eig, np.array([t]), rho_init)[0]
    completeness = numutil.unvec(diff.conj().T @ numutil.vec(eye), d)
    trace_residual = abs(complex(np.trace(reconstructed)) - complex(np.trace(rho_init)))

    phi1_choi_min, phi2_choi_min = (
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


def _node_sum(v_inv: np.ndarray, scale: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_n diag(scale_n) V^-1 (conj A_n (x) A_n) for a (n, D, D) stack ``ops``.

    Row r of V^-1, read as the D x D matrix R_r (row-major), maps to the
    row-major A_n^dag R_r A_n, so the sum is two matrix products: (D^3, D) @
    (D, n D) gives every R_r A_n, which is scaled by ``scale`` (n, D^2) and
    reordered to ((n, i), (r, k)) rows and columns for (D, n D) @ (n D, D^3)
    with the conjugate-transposed stack.  2 n D^5 multiply-adds.
    """
    n, d = ops.shape[0], ops.shape[-1]
    right = v_inv.reshape(d ** 3, d) @ ops.transpose(1, 0, 2).reshape(d, n * d)
    right = right.reshape(d * d, d, n, d)          # [r, i, n, k]
    right *= scale.T[:, None, :, None]
    left = ops.conj().transpose(2, 0, 1).reshape(d, n * d)
    out = left @ right.transpose(2, 1, 0, 3).reshape(n * d, d ** 3)
    return out.reshape(d, d * d, d).transpose(1, 0, 2).reshape(d * d, d * d)


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

    Builds rho(t) = rho0 - i [K(t), rho0] for rho0 = |psi><psi|, restricts to
    the two-dimensional subspace spanned by K|psi> and its orthogonal
    complement within span{psi, K psi}, and returns the restricted
    determinant next to the closed-form prediction ``-x^2 (1 + x^2) |b|^2``.
    """
    t = _map_time(t)
    if not unsafe:
        raise DomainViolationError(
            "the witness feeds a pure state to a map whose domain is the "
            "Boltzmann state; pass unsafe=True to acknowledge"
        )
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != model.dim:
        raise ValidationError("state dimension mismatch")
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
    v0t = v0 / x
    v1 = psi - 1j * v0
    v1t = v1 / np.linalg.norm(v1)
    alpha = complex(np.vdot(v0t, v1t))
    w = v1t - alpha * v0t
    beta_abs = float(np.linalg.norm(w))
    if beta_abs > 1e-12:
        perp = w / beta_abs
    else:
        # degenerate direction: any unit vector orthogonal to v0t will do
        basis = np.eye(model.dim, dtype=complex)
        overlaps = basis - np.outer(v0t, v0t.conj() @ basis)
        col = int(np.argmax(np.linalg.norm(overlaps, axis=0)))
        perp = overlaps[:, col] / np.linalg.norm(overlaps[:, col])

    sub = np.array([
        [np.vdot(v0t, rho_t @ v0t), np.vdot(v0t, rho_t @ perp)],
        [np.vdot(perp, rho_t @ v0t), np.vdot(perp, rho_t @ perp)],
    ])
    det = np.linalg.det(sub)
    if abs(det.imag) > 1e-10 * max(1.0, abs(det.real)):
        raise AccuracyError("restricted determinant is not numerically real")
    predicted = -x * x * (1.0 + x * x) * beta_abs * beta_abs
    return WitnessResult(det_value=float(det.real), predicted=float(predicted),
                         x=x, beta_abs=beta_abs)


@dataclass(frozen=True)
class PauliRate:
    """One directed transition entry of the Pauli rate table."""

    n_from: int       # column state (higher magnetization for omega > 0 entries)
    n_to: int
    omega: float
    gamma_plus: float
    gamma_minus: float
    element: complex
    canonical: bool = True   # False for the mirrored orientation of a pair

    @property
    def total(self) -> float:
        return self.gamma_plus + self.gamma_minus


def pauli_rates(model: MasterEquationModel):
    """Stimulated transition rates between basis states.

    Entries come in mirror pairs: the reverse transition carries the
    opposite-sign frequency with the plus/minus rates swapped, so the total
    rate is symmetric under exchanging the two states.  One pass over the
    ladder table, canonical entry first, in its (block, row, col) order.
    """
    ladder = model.ladder
    omegas, gps, gms = (a.tolist() for a in (ladder.omegas, model.rates_plus, model.rates_minus))
    entries = []
    for k, a, b, el in zip(ladder.block.tolist(), ladder.rows.tolist(), ladder.cols.tolist(),
                           ladder.values.tolist()):
        w, gp, gm = omegas[k], gps[k], gms[k]
        weight = abs(el) ** 2
        entries.append(PauliRate(n_from=b, n_to=a, omega=w,
                                 gamma_plus=gp * weight, gamma_minus=gm * weight,
                                 element=el, canonical=True))
        entries.append(PauliRate(n_from=a, n_to=b, omega=-w,
                                 gamma_plus=gm * weight, gamma_minus=gp * weight,
                                 element=el.conjugate(), canonical=False))
    return tuple(entries)


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
    numutil.write_csv(path, header, [col.tolist() for col in columns])
