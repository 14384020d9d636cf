"""Slow independent routes the tests check the library against.

Composite Simpson integration with node doubling, the wavefunction
(time-dependent perturbation theory) transition probabilities of a pure
initial state, the principal-value quadrature of the Kramers-Kronig check,
the boson-count convolution, the per-term stick spectrum (dict expansion,
tuple sort, anchor merge) with its CSV and SVG writers, the CSV writer
through the ``csv`` module, the transition rate by a scan of the whole
Pauli table, the operator-form RK4 stepper (H_LR(t) and the dissipator
rebuilt at every stage), the Kraus-factor audit (e^{Ls} refactorised from
its Choi matrix at every node) with its dense operator-sum superoperator,
the full-L map routes (``lambda_map`` and the Kraus audit from one
eigendecomposition of the whole D^2 x D^2 generator, node sums through the
dense V^-1), the dissipator and generator with their jump-pair coefficients
formed inline, the Kronecker-product spin operators, the textbook single-spin
matrices scattered whole, the flip-flop couplings one pair at a time and with
inline ladder values, the ladder table built one spin at a time, the
per-block loops of the model's ladder sums and Pauli table, the scalar
linear-response route (one commutator average, ``ChiKernel`` and
``rho_integral`` per block and sign), the model arrays and steady
magnetization by their two-pass formulas (spin tables
built twice, the line shape at +w and at -w apart), the scalar
envelope integral with the map's drive term looped over times and nonzero
pairs, the dense (K, D, D) ladder stack with the map's drive components
as batched products over it, the dense ladder decomposition of any
observable (one Python step per nonzero), and the thermal ladder Y^(n)(i
beta) from one exponential of the whole block-bidiagonal matrix.  None of
these is part of the package: each is a reference for a closed form, a
master-equation rate, the block-at-once sums of :mod:`spinlind.response`,
the one-pass model build, the array route of :mod:`spinlind.spectrum`, the
template CSV writer of
:mod:`spinlind.artifact`, the vectorized stepper of
:mod:`spinlind.mastereq`, its per-block eigensystems or its superoperator
audit, the occupation-table operators of :mod:`spinlind.spincore`, the
batched ladder sums, the broadcasting envelope integral of
:mod:`spinlind.lineshape`, the sparse ladder table of
:mod:`spinlind.eigenops`, or the per-component ladder of :mod:`spinlind.acp`.
"""

import cmath
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat

import numpy as np
import scipy.integrate
import scipy.linalg

from spinlind import eigenops as eo
from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import response as rs
from spinlind import spectrum as sp
from spinlind import spincore as sc
from spinlind.errors import AccuracyError, ValidationError
from spinlind.lineshape import FrequencyDistribution, density, envelope_integral, hilbert
from spinlind.mastereq import MasterEquationModel, _map_time
from spinlind import artifact, numutil
from spinlind import qubit as qb
from spinlind.artifact import fmt12
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


def kramers_kronig_residual(kernels, grid, eta: float, *,
                            window: float = 40.0) -> float:
    """Consistency of the eta-smoothed response with its dispersion relation.

    Reconstructs chi_eta(w') = sum g / ((sign w' - w0) + i eta), computes
    (1/pi) PV int Im chi_eta(u) / (u - w') du over a finite window by
    principal-value quadrature, and returns the maximum deviation from
    Re chi_eta on the grid.  The finite window contributes an O(eta) tail
    error; the identity itself is exact for the smoothed form.
    """
    if eta <= 0:
        raise ValidationError("eta must be positive")
    kernels = list(kernels)
    grid = np.asarray(grid, dtype=float)

    def chi(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        for k in kernels:
            out += k.commutator_avg / ((k.sign * u - k.omega_o) + 1j * eta)
        return out

    if not kernels:
        return 0.0

    centers = [k.sign * k.omega_o for k in kernels]
    lo = min(min(centers), float(grid.min())) - window
    hi = max(max(centers), float(grid.max())) + window

    worst = 0.0
    for x in grid:
        val, _ = scipy.integrate.quad(lambda u: float(np.imag(chi(u))), lo, hi,
                                      weight="cauchy", wvar=float(x), limit=400)
        re_rec = val / math.pi
        worst = max(worst, abs(re_rec - float(np.real(chi(x)))))
    return worst


def a_term(model, t: float, rho0: np.ndarray) -> np.ndarray:
    """Inhomogeneous drive term -i [H_LR(t), rho0]."""
    h = me.linear_response_hamiltonian(model, t)
    return -1j * (h @ rho0 - rho0 @ h)


def commutator_drive_table(model, rho0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(nt, D^2) rows vec(-i [H_LR(t), rho0]) from one ``linear_response_hamiltonian`` call
    over ``ts``: the half-step table the RK4 stepper built before it read the drive
    components, two (D, D) products per time."""
    h = me.linear_response_hamiltonian(model, ts)
    return (-1j * (h @ rho0 - rho0 @ h)).transpose(0, 2, 1).reshape(len(ts), -1)


def _l_term(model, rho: np.ndarray) -> np.ndarray:
    h = model.h_ls
    return -1j * (h @ rho - rho @ h) + me.dissipator(model, rho)


def rk4_oracle(model, rho0: np.ndarray, t_end: float, dt, store_every, extra=None):
    """Classical RK4 for d rho/dt = A(t) rho0 + L rho(t) [+ extra(t)] from rho0.

    The operator form: every stage rebuilds H_LR(t) and applies the
    dissipator as products over the ladder stack.  Steps and stored frames
    follow ``mastereq._time_grid``.
    """
    dt, steps = me._time_grid(model, t_end, dt, store_every)
    rho_init = np.array(rho0, dtype=complex)
    y = rho_init.copy()
    states = np.empty((steps.size,) + y.shape, dtype=complex)
    states[0] = y

    def rhs(t, rho):
        out = a_term(model, t, rho_init) + _l_term(model, rho)
        return out if extra is None else out + extra(t)

    t = 0.0
    frame = 1
    for step in range(1, int(steps[-1]) + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt
        if step == steps[frame]:
            states[frame] = y
            frame += 1

    return me.Trajectory(times=steps * dt, states=states,
                         energies=model.levels.energies.copy())


# Choi eigenvalues below -CHOI_TOL * max(1, lam_max) mean the map is not CP
CHOI_TOL = 1e-9


def sandwich_superop(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_k w_k A_k rho A_k^dag for a (K, D, D) stack ``ops``.

    That is sum_k w_k conj(A_k) (x) A_k, formed as one (D^2, K) @ (K, D^2)
    product M[(a b), (c d)] = sum_k w_k conj(A_k)[a, b] A_k[c, d] and a
    reshuffle to the Kronecker order [(a c), (b d)].  An empty stack gives 0.
    """
    k, d = ops.shape[0], ops.shape[-1]
    flat = ops.reshape(k, d * d)
    m = (weights[:, None] * flat.conj()).T @ flat
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def kraus_from_choi(choi: np.ndarray, dim: int):
    """Kraus factors of a CP map from its (Hermitian) Choi matrix.

    Raises AccuracyError when the Choi matrix has eigenvalues below
    ``-CHOI_TOL * max(1, lam_max)``, i.e. the map is not CP to tolerance;
    eigenvalues up to 1e-4 of that bound are dropped as zero.
    """
    evals, evecs = np.linalg.eigh(numutil.hermitize(choi))
    scale = max(1.0, float(evals.max(initial=0.0)))
    if evals.min(initial=0.0) < -CHOI_TOL * scale:
        raise AccuracyError(
            f"Choi matrix is not positive semidefinite: min eigenvalue {evals.min():.3e}"
        )
    kraus = []
    for lam, v in zip(evals, evecs.T):
        if lam <= CHOI_TOL * scale * 1e-4:
            continue
        kraus.append(np.sqrt(lam) * v.reshape(dim, dim))
    return kraus


def _semigroup_kraus(model, eig, s):
    """Stacked Kraus factors of e^{L s} = V diag(e^{lam s}) V^-1."""
    lam, v, v_inv = eig
    prop = (v * np.exp(lam * s)) @ v_inv
    choi = numutil.choi_matrix(prop, model.dim)
    return np.array(kraus_from_choi(choi, model.dim))


def _kraus_sum(kraus: np.ndarray) -> np.ndarray:
    """sum_k K_k^dag K_k over a (r, D, D) stack."""
    return (kraus.conj().transpose(0, 2, 1) @ kraus).sum(0)


def kraus_audit_oracle(model, t: float, rho0: np.ndarray, *,
                       unsafe: bool = False, n_nodes: int = 256) -> me.KrausAudit:
    """Rebuild the map as a difference of two CP maps and report residuals.

    The semigroup factors come from the Choi eigendecomposition of e^{L s},
    taken at every node from one eigendecomposition of L; the drive is
    inserted through M(s) = (I - i H_LR(s))/sqrt(2), so that
    ``M rho M^dag - M^dag rho M = -i [H_LR, rho]``.  The reconstruction
    residual is measured against :func:`full_apply_map`, evaluated from the
    same eigendecomposition.
    """
    me._check_domain(model, rho0, unsafe)
    d = model.dim
    eig = full_eigensystem(model)
    rho_init = np.array(rho0, dtype=complex)
    eye = np.eye(d)

    if n_nodes % 2:
        n_nodes += 1
    ts = np.linspace(0.0, t, n_nodes + 1)
    weights = np.ones(n_nodes + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= t / n_nodes / 3.0

    kraus_t = _semigroup_kraus(model, eig, t)
    phi1_mat = sandwich_superop(kraus_t, np.ones(len(kraus_t)))
    phi2_mat = np.zeros((d * d, d * d), dtype=complex)
    completeness = _kraus_sum(kraus_t)

    for tau, weight in zip(ts, weights):
        m_op = (eye - 1j * me.linear_response_hamiltonian(model, tau)) / math.sqrt(2.0)
        kraus = _semigroup_kraus(model, eig, t - tau)
        node_weights = np.full(len(kraus), weight)
        phi1_mat += sandwich_superop(kraus @ m_op, node_weights)
        phi2_mat += sandwich_superop(kraus @ m_op.conj().T, node_weights)
        ksum = _kraus_sum(kraus)
        completeness = completeness + weight * (
            m_op.conj().T @ ksum @ m_op - m_op @ ksum @ m_op.conj().T)

    reconstructed = numutil.unvec((phi1_mat - phi2_mat) @ numutil.vec(rho_init), d)
    reference = full_apply_map(model, eig, np.array([t]), rho_init)[0]
    trace_residual = abs(complex(np.trace(reconstructed)) - complex(np.trace(rho_init)))
    rec_residual = numutil.max_abs(reconstructed - reference)
    comp_residual = numutil.max_abs(completeness - eye)

    phi1_choi_min = float(np.linalg.eigvalsh(
        numutil.hermitize(numutil.choi_matrix(phi1_mat, d))).min())
    phi2_choi_min = float(np.linalg.eigvalsh(
        numutil.hermitize(numutil.choi_matrix(phi2_mat, d))).min())

    return me.KrausAudit(
        trace_residual=trace_residual,
        reconstruction_residual=rec_residual,
        completeness_residual=comp_residual,
        phi1_choi_min=phi1_choi_min,
        phi2_choi_min=phi2_choi_min,
        n_nodes=n_nodes,
    )


def stacked_choi_minima(phi1_mat: np.ndarray, phi2_mat: np.ndarray, dim: int) -> tuple:
    """The least Choi eigenvalue of each Phi, both Choi matrices stacked as one
    (2, D^2, D^2) array, Hermitized together and given to one ``eigvalsh``."""
    choi = np.stack([numutil.choi_matrix(phi, dim) for phi in (phi1_mat, phi2_mat)])
    hermitian = 0.5 * (choi + choi.conj().transpose(0, 2, 1))
    return tuple(np.linalg.eigvalsh(hermitian).min(axis=1).tolist())


def per_call_sectors(system, b_o: float) -> tuple:
    """:func:`spincore.level_data`'s energies and ``SpinSystem._sectors``, rebuilt on every call
    from fresh spin tables: Z0's energies and each total-M sector's (idx, rows, cols, values),
    nothing kept."""
    tables = sc._tabulate(system)
    sz = tables[0]
    energies = -b_o * np.dot(np.asarray(system.gammas)[None], sz)[0]
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                energies = energies + t[i, j] * sz[i] * sz[j]
    first, second = np.nonzero(np.tril(system.couplings, -1))
    weights = np.array(system.weights)
    flip = tables[2][first] * tables[1][second]
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
    return energies, sectors


def convolution_degeneracies(j: float, count: int) -> list:
    """Coefficients of (1 + x + ... + x^{2j})^count as exact integers."""
    d = int(round(2 * j)) + 1
    coeffs = [1]
    for _ in range(count):
        out = [0] * (len(coeffs) + d - 1)
        for a, ca in enumerate(coeffs):
            for b in range(d):
                out[a + b] += ca
        coeffs = out
    return coeffs


def _polynomial_terms(groups, resonance_label):
    """Generating-polynomial terms as a dict, exponent tuple -> int coefficient."""
    by_label = sp._group_map(groups)
    neighbors = sp._neighbors(groups, by_label[resonance_label])
    terms = {(): 1}
    for g in neighbors:
        coeffs = convolution_degeneracies(g.j, g.count)
        new_terms = {}
        for expo, c in terms.items():
            for n, cn in enumerate(coeffs):
                new_terms[expo + (n,)] = c * cn
        terms = new_terms
    return tuple(g.label for g in neighbors), terms


def _lines_for_group(groups, label, omega_o, scaled):
    by_label = sp._group_map(groups)
    res = by_label[label]
    variables, terms = _polynomial_terms(groups, label)
    lambdas = [res.lambdas[lab] for lab in variables]
    # the exact rational scale gamma^2 N binom(2j+2, 3) abundance / D
    scale = (Fraction(res.gamma) ** 2 * res.count * math.comb(round(2 * res.j) + 2, 3)
             * Fraction(res.abundance) / sp.subspace_dimension(groups, label))
    out = []
    for expo, coeff in terms.items():
        delta_b = sum(lam * n for lam, n in zip(lambdas, expo))
        config = tuple(zip(variables, expo))
        out.append((delta_b, float(coeff * scale) if scaled else coeff, config))
    return out


def stick_spectrum_oracle(groups, resonance_label, omega_o=0.0, *, scaled=False,
                          absolute=False, merge_tol=sp.MERGE_TOL_GAUSS):
    """:func:`spinlind.spectrum.stick_spectrum` one term at a time.

    Terms are sorted as (position, config) tuples; a line absorbs each next
    term within ``merge_tol`` of its first position.  Returns the spectrum
    and its lines, built here from the merged terms rather than parsed from
    the config text as ``StickSpectrum.lines`` is.
    """
    labels = ([resonance_label] if isinstance(resonance_label, str)
              else list(resonance_label))
    raw = []
    for lab in labels:
        ref = sp.reference_field(groups, lab, omega_o) if absolute else 0.0
        for delta_b, intensity, config in _lines_for_group(groups, lab, omega_o,
                                                           scaled or len(labels) > 1):
            raw.append((delta_b + ref, intensity, config))

    raw.sort(key=lambda item: (item[0], item[2]))
    merged = []
    for delta_b, intensity, config in raw:
        if merged and abs(delta_b - merged[-1][0]) <= merge_tol:
            prev_b, prev_i, prev_cfgs = merged[-1]
            merged[-1] = (prev_b, prev_i + intensity, prev_cfgs + (config,))
        else:
            merged.append((delta_b, intensity, (config,)))

    lines = tuple(sp.SpectrumLine(delta_b=b, intensity=i, configs=cfgs)
                  for b, i, cfgs in merged)
    config_text = []
    for _, _, cfgs in merged:
        text = ""
        for k, cfg in enumerate(cfgs):
            text += "|" if k else ""
            text += ";".join(f"{lab}={n}" for lab, n in cfg)
        config_text.append(text)
    ref = sp.reference_field(groups, labels[0], omega_o) if absolute else 0.0
    spectrum = sp.StickSpectrum(delta_b=tuple(b for b, _, _ in merged),
                                intensity=tuple(i for _, i, _ in merged),
                                config_text=tuple(config_text), reference=ref,
                                resonance=tuple(labels))
    return spectrum, lines


def export_csv_oracle(lines, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_B_gauss", "intensity", "config"])
        for line in lines:
            intensity = (str(int(line.intensity))
                         if float(line.intensity).is_integer()
                         else fmt12(line.intensity))
            config = "|".join(";".join(f"{lab}={n}" for lab, n in cfg)
                              for cfg in line.configs)
            writer.writerow([fmt12(line.delta_b), intensity, config])


def export_svg_oracle(lines, path) -> None:
    width, height = 900, 420
    if not lines:
        raise ValidationError("empty spectrum")
    bs = [line.delta_b for line in lines]
    imax = max(line.intensity for line in lines)
    b_lo, b_hi = min(bs), max(bs)
    pad = 0.05 * (b_hi - b_lo) if b_hi > b_lo else 1.0
    b_lo, b_hi = b_lo - pad, b_hi + pad
    margin, base = 50, height - 60
    plot_h = base - 40

    def x_of(b):
        return margin + (b - b_lo) / (b_hi - b_lo) * (width - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{base}" x2="{width - margin}" y2="{base}" '
        'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        'font-size="14">field offset (G)</text>',
    ]
    n_ticks = 9
    for k in range(n_ticks):
        b = b_lo + (b_hi - b_lo) * k / (n_ticks - 1)
        x = x_of(b)
        parts.append(f'<line x1="{x:.2f}" y1="{base}" x2="{x:.2f}" y2="{base + 6}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{base + 22}" text-anchor="middle" '
                     f'font-size="11">{b:.4g}</text>')
    for line in lines:
        x = x_of(line.delta_b)
        h = plot_h * line.intensity / imax
        label = (str(int(line.intensity)) if float(line.intensity).is_integer()
                 else f"{line.intensity:.4g}")
        parts.append(f'<line class="stick" x1="{x:.2f}" y1="{base}" x2="{x:.2f}" '
                     f'y2="{base - h:.2f}" stroke="steelblue" stroke-width="2"/>')
        parts.append(f'<text x="{x:.2f}" y="{base - h - 6:.2f}" text-anchor="middle" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def write_csv_oracle(path, header, columns) -> None:
    """:func:`spinlind.artifact.write_csv` through the ``csv`` module.

    Every cell is formatted by its own type: a str verbatim, a Python int
    exactly, anything else by ``fmt12``.
    """
    cells = [map(format, col, map(artifact._CELL_FORMAT.get, map(type, col),
                                  repeat(artifact.NUMBER_FORMAT)))
             for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


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


def pauli_rates_oracle(model):
    """The stimulated rates rates_+-[block] |xi_w[a, b]|^2 as a per-entry table, block by block:
    the nonzeros of each dense xi^x(+1, w), row-major, each with its mirrored entry (the
    reverse transition, opposite-sign frequency, plus and minus rates swapped)."""
    entries = []
    stack = dense_ladder(model.ladder)
    for k in range(stack.shape[0]):
        w = float(model.ladder.omegas[k])
        gp, gm = float(model.rates_plus[k]), float(model.rates_minus[k])
        mat = stack[k]
        for a, b in zip(*np.nonzero(mat)):
            el = complex(mat[a, b])
            weight = abs(el) ** 2
            entries.append(PauliRate(n_from=int(b), n_to=int(a), omega=w,
                                     gamma_plus=gp * weight, gamma_minus=gm * weight,
                                     element=el, canonical=True))
            entries.append(PauliRate(n_from=int(a), n_to=int(b), omega=-w,
                                     gamma_plus=gm * weight, gamma_minus=gp * weight,
                                     element=np.conj(el), canonical=False))
    return tuple(entries)


def transition_rate_oracle(model, n_from: int, n_to: int) -> float:
    """The first matching entry of the whole :func:`pauli_rates_oracle` table."""
    for entry in pauli_rates_oracle(model):
        if entry.n_from == n_from and entry.n_to == n_to:
            return entry.total
    return 0.0


def _inline_jump_pairs(model):
    """Entries v, the pairs (e, f) of one block, and the block's total rate g per pair."""
    ladder = model.ladder
    e, f = me._pairs(ladder.block)
    return ladder.values, e, f, (model.rates_plus + model.rates_minus)[ladder.block[e]]


def inline_pair_dissipator(model, rho: np.ndarray) -> np.ndarray:
    """``mastereq.dissipator`` with each coefficient g v_e conj(v_f) formed at its scatter."""
    d, rows, cols = model.dim, model.ladder.rows, model.ladder.cols
    v, e, f, g = _inline_jump_pairs(model)
    out = -(model._anti @ rho + rho @ model._anti)
    flat = out.reshape(-1)
    np.add.at(flat, rows[e] * d + rows[f], g * v[e] * v[f].conj() * rho[cols[e], cols[f]])
    np.add.at(flat, cols[e] * d + cols[f], g * v[e].conj() * v[f] * rho[rows[e], rows[f]])
    return out


def inline_pair_liouvillian(model) -> np.ndarray:
    """``mastereq.liouvillian_matrix`` with each coefficient formed at its scatter."""
    d, rows, cols = model.dim, model.ladder.rows, model.ladder.cols
    v, e, f, g = _inline_jump_pairs(model)
    lmat = np.zeros((d * d, d * d), dtype=complex)
    l4 = lmat.reshape(d, d, d, d)
    l4[rows[f], rows[e], cols[f], cols[e]] = g * v[e] * v[f].conj()
    l4[cols[f], cols[e], rows[f], rows[e]] = g * v[e].conj() * v[f]
    left = np.einsum("jajb->jab", l4)
    left += -1j * model.h_ls - model._anti
    right = np.einsum("jala->jal", l4)
    right += (1j * model.h_ls - model._anti).T[:, None, :]
    return lmat


# -- Kronecker-product spin operators ------------------------------------------

def single_spin_matrix(j: float, axis: str) -> np.ndarray:
    """The (2j+1)-dim spin matrix in occupation order (m = +j first), from the library.

    ``spincore.xi_operator`` of a lone spin with gamma = -1; ``axis`` is one
    of x, y, z, +, -.
    """
    return sc.xi_operator(sc.SpinSystem([j], [-1.0]), axis)


def standard_spin_matrix(j: float, axis: str) -> np.ndarray:
    """The (2j+1)-dim spin matrix from the textbook S+ elements, m = +j first."""
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)                      # m value of each basis state
    if axis == "z":
        return np.diag(m.astype(complex))
    # S+|j m> = sqrt(j(j+1) - m(m+1)) |j m+1>; raising m lowers the occupation
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)).astype(complex)
    s_plus = np.zeros((d, d), dtype=complex)
    s_plus[np.arange(d - 1), np.arange(1, d)] = ladder
    return {"+": s_plus, "-": s_plus.conj().T, "x": 0.5 * (s_plus + s_plus.conj().T),
            "y": -0.5j * (s_plus - s_plus.conj().T)}[axis]


def occupations(system) -> np.ndarray:
    """Occupation table n_i(k) = (k // W_i) mod d_i, shape (N, dim)."""
    k = np.arange(system.dim)
    return k // np.array(system.weights)[:, None] % np.array(system.dims)[:, None]


def _scatter(out: np.ndarray, system, site: int, s: np.ndarray, coeff: float = 1.0):
    """out += coeff * (single-spin matrix ``s`` at ``site``), in place.

    Column k receives s[r, n(k)] in row k + (r - n(k)) W for every r, with
    n(k) the occupation of ``site``; no (row, column) pair is written twice.
    """
    k, r, w = np.arange(system.dim), np.arange(s.shape[0])[:, None], system.weights[site]
    n = k // w % system.dims[site]
    out[k + (r - n) * w, k] += coeff * s[r, n]
    return out


def embed_single_spin(system, site: int, axis: str) -> np.ndarray:
    """A single-spin operator at ``site``, identity elsewhere, from the occupation table."""
    s = single_spin_matrix(system.spins[site], axis)
    return _scatter(np.zeros((system.dim, system.dim), dtype=complex), system, site, s)


def scatter_xi(system, axis: str) -> np.ndarray:
    """xi^axis as one scatter of each spin's whole textbook matrix, in spin order."""
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for i, (j, g) in enumerate(zip(system.spins, system.gammas)):
        _scatter(out, system, i, standard_spin_matrix(j, axis), -g)
    return out


def kron_embed(system, site: int, axis: str) -> np.ndarray:
    """Kronecker-embed a single-spin operator at ``site``, identity elsewhere."""
    op = np.array([[1.0 + 0j]])
    for i, j in enumerate(system.spins):
        factor = single_spin_matrix(j, axis) if i == site else np.eye(int(round(2 * j)) + 1)
        op = np.kron(op, factor)
    return op


def kron_xi(system, axis: str) -> np.ndarray:
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for i, g in enumerate(system.gammas):
        if g != 0.0:
            out -= g * kron_embed(system, i, axis)
    return out


def kron_total_sz(system) -> np.ndarray:
    out = np.zeros((system.dim, system.dim), dtype=complex)
    for i in range(system.n_spins):
        out += kron_embed(system, i, "z")
    return out


def kron_zo(system, b_o: float) -> np.ndarray:
    sz = np.array([np.real(np.diag(kron_embed(system, i, "z")))
                   for i in range(system.n_spins)])
    diag = -b_o * np.tensordot(np.asarray(system.gammas), sz, axes=(0, 0))
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                diag = diag + t[i, j] * sz[i] * sz[j]
    return np.diag(diag.astype(complex))


def kron_x(system) -> np.ndarray:
    out = np.zeros((system.dim, system.dim), dtype=complex)
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                term = kron_embed(system, i, "+") @ kron_embed(system, j, "-")
                out += 0.5 * t[i, j] * (term + term.conj().T)
    return out


def per_pair_couplings(system, zz: bool) -> np.ndarray:
    """``spincore._couplings`` one coupled pair at a time, from the dense S+ and S-.

    For each pair i > j with T_ij != 0: a mask of the columns where S+_i S-_j
    acts, the two ladder values read from ``single_spin_matrix``, and the
    Sz_i Sz_j diagonal added in the same loop.
    """
    t, w, d = system.couplings, system.weights, system.dim
    out = np.zeros((d, d), dtype=complex)
    occ, k = occupations(system), np.arange(d)
    sz = np.array(system.spins)[:, None] - occ
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] == 0.0:
                continue
            cols = k[(occ[i] >= 1) & (occ[j] < system.dims[j] - 1)]
            up = single_spin_matrix(system.spins[i], "+")[occ[i, cols] - 1, occ[i, cols]]
            down = single_spin_matrix(system.spins[j], "-")[occ[j, cols] + 1, occ[j, cols]]
            rows = cols - w[i] + w[j]
            out[rows, cols] = out[cols, rows] = 0.5 * t[i, j] * (up * down)
            if zz:
                out[k, k] += t[i, j] * (sz[i] * sz[j])
    return out


def occupation_couplings(system, zz: bool) -> np.ndarray:
    """``spincore._couplings`` with the ladder values evaluated inline on the occupations.

    Every coupled pair in one pass: S+ at m = j - n gives sqrt(j (j + 1) -
    m (m + 1)) and S- gives sqrt(j (j + 1) - (m - 1) m), masked where
    n_i(k) >= 1 and n_j(k) < d_j - 1.
    """
    d = system.dim
    first, second = np.nonzero(np.tril(system.couplings, -1))
    t = system.couplings[first, second]
    spins, dims, weights = (np.array(a)[:, None] for a in (system.spins, system.dims,
                                                           system.weights))
    occ = occupations(system)
    m = spins - occ
    up = np.sqrt(spins * (spins + 1) - m * (m + 1))[first]
    down = np.sqrt(spins * (spins + 1) - (m - 1) * m)[second]
    pair, cols = np.nonzero((occ[first] >= 1) & (occ[second] < dims[second] - 1))
    rows = cols - (weights[first] - weights[second])[pair, 0]
    out = np.zeros((d, d), dtype=complex)
    out[rows, cols] = out[cols, rows] = 0.5 * t[pair] * (up[pair, cols] * down[pair, cols])
    if zz:
        out[np.arange(d), np.arange(d)] = np.add.reduce(t[:, None] * (m[first] * m[second]))
    return out


def kron_spin_spin(system) -> np.ndarray:
    out = np.zeros((system.dim, system.dim), dtype=complex)
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                for axis in ("x", "y", "z"):
                    out += t[i, j] * (kron_embed(system, i, axis)
                                      @ kron_embed(system, j, axis))
    return out


# -- per-block ladder sums -------------------------------------------------------

def ladder_sums_oracle(model):
    """(rates_plus, rates_minus, h_ls, _anti) of build_model, one block at a time.

    Scalar density and Hilbert-transform calls per frequency, scaled by
    2 pi B1^2 and pi B1^2, and the products xi_w xi_w^dag and xi_w^dag xi_w
    accumulated block by block.
    """
    dist, b1, d = model.field.dist, model.field.b_1, model.dim
    gp, gm = [], []
    h_ls = np.zeros((d, d), dtype=complex)
    anti = np.zeros((d, d), dtype=complex)
    for w, a in zip(model.ladder.omegas.tolist(), dense_ladder(model.ladder)):
        if b1 > 0:
            gp.append(2.0 * math.pi * b1 * b1 * ls.density(dist, w))
            gm.append(2.0 * math.pi * b1 * b1 * ls.density(dist, -w))
            h_ls += (math.pi * b1 * b1 * ls.hilbert(dist, w)
                     - math.pi * b1 * b1 * ls.hilbert(dist, -w)) * (
                a @ a.conj().T - a.conj().T @ a)
        else:
            gp.append(0.0)
            gm.append(0.0)
        anti += 0.5 * (gp[-1] + gm[-1]) * (a.conj().T @ a + a @ a.conj().T)
    return np.array(gp), np.array(gm), h_ls, anti


# -- the scalar linear-response route: one kernel per block and sign ---------------

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


def steady_magnetization_oracle(model, t: float) -> float:
    """Per-block loop: xi^x rebuilt, one commutator average and two kernels per block."""
    dist = model.field.dist
    total = 0.0
    m_x = -sc.xi_operator(model.system, "x")
    for w0, xi_w in zip(model.ladder.omegas.tolist(), dense_ladder(model.ladder)):
        comm = m_x @ xi_w - xi_w @ m_x
        g = complex(np.trace(comm @ model.boltzmann))
        plus, minus = (ChiKernel(omega_o=w0, sign=s, commutator_avg=g) for s in (1, -1))
        branches = rho_integral(plus, dist) + rho_integral(minus, dist)
        total += math.cos(w0 * t) * branches.real - math.sin(w0 * t) * branches.imag
    return 2.0 * model.field.b_1 * total


def magnetization_terms(model, t: float):
    """(steady, transient): the terms 2 B1 Re[e^{iwt} I] of the linear response at one time,
    one per block w and sign, I the rho_f integral of chi_inf or of chi_transient for M_x."""
    dist, m_x = model.field.dist, -sc.xi_operator(model.system, "x")
    steady, transient = [], []
    for w, s in product(model.ladder.omegas.tolist(), (1, -1)):
        phase = 2.0 * model.field.b_1 * cmath.exp(1j * w * t)
        steady.append((phase * rho_integral(chi_infinity(model, m_x, w, s), dist)).real)
        transient.append((phase * rho_integral(chi_transient(model, m_x, w, s, t), dist)).real)
    return np.array(steady), np.array(transient)


# -- the two-pass model formulas ----------------------------------------------------

def two_pass_model_arrays(system, field, beta: float):
    """(levels, ladder, rates_plus, rates_minus, h_ls, _anti) by build_model's former route.

    The spin tables built twice, once for the levels (the Zeeman part by
    ``np.tensordot``) and once inside :func:`eigenops.ladder_table`, and the
    line shape evaluated in four calls, at +w and at -w apart.
    """
    sz = system._tables[0]
    energies = -field.b_o * np.tensordot(np.asarray(system.gammas), sz, axes=(0, 0))
    t = system.couplings
    for i in range(system.n_spins):
        for j in range(i):
            if t[i, j] != 0.0:
                energies = energies + t[i, j] * sz[i] * sz[j]
    levels = sc.LevelData(energies=energies, magnetizations=sz.sum(0))
    ladder = eo.ladder_table(system, levels)
    omegas, b1, dist = ladder.omegas, field.b_1, field.dist
    if b1 > 0 and omegas.size:
        gp = 2.0 * math.pi * b1 * b1 * ls.density(dist, omegas)
        gm = 2.0 * math.pi * b1 * b1 * ls.density(dist, -omegas)
        lamb = (math.pi * b1 * b1 * ls.hilbert(dist, omegas)
                - math.pi * b1 * b1 * ls.hilbert(dist, -omegas))
    else:
        gp, gm, lamb = np.zeros((3, len(omegas)))
    half_g = 0.5 * (gp + gm)
    h_ls, anti = me._pair_sums(ladder, (lamb, -lamb), (half_g, half_g))
    return levels, ladder, gp, gm, h_ls, anti


def two_pass_steady_magnetization(model, t: float) -> float:
    """steady_magnetization by its former formula: four line-shape calls, at +w0 and -w0 apart."""
    g, w0, dist = rs._flows(model), model.ladder.omegas, model.field.dist
    branches = g * math.pi * ((ls.hilbert(dist, -w0) - ls.hilbert(dist, w0))
                              - 1j * (ls.density(dist, w0) + ls.density(dist, -w0)))
    chi_p, chi_pp = branches.real, -branches.imag
    return 2.0 * model.field.b_1 * float(np.sum(np.cos(w0 * t) * chi_p
                                                + np.sin(w0 * t) * chi_pp))


def absorbed_power_oracle(model):
    """Total and per-frequency absorbed power summed over the canonical Pauli entries."""
    pops = np.real(np.diag(model.boltzmann))
    per_line = {}
    for entry in pauli_rates_oracle(model):
        if entry.canonical:
            contrib = entry.omega * (pops[entry.n_to] - pops[entry.n_from]) * entry.total
            per_line[entry.omega] = per_line.get(entry.omega, 0.0) + contrib
    return sum(per_line.values()), sorted(per_line.items())


# -- scalar envelope integrals and the looped map drive term ---------------------

def envelope_integral_oracle(dist, kappa: complex, t0: float, t1: float, *,
                             log_scale: complex = 0.0) -> complex:
    """exp(log_scale) * int_{t0}^{t1} phi_f(tau) exp(kappa tau) dtau, one scalar.

    The branch chosen by Python ``if`` on one kappa and one window: span
    zero, expm1 or the difference of exponentials for Lorentzian and delta
    lines, and the three Re z cases of the Faddeeva form for a Gaussian.
    """
    if not 0.0 <= t0 <= t1:
        raise ValidationError("envelope integral needs 0 <= t0 <= t1")
    b = complex(kappa) + 1j * dist.center
    if dist.kind != "gaussian":
        a = b - 0.5 * dist.width
        if math.isinf(t1):
            if not a.real < 0.0:
                raise ValidationError("the envelope does not decay; the integral diverges")
            return -cmath.exp(a * t0 + log_scale) / a
        span = a * (t1 - t0)
        if span == 0.0:
            return cmath.exp(a * t0 + log_scale) * (t1 - t0)
        if abs(span) < 1.0:  # expm1 keeps the small-span difference exact
            return cmath.exp(a * t0 + log_scale) * complex(np.expm1(span)) / a
        return (cmath.exp(a * t1 + log_scale) - cmath.exp(a * t0 + log_scale)) / a

    from scipy.special import wofz

    s = ls._gauss_sigma(dist)
    root2s = math.sqrt(2.0) * s

    def end(tau):
        """(Re z >= 0, E(tau) w(+-iz)) at one end of the interval."""
        if math.isinf(tau):
            return True, 0.0
        z = (s * s * tau - b) / root2s
        upper = z.real >= 0.0
        w = complex(wofz(1j * z if upper else -1j * z))
        return upper, cmath.exp(b * tau - 0.5 * (s * tau) ** 2 + log_scale) * w

    up0, e0 = end(t0)
    up1, e1 = end(t1)
    if up0:
        val = e0 - e1
    elif not up1:
        val = e1 - e0
    else:
        val = 2.0 * cmath.exp(b * b / (2.0 * s * s) + log_scale) - e0 - e1
    return math.sqrt(0.5 * math.pi) / s * val


def drive_weight_oracle(dist, lam: complex, w: float, t: float) -> complex:
    """int_0^t e^{lam (t-s)} Re[phi_f(s)] e^{-i w s} ds from two scalar envelope integrals."""
    kappa = -1j * w - lam
    scale = lam * t
    return 0.5 * (envelope_integral_oracle(dist, kappa, 0.0, t, log_scale=scale)
                  + envelope_integral_oracle(dist, kappa.conjugate(), 0.0, t,
                                             log_scale=scale.conjugate()).conjugate())


def dense_ladder(table: eo.LadderTable) -> np.ndarray:
    """The (K, D, D) stack of the blocks xi^x(+1, omegas[k]) of a ladder table."""
    out = np.zeros((table.omegas.size, table.dim, table.dim), dtype=complex)
    out[table.block, table.rows, table.cols] = table.values
    return out


def dense_drive_components(model, rho_init: np.ndarray):
    """Components c_j (rows) and frequencies w_j of vec(-i [H_LR(t), rho0]).

    The drive term is Re[phi_f(t)] sum_j exp(-i w_j t) c_j with
    c = vec(-2 i B1 [xi_w, rho0]) at +w and vec(-2 i B1 [xi_w^dag, rho0]) at
    -w, from one batched product over the dense ladder stack.
    """
    p = dense_ladder(model.ladder)
    ops = np.concatenate([p, p.conj().transpose(0, 2, 1)])
    comm = -2j * model.field.b_1 * (ops @ rho_init - rho_init @ ops)
    comps = comm.transpose(0, 2, 1).reshape(len(ops), model.dim ** 2)
    return comps, np.concatenate([model.ladder.omegas, -model.ladder.omegas])


def apply_map_oracle(model, eig, times: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """``mastereq._apply_map`` with its drive term looped over times and nonzero pairs."""
    lam, v, v_inv = eig
    rho_init = np.array(rho0, dtype=complex)
    coef = np.exp(np.outer(times, lam)) * (v_inv @ numutil.vec(rho_init))
    if model.field.b_1 > 0:
        comps, freqs = dense_drive_components(model, rho_init)
        c = comps @ v_inv.T
        rows, cols = np.nonzero(c)
        for n, t in enumerate(times.tolist()):
            if t > 0:
                for j, k in zip(rows.tolist(), cols.tolist()):
                    coef[n, k] += c[j, k] * drive_weight_oracle(model.field.dist, lam[k],
                                                                freqs[j], t)
    d = model.dim
    return (coef @ v.T).reshape(len(times), d, d).transpose(0, 2, 1)


# -- dense ladder decomposition --------------------------------------------------

@dataclass(frozen=True)
class EigenOperator:
    """One ladder block: integer magnetization step, frequency gap, matrix."""

    step: int
    omega: float
    matrix: np.ndarray


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple
    gap_atol: float       # absolute frequency tolerance the gaps were binned with
    dim: int

    def block(self, step: int, omega: float) -> EigenOperator:
        """The block with this step whose frequency is nearest ``omega``.

        KeyError unless that frequency lies within ``gap_atol`` of ``omega``.
        """
        near = min((b for b in self.blocks if b.step == step),
                   key=lambda b: abs(b.omega - omega), default=None)
        if near is None or not abs(near.omega - omega) <= self.gap_atol:
            raise KeyError(f"no block with step {step} at frequency {omega}")
        return near

    def plus_stack(self):
        """Frequencies (K,) and matrices (K, D, D) of the step +1 blocks, by frequency."""
        plus = [b for b in self.blocks if b.step == 1]
        mats = np.zeros((len(plus), self.dim, self.dim), dtype=complex)
        for k, b in enumerate(plus):
            mats[k] = b.matrix
        return np.array([b.omega for b in plus], dtype=float), mats


def decompose(a: np.ndarray, levels, gap_tol: float = 1e-9) -> Decomposition:
    """Split a Hermitian operator into its (step, frequency) ladder blocks, densely.

    Every nonzero of ``a`` is visited: its |gap| is binned in ascending order
    against the first gap of the current bin (the anchor), within ``gap_tol``
    times max(1, max |eps|), and signed after binning; a bin anchored within
    the tolerance of zero has frequency 0.  The reference for
    :func:`spinlind.eigenops.ladder_table` on xi^x, and the ladder blocks of
    any other observable.
    """
    a = np.asarray(a)
    eps, mag = levels.energies, levels.magnetizations
    tol = gap_tol * max(1.0, float(np.max(np.abs(eps), initial=0.0)))
    rows, cols = np.nonzero(a)
    gaps = eps[cols] - eps[rows]
    steps = np.rint(mag[cols] - mag[rows]).astype(int)

    signed = _signed_bins(gaps, tol)

    buckets: dict = {}
    for k in range(rows.size):
        key = (int(steps[k]), float(signed[k]))
        if key not in buckets:
            buckets[key] = np.zeros_like(a)
        buckets[key][rows[k], cols[k]] = a[rows[k], cols[k]]
    blocks = tuple(EigenOperator(step=n, omega=w, matrix=buckets[(n, w)])
                   for (n, w) in sorted(buckets))
    return Decomposition(blocks=blocks, gap_atol=tol, dim=a.shape[0])


def _signed_bins(gaps: np.ndarray, tol: float) -> np.ndarray:
    """Each gap's bin frequency: anchored on the first |gap| of its bin, signed after."""
    reps = np.empty(gaps.size)
    anchor = None
    for k in np.argsort(np.abs(gaps)):
        v = abs(gaps[k])
        if anchor is None or v - anchor > tol:
            anchor = v
        reps[k] = anchor
    return np.where(reps <= tol, 0.0, np.sign(gaps) * reps)


def per_spin_ladder_table(system, levels) -> eo.LadderTable:
    """``eigenops.ladder_table`` with its entries built one spin at a time.

    Spin i lowers m_i from column k to row k + W_i wherever n_i(k) < d_i - 1,
    with -gamma_i sqrt(j (j + 1) - m (m + 1)) / 2 at m = j - n - 1 evaluated
    inline; the gaps are binned by the loop of :func:`decompose`.
    """
    eps = levels.energies
    tol = eo.GAP_TOL * max(1.0, float(np.max(np.abs(eps), initial=0.0)))
    k = np.arange(system.dim)
    rows, cols, values = [], [], []
    for j, g, d, w in zip(system.spins, system.gammas, system.dims, system.weights):
        n = k // w % d
        col = k[n < d - 1]
        rows.append(col + w)
        cols.append(col)
        values.append(-0.5 * g * np.sqrt(j * (j + 1) - (j - n[col] - 1.0) * (j - n[col])))
    rows, cols, values = (np.concatenate(a) for a in (rows, cols, values))
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    omegas, block = np.unique(_signed_bins(eps[cols] - eps[rows], tol), return_inverse=True)
    entry = np.lexsort((cols, rows, block))
    return eo.LadderTable(rows=rows[entry], cols=cols[entry], values=values[entry],
                          block=block[entry], omegas=omegas, gap_atol=tol, dim=system.dim)


# -- qubit Heisenberg picture ------------------------------------------------------

def heisenberg_operator(params, t: float, x_op: np.ndarray) -> np.ndarray:
    """The qubit's Heisenberg-picture X(t) = sum_i c_i(t) sigma_i from its coefficients."""
    c = qb.heisenberg_coefficients(params, t, x_op)
    return sum(c[i] * qb.SIGMA[i] for i in range(4))


# -- the full-L map routes -------------------------------------------------------

def liouvillian_matrix(model) -> np.ndarray:
    """Column-stacked matrix of the semigroup generator L.

    The jump part is scattered from the pairs of :func:`_jump_pairs`; no
    element is written twice, as (row, col) names one entry and M_col -
    M_row = 1.  M rho + rho N, M = -i h_ls - anti and N = i h_ls - anti, is
    added through diagonal views.
    """
    me._check_map_dim(model)
    d = model.dim
    row_e, row_f, col_e, col_f, forward, backward = me._jump_pairs(model)
    lmat = np.zeros((d * d, d * d), dtype=complex)
    l4 = lmat.reshape(d, d, d, d)      # [out column, out row, in column, in row]
    l4[row_f, row_e, col_f, col_e] = forward
    l4[col_f, col_e, row_f, row_e] = backward
    left = np.einsum("jajb->jab", l4)
    left += -1j * model.h_ls - model._anti
    right = np.einsum("jala->jal", l4)
    right += (1j * model.h_ls - model._anti).T[:, None, :]
    return lmat


def entries_of(mat: np.ndarray):
    """A square matrix as (diagonal, out, in, value), its off-diagonal nonzeros in row order.

    The form ``mastereq._generator_entries`` returns and
    ``mastereq._block_eigensystem`` reads.
    """
    out, inn = np.nonzero(mat)
    out, inn = out[out != inn], inn[out != inn]
    return np.diagonal(mat).copy(), out, inn, mat[out, inn]


def scattered_generator(entries) -> np.ndarray:
    """The dense matrix of (diagonal, out, in, value) entries, as ``mastereq._rk4`` steps on it."""
    diag, out, inn, val = entries
    mat = np.diag(diag)
    mat[out, inn] = val
    return mat


def full_eigensystem(model):
    """lam, V and V^-1 of the whole D^2 x D^2 generator from one ``eig`` call."""
    return me._eigensystem(liouvillian_matrix(model))


def full_apply_map(model, eig, times: np.ndarray, rho0: np.ndarray,
                   include_drive: bool = True) -> np.ndarray:
    """``mastereq._apply_map`` from a dense eigensystem (lam, V, V^-1) of L."""
    lam, v, v_inv = eig
    rho_init = np.array(rho0, dtype=complex)
    coef = np.exp(np.outer(times, lam)) * (v_inv @ numutil.vec(rho_init))
    if include_drive and model.field.b_1 > 0:
        comps, freqs = dense_drive_components(model, rho_init)
        c = comps @ v_inv.T
        rows, cols = np.nonzero(c)
        weights = ls.drive_weight(model.field.dist, lam[cols], freqs[rows], times[:, None])
        np.add.at(coef, (slice(None), cols), c[rows, cols] * weights)
    d = model.dim
    return (coef @ v.T).reshape(len(times), d, d).transpose(0, 2, 1)


def full_lambda_map(model, t, rho0: np.ndarray, *, unsafe: bool = False,
                    include_drive: bool = True, eig=None) -> np.ndarray:
    """``mastereq.lambda_map`` from one eigendecomposition of the whole generator.

    ``eig`` is that eigendecomposition if the caller has it already.
    """
    times = me._map_times(t)
    me._check_domain(model, rho0, unsafe)
    states = full_apply_map(model, full_eigensystem(model) if eig is None else eig,
                            np.atleast_1d(times), rho0, include_drive)
    return states if times.ndim else states[0]


def dense_node_sum(v_inv: np.ndarray, scale: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_n diag(scale_n) V^-1 (conj A_n (x) A_n) from a dense V^-1: 2 n D^5 work.

    Row r of V^-1, read as the D x D matrix R_r (row-major), maps to the
    row-major A_n^dag R_r A_n: (D^3, D) @ (D, n D) gives every R_r A_n, which
    is scaled, reordered and multiplied by the conjugate-transposed stack.
    """
    n, d = ops.shape[0], ops.shape[-1]
    right = v_inv.reshape(d ** 3, d) @ ops.transpose(1, 0, 2).reshape(d, n * d)
    right = right.reshape(d * d, d, n, d)          # [r, i, n, k]
    right *= scale.T[:, None, :, None]
    left = ops.conj().transpose(2, 0, 1).reshape(d, n * d)
    out = left @ right.transpose(2, 1, 0, 3).reshape(n * d, d ** 3)
    return out.reshape(d, d * d, d).transpose(1, 0, 2).reshape(d * d, d * d)


def full_kraus_audit(model, t: float, rho0: np.ndarray, *, unsafe: bool = False,
                     n_nodes: int = 256) -> me.KrausAudit:
    """``mastereq.kraus_audit`` with every e^{Ls} from one dense eigensystem of L.

    The same Simpson nodes and operator M(s) = (I - i H_LR(s))/sqrt(2); the
    node sums multiply the whole V^-1 (:func:`dense_node_sum`), all nodes at
    once, and the reconstruction is measured against :func:`full_apply_map`.
    """
    t = me._map_time(t)
    me._check_domain(model, rho0, unsafe)
    d = model.dim
    lam, v, v_inv = eig = full_eigensystem(model)
    rho_init = np.array(rho0, dtype=complex)
    eye = np.eye(d)
    if n_nodes % 2:
        n_nodes += 1
    ts = np.linspace(0.0, t, n_nodes + 1)
    weights = np.ones(n_nodes + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= t / n_nodes / 3.0

    m_ops = (eye - 1j * me.linear_response_hamiltonian(model, ts)) / math.sqrt(2.0)
    scale = weights[:, None] * np.exp(np.outer(t - ts, lam))
    phi1_mat = v @ (np.exp(lam * t)[:, None] * v_inv + dense_node_sum(v_inv, scale, m_ops))
    phi2_mat = v @ dense_node_sum(v_inv, scale, m_ops.conj().transpose(0, 2, 1))

    diff = phi1_mat - phi2_mat
    reconstructed = numutil.unvec(diff @ numutil.vec(rho_init), d)
    reference = full_apply_map(model, eig, np.array([t]), rho_init)[0]
    completeness = numutil.unvec(diff.conj().T @ numutil.vec(eye), d)
    phi1_choi_min, phi2_choi_min = (
        float(np.linalg.eigvalsh(numutil.hermitize(numutil.choi_matrix(phi, d))).min())
        for phi in (phi1_mat, phi2_mat))
    return me.KrausAudit(
        trace_residual=abs(complex(np.trace(reconstructed)) - complex(np.trace(rho_init))),
        reconstruction_residual=max_abs(reconstructed - reference),
        completeness_residual=max_abs(completeness - eye),
        phi1_choi_min=phi1_choi_min,
        phi2_choi_min=phi2_choi_min,
        n_nodes=n_nodes,
    )


# -- the whole-matrix thermal ladder -----------------------------------------------

def van_loan_generator(eps: np.ndarray, x: np.ndarray, order: int, beta: float) -> np.ndarray:
    """The (k D, k D) block-bidiagonal matrix of the whole ladder, k = order + 1.

    -beta Z0 in every diagonal block and -beta X in every block above the
    diagonal, with Z0 = diag(eps) shifted to the middle of its whole spectrum.
    """
    eps = eps - 0.5 * (eps.max() + eps.min())
    dim, k = eps.size, order + 1
    gen = np.zeros((k, dim, k, dim), dtype=complex)
    blocks = np.arange(k)
    gen[blocks, :, blocks, :] = np.diag(-beta * eps)
    gen[blocks[:-1], :, blocks[1:], :] = -beta * x
    return gen.reshape(k * dim, k * dim)


def whole_matrix_ladder(eps: np.ndarray, x: np.ndarray, order: int, beta: float) -> list:
    """[Y^(0), ..., Y^(order)] at i beta from one ``scipy.linalg.expm`` of the whole matrix.

    Block (0, n) of exp(:func:`van_loan_generator`) is exp(-beta Z0) Y^(n),
    with Z0 shifted as there (Van Loan, IEEE TAC 23 (1978) 395); no partition
    of X's nonzero pattern.
    """
    dim = eps.size
    shifted = eps - 0.5 * (eps.max() + eps.min())
    top = np.exp(beta * shifted)[:, None] * scipy.linalg.expm(
        van_loan_generator(eps, x, order, beta))[:dim]
    return [np.eye(dim, dtype=complex)] + [top[:, n * dim:(n + 1) * dim]
                                           for n in range(1, order + 1)]
