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
the Kronecker-product spin operators,
the per-block loops of the model's ladder sums and Pauli table, the scalar
envelope integral with the map's drive term looped over times and nonzero
pairs, and the dense ladder decomposition of any observable (one Python
step per nonzero).  None of these is part of the package: each is a
reference for a closed form, a master-equation rate, a response kernel,
the array route of :mod:`spinlind.spectrum`, the template CSV writer of
:mod:`spinlind.numutil`, the vectorized stepper of :mod:`spinlind.mastereq`
or its superoperator audit, the occupation-table operators of
:mod:`spinlind.spincore`, the batched ladder sums, the broadcasting
envelope integral of :mod:`spinlind.lineshape`, or the sparse ladder table
of :mod:`spinlind.eigenops`.
"""

import cmath
import csv
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.integrate

from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import response as rs
from spinlind import spectrum as sp
from spinlind import spincore as sc
from spinlind.errors import AccuracyError, ValidationError
from spinlind import numutil
from spinlind import qubit as qb
from spinlind.numutil import fmt12, max_abs


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
    residual is measured against the library's map, evaluated from the same
    eigendecomposition.
    """
    me._check_domain(model, rho0, unsafe)
    d = model.dim
    eig = me._eigensystem(me.liouvillian_matrix(model))
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
    reference = me._apply_map(model, eig, np.array([t]), rho_init)[0]
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
    scale = sp.intensity_scale(groups, label) if scaled else 1
    out = []
    for expo, coeff in terms.items():
        delta_b = sum(lam * n for lam, n in zip(lambdas, expo))
        config = tuple(zip(variables, expo))
        out.append((delta_b, coeff * scale, config))
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
    """:func:`spinlind.numutil.write_csv` through the ``csv`` module.

    Every cell is formatted by its own type: a str verbatim, a Python int
    exactly, anything else by ``fmt12``.
    """
    cells = [map(format, col, map(numutil._CELL_FORMAT.get, map(type, col),
                                  repeat(numutil.NUMBER_FORMAT)))
             for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def pauli_rates_oracle(model):
    """The Pauli table block by block: the nonzeros of each dense xi^x(+1, w), row-major."""
    entries = []
    stack = model.ladder.dense()
    for k in range(stack.shape[0]):
        w = float(model.ladder.omegas[k])
        gp, gm = float(model.rates_plus[k]), float(model.rates_minus[k])
        mat = stack[k]
        for a, b in zip(*np.nonzero(mat)):
            el = complex(mat[a, b])
            weight = abs(el) ** 2
            entries.append(me.PauliRate(n_from=int(b), n_to=int(a), omega=w,
                                        gamma_plus=gp * weight, gamma_minus=gm * weight,
                                        element=el, canonical=True))
            entries.append(me.PauliRate(n_from=int(a), n_to=int(b), omega=-w,
                                        gamma_plus=gm * weight, gamma_minus=gp * weight,
                                        element=np.conj(el), canonical=False))
    return tuple(entries)


def transition_rate_oracle(model, n_from: int, n_to: int) -> float:
    """The first matching entry of the whole :func:`mastereq.pauli_rates` table."""
    for entry in me.pauli_rates(model):
        if entry.n_from == n_from and entry.n_to == n_to:
            return entry.total
    return 0.0


# -- Kronecker-product spin operators ------------------------------------------

def embed_single_spin(system, site: int, axis: str) -> np.ndarray:
    """A single-spin operator at ``site``, identity elsewhere, from the occupation table."""
    return sc._scatter(np.zeros((system.dim, system.dim), dtype=complex), system, site, axis)


def kron_embed(system, site: int, axis: str) -> np.ndarray:
    """Kronecker-embed a single-spin operator at ``site``, identity elsewhere."""
    op = np.array([[1.0 + 0j]])
    for i, j in enumerate(system.spins):
        factor = sc.single_spin_matrix(j, axis) if i == site else np.eye(int(round(2 * j)) + 1)
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

    Scalar rate and Lamb-weight calls per frequency, and the products
    xi_w xi_w^dag and xi_w^dag xi_w accumulated block by block.
    """
    dist, b1, d = model.field.dist, model.field.b_1, model.dim
    gp, gm = [], []
    h_ls = np.zeros((d, d), dtype=complex)
    anti = np.zeros((d, d), dtype=complex)
    for w, a in zip(model.ladder.omegas.tolist(), model.ladder.dense()):
        if b1 > 0:
            gp.append(ls.dissipator_weight(dist, w, b1, +1))
            gm.append(ls.dissipator_weight(dist, w, b1, -1))
            h_ls += (ls.lamb_weight(dist, w, b1, +1) + ls.lamb_weight(dist, w, b1, -1)) * (
                a @ a.conj().T - a.conj().T @ a)
        else:
            gp.append(0.0)
            gm.append(0.0)
        anti += 0.5 * (gp[-1] + gm[-1]) * (a.conj().T @ a + a @ a.conj().T)
    return np.array(gp), np.array(gm), h_ls, anti


def steady_magnetization_oracle(model, t: float, *, n_over_v: float = 1.0) -> float:
    """Per-block loop: xi^x rebuilt, one commutator average and two kernels per block."""
    dist = model.field.dist
    total = 0.0
    m_x = -n_over_v * sc.xi_operator(model.system, "x")
    for w0, xi_w in zip(model.ladder.omegas.tolist(), model.ladder.dense()):
        comm = m_x @ xi_w - xi_w @ m_x
        g = complex(np.trace(comm @ model.boltzmann))
        plus, minus = (rs.ChiKernel(omega_o=w0, sign=s, commutator_avg=g) for s in (1, -1))
        branches = rs.steady_rho_integral(plus, dist) + rs.steady_rho_integral(minus, dist)
        total += math.cos(w0 * t) * branches.real - math.sin(w0 * t) * branches.imag
    return 2.0 * model.field.b_1 * total


def absorbed_power_oracle(model, *, n_over_v: float = 1.0):
    """Total and per-frequency absorbed power summed over the canonical Pauli entries."""
    pops = np.real(np.diag(model.boltzmann))
    per_line = {}
    for entry in me.pauli_rates(model):
        if entry.canonical:
            contrib = (n_over_v * entry.omega * (pops[entry.n_to] - pops[entry.n_from])
                       * entry.total)
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


def apply_map_oracle(model, eig, times: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """``mastereq._apply_map`` with its drive term looped over times and nonzero pairs."""
    lam, v, v_inv = eig
    rho_init = np.array(rho0, dtype=complex)
    coef = np.exp(np.outer(times, lam)) * (v_inv @ numutil.vec(rho_init))
    if model.field.b_1 > 0:
        comps, freqs = me._drive_components(model, rho_init)
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

    reps = np.empty(gaps.size)
    anchor = None
    for k in np.argsort(np.abs(gaps)):
        v = abs(gaps[k])
        if anchor is None or v - anchor > tol:
            anchor = v
        reps[k] = anchor
    signed = np.where(reps <= tol, 0.0, np.sign(gaps) * reps)

    buckets: dict = {}
    for k in range(rows.size):
        key = (int(steps[k]), float(signed[k]))
        if key not in buckets:
            buckets[key] = np.zeros_like(a)
        buckets[key][rows[k], cols[k]] = a[rows[k], cols[k]]
    blocks = tuple(EigenOperator(step=n, omega=w, matrix=buckets[(n, w)])
                   for (n, w) in sorted(buckets))
    return Decomposition(blocks=blocks, gap_atol=tol, dim=a.shape[0])


# -- qubit Heisenberg picture ------------------------------------------------------

def heisenberg_operator(params, t: float, x_op: np.ndarray) -> np.ndarray:
    """The qubit's Heisenberg-picture X(t) = sum_i c_i(t) sigma_i from its coefficients."""
    c = qb.heisenberg_coefficients(params, t, x_op)
    return sum(c[i] * qb.SIGMA[i] for i in range(4))
