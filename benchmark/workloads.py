"""Seeded inputs, calculations and correctness checks of the four workloads.

Each workload is a fixed list of calculations drawn from the seed.  A
calculation carries the properties its cost depends on (``props``), a
``run`` callable that the worker times, and a ``check`` callable that the
worker runs untimed on the output; ``check`` returns ``None`` or the reason
the output is wrong.  The library receives only the generated inputs.

Sizes are stratified: the seed draws couplings, splitting constants, which
groups are spin-1 and similar details, while the number of calculations of
each size class is fixed per workload.  Run-to-run spread then reflects the
code and the machine more than the luck of the draw.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import pickle
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spinlind import acp, lineshape, mastereq, response, spectrum
from spinlind.spectrum import EquivalentGroup
from spinlind.spincore import SpinSystem, xi_operator

WORKLOADS = ("spectra", "dynamics", "thermal_maps", "cli_configs")

# Tolerances of the correctness gate.
TRACE_TOL = 1e-10          # |tr rho - 1| of a propagated state
HERM_TOL = 1e-10           # max |rho - rho^dag| / max(1, max |rho|)
ROUTE_TOL = 1e-9           # RK4 state against lambda_map, max abs difference
ZETA_TOL = 1e-8            # recursive against determinant zeta, relative
KRAUS_TRACE_TOL = 1e-9
KRAUS_RECON_TOL = 1e-8
MERGE_TOL = spectrum.MERGE_TOL_GAUSS
GOLDEN_RTOL = 1e-8         # numeric CLI artifacts against golden/ (see
                           # _compare_columns for the scale)

KRAUS_NODES = 32           # kraus_audit Simpson nodes (the default 256 takes
                           # ~7 s per call at D = 8)

E_GAMMA = -1.7608e7        # electron
H_GAMMA = 2.6752e4         # proton
N_GAMMA = 1.9338e3         # spin-1 nucleus (14N)


def _pickled(out):
    return pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class Calc:
    """One seeded calculation.

    ``fingerprint`` identifies an output exactly; an output whose
    fingerprint equals that of an output that passed ``check`` passes too,
    which keeps checking cheap on repeated passes.
    """

    cid: int
    kind: str
    props: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]
    describe: Callable[[object], dict] = field(default=lambda out: {})
    fingerprint: Callable[[object], bytes] = _pickled


def _close(a, b, tol):
    return abs(a - b) <= tol


# -- coupled spin-1/2 systems ----------------------------------------------

B_O = 1.0
B_1 = 1e-3                 # weak drive: B_1 / B_o = 1e-3
BETA = 2e-4                # s/rad; beta * Larmor ~ 0.5
T_END_TAUS = 0.1           # propagation time in units of the drive's relaxation time


def coupled_system(rng, n_spins):
    """Spin-1/2 chain with distinct Larmor frequencies and weak couplings."""
    gammas = -rng.uniform(1500.0, 3000.0, n_spins)
    c = np.triu(rng.uniform(-60.0, 60.0, (n_spins, n_spins)), 1)
    return SpinSystem([0.5] * n_spins, gammas, c + c.T)


def drive(system, kind):
    """Broad drive centred on the mean Larmor frequency (FWHM twice the centre).

    The width makes the relaxation time, not the carrier phase, set the
    default step, so every calculation of one size takes the same number
    of RK4 steps.
    """
    center = float(np.mean(-np.asarray(system.gammas))) * B_O
    dist = lineshape.FrequencyDistribution(kind, center, 2.0 * center)
    return mastereq.FieldConfig(b_o=B_O, b_1=B_1, dist=dist)


def t_end_for(field_cfg, taus=T_END_TAUS):
    return taus * lineshape.relaxation_time(field_cfg.dist)


def _model_props(model):
    return {"K": int(model.plus_mats.shape[0]),
            "nnz": int(np.count_nonzero(model.plus_mats))}


def _state_error(rho):
    """Reason a density matrix fails the trace / Hermiticity gate, or None."""
    if not np.all(np.isfinite(rho)):
        return "non-finite state"
    drift = abs(complex(np.trace(rho)) - 1.0)
    if drift > TRACE_TOL:
        return f"trace drift {drift:.3e}"
    herm = float(np.max(np.abs(rho - rho.conj().T))) / max(1.0, float(np.max(np.abs(rho))))
    if herm > HERM_TOL:
        return f"Hermiticity residual {herm:.3e}"
    return None


# -- spectra -------------------------------------------------------------------

# Term count of each neighbour group (2 j N + 1) per profile.  A group of 3
# terms is two protons or one spin-1 nucleus; a group of 5 is four protons or
# two spin-1 nuclei; the seed picks.
SPECTRA_PROFILES = {
    4: (5, 4, 3, 2),
    5: (5, 5, 4, 3, 2),
    6: (5, 5, 4, 4, 3, 2),
    7: (5, 5, 5, 4, 4, 3, 2),
}
# Radicals per pass for each profile: (generic, commensurate).  A
# commensurate radical writes far fewer lines, so it is the faster of a pair
# and the classes in time order run g4c < g4g < g5c < g5g < g6c < g6g < g7c
# < g7g.  The counts put the median in the middle of g6 commensurate (16
# radicals below it, 8 in it, 16 above) and the tail (10 radicals beyond it)
# in the middle of g6 generic.  Seven 5-term groups (78125 terms, 1-2 s a
# radical) are left out: one such radical per pass made a pass 4.6 s long
# and its time, which depends on how the seed's lines merge, set the spread
# of wall_s.
SPECTRA_COUNTS = {"full": {4: (2, 2), 5: (6, 6), 6: (10, 8), 7: (3, 3)},
                  "tiny": {4: (1, 1)}}
LATTICE_G = 0.5            # commensurate splitting constants are k * 0.5 G


def _neighbour(rng, label, terms):
    if terms in (3, 5) and rng.random() < 0.5:
        return EquivalentGroup(label, 1.0, (terms - 1) // 2, N_GAMMA, {})
    return EquivalentGroup(label, 0.5, terms - 1, H_GAMMA, {})


def radical(rng, profile, commensurate):
    order = rng.permutation(len(profile))
    neighbours = [_neighbour(rng, f"n{i}", profile[k]) for i, k in enumerate(order)]
    if commensurate:
        lambdas = LATTICE_G * rng.integers(1, 7, len(neighbours))
    else:
        lambdas = rng.uniform(0.2, 6.0, len(neighbours))
    electron = EquivalentGroup("e", 0.5, 1, E_GAMMA,
                               {g.label: float(lam) for g, lam in zip(neighbours, lambdas)})
    return [electron, *neighbours]


def _check_spectrum(groups, spec, csv_path):
    electron, neighbours = groups[0], groups[1:]
    expected = math.prod(g.states for g in neighbours)
    total = sum(line.intensity for line in spec.lines)
    if total != expected:
        return f"intensities sum to {total}, expected {expected}"
    pos = np.array([line.delta_b for line in spec.lines])
    inten = [line.intensity for line in spec.lines]
    span = sum(electron.lambdas[g.label] * g.max_bosons for g in neighbours)
    mirror = pos + pos[::-1] - span
    if np.max(np.abs(mirror)) > 1e-9 * (1.0 + span):
        return f"lines not mirror-symmetric (max offset {np.max(np.abs(mirror)):.3e})"
    if inten != inten[::-1]:
        return "mirror lines have unequal intensities"
    parsed = spectrum.parse_csv(csv_path)
    if len(parsed.lines) != len(spec.lines):
        return "CSV round trip changed the line count"
    for a, b in zip(spec.lines, parsed.lines):
        if (a.intensity != b.intensity or a.configs != b.configs
                or abs(a.delta_b - b.delta_b) > 1e-11 * max(1.0, abs(a.delta_b))):
            return f"CSV round trip changed the line at {a.delta_b}"
    return None


def spectra(rng, scale, out_dir):
    calcs = []
    for key, (generic, commensurate_count) in SPECTRA_COUNTS[scale].items():
        profile = SPECTRA_PROFILES[key]
        for commensurate in [False] * generic + [True] * commensurate_count:
            groups = radical(rng, profile, commensurate)
            cid = len(calcs)
            csv_path = out_dir / f"r{cid}.csv"
            svg_path = out_dir / f"r{cid}.svg"

            def run(groups=groups, csv_path=csv_path, svg_path=svg_path):
                spec = spectrum.stick_spectrum(groups, "e")
                spectrum.export_csv(spec, csv_path)
                spectrum.export_svg(spec, svg_path)
                return spec

            calcs.append(Calc(
                cid, "stick_spectrum",
                {"profile": f"g{key}", "groups": len(profile),
                 "terms": math.prod(profile), "commensurate": commensurate},
                run,
                lambda spec, groups=groups, p=csv_path: _check_spectrum(groups, spec, p),
                lambda spec: {"lines": len(spec.lines)},
                # the CSV holds every line's position, intensity and configs
                lambda spec, p=csv_path: p.read_bytes(),
            ))
    return calcs


# -- dynamics ------------------------------------------------------------------

# Calculations per pass for each (spins, drive kind).  In time order the
# classes run D4 Lorentzian < D8 Lorentzian < D4 Gaussian (the Hilbert
# quadrature) < D8 Gaussian < D16.  The counts put the median in the middle
# of D8 Lorentzian (16 calculations below it, 10 in it, 16 above) and the
# tail (10 calculations beyond it) in the middle of D4 Gaussian.  Placing
# both away from class edges makes the drives 27 Lorentzian : 15 Gaussian;
# an even split puts the median on the edge between the two kinds.
DYNAMICS_COUNTS = {
    "full": {(2, "lorentzian"): 16, (3, "lorentzian"): 10, (2, "gaussian"): 12,
             (3, "gaussian"): 2, (4, "lorentzian"): 1, (4, "gaussian"): 1},
    "tiny": {(2, "lorentzian"): 1, (3, "gaussian"): 1},
}
ROUTE_CHECK_MAX_DIM = 8


def _dynamics_run(system, field_cfg, t_end):
    model = mastereq.build_model(system, field_cfg, BETA)
    traj = mastereq.propagate(model, model.boltzmann, t_end)
    power = response.absorbed_power(model)
    mag = response.steady_magnetization(model, t_end)
    return model, traj.final, power, mag


def _dynamics_check(out, t_end):
    model, final, (power, lines), mag = out
    err = _state_error(final)
    if err:
        return err
    if not (math.isfinite(power) and math.isfinite(mag)):
        return "non-finite response"
    if not _close(power, sum(line.power for line in lines), 1e-12 * max(1e-300, abs(power))):
        return "absorbed power differs from the sum over lines"
    if model.dim <= ROUTE_CHECK_MAX_DIM:
        ref = mastereq.lambda_map(model, t_end, model.boltzmann)
        diff = float(np.max(np.abs(final - ref)))
        if diff > ROUTE_TOL:
            return f"propagate differs from lambda_map by {diff:.3e}"
    return None


def dynamics(rng, scale, out_dir):
    calcs = []
    for (n_spins, kind), count in DYNAMICS_COUNTS[scale].items():
        for _ in range(count):
            system = coupled_system(rng, n_spins)
            field_cfg = drive(system, kind)
            t_end = t_end_for(field_cfg)
            calcs.append(Calc(
                len(calcs), "propagate",
                {"D": system.dim, "drive": kind},
                lambda s=system, f=field_cfg, t=t_end: _dynamics_run(s, f, t),
                lambda out, t=t_end: _dynamics_check(out, t),
                lambda out: _model_props(out[0]),
            ))
    return calcs


# -- thermal maps --------------------------------------------------------------

ACP_ORDER = 4
ACP_B_O = 3.0
# beta per dimension, chosen so that y_nested's node ladder stops at the same
# level for every draw (8 nodes per level at D = 4, 16 at D = 8 and 16);
# with one beta for all sizes the cost of a draw is bimodal.
ACP_BETA = {4: 0.1, 8: 2.0, 16: 1.0}
ORDER_N = 2

# calculation kind -> {spins: count} per pass.  In time order the classes
# run D4 order-n < D4 ACP < D4 map < D8 ACP and D8 map < D16 ACP.  The counts
# put the median in the middle of the D4 map class (14 calculations below
# it, 10 in it, 14 above) and the tail (10 calculations beyond it) inside
# the D8 ACP class.  A draw's cost varies inside its class, so a median at
# a class edge moves with the seed.
THERMAL_COUNTS = {
    "full": {"acp_table": {2: 8, 3: 12, 4: 1}, "map_audit": {2: 10, 3: 1},
             "order_n": {2: 6}},
    "tiny": {"acp_table": {2: 1}, "map_audit": {2: 1}, "order_n": {2: 1}},
}


def acp_system(rng, n_spins):
    """Strongly coupled system in the units of configs/acp_two_spin.cfg."""
    gammas = -rng.uniform(2.0, 3.0, n_spins)
    shape = (n_spins, n_spins)
    c = np.triu(rng.uniform(0.6, 1.0, shape) * rng.choice((-1.0, 1.0), shape), 1)
    return SpinSystem([0.5] * n_spins, gammas, c + c.T)


def _acp_run(system):
    beta = ACP_BETA[system.dim]
    moments = acp.moments_up_to(system, ACP_B_O, ACP_ORDER, beta)
    zetas = acp.zeta_recursive(moments)
    dets = [acp.zeta_determinant(moments, n) for n in range(1, ACP_ORDER + 1)]
    corr = acp.initial_correction(system, ACP_B_O, ACP_ORDER, beta)
    return zetas, dets, corr


def _acp_check(out):
    zetas, dets, corr = out
    scale = max(abs(z) for z in zetas.zetas)
    for n, det in enumerate(dets, start=1):
        z = zetas.zetas[n]
        if not _close(z, det, ZETA_TOL * scale):
            return f"zeta_{n}: recursion {z} vs determinant {det}"
    if not np.all(np.isfinite(corr)):
        return "non-finite initial correction"
    scale = max(float(np.max(np.abs(corr))), 1e-300)
    if abs(complex(np.trace(corr))) > 1e-9 * scale:
        return "initial correction is not traceless"
    if float(np.max(np.abs(corr - corr.conj().T))) > HERM_TOL * scale:
        return "initial correction is not Hermitian"
    return None


def _map_run(system, field_cfg, t):
    model = mastereq.build_model(system, field_cfg, BETA)
    rho = mastereq.lambda_map(model, t, model.boltzmann)
    audit = mastereq.kraus_audit(model, t, model.boltzmann, n_nodes=KRAUS_NODES)
    return model, rho, audit


def _map_check(out):
    model, rho, audit = out
    err = _state_error(rho)
    if err:
        return f"lambda_map: {err}"
    if audit.trace_residual > KRAUS_TRACE_TOL:
        return f"Kraus trace residual {audit.trace_residual:.3e}"
    if audit.reconstruction_residual > KRAUS_RECON_TOL:
        return f"Kraus reconstruction residual {audit.reconstruction_residual:.3e}"
    return None


def _traceless_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    h -= np.trace(h) / dim * np.eye(dim)
    return h / np.max(np.abs(h))


def _order_n_run(system, field_cfg, t_end, g0):
    model = mastereq.build_model(system, field_cfg, BETA)
    w = field_cfg.dist.center
    tau = lineshape.relaxation_time(field_cfg.dist)
    amp = 1e-3 * float(np.max(np.abs(model.boltzmann)))

    def inhomogeneity(t):
        return amp * math.cos(w * t) * math.exp(-t / tau) * g0

    return acp.propagate_order_n(model, ORDER_N, inhomogeneity, t_end).final


def _order_n_check(final):
    if not np.all(np.isfinite(final)):
        return "non-finite order-n state"
    scale = max(float(np.max(np.abs(final))), 1e-300)
    if abs(complex(np.trace(final))) > 1e-9 * scale:
        return "order-n state lost tracelessness"
    if float(np.max(np.abs(final - final.conj().T))) > HERM_TOL * scale:
        return "order-n state lost Hermiticity"
    return None


def thermal_maps(rng, scale, out_dir):
    calcs = []
    counts = THERMAL_COUNTS[scale]
    for n_spins, count in counts["acp_table"].items():
        for _ in range(count):
            system = acp_system(rng, n_spins)
            calcs.append(Calc(len(calcs), "acp_table", {"D": system.dim},
                              lambda s=system: _acp_run(s), _acp_check))
    for n_spins, count in counts["map_audit"].items():
        for _ in range(count):
            system = coupled_system(rng, n_spins)
            field_cfg = drive(system, "lorentzian")
            calcs.append(Calc(
                len(calcs), "map_audit", {"D": system.dim, "drive": "lorentzian"},
                lambda s=system, f=field_cfg, t=t_end_for(field_cfg): _map_run(s, f, t),
                _map_check, lambda out: _model_props(out[0])))
    for n_spins, count in counts["order_n"].items():
        for _ in range(count):
            system = coupled_system(rng, n_spins)
            field_cfg = drive(system, "lorentzian")
            g0 = _traceless_hermitian(rng, system.dim)
            calcs.append(Calc(
                len(calcs), "order_n", {"D": system.dim, "drive": "lorentzian"},
                lambda s=system, f=field_cfg, t=t_end_for(field_cfg), g=g0:
                    _order_n_run(s, f, t, g),
                _order_n_check))
    return calcs


# -- CLI configs -----------------------------------------------------------------

SHIPPED = ("naphthalene", "biphenyl", "anthracene", "two_spin", "qubit", "acp_two_spin")
# Generated configs per pass: (radicals, 2-spin propagates, 3-spin propagates).
# The 3-spin runs propagate towards the steady state, CLI_LONG_TAUS relaxation
# times; with qubit and two_spin they make the slow class, 7 of the 18 runs,
# where calc_tail_s falls.  The median falls inside the 11 import-bound runs.
CLI_COUNTS = {"full": (6, 1, 5), "tiny": (1, 1, 0)}
CLI_LONG_TAUS = 3.0
CLI_TIMEOUT_S = 120
SHIPPED_TINY = ("naphthalene", "acp_two_spin")

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"


def _radical_cfg(groups, basename):
    lines = ["[run]", "mode = spectrum", ""]
    for g in groups:
        lines += [f"[group:{g.label}]", f"j = {g.j!r}", f"count = {g.count}",
                  f"gamma = {g.gamma!r}"]
        lines += [f"lambda.{lab} = {lam!r}" for lab, lam in g.lambdas.items()]
        lines.append("")
    lines += ["[spectrum]", "resonance = e", "", "[output]", f"basename = {basename}", ""]
    return "\n".join(lines)


def _propagate_cfg(system, field_cfg, t_end, basename):
    c = system.couplings
    rows = "; ".join(" ".join(repr(float(v)) for v in row) for row in c)
    dist = field_cfg.dist
    return "\n".join([
        "[run]", "mode = propagate", "",
        "[system]", "spins = " + " ".join(repr(j) for j in system.spins),
        "gammas = " + " ".join(repr(g) for g in system.gammas),
        f"couplings = {rows}", "",
        "[field]", f"b_o = {field_cfg.b_o!r}", f"b_1 = {field_cfg.b_1!r}",
        f"dist = {dist.kind}", f"center = {dist.center!r}", f"width = {dist.width!r}", "",
        "[thermal]", f"beta = {BETA!r}", "",
        "[propagate]", f"t_end = {t_end!r}", "",
        "[output]", f"basename = {basename}", "",
    ])


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def _compare_columns(got, want, what):
    """Relative to each column's largest magnitude, floored at 1e-6 of the
    table's so that columns of rounding noise (imaginary parts of real
    expectation values) compare on an absolute scale."""
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} differs from golden {want.shape}"
    scale = np.maximum(np.max(np.abs(want), axis=0), 1e-6 * np.max(np.abs(want)))
    worst = float(np.max(np.abs(got - want) / scale))
    if worst > GOLDEN_RTOL:
        return f"{what}: differs from golden by {worst:.3e} of the column scale"
    return None


def _power_coeffs(d, count):
    """Coefficients of (1 + x + ... + x^(d-1))^count as exact integers."""
    coeffs = [1]
    for _ in range(count):
        coeffs = [sum(coeffs[max(0, k - d + 1):k + 1]) for k in range(len(coeffs) + d - 1)]
    return coeffs


def _reference_lines(groups):
    """Independent brute-force stick spectrum: sorted (position, intensity)."""
    electron, neighbours = groups[0], groups[1:]
    per_group = [list(enumerate(_power_coeffs(round(2 * g.j) + 1, g.count)))
                 for g in neighbours]
    lams = [electron.lambdas[g.label] for g in neighbours]
    raw = sorted((sum(lam * n for lam, (n, _) in zip(lams, combo)),
                  math.prod(c for _, c in combo))
                 for combo in itertools.product(*per_group))
    merged = []
    for pos, inten in raw:
        if merged and abs(pos - merged[-1][0]) <= MERGE_TOL:
            merged[-1][1] += inten
        else:
            merged.append([pos, inten])
    return merged


def _check_generated_spectrum(out_dir, basename, groups):
    with open(out_dir / f"{basename}_spectrum.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(r[0]), int(r[1])) for r in reader]
    ref = _reference_lines(groups)
    if len(rows) != len(ref):
        return f"{len(rows)} lines, reference has {len(ref)}"
    for (pos, inten), (rpos, rint) in zip(rows, ref):
        if inten != rint or abs(pos - rpos) > MERGE_TOL + 1e-11 * abs(rpos):
            return f"line at {pos} differs from the reference ({rpos}, {rint})"
    return None


def _check_generated_propagate(out_dir, basename, system, field_cfg, t_end):
    header, rows = _read_rows(out_dir / f"{basename}_trajectory.csv")
    last = rows[-1]
    if not _close(last[0], t_end, 1e-11 * t_end):   # written with 12 digits
        return f"trajectory ends at {last[0]}, not {t_end}"
    d = system.dim
    pops = last[header.index("pop_0"):header.index("pop_0") + d]
    if abs(pops.sum() - 1.0) > 1e-9:
        return f"final populations sum to {pops.sum()}"
    model = mastereq.build_model(system, field_cfg, BETA)
    ref = mastereq.lambda_map(model, t_end, model.boltzmann)
    ref_pops = np.real(np.diag(ref))
    ref_z = float(np.real(np.trace(ref @ xi_operator(system, "z"))))
    if np.max(np.abs(pops - ref_pops)) > 1e-9:
        return "final populations differ from lambda_map"
    z = last[header.index("re_xi_z")]
    if abs(z - ref_z) > 1e-9 * max(1.0, abs(ref_z)):
        return f"final <xi_z> {z} differs from lambda_map {ref_z}"
    return None


def _check_shipped(out_dir, name):
    if name in ("naphthalene", "biphenyl", "anthracene"):
        f = f"{name}_spectrum.csv"
        if (out_dir / f).read_bytes() != (GOLDEN_DIR / f).read_bytes():
            return f"{f} differs from golden"
        return None
    if name == "two_spin":
        header, got = _read_rows(out_dir / "two_spin_trajectory.csv")
        gh, want = _read_rows(GOLDEN_DIR / "two_spin_trajectory.csv")
        if header != gh[1:]:
            return "trajectory header differs from golden"
        idx = want[:, 0].astype(int)
        if got.shape[0] - 1 != idx[-1]:
            return f"{got.shape[0]} trajectory rows, golden has {idx[-1] + 1}"
        return _compare_columns(got[idx], want[:, 1:], "two_spin trajectory")
    if name == "qubit":
        header, got = _read_rows(out_dir / "qubit_qubit.csv")
        _, want = _read_rows(GOLDEN_DIR / "qubit_qubit.csv")
        ana = [0] + [header.index(f"ana_sigma_{k}") for k in (1, 2, 3)]
        err = _compare_columns(got[:, ana], want[:, ana], "qubit analytic columns")
        if err:
            return err
        num = [header.index(f"num_sigma_{k}") for k in (1, 2, 3)]
        if np.max(np.abs(got[:, num] - want[:, num])) > 1e-6:
            return "qubit numeric columns moved by more than the config's 1e-6"
        rep = json.loads((out_dir / "qubit_qubit_report.json").read_text())
        ref = json.loads((GOLDEN_DIR / "qubit_qubit_report.json").read_text())
        if rep["n_compared"] != ref["n_compared"] or rep["max_abs_deviation"] > 1e-6:
            return "qubit report differs from golden"
        for key in ("rate", "varpi"):
            if not _close(rep[key], ref[key], GOLDEN_RTOL * abs(ref[key])):
                return f"qubit {key} {rep[key]} differs from golden {ref[key]}"
        return None
    got = json.loads((out_dir / "acp_two_spin_zeta.json").read_text())
    want = json.loads((GOLDEN_DIR / "acp_two_spin_zeta.json").read_text())
    for key in ("moments", "zeta_recursive", "zeta_determinant"):
        err = _compare_columns(np.array(got[key]), np.array(want[key]), f"acp {key}")
        if err:
            return err
    return None


def cli_command(cfg_path, out_dir, span_file=None):
    """argv of one CLI run; traced runs go through cli_child.py."""
    if span_file is None:
        return [sys.executable, "-m", "spinlind.cli", "--config", str(cfg_path),
                "--out", str(out_dir)]
    return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(span_file),
            "--config", str(cfg_path), "--out", str(out_dir)]


def _cli_run(cfg_path, out_dir, span_file, env):
    shutil.rmtree(out_dir, ignore_errors=True)
    return subprocess.run(cli_command(cfg_path, out_dir, span_file), env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CLI_TIMEOUT_S)


def _cli_check(result, verify):
    if result.returncode != 0:
        return f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"
    return verify()


def _cli_fingerprint(result, out_dir):
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return _pickled((result.returncode, [(p.name, p.read_bytes()) for p in files]))


def cli_configs(rng, scale, out_dir, root, env):
    """Configs as files; each calc runs the CLI in a fresh interpreter.

    ``env`` is the child environment.  A traced pass sets ``calc.span_file``
    before ``run``; the worker reads the spans from it afterwards.
    """
    cfg_dir = out_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []   # (cfg_path, props, verify(out_dir))
    shipped = SHIPPED if scale == "full" else SHIPPED_TINY
    for name in shipped:
        props = {"config": name, "shipped": True}
        if name == "two_spin":
            props["D"] = 4
        elif name == "qubit":
            props["D"] = 2
        jobs.append((root / "configs" / f"{name}.cfg", props,
                     lambda od, name=name: _check_shipped(od, name)))
    n_rad, n_two, n_three = CLI_COUNTS[scale]
    for k in range(n_rad):
        n_groups = int(rng.integers(2, 5))
        profile = tuple(int(t) for t in rng.integers(2, 6, n_groups))
        groups = radical(rng, profile, commensurate=k % 2 == 1)
        basename = f"gen{len(jobs):02d}"
        path = cfg_dir / f"{basename}.cfg"
        path.write_text(_radical_cfg(groups, basename))
        jobs.append((path, {"config": "radical", "shipped": False, "groups": n_groups,
                            "terms": math.prod(profile), "commensurate": k % 2 == 1},
                     lambda od, b=basename, g=groups: _check_generated_spectrum(od, b, g)))
    for n_spins, count in ((2, n_two), (3, n_three)):
        for _ in range(count):
            system = coupled_system(rng, n_spins)
            field_cfg = drive(system, "lorentzian")
            t_end = t_end_for(field_cfg, CLI_LONG_TAUS if n_spins == 3 else T_END_TAUS)
            basename = f"gen{len(jobs):02d}"
            path = cfg_dir / f"{basename}.cfg"
            path.write_text(_propagate_cfg(system, field_cfg, t_end, basename))
            jobs.append((path, {"config": "propagate", "shipped": False, "D": system.dim,
                                "drive": "lorentzian"},
                         lambda od, b=basename, s=system, f=field_cfg, t=t_end:
                             _check_generated_propagate(od, b, s, f, t)))
    calcs = []
    for cfg_path, props, verify in jobs:
        cid = len(calcs)
        run_dir = out_dir / f"c{cid}"
        calc = Calc(cid, "cli", props, None, None)
        calc.span_file = None
        calc.run = lambda c=calc, p=cfg_path, od=run_dir: _cli_run(p, od, c.span_file, env)
        calc.check = lambda res, v=verify, od=run_dir: _cli_check(res, lambda: v(od))
        calc.fingerprint = lambda res, od=run_dir: _cli_fingerprint(res, od)
        calcs.append(calc)
    return calcs


def generate(workload, seed, scale, out_dir, root, env):
    rng = np.random.default_rng(seed)
    if workload == "cli_configs":
        return cli_configs(rng, scale, out_dir, root, env)
    return {"spectra": spectra, "dynamics": dynamics,
            "thermal_maps": thermal_maps}[workload](rng, scale, out_dir)
