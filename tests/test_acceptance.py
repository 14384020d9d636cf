"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spinlind import acp
from spinlind import eigenops as eo
from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import numutil as nu
from spinlind import qubit as qb
from spinlind import response as rs
from spinlind import spectrum as sp
from spinlind import spincore as sc
from spinlind.config import load_config

from conftest import random_system, resonant_qubit_setup
from oracles import dense_ladder, pauli_rates_oracle, transition_rate_oracle, wavefunction_oracle
from test_spectrum import anthracene_groups, biphenyl_groups, naphthalene_groups

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestAcceptance:
    def test_01_naphthalene_spectrum(self):
        start = time.perf_counter()
        spec = sp.stick_spectrum(naphthalene_groups(), "e")
        elapsed = time.perf_counter() - start

        ok = len(spec.lines) == 25
        binom = [1, 4, 6, 4, 1]
        expected_positions = sorted(
            {round(n1 * 4.90 + n2 * 1.83, 12) for n1 in range(5) for n2 in range(5)})
        got_positions = sorted(round(l.delta_b, 12) for l in spec.lines)
        pos_err = max(abs(a - b) for a, b in zip(expected_positions, got_positions))
        ok = ok and pos_err <= 1e-9

        expected_multiset = Counter(b1 * b2 for b1 in binom for b2 in binom)
        got_multiset = Counter(int(l.intensity) for l in spec.lines)
        ok = ok and expected_multiset == got_multiset

        poly = sp.generating_polynomial(naphthalene_groups(), "e")
        term_ok = all(
            poly.coefficient((n1, n2)) == math.comb(4, n1) * math.comb(4, n2)
            for n1 in range(5) for n2 in range(5)) and poly.n_terms == 25
        ok = ok and term_ok and elapsed < 1.0
        verdict(1, ok, f"25 lines, position error {pos_err:.1e} G, "
                       f"binomial-product intensities, {elapsed * 1e3:.0f} ms")

    def test_02_biphenyl_and_anthracene(self):
        start = time.perf_counter()
        bi = sp.stick_spectrum(biphenyl_groups(), "e")
        t_bi = time.perf_counter() - start
        start = time.perf_counter()
        an = sp.stick_spectrum(anthracene_groups(), "e")
        t_an = time.perf_counter() - start

        ok = len(bi.lines) == 75 and len(an.lines) == 75
        spot = [l for l in bi.lines
                if abs(l.delta_b - (4 * 2.675 + 3 * 0.394)) <= 1e-9]
        ok = ok and len(spot) == 1 and spot[0].intensity == 4 \
            and abs(spot[0].delta_b - 11.882) <= 1e-9
        ok = ok and Counter(l.intensity for l in an.lines) == \
            Counter(l.intensity for l in bi.lines)
        an_positions = sorted(round(l.delta_b, 9) for l in an.lines)
        expected_an = sorted({round(n1 * 2.73 + n2 * 1.51 + n3 * 5.34, 9)
                              for n1 in range(5) for n2 in range(5)
                              for n3 in range(3)})
        ok = ok and an_positions == expected_an
        ok = ok and t_bi < 1.0 and t_an < 1.0
        verdict(2, ok, f"75 + 75 lines, spot line at 11.882 G intensity 4, "
                       f"shared intensity multiset, {1e3 * (t_bi + t_an):.0f} ms")

    def test_03_qubit_cross_validation(self):
        start = time.perf_counter()
        system, field, beta = resonant_qubit_setup(rate=35.2)
        model = me.build_model(system, field, beta)
        params = qb.QubitParams.from_field(system.gammas[0], field.b_o,
                                           field.b_1, beta, field.dist)
        rate = params.rate
        # the stated regime: Lorentzian half-width at half max = Gamma / 5
        assert field.dist.width / 2.0 == pytest.approx(rate / 5.0)
        t_end = 10.0 / rate
        traj = me.propagate(model, model.boltzmann, t_end)
        states = traj.schrodinger_states()
        idx = np.unique(np.linspace(0, traj.times.size - 1, 60).astype(int))
        max_dev = 0.0
        for i in idx:
            t = float(traj.times[i])
            rho = states[i]
            num = [float(np.real(np.trace(rho @ qb.SIGMA[k]))) for k in (1, 2, 3)]
            ana = qb.trajectory(params, t)
            max_dev = max(max_dev, max(abs(a - b) for a, b in zip(num, ana)))
        elapsed = time.perf_counter() - start
        ok = max_dev < 1e-6 and elapsed < 10.0
        verdict(3, ok, f"max |numeric - analytic| = {max_dev:.2e} over "
                       f"[0, 10/Gamma], {elapsed:.1f} s")

    def test_04_structure_factor_claims(self):
        import scipy.optimize
        system, field, beta = resonant_qubit_setup()
        params = qb.QubitParams.from_field(system.gammas[0], field.b_o,
                                           field.b_1, beta, field.dist)
        w0, g2 = params.omega_o, 2.0 * params.rate
        peak = qb.structure_factor(params, "-+", w0).smooth
        half_up = scipy.optimize.brentq(
            lambda d: qb.structure_factor(params, "-+", w0 + d).smooth - peak / 2.0,
            0.01 * g2, 50.0 * g2, xtol=1e-14 * g2)
        hwhm_err = abs(half_up - g2) / g2
        # difference relation as an exact identity of the implemented forms
        th = params.thermal_polarization
        diff_err = 0.0
        for wp in (w0 - 7.0, w0, w0 + 3.0, w0 + 40.0):
            got = (qb.structure_factor(params, "-+", wp).smooth
                   - qb.structure_factor(params, "+-", -wp).smooth)
            want = th / math.pi * g2 / (g2 ** 2 + (wp - w0) ** 2)
            diff_err = max(diff_err, abs(got - want))
        fdt = qb.fdt_check(params)
        ok = (hwhm_err < 1e-10 and diff_err < 1e-14
              and fdt["adiabatic_detailed_balance"] < 1e-14
              and fdt["fdt"] < 1e-14)
        verdict(4, ok, f"HWHM rel err {hwhm_err:.1e}, difference relation "
                       f"{diff_err:.1e}, detailed balance "
                       f"{fdt['adiabatic_detailed_balance']:.1e}, "
                       f"FDT {fdt['fdt']:.1e}")

    def test_05_zeta_machinery(self, rng):
        worst = 0.0
        for _ in range(100):
            vals = rng.normal(size=6) + 1j * rng.normal(size=6)
            moments = acp.AcpMoments(vals)
            zetas = acp.zeta_recursive(moments).zetas
            for n in range(1, 7):
                worst = max(worst, abs(acp.zeta_determinant(moments, n) - zetas[n]))
        import scipy.linalg
        b_o, beta = 3.0, 0.4
        scales = np.array([0.5, 0.25, 0.125, 0.0625])  # one decade
        residuals = []
        for c in scales:
            couplings = np.array([[0.0, 0.8 * c], [0.8 * c, 0.0]])
            system = sc.SpinSystem([0.5, 0.5], [-2.0, -3.0], couplings)
            total = sum(acp.initial_correction(system, b_o, n, beta)
                        for n in (0, 1, 2))
            gibbs = scipy.linalg.expm(-beta * sc.static_hamiltonian(system, b_o))
            gibbs = gibbs / np.trace(gibbs)
            residuals.append(np.max(np.abs(total - gibbs)))
        fit = np.polyfit(np.log(scales), np.log(residuals), 1)
        slope = float(fit[0])
        ok = worst < 1e-10 and abs(slope - 3.0) < 0.1
        verdict(5, ok, f"determinant-vs-recursion max diff {worst:.1e} "
                       f"(100 sets, n <= 6), truncation slope {slope:.3f}")

    def test_06_eigen_operator_suite(self, rng):
        # xi^x = sum_w [xi(+1, w) + xi(+1, w)^dag] from the +1-step ladder table
        worst_complete = 0.0
        worst_comm = 0.0
        adjoint_exact = True
        steps_ok = True
        for _ in range(50):
            system = random_system(rng, max_spins=4, max_dim=81)
            b_o = float(rng.uniform(0.5, 2.0))
            eps = sc.level_data(system, b_o)
            xi = sc.xi_operator(system, "x")
            table = eo.ladder_table(system, eps)
            stack = dense_ladder(table)
            half = stack.sum(0)
            scale = max(np.max(np.abs(xi)), 1e-300)
            worst_complete = max(worst_complete,
                                 np.max(np.abs(half + half.conj().T - xi)) / scale)
            # the -1-step entries of xi^x are the adjoints of the table's
            adjoint_exact = adjoint_exact and np.array_equal(
                xi[table.cols, table.rows], table.values.conj()) and (
                np.count_nonzero(xi) == 2 * table.values.size)
            mags = sc.total_sz(system).diagonal().real
            steps_ok = steps_ok and bool(np.all(mags[table.cols] - mags[table.rows] == 1))
            zo = sc.build_zo(system, b_o)
            sz = sc.total_sz(system)
            e_scale = max(np.max(np.abs(eps)), 1.0)
            for w, m in zip(table.omegas, stack):
                m_scale = np.max(np.abs(m))
                c1 = np.max(np.abs(zo @ m - m @ zo + w * m))
                c2 = np.max(np.abs(sz @ m - m @ sz + m))
                worst_comm = max(worst_comm, c1 / (e_scale * m_scale),
                                 c2 / m_scale)
        ok = (worst_complete <= 1e-12 and worst_comm <= 1e-10
              and adjoint_exact and steps_ok)
        verdict(6, ok, f"50 systems: completeness {worst_complete:.1e}, "
                       f"commutators {worst_comm:.1e}, adjoint exact: "
                       f"{adjoint_exact}, steps +-1: {steps_ok}")

    def test_07_map_theory_suite(self):
        system, field, beta = resonant_qubit_setup()
        model = me.build_model(system, field, beta)
        rate = transition_rate_oracle(model, 0, 1)
        t = 0.5 / rate

        lam = me.lambda_map(model, t, model.boltzmann)
        trace_res = abs(complex(np.trace(lam)) - 1.0)

        audit = me.kraus_audit(model, t, model.boltzmann, n_nodes=1024)

        w0 = float(model.ladder.omegas[0])
        wit = me.noncp_witness(model, np.array([1.0, 0.0]), 0.25 / w0)
        wit_ok = wit.det_value < 0 and abs(wit.det_value - wit.predicted) < 1e-8

        min_eig = np.inf
        for cfg_name in ("qubit", "two_spin"):
            cfg = load_config(CONFIGS / f"{cfg_name}.cfg")
            m = me.build_model(cfg.system,
                               me.FieldConfig(cfg.field_b_o, cfg.field_b_1, cfg.dist),
                               cfg.beta)
            horizon = cfg.t_end if cfg.t_end else 0.02
            traj = me.propagate(m, m.boltzmann, horizon)
            for state in traj.states:
                min_eig = min(min_eig, float(
                    np.linalg.eigvalsh(nu.hermitize(state)).min()))

        ok = (trace_res < 1e-8 and audit.reconstruction_residual < 1e-8
              and audit.trace_residual < 1e-8 and wit_ok and min_eig >= -1e-8)
        verdict(7, ok, f"trace residual {trace_res:.1e}, Kraus reconstruction "
                       f"{audit.reconstruction_residual:.1e}, witness det "
                       f"{wit.det_value:.3e} vs {wit.predicted:.3e}, "
                       f"min trajectory eigenvalue {min_eig:.1e}")

    def test_08_stick_oracle_equivalence(self):
        gamma_r, gamma_n = -2.0e3, 8.0e2
        lam = 3.7
        t_coupling = -lam * gamma_r
        couplings = np.zeros((3, 3))
        couplings[0, 1:] = couplings[1:, 0] = t_coupling
        system = sc.SpinSystem([0.5, 0.5, 0.5], [gamma_r, gamma_n, gamma_n],
                               couplings)
        groups = (
            sp.EquivalentGroup("r", 0.5, 1, gamma_r, {"n": lam}),
            sp.EquivalentGroup("n", 0.5, 2, gamma_n, {}),
        )
        omega = 6.0 * abs(gamma_r)
        poly_spec = sp.stick_spectrum(groups, "r", omega, absolute=True)

        eps0 = sc.level_data(system, 0.0)
        eps1 = sc.level_data(system, 1.0)
        mags = sc.total_sz(system).diagonal().real
        xi_x = sc.xi_operator(system, "x")
        lines = {}
        for a in range(system.dim):
            for b in range(system.dim):
                if abs(mags[b] - mags[a] - 1.0) > 1e-9 or xi_x[a, b] == 0:
                    continue
                g0 = eps0[b] - eps0[a]
                slope = (eps1[b] - eps1[a]) - g0
                if abs(slope) < 1e-12:
                    continue
                b_res = (omega - g0) / slope
                if b_res <= 0:
                    continue
                dist = ls.lorentzian(omega, 50.0)
                model = me.build_model(
                    system, me.FieldConfig(b_o=b_res, b_1=1e-4, dist=dist), 1e-6)
                key = round(b_res, 9)
                lines[key] = lines.get(key, 0.0) + transition_rate_oracle(model, a, b)
        matrix_positions = sorted(lines)
        poly_positions = sorted(round(l.delta_b, 9) for l in poly_spec.lines)
        pos_ok = len(matrix_positions) == len(poly_positions) and all(
            abs(mp - pp) <= 1e-9 for mp, pp in zip(matrix_positions, poly_positions))
        matrix_int = np.array([lines[k] for k in matrix_positions])
        matrix_int /= matrix_int.min()
        poly_by_pos = {round(l.delta_b, 9): l.intensity for l in poly_spec.lines}
        poly_int = np.array([poly_by_pos[k] for k in poly_positions], dtype=float)
        poly_int /= poly_int.min()
        int_ok = np.allclose(matrix_int, poly_int, rtol=1e-12, atol=0.0)
        verdict(8, pos_ok and int_ok,
                f"{len(matrix_positions)} lines agree line-for-line; "
                f"normalized intensities {matrix_int.tolist()} vs {poly_int.tolist()}")

    def test_09_wavefunction_oracle_rate(self):
        gamma, b_o, b_1 = -150.0, 1.0, 0.05 / 150.0
        w0 = -gamma * b_o
        width = 2.0        # FWHM, so the field memory time is 1
        dist = ls.lorentzian(w0, width)
        system = sc.SpinSystem([0.5], [gamma])
        model = me.build_model(system, me.FieldConfig(b_o, b_1, dist), 1e-4)
        gamma_plus = [e for e in pauli_rates_oracle(model)
                      if e.canonical][0].gamma_plus

        energies = sc.level_data(system, b_o)
        xi_x = sc.xi_operator(system, "x")
        # growth-rate window: well past the field memory, still perturbative
        t1, t2 = 6.0, 8.0

        # equal-mass nodes of the drive density via its quantile transform
        u, w_gl = np.polynomial.legendre.leggauss(150)
        u = 0.5 * (u + 1.0)
        w_gl = 0.5 * w_gl
        omegas_r = w0 + 0.5 * width * np.tan(np.pi * (u - 0.5))

        def averaged_probability(t):
            total = 0.0
            for w_r, weight in zip(omegas_r, w_gl):
                def drive(ts, w_r=w_r):
                    return (2.0 * b_1 * np.cos(w_r * np.asarray(ts)))[:, None, None] * xi_x
                total += weight * wavefunction_oracle(
                    energies, drive, 1, 0, 0.0, t, rtol=1e-5, n0=4096)
            return total

        p1 = averaged_probability(t1)
        p2 = averaged_probability(t2)
        measured = (p2 - p1) / (t2 - t1)
        rel = abs(measured - gamma_plus) / gamma_plus
        verdict(9, rel < 0.02,
                f"rate {measured:.4e} vs table {gamma_plus:.4e} (rel {rel:.3%})")

    def test_10_map_is_not_cp_then_cp(self):
        # the abstract's claim 1 at map level: Lambda(t) of two_spin.cfg, built column by
        # column from the D^2 basis inputs (the map is linear in its input), has a Choi
        # matrix with a negative eigenvalue for t <= 3 tau_f and none from 10 tau_f on
        cfg = load_config(CONFIGS / "two_spin.cfg")
        model = me.build_model(cfg.system, me.FieldConfig(cfg.field_b_o, cfg.field_b_1, cfg.dist),
                               cfg.beta)
        d = model.dim
        ratios = np.array([0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0])
        times = ratios * ls.relaxation_time(cfg.dist)
        supers = np.zeros((times.size, d * d, d * d), dtype=complex)
        trace_res = 0.0
        for j in range(d):
            for i in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                out = me.lambda_map(model, times, unit, unsafe=True)
                trace_res = max(trace_res, nu.max_abs(np.trace(out, axis1=1, axis2=2)
                                                      - float(i == j)))
                supers[:, :, j * d + i] = out.transpose(0, 2, 1).reshape(times.size, d * d)
        minima = np.array([np.linalg.eigvalsh(nu.hermitize(nu.choi_matrix(s, d))).min()
                           for s in supers])
        early, late = minima[ratios <= 3.0], minima[ratios >= 10.0]
        ok = bool(np.all(early < 0.0) and np.all(late > 0.0) and trace_res <= 1e-12)
        verdict(10, ok, "Choi minimum at t/tau_f = "
                + ", ".join(f"{r:g}: {m:.1e}" for r, m in zip(ratios, minima))
                + f"; trace residual {trace_res:.1e}")

    def test_11_kubo_link(self):
        # the abstract's claim 2: under a weak drive the exact map's transverse magnetization
        # Re Tr(rho_S(t) M_x), M_x = -xi^x, is the relaxation-free linear response
        # rs.magnetization, 2 B1 sum_w sum_s [cos(wt) Re I - sin(wt) Im I] with I the rho_f
        # integral of the steady plus the transient kernel, up to a relative O(B1^2); the
        # steady kernels alone (rs.steady_magnetization) miss while the field remembers its
        # start (3 tau_f for a Lorentzian, 0.5 for a Gaussian)
        cfg = load_config(CONFIGS / "two_spin.cfg")
        m_x = -sc.xi_operator(cfg.system, "x")
        ratios = np.array([0.05, 0.5, 3.0, 30.0])

        def residuals(dist, b1):
            """|exact - response| / |response| with both kernels, and with the steady alone."""
            times = ratios * ls.relaxation_time(dist)
            model = me.build_model(cfg.system, me.FieldConfig(cfg.field_b_o, b1, dist), cfg.beta)
            states = me.Trajectory(times, me.lambda_map(model, times, model.boltzmann),
                                   model.energies).schrodinger_states()
            exact = np.einsum("nab,ba->n", states, m_x).real
            full, steady = rs.magnetization(model, times), rs.steady_magnetization(model, times)
            return np.abs(exact - full) / np.abs(full), np.abs(exact - steady) / np.abs(full)

        ok, details = True, []
        for kind, memory in ((ls.lorentzian, 3.0), (ls.gaussian, 0.5)):
            dist = kind(cfg.dist.center, cfg.dist.width)
            (res, steady), (res_small, _) = residuals(dist, 1e-4), residuals(dist, 1e-5)
            scaling, missed = res / res_small, steady[ratios <= memory].min()
            ok = (ok and res.max() <= 1e-3 and np.all((scaling >= 50) & (scaling <= 200))
                  and missed > 0.1)
            details.append(f"{kind.__name__}: residuals {', '.join(f'{r:.1e}' for r in res)} "
                           f"at t/tau_f = {', '.join(map(format, ratios))}, "
                           f"{scaling.min():.1f}-{scaling.max():.1f}x smaller at B1 = 1e-5, "
                           f"steady kernels alone miss by >= {missed:.2f}")
        verdict(11, ok, "; ".join(details))
