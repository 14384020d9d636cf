import dataclasses
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinlind import acp
from spinlind import eigenops as eo
from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import numutil as nu
from spinlind import spincore as sc
from spinlind.config import load_config
from spinlind.eigenops import LadderTable
from spinlind.errors import (
    AccuracyError,
    DomainViolationError,
    ValidationError,
    WitnessInapplicableError,
)
from spinlind.qubit import SIGMA

from conftest import random_system
from oracles import (a_term, apply_map_oracle, commutator_drive_table, dense_drive_components,
                     dense_ladder, entries_of, full_apply_map, full_eigensystem, full_kraus_audit,
                     full_lambda_map, inline_pair_dissipator, inline_pair_liouvillian,
                     kraus_audit_oracle, ladder_sums_oracle, liouvillian_matrix,
                     pauli_rates_oracle, rk4_oracle, sandwich_superop, scattered_generator,
                     simpson_doubling, stacked_choi_minima, transition_rate_oracle,
                     two_pass_model_arrays,
                     wavefunction_distribution, wavefunction_oracle)
from test_spectrum import naphthalene_groups


def build(system, field, beta):
    return me.build_model(system, field, beta)


@pytest.fixture
def qubit_model(resonant_qubit):
    system, field, beta = resonant_qubit
    return build(system, field, beta)


def qubit_rate(model):
    """Physical stimulated rate of the two-level model (about 35.2 here)."""
    return transition_rate_oracle(model, 0, 1)


def gauss_legendre(n, a, b):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def quadrature_lambda_map(model, t, rho0, *, unsafe=False, include_drive=True,
                          rtol=1e-9, max_nodes=4096):
    """Oracle: Lambda(t) rho0 with the drive integral by Gauss-Legendre doubling.

    The semigroup part uses the matrix exponential of the vectorized
    generator; the inhomogeneity is integrated with Gauss-Legendre quadrature
    under node doubling, one matrix exponential per node.
    """
    me._check_domain(model, rho0, unsafe)
    d = model.dim
    lmat = liouvillian_matrix(model)
    rho_init = np.array(rho0, dtype=complex)
    out_vec = nu.expm(lmat * t) @ nu.vec(rho_init)

    if include_drive and t > 0 and model.field.b_1 > 0 and model.ladder.omegas.size:
        def quadrature(n):
            nodes, weights = gauss_legendre(n, 0.0, t)
            acc = np.zeros(d * d, dtype=complex)
            for s, w in zip(nodes, weights):
                drive = nu.vec(a_term(model, s, rho_init))
                acc += w * (nu.expm(lmat * (t - s)) @ drive)
            return acc

        n = 16
        prev = quadrature(n)
        while True:
            n *= 2
            if n > max_nodes:
                raise AccuracyError("inhomogeneity quadrature did not converge")
            cur = quadrature(n)
            scale = max(nu.max_abs(out_vec + cur), 1e-300)
            if nu.max_abs(cur - prev) <= rtol * scale:
                break
            prev = cur
        out_vec = out_vec + cur

    return nu.unvec(out_vec, d)


def van_loan_lambda_map(model, t, rho0, *, include_drive=True):
    """Oracle for a Lorentzian drive from one augmented matrix exponential.

    Re[phi_f(s)] e^{-i w s} is then a sum of two exponentials e^{mu s}, so
    the whole map is the top block of exp(t [[L, C], [0, diag(mu)]]) applied
    to [rho0; 1, ..., 1] (Van Loan, IEEE TAC 23 (1978) 395).
    """
    dist = model.field.dist
    assert dist.kind == "lorentzian"
    d2 = model.dim ** 2
    rho0 = np.array(rho0, dtype=complex)
    cols, mus = [], []
    if include_drive and model.field.b_1 > 0:
        for w, xi in zip(model.ladder.omegas, dense_ladder(model.ladder)):
            for freq, op in ((w, xi), (-w, xi.conj().T)):
                c = -1j * model.field.b_1 * nu.vec(op @ rho0 - rho0 @ op)
                for sign in (1.0, -1.0):
                    cols.append(c)
                    mus.append(1j * (sign * dist.center - freq) - 0.5 * dist.width)
    m = len(cols)
    aug = np.zeros((d2 + m, d2 + m), dtype=complex)
    aug[:d2, :d2] = liouvillian_matrix(model)
    if m:
        aug[:d2, d2:] = np.array(cols).T
        aug[d2:, d2:] = np.diag(mus)
    start = np.concatenate([nu.vec(rho0), np.ones(m)])
    return nu.unvec((nu.expm(aug * t) @ start)[:d2], model.dim)


def choi_loop(s, dim):
    """Oracle: the Choi matrix assembled block by block from the map's action."""
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e_ij = np.zeros((dim, dim), dtype=complex)
            e_ij[i, j] = 1.0
            c[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = nu.unvec(s @ nu.vec(e_ij), dim)
    c4 = c.reshape(dim, dim, dim, dim)
    return c4.reshape(dim * dim, dim * dim)


def einsum_dissipator(model, rho):
    """Oracle: the dissipator as two 4-operand einsums, K D^4 work."""
    rho = np.asarray(rho)
    if rho.shape != (model.dim, model.dim):
        raise ValidationError("density matrix dimension mismatch")
    out = -(model._anti @ rho + rho @ model._anti)
    g = model.rates_plus + model.rates_minus
    p = dense_ladder(model.ladder)
    if p.shape[0]:
        out = out + np.einsum("k,kij,jl,kml->im", g, p, rho, p.conj())
        out = out + np.einsum("k,kji,jl,klm->im", g, p.conj(), rho, p)
    return out


def kron_sandwich(ops, weights, dim):
    """Oracle: sum_k w_k conj(A_k) (x) A_k, one Kronecker product per operator."""
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op, w in zip(ops, weights):
        s += w * np.kron(op.conj(), op)
    return s


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def operator_sum_model(case):
    """Driven systems for the operator-sum checks, in map_model's units.

    ``generic<n>``: n spin-1/2 with seeded unequal gammas and couplings, so
    every ladder block is its own frequency (D = 2^n, K = 4, 12, 32, 80 for
    n = 2..5).  ``three_equivalent_plus_one``: three equivalent spin-1/2
    coupled alike to a fourth (D = 16, degenerate gaps).  ``spin1_pair``:
    D = 9.  ``spin5/2_spin0_zero_gamma``: a spin-5/2, a spin-0 and a spin-1/2
    with gamma = 0 (D = 12).
    """
    if case.startswith("generic"):
        n = int(case[len("generic"):])
        rng = np.random.default_rng(n)
        spins = [0.5] * n
        gammas = -20.0 * rng.uniform(0.8, 1.4, size=n)
        couplings = rng.normal(scale=1.5, size=(n, n))
        couplings = couplings + couplings.T
        np.fill_diagonal(couplings, 0.0)
    elif case == "three_equivalent_plus_one":
        spins = [0.5] * 4
        gammas = [-20.0, -20.0, -20.0, -27.0]
        couplings = np.full((4, 4), 1.5)
        couplings[:3, 3] = couplings[3, :3] = 2.0
        np.fill_diagonal(couplings, 0.0)
    elif case == "spin1_pair":
        spins, gammas = [1.0, 1.0], [-10.0, -14.0]
        couplings = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        assert case == "spin5/2_spin0_zero_gamma"
        spins, gammas = [2.5, 0.0, 0.5], [-10.0, -14.0, 0.0]
        couplings = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    system = sc.SpinSystem(spins, gammas, couplings)
    field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=ls.lorentzian(22.0, 4.0))
    return build(system, field, 0.05)


OPERATOR_SUM_CASES = ["generic2", "generic3", "generic4", "generic5",
                      "three_equivalent_plus_one", "spin1_pair"]


def radical_system(groups):
    """The first group's electron coupled to every nucleus by its splitting constant.

    A constant of lambda Gauss is the coupling lambda |gamma_e| in rad/s.
    """
    spins, gammas, hyperfine = [], [], []
    electron = groups[0]
    for group in groups:
        spins += [group.j] * group.count
        gammas += [group.gamma] * group.count
        hyperfine += [electron.lambdas.get(group.label, 0.0) * abs(electron.gamma)] * group.count
    couplings = np.zeros((len(spins), len(spins)))
    couplings[0, :] = couplings[:, 0] = hyperfine
    return sc.SpinSystem(spins, gammas, couplings)


def radical_model(counts):
    """Naphthalene's electron with ``counts`` of its two proton groups, at resonance.

    (4, 4) is the whole anion (D = 512); the two groups of four equivalent
    protons give blocks with many entries that share rows and columns.
    """
    groups = naphthalene_groups()
    groups = groups[:1] + tuple(dataclasses.replace(g, count=n)
                                for g, n in zip(groups[1:], counts))
    b_o = 3400.0
    larmor = abs(groups[0].gamma) * b_o
    field = me.FieldConfig(b_o=b_o, b_1=1e-3, dist=ls.lorentzian(larmor, 1e-3 * larmor))
    return build(radical_system(groups), field, 1.0 / larmor)


def map_model(case, kind):
    """Small driven systems in units where the drive, the rates and the
    Larmor frequencies are all of order one to twenty, so that the quadrature
    oracle converges within its node cap."""
    def ring(n, j):
        c = np.full((n, n), j)
        np.fill_diagonal(c, 0.0)
        return c

    spins, gammas, couplings, center = {
        "qubit": ([0.5], [-20.0], None, 20.0),
        "two_equivalent": ([0.5, 0.5], [-20.0, -20.0], ring(2, 2.0), 20.0),
        "two_generic": ([0.5, 0.5], [-20.0, -27.0], ring(2, 2.0), 22.0),
        "three_equivalent": ([0.5] * 3, [-20.0] * 3, ring(3, 1.5), 20.0),
        "spin1_pair": ([1.0, 1.0], [-10.0, -14.0], ring(2, 1.0), 12.0),
    }[case]
    system = sc.SpinSystem(spins, gammas, couplings)
    field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(center, 4.0))
    return build(system, field, 0.05)


def decay_rate(model):
    """Largest decay rate of the generator, the unit of time in the map tests."""
    return float(np.max(-np.linalg.eigvals(liouvillian_matrix(model)).real))


MAP_CASES = ["qubit", "two_equivalent", "two_generic", "three_equivalent", "spin1_pair"]


class TestFieldConfig:
    def test_requires_positive_steady_field(self):
        dist = ls.lorentzian(1.0, 0.1)
        with pytest.raises(ValidationError):
            me.FieldConfig(b_o=0.0, b_1=0.1, dist=dist)
        with pytest.raises(ValidationError):
            me.FieldConfig(b_o=1.0, b_1=-0.1, dist=dist)

    @pytest.mark.parametrize("name", ["b_o", "b_1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, name, value):
        kwargs = {"b_o": 1.0, "b_1": 0.01, name: value}
        with pytest.raises(ValidationError, match=name):
            me.FieldConfig(dist=ls.lorentzian(1.0, 0.1), **kwargs)

    def test_strong_drive_warns_only(self):
        dist = ls.lorentzian(1.0, 0.1)
        with pytest.warns(UserWarning):
            me.FieldConfig(b_o=1.0, b_1=0.5, dist=dist)


class TestBuildModelRefusals:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused(self, beta):
        field = me.FieldConfig(b_o=1.0, b_1=0.01, dist=ls.lorentzian(1.0, 0.1))
        with pytest.raises(ValidationError, match="beta must be finite"):
            build(sc.SpinSystem([0.5], [-1.0]), field, beta)

    def test_driven_delta_line_refused_by_its_rates(self):
        field = me.FieldConfig(b_o=1.0, b_1=0.01, dist=ls.delta_line(1.0))
        with pytest.raises(ValidationError, match="use a finite-width kind"):
            build(sc.SpinSystem([0.5], [-1.0]), field, 0.1)

    def test_undriven_delta_line_accepted(self):
        field = me.FieldConfig(b_o=1.0, b_1=0.0, dist=ls.delta_line(1.0))
        model = build(sc.SpinSystem([0.5], [-1.0]), field, 0.1)
        assert not model.rates_plus.any() and not model.h_ls.any()


class TestLinearResponseHamiltonian:
    def test_qubit_form(self, qubit_model, resonant_qubit):
        system, field, beta = resonant_qubit
        gamma = system.gammas[0]
        w0 = -gamma * field.b_o
        w1 = -gamma * field.b_1
        for t in (0.0, 0.37 / w0, 2.0 / w0):
            re_phi = float(np.real(ls.characteristic(field.dist, t)))
            half = re_phi * w1 * np.exp(-1j * t * w0) * np.array([[0, 0], [1, 0]])
            expected = half + half.conj().T
            got = me.linear_response_hamiltonian(qubit_model, t)
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1.0)

    def test_decays_beyond_field_memory(self, qubit_model):
        tau = ls.relaxation_time(qubit_model.field.dist)
        early = np.max(np.abs(me.linear_response_hamiltonian(qubit_model, 0.0)))
        late = np.max(np.abs(me.linear_response_hamiltonian(qubit_model, 40.0 * tau)))
        assert late < 1e-12 * early

    def test_spin_zero_system_has_no_drive(self):
        system = sc.SpinSystem([0.0, 0.0], [1.0, 1.0])
        field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=ls.lorentzian(1.0, 0.1))
        model = build(system, field, 1e-3)
        assert np.max(np.abs(me.linear_response_hamiltonian(model, 0.2))) == 0.0

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_times_rejected(self, qubit_model, bad):
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            me.linear_response_hamiltonian(qubit_model, bad)

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    @pytest.mark.parametrize("case", ["generic3", "spin1_pair"])
    def test_time_array_matches_scalar_calls(self, case, kind):
        base = operator_sum_model(case)
        field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(22.0, 4.0))
        model = build(base.system, field, base.beta)
        ts = np.linspace(0.0, 3.0 * ls.relaxation_time(field.dist), 41)
        got = me.linear_response_hamiltonian(model, ts)
        want = np.stack([me.linear_response_hamiltonian(model, t) for t in ts])
        assert got.shape == want.shape == (ts.size, model.dim, model.dim)
        assert nu.max_abs(got - want) <= 1e-15 * nu.max_abs(want)

    def test_shapes(self, qubit_model):
        h = me.linear_response_hamiltonian
        assert h(qubit_model, np.float64(0.01)).shape == (2, 2)
        assert h(qubit_model, np.array(0.01)).shape == (2, 2)
        assert h(qubit_model, [0.0, 0.01, 0.02]).shape == (3, 2, 2)
        assert h(qubit_model, np.array([])).shape == (0, 2, 2)

    @pytest.mark.parametrize("case", ["undriven", "spin_zero"])
    def test_no_drive_gives_zero_stack(self, resonant_qubit, case):
        if case == "undriven":
            system, field, beta = resonant_qubit
            field = me.FieldConfig(b_o=field.b_o, b_1=0.0, dist=field.dist)
        else:
            system = sc.SpinSystem([0.0, 0.0], [1.0, 1.0])
            field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=ls.lorentzian(1.0, 0.1))
            beta = 1e-3
        model = build(system, field, beta)
        got = me.linear_response_hamiltonian(model, np.linspace(0.0, 1.0, 5))
        assert got.shape == (5, model.dim, model.dim)
        assert not got.any()

    @pytest.mark.parametrize("bad, match", [
        (np.zeros((2, 3)), "1-D array"),
        (np.array([0.1, math.nan, 0.3]), "t must be finite and nonnegative"),
        (np.array([0.1, -1.0]), "t must be finite and nonnegative"),
    ], ids=["2-D", "nan", "negative"])
    def test_bad_time_arrays_rejected(self, qubit_model, bad, match):
        with pytest.raises(ValidationError, match=match):
            me.linear_response_hamiltonian(qubit_model, bad)


def assert_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * np.max(np.abs(want), initial=0.0)


def sandwich_generator(model):
    """Oracle: L as Kronecker products of the dense stack, jumps through sandwich_superop."""
    p = dense_ladder(model.ladder)
    g = model.rates_plus + model.rates_minus
    jumps = sandwich_superop(np.concatenate([p, p.conj().transpose(0, 2, 1)]),
                             np.concatenate([g, g]))
    eye = np.eye(model.dim)
    left, right = -1j * model.h_ls - model._anti, 1j * model.h_ls - model._anti
    return jumps + np.kron(eye, left) + np.kron(right.T, eye)


class TestLadderSums:
    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["e_2_2h"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    @pytest.mark.parametrize("b_1", [0.05, 0.0])
    def test_match_per_block_oracle(self, case, kind, b_1):
        if case == "e_2_2h":
            base = radical_model((2, 2))
            assert base.dim == 32 and base.ladder.omegas.size < base.ladder.values.size
            center, width = base.field.dist.center, base.field.dist.width
        else:
            base, center, width = operator_sum_model(case), 22.0, 4.0
        # b_1 = 0.05 stands for the base model's drive
        field = me.FieldConfig(b_o=base.field.b_o, b_1=base.field.b_1 if b_1 else 0.0,
                               dist=kind(center, width))
        model = build(base.system, field, base.beta)
        want = ladder_sums_oracle(model)
        got = (model.rates_plus, model.rates_minus, model.h_ls, model._anti)
        for g, w in zip(got, want):
            assert_close(g, w)

    def test_complex_table_matches_dense_formulas(self, rng):
        # xi^x is real, so only complex entries test the adjoints; the layout
        # is a real table's, with blocks whose entries share rows and columns
        model = operator_sum_model("three_equivalent_plus_one")
        real = model.ladder
        phases = np.exp(2j * np.pi * rng.random(real.values.size))
        table = LadderTable(rows=real.rows, cols=real.cols, values=real.values * phases,
                            block=real.block, omegas=real.omegas, gap_atol=real.gap_atol,
                            dim=real.dim)
        k = real.omegas.size
        a, b = rng.normal(size=k), rng.normal(size=k)
        p = dense_ladder(table)
        p_dag = p.conj().transpose(0, 2, 1)
        want = (np.einsum("k,kab->ab", a, p @ p_dag), np.einsum("k,kab->ab", b, p_dag @ p))
        got = me._pair_sums(table, (a, 0 * b), (0 * a, b))
        for g, w in zip(got, want):
            assert_close(g, w)

        # L's jump part against the dense sandwich, h_ls and _anti checked above
        rates = np.abs(rng.normal(size=k))
        h_ls, anti = me._pair_sums(table, (a, -a), (0.5 * rates, 0.5 * rates))
        complex_model = dataclasses.replace(model, ladder=table, rates_plus=rates,
                                            rates_minus=0 * rates, h_ls=h_ls, _anti=anti)
        assert_close(scattered_generator(me._generator_entries(complex_model)),
                     sandwich_generator(complex_model))

    def test_naphthalene_size_build_is_sparse(self):
        radical_model((4, 4))       # imports and lineshape tables warmed up
        start = time.perf_counter()
        model = radical_model((4, 4))
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            radical_model((4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.dim == 512
        # the dense (K, D, D) stack alone would be 122 MB
        assert elapsed < 0.25
        assert peak < 64e6


def mixed_spin_system():
    """Spins 1/2, 1, 3/2, 1/2 (D = 48), whose spin-j ladder elements no spin-1/2 system has."""
    couplings = [[0.0, 40.0, 25.0, 12.0], [40.0, 0.0, 6.0, 0.0], [25.0, 6.0, 0.0, 3.0],
                 [12.0, 0.0, 3.0, 0.0]]
    return sc.SpinSystem([0.5, 1.0, 1.5, 0.5], [-2.0e3, -3.1e2, -1.9e2, -2.6e3], couplings)


def one_pass_case(case, kind):
    """(system, field, beta) of an operator-sum case or the mixed-spin system under ``kind``."""
    if case == "mixed_spins":
        return (mixed_spin_system(), me.FieldConfig(b_o=1.0, b_1=1e-3, dist=kind(2.0e3, 200.0)),
                2.0e-4)
    base = operator_sum_model(case)
    return base.system, me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(22.0, 4.0)), base.beta


class TestOnePassModel:
    """build_model builds the spin tables once per system and reads each line shape once,
    with the bits of the two-pass formulas."""

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["mixed_spins"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_arrays_equal_the_two_pass_formulas(self, case, kind):
        system, field, beta = one_pass_case(case, kind)
        model = build(system, field, beta)
        levels, ladder, gp, gm, h_ls, anti = two_pass_model_arrays(system, field, beta)
        assert same_bits(model.levels.energies, levels.energies)
        assert same_bits(model.levels.magnetizations, levels.magnetizations)
        for name in ("rows", "cols", "values", "block", "omegas"):
            assert same_bits(getattr(model.ladder, name), getattr(ladder, name))
        assert model.ladder.gap_atol == ladder.gap_atol
        for got, want in ((model.rates_plus, gp), (model.rates_minus, gm),
                          (model.h_ls, h_ls), (model._anti, anti)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("case", ["generic3", "mixed_spins"])
    @pytest.mark.parametrize("b_1", [1e-3, 0.0])
    def test_one_table_pass_and_one_call_per_line_shape(self, case, b_1, monkeypatch):
        system, field, beta = one_pass_case(case, ls.gaussian)
        system = sc.SpinSystem(system.spins, system.gammas, system.couplings)   # nothing kept
        field = dataclasses.replace(field, b_1=b_1)
        calls = []

        def spy(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        # the builder the system's kept tables come from; a second model of the
        # same system builds no tables
        monkeypatch.setattr(sc, "_tabulate", spy("_tabulate", sc._tabulate))
        for name in ("density", "hilbert"):
            monkeypatch.setattr(ls, name, spy(name, getattr(ls, name)))
        build(system, field, beta)
        want = ["_tabulate"] + (["density", "hilbert"] if b_1 else [])
        assert calls == want
        build(system, field, beta)
        assert calls == want + want[1:]


class TestLambShift:
    def test_qubit_closed_form(self, qubit_model, resonant_qubit):
        system, field, beta = resonant_qubit
        gamma = system.gammas[0]
        w0, w1 = -gamma * field.b_o, -gamma * field.b_1
        coef = math.pi * (w1 / 2.0) ** 2 * (ls.hilbert(field.dist, w0)
                                            - ls.hilbert(field.dist, -w0))
        expected = -coef * SIGMA[3]
        assert np.max(np.abs(qubit_model.h_ls - expected)) <= 1e-12 * max(abs(coef), 1e-300)

    def test_symmetric_center_structure(self):
        # density centered at zero: the Hilbert transform is odd, so the two
        # branch weights reinforce
        system = sc.SpinSystem([0.5], [-2.0])
        dist = ls.lorentzian(0.0, 1.0)
        field = me.FieldConfig(b_o=1.0, b_1=1e-4, dist=dist)
        model = build(system, field, 0.1)
        w0 = 2.0
        assert ls.hilbert(dist, w0) == pytest.approx(-ls.hilbert(dist, -w0))
        w1 = 2.0 * 1e-4
        expected = -2.0 * math.pi * (w1 / 2.0) ** 2 * ls.hilbert(dist, w0) * SIGMA[3]
        assert np.allclose(model.h_ls, expected)

    def test_two_spin_hermitian_and_conserved(self, rng):
        for _ in range(3):
            system = random_system(rng, max_spins=2, allowed_spins=(0.5, 1.0))
            field = me.FieldConfig(b_o=1.0, b_1=1e-4,
                                   dist=ls.lorentzian(1.1e3, 200.0))
            model = build(system, field, 1e-4)
            h = model.h_ls
            assert sc.is_hermitian(h, 1e-10)
            zo = sc.build_zo(system, field.b_o)
            scale = max(np.max(np.abs(h)) * np.max(np.abs(zo)), 1e-300)
            assert np.max(np.abs(h @ zo - zo @ h)) <= 1e-10 * scale


class TestDissipator:
    def test_maximally_mixed_is_stationary(self, qubit_model):
        out = me.dissipator(qubit_model, np.eye(2) / 2.0)
        rate = transition_rate_oracle(qubit_model, 0, 1)
        assert np.max(np.abs(out)) <= 1e-13 * rate

    def test_traceless_on_random_hermitian(self, qubit_model, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a + a.conj().T
        out = me.dissipator(qubit_model, rho)
        assert abs(np.trace(out)) <= 1e-10 * np.max(np.abs(out))

    def test_qubit_rate(self, qubit_model, resonant_qubit):
        system, field, beta = resonant_qubit
        gamma = system.gammas[0]
        w0, w1 = -gamma * field.b_o, -gamma * field.b_1
        rate = 2.0 * math.pi * (w1 / 2.0) ** 2 * (
            float(ls.density(field.dist, w0)) + float(ls.density(field.dist, -w0)))
        # population relaxation: d<sigma_3>/dt = -2 Gamma <sigma_3>
        rho = np.diag([0.8, 0.2]).astype(complex)
        out = me.dissipator(qubit_model, rho)
        s3_dot = np.trace(out @ SIGMA[3]).real
        s3 = np.trace(rho @ SIGMA[3]).real
        assert s3_dot == pytest.approx(-2.0 * rate * s3, rel=1e-12)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["e_2_2h", "spin5/2_spin0_zero_gamma"])
    def test_matches_einsum_oracle(self, case, rng):
        # the entry pairs of each block against the dense (K, D, D) stack
        model = radical_model((2, 2)) if case == "e_2_2h" else operator_sum_model(case)
        assert np.all(model.rates_plus + model.rates_minus > 0)
        rho = random_hermitian(rng, model.dim)
        want = einsum_dissipator(model, rho)
        got = me.dissipator(model, rho)
        assert nu.max_abs(got - want) <= 1e-14 * nu.max_abs(want)
        assert np.array_equal(got, inline_pair_dissipator(model, rho))

    def test_naphthalene_size_is_sparse(self, rng):
        # e + 4 + 4 H (D = 512, K = 29): the dense stack took 3 s and a 491 MB
        # peak per call; about a million entry pairs take a fraction of that
        model = radical_model((4, 4))
        rho = random_hermitian(rng, model.dim)
        me.dissipator(model, rho)
        start = time.perf_counter()
        out = me.dissipator(model, rho)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            me.dissipator(model, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(np.trace(out)) <= 1e-10 * nu.max_abs(out)
        assert elapsed < 1.0
        assert peak < 128e6

    def test_dimension_mismatch_rejected(self, qubit_model):
        with pytest.raises(ValidationError, match="dimension"):
            me.dissipator(qubit_model, np.eye(3))


class TestLiouvillianMatrix:
    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["e_2_2h", "spin5/2_spin0_zero_gamma"])
    def test_matches_sandwich_oracle(self, case):
        model = radical_model((2, 2)) if case == "e_2_2h" else operator_sum_model(case)
        lmat = scattered_generator(me._generator_entries(model))
        assert_close(lmat, sandwich_generator(model))
        assert np.array_equal(lmat, inline_pair_liouvillian(model))

    @pytest.mark.parametrize("case", [c for c in OPERATOR_SUM_CASES if c != "generic5"])
    def test_matches_operator_form(self, case, rng):
        # L vec(rho) = vec(-i [h_ls, rho] + D[rho]) ties the superoperator
        # assembly to the operator-level generator that RK4 integrates
        model = operator_sum_model(case)
        lmat = scattered_generator(me._generator_entries(model))
        h = model.h_ls
        rho = random_hermitian(rng, model.dim)
        want = nu.vec(-1j * (h @ rho - rho @ h) + me.dissipator(model, rho))
        assert nu.max_abs(lmat @ nu.vec(rho) - want) <= 1e-14 * nu.max_abs(want)


class TestPropagate:
    def test_undriven_state_is_frozen(self, resonant_qubit):
        system, field, beta = resonant_qubit
        quiet = me.FieldConfig(b_o=field.b_o, b_1=0.0, dist=field.dist)
        model = build(system, quiet, beta)
        traj = me.propagate(model, model.boltzmann, 1.0, dt=1e-3)
        assert np.max(np.abs(traj.final - model.boltzmann)) < 1e-14

    def test_trace_and_hermiticity_preserved(self, qubit_model):
        t_end = 2.0 / qubit_rate(qubit_model)
        traj = me.propagate(qubit_model, qubit_model.boltzmann, t_end)
        for state in traj.states:
            assert abs(np.trace(state) - 1.0) < 1e-8
            assert np.max(np.abs(state - state.conj().T)) < 1e-9

    def test_positivity_probe(self, qubit_model):
        t_end = 3.0 / qubit_rate(qubit_model)
        traj = me.propagate(qubit_model, qubit_model.boltzmann, t_end)
        for state in traj.states:
            assert np.linalg.eigvalsh(nu.hermitize(state)).min() >= -1e-8

    def test_long_time_limit_is_maximally_mixed(self, resonant_qubit):
        # needs both the polarization decay (rate Gamma) and the drive
        # envelope (tau_f = 5 / Gamma here) to die out
        system, field, beta = resonant_qubit
        model = build(system, field, beta)
        gamma_rate = 35.2
        traj = me.propagate(model, model.boltzmann, 30.0 / gamma_rate,
                            store_every=10 ** 9)
        assert np.max(np.abs(traj.final - np.eye(2) / 2.0)) < 1e-3

    def test_step_halving_changes_little(self, qubit_model):
        t_end = 0.5 / qubit_rate(qubit_model)
        dt = me.default_dt(qubit_model)
        a = me.propagate(qubit_model, qubit_model.boltzmann, t_end, dt).final
        b = me.propagate(qubit_model, qubit_model.boltzmann, t_end, dt / 2).final
        assert np.max(np.abs(a - b)) < 1e-8

    @pytest.mark.parametrize("case", ["generic4", "three_equivalent_plus_one"])
    def test_matches_lambda_map_at_d16(self, case):
        model = operator_sum_model(case)
        assert model.dim == 16
        t = 1.0 / decay_rate(model)
        traj = me.propagate(model, model.boltzmann, t, store_every=10 ** 9)
        want = me.lambda_map(model, t, model.boltzmann)
        assert nu.max_abs(traj.final - want) <= 1e-9

    def test_domain_enforcement(self, qubit_model):
        bad = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DomainViolationError):
            me.propagate(qubit_model, bad, 0.1)
        traj = me.propagate(qubit_model, bad, 1e-4, dt=1e-5, unsafe=True)
        assert traj.states.shape[0] > 0

    def test_schrodinger_picture_conversion(self, qubit_model):
        t_end = 0.2 / qubit_rate(qubit_model)
        traj = me.propagate(qubit_model, qubit_model.boltzmann, t_end)
        rho_s = traj.schrodinger_states()
        gaps = traj.energies[:, None] - traj.energies[None, :]
        for t, inter, schro in zip(traj.times, traj.states, rho_s):
            assert np.allclose(schro, np.exp(-1j * t * gaps) * inter)
            assert abs(np.trace(schro) - 1.0) < 1e-8

    def test_one_generator_and_no_dissipator_call(self, qubit_model, monkeypatch):
        calls = {"_generator_entries": 0, "dissipator": 0}
        for name in calls:
            def counted(*args, _fn=getattr(me, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(me, name, counted)
        t_end = 0.5 / qubit_rate(qubit_model)
        traj = me.propagate(qubit_model, qubit_model.boltzmann, t_end)
        assert traj.times.size > 100
        assert calls == {"_generator_entries": 1, "dissipator": 0}

    def test_dimension_above_the_map_cap_refused_before_stepping(self, monkeypatch):
        system = sc.SpinSystem([0.5] * 7, [-20.0 - k for k in range(7)])
        field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=ls.lorentzian(22.0, 4.0))
        model = build(system, field, 0.05)
        assert model.dim == 128 > me.MAP_DIM_CAP

        def no_step(*args):
            raise AssertionError("a step was taken")
        # the first drive work of a run is its drive components
        monkeypatch.setattr(me, "_drive_components", no_step)
        with pytest.raises(ValidationError, match="MAP_DIM_CAP = 64"):
            me.propagate(model, model.boltzmann, 0.1)


# (t_end and dt in units of default_dt, store_every): dt dividing t_end or
# shrunk to divide it, the last step on and off the store_every stride
STEPPER_GRIDS = [
    (40.0, None, None),
    (40.5, None, None),
    (30.0, 1.0, 7),
    (33.3, 1.1, 4),
]


class TestStepperOracle:
    """The assembled-generator stepper against the operator-form RK4."""

    @staticmethod
    def _assert_matches(got, want):
        assert np.array_equal(got.times, want.times)
        assert nu.max_abs(got.states - want.states) <= 1e-13 * nu.max_abs(want.states)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES)
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_matches_operator_form(self, case, kind):
        base = operator_sum_model(case)
        field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(22.0, 4.0))
        model = build(base.system, field, base.beta)
        # 2.4 periods of the fastest drive phase (1.2 at D = 32); a Gaussian
        # drive this far off resonance decays too slowly to time by the rates
        t_end = (60 if model.dim > 16 else 120) * me.default_dt(model)
        got = me.propagate(model, model.boltzmann, t_end, store_every=5)
        self._assert_matches(got, rk4_oracle(model, model.boltzmann, t_end, None, 5))

    @pytest.mark.parametrize("t_units, dt_units, store_every", STEPPER_GRIDS)
    def test_grids_and_chunk_boundaries(self, qubit_model, monkeypatch, t_units,
                                        dt_units, store_every):
        monkeypatch.setattr(me, "RK4_CHUNK", 6)
        h = me.default_dt(qubit_model)
        t_end, dt = t_units * h, dt_units and dt_units * h
        got = me.propagate(qubit_model, qubit_model.boltzmann, t_end, dt,
                           store_every=store_every)
        want = rk4_oracle(qubit_model, qubit_model.boltzmann, t_end, dt, store_every)
        self._assert_matches(got, want)

    def test_order_n_with_time_dependent_inhomogeneity(self):
        model = operator_sum_model("generic2")
        rho1 = acp.initial_correction(model.system, model.field.b_o, 1, model.beta)
        g0 = np.array([[1.0, 0.3j, 0.0, 0.2], [-0.3j, -0.5, 0.1, 0.0],
                       [0.0, 0.1, 0.25, -0.4j], [0.2, 0.0, 0.4j, -0.75]]) * 1e-3

        def inhomogeneity(t):
            return math.cos(17.0 * t) * g0

        t_end = 150 * me.default_dt(model)
        got = acp.propagate_order_n(model, 1, inhomogeneity, t_end, store_every=3)
        want = rk4_oracle(model, rho1, t_end, None, 3, extra=inhomogeneity)
        self._assert_matches(got, want)

    def test_order_n_inhomogeneity_read_on_the_half_step_grid(self, monkeypatch):
        monkeypatch.setattr(me, "RK4_CHUNK", 6)
        model = operator_sum_model("generic2")
        zero = np.zeros((model.dim, model.dim))
        calls = []

        def inhomogeneity(t):
            calls.append(t)
            return zero

        t_end = 20.5 * me.default_dt(model)       # 21 steps: chunks of 6, 6, 6 and 3
        acp.propagate_order_n(model, 1, inhomogeneity, t_end)
        dt, steps = me._time_grid(model, t_end, None, None)
        n_steps = int(steps[-1])
        assert n_steps == 21
        k = np.rint(np.array(calls) / (0.5 * dt))
        assert np.allclose(calls, k * (0.5 * dt), rtol=0.0, atol=1e-12 * t_end)
        assert set(k.tolist()) == set(range(2 * n_steps + 1))
        # once per grid point, and again at the three inner chunk boundaries
        assert len(calls) == 2 * n_steps + 1 + 3


class _RecordedProduct(np.ndarray):
    """Drive components that keep each table ``phases @ components`` they produce."""

    def __rmatmul__(self, other):
        out = np.asarray(other) @ np.asarray(self)
        self.tables.append(out)
        return out


class TestDriveTable:
    """The stepper's half-step drive table, read off the drive components, against the
    commutator table vec(-i [H_LR(t), rho0]) it replaced."""

    @staticmethod
    def _record_tables(monkeypatch):
        # each chunk takes one characteristic call over its times, then one product
        times, tables = [], []
        components, characteristic = me._drive_components, me.characteristic

        def recorded_components(model, rho0):
            comps, freqs = components(model, rho0)
            comps = comps.view(_RecordedProduct)
            comps.tables = tables
            return comps, freqs

        monkeypatch.setattr(me, "_drive_components", recorded_components)
        monkeypatch.setattr(me, "characteristic",
                            lambda dist, ts: times.append(ts.copy()) or characteristic(dist, ts))
        monkeypatch.setattr(me, "RK4_CHUNK", 3)     # 7 steps: chunks of 3, 3 and 1
        return times, tables

    @staticmethod
    def _assert_rows(times, tables, want, n_steps=7):
        assert [t.size for t in times] == [7, 7, 3]
        assert len(tables) == len(times)
        for ts, got in zip(times, tables):
            rows = want(ts)
            assert got.shape == rows.shape
            assert nu.max_abs(got - rows) <= 1e-14 * nu.max_abs(rows)

    @pytest.mark.parametrize("case", ["generic2", "generic3", "generic4", "mixed_spins"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_rows_match_the_commutator_table(self, case, kind, monkeypatch):
        model = build(*one_pass_case(case, kind))
        assert model.dim == {"generic2": 4, "generic3": 8, "generic4": 16, "mixed_spins": 48}[case]
        rho0 = np.array(model.boltzmann)
        times, tables = self._record_tables(monkeypatch)
        me.propagate(model, rho0, 7 * me.default_dt(model))
        self._assert_rows(times, tables, lambda ts: commutator_drive_table(model, rho0, ts))

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_order_n_rows_add_the_inhomogeneity(self, kind, monkeypatch):
        model = build(*one_pass_case("generic3", kind))
        rho1 = acp.initial_correction(model.system, model.field.b_o, 1, model.beta)
        g0 = np.diag([1.0, -0.5, 0.25, -0.75, 0.5, 0.0, -0.25, -0.25]) + 0j
        g0[0, 3], g0[3, 0] = 0.3j, -0.3j

        def inhomogeneity(t):
            return math.cos(17.0 * t) * 1e-3 * g0

        times, tables = self._record_tables(monkeypatch)
        acp.propagate_order_n(model, 1, inhomogeneity, 7 * me.default_dt(model))
        self._assert_rows(times, tables, lambda ts: commutator_drive_table(model, rho1, ts)
                          + [nu.vec(inhomogeneity(t)) for t in ts.tolist()])

    def test_only_the_kraus_audit_builds_h_lr(self, qubit_model, monkeypatch):
        calls = []
        h_lr = me.linear_response_hamiltonian
        monkeypatch.setattr(me, "linear_response_hamiltonian",
                            lambda *args: calls.append(args) or h_lr(*args))
        rho0, t_end = qubit_model.boltzmann, 20 * me.default_dt(qubit_model)
        me.propagate(qubit_model, rho0, t_end)
        zero = np.zeros((2, 2))
        acp.propagate_order_n(qubit_model, 1, lambda t: zero, t_end, rho_n0=zero)
        assert calls == []
        me.kraus_audit(qubit_model, t_end, rho0, n_nodes=4)
        assert calls


class TestLambdaMap:
    def test_identity_at_zero_time(self, qubit_model):
        out = me.lambda_map(qubit_model, 0.0, qubit_model.boltzmann)
        assert np.allclose(out, qubit_model.boltzmann)

    def test_pure_semigroup_when_undriven(self, resonant_qubit):
        system, field, beta = resonant_qubit
        quiet = me.FieldConfig(b_o=field.b_o, b_1=0.0, dist=field.dist)
        model = build(system, quiet, beta)
        out = me.lambda_map(model, 0.5, model.boltzmann)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(nu.hermitize(out)).min() >= -1e-12

    def test_drive_free_map_is_completely_positive(self, qubit_model):
        # dropping the inhomogeneous term leaves a CPT semigroup even with
        # nontrivial rates: trace preserved, Choi positive semidefinite
        rate = qubit_rate(qubit_model)
        t = 0.8 / rate
        out = me.lambda_map(qubit_model, t, qubit_model.boltzmann,
                            include_drive=False)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(nu.hermitize(out)).min() >= -1e-12
        prop = nu.expm(liouvillian_matrix(qubit_model) * t)
        choi = nu.choi_matrix(prop, qubit_model.dim)
        assert np.linalg.eigvalsh(nu.hermitize(choi)).min() >= -1e-10

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_trace_holds_at_long_times(self, kind):
        # rounding once left the zero mode of two_spin.cfg's L at Re lam = +2.1e-18
        # (Lorentzian): the trace read 1 + 2.1e-6 at t = 1e12, 1.3e90 at 1e20, NaN at 1e100
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "two_spin.cfg")
        field = me.FieldConfig(b_o=cfg.field_b_o, b_1=cfg.field_b_1,
                               dist=kind(cfg.dist.center, cfg.dist.width))
        model = build(cfg.system, field, cfg.beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            states = me.lambda_map(model, np.array([1e12, 1e20, 1e100]), model.boltzmann)
        assert np.all(np.isfinite(states))
        assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() <= 1e-12

    def test_matches_rk4_propagation(self, qubit_model):
        rate = qubit_rate(qubit_model)
        dt = me.default_dt(qubit_model) / 2
        for t in (0.15 / rate, 0.3 / rate, 0.6 / rate, 0.9 / rate, 1.7 / rate):
            traj = me.propagate(qubit_model, qubit_model.boltzmann, t, dt)
            direct = me.lambda_map(qubit_model, t, qubit_model.boltzmann)
            assert np.max(np.abs(traj.final - direct)) < 1e-6

    @pytest.mark.parametrize("case", MAP_CASES)
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_matches_quadrature_oracle(self, case, kind):
        model = map_model(case, kind)
        rate = decay_rate(model)
        small = model.dim <= 4
        for t_gamma in (0.0, 0.3, 1.0, 5.0) if small else (0.3, 1.0):
            t = t_gamma / rate
            for drive in (True, False):
                got = me.lambda_map(model, t, model.boltzmann, include_drive=drive)
                want = quadrature_lambda_map(model, t, model.boltzmann,
                                             include_drive=drive)
                assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)

    @pytest.mark.parametrize("case", MAP_CASES)
    def test_matches_van_loan_lorentzian(self, case):
        model = map_model(case, ls.lorentzian)
        rate = decay_rate(model)
        for t_gamma in (0.0, 0.3, 1.0, 5.0, 30.0, 200.0):
            t = t_gamma / rate
            for drive in (True, False):
                got = me.lambda_map(model, t, model.boltzmann, include_drive=drive)
                want = van_loan_lambda_map(model, t, model.boltzmann, include_drive=drive)
                assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)

    @pytest.mark.parametrize("case", ["qubit", "two_equivalent", "two_generic"])
    def test_gaussian_long_times_follow_the_semigroup(self, case):
        # past t1 the Gaussian envelope is below e^{-56}, so Lambda(t) rho0
        # is e^{L (t - t1)} applied to the quadrature oracle at t1
        model = map_model(case, ls.gaussian)
        rate = decay_rate(model)
        t1 = 7.5 * ls.relaxation_time(model.field.dist)
        settled = quadrature_lambda_map(model, t1, model.boltzmann)
        lmat = liouvillian_matrix(model)
        for t_gamma in (30.0, 200.0):
            t = max(t_gamma / rate, t1)
            got = me.lambda_map(model, t, model.boltzmann)
            want = nu.unvec(nu.expm(lmat * (t - t1)) @ nu.vec(settled), model.dim)
            assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)

    def test_conditioning_guard_rejects_a_jordan_block(self):
        with pytest.raises(AccuracyError, match="defective"):
            me._eigensystem(np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex))
        # split by 1e-7: still nearly defective, V^-1 amplifies by ~1e7
        with pytest.raises(AccuracyError, match="defective"):
            me._eigensystem(np.array([[-1.0, 1.0], [1e-14, -1.0]], dtype=complex))
        lam, v, v_inv = me._eigensystem(np.array([[-1.0, 1.0], [0.0, -2.0]]))
        assert nu.max_abs(v @ np.diag(lam) @ v_inv - [[-1.0, 1.0], [0.0, -2.0]]) < 1e-15

    def test_dimension_cap(self):
        system = sc.SpinSystem([0.5] * 7, [1.0] * 7)  # dim 128 > 64
        field = me.FieldConfig(b_o=1.0, b_1=0.0, dist=ls.lorentzian(1.0, 0.1))
        model = build(system, field, 1e-4)
        with pytest.raises(ValidationError):
            me.lambda_map(model, 0.1, model.boltzmann)

    @pytest.mark.parametrize("case", MAP_CASES)
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_time_grid_matches_scalar_calls(self, case, kind):
        model = map_model(case, kind)
        times = np.linspace(0.0, 1.0, 7) / decay_rate(model)
        for drive in (True, False):
            got = me.lambda_map(model, times, model.boltzmann, include_drive=drive)
            want = np.array([me.lambda_map(model, t, model.boltzmann, include_drive=drive)
                             for t in times])
            assert got.shape == (times.size, model.dim, model.dim)
            assert want.shape == got.shape        # a scalar t gives one (D, D) state
            assert nu.max_abs(got - want) <= 1e-14 * nu.max_abs(want)

    def test_time_grid_decomposes_the_generator_once(self, qubit_model, monkeypatch):
        # the qubit's L has one block of two populations and two scalar coherences
        calls = {"_generator_entries": 0, "_block_eigensystem": 0, "_eigensystem": 0}
        for name in calls:
            def spy(*args, _fn=getattr(me, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(me, name, spy)
        times = np.linspace(0.0, 1.0, 40) / qubit_rate(qubit_model)
        me.lambda_map(qubit_model, times, qubit_model.boltzmann)
        assert calls == {"_generator_entries": 1, "_block_eigensystem": 1, "_eigensystem": 1}

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_bad_times_rejected(self, qubit_model, bad, as_array):
        t = np.array([0.0, 0.1, bad]) if as_array else bad
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            me.lambda_map(qubit_model, t, qubit_model.boltzmann)

    def test_two_dimensional_times_rejected(self, qubit_model):
        with pytest.raises(ValidationError, match="1-D"):
            me.lambda_map(qubit_model, np.zeros((2, 2)), qubit_model.boltzmann)


class TestMapDriveTerm:
    """_apply_map's broadcast drive weights against the loop over times and pairs."""

    @staticmethod
    def _model(case, kind):
        base = operator_sum_model(case)
        field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(22.0, 4.0))
        model = build(base.system, field, base.beta)
        eig = me._block_eigensystem(*me._generator_entries(model))
        return model, eig, 1.0 / float(np.max(-eig.lam.real))

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES)
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_matches_looped_oracle(self, case, kind):
        # the block eigensystem against the loops over one full-L eigensystem
        model, eig, tau = self._model(case, kind)
        times = np.array([0.0, 0.01, 0.3, 1.0, 4.0]) * tau
        got = me._apply_map(model, eig, times, model.boltzmann)
        want = apply_map_oracle(model, full_eigensystem(model), times, model.boltzmann)
        assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)

    def test_chunking_does_not_change_the_states(self, monkeypatch):
        model, eig, tau = self._model("generic3", ls.gaussian)
        times = np.linspace(0.0, 3.0, 20) * tau     # chunks of 6, 6, 6 and 2
        whole = me._apply_map(model, eig, times, model.boltzmann)
        monkeypatch.setattr(me, "RK4_CHUNK", 6)
        chunked = me._apply_map(model, eig, times, model.boltzmann)
        assert nu.max_abs(chunked - whole) <= 1e-15 * nu.max_abs(whole)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["e_2_2h"])
    def test_components_match_dense_stack(self, case, rng):
        # the entry scatter against batched products over the dense stack, for
        # the Boltzmann state, a Hermitian and a non-Hermitian (unsafe) rho0
        model = radical_model((2, 2)) if case == "e_2_2h" else operator_sum_model(case)
        a = rng.normal(size=(model.dim,) * 2) + 1j * rng.normal(size=(model.dim,) * 2)
        for rho0 in (np.array(model.boltzmann, dtype=complex), a + a.conj().T, a):
            got, freqs = me._drive_components(model, rho0)
            want, want_freqs = dense_drive_components(model, rho0)
            assert np.array_equal(freqs, want_freqs)
            assert got.shape == want.shape == (2 * model.ladder.omegas.size, model.dim ** 2)
            assert nu.max_abs(got - want) <= 1e-14 * nu.max_abs(want)

    def test_components_are_scattered_in_place(self):
        # generic 6 spin-1/2 (D = 64, K = 192): the rows are a view of the
        # scattered stack and each temporary holds one row of D per entry, so
        # the peak stays near the (2K, D^2) output
        model = operator_sum_model("generic6")
        rho0 = np.array(model.boltzmann, dtype=complex)
        tracemalloc.start()
        try:
            comps, _ = me._drive_components(model, rho0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comps.shape == (2 * 192, 64 * 64)
        assert peak <= 1.5 * comps.nbytes


def drive_model(case, kind):
    """``operator_sum_model(case)`` under a drive of line shape ``kind``."""
    base = operator_sum_model(case)
    field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(22.0, 4.0))
    return build(base.system, field, base.beta)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBlockEigensystem:
    """One eigensystem per connected component of L against one of the whole L."""

    @pytest.mark.parametrize("case, nnz, components, largest", [
        ("generic4", 320, 241, 16), ("generic5", 1184, 993, 32),
        ("three_equivalent_plus_one", 1280, 57, 40), ("spin1_pair", 129, 61, 9)])
    def test_components_are_the_secular_blocks(self, case, nnz, components, largest):
        model = operator_sum_model(case)
        lmat = liouvillian_matrix(model)
        assert np.count_nonzero(lmat) == nnz
        diag, out, inn, val = me._generator_entries(model)
        assert np.count_nonzero(diag) + np.count_nonzero(val) == nnz
        label = nu._components(out[val != 0], inn[val != 0], diag.size)
        assert np.unique(label).size == components
        assert np.bincount(label).max() == largest
        # every nonzero joins one component, labelled by its least index
        rows, cols = np.nonzero(lmat)
        assert np.array_equal(label[rows], label[cols])
        assert np.all(label <= np.arange(label.size)) and np.all(label[label] == label)

    def test_reassembles_a_permuted_block_matrix(self, rng):
        sizes = [1, 3, 1, 2, 5, 1]
        n = sum(sizes)
        mat = np.zeros((n, n), dtype=complex)
        start = 0
        for m in sizes:
            block = rng.normal(size=(m, m))
            # the 3 x 3 block real and symmetric, so its eigenvectors are real
            block = block + block.T if m == 3 else block + 1j * rng.normal(size=(m, m))
            mat[start:start + m, start:start + m] = block
            start += m
        perm = rng.permutation(n)
        mat = mat[np.ix_(perm, perm)]
        eig = me._block_eigensystem(*entries_of(mat))
        assert sorted(idx.size for idx, _, _ in eig.blocks) == [2, 3, 5]
        # a block with no imaginary part is diagonalised as a real matrix
        assert [np.iscomplexobj(v) for idx, v, _ in eig.blocks] == [
            idx.size != 3 for idx, _, _ in eig.blocks]
        v = eig.apply(np.eye(n, dtype=complex))
        v_inv = eig.apply(np.eye(n, dtype=complex), inverse=True)
        assert nu.max_abs(v @ v_inv - np.eye(n)) <= 1e-12
        assert nu.max_abs((v * eig.lam) @ v_inv - mat) <= 1e-12 * nu.max_abs(mat)
        assert nu.max_abs(eig.apply(v.copy(), inverse=True) - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize("case", ["generic2", "generic3"])
    def test_populations_take_the_symmetric_solver(self, case):
        # stimulated absorption and emission share their rate, so a generic
        # system's population block is real symmetric: V orthogonal, V^-1 = V^T
        model = operator_sum_model(case)
        (idx, v, v_inv), = me._block_eigensystem(*me._generator_entries(model)).blocks
        assert idx.tolist() == [a * model.dim + a for a in range(model.dim)]
        assert not np.iscomplexobj(v) and np.array_equal(v_inv, v.T)
        assert nu.max_abs(v.T @ v - np.eye(model.dim)) <= 1e-14

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_one_zero_mode_is_exact_under_the_trace(self, rng, symmetric):
        # trace-keeping rates among the populations 0, 4, 8 of D = 3: every mode but
        # the zero mode is traceless, and V^-1's row for it is the trace functional
        d = 3
        pops = np.arange(d) * (d + 1)
        rates = rng.uniform(0.5, 2.0, size=(d, d))
        rates = rates + rates.T if symmetric else rates
        np.fill_diagonal(rates, 0.0)
        mat = np.zeros((d * d, d * d))
        mat[np.ix_(pops, pops)] = rates - np.diag(rates.sum(0))
        eig = me._block_eigensystem(*entries_of(mat))
        (idx, v, v_inv), = eig.blocks
        assert idx.tolist() == pops.tolist()
        (z,) = np.flatnonzero(eig.lam[idx] == 0)
        tau, others = np.ones(d), np.arange(d) != z
        assert np.array_equal(v_inv, v.T) == symmetric
        if symmetric:
            assert np.array_equal(v[:, z], tau / np.sqrt(d))
        assert nu.max_abs(tau @ v[:, others]) <= 1e-15
        assert nu.max_abs(v_inv[z] * (tau @ v[:, z]) - tau) <= 1e-15
        assert nu.max_abs(v @ v_inv - np.eye(d)) <= 1e-14
        block = mat[np.ix_(idx, idx)]
        assert nu.max_abs((v * eig.lam[idx]) @ v_inv - block) <= 1e-14 * nu.max_abs(block)

    def test_defective_block_raises(self, qubit_model, monkeypatch):
        # a Jordan block on the two populations; the coherences stay scalars
        lmat = liouvillian_matrix(qubit_model)
        lmat[0, 0] = lmat[3, 3] = -1.0
        lmat[0, 3], lmat[3, 0] = 1.0, 0.0
        with pytest.raises(AccuracyError, match="defective"):
            me._block_eigensystem(*entries_of(lmat))
        monkeypatch.setattr(me, "_generator_entries", lambda model: entries_of(lmat))
        with pytest.raises(AccuracyError, match="defective"):
            me.lambda_map(qubit_model, 0.01, qubit_model.boltzmann)
        with pytest.raises(AccuracyError, match="defective"):
            me.kraus_audit(qubit_model, 0.01, qubit_model.boltzmann, n_nodes=4)

    def test_singular_eigenvectors_raise(self):
        # a 3 x 3 nilpotent Jordan block: eig returns an exactly singular V
        with pytest.raises(AccuracyError, match="condition number inf"):
            me._eigensystem(np.diag([1.0, 1.0], 1))

    def test_rounded_zero_mode_is_exactly_zero(self):
        # acp_two_spin.cfg's system under a Gaussian line: its 4-state population block
        # (scale 7.6e-8) rounds a zero mode to -1.2e-23, below 4 eps ||L_b||_1, and
        # holds a true slow mode at -9.6e-16, above it
        model = config_model("acp_two_spin", ls.gaussian)
        eig = model._generator_eig
        (idx, _, _), = [b for b in eig.blocks if b[0].size == model.dim]
        lam = eig.lam[idx]
        assert np.count_nonzero(lam == 0.0) == 1
        slow = lam[(lam != 0.0) & (np.abs(lam) < 1e-12)]
        assert slow.size == 1 and -1e-15 < slow[0].real < -9e-16

    def test_defective_generator_is_not_kept(self, qubit_model, monkeypatch):
        # the model keeps no failed eigensystem: every map or audit rebuilds
        # L, decomposes it and raises again
        lmat = liouvillian_matrix(qubit_model)
        lmat[0, 0] = lmat[3, 3] = -1.0
        lmat[0, 3], lmat[3, 0] = 1.0, 0.0
        calls = []
        monkeypatch.setattr(me, "_generator_entries",
                            lambda model: calls.append(model) or entries_of(lmat))
        for call in (lambda: me.lambda_map(qubit_model, 0.01, qubit_model.boltzmann),
                     lambda: me.kraus_audit(qubit_model, 0.01, qubit_model.boltzmann,
                                            n_nodes=4),
                     lambda: me.lambda_map(qubit_model, 0.02, qubit_model.boltzmann)):
            with pytest.raises(AccuracyError, match="defective"):
                call()
        assert len(calls) == 3

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES)
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_lambda_map_matches_full_generator(self, case, kind, rng):
        model = drive_model(case, kind)
        eig = full_eigensystem(model)
        times = np.array([0.0, 0.05, 0.4, 3.0]) / float(np.max(-eig[0].real))
        rho = random_density(rng, model.dim)
        for drive in (True, False):
            for rho0, unsafe in ((model.boltzmann, False), (rho, True)):
                want = full_apply_map(model, eig, times, rho0, drive)
                got = me.lambda_map(model, times, rho0, unsafe=unsafe, include_drive=drive)
                assert nu.max_abs(got - want) <= 1e-12 * nu.max_abs(want)
                one = me.lambda_map(model, times[2], rho0, unsafe=unsafe, include_drive=drive)
                want = full_lambda_map(model, times[2], rho0, unsafe=unsafe,
                                       include_drive=drive, eig=eig)
                assert one.shape == want.shape == (model.dim, model.dim)
                assert nu.max_abs(one - want) <= 1e-12 * nu.max_abs(want)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES)
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_kraus_audit_matches_full_generator(self, case, kind, rng):
        model = drive_model(case, kind)
        t = 120 * me.default_dt(model)
        # at D = 32 each route's two 1024 x 1024 Choi spectra take about a second
        n_nodes = 4 if case == "generic5" else 16
        inputs = [(model.boltzmann, False)]
        if case != "generic5":
            inputs.append((random_density(rng, model.dim), True))
        for rho0, unsafe in inputs:
            got = me.kraus_audit(model, t, rho0, unsafe=unsafe, n_nodes=n_nodes)
            want = full_kraus_audit(model, t, rho0, unsafe=unsafe, n_nodes=n_nodes)
            assert got.n_nodes == want.n_nodes == n_nodes
            for name in ("trace_residual", "reconstruction_residual", "completeness_residual",
                         "phi1_choi_min", "phi2_choi_min"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name

    def test_equivalent_spins_map_is_fast(self):
        # three equivalent spin-1/2 and a fourth (D = 16): one eig of the whole
        # L took 50-90 ms, its 45 blocks take a few
        model = operator_sum_model("three_equivalent_plus_one")
        times = np.linspace(0.0, 1.0, 5)
        me.lambda_map(model, times, model.boltzmann)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            me.lambda_map(model, times, model.boltzmann)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.04


def same_bits(got, want):
    """Equal dtype, shape and bits, signed zeros included; a contiguous array is not copied."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


def assert_scatters_to(entries, lmat):
    """The scatter of (diagonal, out, in, value) ``entries`` is ``lmat``, bit for bit at
    every entry and zero elsewhere, checked with no second dense matrix (268 MB at D = 64)."""
    diag, out, inn, val = entries
    assert not np.any(out == inn) and np.unique(out * len(lmat) + inn).size == out.size
    assert same_bits(np.diagonal(lmat), diag)
    assert same_bits(lmat[out, inn], val.astype(complex))     # real for a generic system
    assert np.count_nonzero(lmat) == np.count_nonzero(diag) + np.count_nonzero(val)


def config_model(name, kind):
    """The model of configs/<name>.cfg with its line's center and width under ``kind``."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    dist = kind(cfg.dist.center, cfg.dist.width)
    return build(cfg.system, me.FieldConfig(cfg.field_b_o, cfg.field_b_1, dist), cfg.beta)


class TestLongTimes:
    """Lambda(t) and the drive terms at times far past every relaxation time."""

    TIMES = np.array([1e12, 1e20, 1e50, 1e100])

    @pytest.mark.parametrize("name, kind, bound", [
        ("acp_two_spin", ls.gaussian, 1e-12),
        ("acp_two_spin", ls.lorentzian, 1e-12),
        ("two_spin", ls.lorentzian, 1e-12), ("two_spin", ls.gaussian, 1e-12),
        ("qubit", ls.lorentzian, 1e-12), ("qubit", ls.gaussian, 1e-12)])
    @pytest.mark.parametrize("include_drive", [True, False])
    def test_trace_is_kept(self, name, kind, bound, include_drive):
        # a zero mode rounded to -1e-23 once decayed the trace to 0.99883 at t = 1e20 and to 0
        # from 1e50 on (acp_two_spin, Gaussian); the overlap of the zero mode's eigenvector
        # with the slow mode at -9.6e-16 then still lost 6e-9 there
        model = config_model(name, kind)
        states = me.lambda_map(model, self.TIMES, model.boltzmann, include_drive=include_drive)
        residual = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
        assert residual.max() <= bound

    @pytest.mark.parametrize("t", [1e200, 1e300])
    def test_gaussian_drive_terms_far_out(self, t):
        # (s t)^2 once overflowed past s t = 1.3e154: a RuntimeWarning, an error under CI's flags
        model = config_model("qubit", ls.gaussian)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = me.lambda_map(model, t, model.boltzmann)
            h_lr = me.linear_response_hamiltonian(model, t)
            drive = me.drive_integral(model, t)
            settled = me.lambda_map(model, 1e100, model.boltzmann)
            assert np.array_equal(drive, me.drive_integral(model, 1e100))
        assert not h_lr.any()
        assert nu.max_abs(state - settled) <= 1e-15
        assert abs(np.trace(state) - 1.0) <= 1e-15


class TestGeneratorEntries:
    """L's entry table against the dense L of the oracles, block by block and map by map."""

    @staticmethod
    def _assert_oracle_route(model, monkeypatch, n_steps=40):
        # the dense oracle L, its scatter, its block eigensystem, and the maps
        # and RK4 trajectory of a model that reads its entries off the oracle L
        lmat = liouvillian_matrix(model)
        assert_scatters_to(me._generator_entries(model), lmat)
        if model.dim <= 16:
            assert same_bits(scattered_generator(me._generator_entries(model)), lmat)
        entries = entries_of(lmat)
        del lmat
        want = me._block_eigensystem(*entries)
        want.lam.real[want.lam.real > 0] = 0.0      # the model's clamp of rounding growth
        got = model._generator_eig
        assert same_bits(got.lam, want.lam)
        assert len(got.blocks) == len(want.blocks)
        for got_block, want_block in zip(got.blocks, want.blocks):
            assert all(same_bits(g, w) for g, w in zip(got_block, want_block))

        times = np.array([0.0, 0.05, 0.4, 3.0])
        t_end = n_steps * me.default_dt(model)
        maps = [me.lambda_map(model, times, model.boltzmann, include_drive=drive)
                for drive in (True, False)]
        traj = me.propagate(model, model.boltzmann, t_end)
        oracle_model = dataclasses.replace(model)       # nothing kept yet
        monkeypatch.setattr(me, "_generator_entries", lambda model: entries)
        for drive, got_map in zip((True, False), maps):
            assert same_bits(got_map, me.lambda_map(oracle_model, times, oracle_model.boltzmann,
                                                    include_drive=drive))
        assert same_bits(traj.states, me.propagate(oracle_model, model.boltzmann, t_end).states)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES + ["spin5/2_spin0_zero_gamma",
                                                           "generic6"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_matches_the_dense_generator(self, case, kind, monkeypatch):
        # at D = 64 the RK4 step on the dense 4096 x 4096 L is the slow part
        model = drive_model(case, kind)
        self._assert_oracle_route(model, monkeypatch, n_steps=4 if model.dim == 64 else 40)

    @pytest.mark.parametrize("case", ["undriven", "narrow_gaussian", "narrow_lamb_shift"])
    def test_zero_entries_join_no_block(self, case, monkeypatch):
        # with every rate 0 (no drive, or a Gaussian too narrow to reach any
        # gap) the jump entries are zeros: the populations stay 1 x 1 blocks, as
        # in L's nonzero pattern, and no eig of a zero matrix is taken.  With
        # three equivalent spins the Lamb shift keeps off-diagonal entries
        # whose zero real parts must not carry a sign into eig
        base = operator_sum_model("three_equivalent_plus_one" if case == "narrow_lamb_shift"
                                  else "generic3")
        b_1, dist = (0.0, ls.lorentzian(22.0, 4.0)) if case == "undriven" else (
            0.05, ls.gaussian(22.0, 1e-3))
        model = build(base.system, me.FieldConfig(b_o=1.0, b_1=b_1, dist=dist), base.beta)
        assert not np.any(model.rates_plus) and not np.any(model.rates_minus)
        _, out, inn, val = me._generator_entries(model)
        d = model.dim
        # an M entry keeps its column of rho, an N entry its row; a jump changes both
        jumps = (out // d != inn // d) & (out % d != inn % d)
        assert jumps.any() and not np.any(val[jumps])
        blocks = model._generator_eig.blocks
        if case == "narrow_lamb_shift":
            assert sorted(idx.size for idx, _, _ in blocks)[-1] == 9
        else:
            assert blocks == ()
        self._assert_oracle_route(model, monkeypatch)

    def test_first_map_builds_no_dense_generator(self):
        # generic 6 spin-1/2 (D = 64): the dense L alone is 268 MB; the
        # entries, the 64 x 64 population block and the (2K, D^2) drive
        # components stay near 25 MB
        model = operator_sum_model("generic6")
        me.lambda_map(operator_sum_model("generic6"), 0.3, model.boltzmann)    # warm-up
        tracemalloc.start()
        try:
            me.lambda_map(model, 0.3, model.boltzmann)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("seed", range(6))
    def test_components_match_scipy(self, seed):
        # random edge lists with isolated indices, self-loops and repeated edges
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        i, j = rng.integers(0, n, size=(2, m))
        i = np.append(i, j[:3])                         # self-loops
        j = np.append(j, j[:3])
        label = nu._components(i, j, n)
        count, scipy_label = connected_components(
            coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)), directed=False)
        least = np.full(count, n)
        np.minimum.at(least, scipy_label, np.arange(n))
        assert np.array_equal(label, least[scipy_label])

    def test_model_arrays_are_read_only(self):
        # the model keeps the eigensystem of L built from these arrays, so an
        # in-place edit would leave every later map stale; it is refused
        model = operator_sum_model("generic2")
        me.lambda_map(model, 0.3, model.boltzmann)
        ladder = model.ladder
        for a in (model.h_ls, model._anti, model.boltzmann, model.rates_plus,
                  model.rates_minus, ladder.rows, ladder.cols, ladder.values, ladder.block,
                  ladder.omegas):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


class TestChoiMatrix:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_reshuffle_equals_blockwise_assembly(self, dim, rng):
        s = rng.normal(size=(dim * dim, dim * dim)) + 1j * rng.normal(size=(dim * dim,) * 2)
        assert np.array_equal(nu.choi_matrix(s, dim), choi_loop(s, dim))


class TestSandwichSuperop:
    @pytest.mark.parametrize("count", [0, 1, 6])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_kron_loop(self, count, dim, rng):
        ops = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        weights = rng.normal(size=count)
        got = sandwich_superop(ops, weights)
        want = kron_sandwich(ops, weights, dim)
        assert got.shape == (dim * dim, dim * dim)
        assert nu.max_abs(got - want) <= 1e-14 * max(nu.max_abs(want), 1.0)
        rho = random_hermitian(rng, dim)
        action = sum((w * op @ rho @ op.conj().T for op, w in zip(ops, weights)),
                     np.zeros((dim, dim)))
        assert nu.max_abs(nu.unvec(got @ nu.vec(rho), dim) - action) <= (
            1e-13 * max(nu.max_abs(action), 1.0))


class TestTimeGrid:
    @pytest.mark.parametrize("t_end, dt, store_every", [
        (0.01, None, None),             # default dt, every step stored
        (0.01, 0.01 / 7.3, None),       # dt shrunk to divide t_end
        (0.01, 0.001, 3),               # last step off the store_every stride
        (0.01, 0.001, 2),               # explicit store_every dividing the steps
        (0.01, 0.02, None),             # dt > t_end: one step
        (0.05, 0.05 / 4101, None),      # default store_every above 2000 steps
    ])
    def test_matches_propagate_times(self, qubit_model, t_end, dt, store_every):
        step, steps = me._time_grid(qubit_model, t_end, dt, store_every)
        traj = me.propagate(qubit_model, qubit_model.boltzmann, t_end, dt,
                            store_every=store_every)
        assert np.array_equal(steps * step, traj.times)
        # the step-by-step rule: store step 0, every store_every-th and the last
        n = int(math.ceil(t_end / (dt or me.default_dt(qubit_model)) - 1e-12))
        every = store_every or max(1, n // 2000)
        assert step == t_end / n
        assert steps.tolist() == [k for k in range(n + 1) if k % every == 0 or k == n]

    @pytest.mark.parametrize("store_every", [2.5, 1.5, 3.0, 0, -1])
    def test_store_every_not_a_whole_number_at_least_one_refused(self, qubit_model,
                                                               store_every):
        # 2.5 stamped frames no step wrote, 1.5 gave non-monotone times
        with pytest.raises(ValidationError, match="store_every"):
            me.propagate(qubit_model, qubit_model.boltzmann, 0.01, 0.001,
                         store_every=store_every)

    def test_store_every_numpy_integer_accepted(self, qubit_model):
        plain = me.propagate(qubit_model, qubit_model.boltzmann, 0.01, 0.001, store_every=3)
        int64 = me.propagate(qubit_model, qubit_model.boltzmann, 0.01, 0.001,
                             store_every=np.int64(3))
        assert np.array_equal(plain.times, int64.times)
        assert np.array_equal(plain.states, int64.states)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
    def test_nonpositive_step_refused(self, qubit_model, dt):
        with pytest.raises(ValidationError, match="dt must be positive"):
            me._time_grid(qubit_model, 0.01, dt, None)

    @pytest.mark.parametrize("t_end", [0.0, -0.01, math.nan, math.inf])
    def test_bad_end_time_refused(self, qubit_model, t_end):
        with pytest.raises(ValidationError, match="t_end must be finite and positive"):
            me._time_grid(qubit_model, t_end, 1e-3, None)

    def test_static_problem_has_no_default_step(self):
        # spin 0 under an undriven delta line: no gap, no drive phase, no decay
        system = sc.SpinSystem([0.0], [1.0])
        model = build(system, me.FieldConfig(b_o=1.0, b_1=0.0, dist=ls.delta_line(0.0)), 1.0)
        with pytest.raises(ValidationError, match="cannot pick a default step"):
            me.propagate(model, model.boltzmann, 1.0)

    @pytest.mark.parametrize("t_end, dt", [(1.0e200, 1.0e-200), (2.0 ** 64, 1.0),
                                           (2.0 ** 63, 1.0)])
    def test_unrepresentable_step_count_refused(self, qubit_model, t_end, dt):
        # 1e200 / 1e-200 is inf; 2^63 and 2^64 are finite but no int64
        with pytest.raises(ValidationError, match="not a representable step count"):
            me._time_grid(qubit_model, t_end, dt, None)

    @staticmethod
    def _cap_model():
        system = sc.SpinSystem([0.5] * 6, [-20.0 - k for k in range(6)])
        model = build(system, me.FieldConfig(b_o=1.0, b_1=0.05, dist=ls.lorentzian(22.0, 4.0)),
                      0.05)
        assert model.dim == me.MAP_DIM_CAP
        return model

    def test_stored_frames_over_the_budget_refused(self):
        # D = 64: a frame is 64 KiB, so 4096 frames fill MAX_FRAME_BYTES exactly
        model = self._cap_model()
        _, steps = me._time_grid(model, 4095.0, 1.0, 1)
        assert steps.size * model.dim ** 2 * 16 == me.MAX_FRAME_BYTES
        with pytest.raises(ValidationError, match="exceed MAX_FRAME_BYTES"):
            me._time_grid(model, 4096.0, 1.0, 1)
        with pytest.raises(ValidationError, match="exceed MAX_FRAME_BYTES"):
            me._time_grid(model, 8191.5, 1.0, 2)      # 4096 strides plus the last step

    @pytest.mark.parametrize("n_steps", [3999, 4000, 10 ** 12, 2 ** 62])
    def test_default_store_every_fits_the_budget_at_the_map_cap(self, n_steps):
        # n_steps = 3999 stores the most default frames, 4000, and so does the
        # longest grid the stepping budget admits at D = 64; a longer one, whose
        # default frames would fit too, is refused by that budget
        model = self._cap_model()
        longest = me.MAX_STEP_WORK // model.dim ** 4
        if n_steps > longest:
            with pytest.raises(ValidationError, match="MAX_STEP_WORK"):
                me._time_grid(model, float(n_steps), 1.0, None)
            n_steps = longest
        _, steps = me._time_grid(model, float(n_steps), 1.0, None)
        assert steps.dtype == np.int64 and steps[-1] == n_steps
        assert steps.size <= 4000

    @pytest.mark.parametrize("n_spins", [1, 6])
    def test_stepping_work_over_the_budget_refused(self, n_spins):
        # n_steps D^4 up to MAX_STEP_WORK is accepted, one step more is refused, and
        # so is the grid of 10^18 steps the default store_every would have admitted
        system = sc.SpinSystem([0.5] * n_spins, [-20.0 - k for k in range(n_spins)])
        model = build(system, me.FieldConfig(b_o=1.0, b_1=0.05,
                                             dist=ls.lorentzian(22.0, 4.0)), 0.05)
        longest = me.MAX_STEP_WORK // model.dim ** 4
        _, steps = me._time_grid(model, float(longest), 1.0, None)
        assert steps[-1] == longest and steps[-1] * model.dim ** 4 <= me.MAX_STEP_WORK
        for t_end, dt in ((float(longest + 1), 1.0), (1.0, 1e-18)):
            with pytest.raises(ValidationError, match="MAX_STEP_WORK"):
                me._time_grid(model, t_end, dt, None)

    def test_long_grid_refused_before_a_step(self, qubit_model, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step was taken")
        monkeypatch.setattr(me, "_generator_entries", no_step)
        monkeypatch.setattr(me, "_drive_components", no_step)
        with pytest.raises(ValidationError, match="MAX_STEP_WORK"):
            me.propagate(qubit_model, qubit_model.boltzmann, 1.0, 1e-18)

    def test_step_budget_far_above_the_longest_shipped_run(self):
        # the mixed-spin CI propagation, 19 steps at D = 48, is the longest run
        # the shipped and CI configs step; the budget leaves a factor of 100 and more
        system = mixed_spin_system()
        model = build(system, me.FieldConfig(b_o=1.0, b_1=1e-3,
                                             dist=ls.lorentzian(2.0e3, 200.0)), 2.0e-4)
        _, steps = me._time_grid(model, 5.0e-4, None, None)
        assert steps[-1] == 19
        assert 100 * steps[-1] * model.dim ** 4 <= me.MAX_STEP_WORK


class TestKrausAudit:
    @pytest.mark.parametrize("n_nodes", [0, -2, 2.5])
    def test_node_count_not_a_positive_whole_number_refused(self, qubit_model, n_nodes):
        with pytest.raises(ValidationError, match="n_nodes"):
            me.kraus_audit(qubit_model, 0.01, qubit_model.boltzmann, n_nodes=n_nodes)

    @pytest.mark.parametrize("n_nodes", [10 ** 12, np.int64(10 ** 12), 2 ** 62,
                                         np.int64(2 ** 63 - 1)])
    def test_node_count_past_the_byte_budget_refused_before_allocating(self, qubit_model,
                                                                       n_nodes):
        # 16 B of node times and weights a node: 10^12 nodes would ask for 16 TB
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceed MAX_FRAME_BYTES"):
                me.kraus_audit(qubit_model, 0.01, qubit_model.boltzmann, n_nodes=n_nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_node_budget_counts_the_even_bumped_nodes(self, qubit_model, monkeypatch):
        # a budget of 9 nodes: 8 panels fit, 7 are bumped to 8, and 9 are bumped to 10
        monkeypatch.setattr(me, "MAX_FRAME_BYTES", 9 * 16)
        for n_nodes in (7, 8):
            report = me.kraus_audit(qubit_model, 0.01, qubit_model.boltzmann, n_nodes=n_nodes)
            assert report.n_nodes == 8
        with pytest.raises(ValidationError, match="11 Simpson nodes exceed MAX_FRAME_BYTES"):
            me.kraus_audit(qubit_model, 0.01, qubit_model.boltzmann, n_nodes=9)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES)
    def test_choi_minima_equal_the_stacked_spectra(self, case, monkeypatch):
        # each Phi's Choi spectrum taken alone has the bits of the two taken as one stack
        model = operator_sum_model(case)
        phis, choi = [], nu.choi_matrix
        monkeypatch.setattr(nu, "choi_matrix", lambda s, d: phis.append(s) or choi(s, d))
        report = me.kraus_audit(model, 120 * me.default_dt(model), model.boltzmann, n_nodes=4)
        monkeypatch.undo()
        assert len(phis) == 2
        assert (report.phi1_choi_min, report.phi2_choi_min) == stacked_choi_minima(
            *phis, model.dim)

    def test_choi_spectra_taken_one_phi_at_a_time(self):
        # generic 4 spin-1/2 (D = 16): with both (D^2, D^2) Choi matrices and their
        # Hermitized copies alive together the peak was 12.2 such matrices, one at a
        # time it is 9.2
        model = operator_sum_model("generic4")
        model._generator_eig                # built and kept outside the traced audit
        t = 120 * me.default_dt(model)
        tracemalloc.start()
        try:
            me.kraus_audit(model, t, model.boltzmann, n_nodes=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * model.dim ** 4 * 16

    def test_residuals_small(self, qubit_model):
        rate = qubit_rate(qubit_model)
        report = me.kraus_audit(qubit_model, 0.4 / rate, qubit_model.boltzmann,
                                n_nodes=1024)
        assert report.trace_residual < 1e-8
        assert report.reconstruction_residual < 1e-8
        assert report.completeness_residual < 1e-8
        assert report.phi1_choi_min > -1e-10
        assert report.phi2_choi_min > -1e-10

    def test_undriven_second_half_vanishes(self, resonant_qubit):
        system, field, beta = resonant_qubit
        quiet = me.FieldConfig(b_o=field.b_o, b_1=0.0, dist=field.dist)
        model = build(system, quiet, beta)
        report = me.kraus_audit(model, 0.3, model.boltzmann, n_nodes=64)
        # phi2 integrates M^dag rho M through the undriven M = I/sqrt(2):
        # its Choi stays tiny relative to phi1's
        assert report.reconstruction_residual < 1e-8
        assert report.trace_residual < 1e-10

    def test_one_generator_eigendecomposition_per_call(self, qubit_model, monkeypatch):
        calls = {"_generator_entries": 0, "_block_eigensystem": 0, "_eigensystem": 0}
        for name in calls:
            original = getattr(me, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(me, name, spy)
        me.kraus_audit(qubit_model, 0.3 / qubit_rate(qubit_model),
                       qubit_model.boltzmann, n_nodes=16)
        assert calls == {"_generator_entries": 1, "_block_eigensystem": 1, "_eigensystem": 1}

    @pytest.mark.parametrize("case", ["two_generic", "three_equivalent"])
    def test_map_and_audit_share_one_eigensystem_per_model(self, monkeypatch, case):
        # lambda_map then kraus_audit on one model build L and its block
        # eigensystem once; the audit equals one on a freshly built model, bit for bit
        model = map_model(case, ls.lorentzian)
        t = 0.3 / decay_rate(model)
        fresh = me.kraus_audit(map_model(case, ls.lorentzian), t, model.boltzmann, n_nodes=32)
        calls = {"_generator_entries": 0, "_block_eigensystem": 0}
        for name in calls:
            def spy(*args, _name=name, _original=getattr(me, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(me, name, spy)
        me.lambda_map(model, t, model.boltzmann)
        audit = me.kraus_audit(model, t, model.boltzmann, n_nodes=32)
        me.lambda_map(model, 2.0 * t, model.boltzmann, include_drive=False)
        assert calls == {"_generator_entries": 1, "_block_eigensystem": 1}
        assert [float(v).hex() for v in dataclasses.astuple(audit)] == [
            float(v).hex() for v in dataclasses.astuple(fresh)]
        # the kept eigensystem cannot go stale by a field reassignment
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.beta = 2.0 * model.beta

    @pytest.mark.parametrize("case", ["driven", "undriven"])
    def test_shared_eigensystem_changes_no_field(self, resonant_qubit, monkeypatch, case):
        # the reference map from the audit's own eigensystem equals the one
        # lambda_map builds from a second eigendecomposition, field for field
        system, field, beta = resonant_qubit
        if case == "undriven":
            field = me.FieldConfig(b_o=field.b_o, b_1=0.0, dist=field.dist)
        model = build(system, field, beta)
        t = 0.4 / 35.2
        shared = me.kraus_audit(model, t, model.boltzmann, n_nodes=64)
        apply_map = me._apply_map

        def fresh(model, eig, *args):
            return apply_map(model, me._block_eigensystem(*me._generator_entries(model)), *args)

        monkeypatch.setattr(me, "_apply_map", fresh)
        assert me.kraus_audit(model, t, model.boltzmann, n_nodes=64) == shared

    @pytest.mark.parametrize("case", [c for c in OPERATOR_SUM_CASES if c != "generic5"])
    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_matches_kraus_factor_oracle(self, case, kind):
        # superoperator products against Kraus factors refactorised at every node
        base = operator_sum_model(case)
        field = me.FieldConfig(b_o=1.0, b_1=0.05, dist=kind(22.0, 4.0))
        model = build(base.system, field, base.beta)
        t = 120 * me.default_dt(model)
        got = me.kraus_audit(model, t, model.boltzmann, n_nodes=32)
        want = kraus_audit_oracle(model, t, model.boltzmann, n_nodes=32)
        assert got.n_nodes == want.n_nodes == 32
        for name in ("trace_residual", "completeness_residual"):
            assert getattr(got, name) <= 1e-12 and getattr(want, name) <= 1e-12
        # the Simpson error of the reconstruction, the same in both routes
        assert abs(got.reconstruction_residual - want.reconstruction_residual) <= 1e-12
        assert abs(got.phi1_choi_min - want.phi1_choi_min) <= 1e-12
        assert abs(got.phi2_choi_min - want.phi2_choi_min) <= 1e-12

    @pytest.mark.parametrize("chunk", ["one_node", "all_nodes"])
    def test_node_batches_change_no_field(self, monkeypatch, chunk):
        # D = 8: V^-1 has 120 entries in its blocks, and the default batch
        # holds all 33 nodes
        model = operator_sum_model("generic3")
        t = 120 * me.default_dt(model)
        default = me.kraus_audit(model, t, model.boltzmann, n_nodes=32)
        eig = me._block_eigensystem(*me._generator_entries(model))
        nnz = np.count_nonzero(eig.apply(np.eye(model.dim ** 2, dtype=complex), inverse=True))
        assert nnz == 8 * 8 + (64 - 8)
        calls = []
        node_sum = me._node_sum

        def spy(table, scale, ops):
            calls.append(len(ops))
            return node_sum(table, scale, ops)

        monkeypatch.setattr(me, "_node_sum", spy)
        nodes = 1 if chunk == "one_node" else 33
        monkeypatch.setattr(me, "AUDIT_CHUNK", nnz * model.dim * nodes)
        got = me.kraus_audit(model, t, model.boltzmann, n_nodes=32)
        assert calls == ([1] * 33 if chunk == "one_node" else [33])
        assert got.n_nodes == default.n_nodes == 32
        for name in ("trace_residual", "reconstruction_residual", "completeness_residual",
                     "phi1_choi_min", "phi2_choi_min"):
            assert abs(getattr(got, name) - getattr(default, name)) <= 1e-14

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["dense", "sparse"])
    def test_node_sum_matches_kron_sum(self, count, dim, pattern, rng):
        shape = (count, dim, dim)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v_inv = rng.normal(size=(dim * dim,) * 2) + 1j * rng.normal(size=(dim * dim,) * 2)
        if pattern == "sparse":     # a nonzero diagonal and a third of the rest
            v_inv *= (rng.uniform(size=v_inv.shape) < 1 / 3) | np.eye(dim * dim, dtype=bool)
        scale = rng.normal(size=(count, dim * dim)) + 1j * rng.normal(size=(count, dim * dim))
        want = sum(s[:, None] * v_inv @ np.kron(a.conj(), a) for s, a in zip(scale, ops))
        rows, cols = np.nonzero(v_inv)
        got = me._node_sum((rows, cols, v_inv[rows, cols]), scale, ops)
        assert nu.max_abs(got - want) <= 1e-14 * nu.max_abs(want)

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["dense", "sparse"])
    def test_commutator_sum_matches_kron_form(self, count, dim, pattern, rng):
        shape = (count, dim, dim)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ops = ops + ops.conj().transpose(0, 2, 1)           # Hermitian H_n
        v_inv = rng.normal(size=(dim * dim,) * 2) + 1j * rng.normal(size=(dim * dim,) * 2)
        if pattern == "sparse":
            v_inv *= (rng.uniform(size=v_inv.shape) < 1 / 3) | np.eye(dim * dim, dtype=bool)
        scale = rng.normal(size=(count, dim * dim)) + 1j * rng.normal(size=(count, dim * dim))
        eye = np.eye(dim)
        want = sum(s[:, None] * v_inv @ (-1j * (np.kron(eye, h) - np.kron(h.T, eye)))
                   for s, h in zip(scale, ops))
        rows, cols = np.nonzero(v_inv)
        got = me._commutator_sum((rows, cols, v_inv[rows, cols]), scale, ops)
        assert nu.max_abs(got - want) <= 1e-14 * nu.max_abs(want)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_time_rejected(self, qubit_model, bad):
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            me.kraus_audit(qubit_model, bad, qubit_model.boltzmann, n_nodes=16)

    def test_time_grid_rejected(self, qubit_model):
        with pytest.raises(ValidationError, match="one time"):
            me.kraus_audit(qubit_model, np.array([0.1, 0.2]), qubit_model.boltzmann)


class TestWitness:
    def test_requires_unsafe(self, qubit_model):
        with pytest.raises(DomainViolationError):
            me.noncp_witness(qubit_model, np.array([1.0, 0.0]), 0.1)

    def test_spin_zero_system_inapplicable(self):
        system = sc.SpinSystem([0.0, 0.0], [1.0, 1.0])
        field = me.FieldConfig(b_o=1.0, b_1=1e-3, dist=ls.lorentzian(1.0, 0.1))
        model = build(system, field, 1e-3)
        with pytest.raises(WitnessInapplicableError):
            me.noncp_witness(model, np.array([1.0]), 0.5, unsafe=True)

    def test_qubit_pure_input_goes_negative(self, qubit_model):
        w0 = qubit_model.ladder.omegas[0]
        res = me.noncp_witness(qubit_model, np.array([1.0, 0.0]), 0.25 / w0,
                               unsafe=True)
        assert res.det_value < 0.0
        assert res.det_value == pytest.approx(res.predicted, abs=1e-8)

    def test_drive_eigenvector_gives_zero(self, qubit_model):
        t = 0.25 / qubit_model.ladder.omegas[0]
        k_op = me.drive_integral(qubit_model, t)
        evals, evecs = np.linalg.eigh(k_op)
        psi = evecs[:, int(np.argmax(np.abs(evals)))]
        res = me.noncp_witness(qubit_model, psi, t, unsafe=True)
        assert res.beta_abs < 1e-10
        assert abs(res.det_value) < 1e-12
        assert abs(res.predicted) < 1e-12


    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_times_rejected(self, qubit_model, bad):
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            me.drive_integral(qubit_model, bad)
        with pytest.raises(ValidationError, match="t must be finite and nonnegative"):
            me.noncp_witness(qubit_model, np.array([1.0, 0.0]), bad, unsafe=True)

    def test_psi_must_be_one_dimensional(self, qubit_model):
        # a (2, 2) array holds four numbers, as the state of a D = 4 model
        # would, and a (2, 1) column two; neither is a state vector
        model = drive_model("generic2", ls.lorentzian)
        assert model.dim == 4
        for m, psi in ((model, np.eye(2)), (qubit_model, np.array([[1.0], [0.0]])),
                       (qubit_model, np.array([1.0, 0.0, 0.0]))):
            with pytest.raises(ValidationError, match=r"psi must have shape \(%d,\)" % m.dim):
                me.noncp_witness(m, psi, 0.1, unsafe=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_psi_rejected(self, qubit_model, bad):
        with pytest.raises(ValidationError, match="psi must be finite"):
            me.noncp_witness(qubit_model, np.array([1.0, bad]), 0.1, unsafe=True)

    def test_zero_psi_refused(self, qubit_model):
        with pytest.raises(ValidationError, match="psi must be nonzero"):
            me.noncp_witness(qubit_model, np.zeros(2), 0.1, unsafe=True)

    def test_null_vector_of_the_drive_integral_inapplicable(self):
        # a spin-1 K(t) is a rotated J_x, with one zero eigenvalue
        system = sc.SpinSystem([1.0], [-10.0])
        model = build(system, me.FieldConfig(b_o=1.0, b_1=0.05, dist=ls.lorentzian(10.0, 4.0)),
                      0.01)
        evals, evecs = np.linalg.eigh(me.drive_integral(model, 0.3))
        assert abs(evals[1]) < 1e-15 < abs(evals[0])
        with pytest.raises(WitnessInapplicableError, match=r"K\(t\)\|psi> vanishes"):
            me.noncp_witness(model, evecs[:, 1], 0.3, unsafe=True)

    @pytest.mark.parametrize("case", OPERATOR_SUM_CASES)
    def test_restriction_is_the_span_of_k_psi_and_psi_minus_i_k_psi(self, case):
        # an independent route: Gram-Schmidt of K psi and psi - i K psi
        model = operator_sum_model(case)
        rng = np.random.default_rng(29)
        for _ in range(5):
            psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            t = float(rng.uniform(0.05, 2.0))
            res = me.noncp_witness(model, psi, t, unsafe=True)
            psi = psi / np.linalg.norm(psi)
            k_op = me.drive_integral(model, t)
            rho0 = np.outer(psi, psi.conj())
            rho_t = rho0 - 1j * (k_op @ rho0 - rho0 @ k_op)
            v0 = k_op @ psi
            v1 = psi - 1j * v0
            u0, u1 = v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1)
            w = u1 - np.vdot(u0, u1) * u0
            basis = np.stack([u0, w / np.linalg.norm(w)], axis=1)
            want = np.linalg.det(basis.conj().T @ rho_t @ basis).real
            assert res.det_value == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert res.beta_abs == pytest.approx(np.linalg.norm(w), rel=1e-14)
            assert res.x == np.linalg.norm(v0)
            assert res.det_value == pytest.approx(res.predicted, rel=1e-9)

    def test_drive_integral_vanishes_at_zero_time(self, qubit_model):
        assert not np.any(me.drive_integral(qubit_model, 0.0))

    @pytest.mark.parametrize("kind", [ls.lorentzian, ls.gaussian])
    def test_drive_integral_matches_simpson(self, kind):
        system = sc.SpinSystem([0.5, 0.5], [-1.0e3, -1.6e3],
                               np.array([[0.0, 40.0], [40.0, 0.0]]))
        field = me.FieldConfig(b_o=1.0, b_1=1e-4, dist=kind(1.3e3, 150.0))
        model = build(system, field, 1e-4)
        assert model.ladder.omegas.size > 1
        for t in (1e-4, 3e-3, 2e-2):
            got = me.drive_integral(model, t)
            want = simpson_doubling(
                lambda ts: np.array([me.linear_response_hamiltonian(model, tau)
                                     for tau in ts]),
                0.0, t, rtol=1e-13, atol=1e-300)
            assert nu.max_abs(got - want) <= 1e-11 * nu.max_abs(want)


class TestDomainCheck:
    """Every map route refuses a non-finite or misshapen rho0 before any work."""

    ROUTES = {
        "propagate": lambda model, rho0, unsafe: me.propagate(model, rho0, 1e-3, unsafe=unsafe),
        "lambda_map": lambda model, rho0, unsafe: me.lambda_map(model, 1e-3, rho0,
                                                                unsafe=unsafe),
        "kraus_audit": lambda model, rho0, unsafe: me.kraus_audit(model, 1e-3, rho0,
                                                                  unsafe=unsafe, n_nodes=4),
    }

    @pytest.mark.parametrize("unsafe", [False, True])
    @pytest.mark.parametrize("probe", ["nan", "inf", "shape"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_bad_rho0_is_validation_error(self, qubit_model, route, probe, unsafe):
        rho0 = qubit_model.boltzmann.copy()
        if probe == "shape":
            rho0 = np.eye(3) / 3
        else:
            rho0[0, 1] = math.nan if probe == "nan" else math.inf
        with pytest.raises(ValidationError, match="rho0 must"):
            self.ROUTES[route](qubit_model, rho0, unsafe)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_off_boltzmann_rho0_is_domain_violation(self, qubit_model, route):
        with pytest.raises(DomainViolationError):
            self.ROUTES[route](qubit_model, np.diag([1.0, 0.0]).astype(complex), False)


class TestPauliRates:
    def test_qubit_rates_coincide(self, qubit_model, resonant_qubit):
        system, field, beta = resonant_qubit
        gamma = system.gammas[0]
        w0, w1 = -gamma * field.b_o, -gamma * field.b_1
        rate = 2.0 * math.pi * (w1 / 2.0) ** 2 * (
            float(ls.density(field.dist, w0)) + float(ls.density(field.dist, -w0)))
        assert transition_rate_oracle(qubit_model, 0, 1) == pytest.approx(rate)
        assert transition_rate_oracle(qubit_model, 1, 0) == pytest.approx(rate)

    def test_forbidden_pair_rate_zero(self, rng):
        system = sc.SpinSystem([0.5, 0.5], [-1.0e3, -1.5e3],
                               np.array([[0.0, 30.0], [30.0, 0.0]]))
        field = me.FieldConfig(b_o=1.0, b_1=1e-4, dist=ls.lorentzian(1.2e3, 100.0))
        model = build(system, field, 1e-4)
        # |delta M| = 2 between the extremal states: no stimulated channel
        assert transition_rate_oracle(model, 0, 3) == 0.0

    def test_peaked_density_prefers_one_branch(self, resonant_qubit):
        system, field, beta = resonant_qubit
        model = build(system, field, beta)
        entry = [e for e in pauli_rates_oracle(model) if e.canonical][0]
        assert entry.omega > 0
        assert entry.gamma_plus > 1e3 * entry.gamma_minus


class TestWavefunctionOracle:
    def test_no_drive_keeps_initial_state(self):
        energies = np.array([0.0, 5.0, 9.0])

        def h_zero(ts):
            return np.zeros((len(ts), 3, 3), dtype=complex)

        assert wavefunction_oracle(energies, h_zero, 0, 1, 0.0, 2.0) == 0.0
        assert wavefunction_oracle(energies, h_zero, 0, 0, 0.0, 2.0) == 1.0
        dist = wavefunction_distribution(energies, h_zero, 0, 0.0, 2.0)
        assert np.allclose(dist, [1.0, 0.0, 0.0])

    def test_second_order_normalization(self):
        w0 = 40.0
        energies = np.array([w0 / 2.0, -w0 / 2.0])
        amp = 0.4

        def drive(ts):
            ts = np.asarray(ts)
            h = np.zeros((len(ts), 2, 2), dtype=complex)
            h[:, 0, 1] = amp * np.cos(0.9 * w0 * ts)
            h[:, 1, 0] = amp * np.cos(0.9 * w0 * ts)
            h[:, 0, 0] = 0.1 * amp * np.sin(w0 * ts)
            return h

        probs = wavefunction_distribution(energies, drive, 0, 0.0, 3.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-8)


class TestExports:
    def test_csv_export_runs(self, qubit_model, tmp_path):
        traj = me.propagate(qubit_model, qubit_model.boltzmann,
                            0.1 / qubit_rate(qubit_model))
        path = tmp_path / "traj.csv"
        me.export_trajectory_csv(qubit_model, traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,re_xi_x,im_xi_x")
        assert len(lines) == traj.times.size + 1
