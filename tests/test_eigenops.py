"""The +1-step ladder table of xi^x against the dense decomposition of xi^x."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinlind import acp, cli
from spinlind import eigenops as eo
from spinlind import mastereq as me
from spinlind import response as rs
from spinlind import spincore as sc
from spinlind.config import load_config

from conftest import random_system
from oracles import decompose, dense_ladder, per_spin_ladder_table
from test_mastereq import operator_sum_model, radical_system
from test_spectrum import biphenyl_groups

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def assert_matches_oracle(system, levels):
    """The table equals the dense decomposition of xi^x entry for entry, bitwise."""
    table = eo.ladder_table(system, levels)
    dec = decompose(sc.xi_operator(system, "x"), levels)
    omegas, stack = dec.plus_stack()
    assert all(b.step in (1, -1) for b in dec.blocks)
    assert np.array_equal(table.omegas, omegas)
    assert np.all(np.diff(table.omegas) > 0)
    assert table.gap_atol == dec.gap_atol
    # sorted by (block, row, col), one entry per nonzero of the stack
    assert np.array_equal(np.stack([table.block, table.rows, table.cols]),
                          np.stack(np.nonzero(stack)))
    assert np.array_equal(table.values, stack[table.block, table.rows, table.cols])
    assert np.array_equal(dense_ladder(table), stack)
    # every field, in the same order, against the entries built one spin at a time
    want = per_spin_ladder_table(system, levels)
    for name in ("rows", "cols", "values", "block", "omegas"):
        assert np.array_equal(getattr(table, name), getattr(want, name))
    assert (table.gap_atol, table.dim) == (want.gap_atol, want.dim)
    return table


@pytest.mark.parametrize("seed", range(8))
def test_random_systems_match_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        system = random_system(rng, max_dim=64, allowed_spins=(0.0, 0.5, 1.0, 1.5, 2.5))
        gammas = np.where(rng.random(system.n_spins) < 0.2, 0.0, system.gammas)
        system = sc.SpinSystem(system.spins, gammas, system.couplings)
        assert_matches_oracle(system, sc.level_data(system, float(rng.uniform(0.05, 2.0))))


def _special_system(case):
    if case == "spin0":
        return sc.SpinSystem([0.0], [1.0])
    if case == "spin0_between":
        return sc.SpinSystem([0.5, 0.0, 1.5], [-2.0, 1.0, 0.7], np.full((3, 3), 0.3)
                             - 0.3 * np.eye(3))
    if case == "zero_gamma":
        return sc.SpinSystem([1.0, 0.5], [0.0, -3.0], [[0.0, 0.4], [0.4, 0.0]])
    if case == "all_zero_gamma":
        return sc.SpinSystem([0.5, 1.5], [0.0, 0.0])
    if case == "equivalent_spin3/2":
        return sc.SpinSystem([1.5, 1.5], [-1.0, -1.0], [[0.0, 0.2], [0.2, 0.0]])
    if case == "spin5/2_spin0_zero_gamma":
        return sc.SpinSystem([2.5, 0.0, 0.5, 1.0], [-1.3, 2.0, 0.0, 0.4],
                             np.full((4, 4), 0.15) - 0.15 * np.eye(4))
    return operator_sum_model(case).system


@pytest.mark.parametrize("case", ["spin0", "spin0_between", "zero_gamma", "all_zero_gamma",
                                  "equivalent_spin3/2", "spin5/2_spin0_zero_gamma",
                                  "three_equivalent_plus_one"])
def test_special_systems_match_dense_oracle(case):
    system = _special_system(case)
    table = assert_matches_oracle(system, sc.level_data(system, 1.0))
    # d_i - 1 lowering steps per value of the other occupations, none at gamma_i = 0
    assert table.values.size == sum(
        system.dim // d * (d - 1) for d, g in zip(system.dims, system.gammas) if g != 0.0)


def test_model_reads_its_stack_from_the_table():
    model = operator_sum_model("three_equivalent_plus_one")
    # the dense stack is built on each read, not kept as a field
    assert "plus_mats" not in {f.name for f in dataclasses.fields(model)}
    assert np.array_equal(model.plus_mats, dense_ladder(model.ladder))
    # degenerate gaps: fewer blocks than entries
    assert model.ladder.omegas.size < model.ladder.values.size


def test_qubit_has_one_lowering_entry():
    gamma, b_o = -1.76e3, 2.0
    system = sc.SpinSystem([0.5], [gamma])
    table = eo.ladder_table(system, sc.level_data(system, b_o))
    assert table.omegas.tolist() == [-gamma * b_o]
    assert (table.rows.tolist(), table.cols.tolist(), table.block.tolist()) == ([1], [0], [0])
    assert table.values.tolist() == [-gamma / 2.0 + 0j]


def test_two_spin_gaps_are_the_analytic_lines():
    gamma = np.array([-2.0e3, -3.0e3])
    t12, b_o = 50.0, 1.0
    system = sc.SpinSystem([0.5, 0.5], gamma, [[0.0, t12], [t12, 0.0]])
    table = assert_matches_oracle(system, sc.level_data(system, b_o))
    assert np.bincount(table.block).tolist() == [1, 1, 1, 1]
    analytic = sorted(-g * b_o + s * t12 / 2.0 for g in gamma for s in (1.0, -1.0))
    assert table.omegas == pytest.approx(analytic, rel=1e-12)


def test_bins_anchor_on_their_first_gap():
    # |gaps| 0, 0.6 tol, 0.6 tol, 1.2 tol: each within tol of the next, but
    # 1.2 tol is more than tol past the anchor 0, so it opens a second bin
    system = sc.SpinSystem([0.5, 0.5], [1.0, 1.0])
    tol = eo.GAP_TOL
    energies = np.array([0.0, 0.6 * tol, 0.0, 1.2 * tol])
    levels = sc.LevelData(energies=energies,
                          magnetizations=sc.level_data(system, 1.0).magnetizations)
    table = assert_matches_oracle(system, levels)
    assert table.gap_atol == tol
    assert table.omegas.tolist() == [-1.2 * tol, 0.0]
    assert np.bincount(table.block).tolist() == [1, 3]


def test_table_routes_build_no_dense_stack(monkeypatch):
    # every route reads the entries; the dense stack lives in the oracles
    def refuse(self):
        raise AssertionError("the dense ladder stack was built")

    assert not hasattr(eo.LadderTable, "dense")
    monkeypatch.setattr(me.MasterEquationModel, "plus_mats", property(refuse))
    model = operator_sum_model("three_equivalent_plus_one")
    me.lambda_map(model, np.linspace(0.0, 1.0, 3), model.boltzmann)
    me.kraus_audit(model, 0.5, model.boltzmann, n_nodes=4)
    me._generator_entries(model)
    me.dissipator(model, np.eye(model.dim) / model.dim)
    t_end = 5 * me.default_dt(model)
    me.propagate(model, model.boltzmann, t_end)
    acp.propagate_order_n(model, 1, lambda t: np.zeros((model.dim, model.dim)), t_end)
    me.linear_response_hamiltonian(model, np.linspace(0.0, 1.0, 5))
    me.drive_integral(model, 0.5)
    me.noncp_witness(model, np.arange(1.0, model.dim + 1.0), 0.5, unsafe=True)
    assert me.default_dt(model) > 0
    rs.magnetization(model, np.linspace(0.0, 1.0, 3))
    rs.absorbed_power(model)
    checks = dict(cli._verify_checks(load_config(CONFIGS / "two_spin.cfg")))
    assert checks["ladder decomposition complete with steps +-1"]()
    assert checks["dissipator output traceless"]()


def test_biphenyl_size_table_stays_sparse():
    system = radical_system(biphenyl_groups())
    assert system.dim == 2048
    levels = sc.level_data(system, 3400.0)
    tracemalloc.start()
    try:
        table = eo.ladder_table(system, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense D x D complex matrix would be 67 MB
    assert peak < 16e6
    assert table.values.size == 11 * 1024 == 11264
    mags = levels.magnetizations
    assert np.all(mags[table.cols] - mags[table.rows] == 1)
