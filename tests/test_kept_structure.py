"""The structure a SpinSystem keeps: its spin tables and the flip-flop entries of its
total-M sectors, each built once per system on first use, read-only, and with the bits
of a fresh build.  Every test starts from a new SpinSystem, so nothing arrives built."""

import numpy as np
import pytest

from spinlind import acp
from spinlind import eigenops as eo
from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import spincore as sc

from oracles import per_call_sectors
from test_mastereq import OPERATOR_SUM_CASES, mixed_spin_system, one_pass_case, same_bits

CASES = OPERATOR_SUM_CASES + ["mixed_spins"]
ORDER = 3
LADDER_FIELDS = ("rows", "cols", "values", "block", "omegas")


def fresh(case):
    """A new SpinSystem of ``case`` with its field and beta: nothing built or kept yet."""
    system, field, beta = one_pass_case(case, ls.lorentzian)
    return sc.SpinSystem(system.spins, system.gammas, system.couplings), field, beta


def spy_builders(monkeypatch) -> list:
    """The names of the structure builders, in call order, as they run."""
    passes = []
    for name in ("_tabulate", "_tabulate_sectors"):
        real = getattr(sc, name)
        monkeypatch.setattr(sc, name, lambda s, _name=name, _real=real:
                            passes.append(_name) or _real(s))
    return passes


def kept_arrays(system) -> list:
    return [*system._tables, *(a for sector in system._sectors for a in sector)]


@pytest.mark.parametrize("case", ["generic3", "mixed_spins"])
def test_one_table_pass_and_one_sector_pass_per_system(case, monkeypatch):
    system, field, beta = fresh(case)
    passes = spy_builders(monkeypatch)
    me.build_model(system, field, beta)
    eo.ladder_table(system, sc.level_data(system, field.b_o))
    for axis in "xyz":
        sc.xi_operator(system, axis)
    sc.total_sz(system)
    assert passes == ["_tabulate"]
    acp.moments_up_to(system, field.b_o, ORDER, beta)
    assert passes == ["_tabulate", "_tabulate_sectors"]
    acp.initial_correction(system, field.b_o, ORDER, beta)
    # X's dense forms scatter the kept sectors; another field and beta read the same structure
    sc.build_x(system)
    sc.static_hamiltonian(system, field.b_o)
    acp.initial_correction(system, 2.0 * field.b_o, 2, 0.5 * beta)
    me.build_model(system, field, 0.5 * beta)
    assert passes == ["_tabulate", "_tabulate_sectors"]


def test_nothing_is_kept_by_value(monkeypatch):
    # two systems equal in every value each build their own structure
    (first, field, beta), (second, _, _) = fresh("generic3"), fresh("generic3")
    passes = spy_builders(monkeypatch)
    for system in (first, second):
        acp.moments_up_to(system, field.b_o, ORDER, beta)
    assert passes == ["_tabulate", "_tabulate_sectors"] * 2


def test_other_couplings_get_their_own_sectors():
    system, _, _ = fresh("generic4")
    doubled = sc.SpinSystem(system.spins, system.gammas, 2.0 * system.couplings)
    kept, other = system._sectors, doubled._sectors
    assert len(kept) == len(other) == system.n_spins + 1
    for (idx, rows, cols, values), (idx2, rows2, cols2, values2) in zip(kept, other):
        assert same_bits(idx, idx2) and same_bits(rows, rows2) and same_bits(cols, cols2)
        assert same_bits(values2, 2.0 * values)     # halving and doubling are exact
    # the first system's sectors are those of a fresh build, untouched by the second's
    for got, want in zip(system._sectors, per_call_sectors(system, 1.0)[1]):
        assert all(same_bits(a, b) for a, b in zip(got, want))


def test_kept_arrays_are_read_only():
    system, _, _ = fresh("mixed_spins")
    arrays = kept_arrays(system)
    assert isinstance(system._sectors, tuple)
    copies = [a.copy() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            a += 1
    assert all(same_bits(a, b) for a, b in zip(kept_arrays(system), copies))


def readers(field, beta) -> list:
    """Every reader of the kept structure, each giving a list of arrays."""
    b_o = field.b_o

    def model(system):
        m = me.build_model(system, field, beta)
        return [m.levels.energies, m.levels.magnetizations, m.rates_plus, m.rates_minus,
                m.h_ls, m._anti, m.boltzmann, *(getattr(m.ladder, n) for n in LADDER_FIELDS)]

    def ladder(system):
        table = eo.ladder_table(system, sc.level_data(system, b_o))
        return [*(getattr(table, n) for n in LADDER_FIELDS), np.array(table.gap_atol)]

    def moments(system):
        values = acp.moments_up_to(system, b_o, ORDER, beta)
        return [np.array(values.values), np.array(acp.zeta_recursive(values).zetas)]

    def levels(system):
        data = sc.level_data(system, b_o)
        return [data.energies, data.magnetizations]

    return [
        levels, ladder, model, lambda s: [sc.build_x(s)], moments,
        lambda s: [acp.initial_correction(s, b_o, n, beta) for n in range(ORDER + 1)],
    ]


@pytest.mark.parametrize("case", CASES)
def test_kept_structure_gives_the_bits_of_fresh_builds(case):
    warm, field, beta = fresh(case)
    # built and kept at another field and beta before any reader below runs
    me.build_model(warm, field, 2.0 * beta)
    acp.moments_up_to(warm, 2.0 * field.b_o, 2, 2.0 * beta)
    for got, want in zip(warm._tables, sc._tabulate(fresh(case)[0])):
        assert same_bits(got, want)
    eps, sectors = sc.level_data(warm, field.b_o).energies, warm._sectors
    want_eps, want_sectors = per_call_sectors(fresh(case)[0], field.b_o)
    assert same_bits(eps, want_eps) and len(sectors) == len(want_sectors)
    for got, want in zip(sectors, want_sectors):
        assert all(same_bits(a, b) for a, b in zip(got, want))
    # each reader on the warm system against the same reader on a new one
    for read in readers(field, beta):
        got, want = read(warm), read(fresh(case)[0])
        assert len(got) == len(want)
        assert all(same_bits(a, b) for a, b in zip(got, want))
