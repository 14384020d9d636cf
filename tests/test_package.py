import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlind
from oracles import write_csv_oracle
from spinlind.artifact import fmt12, write_csv

MODULES = ["spinlind"] + [f"spinlind.{m.name}" for m in pkgutil.iter_modules(spinlind.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_one_definition_per_line_shape_quantity():
    # rates and Lamb weights are density and Hilbert calls, the linear response is one
    # block-at-once route (its scalar kernels are the test oracle), the qubit's Lorentzian
    # is lineshape.density's and verify reads the model's ladder
    lineshape, response, qubit, cli = (importlib.import_module(f"spinlind.{m}")
                                       for m in ("lineshape", "response", "qubit", "cli"))
    assert not {"dissipator_weight", "lamb_weight"} & set(dir(lineshape))
    assert response.__all__ == ["magnetization", "steady_magnetization", "absorbed_power",
                                "PowerLine"]
    assert not {"ChiKernel", "chi_infinity", "chi_transient", "rho_integral",
                "commutator_average", "steady_rho_integral",
                "transient_rho_integral"} & set(dir(response))
    assert not hasattr(qubit, "_lorentz_profile")
    assert "ladder_table" not in Path(cli.__file__).read_text(encoding="utf-8")


def test_one_view_per_quantity_and_no_option_without_a_caller():
    # one rate per block, Z0's energies as an array, stick spectra of positions and
    # intensities alone; lambda_map always drives, stick_spectrum merges by
    # MERGE_TOL_GAUSS, and Z0's coupling diagonal has one definition
    from spinlind import eigenops, mastereq, qubit, spectrum, spincore

    model_fields = {f.name for f in dataclasses.fields(mastereq.MasterEquationModel)}
    assert "rates" in model_fields and "energies" in model_fields
    assert not {"rates_plus", "rates_minus", "levels"} & model_fields
    assert not hasattr(spincore, "LevelData") and "LevelData" not in spincore.__all__
    assert "gap_atol" not in {f.name for f in dataclasses.fields(eigenops.LadderTable)}
    assert [f.name for f in dataclasses.fields(spectrum.StickSpectrum)] == [
        "delta_b", "intensity", "config_text"]
    for fn in (mastereq.lambda_map, mastereq._apply_map):
        assert "include_drive" not in inspect.signature(fn).parameters
    assert "merge_tol" not in inspect.signature(spectrum.stick_spectrum).parameters
    assert not hasattr(qubit, "_interaction_picture")
    assert not hasattr(spincore, "_couplings")
    assert not any("zz" in inspect.signature(fn).parameters
                   for fn in vars(spincore).values()
                   if inspect.isfunction(fn) and fn.__module__ == spincore.__name__)
    src = Path(spincore.__file__).parent
    for name in ("rates_plus", "rates_minus", "LevelData", "gap_atol", "include_drive",
                 "merge_tol", "_interaction_picture"):
        assert not [p.name for p in src.glob("*.py") if name in p.read_text(encoding="utf-8")]


def test_one_home_per_rule_and_no_name_without_a_reader():
    # one lookup resolves a resonance group and its neighbors, one table holds each
    # mode's requirements; the splitting constant, J = jN and the coefficient total
    # had only test readers, and the witness, which always feeds a pure state, has
    # no unsafe flag to set
    from spinlind import config, mastereq, spectrum

    assert not {"_neighbors", "_group_map", "splitting_constant"} & set(dir(spectrum))
    assert not hasattr(spectrum.EquivalentGroup, "total_spin")
    assert not hasattr(spectrum.GeneratingPolynomial, "total")
    assert "unsafe" not in inspect.signature(mastereq.noncp_witness).parameters
    assert config.MODES == tuple(config._NEEDS)
    src = Path(spectrum.__file__).parent
    for name in ("_neighbors", "_group_map", "splitting_constant", "total_spin"):
        assert not [p.name for p in src.glob("*.py") if name in p.read_text(encoding="utf-8")]


class TestLazyExports:
    def test_each_name_is_its_submodules_object(self):
        for name in set(spinlind.__all__) - {"__version__"}:
            obj = getattr(spinlind, name)
            assert obj.__module__.startswith("spinlind.")
            assert obj is getattr(importlib.import_module(obj.__module__), name)

    def test_dir_lists_every_export(self):
        assert set(spinlind.__all__) <= set(dir(spinlind))

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            spinlind.no_such_name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from spinlind import *", namespace)
        assert set(spinlind.__all__) <= set(namespace)

    def test_readme_library_example_runs(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        code = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()


class TestWriteCsv:
    def test_cell_rule_and_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        big = 3 ** 80
        write_csv(path, ["a", "b", "c"], [["x=1;y", "a,b"], [big, 7], [0.1 + 0.2, 2.0]])
        want = (f"a,b,c\r\nx=1;y,{big},{fmt12(0.1 + 0.2)}\r\n"
                f'"a,b",7,{fmt12(2.0)}\r\n')
        assert path.read_bytes() == want.encode()

    def test_numpy_scalars_take_the_number_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [np.array([1 / 3, 1e300, -0.0])])
        assert path.read_text().split()[1:] == [fmt12(1 / 3), fmt12(1e300), fmt12(-0.0)]

    def test_single_column_empty_cell_is_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [["", "a", ""]])
        assert path.read_bytes() == b'v\r\n""\r\na\r\n""\r\n'

    def test_utf8_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["α"], [["β=1"]])
        assert path.read_bytes() == "α\r\nβ=1\r\n".encode("utf-8")


# str cells drawn from the characters the csv module quotes for, plus a few
# plain and non-ASCII ones; empty strings included
_CELL_TEXT = st.text(alphabet=[",", '"', "\r", "\n", "a", "=", ";", "|", " ", "α"],
                     max_size=6)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_INTS = st.integers(-(2 ** 70), 2 ** 70) | st.sampled_from([2 ** 63, 2 ** 64 + 1, -(2 ** 63)])


@st.composite
def _csv_tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 12))

    def column():
        kind = draw(st.sampled_from(["float", "numpy", "int", "str", "mixed"]))
        cell = {"float": _FLOATS, "numpy": _FLOATS, "int": _INTS, "str": _CELL_TEXT,
                "mixed": _FLOATS | _INTS | _CELL_TEXT}[kind]
        col = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        return np.array(col, dtype=float) if kind == "numpy" else col

    header = draw(st.lists(_CELL_TEXT, min_size=n_cols, max_size=n_cols))
    return header, [column() for _ in range(n_cols)]


class TestWriteCsvOracle:
    @settings(max_examples=300, deadline=None)
    @given(_csv_tables())
    def test_bytes_match_the_csv_module(self, tmp_path_factory, table):
        header, columns = table
        tmp = tmp_path_factory.mktemp("csv")
        write_csv(tmp / "a.csv", header, columns)
        write_csv_oracle(tmp / "b.csv", header, columns)
        assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
