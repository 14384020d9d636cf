import importlib
import pkgutil

import numpy as np
import pytest

import spinlind
from spinlind.numutil import fmt12, write_csv

MODULES = ["spinlind"] + [f"spinlind.{m.name}" for m in pkgutil.iter_modules(spinlind.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


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
