"""Small public-API corners: formatting edge cases."""

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.experiments.common import format_rows
from repro.experiments.design_space import Fig6Result


class TestFormatRows:
    def test_floats_rendered_three_decimals(self):
        text = format_rows(["a"], [[1.23456]])
        assert "1.235" in text

    def test_title_included(self):
        text = format_rows(["a"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_empty_rows(self):
        text = format_rows(["col1", "col2"], [])
        assert "col1" in text

    def test_alignment(self):
        text = format_rows(["name", "v"], [["x", 1], ["longer", 2]])
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines if "  " in line}) >= 1


class TestFig6Format:
    def test_missing_cells_render_nan(self):
        result = Fig6Result(epochs_us=(50,), counters=(16, 32))
        result.ammat_ns[(50, 16)] = 100.0
        text = result.format_table()
        assert "100.000" in text
        assert "nan" in text

    def test_best_cell_of_partial_grid(self):
        result = Fig6Result(epochs_us=(50,), counters=(16, 32))
        result.ammat_ns[(50, 16)] = 100.0
        result.ammat_ns[(50, 32)] = 90.0
        assert result.best_cell() == (50, 32)


#: every ``repro`` subpackage or module that declares ``__all__``, found
#: by source scan so a new export list is covered without editing this file
EXPORTING_MODULES = sorted(
    f"repro.{path.parent.name}.{path.stem}".removesuffix(".__init__")
    for path in Path(repro.__file__).parent.glob("*/*.py")
    if re.search(r"^__all__\b", path.read_text(encoding="utf-8"), re.M)
)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", EXPORTING_MODULES)
    def test_module_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, name

    def test_system_lazy_simulator_names(self):
        import repro.system as system

        assert callable(system.run)
        assert callable(system.build_manager)
        with pytest.raises(AttributeError):
            system.not_a_real_name
