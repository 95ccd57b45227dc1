"""The traced benchmark run wraps lingdist functions by module attribute name.

`perfbench/traced_run.py` replaces each `module.attr` in its span tables with
a timing wrapper, so a renamed or deleted function makes every traced run
fail with AttributeError.  This keeps those names in step with the package,
and `kde`'s parameters in step with the names its span note binds.  The
traced `dp_cells_per_s` divides by `editdist.matrix_s`, the self time of the
matrix builders, so each subcommand must build its matrices through them.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from conftest import FIXTURES
from lingdist import cli, editdist
from test_golden import CASES

TRACED_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "traced_run.py"


def load_traced_run():
    spec = importlib.util.spec_from_file_location("traced_run", TRACED_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_lingdist():
    traced_run = load_traced_run()
    names = [name for table in (traced_run.SELF_TIME, traced_run.INCLUSIVE_TIME)
             for names in table.values() for name in names]
    assert "editdist.language_matrix" in names
    missing = []
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"lingdist.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert missing == []


def test_kde_has_the_parameters_the_traced_run_binds_by_name():
    # traced_run._kde_note reads `values` and `grid_points` from the bound call
    import lingdist.stats

    assert {"values", "grid_points"} <= set(inspect.signature(lingdist.stats.kde).parameters)


@pytest.mark.parametrize("command", sorted(CASES))
def test_every_subcommand_builds_its_matrices_through_the_traced_builders(
        command, tmp_path, monkeypatch):
    names = load_traced_run().SELF_TIME["editdist.matrix_s"]
    calls = []

    def counted(name, builder):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return builder(*args, **kwargs)
        return wrapper

    for name in names:
        module_name, attr = name.split(".")
        assert module_name == "editdist"
        monkeypatch.setattr(editdist, attr, counted(name, getattr(editdist, attr)))
    args = [str(FIXTURES / a) if a.endswith((".pl", ".csv")) else a for a in CASES[command]]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0
    assert calls, f"{command} built no matrix through {names}"
