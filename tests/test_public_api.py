"""The ``fcmm`` top level is the public API, and the benchmark and README use only it."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import fcmm

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {"cli", "dataset", "exceptions", "membership", "objective", "oracle", "solvers"}

# Importable from their modules, not from the top level.
MODULE_ONLY = {
    "solvers": ["update_membership_classic", "update_membership_irw", "update_membership_mm",
                "irw_auxiliary", "TraceRecord"],
    "objective": ["ClusterAggregates"],
    "membership": ["MembershipReport"],
    "oracle": ["OracleReport", "classic_update_oracle", "descent_chain_audit",
               "finite_diff_gradient", "gram_quad_oracle", "gram_vector_oracle",
               "run_suite", "surrogate_argmin_oracle"],
}


def top_level_uses(source):
    """Names read as ``fcmm.<name>`` in a piece of Python source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "fcmm"}


def test_every_exported_name_resolves():
    assert len(fcmm.__all__) == len(set(fcmm.__all__)) == 26
    for name in fcmm.__all__:
        assert getattr(fcmm, name) is not None


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_module_only_names_stay_off_the_top_level(module):
    owner = importlib.import_module(f"fcmm.{module}")
    for name in MODULE_ONLY[module]:
        assert hasattr(owner, name)
        assert not hasattr(fcmm, name)
        assert name not in fcmm.__all__


def test_benchmark_solver_table_is_top_level():
    tree = ast.parse((ROOT / "perfbench" / "harness.py").read_text())
    table = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SOLVE" for t in node.targets))
    assert set(table) == set(fcmm.SOLVERS)
    for name in table.values():
        assert name in fcmm.__all__


def test_benchmark_and_readme_use_only_the_public_api():
    sources = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    used = set().union(*map(top_level_uses, sources))
    assert {"SolverConfig", "solve_fcm_mm", "load_csv"} <= used
    assert used - SUBMODULES - {"__file__"} <= set(fcmm.__all__)


# Values the code derives from its inputs are not parameters: the header is
# found from the first row, the tolerances are module constants, and the
# norms and masses are computed from the arrays they describe.
@pytest.mark.parametrize("qualname, params", [
    ("dataset.load_csv", ["path", "drop_columns"]),
    ("membership.validate", ["F"]),
    ("cli.updates_to_reach", ["result", "target"]),
])
def test_signatures(qualname, params):
    module, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"fcmm.{module}"), name)
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("qualname, fields", [
    ("dataset.DataMatrix", ["points"]),
    ("membership.PowerMembership", ["values"]),
    ("solvers.SolverConfig", ["c", "r", "outer_tol", "inner_tol", "max_outer_iters",
                              "max_inner_iters", "seed"]),
    ("cli.RunManifest", ["cfg", "algorithms", "output_dir", "csv_path", "drop_columns",
                         "synthetic", "standardize"]),
])
def test_init_fields(qualname, fields):
    module, name = qualname.split(".")
    cls = getattr(importlib.import_module(f"fcmm.{module}"), name)
    assert [f.name for f in dataclasses.fields(cls) if f.init] == fields
