"""One rule for scalar arguments.

Every count and real number a public function takes is checked by one of
two helpers in ``fcmm.dataset``: an integer of at least a lower bound, or a
finite real number above one. bool, strings, NaN and infinity are never a
valid count or real number, so each is a ValueError that names the
parameter, whatever the entry point.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fcmm.dataset import DataMatrix, SyntheticSpec, load_csv
from fcmm.membership import MembershipMatrix, init_random, to_power
from fcmm.objective import fcm_objective
from fcmm.oracle import (classic_update_oracle, descent_chain_audit, finite_diff_gradient,
                         run_suite, surrogate_argmin_oracle)
from fcmm.solvers import SolverConfig, update_membership_classic

IRIS = Path(__file__).resolve().parent.parent / "data" / "iris.csv"
DATA = DataMatrix.from_points([[0.0, 0.0], [1.0, 0.0], [4.0, 1.0]])
F = MembershipMatrix.from_values([[0.7, 0.3], [0.6, 0.4], [0.2, 0.8]])
G = to_power(F, 2.0)
CENTERS = np.array([[0.5, 0.0], [4.0, 1.0]])
SPEC = dict(blob_count=2, points_per_blob=3, dim=2)
CONFIG = dict(c=2)

# name: (lower bound, call with the parameter set to the value)
INTEGERS = {
    "load_csv.drop column": (0, lambda v: load_csv(IRIS, (v, 4))),
    "SyntheticSpec.blob_count": (1, lambda v: SyntheticSpec(**{**SPEC, "blob_count": v})),
    "SyntheticSpec.points_per_blob": (1, lambda v: SyntheticSpec(**{**SPEC, "points_per_blob": v})),
    "SyntheticSpec.dim": (1, lambda v: SyntheticSpec(**{**SPEC, "dim": v})),
    "SyntheticSpec.seed": (0, lambda v: SyntheticSpec(**SPEC, seed=v)),
    "SolverConfig.c": (2, lambda v: SolverConfig(c=v)),
    "SolverConfig.max_outer_iters": (1, lambda v: SolverConfig(**CONFIG, max_outer_iters=v)),
    "SolverConfig.max_inner_iters": (1, lambda v: SolverConfig(**CONFIG, max_inner_iters=v)),
    "SolverConfig.seed": (0, lambda v: SolverConfig(**CONFIG, seed=v)),
    "init_random.n": (1, lambda v: init_random(v, 2, 0)),
    "init_random.c": (2, lambda v: init_random(3, v, 0)),
    "init_random.seed": (0, lambda v: init_random(3, 2, v)),
    "surrogate_argmin_oracle.trials": (1, lambda v: surrogate_argmin_oracle(DATA, G, 2.0, v, 0)),
    "surrogate_argmin_oracle.seed": (0, lambda v: surrogate_argmin_oracle(DATA, G, 2.0, 1, v)),
    "descent_chain_audit.steps": (1, lambda v: descent_chain_audit(DATA, F, SolverConfig(c=2), v)),
    "run_suite.seed": (0, lambda v: run_suite("quick", v)),
}

REALS = {
    "SyntheticSpec.blob_stddev": (0.0, lambda v: SyntheticSpec(**SPEC, blob_stddev=v)),
    "SyntheticSpec.blob_center_scale": (0.0, lambda v: SyntheticSpec(**SPEC, blob_center_scale=v)),
    "SolverConfig.r": (1.0, lambda v: SolverConfig(**CONFIG, r=v)),
    "SolverConfig.outer_tol": (0.0, lambda v: SolverConfig(**CONFIG, outer_tol=v)),
    "to_power.r": (1.0, lambda v: to_power(F, v)),
    "fcm_objective.r": (1.0, lambda v: fcm_objective(DATA, F, CENTERS, v)),
    "update_membership_classic.r": (1.0, lambda v: update_membership_classic(DATA, CENTERS, v)),
    "classic_update_oracle.r": (1.0, lambda v: classic_update_oracle(DATA, CENTERS, v)),
    "finite_diff_gradient.step": (0.0, lambda v: finite_diff_gradient(DATA, np.ones(3), v)),
}

# name: value for the parameter, from its lower bound
NEVER = {
    "bool": lambda low: True,
    "str": lambda low: "2",
    "nan": lambda low: math.nan,
    "numpy-nan": lambda low: np.float64("nan"),
    "inf": lambda low: math.inf,
    "-inf": lambda low: -math.inf,
}
BAD_INTEGERS = {**NEVER, "fraction": lambda low: low + 0.5, "integral-float": float,
                "below-bound": lambda low: low - 1, "numpy-below-bound": lambda low: np.int64(low - 1)}
BAD_REALS = {**NEVER, "bound": lambda low: low, "below-bound": lambda low: low - 1}


def _rejects(call, parameter, value, rule):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{parameter} must be {rule}"), str(info.value)
    assert str(info.value).endswith(f"got {value!r}")


@pytest.mark.parametrize("case", BAD_INTEGERS)
@pytest.mark.parametrize("entry", INTEGERS)
def test_integer_rule(entry, case):
    low, call = INTEGERS[entry]
    _rejects(call, entry.split(".")[1], BAD_INTEGERS[case](low), f"an integer >= {low}")


@pytest.mark.parametrize("case", BAD_REALS)
@pytest.mark.parametrize("entry", REALS)
def test_real_rule(entry, case):
    low, call = REALS[entry]
    _rejects(call, entry.split(".")[1], BAD_REALS[case](low), f"a real number > {low:g} and finite")


@pytest.mark.parametrize("entry", [e for e in INTEGERS if not e.startswith("run_suite")])
def test_integer_bound_is_accepted(entry):
    low, call = INTEGERS[entry]
    call(low)
    call(np.int64(low))


@pytest.mark.parametrize("entry", REALS)
def test_real_just_above_bound_is_accepted(entry):
    low, call = REALS[entry]
    call(low + 0.5)
    call(np.float64(low + 0.5))
