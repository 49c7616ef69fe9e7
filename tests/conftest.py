import json
from pathlib import Path

import numpy as np
import pytest

from fcmm import objective
from fcmm.dataset import DataMatrix, load_csv, standardize
from fcmm.membership import MembershipMatrix, PowerMembership, to_power

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def random_instance(rng, n, d, c, r=2.0):
    """Random Gaussian points plus a flat-Dirichlet membership matrix."""
    data = DataMatrix.from_points(rng.normal(size=(n, d)))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n))
    return data, F, to_power(F, r)


def bracket_gradient(data, g):
    """Gradient of q(g) = |X'g|^2 / 1'g: ``|x_i|^2 - |x_i - m|^2`` at g's center m."""
    m = objective.compute_centers(objective.aggregates(data, PowerMembership(g[:, None])))[0]
    return data.sq_norms - np.einsum("id,id->i", data.points - m, data.points - m)


def count_products(monkeypatch):
    """List that grows by one per ``G'X`` product taken from here on.

    ``objective.aggregates`` builds a ClusterAggregates only when it takes
    the product, not when it returns the one held on G.
    """
    built = []
    build = objective.ClusterAggregates

    def counted(*args):
        built.append(1)
        return build(*args)

    monkeypatch.setattr(objective, "ClusterAggregates", counted)
    return built


def _refuse_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


def read_summary(path):
    """Parse a summary.json, failing on the NaN and Infinity that strict JSON lacks."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


@pytest.fixture(scope="session")
def iris_path():
    return DATA_DIR / "iris.csv"


@pytest.fixture(scope="session")
def iris_raw(iris_path):
    return load_csv(iris_path, drop_columns={4})


@pytest.fixture(scope="session")
def iris_data(iris_raw):
    return standardize(iris_raw)
