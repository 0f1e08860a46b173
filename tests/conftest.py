import numpy as np
import pytest
from hypothesis import settings

from suitgraph import household_taxonomy_path, load_hierarchy
from suitgraph.ontology import parse_json_tree

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")

# minimal tree for hand-checkable similarity values
TOY_TREE = """
{
  "name": "thing",
  "children": [
    {"name": "fruit", "children": [{"name": "apple"}, {"name": "banana"}]}
  ]
}
"""

# classes with execution models in the evaluation fixture
FIXTURE_MODELS = frozenset({"apple", "chips_can", "sugar_box", "mug", "tennis_ball"})

# expected candidate-set sizes for the ten unmodeled test objects
FIXTURE_CLUSTER_SIZES = {
    "banana": 1,
    "orange": 1,
    "strawberry": 1,
    "cracker_box": 2,
    "tomato_can": 2,
    "mustard_container": 2,
    "pitcher": 2,
    "wine_glass": 1,
    "baseball": 1,
    "racquetball": 1,
}


@pytest.fixture
def toy():
    return parse_json_tree(TOY_TREE)


@pytest.fixture(scope="session")
def household():
    return load_hierarchy(household_taxonomy_path())


@pytest.fixture(scope="session")
def registry():
    return FIXTURE_MODELS


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class FixedEstimates:
    """Stands in for the generator of ``update_posteriors``.

    ``update_posteriors`` makes one ``beta`` call with a column of
    parameters per candidate, rows in sorted name order. On a graph whose
    config takes one draw per estimate (``beta_sample_count=1``), a row's
    single draw is its success estimate, so this stand-in sets the
    estimate of each candidate to ``estimates[name]``. ``params`` keeps the
    (alpha, beta) columns of every call.
    """

    def __init__(self, estimates):
        self.estimates = dict(estimates)
        self.params = []

    def beta(self, a, b, size):
        names = sorted(self.estimates)
        assert size == (len(names), 1), size
        self.params.append((a[:, 0].tolist(), b[:, 0].tolist()))
        return np.array([[self.estimates[name]] for name in names])


def random_parent_map(rng: np.random.Generator, max_nodes: int = 50) -> dict:
    """Random rooted tree as a parent map; node i's parent is among 0..i-1."""
    n = int(rng.integers(1, max_nodes + 1))
    parent = {"c0": None}
    for i in range(1, n):
        parent[f"c{i}"] = f"c{int(rng.integers(0, i))}"
    return parent
