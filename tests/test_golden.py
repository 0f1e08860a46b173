"""Golden SHA-256 digests of seeded CLI outputs.

The seeded reproducibility contract says equal inputs give byte-identical
artifacts. These literals pin the bytes for fixed household scenarios, so a
refactor of the selection round that changes an RNG draw, a selection, a
store write or a printed line fails here. A deliberate behaviour change
re-pins them and says why in CHANGES.md.
"""

import builtins
import hashlib
import io
import json
import math
import random
import sys

import numpy as np
import pytest

from suitgraph import (
    CampaignConfig,
    GroundTruthMatrix,
    KnowledgeBase,
    household_taxonomy_path,
    load_hierarchy,
    run_campaign,
)
from suitgraph.cli import main
from suitgraph.ontology import parse_json_tree
from suitgraph.simulate import STRATEGIES, report_json, summarize

ONTOLOGY = str(household_taxonomy_path())
MODELS = "apple,chips_can,sugar_box,mug,tennis_ball"

# apple has its own model, thing has an empty cluster, the rest transfer
TARGETS = "tomato_can,apple,thing,wine_glass,cracker_box,banana"
GT_ENTRIES = {
    ("tomato_can", "chips_can"): 0.7,
    ("tomato_can", "sugar_box"): 0.4,
    ("apple", "apple"): 0.9,
    ("wine_glass", "mug"): 0.5,
    ("cracker_box", "chips_can"): 0.3,
    ("cracker_box", "sugar_box"): 0.8,
    ("banana", "apple"): 0.6,
}

SIMULATE_GOLDEN = {
    "suitability": {
        "trial_log.json": "11bddebb5eecc0d1aee182d12b6333e028d78d849c403fea65f4ac496c898634",
        "report.json": "a5b8fb32c2f24eab44bcc668491a92646a89fa13d28957f4397d23347a8dea8a",
        "kb.json": "37992e6101a9cb4864b5af629bae5bd2db16074436ea81918f0cccb4a5d06ffe",
    },
    "random": {
        "trial_log.json": "43bb61f947decf9285b0bbc49f9c7918fa3e2314040d2f4e80b68965446bc5ac",
        "report.json": "77ae215400ecfdf62c9d1640fe9cbd1ac32f2ec6942de1fa0d9a98b817af8363",
        "kb.json": "d8de4c723dc039de431721c3fc8529d27469914380e00888519ce2bf89ded7f6",
    },
    "similarity-only": {
        "trial_log.json": "bca3aaf425e3de1b9836c648bcc1c1ba8b911ea494c2d735a46ae3b3d020c461",
        "report.json": "77ae215400ecfdf62c9d1640fe9cbd1ac32f2ec6942de1fa0d9a98b817af8363",
        "kb.json": "d8de4c723dc039de431721c3fc8529d27469914380e00888519ce2bf89ded7f6",
    },
    "count-only": {
        "trial_log.json": "e79bfb93e05944c305c2cb30f04170d7fa39937248abbbd36b419f567ccd1526",
        "report.json": "f81ba4e3dbbeadfecce0643beb94e39df70e50e764d8e46d104a2eaaa1aa206c",
        "kb.json": "32832844b30ab9b5be027b2b15fbc362bb3e653f549d5498af7ac3c31d7f0750",
    },
}

# case -> (extra argv, target, exit code, stdout digest); "KB" is replaced by
# the kb.json a seeded suitability campaign leaves behind
SELECT_GOLDEN = {
    "fresh": ((), "tomato_can", 0,
        "130542d98a55de641855f686fd04159e9e895c2a24a332a10a43b4ac5f369b91"),
    "kb": (("--kb", "KB"), "tomato_can", 0,
        "a4db56e8fd5490973c5e7a3aadabe3e5e87f0e23c8286cefa86f118ae5be115b"),
    "kb-cracker": (("--kb", "KB"), "cracker_box", 0,
        "bd45fcd7c0f46de5bbab1db7262437c3637eaa8476d7aecb1f8a18295ee1e241"),
    "reset-posteriors": (("--kb", "KB", "--reset-posteriors"), "tomato_can", 0,
        "4435bc385978d5e8578e5ced36411334927791df62c5e5fd02af8b8826feb593"),
    "ancestor-model": (("--models", "container"), "wine_glass", 0,
        "01511fa75a073eba568e2bc41b3ae46f203dadda30d580271a069e2dfa204619"),
    "max-ancestors": (("--models", "container", "--max-ancestors", "1"), "wine_glass", 0,
        "c5ee8bea2dc02423e93e00e885d091210d3c86bca86a10ee065b017477687bc9"),
    "own-model": ((), "apple", 0,
        "7fbe0a8a66aecad2d5470210edae5e93bdb902d83237e22c6fb8d5f94f6c8862"),
    "empty-cluster": ((), "thing", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

TEACH_GOLDEN = {
    "kb.json": "3aecc7a70fc07bd09a8a842e6d97545026c6ffa0835c81d422ee1df244aebe7b",
    "stdout": "4079180054232f0dd6b9aa77c42094add4d3b90959f6ce71f2c19221c8d982ae",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_gt(tmp_path):
    doc = {
        "default": 0.1,
        "entries": [{"target": t, "model": m, "p": p} for (t, m), p in GT_ENTRIES.items()],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_simulate(tmp_path, strategy):
    out = tmp_path / strategy
    rc = main(["simulate", "--ontology", ONTOLOGY, "--models", MODELS,
               "--gt", write_gt(tmp_path), "--targets", TARGETS, "--trials", "12",
               "--strategy", strategy, "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("SUITGRAPH_SEED", raising=False)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulate_golden(strategy, tmp_path, capsys):
    out = run_simulate(tmp_path, strategy)
    capsys.readouterr()
    got = {name: sha256((out / name).read_bytes()) for name in SIMULATE_GOLDEN[strategy]}
    assert got == SIMULATE_GOLDEN[strategy]


@pytest.mark.parametrize("case", sorted(SELECT_GOLDEN))
def test_select_golden(case, tmp_path, capsys):
    extra, target, code, digest = SELECT_GOLDEN[case]
    kb_path = run_simulate(tmp_path, "suitability") / "kb.json"
    before = kb_path.read_bytes()
    capsys.readouterr()
    argv = ["select", "--ontology", ONTOLOGY, "--models", MODELS, "--seed", "3"]
    argv += [str(kb_path) if arg == "KB" else arg for arg in extra]
    rc = main(argv + [target])
    assert (rc, sha256(capsys.readouterr().out.encode("utf-8"))) == (code, digest)
    assert kb_path.read_bytes() == before


def test_teach_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("y\nn\ny\nq\n"))
    kb_path = tmp_path / "kb.json"
    rc = main(["teach", "--ontology", ONTOLOGY, "--models", MODELS,
               "--kb", str(kb_path), "--seed", "11", "tomato_can"])
    assert rc == 0
    got = {"kb.json": sha256(kb_path.read_bytes()),
           "stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    assert got == TEACH_GOLDEN


# a campaign continued from the kb.json of a seeded campaign with every
# household model; its posterior snapshots do not sum to exactly 1, so the
# first round of each target renormalises them (or, with --reset-posteriors,
# drops them)
KB_MODELS = "apple,banana,chips_can,container,cracker_box,mug,pitcher,sugar_box,tennis_ball"
KB_TARGETS = "tomato_can,mustard_container,drinkware,wine_glass,orange"
SIMULATE_KB_GOLDEN = {
    "kb": ((), {
        "trial_log.json": "385d106bc3a7d9306340b88f5c76ea54124bb93f33d732210d6838fd410a8db1",
        "report.json": "4a1269f013e593da23b12830fe9ded6548f61a93a69c31473533df34b1d73024",
        "kb.json": "172ad5768ebdc735893ef3ca0b2e5fbcb774da68c637f4dd48fab46571f8c7f4",
    }),
    "kb-reset": (("--reset-posteriors",), {
        "trial_log.json": "f37afec1fd4b7f2ed59970c2728e6c36ea1ea718cab7ec52ae47c2cdc1971af2",
        "report.json": "4a1269f013e593da23b12830fe9ded6548f61a93a69c31473533df34b1d73024",
        "kb.json": "b569ce992fc0844dcf5a5533ab127064c5db390a1b8c8b22d7142fef7d140f9d",
    }),
}

# library campaign with a per-(target, candidate) similarity override
OVERRIDE_GOLDEN = {
    "trial_log.json": "260f4fe1413fde1668150101c86a517c756c23e0883cb2a3fa27ee654beabb62",
    "report.json": "e3f05408ce6b36acb65802f511f69ea3ecc5b1a69bd78456f01c24faacebcdbc",
    "kb.json": "129ab5d843f6f69c3e00b0ec8a6d2ac2a06d8787d743938fbf4fafba075bf86f",
}

# library campaign over a 48-sibling json-tree: clusters this wide are where a
# pairwise (numpy) sum would part from the sequential sum of the round
WIDE_SIBLINGS = 48
WIDE_GOLDEN = {
    "trial_log.json": "732d61397ebe979141c1467ea55ce2835f3a94b319d06e06bb6d2571f987aeac",
    "report.json": "e151a8cc02959bcd591b4136da8edd2ecd077e02284b8e8c05d12e97c52417b5",
    "kb.json": "7b8f1ec56a380291568f40563c575688c66778e43f7a20709bc2aedd510e68e3",
}


def campaign_digests(config, hierarchy, registry, gt, kb):
    log = run_campaign(config, hierarchy, registry, gt, kb)
    return {
        "trial_log.json": sha256(log.to_json().encode("utf-8")),
        "report.json": sha256(report_json(summarize(log)).encode("utf-8")),
        "kb.json": sha256(kb.export_json().encode("utf-8")),
    }


@pytest.mark.parametrize("case", sorted(SIMULATE_KB_GOLDEN))
def test_simulate_from_kb_golden(case, tmp_path, capsys):
    extra, golden = SIMULATE_KB_GOLDEN[case]
    gt = write_gt(tmp_path)
    common = ["simulate", "--ontology", ONTOLOGY, "--models", KB_MODELS, "--gt", gt,
              "--targets", KB_TARGETS, "--trials", "12"]
    assert main(common + ["--seed", "2", "--out", str(tmp_path / "seeded")]) == 0
    kb_path = tmp_path / "seeded" / "kb.json"
    sums: dict = {}
    for key, rec in KnowledgeBase.load(kb_path).items():
        sums[key.target] = sums.get(key.target, 0.0) + rec.posterior
    assert any(total != 1.0 for total in sums.values())

    out = tmp_path / case
    assert main(common + ["--seed", "5", "--kb", str(kb_path), "--out", str(out), *extra]) == 0
    capsys.readouterr()
    assert {name: sha256((out / name).read_bytes()) for name in golden} == golden


def test_run_campaign_similarity_override_golden():
    hierarchy = load_hierarchy(ONTOLOGY)
    override = {("tomato_can", "chips_can"): 0.35, ("cracker_box", "sugar_box"): 0.95,
                ("wine_glass", "mug"): 0.5}
    config = CampaignConfig(targets=("tomato_can", "cracker_box", "wine_glass"),
                            trials_per_object=15, seed=2, similarity_override=override)
    gt = GroundTruthMatrix(GT_ENTRIES, default=0.1)
    kb = KnowledgeBase(config.cfg, hierarchy.checksum())
    registry = frozenset(MODELS.split(","))
    assert campaign_digests(config, hierarchy, registry, gt, kb) == OVERRIDE_GOLDEN


def test_wide_sibling_campaign_golden():
    models = [f"m{i:02d}" for i in range(WIDE_SIBLINGS)]
    targets = ("t0", "t1")
    tree = {"name": "thing", "children": [{"name": "bin", "children": [
        {"name": n} for n in models + list(targets)]}]}
    hierarchy = parse_json_tree(json.dumps(tree))
    gt = GroundTruthMatrix({(t, m): ((7 * i + 13 * j) % 90 + 5) / 100
                            for j, t in enumerate(targets) for i, m in enumerate(models)})
    config = CampaignConfig(targets=targets, trials_per_object=8, seed=4)
    kb = KnowledgeBase(config.cfg, hierarchy.checksum())
    assert campaign_digests(config, hierarchy, frozenset(models), gt, kb) == WIDE_GOLDEN


_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """The builtin sum of Python 3.12 and later, where floats are summed with
    Neumaier compensation, ported so that older interpreters can run it."""
    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return _builtin_sum(items, start)
    # an int start and the first float add uncompensated, as in CPython
    total, rest = (start, items) if type(start) is float else (start + items[0], items[1:])
    c = 0.0
    for x in rest:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_neumaier_sum_is_compensated():
    assert neumaier_sum([0.1] * 10) == 1.0
    assert _builtin_sum([0.1] * 10) == (1.0 if sys.version_info >= (3, 12) else 0.9999999999999999)
    assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    if sys.version_info >= (3, 12):
        rng = random.Random(0)
        for _ in range(2000):
            xs = [rng.uniform(-1, 1) * 10 ** rng.randint(-5, 5) for _ in range(rng.randint(1, 30))]
            assert neumaier_sum(xs) == _builtin_sum(xs)


# goldens that Python 3.12's compensated sum moved when the round used the
# builtin sum; they must not depend on which Python runs them
@pytest.mark.parametrize("case", [*sorted(SIMULATE_KB_GOLDEN), "wide"])
def test_golden_with_compensated_builtin_sum(case, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    if case == "wide":
        test_wide_sibling_campaign_golden()
    else:
        test_simulate_from_kb_golden(case, tmp_path, capsys)


# -- numpy's random streams ----------------------------------------------------------

# SHA-256 of the draws a round takes from Generator(PCG64(0)), in the shapes
# the round asks for: one (k, beta_sample_count) beta block for k = 3 and
# 1,996 candidates, then scalar integers (tie-break) and uniforms (outcome)
NUMPY_STREAM_GOLDEN = {
    "beta k=3": "a503aad901ec8b8cc7abb5956774e7c97d7e39e9c652e8afbb3bfe391a730698",
    "beta k=1996": "54b0e2163fb8e7bc9aa926ea59ea6b0d45ebaf2e365ca93e98fa93172a55fa27",
    "integers": "8b0c8fbfd3b0d986c0de4dd8bcd51117a877ff6a79b8d3151d15b6522f06ad41",
    "random": "9fea72e1d3e79688314ce69e2f60fdcd953ec5df60b345cd94c5ef3b7a858a85",
}


def numpy_draws(case: str) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(0))
    if case.startswith("beta"):
        i = np.arange(int(case.split("=")[1]))
        # parameters below and above 1 take both of numpy's beta algorithms
        a, b = 0.5 + i % 4, 0.5 + i % 3
        return rng.beta(a[:, None], b[:, None], size=(len(i), 10)).astype("<f8")
    if case == "integers":
        return np.array([rng.integers(n) for n in (2, 3, 7, 1996) for _ in range(25)], dtype="<i8")
    return np.array([rng.random() for _ in range(100)], dtype="<f8")


@pytest.mark.parametrize("case", sorted(NUMPY_STREAM_GOLDEN))
def test_numpy_random_streams_are_the_golden_ones(case):
    digest = sha256(np.ascontiguousarray(numpy_draws(case)).tobytes())
    assert digest == NUMPY_STREAM_GOLDEN[case], (
        f"numpy {np.__version__} changed its {case} stream; the seeded goldens rest on these draws, "
        "so their failures under this numpy come from numpy, not from a code change")
