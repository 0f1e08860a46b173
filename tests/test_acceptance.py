"""Acceptance gate: ten observable behaviours the package commits to.

Each test prints exactly one [PASS]/[FAIL] line (run with ``pytest -s`` to
see them) and then asserts, so a red run still reports every criterion.
Thresholds, tolerances, and time budgets are pinned as module constants.
"""

import math
import re
import time

import numpy as np

from conftest import FIXTURE_CLUSTER_SIZES, FIXTURE_MODELS, make_rng, random_parent_map

from suitgraph import (
    CampaignConfig,
    ExperienceKey,
    GroundTruthMatrix,
    KnowledgeBase,
    SuitabilityConfig,
    household_taxonomy_path,
    init_graph,
    load_hierarchy,
    run_campaign,
    specification_check,
    update_posteriors,
)
from suitgraph.canonical import dumps as canonical_dumps
from suitgraph.cli import main
from suitgraph.ontology import ClassHierarchy, ObjectCluster, parse_json_tree
from suitgraph.simulate import report_csv, summarize
from suitgraph.suitability import ExperienceRecord, deterministic_success_probability

ONTOLOGY = str(household_taxonomy_path())

UPDATE_TOLERANCE = 1e-12          # posterior update vs independent oracle
NORMALIZATION_TOLERANCE = 1e-9    # per-step posterior mass
CLUSTER_TIME_BUDGET = 1.0         # seconds, criterion 1
CAMPAIGN_TIME_BUDGET = 30.0       # seconds, criteria 5 and 6
SEED_COUNT = 100

CONVERGE_SHARE = 0.90             # best-model share of the final window
CONVERGE_SEEDS = 95               # seeds that must reach that share
OVERRIDE_SEEDS = 90               # seeds where experience must beat similarity
SPECIFICATION_SEEDS = 95          # seeds that must flag a hopeless target
FINAL_WINDOW = 50                 # trailing trials scored per campaign


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    return ok


def _campaign(targets, gt_probs, *, trials, seed, override=None, store=None):
    hierarchy = load_hierarchy(ONTOLOGY)
    gt = GroundTruthMatrix(gt_probs)
    config = CampaignConfig(
        targets=tuple(targets),
        trials_per_object=trials,
        seed=seed,
        similarity_override=override,
    )
    return run_campaign(config, hierarchy, FIXTURE_MODELS, gt, store)


# -- criterion 1: candidate clusters through the CLI -------------------------


def test_criterion_1_cluster_sizes(capsys):
    ok = False
    try:
        start = time.perf_counter()
        sizes = {}
        for target in FIXTURE_CLUSTER_SIZES:
            rc = main(["cluster", "--ontology", ONTOLOGY,
                       "--models", ",".join(sorted(FIXTURE_MODELS)), target])
            out = capsys.readouterr().out
            assert rc == 0
            sizes[target] = int(out.strip().splitlines()[-1].split(": ")[1])
        elapsed = time.perf_counter() - start
        ok = sizes == FIXTURE_CLUSTER_SIZES and elapsed < CLUSTER_TIME_BUDGET
    finally:
        _report(1, "candidate cluster sizes via the CLI", ok)
    assert ok


# -- criterion 2: decision-threshold crossing is exact ------------------------


def test_criterion_2_threshold_crossing():
    ok = False
    try:
        cfg = SuitabilityConfig(alpha0=3.0, beta0=3.0, tau=0.6)
        means = {
            n_plus: deterministic_success_probability(
                ExperienceRecord(n_success=n_plus, n_failure=10 - n_plus), cfg)
            for n_plus in range(11)
        }
        crossing = min(n for n, p in means.items() if p >= cfg.tau)
        ok = (
            crossing == 7
            and means[7] == 9.0 / 14.0
            and means[6] == 8.0 / 14.0
            and means[7] >= cfg.tau
            and means[6] < cfg.tau
        )
    finally:
        _report(2, "threshold crossing at 7 of 10 successes, exact", ok)
    assert ok


# -- criterion 3: posterior update against an independent oracle -------------


def _make_graph(sims, priors):
    cfg = SuitabilityConfig()
    graph = init_graph(ObjectCluster("t", frozenset(sims)), sims, cfg)
    graph.post = np.array([priors[name] for name in graph.candidates])
    return graph, cfg


def _naive(sims, priors, estimates):
    weights = {n: sims[n] * estimates[n] * priors[n] for n in sims}
    total = sum(weights.values())
    return {n: w / total for n, w in weights.items()}


def test_criterion_3_update_oracle():
    ok = False
    try:
        # hand oracle: 0.45 and 0.15 raw mass, so 3/4 and 1/4
        graph, cfg = _make_graph({"a": 0.9, "b": 0.3}, {"a": 0.5, "b": 0.5})
        est = {"a": 0.5, "b": 0.5}
        update_posteriors(graph, cfg, make_rng(0),
                          estimator=lambda n, r, c, g: est[n])
        hand_ok = (
            abs(graph.posterior("a") - 0.75) <= UPDATE_TOLERANCE
            and abs(graph.posterior("b") - 0.25) <= UPDATE_TOLERANCE
        )

        worst = 0.0
        for seed in range(1000):
            rng = make_rng(seed)
            n = int(rng.integers(2, 7))
            names = [f"m{i}" for i in range(n)]
            sims = {m: float(rng.uniform(0.05, 1.0)) for m in names}
            raw = {m: float(rng.uniform(0.01, 1.0)) for m in names}
            total = sum(raw.values())
            priors = {m: v / total for m, v in raw.items()}
            estimates = {m: float(rng.uniform(0.01, 0.99)) for m in names}
            graph, cfg = _make_graph(sims, priors)
            update_posteriors(graph, cfg, rng,
                              estimator=lambda nm, r, c, g: estimates[nm])
            expected = _naive(sims, priors, estimates)
            worst = max(worst, max(abs(graph.posterior(m) - expected[m]) for m in names))
        ok = hand_ok and worst <= UPDATE_TOLERANCE
    finally:
        _report(3, "posterior update matches product oracle to 1e-12", ok)
    assert ok


# -- criterion 4: single candidate keeps the whole posterior -----------------


def test_criterion_4_single_candidate():
    ok = False
    try:
        ok = True
        for seed in range(SEED_COUNT):
            log = _campaign(["banana"], {("banana", "apple"): 0.5}, trials=20, seed=seed)
            for step in log.steps:
                if step.posteriors != {"apple": 1.0}:
                    ok = False
    finally:
        _report(4, "single candidate holds posterior exactly 1.0", ok)
    assert ok


# -- criterion 5: convergence to the better model ------------------------------


def test_criterion_5_convergence():
    ok = False
    try:
        probs = {("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.2}
        start = time.perf_counter()
        good_seeds = 0
        for seed in range(SEED_COUNT):
            log = _campaign(["tomato_can"], probs, trials=200, seed=seed)
            tail = log.steps[-FINAL_WINDOW:]
            share = sum(1 for s in tail if s.selected == "chips_can") / FINAL_WINDOW
            if share >= CONVERGE_SHARE:
                good_seeds += 1
        elapsed = time.perf_counter() - start
        ok = good_seeds >= CONVERGE_SEEDS and elapsed < CAMPAIGN_TIME_BUDGET
    finally:
        _report(5, "selection converges on the higher-success model", ok)
    assert ok


# -- criterion 6: accumulated experience outweighs similarity -------------------


def test_criterion_6_experience_beats_similarity():
    ok = False
    try:
        # the similar candidate fails, the dissimilar one works
        override = {("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.5}
        probs = {("tomato_can", "chips_can"): 0.1, ("tomato_can", "sugar_box"): 0.9}
        start = time.perf_counter()
        good_seeds = 0
        for seed in range(SEED_COUNT):
            log = _campaign(["tomato_can"], probs, trials=200, seed=seed,
                            override=override)
            tail = log.steps[-FINAL_WINDOW:]
            wins = sum(1 for s in tail if s.selected == "sugar_box")
            if wins > FINAL_WINDOW // 2:
                good_seeds += 1
        elapsed = time.perf_counter() - start
        ok = good_seeds >= OVERRIDE_SEEDS and elapsed < CAMPAIGN_TIME_BUDGET
    finally:
        _report(6, "experience overrides ontological similarity", ok)
    assert ok


# -- criterion 7: hopeless targets trigger specification -------------------------


def test_criterion_7_specification():
    ok = False
    try:
        hierarchy = load_hierarchy(ONTOLOGY)
        cfg = SuitabilityConfig()
        cluster = hierarchy.object_cluster("wine_glass", FIXTURE_MODELS.__contains__)
        flagged = 0
        for seed in range(SEED_COUNT):
            kb = KnowledgeBase(cfg, hierarchy.checksum())
            _campaign(["wine_glass"], {("wine_glass", "mug"): 0.05},
                      trials=10, seed=seed, store=kb)
            records = {
                m: kb.query(ExperienceKey("default", "default", "wine_glass", m))
                or ExperienceRecord()
                for m in cluster.members
            }
            if specification_check("wine_glass", cluster, records, cfg):
                flagged += 1
        ok = flagged >= SPECIFICATION_SEEDS
    finally:
        _report(7, "persistent failure flags the need for a new model", ok)
    assert ok


# -- criterion 8: similarity measure properties -----------------------------------


def _similarity_properties(hierarchy) -> list[str]:
    bad = []
    classes = sorted(hierarchy.classes)
    for a in classes:
        for b in classes:
            s = hierarchy.wup_similarity(a, b)
            if not (0.0 < s <= 1.0):
                bad.append(f"range violation {a}/{b}: {s}")
            if abs(s - hierarchy.wup_similarity(b, a)) != 0.0:
                bad.append(f"asymmetry {a}/{b}")
            if (s == 1.0) != (a == b):
                bad.append(f"identity violation {a}/{b}: {s}")
    for name in classes:
        parent = hierarchy.parent(name)
        siblings = hierarchy.siblings(name)
        if parent is None or not siblings:
            continue
        sib_sim = min(hierarchy.wup_similarity(name, sib) for sib in siblings)
        # the direct parent is the one strict ancestor allowed to score higher
        if hierarchy.wup_similarity(name, parent) <= sib_sim:
            bad.append(f"parent not above siblings for {name}")
        for anc in hierarchy.ancestors(name):
            if anc == parent:
                continue
            if hierarchy.wup_similarity(name, anc) >= sib_sim:
                bad.append(f"ancestor {anc} not below siblings for {name}")
    return bad


def test_criterion_8_similarity_properties():
    ok = False
    try:
        bad = _similarity_properties(load_hierarchy(ONTOLOGY))
        for seed in range(SEED_COUNT):
            tree = ClassHierarchy(random_parent_map(make_rng(1000 + seed), max_nodes=50))
            bad.extend(_similarity_properties(tree))
        ok = not bad
    finally:
        _report(8, "similarity symmetry, range, and sibling preference", ok)
    assert ok, bad[:5]


# -- criterion 9: byte-level reproducibility ----------------------------------------


def test_criterion_9_reproducibility():
    ok = False
    try:
        probs = {("tomato_can", "chips_can"): 0.7, ("tomato_can", "sugar_box"): 0.4}
        hierarchy = load_hierarchy(ONTOLOGY)
        cfg = SuitabilityConfig()

        runs = []
        for _ in range(2):
            kb = KnowledgeBase(cfg, hierarchy.checksum())
            log = _campaign(["tomato_can"], probs, trials=40, seed=11, store=kb)
            runs.append((log.to_json(), report_csv(summarize(log)), kb.export_json()))
        same_seed = runs[0] == runs[1]

        other = _campaign(["tomato_can"], probs, trials=40, seed=12)
        seed_sensitive = other.to_json() != runs[0][0]

        kb = KnowledgeBase(cfg, hierarchy.checksum())
        _campaign(["tomato_can"], probs, trials=40, seed=11, store=kb)
        text = kb.export_json()
        kb_round = KnowledgeBase.import_json(text).export_json() == text

        tree_round = parse_json_tree(hierarchy.to_json_tree()).checksum() == hierarchy.checksum()

        order_free = (canonical_dumps({"b": 1, "a": [1.5, None]})
                      == canonical_dumps({"a": [1.5, None], "b": 1}))

        ok = same_seed and seed_sensitive and kb_round and tree_round and order_free
    finally:
        _report(9, "seeded runs and serializations are byte-stable", ok)
    assert ok


# -- criterion 10: posterior mass is conserved at every step -------------------------


def test_criterion_10_normalization():
    ok = False
    try:
        worst = 0.0
        checked = 0
        configs = [
            ({("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.2},
             None, 200, 20),
            ({("tomato_can", "chips_can"): 0.1, ("tomato_can", "sugar_box"): 0.9},
             {("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.5}, 200, 20),
            ({("wine_glass", "mug"): 0.05}, None, 10, SEED_COUNT),
        ]
        for probs, override, trials, seeds in configs:
            for seed in range(seeds):
                log = _campaign(sorted({t for t, _ in probs}), probs,
                                trials=trials, seed=seed, override=override)
                for step in log.steps:
                    if not step.posteriors:
                        continue
                    worst = max(worst, abs(math.fsum(step.posteriors.values()) - 1.0))
                    checked += 1
        ok = checked > 0 and worst <= NORMALIZATION_TOLERANCE
    finally:
        _report(10, "posterior mass stays within 1e-9 of 1 every step", ok)
    assert ok


# one machine-checkable summary of what the gate covers
def test_gate_is_complete():
    with open(__file__, encoding="utf-8") as fh:
        source = fh.read()
    criteria = {int(num) for num in re.findall(r"_report\((\d+),", source)}
    assert criteria == set(range(1, 11))
