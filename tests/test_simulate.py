import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_MODELS, make_rng, random_parent_map
from suitgraph import (
    CampaignConfig,
    ExperienceKey,
    GroundTruthMatrix,
    KnowledgeBase,
    SuitabilityConfig,
    UnknownClassError,
    init_graph,
    run_campaign,
)
from suitgraph import canonical, simulate
from suitgraph.ontology import ClassHierarchy, ObjectCluster
from suitgraph.simulate import (
    STRATEGIES,
    baseline_select,
    report_csv,
    report_json,
    TargetSummary,
    TrialLog,
    TrialStep,
    simulate_execution,
    summarize,
)
from suitgraph.suitability import PARAM_FLOOR

CFG = SuitabilityConfig()


# -- ground truth ---------------------------------------------------------------


def test_gt_lookup_and_default():
    gt = GroundTruthMatrix({("banana", "apple"): 0.9}, default=0.1)
    assert gt.probability("banana", "apple") == 0.9
    assert gt.probability("banana", "mug") == 0.1


def test_gt_validation():
    with pytest.raises(ValueError, match="out of"):
        GroundTruthMatrix({("a", "b"): 1.5})
    with pytest.raises(ValueError, match="default"):
        GroundTruthMatrix({}, default=-0.2)


def test_gt_from_json():
    text = json.dumps({
        "default": 0.05,
        "entries": [
            {"target": "banana", "model": "apple", "p": 0.9},
            {"target": "wine_glass", "model": "mug", "p": 0.2},
        ],
    })
    gt = GroundTruthMatrix.from_json(text)
    assert gt.probability("banana", "apple") == 0.9
    assert gt.default == 0.05
    assert gt.targets() == ["banana", "wine_glass"]
    assert gt.models() == ["apple", "mug"]


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2]",
        '{"unknown": 1}',
        '{"entries": [{"target": "a", "model": "b"}]}',
        '{"entries": [{"target": "a", "model": "b", "p": "hi"}]}',
        '{"entries": [{"target": "", "model": "b", "p": 0.5}]}',
        '{"default": "x"}',
        '{"entries": [{"target": "a", "model": "b", "p": 0.5},'
        ' {"target": "a", "model": "b", "p": 0.6}]}',
    ],
)
def test_gt_from_json_rejects(doc):
    with pytest.raises(ValueError):
        GroundTruthMatrix.from_json(doc)


def test_simulate_execution_extremes():
    gt = GroundTruthMatrix({("t", "sure"): 1.0, ("t", "never"): 0.0})
    rng = make_rng(0)
    assert all(simulate_execution(gt, "t", "sure", rng) for _ in range(200))
    assert not any(simulate_execution(gt, "t", "never", rng) for _ in range(200))


def test_simulate_execution_rate():
    gt = GroundTruthMatrix({("t", "m"): 0.3})
    rng = make_rng(123)
    hits = sum(simulate_execution(gt, "t", "m", rng) for _ in range(10_000))
    assert hits / 10_000 == pytest.approx(0.3, abs=0.02)


def test_simulate_execution_consumes_one_draw():
    gt = GroundTruthMatrix({("t", "m"): 0.5})
    rng = make_rng(9)
    simulate_execution(gt, "t", "m", rng)
    reference = make_rng(9)
    reference.random()
    assert rng.random() == reference.random()


# -- campaign configuration ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"targets": ()},
        {"targets": ("a", "a")},
        {"targets": ("a",), "trials_per_object": 0},
        {"targets": ("a",), "strategy": "greedy"},
        {"targets": ("a",), "seed": -1},
        # the trial log would hold true for these integer fields
        {"targets": ("a",), "trials_per_object": True},
        {"targets": ("a",), "seed": True},
    ],
)
def test_campaign_config_validation(kwargs):
    with pytest.raises(ValueError):
        CampaignConfig(**kwargs)


@pytest.mark.parametrize("cap", [True, 2.5, -1])
def test_campaign_config_refuses_cap_that_is_not_a_non_negative_int(cap):
    # refused when the config is made, not when a round builds a cluster;
    # True and 2.5 used to run and be logged as true and 2.5
    with pytest.raises(ValueError, match="max_ancestor_hops"):
        CampaignConfig(targets=("tomato_can",), max_ancestor_hops=cap)


# -- baseline selectors ---------------------------------------------------------------


def fresh_graph(sims):
    cluster = ObjectCluster("t", frozenset(sims))
    return init_graph(cluster, sims, CFG)


def test_baseline_similarity_only():
    g = fresh_graph({"near": 0.9, "far": 0.4})
    assert baseline_select("similarity-only", g, make_rng(0)) == "near"


def test_baseline_count_only():
    g = fresh_graph({"a": 0.5, "b": 0.5})
    g.n_success[:] = [9, 1]
    g.n_failure[:] = [1, 9]
    assert baseline_select("count-only", g, make_rng(0)) == "a"


def test_baseline_random_is_uniform():
    g = fresh_graph({"a": 0.9, "b": 0.1, "c": 0.5})
    rng = make_rng(17)
    counts = {"a": 0, "b": 0, "c": 0}
    for _ in range(9000):
        counts[baseline_select("random", g, rng)] += 1
    for share in counts.values():
        assert share / 9000 == pytest.approx(1 / 3, abs=0.03)


def test_baseline_tie_break_random():
    g = fresh_graph({"a": 0.7, "b": 0.7})
    seen = {baseline_select("similarity-only", g, make_rng(s)) for s in range(30)}
    assert seen == {"a", "b"}


def test_baseline_rejects_unknown_and_primary_strategy():
    g = fresh_graph({"a": 0.5})
    with pytest.raises(ValueError):
        baseline_select("suitability", g, make_rng(0))
    with pytest.raises(ValueError):
        baseline_select("epsilon-greedy", g, make_rng(0))


# -- campaigns -------------------------------------------------------------------------


def simple_gt():
    return GroundTruthMatrix({
        ("tomato_can", "chips_can"): 0.9,
        ("tomato_can", "sugar_box"): 0.2,
    })


def test_run_campaign_shape(household):
    config = CampaignConfig(targets=("tomato_can", "banana"), trials_per_object=5, cfg=CFG, seed=3)
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    assert len(log.steps) == 10
    assert [s.target for s in log.steps] == ["tomato_can"] * 5 + ["banana"] * 5
    assert [s.trial for s in log.steps[:5]] == list(range(5))


def test_run_campaign_unknown_target(household):
    config = CampaignConfig(targets=("flux_capacitor",), cfg=CFG)
    with pytest.raises(UnknownClassError):
        run_campaign(config, household, FIXTURE_MODELS, simple_gt())


def test_run_campaign_byte_identical_repeats(household):
    config = CampaignConfig(targets=("tomato_can",), trials_per_object=30, cfg=CFG, seed=11)
    log1 = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    log2 = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    assert log1.to_json() == log2.to_json()
    assert report_csv(summarize(log1)) == report_csv(summarize(log2))
    assert report_json(summarize(log1)) == report_json(summarize(log2))


def test_campaign_step_maps_belong_to_the_caller(household):
    # every round's similarity, estimate and count maps are fresh dicts, and
    # a kept graph's count map follows its count columns after every round
    config = CampaignConfig(targets=("tomato_can", "pitcher", "banana"), trials_per_object=6, cfg=CFG, seed=5)
    clean_kb = KnowledgeBase(CFG, household.checksum())
    clean = run_campaign(config, household, FIXTURE_MODELS, simple_gt(), clean_kb)
    text = clean.to_json()
    real_round = simulate.generalise_execution_model
    seen = []

    def round_then_clear(*args, trace, beliefs, **kwargs):
        result = real_round(*args, trace=trace, beliefs=beliefs, **kwargs)
        for graph in beliefs.values():
            assert graph.count_map == graph.counts()
        seen.append((dict(trace["similarities"]), dict(trace["counts"])))
        # a later round must not see this
        trace["similarities"].clear()
        trace["counts"].clear()
        trace["estimates"].clear()
        assert all(len(graph.estimates) == len(graph.candidates) for graph in beliefs.values())
        return result

    kb = KnowledgeBase(CFG, household.checksum())
    with mock.patch.object(simulate, "generalise_execution_model", round_then_clear):
        run_campaign(config, household, FIXTURE_MODELS, simple_gt(), kb)
    assert seen == [(s.similarities, s.counts) for s in clean.steps]
    assert kb.export_json() == clean_kb.export_json()

    later = [(dict(s.similarities), dict(s.counts)) for s in clean.steps[1:]]
    first = clean.steps[0]
    for name in list(first.similarities):
        first.similarities[name] = 0.5
        first.counts[name] = (99, 99)
    first.similarities["intruder"] = 1.0
    assert [(s.similarities, s.counts) for s in clean.steps[1:]] == later
    assert run_campaign(config, household, FIXTURE_MODELS, simple_gt()).to_json() == text


def test_run_campaign_seed_changes_log(household):
    logs = set()
    for seed in range(3):
        config = CampaignConfig(targets=("tomato_can",), trials_per_object=20, cfg=CFG, seed=seed)
        logs.add(run_campaign(config, household, FIXTURE_MODELS, simple_gt()).to_json())
    assert len(logs) == 3


def test_run_campaign_populates_store(household):
    config = CampaignConfig(targets=("tomato_can",), trials_per_object=12, cfg=CFG, seed=1)
    kb = KnowledgeBase(CFG, household.checksum())
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt(), kb)
    total = sum(rec.trial_count for _, rec in kb.items())
    assert total == 12
    last = log.steps[-1]
    for cand, (ns, nf) in last.counts.items():
        rec = kb.query(ExperienceKey("default", "default", "tomato_can", cand))
        assert (rec.n_success, rec.n_failure) == (ns, nf)


def test_run_campaign_posteriors_normalized_every_step(household):
    config = CampaignConfig(targets=("tomato_can",), trials_per_object=50, cfg=CFG, seed=5)
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    for step in log.steps:
        assert step.posteriors
        assert sum(step.posteriors.values()) == pytest.approx(1.0, abs=1e-9)


def test_run_campaign_own_model_steps(household):
    gt = GroundTruthMatrix({("apple", "apple"): 1.0})
    config = CampaignConfig(targets=("apple",), trials_per_object=4, cfg=CFG, seed=0)
    kb = KnowledgeBase(CFG, household.checksum())
    log = run_campaign(config, household, FIXTURE_MODELS, gt, kb)
    assert all(s.own_model for s in log.steps)
    assert all(s.selected == "apple" and s.outcome for s in log.steps)
    assert all(s.posteriors == {} for s in log.steps)
    assert len(kb) == 0


def test_run_campaign_empty_cluster_steps(household):
    config = CampaignConfig(targets=("thing",), trials_per_object=3, cfg=CFG, seed=0)
    kb = KnowledgeBase(CFG, household.checksum())
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt(), kb)
    assert all(s.specification_needed for s in log.steps)
    assert all(s.selected is None and s.outcome is None for s in log.steps)
    assert all(s.cluster_size == 0 for s in log.steps)
    assert len(kb) == 0


def test_run_campaign_store_carries_over(household):
    config1 = CampaignConfig(targets=("tomato_can",), trials_per_object=10, cfg=CFG, seed=2)
    kb = KnowledgeBase(CFG, household.checksum())
    run_campaign(config1, household, FIXTURE_MODELS, simple_gt(), kb)
    counts_before = {
        m: kb.query(ExperienceKey("default", "default", "tomato_can", m)).trial_count
        for m in ("chips_can", "sugar_box")
    }
    config2 = CampaignConfig(targets=("tomato_can",), trials_per_object=10, cfg=CFG, seed=3)
    run_campaign(config2, household, FIXTURE_MODELS, simple_gt(), kb)
    for m in ("chips_can", "sugar_box"):
        after = kb.query(ExperienceKey("default", "default", "tomato_can", m)).trial_count
        assert after >= counts_before[m]
    assert sum(
        kb.query(ExperienceKey("default", "default", "tomato_can", m)).trial_count
        for m in ("chips_can", "sugar_box")
    ) == 20


def test_run_campaign_reset_posteriors_discards_skew(household):
    kb = KnowledgeBase(CFG, household.checksum())
    kb.set_posterior(ExperienceKey("default", "default", "tomato_can", "chips_can"), 0.99)
    kb.set_posterior(ExperienceKey("default", "default", "tomato_can", "sugar_box"), 0.01)

    def first_step(reset: bool) -> dict:
        store = KnowledgeBase.import_json(kb.export_json())
        config = CampaignConfig(
            targets=("tomato_can",), trials_per_object=1, cfg=CFG, seed=4,
            reset_posteriors=reset)
        log = run_campaign(config, household, FIXTURE_MODELS, simple_gt(), store)
        return log.steps[0].posteriors

    skewed = first_step(False)
    reset = first_step(True)
    # same seed, same estimates; only the prior differs
    assert skewed["chips_can"] > reset["chips_can"]


def test_run_campaign_similarity_override_logged(household):
    config = CampaignConfig(
        targets=("tomato_can",), trials_per_object=2, cfg=CFG, seed=0,
        similarity_override={
            ("tomato_can", "chips_can"): 0.9,
            ("tomato_can", "sugar_box"): 0.5,
        })
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    for step in log.steps:
        assert step.similarities == {"chips_can": 0.9, "sugar_box": 0.5}


def seeded_world(seed):
    """Random small taxonomy, registry, ground truth and pre-seeded store.

    Stored posteriors are left unnormalised, some are exactly 0, and some
    targets carry no posterior mass at all.
    """
    rng = make_rng(seed)
    hierarchy = ClassHierarchy(random_parent_map(rng, max_nodes=14))
    classes = sorted(hierarchy.classes)
    registry = frozenset(c for c in classes if rng.random() < 0.5)
    targets = tuple(c for c in classes if rng.random() < 0.6) or (classes[0],)
    gt = GroundTruthMatrix({(t, m): float(rng.uniform(0.05, 0.95))
                            for t in targets for m in classes}, default=0.5)
    cfg = SuitabilityConfig(beta_sample_count=int(rng.integers(1, 12)))
    kb = KnowledgeBase(cfg, hierarchy.checksum())
    for t in targets:
        zero_mass = rng.random() < 0.25
        for m in sorted(hierarchy.object_cluster(t, registry.__contains__).members):
            if rng.random() < 0.3:
                continue
            key = ExperienceKey("default", "default", t, m)
            posterior = 0.0 if zero_mass or rng.random() < 0.2 else float(rng.random())
            kb.set_posterior(key, posterior)
            for _ in range(int(rng.integers(0, 6))):
                kb.append(key, bool(rng.random() < 0.5), posterior)
    overrides = {(t, m): float(rng.uniform(0.1, 1.0)) for t in targets for m in classes
                 if m != t and rng.random() < 0.3}
    config = CampaignConfig(
        targets=targets, trials_per_object=int(rng.integers(1, 8)), cfg=cfg,
        strategy=STRATEGIES[int(rng.integers(len(STRATEGIES)))], seed=seed,
        reset_posteriors=bool(rng.random() < 0.3),
        similarity_override=overrides if rng.random() < 0.5 else None)
    return config, hierarchy, registry, gt, kb


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_run_campaign_reused_beliefs_equal_rebuild_every_round(seed):
    config, hierarchy, registry, gt, kb = seeded_world(seed)
    rebuilt_kb = KnowledgeBase.import_json(kb.export_json())
    reused = run_campaign(config, hierarchy, registry, gt, kb)

    round_ = simulate.generalise_execution_model
    built: set = set()

    def rebuild_every_round(target, *args, beliefs, reset_posteriors, **kwargs):
        # the reference: build from the store and write all snapshots every
        # round; a reset applies in the target's first round only
        first = target not in built
        built.add(target)
        return round_(target, *args, beliefs=None,
                      reset_posteriors=reset_posteriors and first, **kwargs)

    with mock.patch.object(simulate, "generalise_execution_model", rebuild_every_round):
        rebuilt = run_campaign(config, hierarchy, registry, gt, rebuilt_kb)
    assert reused.to_json() == rebuilt.to_json()
    assert kb.export_json() == rebuilt_kb.export_json()


def test_run_campaign_converges_to_best(household):
    config = CampaignConfig(targets=("tomato_can",), trials_per_object=100, cfg=CFG, seed=8)
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    final = log.steps[-20:]
    assert sum(1 for s in final if s.selected == "chips_can") >= 18


def test_run_campaign_baseline_strategies_run(household):
    for strategy in ("random", "similarity-only", "count-only"):
        config = CampaignConfig(
            targets=("tomato_can",), trials_per_object=10, cfg=CFG, seed=6, strategy=strategy)
        log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
        assert len(log.steps) == 10
        assert all(s.selected in {"chips_can", "sugar_box"} for s in log.steps)
        # posterior bookkeeping runs for baselines too
        for step in log.steps:
            assert sum(step.posteriors.values()) == pytest.approx(1.0, abs=1e-9)


def test_suitability_beats_random_on_skewed_world(household):
    # ontology-guided selection should collect more successes than the
    # random ablation on a world where one candidate is far better
    def successes(strategy: str) -> int:
        total = 0
        for seed in range(20):
            config = CampaignConfig(
                targets=("tomato_can",), trials_per_object=30, cfg=CFG,
                seed=seed, strategy=strategy)
            log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
            total += sum(1 for s in log.steps if s.outcome)
        return total

    assert successes("suitability") > successes("random")


# -- reports ------------------------------------------------------------------------


def test_summary_banana(household):
    gt = GroundTruthMatrix({("banana", "apple"): 0.95})
    config = CampaignConfig(targets=("banana",), trials_per_object=10, cfg=CFG, seed=1)
    log = run_campaign(config, household, FIXTURE_MODELS, gt)
    (row,) = summarize(log)
    assert row.target == "banana"
    assert row.cluster_size == 1
    assert row.models_attempted == 1
    assert row.o_star == "apple"
    assert 0 <= row.n_success <= 10


def test_summary_hopeless_target_gets_slash(household):
    gt = GroundTruthMatrix({("wine_glass", "mug"): 0.05})
    config = CampaignConfig(targets=("wine_glass",), trials_per_object=10, cfg=CFG, seed=0)
    log = run_campaign(config, household, FIXTURE_MODELS, gt)
    (row,) = summarize(log)
    assert row.o_star == "/"


def test_summary_own_model_target(household):
    gt = GroundTruthMatrix({("apple", "apple"): 1.0})
    config = CampaignConfig(targets=("apple",), trials_per_object=5, cfg=CFG, seed=0)
    log = run_campaign(config, household, FIXTURE_MODELS, gt)
    (row,) = summarize(log)
    assert row.o_star == "apple"
    assert row.n_success == 5
    assert row.models_attempted == 1


def reference_o_star(counts, cfg):
    """Per-candidate o_star: the best posterior mean among those reaching
    tau, the lexicographically first on a tie, "/" when none reaches it."""
    qualified = {}
    for cand, (ns, nf) in counts.items():
        a = max(cfg.alpha0 + ns - 1.0, PARAM_FLOOR)
        b = max(cfg.beta0 + nf - 1.0, PARAM_FLOOR)
        if a / (a + b) >= cfg.tau:
            qualified[cand] = a / (a + b)
    if not qualified:
        return "/"
    top = max(qualified.values())
    return min(c for c, m in qualified.items() if m == top)


_count = st.one_of(st.integers(0, 6), st.integers(0, 2**63 - 1))
_last_counts = st.dictionaries(st.sampled_from(["c", "a", "d", "b", "e"]), st.tuples(_count, _count), max_size=5)
_summary_cfg = st.builds(
    SuitabilityConfig,
    alpha0=st.sampled_from([0.5, 1.0, 3.0]),
    beta0=st.sampled_from([0.5, 1.0, 3.0]),
    tau=st.sampled_from([0.1, 0.5, 0.6, 0.9]),
)


@given(st.lists(_last_counts, min_size=1, max_size=4), _summary_cfg)
@example([{"b": (4, 0), "a": (4, 0), "c": (1, 1)}], CFG)  # tie at the top
@example([{"b": (0, 4), "a": (1, 1)}], CFG)  # none reaches tau
@example([{}], CFG)  # empty counts: an empty cluster's round
@example([{"a": (2, 3), "b": (5, 0)}, {"a": (9, 0), "b": (9, 0)}], SuitabilityConfig(alpha0=1.0, beta0=1.0))
def test_summary_o_star_matches_per_candidate_reference(last_counts, cfg):
    targets = tuple(f"t{i}" for i in range(len(last_counts)))
    steps = [
        TrialStep(trial=0, target=target, cluster_size=len(counts), selected=None, outcome=None,
                  own_model=False, specification_needed=not counts, similarities={},
                  estimates={}, posteriors={}, counts=counts)
        for target, counts in zip(targets, last_counts)
    ]
    rows = summarize(TrialLog(CampaignConfig(targets=targets, cfg=cfg), steps))
    assert [row.o_star for row in rows] == [reference_o_star(counts, cfg) for counts in last_counts]
    assert all(type(row.o_star) is str for row in rows)


def test_report_csv_shape(household):
    config = CampaignConfig(targets=("banana", "tomato_can"), trials_per_object=5, cfg=CFG, seed=2)
    gt = GroundTruthMatrix({("banana", "apple"): 0.9, ("tomato_can", "chips_can"): 0.9})
    log = run_campaign(config, household, FIXTURE_MODELS, gt)
    text = report_csv(summarize(log))
    lines = text.strip().split("\n")
    assert lines[0] == "target,cluster_size,models_attempted,o_star,n_success"
    assert len(lines) == 3
    assert lines[1].startswith("banana,1,")
    assert lines[2].startswith("tomato_can,2,")


def test_report_json_mirrors_csv(household):
    config = CampaignConfig(targets=("banana",), trials_per_object=5, cfg=CFG, seed=2)
    gt = GroundTruthMatrix({("banana", "apple"): 0.9})
    rows = summarize(run_campaign(config, household, FIXTURE_MODELS, gt))
    doc = json.loads(report_json(rows))
    assert doc == [{
        "target": "banana",
        "cluster_size": 1,
        "models_attempted": 1,
        "o_star": rows[0].o_star,
        "n_success": rows[0].n_success,
    }]


def reference_report_csv(rows):
    """The report's columns, written out by hand."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "cluster_size", "models_attempted", "o_star", "n_success"])
    for row in rows:
        writer.writerow([row.target, row.cluster_size, row.models_attempted, row.o_star, row.n_success])
    return buf.getvalue()


def reference_report_json(rows):
    """The report's rows as objects, written out by hand."""
    return canonical.dumps([
        {
            "cluster_size": row.cluster_size,
            "models_attempted": row.models_attempted,
            "n_success": row.n_success,
            "o_star": row.o_star,
            "target": row.target,
        }
        for row in rows
    ])


# names that need CSV quoting or JSON escaping
REPORT_NAMES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\rlf\n", "épée", "杯子", " lead", "/", "%s"]),
)


@settings(max_examples=200)
@given(st.lists(st.builds(
    TargetSummary,
    target=REPORT_NAMES,
    cluster_size=st.integers(0, 3000),
    models_attempted=st.integers(0, 3000),
    o_star=REPORT_NAMES,
    n_success=st.integers(0, 10**6),
), max_size=6))
def test_reports_match_reference(rows):
    assert report_csv(rows) == reference_report_csv(rows)
    assert report_json(rows) == reference_report_json(rows)


def test_trial_log_json_parses_and_is_stable(household):
    config = CampaignConfig(targets=("tomato_can",), trials_per_object=4, cfg=CFG, seed=9)
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    text = log.to_json()
    doc = json.loads(text)
    assert doc["config"]["targets"] == ["tomato_can"]
    assert doc["config"]["strategy"] == "suitability"
    assert len(doc["steps"]) == 4
    step = doc["steps"][0]
    assert set(step) == {
        "cluster_size", "counts", "estimates", "outcome", "own_model",
        "posteriors", "selected", "similarities", "specification_needed",
        "target", "trial",
    }


# -- trial log bytes ---------------------------------------------------------------


def reference_log_json(log: TrialLog) -> str:
    """``TrialLog.to_json`` as one ``canonical.dumps`` of the whole document,
    the emitter the per-shape templates replaced."""
    override = log.config.similarity_override
    override_rows = (
        None
        if override is None
        else [[t, c, float(s)] for (t, c), s in sorted(override.items())]
    )
    doc = {
        "config": {
            "action": log.config.action,
            "cfg": {
                "alpha0": float(log.config.cfg.alpha0),
                "beta0": float(log.config.cfg.beta0),
                "beta_sample_count": log.config.cfg.beta_sample_count,
                "rng_seed": 0,
                "tau": float(log.config.cfg.tau),
            },
            "max_ancestor_hops": log.config.max_ancestor_hops,
            "mode": log.config.mode,
            "reset_posteriors": log.config.reset_posteriors,
            "seed": log.config.seed,
            "similarity_override": override_rows,
            "strategy": log.config.strategy,
            "targets": list(log.config.targets),
            "trials_per_object": log.config.trials_per_object,
        },
        "steps": [
            {
                "cluster_size": s.cluster_size,
                "counts": {c: [ns, nf] for c, (ns, nf) in s.counts.items()},
                "estimates": s.estimates,
                "outcome": s.outcome,
                "own_model": s.own_model,
                "posteriors": s.posteriors,
                "selected": s.selected,
                "similarities": s.similarities,
                "specification_needed": s.specification_needed,
                "target": s.target,
                "trial": s.trial,
            }
            for s in log.steps
        ],
    }
    return canonical.dumps(doc)


def log_outcome(emit, log):
    try:
        return ("text", emit(log))
    except (TypeError, ValueError) as exc:
        return ("error", type(exc))


# "%" sequences would break a template that did not double them
_LOG_CHARS = ["%", "%s", "%%", "%d", "%.17g", '"', "\\", "\x00", "é", "\U0001f600", "\ud800", "\udfff"]
_log_names = st.lists(st.one_of(st.characters(), st.sampled_from(_LOG_CHARS)), min_size=1, max_size=4).map("".join)
_log_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e300]),
)
# what JSON writes differently from an exact float, or cannot write at all
_odd_values = st.sampled_from([True, False, 1, 0, None, "x"])
_bad_values = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("inf"), object(), np.int64(3), b"x"])


def _variant(value, how):
    """A value equal to ``value`` under ``==`` whose canonical text may differ."""
    if type(value) is float:
        if how == "new-object":
            return float(repr(value))
        if how == "numpy":
            return np.float64(value)
        if how == "flip" and value == 0.0:
            return -value
        if how == "flip" and value == 1.0:
            return True
    if how == "flip" and value is True:
        return 1.0
    return value


@st.composite
def trial_logs(draw, bad=False):
    """Logs over arbitrary names: own-model, empty-cluster and graph steps;
    similarity maps that repeat, or differ only by -0.0/0.0, 1.0/True or
    numpy.float64; counts as tuples, lists, bools or huge ints."""
    floats = st.one_of(_log_floats, _log_floats.map(np.float64), _odd_values) if draw(st.booleans()) else _log_floats
    if bad:
        floats = st.one_of(floats, _bad_values)
    counts_item = st.integers(min_value=0, max_value=2**70)
    if bad:
        counts_item = st.one_of(counts_item, _bad_values)
    targets = draw(st.lists(_log_names, min_size=1, max_size=3, unique=True))
    steps = []
    for target in targets:
        kind = draw(st.sampled_from(["graph", "graph", "own", "empty"]))
        trials = draw(st.integers(min_value=1, max_value=4))
        if kind != "graph":
            for trial in range(trials):
                steps.append(TrialStep(
                    trial=trial, target=target, cluster_size=draw(st.integers(0, 3)),
                    selected=target if kind == "own" else None,
                    outcome=draw(st.sampled_from([True, False])) if kind == "own" else None,
                    own_model=kind == "own", specification_needed=kind == "empty",
                    similarities={}, estimates={}, posteriors={}, counts={}))
            continue
        names = draw(st.lists(_log_names, min_size=1, max_size=5, unique=True))
        sims = {name: draw(floats) for name in draw(st.permutations(names))}
        for trial in range(trials):
            how = draw(st.sampled_from(["same", "new-object", "flip", "numpy"]))
            sims = {name: _variant(value, how) for name, value in sims.items()}
            pairs = {name: (draw(counts_item), draw(counts_item)) for name in names}
            if draw(st.booleans()):
                shape = draw(st.sampled_from([list, lambda p: (bool(p[0]), p[1])]))
                pairs = {name: shape(p) for name, p in pairs.items()}
            steps.append(TrialStep(
                trial=trial, target=target, cluster_size=len(names),
                selected=draw(st.sampled_from(names)), outcome=draw(st.booleans()),
                own_model=False, specification_needed=False,
                similarities=sims,
                estimates={name: draw(floats) for name in names},
                posteriors={name: draw(floats) for name in draw(st.permutations(names))},
                counts=pairs))
    config = CampaignConfig(targets=tuple(targets), trials_per_object=1, seed=draw(st.integers(0, 9)),
                            action=draw(_log_names), mode=draw(_log_names))
    return TrialLog(config, steps)


def _step(target, similarities, trial=0):
    names = list(similarities)
    return TrialStep(trial=trial, target=target, cluster_size=len(names), selected=names[0], outcome=True,
                     own_model=False, specification_needed=False, similarities=similarities,
                     estimates=dict.fromkeys(names, 0.5), posteriors=dict.fromkeys(names, 1 / len(names)),
                     counts=dict.fromkeys(names, (1, 0)))


def _log(*steps):
    return TrialLog(CampaignConfig(targets=tuple(dict.fromkeys(s.target for s in steps))), list(steps))


@settings(max_examples=200)
@given(trial_logs())
@example(_log(_step("t", {"a": 0.25, "b": 0.0}), _step("t", {"a": 0.25, "b": -0.0}, 1)))
@example(_log(_step("t", {"a": 0.25, "b": 1.0}), _step("t", {"a": 0.25, "b": True}, 1)))
@example(_log(_step("t", {"a": 0.25, "b": 1.0}), _step("t", {"a": 0.25, "b": 1.0}, 1),
              _step("t", {"a": np.float64(0.25), "b": 1.0}, 2), _step("t", {"a": 0.25, "b": 1}, 3)))
@example(_log(_step("%s", {"%d": 0.5, "%%": 0.5, '"\\\ud800': 0.1}), _step("é", {"b": 0.5, "a": 0.5})))
# equal similarity values over other names: the first step's text must not be reused
@example(_log(_step("t", {"a": 0.5, "b": 0.25}), _step("u", {"c": 0.5, "d": 0.25})))
def test_trial_log_json_matches_one_dumps_of_the_document(log):
    assert log.to_json() == reference_log_json(log)


@settings(max_examples=200)
@given(trial_logs(bad=True))
@example(_log(_step("t", {"a": 0.25, "b": math.nan})))
@example(_log(_step("t", {"a": 0.25}), _step("t", {"a": math.inf}, 1)))
@example(_log(_step("t", {"a": object()})))
def test_trial_log_json_raises_like_one_dumps_of_the_document(log):
    assert log_outcome(TrialLog.to_json, log) == log_outcome(reference_log_json, log)


def test_trial_log_json_of_a_campaign_matches_one_dumps(household):
    config = CampaignConfig(targets=("banana", "apple", "tomato_can"), trials_per_object=5, cfg=CFG, seed=3)
    log = run_campaign(config, household, FIXTURE_MODELS, simple_gt())
    assert log.to_json() == reference_log_json(log)
