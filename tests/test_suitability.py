import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_MODELS, FixedEstimates, make_rng
from suitgraph import (
    EmptyClusterError,
    ExperienceKey,
    KnowledgeBase,
    MissingRecordError,
    NormalizationError,
    SuitabilityConfig,
    UnknownClassError,
    generalisation_check,
    generalise_execution_model,
    init_graph,
    select_model,
    specification_check,
    update_posteriors,
)
from suitgraph.ontology import ObjectCluster
from suitgraph.simulate import TrialStep
from suitgraph.suitability import (
    BETA_SAMPLE_MAX,
    PARAM_FLOOR,
    _ESTIMATE_EPS,
    ExperienceRecord,
    SuitabilityGraph,
    _left_sum,
    beta_parameters,
    deterministic_success_probability,
    graph_from_store,
    store_posteriors,
    success_probability,
)

CFG = SuitabilityConfig()  # alpha0=3, beta0=3, tau=0.6, 10 draws
# one beta draw per estimate: FixedEstimates then sets the estimates
ONE_DRAW = SuitabilityConfig(beta_sample_count=1)


def cluster_of(*members, target="t"):
    return ObjectCluster(target, frozenset(members))


def uniform_graph(*members, sims=None, cfg=CFG):
    members = list(members)
    similarities = sims if sims is not None else {m: 0.8 for m in members}
    return init_graph(cluster_of(*members), similarities, cfg)


# -- configuration and record types -------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha0": 0.0},
        {"alpha0": -1.0},
        {"beta0": 0.0},
        {"tau": 0.0},
        {"tau": 1.0},
        {"beta_sample_count": 0},
        {"beta_sample_count": 2.5},
        {"beta_sample_count": BETA_SAMPLE_MAX + 1},
        {"beta_sample_count": 2**40},
        # export_json would write true, which import_json refuses
        {"beta_sample_count": True},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SuitabilityConfig(**kwargs)


def test_config_accepts_largest_beta_sample_count():
    assert SuitabilityConfig(beta_sample_count=BETA_SAMPLE_MAX).beta_sample_count == BETA_SAMPLE_MAX


def test_key_validation():
    with pytest.raises(ValueError):
        ExperienceKey("", "m", "t", "c")
    with pytest.raises(ValueError):
        ExperienceKey("a", "m", "t", "")


def test_record_validation():
    with pytest.raises(ValueError):
        ExperienceRecord(n_success=-1)
    with pytest.raises(ValueError):
        ExperienceRecord(posterior=1.5)
    assert ExperienceRecord(2, 3).trial_count == 5


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60))
def test_left_sum_adds_left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    assert _left_sum(np.array(values)) == total


# -- beta-Bernoulli estimation ---------------------------------------------------


def test_beta_parameters_offset():
    assert beta_parameters(0, 0, CFG) == (2.0, 2.0)
    assert beta_parameters(9, 1, CFG) == (11.0, 3.0)


def test_beta_parameters_clamped():
    cfg = SuitabilityConfig(alpha0=1.0, beta0=1.0)
    a, b = beta_parameters(0, 5, cfg)
    assert a == 1e-6
    assert b == 5.0


@given(st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)), max_size=20),
       st.sampled_from([CFG, SuitabilityConfig(alpha0=0.5, beta0=0.8), SuitabilityConfig(alpha0=2.5, beta0=1e-3)]))
def test_beta_parameters_columns_equal_pairs(counts, cfg):
    # count columns give, row by row, the same floats as each pair of counts
    n_success = np.array([ns for ns, _ in counts], dtype=np.int64)
    n_failure = np.array([nf for _, nf in counts], dtype=np.int64)
    a, b = beta_parameters(n_success, n_failure, cfg)
    mean = deterministic_success_probability(n_success, n_failure, cfg)
    assert list(zip(a.tolist(), b.tolist())) == [beta_parameters(ns, nf, cfg) for ns, nf in counts]
    assert mean.tolist() == [deterministic_success_probability(ns, nf, cfg) for ns, nf in counts]


def test_deterministic_mean_fresh_record():
    assert deterministic_success_probability(0, 0, CFG) == 0.5


@pytest.mark.parametrize(
    "ns, nf, expected",
    [
        (7, 3, Fraction(9, 14)),
        (6, 4, Fraction(8, 14)),
        (9, 1, Fraction(11, 14)),
        (1, 9, Fraction(3, 14)),
        (10, 0, Fraction(12, 14)),
    ],
)
def test_deterministic_mean_oracle(ns, nf, expected):
    got = deterministic_success_probability(ns, nf, CFG)
    assert got == pytest.approx(float(expected), abs=1e-15)


def test_deterministic_mean_exhaustive_small_counts():
    # closed form against exact rational arithmetic for every count split
    for n in range(0, 21):
        for ns in range(0, n + 1):
            want = Fraction(2 + ns, 4 + n)  # (alpha0 + ns - 1) / (alpha0 + beta0 + n - 2)
            assert deterministic_success_probability(ns, n - ns, CFG) == pytest.approx(
                float(want), abs=1e-15)


def test_sampled_estimate_reproducible_and_bounded():
    rec = ExperienceRecord(3, 2)
    a = success_probability(rec, CFG, make_rng(11))
    b = success_probability(rec, CFG, make_rng(11))
    assert a == b
    assert 0.0 < a < 1.0


def test_sampled_estimate_matches_manual_draws():
    rec = ExperienceRecord(5, 1)
    got = success_probability(rec, CFG, make_rng(3))
    manual = float(make_rng(3).beta(7.0, 3.0, size=10).mean())
    assert got == manual


def test_sampled_estimate_uses_clamped_params():
    cfg = SuitabilityConfig(alpha0=1.0, beta0=1.0, beta_sample_count=10)
    # (0, 5) drives alpha to the floor; draws concentrate near 0 but stay valid
    value = success_probability(ExperienceRecord(0, 5), cfg, make_rng(0))
    assert 0.0 < value < 0.5


def test_sampled_estimate_concentrates_with_count():
    # with heavy evidence the sample mean approaches the deterministic mean
    rec = ExperienceRecord(900, 100)
    cfg = SuitabilityConfig(beta_sample_count=100)
    value = success_probability(rec, cfg, make_rng(5))
    assert value == pytest.approx(deterministic_success_probability(900, 100, cfg), abs=0.02)


# -- graph construction ------------------------------------------------------------


def test_init_graph_uniform():
    g = uniform_graph("a", "b", "c", "d")
    assert g.posteriors() == {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}


def test_init_graph_single_candidate():
    g = uniform_graph("only")
    assert g.posterior("only") == 1.0


def test_init_graph_empty_cluster():
    with pytest.raises(EmptyClusterError):
        init_graph(ObjectCluster("t", frozenset()), {}, CFG)


def test_every_graph_maker_refuses_an_empty_cluster(household):
    empty = ObjectCluster("thing", frozenset())
    kb = KnowledgeBase(CFG)
    with pytest.raises(EmptyClusterError):
        init_graph(empty, {}, CFG)
    with pytest.raises(EmptyClusterError):
        graph_from_store(empty, household, kb, CFG)
    with pytest.raises(EmptyClusterError):
        SuitabilityGraph("thing", "default", "default", CFG, [], np.zeros(0), np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
    # the round asks for a new model instead of making a graph
    beliefs = {}
    round_result = generalise_execution_model("thing", household, FIXTURE_MODELS, kb, CFG,
                                              lambda obj, model: True, make_rng(0), beliefs=beliefs)
    assert round_result == (None, None)
    assert beliefs == {}
    assert len(kb) == 0


def test_init_graph_missing_similarity():
    with pytest.raises(ValueError, match="missing similarity for candidate 'b'"):
        init_graph(cluster_of("a", "b"), {"a": 0.5}, CFG)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, math.nan])
def test_init_graph_similarity_range(bad):
    with pytest.raises(ValueError, match="must lie in"):
        init_graph(cluster_of("a"), {"a": bad}, CFG)


@pytest.mark.parametrize("sims, message", [
    ({"b": 1.5}, "missing similarity for candidate 'a'"),
    ({"a": 2.0, "c": 0.5}, r"similarity for 'a' must lie in \(0, 1\], got 2.0"),
    ({"a": 0.5, "b": math.nan}, r"similarity for 'b' must lie in \(0, 1\], got nan"),
    ({"a": 0.5, "c": -1}, "missing similarity for candidate 'b'"),
])
def test_init_graph_reports_first_bad_member_in_sorted_order(sims, message):
    with pytest.raises(ValueError, match=message):
        init_graph(cluster_of("c", "b", "a"), sims, CFG)


# -- posterior update ---------------------------------------------------------------


def test_update_hand_oracle():
    # equal similarities 0.8, stubbed estimates 0.9 / 0.3, uniform prior:
    # unnormalized (0.36, 0.12) * 0.5 -> posteriors 0.75 / 0.25
    g = uniform_graph("strong", "weak", cfg=ONE_DRAW)
    update_posteriors(g, FixedEstimates({"strong": 0.9, "weak": 0.3}))
    assert g.posterior("strong") == pytest.approx(0.75, abs=1e-12)
    assert g.posterior("weak") == pytest.approx(0.25, abs=1e-12)
    assert g.estimates.tolist() == [0.9, 0.3]


def per_candidate_estimates(graph, rng):
    """Reference for the batched draw: success_probability called once per
    candidate, in sorted name order, on one generator."""
    return {
        name: success_probability(ExperienceRecord(ns, nf), graph.cfg, rng)
        for name, (ns, nf) in sorted(graph.counts().items())
    }


@pytest.mark.parametrize("samples", [1, 10, 33])
@pytest.mark.parametrize("k", [1, 7, 9, 50])
def test_batched_draw_matches_per_candidate_calls(k, samples):
    # alpha0 < 1 and beta0 < 1: zero counts clamp a parameter to PARAM_FLOOR
    cfg = SuitabilityConfig(alpha0=0.5, beta0=0.8, beta_sample_count=samples)
    names = [f"c{i:02d}" for i in reversed(range(k))]
    g = uniform_graph(*names, sims={n: (i + 1) / k for i, n in enumerate(names)}, cfg=cfg)
    counts = make_rng(k).integers(0, 4, size=(k, 2))
    counts[0] = 0
    assert beta_parameters(0, 0, cfg) == (PARAM_FLOOR, PARAM_FLOOR)
    g.n_success[:] = counts[:, 0]
    g.n_failure[:] = counts[:, 1]

    rng, ref_rng = make_rng(3), make_rng(3)
    want = per_candidate_estimates(g, ref_rng)
    # the same update fed the reference estimates
    per_candidate = uniform_graph(*names, sims=g.similarity_map, cfg=ONE_DRAW)
    update_posteriors(per_candidate, FixedEstimates(want))
    update_posteriors(g, rng)

    assert g.estimates.tolist() == list(want.values())
    assert g.candidates == list(want) == sorted(names)
    assert g.posteriors() == per_candidate.posteriors()
    assert rng.random() == ref_rng.random()


def reference_update(graph, rng):
    """The update as one Python step per candidate: math.log and math.exp
    per element, numpy's mean and clip for the estimates. Returns the
    estimates and the new posteriors without touching the graph."""
    cfg = graph.cfg
    a, b = beta_parameters(graph.n_success, graph.n_failure, cfg)
    draws = rng.beta(a[:, None], b[:, None], size=(len(graph.candidates), cfg.beta_sample_count))
    estimates = np.clip(draws.mean(axis=1), _ESTIMATE_EPS, 1.0 - _ESTIMATE_EPS).tolist()
    log_unnorm = [
        math.log(s) + math.log(p) + math.log(prior) if prior > 0.0 else -math.inf
        for s, p, prior in zip(graph.similarity.tolist(), estimates, graph.post.tolist())
    ]
    shift = max(log_unnorm)
    if shift == -math.inf:
        raise NormalizationError("all candidate posteriors vanished")
    weights = np.array([math.exp(v - shift) for v in log_unnorm])
    return estimates, weights / _left_sum(weights)


def assert_update_matches_reference(cfg, sims, counts, priors, seed):
    k = len(sims)
    names = [f"c{i:04d}" for i in range(k)]
    counts = np.array(counts, dtype=np.int64).reshape(k, 2)
    g = SuitabilityGraph("t", "default", "default", cfg, names, np.array(sims, dtype=float),
                         counts[:, 0].copy(), counts[:, 1].copy(), np.array(priors, dtype=float))
    rng, ref_rng = make_rng(seed), make_rng(seed)
    if not any(p > 0.0 for p in priors):
        with pytest.raises(NormalizationError):
            reference_update(g, ref_rng)
        with pytest.raises(NormalizationError):
            update_posteriors(g, rng)
        return
    want_estimates, want_post = reference_update(g, ref_rng)
    update_posteriors(g, rng)
    assert len(g.estimates) == len(names)
    assert g.estimates.tobytes() == np.array(want_estimates).tobytes()
    assert g.post.tobytes() == want_post.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# exact zeros and subnormals among the priors; a prior of 0 keeps its row at 0
PRIORS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]))


@settings(max_examples=300)
@given(
    k=st.integers(1, 64),
    samples=st.integers(1, 20),
    alpha0=st.sampled_from([0.05, 0.5, 0.999, 1.0, 1.5, 3.0, 40.0]),
    beta0=st.sampled_from([0.05, 0.5, 0.999, 1.0, 1.5, 3.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_update_matches_per_candidate_reference(k, samples, alpha0, beta0, seed, data):
    # the column arithmetic gives the reference's floats bit for bit and
    # leaves the generator where the reference leaves it
    cfg = SuitabilityConfig(alpha0=alpha0, beta0=beta0, beta_sample_count=samples)
    sims = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=k, max_size=k))
    counts = data.draw(st.lists(st.integers(0, 60), min_size=2 * k, max_size=2 * k))
    priors = data.draw(st.lists(PRIORS, min_size=k, max_size=k))
    assert_update_matches_reference(cfg, sims, counts, priors, seed)


def test_update_matches_per_candidate_reference_wide():
    gen = make_rng(1996)
    k = 1996
    priors = gen.random(k)
    priors[gen.integers(0, k, 40)] = 0.0
    priors[gen.integers(0, k, 40)] = 5e-324
    for cfg in (CFG, SuitabilityConfig(alpha0=0.5, beta0=0.7, beta_sample_count=17)):
        assert_update_matches_reference(cfg, gen.uniform(1e-3, 1.0, k).tolist(),
                                        gen.integers(0, 30, 2 * k).tolist(), priors.tolist(), seed=9)


def test_update_normalizes_to_one():
    g = uniform_graph("a", "b", "c", sims={"a": 0.3, "b": 0.6, "c": 0.9})
    update_posteriors(g, make_rng(1))
    assert sum(g.posteriors().values()) == pytest.approx(1.0, abs=1e-12)


def test_update_visits_candidates_sorted():
    # one beta call whose rows follow the sorted names, whatever the cluster order
    g = uniform_graph("zeta", "alpha", "mid", cfg=ONE_DRAW)
    g.n_success[:] = [0, 1, 2]  # alpha, mid, zeta
    g.n_failure[:] = [5, 4, 3]
    fake = FixedEstimates({"zeta": 0.1, "alpha": 0.7, "mid": 0.4})
    update_posteriors(g, fake)
    assert fake.params == [([2.0, 3.0, 4.0], [7.0, 6.0, 5.0])]
    assert g.estimates.tolist() == [0.7, 0.4, 0.1]
    assert g.candidates == ["alpha", "mid", "zeta"]


@pytest.mark.parametrize("draw, estimate", [(0.0, 1e-12), (1.0, 1.0 - 1e-12), (1e-300, 1e-12)])
def test_update_clips_sampled_estimates(draw, estimate):
    # a beta draw at or next to 0 or 1 becomes an estimate inside (0, 1)
    g = uniform_graph("a", "b", cfg=ONE_DRAW)
    update_posteriors(g, FixedEstimates({"a": draw, "b": 0.5}))
    assert g.estimates.tolist() == [estimate, 0.5]
    assert all(0.0 < p < 1.0 for p in g.posteriors().values())


def test_update_zero_prior_stays_zero():
    g = uniform_graph("a", "b")
    g.post = np.array([0.0, 1.0])
    update_posteriors(g, make_rng(0))
    assert g.posterior("a") == 0.0
    assert g.posterior("b") == 1.0


def test_update_all_zero_priors_raises():
    g = uniform_graph("a", "b")
    g.post = np.array([0.0, 0.0])
    with pytest.raises(NormalizationError):
        update_posteriors(g, make_rng(0))


def test_update_survives_subnormal_priors():
    # linear-space products would flush to zero here; log space must not
    g = uniform_graph("a", "b", cfg=ONE_DRAW)
    g.post = np.array([1e-300, 1e-300])
    update_posteriors(g, FixedEstimates({"a": 1e-6, "b": 1e-6}))
    assert g.posterior("a") == pytest.approx(0.5, abs=1e-12)
    assert g.posterior("b") == pytest.approx(0.5, abs=1e-12)


def _naive_update(sims, priors, estimates):
    names = sorted(sims)
    u = {n: sims[n] * estimates[n] * priors[n] for n in names}
    z = sum(u.values())
    return {n: u[n] / z for n in names}


@given(
    st.integers(min_value=2, max_value=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80)
def test_update_matches_naive_product(n, pyrandom):
    names = [f"c{i}" for i in range(n)]
    sims = {m: pyrandom.uniform(0.05, 1.0) for m in names}
    raw = {m: pyrandom.uniform(0.01, 1.0) for m in names}
    total = sum(raw.values())
    priors = {m: raw[m] / total for m in names}
    estimates = {m: pyrandom.uniform(0.01, 0.99) for m in names}

    g = init_graph(cluster_of(*names), sims, ONE_DRAW)
    g.post = np.array([priors[m] for m in g.candidates])
    update_posteriors(g, FixedEstimates(estimates))

    want = _naive_update(sims, priors, estimates)
    for m in names:
        assert g.posterior(m) == pytest.approx(want[m], abs=1e-12)


def test_monotone_dominance_ratio():
    # constant estimates p1 > p2 with equal similarity: the posterior ratio
    # multiplies by p1/p2 each step and the winner's share is increasing
    g = uniform_graph("hi", "lo", cfg=ONE_DRAW)
    est = FixedEstimates({"hi": 0.9, "lo": 0.3})
    prev_ratio = 1.0
    prev_hi = g.posterior("hi")
    for _ in range(12):
        update_posteriors(g, est)
        ratio = g.posterior("hi") / g.posterior("lo")
        assert ratio / prev_ratio == pytest.approx(3.0, rel=1e-9)
        assert g.posterior("hi") > prev_hi
        prev_ratio = ratio
        prev_hi = g.posterior("hi")
    assert g.posterior("hi") > 0.99


def test_experience_overrides_similarity_prior():
    # low-similarity candidate with strong estimates takes the lead in one step
    g = uniform_graph("near", "far", sims={"near": 0.9, "far": 0.5}, cfg=ONE_DRAW)
    update_posteriors(g, FixedEstimates({"near": 0.2, "far": 0.9}))
    assert g.posterior("far") > g.posterior("near")


def test_similarity_orders_fresh_candidates():
    # identical (empty) experience: deterministic estimates are equal, so the
    # posterior ordering equals the similarity ordering
    sims = {"a": 0.3, "b": 0.9, "c": 0.6}
    g = uniform_graph("a", "b", "c", sims=sims, cfg=ONE_DRAW)
    update_posteriors(g, FixedEstimates({m: deterministic_success_probability(0, 0, CFG) for m in sims}))
    posts = g.posteriors()
    assert posts["b"] > posts["c"] > posts["a"]


def test_scaling_similarities_preserves_posteriors():
    # a global similarity scale factor is absorbed by normalization
    base = {"a": 0.2, "b": 0.5, "c": 0.35}
    est = {"a": 0.4, "b": 0.7, "c": 0.2}
    g1 = uniform_graph("a", "b", "c", sims=base, cfg=ONE_DRAW)
    g2 = uniform_graph("a", "b", "c", sims={m: s * 0.5 for m, s in base.items()}, cfg=ONE_DRAW)
    for g in (g1, g2):
        update_posteriors(g, FixedEstimates(est))
    for m in base:
        assert g1.posterior(m) == pytest.approx(g2.posterior(m), abs=1e-12)


# -- selection ------------------------------------------------------------------------


def test_select_unique_argmax_deterministic():
    g = uniform_graph("a", "b", cfg=ONE_DRAW)
    update_posteriors(g, FixedEstimates({"a": 0.9, "b": 0.2}))
    rng = make_rng(99)
    assert select_model(g, rng) == "a"
    # no tie -> the tie-break draw was not consumed
    assert rng.integers(1000) == make_rng(99).integers(1000)


def test_select_tie_uniform():
    counts = {"a": 0, "b": 0}
    rng = make_rng(7)
    g = uniform_graph("a", "b")
    for _ in range(10_000):
        counts[select_model(g, rng)] += 1
    assert counts["a"] / 10_000 == pytest.approx(0.5, abs=0.05)


def test_select_tie_within_tolerance():
    g = uniform_graph("a", "b")
    g.post = np.array([0.5, 0.5 - 5e-13])
    seen = {select_model(g, make_rng(s)) for s in range(40)}
    assert seen == {"a", "b"}


def test_select_empty_graph():
    # select_model needs no check of its own: no graph without candidates can be made
    g = uniform_graph("a")
    with pytest.raises(EmptyClusterError):
        SuitabilityGraph("t", "default", "default", CFG, [], g.similarity[:0], g.n_success[:0],
                         g.n_failure[:0], g.post[:0])


# -- decision heuristics -----------------------------------------------------------


def test_generalisation_all_siblings_pass():
    records = {"banana": ExperienceRecord(7, 3), "orange": ExperienceRecord(9, 1)}
    assert generalisation_check("apple", {"banana", "orange"}, records, CFG) is True


def test_generalisation_one_sibling_below_threshold():
    records = {"banana": ExperienceRecord(7, 3), "orange": ExperienceRecord(6, 4)}
    # 8/14 < 0.6 fails the bar
    assert generalisation_check("apple", {"banana", "orange"}, records, CFG) is False


def test_generalisation_boundary_crossing():
    assert generalisation_check("m", {"s"}, {"s": ExperienceRecord(7, 3)}, CFG) is True
    assert generalisation_check("m", {"s"}, {"s": ExperienceRecord(6, 4)}, CFG) is False


def test_generalisation_missing_sibling_record():
    with pytest.raises(MissingRecordError):
        generalisation_check("apple", {"banana", "orange"}, {"banana": ExperienceRecord(9, 1)}, CFG)


def test_generalisation_empty_siblings_strict_by_default():
    assert generalisation_check("apple", set(), {}, CFG) is False


def test_specification_wine_glass_oracle():
    cluster = cluster_of("mug", target="wine_glass")
    # 1 success, 9 failures: failure mean 11/14 >= 0.6 -> learn a new model
    assert specification_check("wine_glass", cluster, {"mug": ExperienceRecord(1, 9)}, CFG) is True
    # 9 successes, 1 failure: the transferred model works fine
    assert specification_check("wine_glass", cluster, {"mug": ExperienceRecord(9, 1)}, CFG) is False


def test_specification_empty_cluster_trivially_true():
    assert specification_check("t", cluster_of(target="t"), {}, CFG) is True


def test_specification_missing_record():
    with pytest.raises(MissingRecordError):
        specification_check("t", cluster_of("a", "b", target="t"), {"a": ExperienceRecord(0, 9)}, CFG)


def test_specification_requires_all_candidates_failing():
    cluster = cluster_of("a", "b", target="t")
    records = {"a": ExperienceRecord(0, 9), "b": ExperienceRecord(9, 0)}
    assert specification_check("t", cluster, records, CFG) is False


def test_threshold_hysteresis_with_failures():
    # with alpha0=beta0=1 and tau=0.8, every failure raises the number of
    # successes needed to clear the bar; the sequence must strictly increase
    cfg = SuitabilityConfig(alpha0=1.0, beta0=1.0, tau=0.8)

    def successes_needed(n_failures: int) -> int:
        for ns in range(1, 1000):
            if deterministic_success_probability(ns, n_failures, cfg) >= cfg.tau:
                return ns
        raise AssertionError("threshold unreachable")

    needed = [successes_needed(nf) for nf in range(0, 5)]
    assert needed == sorted(needed)
    assert len(set(needed)) == len(needed)
    assert needed[0] == 1  # zero failures: one success suffices (clamped prior)
    assert needed[1] == 4  # ns/(ns+1) >= 0.8 first at ns=4


# -- store-backed graphs ----------------------------------------------------------


def grasp_key(target, cand):
    return ExperienceKey("grasp", "default", target, cand)


def test_graph_from_store_fresh(household):
    kb = KnowledgeBase(CFG)
    cluster = household.object_cluster("tomato_can", FIXTURE_MODELS.__contains__)
    g = graph_from_store(cluster, household, kb, CFG, action="grasp")
    assert g.posteriors() == {"chips_can": 0.5, "sugar_box": 0.5}
    assert g.similarity_map["chips_can"] == pytest.approx(2 / 3, abs=1e-15)


def test_graph_from_store_overlays_and_renormalizes(household):
    kb = KnowledgeBase(CFG)
    kb.append(grasp_key("tomato_can", "chips_can"), True, 0.7)
    cluster = household.object_cluster("tomato_can", FIXTURE_MODELS.__contains__)
    g = graph_from_store(cluster, household, kb, CFG, action="grasp")
    # stored 0.7 mixes with the fresh candidate's uniform 0.5, renormalized
    assert g.posterior("chips_can") == pytest.approx(0.7 / 1.2, abs=1e-12)
    assert g.posterior("sugar_box") == pytest.approx(0.5 / 1.2, abs=1e-12)
    assert g.counts()["chips_can"][0] == 1


def test_graph_from_store_reset_keeps_counts(household):
    kb = KnowledgeBase(CFG)
    kb.append(grasp_key("tomato_can", "chips_can"), True, 0.9)
    kb.append(grasp_key("tomato_can", "sugar_box"), False, 0.1)
    cluster = household.object_cluster("tomato_can", FIXTURE_MODELS.__contains__)
    g = graph_from_store(cluster, household, kb, CFG, action="grasp", reset_posteriors=True)
    assert g.posteriors() == {"chips_can": 0.5, "sugar_box": 0.5}
    assert g.counts()["chips_can"][0] == 1
    assert g.counts()["sugar_box"][1] == 1


def test_graph_from_store_zero_mass_falls_back_to_uniform(household):
    kb = KnowledgeBase(CFG)
    kb.set_posterior(grasp_key("tomato_can", "chips_can"), 0.0)
    kb.set_posterior(grasp_key("tomato_can", "sugar_box"), 0.0)
    cluster = household.object_cluster("tomato_can", FIXTURE_MODELS.__contains__)
    g = graph_from_store(cluster, household, kb, CFG, action="grasp")
    assert g.posteriors() == {"chips_can": 0.5, "sugar_box": 0.5}


def test_graph_from_store_similarity_override(household):
    kb = KnowledgeBase(CFG)
    cluster = household.object_cluster("tomato_can", FIXTURE_MODELS.__contains__)
    g = graph_from_store(
        cluster, household, kb, CFG, action="grasp",
        similarity_override={"chips_can": 0.9})
    assert g.similarity_map["chips_can"] == 0.9
    assert g.similarity_map["sugar_box"] == pytest.approx(2 / 3, abs=1e-15)


# -- full selection round -----------------------------------------------------------


def test_round_own_model_short_circuits(household):
    kb = KnowledgeBase(CFG)
    calls = []

    def executor(obj, model):
        calls.append((obj, model))
        return True

    selected, outcome = generalise_execution_model(
        "apple", household, FIXTURE_MODELS, kb, CFG, executor, make_rng(0), action="grasp")
    assert (selected, outcome) == ("apple", True)
    assert calls == [("apple", "apple")]
    assert len(kb) == 0  # the store holds transfer experience only


def test_round_empty_cluster_requests_specification(household):
    kb = KnowledgeBase(CFG)
    trace = {}
    selected, outcome = generalise_execution_model(
        "thing", household, FIXTURE_MODELS, kb, CFG,
        lambda o, m: True, make_rng(0), action="grasp", trace=trace)
    assert (selected, outcome) == (None, None)
    assert trace["specification_needed"] is True
    assert len(kb) == 0


def test_round_records_outcome_and_snapshots(household):
    kb = KnowledgeBase(CFG)
    trace = {}
    selected, outcome = generalise_execution_model(
        "tomato_can", household, FIXTURE_MODELS, kb, CFG,
        lambda o, m: True, make_rng(42), action="grasp", trace=trace)
    assert selected in {"chips_can", "sugar_box"}
    assert outcome is True
    assert len(kb) == 2  # chosen entry plus posterior snapshot of the other
    chosen = kb.query(grasp_key("tomato_can", selected))
    assert (chosen.n_success, chosen.n_failure) == (1, 0)
    assert chosen.posterior == trace["posteriors"][selected]
    other = next(m for m in ("chips_can", "sugar_box") if m != selected)
    other_rec = kb.query(grasp_key("tomato_can", other))
    assert (other_rec.n_success, other_rec.n_failure) == (0, 0)
    assert other_rec.posterior == trace["posteriors"][other]
    assert sum(trace["posteriors"].values()) == pytest.approx(1.0, abs=1e-12)


def test_round_counts_in_trace_match_store(household):
    kb = KnowledgeBase(CFG)
    kb.append(grasp_key("tomato_can", "chips_can"), False, 0.5)
    rng = make_rng(7)
    for outcome in (True, False, True):
        trace = {}
        generalise_execution_model(
            "tomato_can", household, FIXTURE_MODELS, kb, CFG,
            lambda o, m: outcome, rng, action="grasp", trace=trace)
        for cand, counts in trace["counts"].items():
            rec = kb.query(grasp_key("tomato_can", cand))
            assert counts == (rec.n_success, rec.n_failure)


def test_round_with_beliefs_records_outcome_only(household):
    kb = KnowledgeBase(CFG)
    beliefs = {}
    rng = make_rng(42)
    for _ in range(3):
        trace = {}
        selected, _ = generalise_execution_model(
            "tomato_can", household, FIXTURE_MODELS, kb, CFG,
            lambda o, m: True, rng, action="grasp", trace=trace, beliefs=beliefs)
    graph = beliefs["grasp", "default", "tomato_can"]
    assert graph.counts() == trace["counts"]
    assert sum(rec.trial_count for _, rec in kb.items()) == 3
    assert kb.query(grasp_key("tomato_can", selected)).posterior == trace["posteriors"][selected]
    store_posteriors(graph, kb)
    assert len(kb) == 2
    for cand, posterior in trace["posteriors"].items():
        assert kb.query(grasp_key("tomato_can", cand)).posterior == posterior
    with pytest.raises(ValueError, match="dry run"):
        generalise_execution_model(
            "tomato_can", household, FIXTURE_MODELS, kb, CFG, None, rng, beliefs=beliefs)


def test_round_dry_run_selects_like_real_round(household):
    kb = KnowledgeBase(CFG)
    kb.append(grasp_key("tomato_can", "chips_can"), True, 0.7)
    before = kb.export_json()
    dry, real = {}, {}
    result = generalise_execution_model(
        "tomato_can", household, FIXTURE_MODELS, kb, CFG, None, make_rng(3),
        action="grasp", trace=dry)
    real_selected, _ = generalise_execution_model(
        "tomato_can", household, FIXTURE_MODELS, KnowledgeBase.import_json(before), CFG,
        lambda o, m: False, make_rng(3), action="grasp", trace=real)
    assert result == (real_selected, None)
    assert kb.export_json() == before
    assert dry["selected"] == real_selected
    assert dry["outcome"] is None
    for name in ("similarities", "estimates", "posteriors"):
        assert dry[name] == real[name]
    assert dry["counts"] == {"chips_can": (1, 0), "sugar_box": (0, 0)}


def test_round_dry_run_own_model_executes_nothing(household):
    trace = {}
    assert generalise_execution_model(
        "apple", household, FIXTURE_MODELS, KnowledgeBase(CFG), CFG, None, make_rng(0),
        trace=trace) == ("apple", None)
    assert trace["own_model"] is True


@pytest.mark.parametrize("target, executor, beliefs", [
    pytest.param("chips_can", lambda o, m: True, None, id="own_model"),
    pytest.param("thing", lambda o, m: True, None, id="empty_cluster"),
    pytest.param("tomato_can", None, None, id="dry_run"),
    pytest.param("tomato_can", lambda o, m: True, None, id="executed"),
    pytest.param("tomato_can", lambda o, m: True, {}, id="executed_with_beliefs"),
])
def test_round_trace_is_a_trial_step(household, target, executor, beliefs):
    cluster = household.object_cluster(target, FIXTURE_MODELS.__contains__)
    kb, rng = KnowledgeBase(CFG), make_rng(0)
    # with beliefs, the second round reuses the kept graph
    for _ in range(2):
        trace = {}
        generalise_execution_model(
            target, household, FIXTURE_MODELS, kb, CFG, executor, rng, trace=trace, beliefs=beliefs)
        assert set(trace) == {f.name for f in fields(TrialStep)} - {"trial"}
        assert trace["cluster_size"] == len(cluster)
        assert list(trace["similarities"]) == ([] if trace["own_model"] else sorted(cluster.members))


def test_round_own_model_refuses_negative_max_ancestor_hops(household):
    calls = []
    with pytest.raises(ValueError):
        generalise_execution_model(
            "apple", household, FIXTURE_MODELS, KnowledgeBase(CFG), CFG,
            lambda o, m: calls.append(m) or True, make_rng(0), max_ancestor_hops=-1)
    assert calls == []


def test_round_posteriors_persist_across_calls(household):
    kb = KnowledgeBase(CFG)
    rng = make_rng(5)
    always = lambda o, m: True
    for _ in range(6):
        generalise_execution_model(
            "tomato_can", household, FIXTURE_MODELS, kb, CFG, always, rng, action="grasp")
    stored = {m: kb.query(grasp_key("tomato_can", m)).posterior for m in ("chips_can", "sugar_box")}
    assert sum(stored.values()) == pytest.approx(1.0, abs=1e-9)
    total_trials = sum(
        kb.query(grasp_key("tomato_can", m)).trial_count for m in ("chips_can", "sugar_box"))
    assert total_trials == 6


def test_round_executor_failure_leaves_store_untouched(household):
    kb = KnowledgeBase(CFG)
    kb.append(grasp_key("tomato_can", "chips_can"), True, 0.6)
    before = kb.export_json()

    def broken(obj, model):
        raise RuntimeError("gripper offline")

    with pytest.raises(RuntimeError, match="gripper offline"):
        generalise_execution_model(
            "tomato_can", household, FIXTURE_MODELS, kb, CFG, broken, make_rng(0), action="grasp")
    assert kb.export_json() == before


def test_round_unknown_target(household):
    kb = KnowledgeBase(CFG)
    with pytest.raises(UnknownClassError):
        generalise_execution_model(
            "warp_core", household, FIXTURE_MODELS, kb, CFG, lambda o, m: True, make_rng(0))


def test_round_selector_hook(household):
    kb = KnowledgeBase(CFG)
    selected, _ = generalise_execution_model(
        "tomato_can", household, FIXTURE_MODELS, kb, CFG,
        lambda o, m: True, make_rng(0), action="grasp",
        selector=lambda graph, rng: "sugar_box")
    assert selected == "sugar_box"
    assert kb.query(grasp_key("tomato_can", "sugar_box")).n_success == 1


def test_round_selector_must_return_member(household):
    kb = KnowledgeBase(CFG)
    with pytest.raises(ValueError, match="not a cluster member"):
        generalise_execution_model(
            "tomato_can", household, FIXTURE_MODELS, kb, CFG,
            lambda o, m: True, make_rng(0), action="grasp",
            selector=lambda graph, rng: "apple")


def test_round_key_scoping_by_action_and_mode(household):
    kb = KnowledgeBase(CFG)
    rng = make_rng(1)
    always = lambda o, m: True
    generalise_execution_model(
        "banana", household, FIXTURE_MODELS, kb, CFG, always, rng, action="grasp", mode="top")
    generalise_execution_model(
        "banana", household, FIXTURE_MODELS, kb, CFG, always, rng, action="grasp", mode="side")
    top = kb.query(ExperienceKey("grasp", "top", "banana", "apple"))
    side = kb.query(ExperienceKey("grasp", "side", "banana", "apple"))
    assert top.trial_count == 1
    assert side.trial_count == 1
