"""Experience-weighted selection of execution models over an object cluster.

A suitability graph links a target object class to candidate classes whose
execution models might transfer. Each edge carries a taxonomic similarity
(fixed) and a posterior belief (updated after every execution attempt):

    posterior'(c)  ~  similarity(c) * success_estimate(c) * posterior(c)

normalized over the cluster. The success estimate comes from a beta-Bernoulli
model of recorded outcomes: with priors (alpha0, beta0) and counts (N+, N-),
the belief over the success probability is Beta(alpha0 + N+ - 1,
beta0 + N- - 1), parameters clamped to a small floor when the counts would
drive them to zero or below.

Updates run in log space and are renormalized in linear space, so many small
factors cannot underflow to an all-zero distribution as long as one candidate
remains representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Mapping

import numpy as np

from .ontology import ClassHierarchy, ObjectCluster, UnknownClassError

# floor for clamped beta parameters when priors plus counts are <= 0
PARAM_FLOOR = 1e-6

# posteriors closer than this are considered tied and broken uniformly at random
TIE_TOLERANCE = 1e-12

# sampled success estimates are clipped into the open interval (0, 1)
_ESTIMATE_EPS = 1e-12


class EmptyClusterError(ValueError):
    """The object cluster has no candidates; a new model must be learned."""

    def __init__(self, target: str):
        super().__init__(f"no candidate models for target {target!r}")
        self.target = target


class NormalizationError(ArithmeticError):
    """Every candidate's unnormalized posterior vanished (numerical underflow)."""


class MissingRecordError(KeyError):
    """A heuristic was asked to judge a class with no experience record."""

    def __init__(self, class_id: str):
        super().__init__(class_id)
        self.class_id = class_id


@dataclass(frozen=True)
class SuitabilityConfig:
    """Priors and thresholds shared by estimation, selection, and heuristics.

    Defaults follow the evaluation setup this package reproduces:
    symmetric Beta(3, 3) priors, decision threshold 0.6, and 10 beta draws
    per sampled estimate.
    """

    alpha0: float = 3.0
    beta0: float = 3.0
    tau: float = 0.6
    beta_sample_count: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.alpha0 > 0.0 and math.isfinite(self.alpha0)):
            raise ValueError(f"alpha0 must be a positive finite float, got {self.alpha0!r}")
        if not (self.beta0 > 0.0 and math.isfinite(self.beta0)):
            raise ValueError(f"beta0 must be a positive finite float, got {self.beta0!r}")
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")
        if not (isinstance(self.beta_sample_count, int) and self.beta_sample_count >= 1):
            raise ValueError(f"beta_sample_count must be a positive integer, got {self.beta_sample_count!r}")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")


@dataclass(frozen=True)
class ExperienceKey:
    """Scope of one experience record: action, action mode, target, candidate."""

    action: str
    mode: str
    target: str
    candidate: str

    def __post_init__(self):
        for fname in ("action", "mode", "target", "candidate"):
            value = getattr(self, fname)
            if not isinstance(value, str) or not value:
                raise ValueError(f"experience key field {fname!r} must be a non-empty string, got {value!r}")

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.action, self.mode, self.target, self.candidate)


@dataclass(frozen=True)
class ExperienceRecord:
    """Outcome counts plus the persisted posterior for one key."""

    n_success: int = 0
    n_failure: int = 0
    posterior: float = 0.0

    def __post_init__(self):
        if self.n_success < 0 or self.n_failure < 0:
            raise ValueError(f"negative trial counts: ({self.n_success}, {self.n_failure})")
        if not (0.0 <= self.posterior <= 1.0):
            raise ValueError(f"posterior out of range [0, 1]: {self.posterior!r}")

    @property
    def trial_count(self) -> int:
        return self.n_success + self.n_failure


def record_outcome(record: ExperienceRecord, outcome: bool) -> ExperienceRecord:
    """New record with one more success (True) or failure (False)."""
    if outcome:
        return replace(record, n_success=record.n_success + 1)
    return replace(record, n_failure=record.n_failure + 1)


def beta_parameters(record: ExperienceRecord, cfg: SuitabilityConfig) -> tuple[float, float]:
    """Clamped posterior parameters (alpha0 + N+ - 1, beta0 + N- - 1)."""
    a = cfg.alpha0 + record.n_success - 1.0
    b = cfg.beta0 + record.n_failure - 1.0
    return max(a, PARAM_FLOOR), max(b, PARAM_FLOOR)


def success_probability(record: ExperienceRecord, cfg: SuitabilityConfig, rng: np.random.Generator) -> float:
    """Sampled success estimate: mean of beta_sample_count posterior draws.

    Stochastic by design; the sampling noise is the selection loop's
    exploration mechanism. Result is clipped strictly inside (0, 1).
    """
    a, b = beta_parameters(record, cfg)
    draws = rng.beta(a, b, size=cfg.beta_sample_count)
    m = float(draws.mean())
    return min(max(m, _ESTIMATE_EPS), 1.0 - _ESTIMATE_EPS)


def deterministic_success_probability(record: ExperienceRecord, cfg: SuitabilityConfig) -> float:
    """Analytic posterior mean alpha/(alpha+beta); used by the heuristics."""
    a, b = beta_parameters(record, cfg)
    return a / (a + b)


# estimator signature: (candidate, record, cfg, rng) -> probability in (0, 1]
Estimator = Callable[[str, ExperienceRecord, SuitabilityConfig, np.random.Generator], float]


def _sampled_estimator(candidate: str, record: ExperienceRecord, cfg: SuitabilityConfig,
                       rng: np.random.Generator) -> float:
    return success_probability(record, cfg, rng)


@dataclass
class CandidateState:
    """Per-candidate edge state: fixed similarity, evolving record."""

    similarity: float
    record: ExperienceRecord


@dataclass
class SuitabilityGraph:
    """Belief state over one target's candidate models.

    Candidate keys are exactly the object cluster members at construction
    time; similarities are fixed for the graph's lifetime; posteriors always
    sum to 1 after an update.
    """

    target: str
    action: str
    mode: str
    cfg: SuitabilityConfig
    candidates: dict[str, CandidateState]
    last_estimates: dict[str, float] = field(default_factory=dict)

    def posterior(self, candidate: str) -> float:
        return self.candidates[candidate].record.posterior

    def posteriors(self) -> dict[str, float]:
        return {name: state.record.posterior for name, state in self.candidates.items()}

    def similarities(self) -> dict[str, float]:
        return {name: state.similarity for name, state in self.candidates.items()}


def init_graph(
    cluster: ObjectCluster,
    similarities: Mapping[str, float],
    cfg: SuitabilityConfig,
    action: str = "default",
    mode: str = "default",
) -> SuitabilityGraph:
    """Graph over the cluster with uniform posteriors and empty records."""
    if not cluster.members:
        raise EmptyClusterError(cluster.target)
    uniform = 1.0 / len(cluster.members)
    candidates: dict[str, CandidateState] = {}
    for member in sorted(cluster.members):
        try:
            s = float(similarities[member])
        except KeyError:
            raise ValueError(f"missing similarity for candidate {member!r}") from None
        if not (0.0 < s <= 1.0):
            raise ValueError(f"similarity for {member!r} must lie in (0, 1], got {s!r}")
        candidates[member] = CandidateState(s, ExperienceRecord(posterior=uniform))
    return SuitabilityGraph(cluster.target, action, mode, cfg, candidates)


def update_posteriors(
    graph: SuitabilityGraph,
    cfg: SuitabilityConfig,
    rng: np.random.Generator,
    estimator: Estimator | None = None,
) -> SuitabilityGraph:
    """One multiplicative posterior update over all candidates.

    Per candidate: similarity * success_estimate * previous posterior,
    accumulated in log space, shifted by the maximum, exponentiated, and
    normalized. Candidates are visited in sorted name order, consuming one
    estimator call each; this ordering is part of the reproducibility
    contract. A candidate whose posterior has reached exactly 0 stays at 0.
    Raises NormalizationError if every candidate vanished.

    ``estimator`` replaces the sampled beta estimate when given (tests stub
    it with constants); it must return values in (0, 1].
    """
    names = sorted(graph.candidates)
    if not names:
        raise EmptyClusterError(graph.target)
    est_fn = estimator if estimator is not None else _sampled_estimator

    estimates: dict[str, float] = {}
    log_unnorm: dict[str, float] = {}
    for name in names:
        state = graph.candidates[name]
        p = float(est_fn(name, state.record, cfg, rng))
        if not (0.0 < p <= 1.0) or not math.isfinite(p):
            raise ValueError(f"success estimate for {name!r} must lie in (0, 1], got {p!r}")
        estimates[name] = p
        prior = state.record.posterior
        if prior <= 0.0:
            log_unnorm[name] = -math.inf
        else:
            log_unnorm[name] = math.log(state.similarity) + math.log(p) + math.log(prior)

    shift = max(log_unnorm.values())
    if shift == -math.inf:
        raise NormalizationError(f"all candidate posteriors vanished for target {graph.target!r}")
    weights = {name: math.exp(v - shift) for name, v in log_unnorm.items()}
    total = sum(weights.values())
    for name in names:
        state = graph.candidates[name]
        state.record = replace(state.record, posterior=weights[name] / total)
    graph.last_estimates = estimates
    return graph


def argmax_random_ties(values: Mapping[str, float], rng: np.random.Generator) -> str:
    """Key with the maximal value; ties broken uniformly at random.

    Keys are visited in sorted order and values within TIE_TOLERANCE of the
    maximum count as tied. The tie draw is consumed only when there actually
    is a tie.
    """
    names = sorted(values)
    best = max(values[n] for n in names)
    tied = [n for n in names if best - values[n] <= TIE_TOLERANCE]
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(len(tied)))]


def select_model(graph: SuitabilityGraph, rng: np.random.Generator) -> str:
    """Candidate with the maximal posterior; ties broken uniformly at random."""
    if not graph.candidates:
        raise EmptyClusterError(graph.target)
    return argmax_random_ties(graph.posteriors(), rng)


# -- decision heuristics -----------------------------------------------------


def generalisation_check(
    model_class: str,
    siblings: Collection[str],
    records: Mapping[str, ExperienceRecord],
    cfg: SuitabilityConfig,
) -> bool:
    """Should model_class's model be promoted to the shared parent class?

    True when the deterministic success estimate of the model on every
    sibling object reaches cfg.tau. ``records`` maps each sibling to the
    experience of executing model_class's model on it; a missing sibling is
    an error, not a pass. With no siblings at all the answer is False:
    promotion on zero sibling evidence would cascade a single object's model
    up the tree.
    """
    if not siblings:
        return False
    for sibling in sorted(siblings):
        if sibling not in records:
            raise MissingRecordError(sibling)
        if deterministic_success_probability(records[sibling], cfg) < cfg.tau:
            return False
    return True


def specification_check(
    target: str,
    cluster: ObjectCluster,
    records: Mapping[str, ExperienceRecord],
    cfg: SuitabilityConfig,
) -> bool:
    """Must a new model be learned from scratch for target?

    True when the cluster is empty, or when every candidate's deterministic
    failure estimate (1 - posterior mean) reaches cfg.tau. ``records`` maps
    each cluster member to its experience on target.
    """
    if not cluster.members:
        return True
    for member in sorted(cluster.members):
        if member not in records:
            raise MissingRecordError(member)
        failure = 1.0 - deterministic_success_probability(records[member], cfg)
        if failure < cfg.tau:
            return False
    return True


# -- store-backed selection round --------------------------------------------

# Selector signature used for ablation baselines; default is select_model.
Selector = Callable[[SuitabilityGraph, np.random.Generator], str]


def graph_from_store(
    cluster: ObjectCluster,
    hierarchy: ClassHierarchy,
    store,
    cfg: SuitabilityConfig,
    *,
    action: str = "default",
    mode: str = "default",
    similarity_override: Mapping[str, float] | None = None,
    reset_posteriors: bool = False,
) -> SuitabilityGraph:
    """Rebuild a suitability graph from persisted experience.

    Similarities are taxonomic (Wu-Palmer against the target) unless
    overridden per candidate. Stored records supply counts and, unless
    reset_posteriors is set, persisted posteriors; candidates without stored
    posterior mass start uniform and the mixture is renormalized. If nothing
    stored carries mass, the distribution falls back to uniform.
    """
    sims: dict[str, float] = {}
    for member in cluster.members:
        if similarity_override is not None and member in similarity_override:
            sims[member] = float(similarity_override[member])
        else:
            sims[member] = hierarchy.wup_similarity(cluster.target, member)
    graph = init_graph(cluster, sims, cfg, action, mode)
    uniform = 1.0 / len(cluster.members)

    for member in sorted(cluster.members):
        stored = store.query(ExperienceKey(action, mode, cluster.target, member))
        if stored is None:
            continue
        post = uniform if reset_posteriors else stored.posterior
        graph.candidates[member].record = ExperienceRecord(stored.n_success, stored.n_failure, post)

    if not reset_posteriors:
        total = sum(state.record.posterior for state in graph.candidates.values())
        if total > 0.0:
            for state in graph.candidates.values():
                state.record = replace(state.record, posterior=state.record.posterior / total)
        else:
            for state in graph.candidates.values():
                state.record = replace(state.record, posterior=uniform)
    return graph


def generalise_execution_model(
    target: str,
    hierarchy: ClassHierarchy,
    registry: Collection[str],
    store,
    cfg: SuitabilityConfig,
    executor: Callable[[str, str], bool] | None,
    rng: np.random.Generator,
    *,
    action: str = "default",
    mode: str = "default",
    selector: Selector | None = None,
    similarity_override: Mapping[str, float] | None = None,
    reset_posteriors: bool = False,
    max_ancestor_hops: int | None = None,
    trace: dict | None = None,
) -> tuple[str | None, bool | None]:
    """One execution round for ``target``: select, execute, record.

    Control flow:

    1. ``target`` already has its own model -> execute it directly and return
       (target, outcome); the store is not touched.
    2. Otherwise build the object cluster. Empty cluster -> return
       (None, None); the caller must learn a new model (specification).
    3. Otherwise rebuild the graph from the store, run one posterior update,
       pick a candidate (``selector`` overrides the posterior argmax for
       ablation baselines), execute its model on ``target``, record the
       outcome under (action, mode, target, candidate), and persist posterior
       snapshots for every cluster member.

    ``executor(target, model_class) -> bool`` performs the actual attempt.
    If it raises, the store is left untouched. ``executor=None`` is a dry
    run: the round selects as a real one would and returns (selected, None),
    executing nothing and writing nothing to the store. ``trace``, when
    given, is filled before the executor runs with the round's candidates,
    similarities, estimates, posteriors, (n_success, n_failure) counts and
    flags; the selected candidate's counts then include the outcome.
    """
    if target not in hierarchy:
        raise UnknownClassError(target)
    if trace is None:
        trace = {}
    trace.update(
        target=target, own_model=False, specification_needed=False,
        selected=None, outcome=None, candidates=[], similarities={},
        estimates={}, posteriors={}, counts={}, cluster_size=0,
    )

    if target in registry:
        trace.update(own_model=True, selected=target)
        if executor is not None:
            trace["outcome"] = bool(executor(target, target))
        return target, trace["outcome"]

    cluster = hierarchy.object_cluster(target, registry.__contains__, max_ancestor_hops=max_ancestor_hops)
    if not cluster.members:
        trace.update(specification_needed=True)
        return None, None

    graph = graph_from_store(
        cluster, hierarchy, store, cfg,
        action=action, mode=mode,
        similarity_override=similarity_override,
        reset_posteriors=reset_posteriors,
    )
    update_posteriors(graph, cfg, rng)
    chosen = selector(graph, rng) if selector is not None else select_model(graph, rng)
    if chosen not in graph.candidates:
        raise ValueError(f"selector returned {chosen!r}, not a cluster member")
    trace.update(
        selected=chosen,
        candidates=sorted(graph.candidates),
        similarities=graph.similarities(),
        estimates=graph.last_estimates,
        posteriors=graph.posteriors(),
        counts={n: (s.record.n_success, s.record.n_failure) for n, s in graph.candidates.items()},
        cluster_size=len(cluster),
    )
    if executor is None:
        return chosen, None

    outcome = trace["outcome"] = bool(executor(target, chosen))
    record = store.append(ExperienceKey(action, mode, target, chosen), outcome, graph.posterior(chosen))
    trace["counts"][chosen] = (record.n_success, record.n_failure)
    for member in sorted(graph.candidates):
        if member != chosen:
            store.set_posterior(ExperienceKey(action, mode, target, member), graph.posterior(member))
    return chosen, outcome
