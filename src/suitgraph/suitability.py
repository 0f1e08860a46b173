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

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .ontology import ClassHierarchy, ObjectCluster, UnknownClassError

# floor for clamped beta parameters when priors plus counts are <= 0
PARAM_FLOOR = 1e-6

# posteriors closer than this are considered tied and broken uniformly at random
TIE_TOLERANCE = 1e-12

# sampled success estimates are clipped into the open interval (0, 1)
_ESTIMATE_EPS = 1e-12

# largest beta_sample_count, 1,000x the paper's 10: the posterior update
# allocates (candidates x beta_sample_count) draws in one array
BETA_SAMPLE_MAX = 10_000


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
    per sampled estimate. ``beta_sample_count`` is at most BETA_SAMPLE_MAX.
    """

    alpha0: float = 3.0
    beta0: float = 3.0
    tau: float = 0.6
    beta_sample_count: int = 10

    def __post_init__(self):
        if not (self.alpha0 > 0.0 and math.isfinite(self.alpha0)):
            raise ValueError(f"alpha0 must be a positive finite float, got {self.alpha0!r}")
        if not (self.beta0 > 0.0 and math.isfinite(self.beta0)):
            raise ValueError(f"beta0 must be a positive finite float, got {self.beta0!r}")
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")
        if not (type(self.beta_sample_count) is int and 1 <= self.beta_sample_count <= BETA_SAMPLE_MAX):
            raise ValueError(f"beta_sample_count must be an integer in [1, {BETA_SAMPLE_MAX}], "
                             f"got {self.beta_sample_count!r}")


def check_key_field(fname: str, value) -> None:
    """ValueError unless ``value`` is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"experience key field {fname!r} must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class ExperienceKey:
    """Scope of one experience record: action, action mode, target, candidate."""

    action: str
    mode: str
    target: str
    candidate: str

    def __post_init__(self):
        for fname in ("action", "mode", "target", "candidate"):
            check_key_field(fname, getattr(self, fname))

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.action, self.mode, self.target, self.candidate)


# largest trial count: a SuitabilityGraph keeps counts in int64 columns
COUNT_MAX = 2**63 - 1


@dataclass(frozen=True)
class ExperienceRecord:
    """Outcome counts plus the persisted posterior for one key."""

    n_success: int = 0
    n_failure: int = 0
    posterior: float = 0.0

    def __post_init__(self):
        if type(self.n_success) is not int or type(self.n_failure) is not int:
            # counts are kept as exact ints (a bool or numpy integer is converted,
            # a float refused): the store's export fills them into "%d" holes
            object.__setattr__(self, "n_success", operator.index(self.n_success))
            object.__setattr__(self, "n_failure", operator.index(self.n_failure))
        if self.n_success < 0 or self.n_failure < 0:
            raise ValueError(f"negative trial counts: ({self.n_success}, {self.n_failure})")
        if self.n_success > COUNT_MAX or self.n_failure > COUNT_MAX:
            raise ValueError(f"trial counts above the int64 maximum {COUNT_MAX}")
        if not (0.0 <= self.posterior <= 1.0):
            raise ValueError(f"posterior out of range [0, 1]: {self.posterior!r}")
        # -0.0 is kept as 0.0: exported as "-0", it would reload as the integer 0
        object.__setattr__(self, "posterior", float(self.posterior) + 0.0)

    @property
    def trial_count(self) -> int:
        return self.n_success + self.n_failure


def beta_parameters(n_success, n_failure, cfg: SuitabilityConfig):
    """Clamped posterior parameters (alpha0 + N+ - 1, beta0 + N- - 1), for a
    pair of counts or for two count columns."""
    return (np.maximum(cfg.alpha0 + n_success - 1.0, PARAM_FLOOR),
            np.maximum(cfg.beta0 + n_failure - 1.0, PARAM_FLOOR))


def success_probability(record: ExperienceRecord, cfg: SuitabilityConfig, rng: np.random.Generator) -> float:
    """Sampled success estimate: mean of beta_sample_count posterior draws.

    Stochastic by design; the sampling noise is the selection loop's
    exploration mechanism. Result is clipped strictly inside (0, 1).
    ``update_posteriors`` draws the same values for every candidate at once.
    """
    a, b = beta_parameters(record.n_success, record.n_failure, cfg)
    draws = rng.beta(a, b, size=cfg.beta_sample_count)
    m = float(draws.mean())
    return min(max(m, _ESTIMATE_EPS), 1.0 - _ESTIMATE_EPS)


def deterministic_success_probability(n_success, n_failure, cfg: SuitabilityConfig):
    """Analytic posterior mean alpha/(alpha+beta), for a pair of counts or
    for two count columns; used by the heuristics and the reports."""
    a, b = beta_parameters(n_success, n_failure, cfg)
    return a / (a + b)


def _left_sum(values: np.ndarray) -> float:
    """Left-to-right float sum on every Python: since 3.12 the builtin sum
    of floats is compensated (Neumaier), and np.sum is pairwise."""
    return np.add.accumulate(values)[-1]


@dataclass(eq=False)
class SuitabilityGraph:
    """Belief state over one target's candidate models, held as columns.

    ``candidates`` lists the object cluster members at construction time in
    sorted order, and row i of every column belongs to ``candidates[i]``:
    the fixed similarity, the outcome counts (n+, n-), the posterior and
    the sampled success estimate of the last update (``estimates``, empty
    before the first). Posteriors always sum to 1 after an update. A graph
    with no candidates cannot be made (EmptyClusterError), so nothing that
    takes a graph checks.
    ``similarity_map`` and ``count_map`` hold the similarity and count rows
    as dicts for the round's trace, built once; whatever changes a count
    column changes ``count_map`` with it.
    """

    target: str
    action: str
    mode: str
    cfg: SuitabilityConfig
    candidates: list[str]
    similarity: np.ndarray
    n_success: np.ndarray
    n_failure: np.ndarray
    post: np.ndarray
    estimates: np.ndarray = field(default_factory=lambda: np.empty(0))
    log_similarity: np.ndarray = field(init=False, repr=False)
    similarity_map: dict[str, float] = field(init=False, repr=False)
    count_map: dict[str, tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.candidates:
            raise EmptyClusterError(self.target)
        sims = self.similarity.tolist()
        self.log_similarity = np.fromiter(map(math.log, sims), float, len(sims))
        self.similarity_map = dict(zip(self.candidates, sims))
        self.count_map = self.counts()

    def index(self, candidate: str) -> int:
        """Row of ``candidate``; KeyError when it is not a cluster member."""
        i = bisect.bisect_left(self.candidates, candidate)
        if i == len(self.candidates) or self.candidates[i] != candidate:
            raise KeyError(candidate)
        return i

    def posterior(self, candidate: str) -> float:
        return float(self.post[self.index(candidate)])

    def posteriors(self) -> dict[str, float]:
        return dict(zip(self.candidates, self.post.tolist()))

    def counts(self) -> dict[str, tuple[int, int]]:
        return dict(zip(self.candidates, zip(self.n_success.tolist(), self.n_failure.tolist())))


def init_graph(
    cluster: ObjectCluster,
    similarities: Mapping[str, float],
    cfg: SuitabilityConfig,
    action: str = "default",
    mode: str = "default",
) -> SuitabilityGraph:
    """Graph over the cluster with uniform posteriors and zero counts."""
    names = sorted(cluster.members)
    k = len(names)
    # a missing similarity reads as NaN, which fails the range check below
    sims = np.fromiter(map(float, map(similarities.get, names, itertools.repeat(math.nan, k))), float, k)
    bad = ~((sims > 0.0) & (sims <= 1.0))
    if bad.any():
        i = int(bad.argmax())
        if names[i] not in similarities:
            raise ValueError(f"missing similarity for candidate {names[i]!r}")
        raise ValueError(f"similarity for {names[i]!r} must lie in (0, 1], got {sims[i].item()!r}")
    zeros = np.zeros(k, dtype=np.int64)
    # an empty cluster gives k = 0 and an empty column; the graph refuses it
    return SuitabilityGraph(cluster.target, action, mode, cfg, names, sims,
                            zeros, zeros.copy(), np.full(k, 1.0) / k)


def update_posteriors(graph: SuitabilityGraph, rng: np.random.Generator) -> SuitabilityGraph:
    """One multiplicative posterior update over all candidates.

    Per candidate: similarity * success_estimate * previous posterior,
    accumulated in log space, shifted by the maximum, exponentiated, and
    normalized. The sampled estimates under ``graph.cfg`` come from one
    ``rng.beta`` call over all candidates in sorted name order, the same
    draws and generator state as success_probability called per candidate
    in that order; this ordering is part of the reproducibility contract.
    A candidate whose posterior has reached exactly 0 stays at 0. Raises
    NormalizationError if every candidate vanished.

    The logs and exponentials are ``math.log`` and ``math.exp`` mapped over
    each column, and the sums and differences are numpy column arithmetic:
    an IEEE add or subtract gives the same bits in numpy as in Python, while
    numpy's log and exp can differ from ``math`` in the last bit.
    """
    cfg = graph.cfg
    k = len(graph.candidates)
    # row i draws what success_probability draws for candidate i: the array
    # fills row by row, and a row sum divided by S reduces a contiguous row
    # exactly as the mean of one candidate's draws does (this is what
    # draws.mean and np.clip compute, without their Python wrappers)
    a, b = beta_parameters(graph.n_success, graph.n_failure, cfg)
    draws = rng.beta(a[:, None], b[:, None], size=(k, cfg.beta_sample_count))
    estimates = np.minimum(np.maximum(np.add.reduce(draws, axis=1) / cfg.beta_sample_count,
                                      _ESTIMATE_EPS), 1.0 - _ESTIMATE_EPS)

    # a prior of exactly 0 has the log term -inf, so its posterior stays 0
    live = graph.post > 0.0
    log_priors = np.fromiter(map(math.log, np.where(live, graph.post, 1.0).tolist()), float, k)
    np.putmask(log_priors, ~live, -math.inf)
    log_unnorm = graph.log_similarity + np.fromiter(map(math.log, estimates.tolist()), float, k) + log_priors
    shift = np.maximum.reduce(log_unnorm)
    if shift == -math.inf:
        raise NormalizationError(f"all candidate posteriors vanished for target {graph.target!r}")
    weights = np.fromiter(map(math.exp, (log_unnorm - shift).tolist()), float, k)
    graph.post = weights / _left_sum(weights)
    graph.estimates = estimates
    return graph


def argmax_random_ties(names: Sequence[str], values, rng: np.random.Generator) -> str:
    """Name with the maximal value; ties broken uniformly at random.

    ``names`` are sorted and ``values`` aligned with them. Values within
    TIE_TOLERANCE of the maximum count as tied. The tie draw is consumed
    only when there actually is a tie.
    """
    values = np.asarray(values, dtype=float)
    tied = (np.maximum.reduce(values) - values <= TIE_TOLERANCE).nonzero()[0]
    if len(tied) == 1:
        return names[tied[0]]
    return names[tied[int(rng.integers(len(tied)))]]


def select_model(graph: SuitabilityGraph, rng: np.random.Generator) -> str:
    """Candidate with the maximal posterior; ties broken uniformly at random."""
    return argmax_random_ties(graph.candidates, graph.post, rng)


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
        record = records[sibling]
        if deterministic_success_probability(record.n_success, record.n_failure, cfg) < cfg.tau:
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
        record = records[member]
        failure = 1.0 - deterministic_success_probability(record.n_success, record.n_failure, cfg)
        if failure < cfg.tau:
            return False
    return True


# -- store-backed selection round --------------------------------------------

# Selector signature used for ablation baselines; default is select_model.
Selector = Callable[[SuitabilityGraph, np.random.Generator], str]


def _normalised(snapshots: np.ndarray) -> np.ndarray:
    """Snapshots divided by their left-to-right sum; uniform when none has mass."""
    total = _left_sum(snapshots)
    if total > 0.0:
        return snapshots / total
    return np.full(len(snapshots), 1.0 / len(snapshots))


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
    stored carries mass, the distribution falls back to uniform. One
    ``wup_similarities`` walk gives the similarities and one
    ``store.records_for`` lookup the records.
    """
    override = similarity_override or {}
    sims = hierarchy.wup_similarities(cluster.target, cluster.members.difference(override))
    sims.update((member, override[member]) for member in cluster.members.intersection(override))
    graph = init_graph(cluster, sims, cfg, action, mode)
    snapshots = graph.post.tolist()
    records = store.records_for(action, mode, cluster.target)
    if records:
        n_success = graph.n_success.tolist()
        n_failure = graph.n_failure.tolist()
        for i, member in enumerate(graph.candidates):
            stored = records.get(member)
            if stored is not None:
                n_success[i], n_failure[i], snapshots[i] = stored.n_success, stored.n_failure, stored.posterior
                graph.count_map[member] = (stored.n_success, stored.n_failure)
        graph.n_success = np.array(n_success, dtype=np.int64)
        graph.n_failure = np.array(n_failure, dtype=np.int64)
    if not reset_posteriors:
        graph.post = _normalised(np.array(snapshots))
    return graph


def store_posteriors(graph: SuitabilityGraph, store) -> None:
    """Write the posterior snapshot of every candidate to the store, all or
    nothing (``store.set_posteriors``)."""
    store.set_posteriors(graph.action, graph.mode, graph.target, graph.candidates, graph.post.tolist())


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
    beliefs: dict | None = None,
) -> tuple[str | None, bool | None]:
    """One execution round for ``target``: select, execute, record.

    Control flow:

    1. Build the object cluster, unless ``beliefs`` holds the target's graph.
    2. ``target`` already has its own model -> execute it directly and return
       (target, outcome); the store is not touched.
    3. Empty cluster -> return (None, None); the caller must learn a new
       model (specification).
    4. Otherwise build the graph from the store (or reuse it), run one
       posterior update, pick a candidate (``selector`` overrides the
       posterior argmax for ablation baselines), execute its model on
       ``target``, record the outcome under (action, mode, target,
       candidate), and persist posterior snapshots for every cluster member
       (with ``beliefs``, the caller does that).

    ``executor(target, model_class) -> bool`` performs the attempt. If it
    raises, the store is left untouched. ``executor=None`` is a dry run:
    the round selects as a real one would and returns (selected, None),
    executing nothing and writing nothing to the store. ``trace``, when
    given, is filled with the fields of ``simulate.TrialStep`` but ``trial``
    before the executor runs; then ``outcome`` is set, and the selected
    candidate's counts include it. ``reset_posteriors`` discards stored
    posteriors when the graph is built from the store.

    ``beliefs`` keeps graphs alive across rounds. With None, every round
    builds the graph from the store and writes all the snapshots back. With
    a dict, the first round of (action, mode, target) keeps its graph there;
    later rounds reuse it, renormalising it as a rebuild from the store
    would, and record only the outcome. The caller then writes each kept
    graph's snapshots with ``store_posteriors``. A kept graph does not read
    the store, registry, taxonomy or ``cfg`` again (its update uses the
    ``graph.cfg`` it was built with): nothing else may change them
    while the dict is in use, and an executor error invalidates it. Dry
    runs take no ``beliefs``.
    """
    if target not in hierarchy:
        raise UnknownClassError(target)
    if beliefs is not None and executor is None:
        raise ValueError("a dry run reads the store and takes no beliefs")
    if trace is None:
        trace = {}
    trace.update(
        target=target, own_model=target in registry, specification_needed=False,
        selected=None, outcome=None, cluster_size=0,
        similarities={}, estimates={}, posteriors={}, counts={},
    )

    graph = beliefs.get((action, mode, target)) if beliefs is not None else None
    if graph is None:
        cluster = hierarchy.object_cluster(target, registry.__contains__, max_ancestor_hops=max_ancestor_hops)
        trace["cluster_size"] = len(cluster)
    if trace["own_model"]:
        trace["selected"] = target
        outcome = trace["outcome"] = None if executor is None else bool(executor(target, target))
        return target, outcome

    if graph is None:
        if not cluster.members:
            trace["specification_needed"] = True
            return None, None
        graph = graph_from_store(
            cluster, hierarchy, store, cfg,
            action=action, mode=mode,
            similarity_override=similarity_override,
            reset_posteriors=reset_posteriors,
        )
        if beliefs is not None:
            beliefs[action, mode, target] = graph
    else:
        graph.post = _normalised(graph.post)

    update_posteriors(graph, rng)
    chosen = selector(graph, rng) if selector is not None else select_model(graph, rng)
    try:
        row = graph.index(chosen)
    except (KeyError, TypeError):
        raise ValueError(f"selector returned {chosen!r}, not a cluster member") from None
    trace.update(
        selected=chosen,
        cluster_size=len(graph.candidates),
        similarities=graph.similarity_map.copy(),
        estimates=dict(zip(graph.candidates, graph.estimates.tolist())),
        posteriors=graph.posteriors(),
        counts=graph.count_map.copy(),
    )
    if executor is None:
        return chosen, None

    outcome = trace["outcome"] = bool(executor(target, chosen))
    record = store.append(ExperienceKey(action, mode, target, chosen), outcome, graph.post[row])
    graph.n_success[row], graph.n_failure[row] = record.n_success, record.n_failure
    trace["counts"][chosen] = graph.count_map[chosen] = (record.n_success, record.n_failure)
    if beliefs is None:
        store_posteriors(graph, store)
    return chosen, outcome
