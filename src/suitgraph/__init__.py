"""Ontology-assisted reuse of action execution models.

When a robot faces an object class it has no execution model for, the class
taxonomy proposes candidate models from related classes (ancestors, siblings,
children). A suitability graph weighs each candidate by taxonomic similarity
and recorded execution experience, selects one to try, and updates its belief
from the outcome. Heuristics decide when a model generalises to a parent
class and when a new model must be learned from scratch.
"""

from .canonical import dumps as canonical_dumps
from .ontology import (
    ClassHierarchy,
    ObjectCluster,
    OntologyError,
    UnknownClassError,
    household_taxonomy_path,
    load_hierarchy,
    parse_hierarchy,
    parse_json_tree,
    parse_owl_subset,
)
from .simulate import (
    STRATEGIES,
    CampaignConfig,
    GroundTruthMatrix,
    TargetSummary,
    TrialLog,
    TrialStep,
    baseline_select,
    report_csv,
    report_json,
    run_campaign,
    simulate_execution,
    summarize,
)
from .store import SCHEMA_VERSION, KnowledgeBase, SchemaError
from .suitability import (
    EmptyClusterError,
    ExperienceKey,
    ExperienceRecord,
    MissingRecordError,
    NormalizationError,
    SuitabilityConfig,
    SuitabilityGraph,
    beta_parameters,
    deterministic_success_probability,
    generalisation_check,
    generalise_execution_model,
    graph_from_store,
    init_graph,
    record_outcome,
    select_model,
    specification_check,
    success_probability,
    update_posteriors,
)

__version__ = "0.1.0"
