"""Ontology-assisted reuse of action execution models.

When a robot faces an object class it has no execution model for, the class
taxonomy proposes candidate models from related classes (ancestors, siblings,
children). A suitability graph weighs each candidate by taxonomic similarity
and recorded execution experience, selects one to try, and updates its belief
from the outcome. Heuristics decide when a model generalises to a parent
class and when a new model must be learned from scratch.
"""

from .ontology import OntologyError, UnknownClassError, household_taxonomy_path, load_hierarchy
from .simulate import CampaignConfig, GroundTruthMatrix, run_campaign
from .store import KnowledgeBase, SchemaError
from .suitability import (
    EmptyClusterError,
    ExperienceKey,
    MissingRecordError,
    NormalizationError,
    SuitabilityConfig,
    generalisation_check,
    generalise_execution_model,
    init_graph,
    select_model,
    specification_check,
    update_posteriors,
)

__version__ = "0.1.0"
