"""Interpretable threshold-rule learning over brain-connectome edges.

Pipeline: load or synthesize a cohort of weighted connectomes, mask edges by
group-level occurrence, fit a Gini-impurity tree or forest, select the most
discriminative edges, compile them into a weighted symbolic learning task,
and solve it exactly for a minimal-score set of threshold rules separating
AD from CN subjects.
"""

from .cohort import (
    AD,
    CN,
    Cohort,
    EdgeId,
    EdgeMask,
    Features,
    PlantedEdge,
    RegionAtlas,
    Subject,
    apply_mask,
    canonical_edges,
    compute_mask,
    default_atlas,
    edge,
    generate_synthetic,
    load_cohort,
    save_cohort,
)
from .crossval import (
    CVConfig,
    RunReport,
    fit_fold,
    report_to_json,
    run_pipeline,
    stratified_folds,
    stratified_subsample,
)
from .forest import (
    Forest,
    ForestParams,
    fit_forest,
    forest_atom_count,
    forest_importance,
    predict_forest,
)
from .inference import Metrics, Prediction, evaluate, predict
from .learner import (
    BodyLiteral,
    Hypothesis,
    LearnResult,
    Rule,
    Score,
    covers,
    enumerate_candidates,
    hypothesis_to_text,
    learn,
    parse_hypothesis_text,
    rule_fires,
    score,
    union_hypotheses,
)
from .selection import (
    InstanceExplanation,
    SelectedEdges,
    SelectorConfig,
    aggregate_frequency,
    load_explanations,
    select_global,
)
from .taskgen import (
    Example,
    HypothesisSpace,
    LearningTask,
    TaskPartition,
    build_examples,
    build_space,
    parse_task_text,
    partition_tasks,
    scale_strength,
    serialize_task,
    task_to_text,
)
from .tree import (
    ClassCounts,
    DecisionTree,
    ImportanceRanking,
    TreeParams,
    fit_tree,
    gini,
    predict_tree,
    tree_atom_count,
    tree_importance,
)

__version__ = "0.1.0"
