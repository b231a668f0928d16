"""granite: granularity-aware change prediction over Git repositories.

Mines class- and method-level change histories from a local Git repository,
builds labeled metric datasets per release pair, trains a random forest,
and evaluates predictions directly, via class-to-method projection, and with
effort-aware top-k change ratios.
"""

__version__ = "0.1.0"

from granite.textdiff import diff_sizes, lcs_length, line_churn, similarity
from granite.gitrepo import (
    CommitMeta,
    FileSnapshot,
    GitRepo,
    ReleasePair,
    RepositoryError,
    linearize_commits,
    resolve_release_pairs,
)
from granite.javaparse import ModuleDef, ModuleId, extract_modules, parse_module_id, parse_source
from granite.tracking import (
    ChangeEvent,
    ChangeHistory,
    HistoryScanner,
    build_change_histories,
    count_changes_between,
    match_renames,
    module_loc,
)
from granite.metrics import (
    CLASS_METRIC_NAMES,
    METHOD_METRIC_NAMES,
    PROCESS_METRIC_NAMES,
    class_hierarchy,
    class_product_metrics,
    method_product_metrics,
    process_metrics,
)
from granite.dataset import (
    LabeledDataset,
    assemble,
    feature_names_for,
    label_change_prone,
    min_max_normalize,
    random_under_sample,
)
from granite.forest import (
    CrossValResult,
    ForestModel,
    ForestParams,
    PredictionScore,
    cross_validate,
    predict_proba,
    score_matrix,
    train_random_forest,
)
from granite.evaluation import (
    ChangeSizes,
    ConfusionCounts,
    EvalScores,
    auc_roc,
    change_sizes,
    classification_scores,
    confusion_counts,
    project_class_predictions_to_methods,
    rank_by_score,
    top_k_change_ratio,
    top_k_cutoff,
)
from granite.stats import StatResult, cliffs_delta, compare_paired, wilcoxon_signed_rank
from granite.experiment import ExperimentConfig, RepoSpec, load_config, run_experiment
