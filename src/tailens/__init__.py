"""Class-balanced expert ensembles for long-tailed classification.

The training distribution is long-tailed but evaluation is class-balanced.
This package splits the class spectrum into Manyshot / Mediumshot / Fewshot
subsets, trains one expert per subset with a reject output for everything
else, and fuses the experts' partial posteriors into full posteriors with
five interchangeable strategies. Oracle routing, take-one-out ablations,
expert-collision matrices, and confidence histograms quantify what the
ensemble does and where fusion loses accuracy.
"""

from ._io import DataError
from .dataset import (
    DEFAULT_FEW_MAX,
    DEFAULT_MANY_MIN,
    DatasetBundle,
    EmbeddingDataset,
    EmptyFoldError,
    Fold,
    FoldAssignment,
    SamplerMode,
    SubsetSpec,
    SyntheticConfig,
    assign_folds,
    draw_batch,
    generate_longtailed,
    load_bundle,
    load_embeddings,
    partition_subsets,
    powerlaw_frequencies,
    relabel_for_expert,
    save_bundle,
)
from .network import (
    DivergenceError,
    NetworkParams,
    TrainConfig,
    backward_gradients,
    cosine_lr,
    cross_entropy_loss,
    finite_diff_check,
    forward_logits,
    init_network,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train_network,
)
from .experts import (
    BaselineModel,
    ExpertModel,
    HyperparamSelection,
    PartialPosterior,
    expert_partial_posterior,
    expert_subset_accuracy,
    finetune_uniform_classifier,
    load_baseline_checkpoint,
    load_expert_checkpoint,
    save_baseline_checkpoint,
    save_expert_checkpoint,
    select_expert_hyperparams,
    suggest_rho,
    train_baseline,
    train_expert,
)
from .fusion import (
    CalibrationParams,
    KLFusionResult,
    SelectorModel,
    StackerModel,
    calibration_finite_diff_check,
    calibration_gradient,
    expand_partial,
    fuse_by_selection,
    fuse_by_stacking,
    fuse_calibrated,
    fuse_kl_min,
    fuse_soft_vote,
    train_expert_selector,
    train_joint_calibration,
    train_stacker,
)
from ._dumps import ExternalPosteriorTable, ingest_external_posteriors
from .evaluation import (
    ConfidenceHistogram,
    EvalReport,
    ExpertConfusionMatrix,
    confidence_histogram,
    expert_confusion_matrix,
    fourfold_accuracy,
    msp_histogram,
    oracle_evaluate,
    take_one_out_ablation,
)
from .config import RunConfig, load_config, parse_config, serialize_config
from .pipeline import (
    TrainedEnsemble,
    model_posterior_tables,
    prepare_bundle,
    synth60_config,
    train_all,
)

__version__ = "0.1.0"
