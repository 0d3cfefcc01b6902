"""Desk-scale metric-learning toolkit.

Consecutive row-band drop schedules on feature maps, a sigmoid-weighted
batch-hard triplet loss with analytic gradients, a small train/infer
pipeline, retrieval metrics with k-reciprocal re-ranking, and a seeded
synthetic identity dataset, all verified against brute-force oracles.
"""

__version__ = "0.1.0"

from .data_synth import Sample, SynthConfig, SynthDataset, generate, pk_batches
from .dropmask import (BatchDropBlock, BatchDropout, DropBlock, DropStrategyKind,
                       ElementDropout, NoDrop, OverlapRowDrop, SpatialDropout,
                       UniformRowDrop, apply_mask, baseline_mask, branch_masks,
                       overlap_row_partition, uniform_row_partition)
from .elastic_loss import (HardPairs, batch_elastic_loss, batch_hard_mine,
                           batch_hard_triplet_loss, elastic_weight,
                           sq_dist_matrix)
from .errors import ConfigError, DegenerateBatchError, NumericError, ShapeError
from .model import (ForwardOutput, ModelConfig, ModelParams, forward_train,
                    infer, init_params, learning_rate, load_checkpoint,
                    save_checkpoint, train)
from .numerics import (ParamTensor, adam_step, finite_diff_grad, linear_backward,
                       linear_forward, max_rel_error, relu_backward, relu_forward,
                       softmax_cross_entropy)
from .retrieval_eval import (EvalMetrics, QuerySet, RetrievalSet, evaluate,
                             k_reciprocal_rerank)
