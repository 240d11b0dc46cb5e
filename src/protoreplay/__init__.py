"""Variational prototype replay engine for few-shot continual learning."""

from .autodiff import Tensor, ShapeError, forward_op, grad_check
from .proto import (SamplingConfig, VariationalEmbedding, VariationalPrototype,
                    LatentSample, batch_prototype, compute_prototype, sample_latent,
                    weighted_distance, class_posterior, classification_loss,
                    replay_loss)
from .encoder import (LayerSpec, EncoderParams, encode, init_encoder,
                      reference_architecture, baseline_head, param_count)
from .memory import (EpisodicMemory, FootprintReport, store_exemplars,
                     store_prototypes, rebalance, memory_footprint,
                     save_memory, load_memory)
from .data import (Dataset, Image, TaskSpec, ProtocolSchedule, load_idx,
                   synthetic_blobs, permuted_protocol, split_protocol)
from .trainer import (TrainerConfig, TrainingState, split_support_query,
                      train_task, sgd_step, evaluate, train_baseline,
                      run_continual)
from .analysis import (AccuracyMatrix, PrototypeHistoryLog, summarize, pca_fit,
                       prototype_trajectories, motion_similarity)

__version__ = "0.1.0"
