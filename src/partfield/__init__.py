"""Part-aware point-cloud feature fields with a diffusion-based reaching
policy, trained and evaluated on procedurally generated part-labeled
shapes."""

from .codebook import PartNameCodebook, build_codebook, build_codebooks, query_similarity
from .descriptors import extract_descriptors
from .diffusion import (NoiseSchedule, Observation, PolicyParams,
                        PolicyTrainConfig, ddim_step, forward_noise,
                        make_schedule, policy_forward, pool_with_part_query,
                        sample_actions, train_policy)
from .downstream import (Correspondence, Segmentation, agglomerative_cluster,
                         correspondence_part_accuracy, match_miou,
                         nn_correspondence, pca_colorize)
from .env import (Episode, FieldPipeline, PoseRanges, Task, evaluate_splits,
                  make_task, rollout, scripted_expert, step)
from .errors import (FormatError, InvalidArgumentError, NotFoundError,
                     NumericalError)
from .field import (FeatureField, RefineNetParams, TrainConfig, forward,
                    init_refine_net, part_similarity_stats, train_field)
from .geometry import (CATEGORIES, PART_VOCAB, SEEN_CATEGORIES,
                       PartLabeledCloud, RigidPose, apply_pose,
                       farthest_point_sample, generate_object, load_cloud_ply,
                       load_dataset, save_cloud_ply, save_dataset)
from .losses import (LabeledFeatureBatch, LossConfig, geometric_loss,
                     loss_gradients, semantic_loss)

__version__ = "0.1.0"
