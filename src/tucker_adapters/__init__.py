"""Tensor-factorized adapters with a lifelong-learning pipeline.

The library decomposes per-scenario weight updates for a frozen backbone
into one Tucker adapter: a shared core with up and down projections and one
expert factor matrix per hierarchy (scene and environment, plus instruction
types for a fifth-order core), trains them sequentially with consolidation
losses, selects experts at inference by cosine retrieval, synthesizes
degraded imagery with physical models, and scores navigation episodes with
success and forgetting metrics. The baselines (LoRA, per-task LoRA as task
experts, a shared-down mixture and a three-level chain) are adapters of the
same interface.
"""

from .adapters import (
    AbcLoraAdapter,
    AdapterBase,
    LoraAdapter,
    Selection,
    SharedAMoeAdapter,
    TaskLoraAdapter,
    TuckerAdapter,
)
from .config import ConfigError, ExperimentConfig
from .metrics import (
    EpisodeRecord,
    TaskScore,
    forgetting_rate,
    oracle_success,
    spl,
    success_rate,
)
from .retrieval import FeatureStore
from .tasks import (
    SyntheticEpisode,
    TaskDescriptor,
    ToyBackbone,
    World,
    WorldConfig,
    gen_episode,
    gen_stream,
)
from .tensor_ops import (
    contract_adapter,
    mode_n_product,
    tucker_reconstruct,
)
from .training import AdamState, adam_step, fisher_ema, fisher_estimate

__version__ = "0.1.0"
