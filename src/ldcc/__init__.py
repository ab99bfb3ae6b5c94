"""Co-clustering of classification tasks.

Tasks are modeled as mixtures of task themes; each task theme is a Dirichlet
distribution over shared Gaussian image themes.  The package trains the
shared themes online over streams of tasks, infers a Dirichlet posterior
embedding per task, and measures task similarity as the KL divergence
between those posteriors.
"""

__version__ = "0.1.0"

from . import errors, special, streams
from .data import (
    LatentRecord,
    Task,
    TaskCollection,
    generate_synthetic,
    load_latents,
    load_task_file,
    load_tasks,
    save_latents,
    save_tasks,
)
from .inference import (
    Posterior,
    estep_blocks,
    read_lambda_csv,
    run_estep,
    write_lambda_csv,
)
from .learning import (
    AlphaNewtonWork,
    LocalThemeStats,
    TrainLogRow,
    accumulate_stats,
    alpha_newton_direction,
    alpha_newton_work,
    local_mstep,
    online_update,
    train,
    write_training_log,
)
from .model import (
    ThemeModel,
    TrainConfig,
    init_model,
    load_model,
    save_model,
)
from .similarity import (
    DiagramBin,
    correlation_diagram,
    dirichlet_kl,
    distance_matrix,
    select_tasks,
)

__all__ = [
    "__version__",
    "errors",
    "special",
    "streams",
    "Task",
    "TaskCollection",
    "LatentRecord",
    "generate_synthetic",
    "save_tasks",
    "load_tasks",
    "load_task_file",
    "save_latents",
    "load_latents",
    "ThemeModel",
    "TrainConfig",
    "init_model",
    "save_model",
    "load_model",
    "Posterior",
    "run_estep",
    "estep_blocks",
    "write_lambda_csv",
    "read_lambda_csv",
    "LocalThemeStats",
    "AlphaNewtonWork",
    "TrainLogRow",
    "accumulate_stats",
    "local_mstep",
    "alpha_newton_work",
    "alpha_newton_direction",
    "online_update",
    "train",
    "write_training_log",
    "dirichlet_kl",
    "distance_matrix",
    "DiagramBin",
    "correlation_diagram",
    "select_tasks",
]
