"""Experiment drivers regenerating every table and figure of the paper.

Each module corresponds to one paper artefact (see ``docs/experiments.md``)
and registers a uniform :class:`~repro.experiments.registry.Experiment` in
the registry: a spec class (scale preset + per-experiment overrides), a
runner producing the module's rich result dataclass, flat JSON-safe record
rows, and a verdict on the paper's qualitative claim.  Run them through the
registry (``get_experiment("figure8").run(scale="paper")``), the aggregate
:func:`~repro.experiments.runner.run_all`, or the CLI
(``python -m repro run figure8``).  The historical ``run_*`` entry points
remain as thin back-compat wrappers returning the same result objects.
"""

from .active_nodes import ActiveNodeResult, ActiveNodesSpec, run_active_nodes
from .api import (
    ExperimentResult,
    ExperimentSpec,
    Verdict,
)
from .burstiness import (
    BurstinessResult,
    BurstinessSpec,
    gilbert_for_average_loss,
    run_burstiness,
)
from .figure1 import Figure1Result, Figure1Spec, run_figure1
from .figure2 import Figure2Result, Figure2Spec, run_figure2
from .figure3 import Figure3Result, Figure3Spec, RemovalOutcome, run_figure3
from .figure4 import Figure4Result, Figure4Spec, run_figure4
from .figure5 import Figure5Result, Figure5Spec, run_figure5
from .figure6 import Figure6Result, Figure6Spec, run_figure6
from .figure7 import Figure7Result, Figure7Spec, run_figure7
from .figure8 import (
    Figure8Panel,
    Figure8PanelSpec,
    Figure8Point,
    Figure8Result,
    Figure8Spec,
    run_figure8,
    run_figure8_panel,
)
from .fixed_layers import FixedLayerResult, FixedLayersSpec, run_fixed_layers
from .layer_ablation import LayerAblationResult, LayerAblationSpec, run_layer_ablation
from .leave_latency import LeaveLatencyResult, LeaveLatencySpec, run_leave_latency
from .loss_correlation import (
    LossCorrelationResult,
    LossCorrelationSpec,
    run_loss_correlation,
)
from .mixed_sessions import (
    ConversionStep,
    MixedSessionsResult,
    MixedSessionsSpec,
    run_mixed_sessions,
)
from .parallel import default_jobs, run_star_repetitions, task_seeds
from .registry import (
    Experiment,
    all_experiments,
    experiment_keys,
    get_experiment,
    register,
    register_module,
)
from .resilient import TaskFailure, resilient_map
from .runner import EXPERIMENT_KEYS, run_all, run_specs
from .scalefree_bottleneck import (
    ScaleFreeBottleneckResult,
    ScaleFreeBottleneckSpec,
    TopologyOutcome,
    run_scalefree_bottleneck,
)
from .store import ResultStore, cache_key

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "Verdict",
    "Experiment",
    "register",
    "register_module",
    "get_experiment",
    "experiment_keys",
    "all_experiments",
    "run_specs",
    "ResultStore",
    "cache_key",
    "TaskFailure",
    "resilient_map",
    "ActiveNodesSpec",
    "ActiveNodeResult",
    "run_active_nodes",
    "BurstinessSpec",
    "BurstinessResult",
    "gilbert_for_average_loss",
    "run_burstiness",
    "LeaveLatencySpec",
    "LeaveLatencyResult",
    "run_leave_latency",
    "Figure1Spec",
    "Figure1Result",
    "run_figure1",
    "Figure2Spec",
    "Figure2Result",
    "run_figure2",
    "Figure3Spec",
    "Figure3Result",
    "RemovalOutcome",
    "run_figure3",
    "Figure4Spec",
    "Figure4Result",
    "run_figure4",
    "Figure5Spec",
    "Figure5Result",
    "run_figure5",
    "Figure6Spec",
    "Figure6Result",
    "run_figure6",
    "Figure7Spec",
    "Figure7Result",
    "run_figure7",
    "Figure8Spec",
    "Figure8PanelSpec",
    "Figure8Panel",
    "Figure8Point",
    "Figure8Result",
    "run_figure8",
    "run_figure8_panel",
    "FixedLayersSpec",
    "FixedLayerResult",
    "run_fixed_layers",
    "LayerAblationSpec",
    "LayerAblationResult",
    "run_layer_ablation",
    "LossCorrelationSpec",
    "LossCorrelationResult",
    "run_loss_correlation",
    "ConversionStep",
    "MixedSessionsSpec",
    "MixedSessionsResult",
    "run_mixed_sessions",
    "ScaleFreeBottleneckSpec",
    "ScaleFreeBottleneckResult",
    "TopologyOutcome",
    "run_scalefree_bottleneck",
    "default_jobs",
    "run_star_repetitions",
    "task_seeds",
    "EXPERIMENT_KEYS",
    "run_all",
]
