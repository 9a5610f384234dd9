"""Experiment drivers regenerating every table and figure of the paper.

Each module corresponds to one paper artefact (see ``docs/experiments.md``)
and registers a uniform :class:`~repro.experiments.registry.Experiment` in
the registry: a spec class (scale presets + per-experiment overrides), a
``body`` producing the module's rich result dataclass from the resolved
spec, flat JSON-safe record rows, and a verdict on the paper's qualitative
claim.  Run them through the registry
(``get_experiment("figure8").run(scale="paper")``; the rich result object
is ``.payload``), a batch of ``(key, spec)`` tasks
(:func:`~repro.experiments.runner.run_specs`), or the CLI
(``python -m repro run figure8``).

The experiment modules are imported below in execution order (paper
figures first, then ablations and extensions): registration order is the
order of ``repro list`` and ``repro run all``.
"""

from .api import (
    ExperimentResult,
    ExperimentSpec,
    Verdict,
)
from .figure1 import Figure1Result, Figure1Spec
from .figure2 import Figure2Result, Figure2Spec
from .figure3 import Figure3Result, Figure3Spec, RemovalOutcome
from .figure4 import Figure4Result, Figure4Spec
from .figure5 import Figure5Result, Figure5Spec
from .figure6 import Figure6Result, Figure6Spec
from .fixed_layers import FixedLayerResult, FixedLayersSpec
from .figure7 import Figure7Result, Figure7Spec
from .figure8 import (
    Figure8Panel,
    Figure8PanelSpec,
    Figure8Point,
    Figure8Result,
    Figure8Spec,
)
from .layer_ablation import LayerAblationResult, LayerAblationSpec
from .loss_correlation import LossCorrelationResult, LossCorrelationSpec
from .mixed_sessions import ConversionStep, MixedSessionsResult, MixedSessionsSpec
from .active_nodes import ActiveNodeResult, ActiveNodesSpec
from .leave_latency import LeaveLatencyResult, LeaveLatencySpec
from .burstiness import BurstinessResult, BurstinessSpec, gilbert_for_average_loss
from .scalefree_bottleneck import (
    ScaleFreeBottleneckResult,
    ScaleFreeBottleneckSpec,
    TopologyOutcome,
)
from .registry import (
    Experiment,
    all_experiments,
    experiment_keys,
    get_experiment,
    register,
    register_module,
)
from .resilient import TaskFailure, resilient_map
from .runner import run_specs
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
    "Figure1Spec",
    "Figure1Result",
    "Figure2Spec",
    "Figure2Result",
    "Figure3Spec",
    "Figure3Result",
    "RemovalOutcome",
    "Figure4Spec",
    "Figure4Result",
    "Figure5Spec",
    "Figure5Result",
    "Figure6Spec",
    "Figure6Result",
    "FixedLayersSpec",
    "FixedLayerResult",
    "Figure7Spec",
    "Figure7Result",
    "Figure8Spec",
    "Figure8PanelSpec",
    "Figure8Panel",
    "Figure8Point",
    "Figure8Result",
    "LayerAblationSpec",
    "LayerAblationResult",
    "LossCorrelationSpec",
    "LossCorrelationResult",
    "ConversionStep",
    "MixedSessionsSpec",
    "MixedSessionsResult",
    "ActiveNodesSpec",
    "ActiveNodeResult",
    "LeaveLatencySpec",
    "LeaveLatencyResult",
    "BurstinessSpec",
    "BurstinessResult",
    "gilbert_for_average_loss",
    "ScaleFreeBottleneckSpec",
    "ScaleFreeBottleneckResult",
    "TopologyOutcome",
]
