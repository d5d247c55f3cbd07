"""Experiment harness: everything needed to regenerate the paper's
evaluation (Figure 5 and the in-text claims) plus the ablations that
probe each design decision.
"""

from repro.evalharness.artifacts import (
    Artifact,
    ArtifactCache,
    artifact_key,
    resolve_artifact,
)
from repro.evalharness.experiment import (
    DEFAULT_CACHE,
    ExperimentResult,
    evaluate_trace,
    run_benchmark,
    run_compiled,
)
from repro.evalharness.figure5 import Figure5Row, figure5_table, format_figure5
from repro.evalharness.parallel import (
    EvalUnit,
    Journal,
    Supervisor,
    evaluate_unit,
    run_units,
    unit_fingerprint,
)
from repro.evalharness.sweeps import (
    cache_size_sweep,
    kill_bit_ablation,
    policy_ablation,
    promotion_ablation,
    spill_ablation,
)
from repro.evalharness.tables import format_table
from repro.evalharness.unifiedcache import (
    record_combined_trace,
    replay_combined,
    unified_cache_comparison,
)

__all__ = [
    "record_combined_trace",
    "replay_combined",
    "unified_cache_comparison",
    "Artifact",
    "ArtifactCache",
    "artifact_key",
    "resolve_artifact",
    "DEFAULT_CACHE",
    "ExperimentResult",
    "EvalUnit",
    "Journal",
    "Supervisor",
    "evaluate_trace",
    "evaluate_unit",
    "run_benchmark",
    "run_compiled",
    "run_units",
    "unit_fingerprint",
    "Figure5Row",
    "figure5_table",
    "format_figure5",
    "cache_size_sweep",
    "policy_ablation",
    "kill_bit_ablation",
    "spill_ablation",
    "promotion_ablation",
    "format_table",
]
