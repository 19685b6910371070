"""The paper's contribution: tuning strategy + three-kernel batch scan +
multi-GPU/multi-node proposals."""

from repro.core.api import batch_scan, estimate, recommend_proposal, scan
from repro.core.chained import ScanChained
from repro.core.executor import (
    Placement,
    PlanResolver,
    ProposalSpec,
    ScanExecutor,
    ScanRequest,
    build_executor,
    proposal_names,
    proposal_specs,
)
from repro.core.multi_gpu import ScanMPS, ScanProblemParallel
from repro.core.multi_node import ScanMultiNodeMPS
from repro.core.occupancy_table import (
    OccupancyTableRow,
    format_occupancy_table,
    occupancy_table,
)
from repro.core.params import (
    ExecutionPlan,
    KernelParams,
    NodeConfig,
    ProblemConfig,
    StagePlan,
)
from repro.core.plan import build_execution_plan, default_stage1_template
from repro.core.premises import (
    Premise1Result,
    derive_stage_kernel_params,
    k_search_space,
    premise1_block_configuration,
    premise2_p,
    premise3_k_max,
    premise4_k_max_prioritized,
    premise4_k_max_scattering,
)
from repro.core.prioritized import ScanMPPC
from repro.core.compare import compare_proposals, format_comparison
from repro.core.ragged import scan_ragged, scan_segments
from repro.core.segmented_device import scan_segmented_device
from repro.core.validation import ValidationReport, verify_scan_result
from repro.core.results import ScanResult
from repro.core.single_gpu import ScanSP, scan_single_gpu
from repro.core.store import (
    PlanStore,
    SessionSnapshot,
    build_session_snapshot,
    cache_dir,
    default_autotune_path,
    default_snapshot_path,
    export_resolver_plans,
    plan_key,
    prime_resolver_plans,
)
from repro.core.autotune_cache import AutotuneCache, CachedTuner
from repro.core.tuner import KCandidate, PremiseTuner, TuningOutcome, tune_k

__all__ = [
    "batch_scan",
    "estimate",
    "recommend_proposal",
    "scan",
    "Placement",
    "PlanResolver",
    "ProposalSpec",
    "ScanExecutor",
    "ScanRequest",
    "build_executor",
    "proposal_names",
    "proposal_specs",
    "ScanMPS",
    "ScanProblemParallel",
    "ScanMultiNodeMPS",
    "OccupancyTableRow",
    "format_occupancy_table",
    "occupancy_table",
    "ExecutionPlan",
    "KernelParams",
    "NodeConfig",
    "ProblemConfig",
    "StagePlan",
    "build_execution_plan",
    "default_stage1_template",
    "Premise1Result",
    "derive_stage_kernel_params",
    "k_search_space",
    "premise1_block_configuration",
    "premise2_p",
    "premise3_k_max",
    "premise4_k_max_prioritized",
    "premise4_k_max_scattering",
    "ScanChained",
    "ScanMPPC",
    "compare_proposals",
    "format_comparison",
    "scan_ragged",
    "scan_segments",
    "scan_segmented_device",
    "ValidationReport",
    "verify_scan_result",
    "ScanResult",
    "ScanSP",
    "scan_single_gpu",
    "PlanStore",
    "SessionSnapshot",
    "build_session_snapshot",
    "cache_dir",
    "default_autotune_path",
    "default_snapshot_path",
    "export_resolver_plans",
    "plan_key",
    "prime_resolver_plans",
    "AutotuneCache",
    "CachedTuner",
    "KCandidate",
    "PremiseTuner",
    "TuningOutcome",
    "tune_k",
]
