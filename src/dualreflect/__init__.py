"""Reflection-gated multi-agent tool workflow engine.

A planner decomposes a task into function-bound subtasks, a tool agent picks
calls for an executor, and an answer agent synthesizes the final reply —
each output is self-scored and gated before it moves on, and failed rounds
feed back through a dual short-term / long-term memory. A scripted backend
and a simulated tool sandbox make every control-flow and memory behavior
reproducible offline.
"""

from .backend import (
    ChatBackend,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    RecordingBackend,
    ScriptedBackend,
    ScriptStep,
    TokenTotals,
)
from .harness import SuiteResult, evaluate, report
from .model import (
    ExecutionResult,
    ExecutionStatus,
    FinalAnswer,
    IntraReflection,
    NodeStatus,
    Plan,
    PlanNode,
    RunConfig,
    SuccessPredicate,
    TaskSpec,
    Thresholds,
    ToolCall,
    ToolSpec,
    TrajectoryStep,
)
from .orchestrator import RunResult, RunStatus, run_task
from .sandbox import SandboxRegistry

__version__ = "0.1.0"

__all__ = [
    "ChatBackend",
    "ChatRequest",
    "ChatResponse",
    "HttpBackend",
    "RecordingBackend",
    "ScriptedBackend",
    "ScriptStep",
    "TokenTotals",
    "SuiteResult",
    "evaluate",
    "report",
    "ExecutionResult",
    "ExecutionStatus",
    "FinalAnswer",
    "IntraReflection",
    "NodeStatus",
    "Plan",
    "PlanNode",
    "RunConfig",
    "SuccessPredicate",
    "TaskSpec",
    "Thresholds",
    "ToolCall",
    "ToolSpec",
    "TrajectoryStep",
    "RunResult",
    "RunStatus",
    "run_task",
    "SandboxRegistry",
    "__version__",
]
