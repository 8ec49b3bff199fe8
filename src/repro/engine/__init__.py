"""Query engine: compiler, optimizer, executor, session facade, results,
prepared queries and the plan cache."""

from repro.engine.compiler import CompiledQuery, compile_query
from repro.engine.construct import DirectEvaluator
from repro.engine.cost import CostModel
from repro.engine.database import Database
from repro.engine.executor import FLWORExecutor
from repro.engine.optimizer import PlanChoice, choose_strategy
from repro.engine.plancache import PlanCache, normalize_query_text
from repro.engine.prepared import CachedPlan, PreparedQuery, normalize_bindings
from repro.engine.result import QueryResult
from repro.engine.session import Engine

__all__ = [
    "CachedPlan",
    "CompiledQuery",
    "CostModel",
    "Database",
    "DirectEvaluator",
    "Engine",
    "FLWORExecutor",
    "PlanCache",
    "PlanChoice",
    "PreparedQuery",
    "QueryResult",
    "choose_strategy",
    "compile_query",
    "normalize_bindings",
    "normalize_query_text",
]
