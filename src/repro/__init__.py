"""CerFix: cleaning data with certain fixes.

A full reproduction of *CerFix: A System for Cleaning Data with Certain
Fixes* (Fan, Li, Ma, Tang, Yu — PVLDB 4(12), 2011) and the editing-rule
machinery of its companion paper (PVLDB 2010). See README.md for a tour
and DESIGN.md for the architecture and experiment index.

Quickstart::

    from repro import CerFix, OracleUser
    from repro.scenarios import uk_customers as uk

    engine = CerFix(uk.paper_ruleset(), uk.paper_master())
    session = engine.fix(uk.fig3_tuple(), OracleUser(uk.fig3_truth()), "t1")
    assert session.is_complete
    print(session.fixed_values())
"""

from repro.engine import CerFix, MasterUpdateReport
from repro.errors import (
    BudgetExceededError,
    CerFixError,
    ConflictError,
    MasterDataError,
    MonitorError,
    ParseError,
    PatternError,
    RelationError,
    RuleError,
    SchemaError,
    ValidationError,
)
from repro.core import (
    CertaintyMode,
    ChaseResult,
    Constant,
    EditingRule,
    Eq,
    MasterColumn,
    MatchPair,
    NotIn,
    PatternTuple,
    RankedRegion,
    Region,
    RuleSet,
    WILDCARD,
    chase,
    check_consistency,
    find_certain_regions,
    is_certain_region,
    mandatory_attributes,
)
from repro.core.pattern import Neq
from repro.master import (
    STORE_BACKENDS,
    MasterDataManager,
    MasterStore,
    RemoteMasterStore,
    ShardedMasterStore,
    SingleRelationStore,
    SqliteMasterStore,
    make_store,
)
from repro.batch import (
    BatchCleaner,
    BatchReport,
    BatchResult,
    CheckpointJournal,
    ProbeCache,
)
from repro.cache import CacheStats, LRUCache
from repro.service import (
    AsyncCerFixServer,
    AsyncCerFixService,
    LoadReport,
    ServiceMetrics,
    SharedProbeCache,
    run_load,
)
from repro.audit import AuditLog, attribute_stats, overall_stats
from repro.monitor import (
    CautiousUser,
    MonitorSession,
    OracleUser,
    ScriptedUser,
    SelectiveUser,
    StreamProcessor,
    Suggestion,
    SuggestionStrategy,
)
from repro.relational import Relation, Row, Schema, Attribute
from repro.rules import (
    CFD,
    MatchingDependency,
    editing_rules_from_cfd,
    editing_rules_from_md,
    parse_rule,
    parse_rules,
)
from repro.discovery import discover_constant_cfds, discover_fds, discover_mds
from repro.config import InstanceConfig, load_instance, save_instance

__version__ = "1.5.0"

__all__ = [
    "CerFix",
    "MasterUpdateReport",
    "CerFixError",
    "SchemaError",
    "RelationError",
    "RuleError",
    "PatternError",
    "ParseError",
    "ConflictError",
    "BudgetExceededError",
    "MasterDataError",
    "MonitorError",
    "ValidationError",
    "CertaintyMode",
    "ChaseResult",
    "Constant",
    "EditingRule",
    "Eq",
    "Neq",
    "NotIn",
    "WILDCARD",
    "MasterColumn",
    "MatchPair",
    "PatternTuple",
    "RankedRegion",
    "Region",
    "RuleSet",
    "chase",
    "check_consistency",
    "find_certain_regions",
    "is_certain_region",
    "mandatory_attributes",
    "MasterDataManager",
    "MasterStore",
    "SingleRelationStore",
    "ShardedMasterStore",
    "SqliteMasterStore",
    "RemoteMasterStore",
    "STORE_BACKENDS",
    "make_store",
    "AsyncCerFixServer",
    "AsyncCerFixService",
    "LoadReport",
    "ServiceMetrics",
    "SharedProbeCache",
    "run_load",
    "BatchCleaner",
    "BatchReport",
    "BatchResult",
    "CacheStats",
    "CheckpointJournal",
    "LRUCache",
    "ProbeCache",
    "AuditLog",
    "attribute_stats",
    "overall_stats",
    "MonitorSession",
    "OracleUser",
    "CautiousUser",
    "SelectiveUser",
    "ScriptedUser",
    "StreamProcessor",
    "Suggestion",
    "SuggestionStrategy",
    "Relation",
    "Row",
    "Schema",
    "Attribute",
    "CFD",
    "MatchingDependency",
    "editing_rules_from_cfd",
    "editing_rules_from_md",
    "parse_rule",
    "parse_rules",
    "discover_constant_cfds",
    "discover_fds",
    "discover_mds",
    "InstanceConfig",
    "load_instance",
    "save_instance",
    "__version__",
]
