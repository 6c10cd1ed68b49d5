"""The invalidator module (paper §4).

Sub-modules follow the paper's decomposition:

* :mod:`registration` — query-type registration and discovery (§4.1);
* :mod:`policies` — invalidation-policy registration and discovery
  (§4.1.3–4.1.4);
* :mod:`updates` — update processing into Δ⁺/Δ⁻ tables (§4.2.1);
* :mod:`analysis` — the independence check deciding, per (query instance,
  update), affected / unaffected / needs-polling (Example 4.1);
* :mod:`polling` — polling-query generation and execution (§4.2.2–4.2.3);
* :mod:`scheduler` — deadlines and the polling budget (§4.2.2);
* :mod:`infomgmt` — the information management module (§4.3);
* :mod:`generator` — invalidation message creation (§4.2.4);
* :mod:`safety` — lint-derived SAFE / POLL_ONLY / ALWAYS_EJECT
  enforcement verdicts and the conservative-fallback enforcer;
* :mod:`decide` — the decision: tier assembly, the per-pair cascade and
  the budgeted poll phase (run by :mod:`repro.stream`'s pipeline);
* :mod:`invalidator` — the per-cycle report, plus the two baseline
  invalidators (trigger-based and materialized-view-based) the paper
  argues against.
"""

from repro.core.invalidator.analysis import IndependenceChecker, Verdict, VerdictKind
from repro.core.invalidator.generator import InvalidationMessageGenerator
from repro.core.invalidator.grouping import (
    GroupedChecker,
    IndexableConjunct,
    TypeAnalysis,
)
from repro.core.invalidator.infomgmt import InformationManager
from repro.core.invalidator.invalidator import (
    InvalidationReport,
    MatViewInvalidator,
    TriggerInvalidator,
)
from repro.core.invalidator.policies import InvalidationPolicy, PolicyEngine
from repro.core.invalidator.predindex import PredicateIndex, ProbeResult
from repro.core.invalidator.polling import PollingQueryGenerator
from repro.core.invalidator.registration import (
    QueryInstance,
    QueryType,
    QueryTypeRegistry,
    RegistrationModule,
    RegistryListener,
)
from repro.core.invalidator.safety import (
    RULE_VERDICT_FLOORS,
    SafetyClassification,
    SafetyEnforcer,
    SafetyVerdict,
    classify_findings,
    classify_template,
)
from repro.core.invalidator.scheduler import InvalidationScheduler

__all__ = [
    "GroupedChecker",
    "IndependenceChecker",
    "IndexableConjunct",
    "TypeAnalysis",
    "InformationManager",
    "InvalidationMessageGenerator",
    "InvalidationPolicy",
    "InvalidationReport",
    "InvalidationScheduler",
    "MatViewInvalidator",
    "PolicyEngine",
    "PollingQueryGenerator",
    "PredicateIndex",
    "ProbeResult",
    "QueryInstance",
    "QueryType",
    "QueryTypeRegistry",
    "RULE_VERDICT_FLOORS",
    "RegistrationModule",
    "RegistryListener",
    "SafetyClassification",
    "SafetyEnforcer",
    "SafetyVerdict",
    "TriggerInvalidator",
    "classify_findings",
    "classify_template",
    "Verdict",
    "VerdictKind",
]
