"""CachePortal core: the sniffer, the invalidator, and the portal facade.

This is the paper's primary contribution.  The *sniffer* builds the
query-instance→URL map from request and query logs without touching the
application; the *invalidator* watches the database update log and ejects
exactly the cached pages whose underlying data changed, generating polling
queries when a local decision is impossible.
"""

from repro.core.qiurl import QIURLEntry, QIURLMap
from repro.core.sniffer import (
    RequestLog,
    RequestLogRecord,
    RequestLoggingServlet,
    RequestToQueryMapper,
    Sniffer,
)
from repro.core.invalidator import (
    InvalidationPolicy,
    InvalidationReport,
    MatViewInvalidator,
    TriggerInvalidator,
    Verdict,
)
from repro.core.portal import CachePortal
from repro.core.recovery import (
    CheckpointError,
    RecoveryReport,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.audit import AuditConfig, AuditReport, StalenessAuditor, run_audit

__all__ = [
    "AuditConfig",
    "AuditReport",
    "CachePortal",
    "CheckpointError",
    "RecoveryReport",
    "StalenessAuditor",
    "run_audit",
    "read_checkpoint",
    "write_checkpoint",
    "InvalidationPolicy",
    "InvalidationReport",
    "MatViewInvalidator",
    "QIURLEntry",
    "QIURLMap",
    "RequestLog",
    "RequestLogRecord",
    "RequestLoggingServlet",
    "RequestToQueryMapper",
    "Sniffer",
    "TriggerInvalidator",
    "Verdict",
]
