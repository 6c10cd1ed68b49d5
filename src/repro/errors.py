"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish SQL, database, web, and simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SQLError(ReproError):
    """Base class for SQL frontend errors."""


class LexerError(SQLError):
    """Raised when the tokenizer encounters an invalid character sequence.

    Attributes:
        position: zero-based offset into the source text.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """Raised when the parser cannot derive a statement from the tokens."""


class DatabaseError(ReproError):
    """Base class for storage/execution engine errors."""


class CatalogError(DatabaseError):
    """Raised for unknown or duplicate tables, columns, or indexes."""


class ConstraintError(DatabaseError):
    """Raised when a DML statement violates a schema constraint."""


class TypeMismatchError(DatabaseError):
    """Raised when a value cannot be coerced to a column's declared type."""


class ExecutionError(DatabaseError):
    """Raised when a plan cannot be executed (e.g. unbound parameter)."""


class InterfaceError(DatabaseError):
    """Raised on misuse of the DB-API layer (closed cursor, bad driver URL)."""


class PoolExhausted(InterfaceError):
    """Raised when a bounded connection pool cannot satisfy an acquire
    within its timeout — the back-pressure signal of an overloaded
    application tier."""


class WebError(ReproError):
    """Base class for web-tier errors."""


class HttpError(WebError):
    """An HTTP-level failure carrying a status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"{status}: {message}")
        self.status = status


class RoutingError(WebError):
    """Raised when no servlet is registered for a request path."""


class CachePortalError(ReproError):
    """Base class for sniffer/invalidator errors."""


class RegistrationError(CachePortalError):
    """Raised when a query type or policy cannot be registered."""


class InvalidationError(CachePortalError):
    """Raised when the invalidation pipeline cannot complete a cycle."""


class ClusterError(ReproError):
    """Base class for cache-cluster errors (ring, shards, persistence)."""


class SimulationError(ReproError):
    """Raised for discrete-event-simulation misuse (e.g. time travel)."""


class ServeError(ReproError):
    """Raised for async serving gateway misuse (e.g. no miss workers)."""
