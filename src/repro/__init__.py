"""CachePortal: dynamic content caching for database-driven web sites.

A complete Python reproduction of Candan, Li, Luo, Hsiung & Agrawal,
*"Enabling Dynamic Content Caching for Database-Driven Web Sites"*,
SIGMOD 2001 — including the substrates the paper deployed on: a SQL
database engine, a servlet-based web tier with page and data caches, and
a discrete-event simulator reproducing the paper's evaluation.

Quickstart::

    from repro import Database, CachePortal, Configuration, build_site
    from repro.web import QueryPageServlet

    db = Database()
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    site = build_site(Configuration.WEB_CACHE, [my_servlet], database=db)
    portal = CachePortal(site)
    site.get("/catalog?max_price=25000")   # generated, then cached
    db.execute("INSERT INTO car VALUES ('Toyota', 'Avalon', 25000)")
    portal.run_invalidation_cycle()        # affected pages ejected
"""

from repro.db import Database, connect
from repro.web import (
    Configuration,
    HttpRequest,
    HttpResponse,
    KeySpec,
    QueryPageServlet,
    Servlet,
    Site,
    WebCache,
    build_site,
)
from repro.core import (
    CachePortal,
    InvalidationPolicy,
    InvalidationReport,
    MatViewInvalidator,
    QIURLMap,
    Sniffer,
    TriggerInvalidator,
)
from repro.stream import StreamingInvalidationPipeline

__version__ = "1.0.0"

__all__ = [
    "CachePortal",
    "Configuration",
    "Database",
    "HttpRequest",
    "HttpResponse",
    "InvalidationPolicy",
    "InvalidationReport",
    "KeySpec",
    "MatViewInvalidator",
    "QIURLMap",
    "QueryPageServlet",
    "Servlet",
    "Site",
    "Sniffer",
    "StreamingInvalidationPipeline",
    "TriggerInvalidator",
    "WebCache",
    "build_site",
    "connect",
]
