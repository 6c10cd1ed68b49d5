"""CachePortal as plain WSGI middleware over a third-party application.

The paper's deployment story is non-invasiveness: caches, sniffers, and
invalidators install *around* existing components.  This example pushes
that to the limit — the "application" below is an ordinary WSGI app that
knows nothing about this library beyond emitting the CachePortal
cache-control header.  The middleware caches its pages; the invalidator
ejects them when the database changes.

Run with::

    python examples/wsgi_middleware.py
"""

from repro.db import Database, connect
from repro.web.cache import WebCache
from repro.web.wsgi import CachePortalMiddleware, call_wsgi, make_environ
from repro.core.qiurl import QIURLMap
from repro.stream import StreamingInvalidationPipeline


def build_database() -> Database:
    db = Database()
    db.execute("CREATE TABLE news (id INT PRIMARY KEY, headline TEXT, views INT)")
    db.execute(
        "INSERT INTO news VALUES "
        "(1, 'CachePortal ships', 100), (2, 'Dynamic pages now cacheable', 50)"
    )
    return db


def make_app(db: Database, qiurl: QIURLMap):
    """A hand-written WSGI app (imagine: Flask, Django, CGI...)."""
    generations = {"count": 0}

    def app(environ, start_response):
        generations["count"] += 1
        sql = "SELECT headline FROM news ORDER BY views DESC"
        rows = connect(db).execute(sql).fetchall()
        # The only cooperation needed: report which query built which page
        # (a real deployment gets this from the sniffer's two log wrappers).
        qiurl.add(sql, "shop.example.com/front", "front-page")
        body = "\n".join(
            [f"generation #{generations['count']}"] + [row[0] for row in rows]
        ).encode()
        start_response(
            "200 OK",
            [
                ("Content-Type", "text/plain"),
                ("Cache-Control", 'private, owner="cacheportal"'),
            ],
        )
        return [body]

    return app


def main() -> None:
    db = build_database()
    qiurl = QIURLMap()
    cache = WebCache()
    app = CachePortalMiddleware(make_app(db, qiurl), cache)
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)

    status, _headers, first = call_wsgi(app, make_environ("/front"))
    print("request 1:", first.decode().splitlines()[0], f"({status})")

    _status, _headers, second = call_wsgi(app, make_environ("/front"))
    print("request 2:", second.decode().splitlines()[0], "(served from cache)")
    assert first == second

    db.execute("UPDATE news SET views = 500 WHERE id = 2")
    report = invalidator.run_cycle()
    print(f"update    : invalidation cycle ejected {report.urls_ejected} page(s)")

    _status, _headers, third = call_wsgi(app, make_environ("/front"))
    lines = third.decode().splitlines()
    print("request 3:", lines[0], "— new order:", ", ".join(lines[1:]))
    assert lines[1] == "Dynamic pages now cacheable"


if __name__ == "__main__":
    main()
