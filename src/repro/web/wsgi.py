"""WSGI bindings: run a repro site as a standard Python web application.

Two pieces:

* :class:`SiteWSGIApp` — adapts a :class:`~repro.web.site.Site` (any
  configuration) to the WSGI callable protocol, translating WSGI environ
  dictionaries to :class:`~repro.web.http.HttpRequest` and back.  It can
  be served by any WSGI server (``wsgiref.simple_server``, gunicorn, …).
* :class:`CachePortalMiddleware` — a *pure WSGI middleware* version of
  the web cache + eject protocol: it caches responses marked
  ``Cache-Control: private, owner="cacheportal"`` by their page key and
  honours eject requests.  This demonstrates that the CachePortal cache
  layer composes with any WSGI application, not just this repo's site
  objects.

Neither piece requires a running socket; tests drive the callables
directly with synthetic environs, and ``examples/`` can serve them with
``wsgiref`` for a live demo.
"""

from __future__ import annotations

import io
import urllib.parse
from http.cookies import SimpleCookie
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpRequest, HttpResponse
from repro.web.site import Site
from repro.web.urlkey import ALL_GET, KeySpec, page_key

StartResponse = Callable[[str, List[Tuple[str, str]]], None]
WSGIApp = Callable[[dict, StartResponse], Iterable[bytes]]

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


def request_from_environ(environ: dict) -> HttpRequest:
    """Build an :class:`HttpRequest` from a WSGI environ dictionary."""
    method = environ.get("REQUEST_METHOD", "GET").upper()
    host = environ.get("HTTP_HOST") or environ.get("SERVER_NAME", "localhost")
    path = environ.get("PATH_INFO", "/") or "/"
    get_params = dict(urllib.parse.parse_qsl(environ.get("QUERY_STRING", "")))

    post_params: Dict[str, str] = {}
    if method == "POST":
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length > 0:
            body = environ["wsgi.input"].read(length)
            content_type = environ.get("CONTENT_TYPE", "")
            if content_type.startswith("application/x-www-form-urlencoded"):
                post_params = dict(
                    urllib.parse.parse_qsl(body.decode("utf-8", "replace"))
                )

    cookies: Dict[str, str] = {}
    raw_cookie = environ.get("HTTP_COOKIE")
    if raw_cookie:
        jar = SimpleCookie()
        jar.load(raw_cookie)
        cookies = {name: morsel.value for name, morsel in jar.items()}

    headers = {
        name[5:].replace("_", "-").title(): value
        for name, value in environ.items()
        if name.startswith("HTTP_") and name != "HTTP_COOKIE"
    }
    return HttpRequest(
        method=method,
        host=host,
        path=path,
        get_params=get_params,
        post_params=post_params,
        cookies=cookies,
        headers=headers,
    )


def response_to_wsgi(
    response: HttpResponse, start_response: StartResponse
) -> Iterable[bytes]:
    """Emit an :class:`HttpResponse` through the WSGI protocol."""
    reason = _STATUS_REASONS.get(response.status, "Unknown")
    body = response.body.encode("utf-8")
    headers = [
        ("Content-Type", "text/html; charset=utf-8"),
        ("Content-Length", str(len(body))),
        ("Cache-Control", response.cache_control.render()),
    ]
    headers.extend(response.headers.items())
    start_response(f"{response.status} {reason}", headers)
    return [body]


class SiteWSGIApp:
    """WSGI callable serving a :class:`Site`.

    Example::

        from wsgiref.simple_server import make_server
        make_server("", 8000, SiteWSGIApp(site)).serve_forever()
    """

    def __init__(self, site: Site) -> None:
        self.site = site
        self.requests_served = 0

    def __call__(self, environ: dict, start_response: StartResponse) -> Iterable[bytes]:
        self.requests_served += 1
        request = request_from_environ(environ)
        response = self.site.handle(request)
        return response_to_wsgi(response, start_response)


class CachePortalMiddleware:
    """A WSGI middleware implementing the CachePortal cache protocol.

    Wraps *any* WSGI application.  Responses carrying
    ``Cache-Control: private, owner="cacheportal"`` are cached under their
    page key; later requests for the same key are answered from the cache.
    Requests carrying ``Cache-Control: eject`` remove the page (and are
    answered with 204, never forwarded) — this is how the invalidator's
    messages reach a cache that fronts a third-party application.

    Args:
        app: the wrapped WSGI application.
        cache: the page store; register it on a
            :class:`~repro.stream.pipeline.StreamingInvalidationPipeline`
            (``pipeline.register_cache``) so programmatic ejects work too.
        key_spec_for_path: optional path → :class:`KeySpec` resolver; the
            default keys on all GET parameters.
    """

    def __init__(
        self,
        app: WSGIApp,
        cache: Optional[WebCache] = None,
        key_spec_for_path: Optional[Callable[[str], KeySpec]] = None,
    ) -> None:
        self.app = app
        self.cache = cache if cache is not None else WebCache()
        self.key_spec_for_path = key_spec_for_path or (lambda path: ALL_GET)

    def __call__(self, environ: dict, start_response: StartResponse) -> Iterable[bytes]:
        request = request_from_environ(environ)
        spec = self.key_spec_for_path(request.path)
        key = page_key(request, spec)

        control = request.cache_control
        if control is not None and control.has("eject"):
            removed = self.cache.eject(key)
            status = "204 No Content" if removed else "404 Not Found"
            start_response(status, [("Content-Length", "0")])
            return [b""]

        if request.method == "GET":
            cached = self.cache.get(key)
            if cached is not None:
                return response_to_wsgi(cached, start_response)

        captured: Dict[str, object] = {}

        def capture_start_response(status: str, headers: List[Tuple[str, str]]):
            captured["status"] = status
            captured["headers"] = headers

        chunks = self.app(environ, capture_start_response)
        body = b"".join(chunks)
        if hasattr(chunks, "close"):
            chunks.close()  # type: ignore[attr-defined]

        status_line = str(captured.get("status", "500 Internal Server Error"))
        status_code = int(status_line.split(" ", 1)[0])
        headers = list(captured.get("headers", []))  # type: ignore[arg-type]
        header_map = {name.lower(): value for name, value in headers}
        cache_control = CacheControl.parse(header_map.get("cache-control", "no-cache"))

        response = HttpResponse(
            status=status_code,
            body=body.decode("utf-8", "replace"),
            headers={
                name: value
                for name, value in headers
                if name.lower() not in ("content-length", "content-type", "cache-control")
            },
            cache_control=cache_control,
        )
        if request.method == "GET":
            self.cache.put(key, response)

        start_response(status_line, headers)
        return [body]


def call_wsgi(app: WSGIApp, environ: dict) -> Tuple[str, List[Tuple[str, str]], bytes]:
    """Test helper: invoke a WSGI app and collect (status, headers, body)."""
    captured: Dict[str, object] = {}

    def start_response(status: str, headers: List[Tuple[str, str]]):
        captured["status"] = status
        captured["headers"] = headers

    chunks = app(environ, start_response)
    body = b"".join(chunks)
    if hasattr(chunks, "close"):
        chunks.close()  # type: ignore[attr-defined]
    return str(captured["status"]), list(captured["headers"]), body  # type: ignore[arg-type]


def make_environ(
    url: str,
    method: str = "GET",
    host: str = "shop.example.com",
    cookies: Optional[Dict[str, str]] = None,
    post_params: Optional[Dict[str, str]] = None,
    headers: Optional[Dict[str, str]] = None,
) -> dict:
    """Test helper: build a minimal WSGI environ for ``url``."""
    parsed = urllib.parse.urlsplit(url)
    body = b""
    environ: dict = {
        "REQUEST_METHOD": method,
        "PATH_INFO": parsed.path or "/",
        "QUERY_STRING": parsed.query,
        "SERVER_NAME": host,
        "HTTP_HOST": parsed.netloc or host,
        "SERVER_PORT": "80",
        "wsgi.url_scheme": "http",
    }
    if post_params:
        environ["REQUEST_METHOD"] = "POST"
        body = urllib.parse.urlencode(post_params).encode()
        environ["CONTENT_TYPE"] = "application/x-www-form-urlencoded"
    if cookies:
        environ["HTTP_COOKIE"] = "; ".join(
            f"{name}={value}" for name, value in cookies.items()
        )
    for name, value in (headers or {}).items():
        environ[f"HTTP_{name.upper().replace('-', '_')}"] = value
    environ["CONTENT_LENGTH"] = str(len(body))
    environ["wsgi.input"] = io.BytesIO(body)
    return environ
