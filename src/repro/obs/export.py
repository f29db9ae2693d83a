"""Prometheus text exposition for the metrics plane.

:func:`render_prometheus` turns a ``MetricsRegistry.snapshot()`` dict
(optionally a cross-process merge) into the Prometheus text format, with
cumulative ``le`` buckets and OpenMetrics-style exemplars binding
histogram buckets to sampled trace ids.  :class:`MetricsExporter` serves
that text over HTTP (``GET /metrics``) from a daemon thread so any node
can be scraped directly; the same renderer backs the ``metrics_text``
protocol op and ``simfs-ctl metrics-export``.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = ["MetricsExporter", "render_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(series: str) -> str:
    name = _NAME_RE.sub("_", series)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _fmt(value: float | int | None) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _bucket_key(key: str) -> float:
    return float("inf") if key == "+inf" else float(key)


def render_prometheus(
    snapshot: dict[str, dict],
    exemplars: dict[str, dict[str, dict]] | None = None,
) -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    ``exemplars`` maps series name -> ``le`` label -> ``{"trace_id",
    "value"}`` (see ``SpanRecorder.exemplars``); matching histogram
    bucket lines get an OpenMetrics exemplar suffix.
    """
    exemplars = exemplars or {}
    lines: list[str] = []
    for series in sorted(snapshot):
        metric = snapshot[series]
        kind = metric.get("type")
        name = _prom_name(series)
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_fmt(metric.get('value', 0))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(metric.get('value', 0))}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} histogram")
            series_ex = exemplars.get(series, {})
            cumulative = 0
            buckets = metric.get("buckets", {})
            for key in sorted(buckets, key=_bucket_key):
                cumulative += buckets[key]
                le = "+Inf" if key == "+inf" else _fmt(float(key))
                line = f'{name}_bucket{{le="{le}"}} {cumulative}'
                ex = series_ex.get("+Inf" if key == "+inf" else repr(float(key)))
                if ex:
                    line += (
                        f' # {{trace_id="{ex["trace_id"]}"}} {_fmt(ex["value"])}'
                    )
                lines.append(line)
            lines.append(f"{name}_sum {_fmt(metric.get('sum', 0.0))}")
            lines.append(f"{name}_count {_fmt(metric.get('count', 0))}")
        else:  # unknown type: emit as an untyped sample if it has a value
            if "value" in metric:
                lines.append(f"# TYPE {name} untyped")
                lines.append(f"{name} {_fmt(metric['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsExporter:
    """Background HTTP endpoint serving ``render_prometheus`` output.

    ``source`` is a zero-argument callable returning the exposition text
    at scrape time (so every scrape sees fresh values and exemplars).
    """

    def __init__(
        self,
        source: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._source = source
        self._host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    def start(self) -> None:
        if self._server is not None:
            return
        # Here, not at module level: every daemon imports the renderer
        # above, few ever serve it over HTTP.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        source = self._source

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                try:
                    body = source().encode("utf-8")
                except Exception as exc:  # pragma: no cover - defensive
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="metrics-exporter", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None
