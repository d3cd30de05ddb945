"""HTTP/1.1 wire-format serialization and parsing (test reference code).

The simulator passes message *objects* between hosts and never puts
them on a wire, so nothing under ``src/`` renders this form.  The tests
use it as a canonical textual form: the differential tests compare
learned requests through it, and the property-based tests round-trip
messages through it.
"""

from __future__ import annotations


from repro.httpmsg.body import (
    BlobBody,
    Body,
    EmptyBody,
    FormBody,
    JsonBody,
    TextBody,
)
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri

_BLOB_PREFIX = "<blob "


def serialize_request(request: Request) -> str:
    """Render ``request`` as HTTP/1.1 text (blob bodies as placeholders)."""
    headers = request.headers.copy()
    _stamp_entity_headers(headers, request.body)
    headers.set("Host", _host_header(request.uri))
    lines = [
        "{} {} HTTP/1.1".format(request.method, request.uri.path_and_query()),
    ]
    lines.extend("{}: {}".format(n, v) for n, v in headers.items())
    lines.append("")
    lines.append(request.body.to_wire())
    return "\r\n".join(lines)


def serialize_response(response: Response) -> str:
    headers = response.headers.copy()
    _stamp_entity_headers(headers, response.body)
    lines = ["HTTP/1.1 {} {}".format(response.status, _reason(response.status))]
    lines.extend("{}: {}".format(n, v) for n, v in headers.items())
    lines.append("")
    lines.append(response.body.to_wire())
    return "\r\n".join(lines)


def parse_request(text: str, scheme: str = "https") -> Request:
    """Parse HTTP/1.1 request text produced by :func:`serialize_request`."""
    head, _, body_text = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    method, _, rest = lines[0].partition(" ")
    target, _, _version = rest.rpartition(" ")
    headers = _parse_headers(lines[1:])
    host = headers.get("Host", "")
    port = None
    if ":" in host:
        host, _, port_text = host.partition(":")
        port = int(port_text)
    uri = Uri.parse("{}://{}{}".format(scheme, host, target or "/"))
    uri.port = port
    body = _parse_body(headers, body_text)
    headers.remove("Host")
    headers.remove("Content-Type")
    headers.remove("Content-Length")
    return Request(method=method, uri=uri, headers=headers, body=body)


def parse_response(text: str) -> Response:
    head, _, body_text = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    parts = lines[0].split(" ", 2)
    status = int(parts[1])
    headers = _parse_headers(lines[1:])
    body = _parse_body(headers, body_text)
    headers.remove("Content-Type")
    headers.remove("Content-Length")
    return Response(status=status, headers=headers, body=body)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _host_header(uri: Uri) -> str:
    if uri.port is not None:
        return "{}:{}".format(uri.host, uri.port)
    return uri.host


def _stamp_entity_headers(headers: Headers, body: Body) -> None:
    content_type = body.content_type()
    if content_type and "Content-Type" not in headers:
        headers.set("Content-Type", content_type)
    if not isinstance(body, EmptyBody):
        headers.set("Content-Length", str(body.wire_size()))


def _parse_headers(lines) -> Headers:
    headers = Headers()
    for line in lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers.add(name.strip(), value.strip())
    return headers


def _parse_body(headers: Headers, body_text: str) -> Body:
    content_type = headers.get("Content-Type", "")
    if not body_text:
        # an empty form body is still a form body (Content-Type says so)
        if content_type.startswith("application/x-www-form-urlencoded"):
            return FormBody()
        return EmptyBody()
    if body_text.startswith(_BLOB_PREFIX) and body_text.endswith(" bytes>"):
        inner = body_text[len(_BLOB_PREFIX) : -len(" bytes>")]
        label, _, size_text = inner.rpartition(" ")
        return BlobBody(label, int(size_text), content_type or "image/jpeg")
    if content_type.startswith("application/json"):
        return JsonBody.parse(body_text)
    if content_type.startswith("application/x-www-form-urlencoded"):
        return FormBody.parse(body_text)
    return TextBody(body_text)


_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")
