"""Shared fixtures for the tier-1 suite."""

from collections import defaultdict

import pytest

from repro.server.origin import OriginServer


@pytest.fixture
def origin_requests(monkeypatch):
    """The ``(request, user)`` pairs every simulated origin is asked to
    handle during the test, in arrival order, keyed by origin.

    ``OriginServer`` keeps no request log of its own; this wraps its
    ``handle`` for the test's duration instead.
    """
    seen = defaultdict(list)
    handle = OriginServer.handle

    def recording_handle(server, request, user):
        seen[server.origin].append((request, user))
        return handle(server, request, user)

    monkeypatch.setattr(OriginServer, "handle", recording_handle)
    return seen
