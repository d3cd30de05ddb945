"""Online expiration estimation (§4.3), deployed form.

The verification phase's doubling probe (:mod:`repro.proxy.verification`)
runs once, pre-deployment, and writes a static ``expiration_time`` into
the configuration.  The :class:`ExpirationEstimator` is the *serving
time* counterpart: per prefetchable signature it keeps a live
``[lo, hi)`` bracket on the origin's real content lifetime and refines
it with binary-search probes, so the cache stores entries under a
learned per-signature TTL instead of the global default.

Probe semantics
---------------
One probe is *fetch baseline → wait ``gap`` → fetch again → compare
bodies*.  An unchanged pair proves the content lived at least ``gap``
seconds (``lo = gap``); a changed pair caps the lifetime estimate
(``hi = gap``).  While ``hi`` is unknown the gap doubles (bracket
phase); once bracketed, each probe bisects ``[lo, hi]`` until the
bracket is within ``precision`` of ``lo`` or the probe budget runs
out.  The published estimate is ``lo`` — conservative: an entry is
refreshed early rather than served stale.

Origin cache headers are honored without probing: a response carrying
``Cache-Control: max-age=N`` pins the signature's TTL to ``N``
immediately (``no-store``/``no-cache`` pin it to ``min_ttl``).

Disable-on-error (§4.3): ``error_limit`` consecutive failed probe
fetches disable the signature in the configuration, exactly like the
verification phase does for signatures that only ever failed.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.httpmsg.message import Request, Response
from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.config import ProxyConfig

DEFAULT_INITIAL_GAP = 4.0
DEFAULT_MIN_TTL = 1.0
DEFAULT_MAX_TTL = 7200.0
DEFAULT_PRECISION = 0.25  # stop once hi - lo <= precision * lo
DEFAULT_ERROR_LIMIT = 3
DEFAULT_MAX_PROBES = 24


def ttl_from_headers(response: Response) -> Optional[float]:
    """TTL the origin itself declared, or ``None``.

    ``Cache-Control: max-age=N`` wins; ``no-store`` / ``no-cache``
    report 0.0 (the caller clamps to its floor).  Other headers are
    ignored — the simulated origins speak max-age when they speak at
    all.
    """
    value = response.headers.get("Cache-Control")
    if value is None:
        return None
    directives = [part.strip().lower() for part in value.split(",")]
    for directive in directives:
        if directive in ("no-store", "no-cache"):
            return 0.0
    for directive in directives:
        if directive.startswith("max-age="):
            try:
                return max(0.0, float(directive.split("=", 1)[1]))
            except ValueError:
                return None
    return None


class SiteEstimate:
    """The live bracket + bookkeeping for one signature."""

    __slots__ = (
        "lo",
        "hi",
        "probes",
        "errors",
        "consecutive_errors",
        "converged",
        "disabled",
        "from_headers",
    )

    def __init__(self) -> None:
        self.lo = 0.0  # proven lifetime floor (seconds)
        self.hi: Optional[float] = None  # first observed change gap
        self.probes = 0
        self.errors = 0
        self.consecutive_errors = 0
        self.converged = False
        self.disabled = False
        self.from_headers = False

    @property
    def value(self) -> Optional[float]:
        """Current best TTL estimate, or ``None`` before any evidence."""
        if self.lo > 0.0:
            return self.lo
        if self.hi is not None:
            return self.hi / 2.0
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "value": self.value,
            "probes": self.probes,
            "errors": self.errors,
            "converged": self.converged,
            "disabled": self.disabled,
            "from_headers": self.from_headers,
        }


class ExpirationEstimator:
    """Per-signature TTL learner probing the live origins."""

    def __init__(
        self,
        sim: Simulator,
        origins: OriginMap,
        config: ProxyConfig,
        initial_gap: float = DEFAULT_INITIAL_GAP,
        min_ttl: float = DEFAULT_MIN_TTL,
        max_ttl: float = DEFAULT_MAX_TTL,
        precision: float = DEFAULT_PRECISION,
        error_limit: int = DEFAULT_ERROR_LIMIT,
        max_probes: int = DEFAULT_MAX_PROBES,
        apply_to_config: bool = True,
        probe_user: str = "ttl-probe",
    ) -> None:
        if initial_gap <= 0 or min_ttl <= 0 or max_ttl < min_ttl:
            raise ValueError("invalid TTL bounds")
        if error_limit < 1:
            raise ValueError("error_limit must be >= 1")
        self.sim = sim
        self.origins = origins
        self.config = config
        self.initial_gap = initial_gap
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.precision = precision
        self.error_limit = error_limit
        self.max_probes = max_probes
        #: when True, converged estimates are written back into the
        #: policy's ``expiration_time`` so the §5 refresher interval
        #: follows the learned TTL too
        self.apply_to_config = apply_to_config
        self.probe_user = probe_user
        self.estimates: Dict[str, SiteEstimate] = {}
        self.probes_issued = 0
        #: proxy↔origin bytes of its probes
        self.probe_bytes = 0
        self.disabled_sites: Dict[str, str] = {}
        self._probing: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def estimate(self, site: str) -> SiteEstimate:
        found = self.estimates.get(site)
        if found is None:
            found = self.estimates[site] = SiteEstimate()
        return found

    def ttl_for(self, site: str, response: Optional[Response] = None) -> Optional[float]:
        """The TTL to store an entry of ``site`` under, or ``None``.

        ``None`` means "no evidence yet" — callers fall back to the
        policy's configured ``expiration_time``.  A response carrying
        cache headers short-circuits (and seeds) the estimate.
        """
        if response is not None:
            declared = ttl_from_headers(response)
            if declared is not None:
                clamped = self._clamp(declared)
                found = self.estimate(site)
                found.lo = clamped
                found.hi = clamped
                found.converged = True
                found.from_headers = True
                self._apply(site, clamped)
                return clamped
        found = self.estimates.get(site)
        if found is None or found.disabled:
            return None
        value = found.value
        return self._clamp(value) if value is not None else None

    def _clamp(self, ttl: float) -> float:
        return min(self.max_ttl, max(self.min_ttl, ttl))

    def _apply(self, site: str, ttl: float) -> None:
        if self.apply_to_config:
            self.config.policy(site).expiration_time = self._clamp(ttl)

    # ------------------------------------------------------------------
    def _fetch(self, request: Request) -> Generator:
        from repro.proxy.prefetcher import origin_fetch

        self.probes_issued += 1
        if PERF.enabled:
            PERF.incr("expiration.probes")
        response, transferred = yield self.sim.spawn(
            origin_fetch(self.sim, self.origins, request, self.probe_user)
        )
        self.probe_bytes += transferred
        return response

    def _note_error(self, site: str, estimate: SiteEstimate) -> bool:
        """Count one failed probe; returns True when the site died."""
        estimate.errors += 1
        estimate.consecutive_errors += 1
        if estimate.consecutive_errors >= self.error_limit:
            estimate.disabled = True
            reason = "expiration probes: {} consecutive errors".format(
                estimate.consecutive_errors
            )
            self.disabled_sites[site] = reason
            self.config.disable(site, reason)
            if PERF.enabled:
                PERF.incr("expiration.disabled")
            return True
        return False

    def probe_site(self, site: str, request: Request) -> Generator:
        """Simulator process: refine ``site``'s bracket to convergence.

        Terminates when the bracket is tight, the estimate saturates at
        ``max_ttl``, the probe budget runs out, or the site is disabled
        (by repeated errors here, or by the operator elsewhere).
        """
        estimate = self.estimate(site)
        request = request.copy()
        while not estimate.converged and not estimate.disabled:
            if not self.config.policy(site).prefetch:
                return estimate.value
            if estimate.probes >= self.max_probes:
                estimate.converged = True
                break
            if estimate.hi is None:
                gap = max(self.initial_gap, estimate.lo * 2.0)
                if gap > self.max_ttl:
                    # never saw a change inside the horizon: saturate
                    estimate.lo = self.max_ttl
                    estimate.converged = True
                    break
            else:
                gap = (estimate.lo + estimate.hi) / 2.0
            baseline = yield from self._fetch(request)
            if not baseline.ok:
                if self._note_error(site, estimate):
                    break
                continue
            estimate.consecutive_errors = 0
            declared = ttl_from_headers(baseline)
            if declared is not None:
                clamped = self._clamp(declared)
                estimate.lo = clamped
                estimate.hi = clamped
                estimate.converged = True
                estimate.from_headers = True
                break
            yield Delay(gap)
            probe = yield from self._fetch(request)
            if not probe.ok:
                if self._note_error(site, estimate):
                    break
                continue
            estimate.consecutive_errors = 0
            estimate.probes += 1
            if baseline.body.to_wire() != probe.body.to_wire():
                estimate.hi = gap if estimate.hi is None else min(estimate.hi, gap)
            else:
                estimate.lo = max(estimate.lo, gap)
            if (
                estimate.hi is not None
                and estimate.hi - estimate.lo <= self.precision * max(estimate.lo, self.min_ttl)
            ):
                estimate.converged = True
        value = estimate.value
        if value is not None and not estimate.disabled:
            self._apply(site, value)
        return value

    def run(
        self,
        sample_requests: Dict[str, Request],
        poll_interval: float = 2.0,
        duration: Optional[float] = None,
    ) -> Generator:
        """Simulator process: probe every site that shows up.

        ``sample_requests`` is read live (the prefetcher populates it
        as traffic reveals signatures), so new sites get probers while
        the loop runs.  With ``duration=None`` the loop polls forever —
        callers let the simulator's horizon end it.
        """
        started_at = self.sim.now
        while duration is None or self.sim.now - started_at < duration:
            for site in sorted(sample_requests):
                if self._probing.get(site):
                    continue
                if not self.config.policy(site).prefetch:
                    continue
                self._probing[site] = True
                self.sim.spawn(self.probe_site(site, sample_requests[site]))
            yield Delay(poll_interval)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        converged = sum(1 for e in self.estimates.values() if e.converged)
        return {
            "sites": len(self.estimates),
            "converged": converged,
            "probes_issued": self.probes_issued,
            "probe_bytes": self.probe_bytes,
            "disabled": dict(self.disabled_sites),
            "estimates": {
                site: estimate.to_dict()
                for site, estimate in sorted(self.estimates.items())
            },
        }
