"""Scenario assembly: app + origins + (optionally) the APPx proxy.

A :class:`Scenario` owns one simulator with the app's origin servers
and either the direct topology ("Orig" in the figures) or the proxied
topology ("APPx").  Each user gets their own device runtime and access
link (their "4G connection": 55 ms RTT / 25 Mbps by default), all
sharing the same proxy — mirroring the paper's §6 setup.

:func:`prepare_app` performs the paper's phases 1–2 once per app —
static analysis, then the verification phase which produces the
initial configuration and the app-level learned values — and memoizes
the result in-process for every experiment with the same arguments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.model import AnalysisResult
from repro.analysis.pipeline import analyze_apk
from repro.apk.program import ApkFile
from repro.apps.base import AppSpec
from repro.apps.registry import get_app
from repro.device.profile import DeviceProfile
from repro.device.runtime import AppRuntime
from repro.netsim.link import Link
from repro.netsim.sim import Simulator
from repro.netsim.transport import DirectTransport
from repro.proxy.config import ProxyConfig, default_config
from repro.proxy.learning import DynamicLearner
from repro.proxy.proxy import AccelerationProxy, ProxiedTransport
from repro.proxy.verification import run_verification
from repro.server.content import Catalog

DEFAULT_ACCESS_RTT = 0.055  # the paper's 4G average
DEFAULT_BANDWIDTH = 25e6


def scoped_config(
    analysis: AnalysisResult,
    enabled_classes: Optional[List[str]] = None,
    base: Optional[ProxyConfig] = None,
) -> ProxyConfig:
    """Configuration limiting prefetch to the given activity classes.

    The paper "selects a representative user interaction ... as the
    prefetching target and configures the proxy as such" (§6); this is
    that configuration step.  ``None`` enables every (non-side-effect)
    signature.
    """
    config = base if base is not None else default_config(analysis)
    if enabled_classes is None:
        return config
    allowed = set(enabled_classes)
    for signature in analysis.signatures:
        site_class = signature.site.split(".", 1)[0]
        if site_class not in allowed:
            policy = config.policy(signature.site)
            if policy.prefetch:
                config.disable(signature.site, "not a configured prefetch target")
    return config


class PreparedApp:
    """Phases 1–2 output, reused by every experiment on an app."""

    def __init__(
        self,
        spec: AppSpec,
        apk: ApkFile,
        analysis: AnalysisResult,
        config: ProxyConfig,
        seed_store,
    ) -> None:
        self.spec = spec
        self.apk = apk
        self.analysis = analysis
        self.config = config
        self.seed_store = seed_store


_PREPARED: Dict[Tuple[str, float, bool], PreparedApp] = {}


def prepare_app(
    name: str,
    fuzz_duration: float = 90.0,
    estimate_expiry: bool = True,
) -> PreparedApp:
    """Analyze + verify one app, memoized per process on every argument."""
    key = (name, fuzz_duration, estimate_expiry)
    prepared = _PREPARED.get(key)
    if prepared is not None:
        return prepared
    spec = get_app(name)
    apk = spec.build_apk()
    analysis = analyze_apk(apk)
    config, report = run_verification(
        apk,
        analysis,
        build_origin_map=lambda sim: spec.build_origin_map(sim, Catalog())[0],
        profile=spec.default_profile("verify-user"),
        fuzz_duration=fuzz_duration,
        estimate_expiry=estimate_expiry,
    )
    prepared = _PREPARED[key] = PreparedApp(
        spec, apk, analysis, config, report.seed_store
    )
    return prepared


class Scenario:
    """One simulated deployment of one app."""

    def __init__(
        self,
        prepared: PreparedApp,
        proxied: bool = True,
        access_rtt: float = DEFAULT_ACCESS_RTT,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        origin_rtt_override: Optional[float] = None,
        enabled_classes: Optional[List[str]] = None,
        global_probability: float = 1.0,
        catalog_seed: int = 7,
        proxy_seed: int = 0,
        max_chain_depth: Optional[int] = None,
    ) -> None:
        self.prepared = prepared
        self.spec = prepared.spec
        self.proxied = proxied
        self.access_rtt = access_rtt
        self.bandwidth_bps = bandwidth_bps
        self.sim = Simulator()
        self.catalog = Catalog(catalog_seed)
        self.origins, self.servers = self.spec.build_origin_map(
            self.sim,
            self.catalog,
            bandwidth_bps=bandwidth_bps,
            rtt_override=origin_rtt_override,
        )
        self.runtimes: Dict[str, AppRuntime] = {}
        self.proxy: Optional[AccelerationProxy] = None
        if proxied:
            config = ProxyConfig.from_json(prepared.config.to_json())  # fresh copy
            config = scoped_config(prepared.analysis, enabled_classes, base=config)
            config.global_probability = global_probability
            if max_chain_depth is not None:
                config.max_chain_depth = max_chain_depth
            seed_store = (
                prepared.seed_store.global_snapshot()
                if prepared.seed_store is not None
                else None
            )
            learner = DynamicLearner(prepared.analysis, store=seed_store)
            self.proxy = AccelerationProxy(
                self.sim,
                self.origins,
                prepared.analysis,
                config=config,
                learner=learner,
                seed=proxy_seed,
            )

    # ------------------------------------------------------------------
    def runtime(self, user: str, profile: Optional[DeviceProfile] = None) -> AppRuntime:
        """Device runtime for one user (own access link, own profile)."""
        if user in self.runtimes:
            return self.runtimes[user]
        access = Link(
            rtt=self.access_rtt,
            bandwidth_bps=self.bandwidth_bps,
            shared=True,
            name="access-{}".format(user),
        )
        if self.proxy is not None:
            transport = ProxiedTransport(self.sim, access, self.proxy)
        else:
            transport = DirectTransport(self.sim, access, self.origins)
        runtime = AppRuntime(
            self.prepared.apk,
            transport,
            self.sim,
            profile if profile is not None else self.spec.default_profile(user),
        )
        self.runtimes[user] = runtime
        return runtime

    # ------------------------------------------------------------------
    def demand_bytes(self) -> int:
        """Bytes a non-prefetching deployment would move to origins."""
        total = 0
        for runtime in self.runtimes.values():
            for transaction in runtime.transaction_log:
                total += (
                    transaction.request.wire_size()
                    + transaction.response.wire_size()
                )
        return total

    def server_bytes(self) -> int:
        """Origin-side bytes actually moved (incl. prefetch traffic and
        the expiration estimator's probes)."""
        if self.proxy is not None:
            expiration = self.proxy.prefetcher.expiration
            probes = expiration.probe_bytes if expiration is not None else 0
            return self.proxy.total_server_bytes() + probes
        return self.demand_bytes()
