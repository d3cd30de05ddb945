"""Declarative SLOs and multiwindow burn-rate alerting.

Objectives live in ``benchmarks/slo.json`` and come in three kinds,
each reduced to one **error-budget ratio** over the live windows of
:mod:`repro.metrics.live`:

``latency``
    ``good_under_ms`` / ``target``: the fraction of requests slower
    than ``good_under_ms`` must stay under ``1 - target``.  The live
    plane counts slow requests into the ``proxy.request_slow`` window
    at observation time, so evaluation is two window sums.
``hit_rate``
    ``floor``: the windowed miss ratio (answered − hits) / answered
    must stay under ``1 - floor``.
``overflow``
    ``budget_ratio``: deferred-learn queue drops per answered request
    must stay under ``budget_ratio``.

Evaluation uses the SRE-workbook **multiwindow, multi-burn-rate**
rule: with ``budget`` the allowed bad ratio, the *burn rate* of a
window is ``(bad / total) / budget`` — 1.0 means "spending exactly
the budget".  An alert fires when **both** the fast window (default
the last ¼ of the horizon) and the slow window (the full horizon)
burn above ``fast_burn`` — the fast window gives low detection
latency, the slow window keeps one transient bucket from paging.
Alerts fire on the not-burning → burning *transition* (no re-page
while an incident is open), are counted in ``slo.alerts``, and are
exported as spanless ``kind=alert`` trace records.  The end-of-run
verdict is per objective: *violated* iff the slow-window burn at the
final evaluation is ≥ 1.0 — i.e. the run ended while the error budget
was actually being overspent.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.metrics import catalog
from repro.metrics.live import LiveWindows
from repro.metrics.perf import PERF

#: repo-relative default objective file (the CLI resolves it)
DEFAULT_SLO_PATH = "benchmarks/slo.json"

#: objective kinds -> required parameter
_KINDS = {"latency": "target", "hit_rate": "floor", "overflow": "budget_ratio"}


class SloObjective:
    """One declarative objective, normalized to bad/total vs budget."""

    __slots__ = (
        "name",
        "kind",
        "budget",
        "fast_burn",
        "slow_burn",
        "min_events",
        "good_under_s",
    )

    def __init__(self, spec: Dict[str, object]) -> None:
        self.name = str(spec.get("name") or spec.get("kind"))
        self.kind = str(spec["kind"])
        if self.kind not in _KINDS:
            raise ValueError(
                "unknown SLO kind {!r}; expected one of {}".format(
                    self.kind, sorted(_KINDS)
                )
            )
        if _KINDS[self.kind] not in spec:
            raise ValueError(
                "SLO objective {!r} is missing {!r}".format(
                    self.name, _KINDS[self.kind]
                )
            )
        if self.kind == "latency":
            target = float(spec["target"])
            if not 0.0 < target < 1.0:
                raise ValueError("latency target must be in (0, 1)")
            self.budget = 1.0 - target
            self.good_under_s = float(spec["good_under_ms"]) / 1e3
        elif self.kind == "hit_rate":
            floor = float(spec["floor"])
            if not 0.0 < floor < 1.0:
                raise ValueError("hit_rate floor must be in (0, 1)")
            self.budget = 1.0 - floor
            self.good_under_s = None
        else:
            self.budget = float(spec["budget_ratio"])
            if self.budget <= 0.0:
                raise ValueError("overflow budget_ratio must be positive")
            self.good_under_s = None
        self.fast_burn = float(spec.get("fast_burn", 2.0))
        self.slow_burn = float(spec.get("slow_burn", 1.0))
        self.min_events = int(spec.get("min_events", 20))

    def bad_and_total(
        self, windows: LiveWindows, now: float, horizon_s: Optional[float]
    ) -> Tuple[float, float]:
        if self.kind == "latency":
            total = windows.total(catalog.W_REQUEST, now, horizon_s)
            bad = windows.total(catalog.W_REQUEST_SLOW, now, horizon_s)
        elif self.kind == "hit_rate":
            total = windows.total(catalog.W_ANSWERED, now, horizon_s)
            bad = total - windows.total(catalog.W_HITS, now, horizon_s)
        else:
            total = windows.total(catalog.W_ANSWERED, now, horizon_s)
            bad = windows.total(catalog.W_OVERFLOW, now, horizon_s)
        return bad, total

    def burn(
        self, windows: LiveWindows, now: float, horizon_s: Optional[float]
    ) -> Tuple[float, float, float]:
        """(burn rate, bad, total) over the given horizon."""
        bad, total = self.bad_and_total(windows, now, horizon_s)
        if total < self.min_events:
            return 0.0, bad, total
        return (bad / total) / self.budget, bad, total


def load_slo_config(path: str) -> Dict[str, object]:
    with open(path) as handle:
        config = json.load(handle)
    if not isinstance(config, dict) or "objectives" not in config:
        raise ValueError("SLO config must be an object with 'objectives'")
    return config


class SloEngine:
    """Evaluates every objective per telemetry tick; remembers state."""

    def __init__(self, config: Dict[str, object]) -> None:
        self.objectives = [SloObjective(s) for s in config["objectives"]]
        if not self.objectives:
            raise ValueError("SLO config declares no objectives")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO objective names: {}".format(names))
        self.window_s = float(config.get("window_s", 10.0))
        self.fast_window_s = float(
            config.get("fast_window_s", self.window_s / 4.0)
        )
        #: per-objective open-incident flag (alert on transition only)
        self.burning: Dict[str, bool] = {o.name: False for o in self.objectives}
        self._last: Dict[str, Dict[str, object]] = {}
        self._alert_seq = 0
        self.alerts: List[Dict[str, object]] = []

    @property
    def slow_threshold_s(self) -> Optional[float]:
        """The latency objective's good/bad cut, for the live plane."""
        for objective in self.objectives:
            if objective.kind == "latency":
                return objective.good_under_s
        return None

    def evaluate(
        self, windows: LiveWindows, now: float
    ) -> List[Dict[str, object]]:
        """One pass: returns the newly fired alerts."""
        PERF.incr("slo.evaluations")
        new_alerts: List[Dict[str, object]] = []
        for objective in self.objectives:
            slow, bad, total = objective.burn(windows, now, None)
            fast, fast_bad, fast_total = objective.burn(
                windows, now, self.fast_window_s
            )
            burning = fast >= objective.fast_burn and slow >= objective.slow_burn
            self._last[objective.name] = {
                "objective": objective.name,
                "kind": objective.kind,
                "budget": objective.budget,
                "burn_slow": slow,
                "burn_fast": fast,
                "bad": bad,
                "total": total,
                "burning": burning,
                "sim_now": now,
            }
            if burning and not self.burning[objective.name]:
                self._alert_seq += 1
                alert = dict(self._last[objective.name], seq=self._alert_seq)
                self.alerts.append(alert)
                new_alerts.append(alert)
            self.burning[objective.name] = burning
        return new_alerts

    # -- verdicts -------------------------------------------------------
    def status(
        self, windows: LiveWindows, now: float
    ) -> List[Dict[str, object]]:
        """Per-objective verdict at ``now`` (recomputed, not cached)."""
        rows = []
        for objective in self.objectives:
            slow, bad, total = objective.burn(windows, now, None)
            fast = objective.burn(windows, now, self.fast_window_s)[0]
            alerts = sum(
                1 for a in self.alerts if a["objective"] == objective.name
            )
            rows.append(
                {
                    "objective": objective.name,
                    "kind": objective.kind,
                    "budget": objective.budget,
                    "burn_slow": slow,
                    "burn_fast": fast,
                    "bad": bad,
                    "total": total,
                    "alerts": alerts,
                    "violated": slow >= 1.0,
                }
            )
        return rows

    def report(self, windows: LiveWindows, now: float) -> Dict[str, object]:
        objectives = self.status(windows, now)
        return {
            "sim_now": now,
            "passed": all(not row["violated"] for row in objectives),
            "alerts": len(self.alerts),
            "objectives": objectives,
        }
