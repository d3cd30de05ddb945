"""Proxy configuration (§4.4, Fig. 9).

Per-signature policies carry the seven fields of the paper's example —
``hash``, ``uri`` (readability), ``expiration_time``, ``prefetch``,
``probability``, ``add_header`` (may repeat), and ``condition`` — plus
framework-level knobs: a global probability, a data-usage budget (C4),
and the prefetch chain-depth bound.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.analysis.model import AnalysisResult

DEFAULT_EXPIRATION = 600.0  # seconds
DEFAULT_CHAIN_DEPTH = 2
#: outcome-aware admission defaults (§4.4 extension): a signature is
#: judged by used / (used + wasted) once this many of its prefetches
#: have a decided outcome, and until then each user may hold at most
#: this many of its prefetches open (queued, in flight or stored
#: unread); a below-threshold signature is still re-tried with the
#: explore probability so it can recover
DEFAULT_ADMISSION_MIN_ISSUED = 20
DEFAULT_ADMISSION_EXPLORE = 0.1

_OPS = {
    "gt": lambda a, b: _as_number(a) > _as_number(b),
    "lt": lambda a, b: _as_number(a) < _as_number(b),
    "eq": lambda a, b: str(a) == str(b),
    "ne": lambda a, b: str(a) != str(b),
}


def _as_number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


class Condition:
    """Field-specific prefetch condition on the *predecessor* response,
    e.g. prefetch only when ``price gt 1000`` (Fig. 9)."""

    def __init__(self, field: str, op: str, value: str) -> None:
        if op not in _OPS:
            raise ValueError("unknown condition op {!r}".format(op))
        self.field = field
        self.op = op
        self.value = value

    def evaluate(self, predecessor_fields: Dict[str, object]) -> bool:
        if self.field not in predecessor_fields:
            return False
        return bool(_OPS[self.op](predecessor_fields[self.field], self.value))

    def to_dict(self) -> Dict[str, str]:
        return {"field": self.field, "op": self.op, "value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Condition":
        return cls(data["field"], data["op"], data["value"])


class SignaturePolicy:
    """Per-signature prefetching policy."""

    def __init__(
        self,
        hash: str,
        uri: str = "",
        expiration_time: float = DEFAULT_EXPIRATION,
        prefetch: bool = True,
        probability: float = 1.0,
        add_header: Optional[List[Tuple[str, str]]] = None,
        condition: Optional[Condition] = None,
        disabled_reason: str = "",
        popularity_top_k: Optional[int] = None,
        min_hit_probability: Optional[float] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if popularity_top_k is not None and popularity_top_k < 1:
            raise ValueError("popularity_top_k must be >= 1")
        if min_hit_probability is not None and not 0.0 <= min_hit_probability <= 1.0:
            raise ValueError("min_hit_probability must be in [0, 1]")
        self.hash = hash
        self.uri = uri
        self.expiration_time = expiration_time
        self.prefetch = prefetch
        self.probability = probability
        self.add_header: List[Tuple[str, str]] = list(add_header or [])
        self.condition = condition
        self.disabled_reason = disabled_reason
        #: §6.3 extension: restrict prefetching to the K most popular
        #: items of this signature (None = no restriction)
        self.popularity_top_k = popularity_top_k
        #: admission floor on the used share of this signature's prefetches;
        #: ``None`` defers to the config-level ``admission_threshold``
        self.min_hit_probability = min_hit_probability

    def to_dict(self) -> Dict:
        data: Dict = {
            "hash": self.hash,
            "uri": self.uri,
            "expiration_time": self.expiration_time,
            "prefetch": self.prefetch,
            "probability": self.probability,
        }
        if self.add_header:
            data["add_header"] = [list(pair) for pair in self.add_header]
        if self.condition is not None:
            data["condition"] = self.condition.to_dict()
        if self.disabled_reason:
            data["disabled_reason"] = self.disabled_reason
        if self.popularity_top_k is not None:
            data["popularity_top_k"] = self.popularity_top_k
        if self.min_hit_probability is not None:
            data["min_hit_probability"] = self.min_hit_probability
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SignaturePolicy":
        condition = None
        if "condition" in data:
            condition = Condition.from_dict(data["condition"])
        return cls(
            hash=data["hash"],
            uri=data.get("uri", ""),
            expiration_time=float(data.get("expiration_time", DEFAULT_EXPIRATION)),
            prefetch=bool(data.get("prefetch", True)),
            probability=float(data.get("probability", 1.0)),
            add_header=[tuple(pair) for pair in data.get("add_header", [])],
            condition=condition,
            disabled_reason=data.get("disabled_reason", ""),
            popularity_top_k=data.get("popularity_top_k"),
            min_hit_probability=data.get("min_hit_probability"),
        )


class ProxyConfig:
    """The whole configuration the proxy loads at start-up (Fig. 10)."""

    def __init__(
        self,
        policies: Optional[Dict[str, SignaturePolicy]] = None,
        global_probability: float = 1.0,
        data_budget_bytes: Optional[int] = None,
        max_chain_depth: int = DEFAULT_CHAIN_DEPTH,
        default_expiration: float = DEFAULT_EXPIRATION,
        admission_threshold: Optional[float] = None,
        admission_min_issued: int = DEFAULT_ADMISSION_MIN_ISSUED,
        admission_explore: float = DEFAULT_ADMISSION_EXPLORE,
    ) -> None:
        if admission_threshold is not None and not 0.0 <= admission_threshold <= 1.0:
            raise ValueError("admission_threshold must be in [0, 1]")
        if not 0.0 <= admission_explore <= 1.0:
            raise ValueError("admission_explore must be in [0, 1]")
        if admission_min_issued < 1:
            # a warm-up cap of 0 would refuse every prefetch for good
            raise ValueError("admission_min_issued must be at least 1")
        #: keyed by signature *site* (the stable analysis-time id)
        self.policies: Dict[str, SignaturePolicy] = dict(policies or {})
        self.global_probability = global_probability
        self.data_budget_bytes = data_budget_bytes
        self.max_chain_depth = max_chain_depth
        self.default_expiration = default_expiration
        #: outcome-aware admission: signatures whose prefetches are used
        #: (used / (used + wasted)) below this share are no longer
        #: prefetched (None disables the gate); per-policy
        #: ``min_hit_probability`` overrides it for one signature
        self.admission_threshold = admission_threshold
        self.admission_min_issued = admission_min_issued
        self.admission_explore = admission_explore

    def policy(self, site: str) -> SignaturePolicy:
        if site not in self.policies:
            self.policies[site] = SignaturePolicy(
                hash=site, expiration_time=self.default_expiration
            )
        return self.policies[site]

    def disable(self, site: str, reason: str = "") -> None:
        policy = self.policy(site)
        policy.prefetch = False
        policy.disabled_reason = reason

    def effective_probability(self, site: str) -> float:
        return self.policy(site).probability * self.global_probability

    def admission_threshold_for(self, site: str) -> Optional[float]:
        """The hit-probability floor governing ``site`` (None = no gate)."""
        override = self.policy(site).min_hit_probability
        return override if override is not None else self.admission_threshold

    # -- (de)serialization -------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "global_probability": self.global_probability,
                "data_budget_bytes": self.data_budget_bytes,
                "max_chain_depth": self.max_chain_depth,
                "default_expiration": self.default_expiration,
                "admission_threshold": self.admission_threshold,
                "admission_min_issued": self.admission_min_issued,
                "admission_explore": self.admission_explore,
                "policies": {
                    site: policy.to_dict() for site, policy in self.policies.items()
                },
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ProxyConfig":
        data = json.loads(text)
        return cls(
            policies={
                site: SignaturePolicy.from_dict(policy)
                for site, policy in data.get("policies", {}).items()
            },
            global_probability=float(data.get("global_probability", 1.0)),
            data_budget_bytes=data.get("data_budget_bytes"),
            max_chain_depth=int(data.get("max_chain_depth", DEFAULT_CHAIN_DEPTH)),
            default_expiration=float(data.get("default_expiration", DEFAULT_EXPIRATION)),
            admission_threshold=data.get("admission_threshold"),
            admission_min_issued=int(
                data.get("admission_min_issued", DEFAULT_ADMISSION_MIN_ISSUED)
            ),
            admission_explore=float(
                data.get("admission_explore", DEFAULT_ADMISSION_EXPLORE)
            ),
        )


def default_config(analysis: AnalysisResult) -> ProxyConfig:
    """Initial configuration straight from static analysis.

    Side-effecting signatures are disabled outright (challenge C3);
    everything else prefetches with probability 1 and the default
    expiration until verification (§4.3) refines it.
    """
    config = ProxyConfig()
    for signature in analysis.signatures:
        policy = SignaturePolicy(
            hash=signature.hash,
            uri=signature.request.uri.regex(),
            prefetch=not signature.side_effect,
            disabled_reason="side-effecting transaction" if signature.side_effect else "",
        )
        config.policies[signature.site] = policy
    return config
