"""The eager predecessor context: every replica's context split at spawn.

:class:`repro.proxy.learning.DynamicLearner` keeps the predecessor
response on each spawned group, and an instance splits it into its
Fig. 9 ``condition`` context only when
:attr:`~repro.proxy.instances.RequestInstance.pred_context` is read.
This learner is the code that split it for every replica at spawn,
whether or not anything read it; the lazy context must equal it
replica for replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.httpmsg.body import JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.message import Response
from repro.metrics.perf import PERF
from repro.proxy.instances import RequestInstance, RuntimeSignature
from repro.proxy.learning import DynamicLearner


class EagerContextLearner(DynamicLearner):
    """:class:`DynamicLearner` that assigns each replica's context at spawn."""

    def _spawn_successors(
        self,
        signature: RuntimeSignature,
        response: Response,
        user: str,
        depth: int,
    ) -> Tuple[List[RequestInstance], int]:
        succ_depth = depth + 1
        gate = self.spawn_gate
        pick = self.spawn_replicas
        instances: List[RequestInstance] = []
        refused = 0
        room = None
        # predecessor response parsing is shared across edges/successors:
        # each distinct pred_path is extracted once per transaction (two
        # edges sourcing body.items[].id reuse one walk) and the scalar
        # context is flattened lazily, once, instead of per successor
        extract_memo: Dict[str, List] = {}
        context: Optional[Dict[str, List]] = None
        for succ_site, edges in signature.out_edges.items():
            successor = self._by_site.get(succ_site)
            if successor is None:
                continue
            if gate is not None:
                room = gate(succ_site, succ_depth, user, len(instances))
                if room is None:
                    # never sent: no value extracted, no instance,
                    # pending slot, build or submit
                    refused += 1
                    if PERF.enabled:
                        PERF.incr("learner.spawn_skipped")
                    continue
            extracted: List[Tuple[FieldPath, List]] = []
            for edge in edges:
                pred_key = edge.pred_path.to_string()
                values = extract_memo.get(pred_key)
                if values is None:
                    values = edge.pred_path.extract(response)
                    extract_memo[pred_key] = values
                if values:
                    extracted.append((edge.succ_path, values))
            if not extracted:
                continue
            replica_count = max(len(values) for _, values in extracted)
            spawn: Sequence[int] = range(replica_count)
            if pick is not None:
                spawn = pick(room, replica_count)
                refused += replica_count - len(spawn)
                if not spawn:
                    continue
            if context is None:
                context = scalar_fields(response)
            # split the context once per successor group: keys whose
            # value list aligns 1:1 with the replicas index per replica,
            # everything else shares its first value
            aligned = []
            shared = {}
            for key, values in context.items():
                if len(values) == replica_count:
                    aligned.append((key, values))
                else:
                    shared[key] = values[0]
            for index in spawn:
                instance = RequestInstance(
                    successor, user, depth=succ_depth, trigger_site=signature.site
                )
                for succ_path, values in extracted:
                    value = values[index] if index < len(values) else values[0]
                    instance.fill(succ_path, value)
                # predecessor context for condition policies (Fig. 9):
                # scalar fields aligned with this replica where possible
                pred_context = dict(shared)
                for key, values in aligned:
                    pred_context[key] = values[index]
                instance.pred_context = pred_context
                instances.append(instance)
        return instances, refused


def scalar_fields(response: Response) -> Dict[str, List]:
    """Flatten a JSON response body to {leaf key: [values...]}.

    Keys keep only their last path component (``price``), values
    accumulate in document order so per-element alignment is possible.
    """
    fields: Dict[str, List] = {}
    if not isinstance(response.body, JsonBody):
        return fields

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if isinstance(value, (dict, list)):
                    walk(value)
                else:
                    fields.setdefault(key, []).append(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(response.body.value)
    return fields
