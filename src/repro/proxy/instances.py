"""Run-time signature machinery: matching and request instances.

A :class:`RuntimeSignature` wraps a static
:class:`~repro.analysis.model.TransactionSignature` with compiled
regexes (wildcard atoms become capture groups, so observing a concrete
value teaches the proxy what the wildcard stands for) and its
dependency edges.  A :class:`RequestInstance` is one concrete prefetch
request being assembled, exactly the paper's Fig. 7 evolution: created
from the successor's signature, fields copied in from predecessor
responses and learned run-time values until nothing is missing.  Each
build attempt resolves the URI and every field once, through the
signature's shared :class:`SignatureBuildPlan`, and keeps no memo: a
failed attempt records the fields it could not resolve, which is all
the learner needs to know which learned values can complete it.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.analysis.model import (
    AltAtom,
    AnalysisResult,
    ConstAtom,
    DepAtom,
    DependencyEdge,
    TransactionSignature,
    UnknownAtom,
    ValueTemplate,
)
from repro.httpmsg.body import JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.metrics.perf import PERF

#: tags whose learned values are user-specific, never shared across users
PER_USER_TAG_PREFIXES = (
    "env:cookie",
    "env:userAgent",
    "env:deviceId",
    "env:flag",
    "env:nonce",
    "ui:",
)


def is_per_user_tag(tag: str) -> bool:
    return any(tag.startswith(prefix) for prefix in PER_USER_TAG_PREFIXES)


class TemplateMatcher:
    """Compiled form of a :class:`ValueTemplate` with capture groups."""

    def __init__(self, template: ValueTemplate) -> None:
        self.template = template
        pattern_parts: List[str] = []
        self.group_atoms: List[object] = []  # atom per capture group
        for atom in template.atoms:
            if isinstance(atom, ConstAtom):
                pattern_parts.append(re.escape(str(atom.value)))
            elif isinstance(atom, AltAtom):
                pattern_parts.append("({})".format(atom.regex()[1:-1]))
                self.group_atoms.append(atom)
            else:
                pattern_parts.append("(.*)")
                self.group_atoms.append(atom)
        self.pattern = re.compile("".join(pattern_parts))
        # map top-level group indices: groups open in order; we rely on
        # our own pattern construction placing one top-level group per
        # wildcard atom, in order, before any nested groups from AltAtom
        # regexes. re module numbers groups by opening parenthesis, so
        # precompute which group number each atom claims (nested-group
        # counting re-renders option regexes — far too slow per match).
        self.group_indices: List[int] = []
        group_index = 1
        for atom in self.group_atoms:
            self.group_indices.append(group_index)
            group_index += 1 + _nested_group_count(atom)

    def match(self, text: str) -> Optional[List[Tuple[object, str]]]:
        """Match ``text``; returns [(atom, captured value)] or None.

        Alternation groups may contain nested groups; only top-level
        captures are associated with atoms, so nested groups are
        skipped by the precomputed ``group_indices`` bookkeeping.
        """
        matched = self.pattern.fullmatch(str(text))
        if matched is None:
            return None
        return [
            (atom, matched.group(group_index) or "")
            for atom, group_index in zip(self.group_atoms, self.group_indices)
        ]


def _nested_group_count(atom: object) -> int:
    if isinstance(atom, AltAtom):
        return sum(
            option.regex().count("(") for option in atom.options
        )
    return 0


class RuntimeSignature:
    """A signature plus everything the proxy needs at run time."""

    def __init__(self, signature: TransactionSignature) -> None:
        self.signature = signature
        self.site = signature.site
        self.method = signature.request.method
        self.uri_matcher = TemplateMatcher(signature.request.uri)
        #: literal characters in the URI template — ranks ambiguous
        #: matches (the more literal signature wins)
        self.specificity = sum(
            len(str(atom.value))
            for atom in signature.request.uri.atoms
            if isinstance(atom, ConstAtom)
        )
        #: precomputed (path, path-string, template) rows in field order
        self.field_rows: List[Tuple[FieldPath, str, ValueTemplate]] = [
            (path, path.to_string(), template)
            for path, template in signature.request.fields.items()
        ]
        #: the variant field-sets as one frozenset, so membership tests
        #: on the hot path are O(1) instead of rebuilding a throwaway
        #: ``set(...)`` per call
        self.variants_set: frozenset = frozenset(signature.variants)
        #: edges where this signature is the predecessor, grouped by
        #: successor site in first-seen order
        self.out_edges: Dict[str, List[DependencyEdge]] = {}
        #: edges where this signature is the successor
        self.in_edges: List[DependencyEdge] = []
        #: the copy-on-write build plan, decided once per signature.
        #: Every :class:`RequestInstance` replicated from this signature
        #: shares it; per-instance state is only the dep bindings.
        self.build_plan = SignatureBuildPlan(self)

    # ------------------------------------------------------------------
    @property
    def is_successor(self) -> bool:
        return bool(self.in_edges)

    @property
    def is_predecessor(self) -> bool:
        return bool(self.out_edges)

    def __repr__(self) -> str:
        return "RuntimeSignature({})".format(self.site)


#: planned atom steps, walked by :meth:`RequestInstance._resolve_steps`
STEP_CONST = 0
STEP_DEP = 1
STEP_TAG = 2
STEP_ALT = 3


class _PlanField:
    """One field row of a build plan, decided once per signature.

    Carries the atom steps for the builder, with each wildcard tag's
    per-user scope already decided, the learn action for an observed
    value of the field, and the store keys whose learning can resolve
    it.
    """

    __slots__ = ("path", "path_string", "root", "part0", "steps", "tags",
                 "single_tag", "per_user", "has_dep", "reads_field")

    def __init__(self, path: FieldPath, path_string: str,
                 template: ValueTemplate) -> None:
        self.path = path
        self.path_string = path_string
        self.root = path.root
        self.part0 = str(path.parts[0]) if path.parts else ""
        atoms = template.atoms
        #: (step, constant text or tag, tag is per-user) per atom
        self.steps: List[Tuple[int, str, bool]] = []
        #: (tag, per-user) per top-level wildcard atom
        self.tags: List[Tuple[str, bool]] = []
        self.reads_field = False
        for atom in atoms:
            if isinstance(atom, ConstAtom):
                self.steps.append((STEP_CONST, str(atom.value), False))
            elif isinstance(atom, DepAtom):
                self.steps.append((STEP_DEP, "", False))
            elif isinstance(atom, UnknownAtom):
                per_user = is_per_user_tag(atom.tag)
                self.steps.append((STEP_TAG, atom.tag, per_user))
                self.tags.append((atom.tag, per_user))
                if len(atoms) == 1:
                    self.reads_field = True
            elif isinstance(atom, AltAtom):
                self.steps.append((STEP_ALT, "", False))
                self.reads_field = True
        #: the tag an observed value of a lone-wildcard field teaches
        self.single_tag: Optional[str] = (
            atoms[0].tag
            if len(atoms) == 1 and isinstance(atoms[0], UnknownAtom)
            else None
        )
        #: observed values of this field are dependency-derived, never
        #: cached — a dependency inside an alternation option counts too
        self.has_dep = bool(template.dep_atoms())
        #: observed values of this field are stored per user — a per-user
        #: tag inside an alternation option counts too
        self.per_user = any(
            is_per_user_tag(atom.tag) for atom in template.unknown_atoms()
        )

    def wake_keys(self, user: str, site: str) -> List[Tuple]:
        """Store keys whose learning can resolve this field for ``user``
        (dependency atoms are bound at spawn and never wake)."""
        keys: List[Tuple] = [
            ("tag", user if per_user else None, tag) for tag, per_user in self.tags
        ]
        if self.reads_field:
            keys.append(("field", user, site, self.path_string))
            keys.append(("field", None, site, self.path_string))
        return keys


class SignatureBuildPlan:
    """Precomputed, shared build state for one signature (COW).

    ``_spawn_successors`` replicates one :class:`RequestInstance` per
    list element of the predecessor response — N instances that differ
    *only* in their dep bindings.  The plan hoists everything
    replica-independent to the signature: each field's atom steps with
    their tag scopes already decided (a build walks these steps once
    per field instead of re-inspecting template atoms), the body
    skeleton kind and the variant frozensets.  The learner reads its
    per-signature decisions from here too: which URI captures and field
    values to learn, in which scope, whether the signature sends the
    cookie jar, and which store keys can resolve each field.  Instances
    keep only their dep bindings and pred context.
    """

    __slots__ = ("signature", "method", "body_kind", "uri", "rows",
                 "variants", "variants_set", "multi_variant",
                 "uri_captures", "sends_cookie")

    def __init__(self, runtime: RuntimeSignature) -> None:
        request = runtime.signature.request
        self.signature = runtime
        self.method = request.method
        self.body_kind = request.body_kind
        uri_path = FieldPath("uri")
        self.uri = _PlanField(uri_path, uri_path.to_string(), request.uri)
        self.rows: List[_PlanField] = [
            _PlanField(path, path_string, template)
            for path, path_string, template in runtime.field_rows
        ]
        self.variants = runtime.signature.variants
        self.variants_set = runtime.variants_set
        self.multi_variant = len(self.variants) > 1
        matcher = runtime.uri_matcher
        #: (capture group, tag, per-user) per URI wildcard atom
        self.uri_captures: List[Tuple[int, str, bool]] = [
            (group, atom.tag, is_per_user_tag(atom.tag))
            for atom, group in zip(matcher.group_atoms, matcher.group_indices)
            if isinstance(atom, UnknownAtom)
        ]
        self.sends_cookie = any(
            row.root == "header" and row.part0.lower() == "cookie"
            for row in self.rows
        )


#: memo sentinel distinguishing "not cached" from a cached negative
_MEMO_MISS = object()


class SignatureMatcher:
    """Learning-target identification (Fig. 6, step 2).

    A request belongs to the most specific same-method signature whose
    URI template fullmatches its origin + path: most literal
    characters first, then earliest in signature order.  Each method's
    signatures are kept in that rank order, so the scan stops at the
    first match.  A bounded LRU memo of exact ``(method, base-uri) →
    signature`` results makes a repeated request cost one dict hit;
    it assumes the signature list is fixed after construction (it
    always is: learners build their matcher once).
    """

    MEMO_CAPACITY = 4096

    def __init__(
        self,
        signatures: List[RuntimeSignature],
        memo_capacity: int = MEMO_CAPACITY,
    ) -> None:
        self.signatures = signatures
        self._memo: "OrderedDict[Tuple[str, str], Optional[RuntimeSignature]]" = (
            OrderedDict()
        )
        self._memo_capacity = memo_capacity
        #: method → (compiled URI pattern, signature), best rank first
        self._by_method: Dict[str, List[Tuple[re.Pattern, RuntimeSignature]]] = {}
        ranked = sorted(
            enumerate(signatures), key=lambda item: (-item[1].specificity, item[0])
        )
        for _, signature in ranked:
            self._by_method.setdefault(signature.method, []).append(
                (signature.uri_matcher.pattern, signature)
            )

    def match(self, request: Request) -> Optional[RuntimeSignature]:
        """Most-specific signature whose URI pattern matches."""
        base_uri = request.uri.origin() + request.uri.path
        perf = PERF.enabled
        if perf:
            PERF.incr("matcher.requests")
        memo_key = (request.method, base_uri)
        memo_hit = self._memo.get(memo_key, _MEMO_MISS)
        if memo_hit is not _MEMO_MISS:
            self._memo.move_to_end(memo_key)
            if perf:
                PERF.incr("matcher.memo_hits")
            return memo_hit
        best: Optional[RuntimeSignature] = None
        for pattern, candidate in self._by_method.get(request.method, ()):
            if pattern.fullmatch(base_uri) is not None:
                best = candidate
                break
        self._memo[memo_key] = best
        if len(self._memo) > self._memo_capacity:
            self._memo.popitem(last=False)
        return best


def build_runtime_signatures(result: AnalysisResult) -> List[RuntimeSignature]:
    runtime = {s.site: RuntimeSignature(s) for s in result.signatures}
    for edge in result.dependencies:
        if edge.pred_site in runtime:
            runtime[edge.pred_site].out_edges.setdefault(edge.succ_site, []).append(edge)
        if edge.succ_site in runtime:
            runtime[edge.succ_site].in_edges.append(edge)
    return [runtime[s.site] for s in result.signatures]


class ValueStore:
    """Learned run-time values (Fig. 7): per-tag and per-field, with
    user-specific isolation for user-bound tags."""

    def __init__(self) -> None:
        self._global_tags: Dict[str, str] = {}
        self._user_tags: Dict[Tuple[str, str], str] = {}
        self._global_fields: Dict[Tuple[str, str], str] = {}
        self._user_fields: Dict[Tuple[str, str, str], str] = {}
        #: change listeners, called with a wake key — ``("tag", user,
        #: tag)`` / ``("field", user, site, path)``, ``user`` None for
        #: app-level values — whenever a value changes (re-learning the
        #: same value notifies nothing).  Learners subscribe their
        #: pending-instance wake index here, so a shared store wakes
        #: every learner.
        self._listeners: List = []

    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def _notify(self, key: Tuple) -> None:
        for listener in self._listeners:
            listener(key)

    # -- writes ---------------------------------------------------------
    def learn_tag(self, user: str, tag: str, value: str) -> None:
        self.learn_scoped_tag(user if is_per_user_tag(tag) else None, tag, value)

    def learn_scoped_tag(self, scope: Optional[str], tag: str, value: str) -> None:
        """Learn ``tag`` for user ``scope`` (None: app-level) — the
        per-user decision already made by the caller's build plan."""
        if scope is not None:
            key = (scope, tag)
            if self._user_tags.get(key) != value:
                self._user_tags[key] = value
                self._notify(("tag", scope, tag))
        else:
            if self._global_tags.get(tag) != value:
                self._global_tags[tag] = value
                self._notify(("tag", None, tag))

    def learn_field(self, user: str, site: str, path: str, value: str, per_user: bool) -> None:
        if per_user:
            key = (user, site, path)
            if self._user_fields.get(key) != value:
                self._user_fields[key] = value
                self._notify(("field", user, site, path))
        else:
            slot = (site, path)
            if self._global_fields.get(slot) != value:
                self._global_fields[slot] = value
                self._notify(("field", None, site, path))

    def global_snapshot(self) -> "ValueStore":
        """A new store holding only the app-level (non-user) values.

        The verification phase (§4.3) runs the app through the proxy
        before deployment; the app-level constants it learns (API
        hosts, client version, build flavor) seed the deployed proxy so
        first-session prefetching resolves immediately.  User-bound
        values are never carried over.
        """
        snapshot = ValueStore()
        snapshot._global_tags = dict(self._global_tags)
        snapshot._global_fields = dict(self._global_fields)
        return snapshot

    # -- reads ----------------------------------------------------------
    def tag_value(self, user: str, tag: str) -> Optional[str]:
        return self.scoped_tag_value(user if is_per_user_tag(tag) else None, tag)

    def scoped_tag_value(self, scope: Optional[str], tag: str) -> Optional[str]:
        if scope is not None:
            return self._user_tags.get((scope, tag))
        return self._global_tags.get(tag)

    def field_value(self, user: str, site: str, path: str) -> Optional[str]:
        value = self._user_fields.get((user, site, path))
        if value is not None:
            return value
        return self._global_fields.get((site, path))


class SpawnedGroup:
    """The predecessor response one successor group was spawned from.

    Only a Fig. 9 ``condition`` policy reads a predecessor's fields, so
    the response is flattened and split (:meth:`context`) on the first
    read of one of the group's contexts, and once for the whole group.
    """

    __slots__ = ("response", "replicas", "_split")

    def __init__(self, response: Response, replicas: int) -> None:
        self.response = response
        #: replicas the group's extracted value lists were counted at
        self.replicas = replicas
        self._split: Optional[Tuple[Dict[str, object], List[Tuple[str, List]]]] = None

    def context(self, index: int) -> Dict[str, object]:
        """Replica ``index``'s context: the predecessor's scalar fields,
        aligned with the replica where their value list has one value
        per replica, else the first value."""
        split = self._split
        if split is None:
            shared: Dict[str, object] = {}
            aligned: List[Tuple[str, List]] = []
            for key, values in scalar_fields(self.response).items():
                if len(values) == self.replicas:
                    aligned.append((key, values))
                else:
                    shared[key] = values[0]
            split = self._split = (shared, aligned)
        shared, aligned = split
        context = dict(shared)
        for key, values in aligned:
            context[key] = values[index]
        return context


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


class RequestInstance:
    """One prefetch request being assembled for one user (Fig. 7).

    ``dep_values`` maps successor-field-path strings to values copied
    out of predecessor responses; ``depth`` is the prefetch-chain depth
    (1 = created directly from a client-observed transaction).
    """

    def __init__(
        self,
        signature: RuntimeSignature,
        user: str,
        depth: int = 1,
        trigger_site: Optional[str] = None,
    ) -> None:
        self.signature = signature
        self.user = user
        self.depth = depth
        self.trigger_site = trigger_site
        self.dep_values: Dict[str, str] = {}
        #: the group this instance was spawned in, and its replica index
        #: there; :attr:`pred_context` reads them
        self.group: Optional[SpawnedGroup] = None
        self.replica = 0
        self._pred_context: Optional[Dict[str, object]] = None
        #: learner bookkeeping: enqueue order, frozen dedupe key
        #: (``dep_values`` never change once the instance is queued),
        #: and the wake-index keys it is registered under (None: none)
        self.pending_seq = 0
        self.pending_key: Optional[Tuple] = None
        self.wake_keys: Optional[Tuple] = None
        #: the plan rows the last :meth:`try_build` could not resolve;
        #: None before any attempt and when the URI did not resolve or
        #: parse
        self.missing: Optional[List[_PlanField]] = None

    @property
    def pred_context(self) -> Dict[str, object]:
        """Scalar fields of the predecessor response, for Fig. 9
        ``condition`` policies: made from :attr:`group` on first read
        (empty without one), or whatever was assigned."""
        context = self._pred_context
        if context is None:
            group = self.group
            context = {} if group is None else group.context(self.replica)
            self._pred_context = context
        return context

    @pred_context.setter
    def pred_context(self, context: Dict[str, object]) -> None:
        self._pred_context = context

    def fill(self, path: FieldPath, value) -> None:
        self.dep_values[path.to_string()] = str(value)

    def dedupe_key(self) -> Tuple:
        """Identity of this instance: signature + dep bindings."""
        return (
            self.signature.site,
            self.user,
            tuple(sorted(self.dep_values.items())),
        )

    def choose_variant(
        self,
        preferred: Optional[frozenset],
        resolved: Dict[str, Optional[str]],
    ) -> Optional[frozenset]:
        """Pick the field-set variant to build (Fig. 8 adaptation).

        The most recently observed variant wins; before any
        observation, the variant with the most *resolvable* fields in
        ``resolved`` (path string → value or None; largest on ties)
        stands in.
        """
        variants = self.signature.signature.variants
        if preferred is not None and preferred in self.signature.variants_set:
            return preferred
        best = None
        best_rank = (-1, -1)
        for variant in variants:
            unresolvable = sum(
                1 for path_string in variant if resolved.get(path_string) is None
            )
            rank = (-unresolvable, len(variant))
            if rank > best_rank:
                best = variant
                best_rank = rank
        return best

    def try_build(
        self, store: ValueStore, preferred_variant: Optional[frozenset] = None
    ) -> Optional[Request]:
        """Assemble the concrete request, or None while values missing.

        One pass through the shared :class:`SignatureBuildPlan`: the
        URI and every field row resolve once.  A failed attempt leaves
        the rows it could not resolve in :attr:`missing` (None when the
        URI did not resolve or parse), which the learner reads for the
        instance's wake keys.  The seed's atom-walking build lives on as
        the oracle in ``tests/oracles/naive_build.py``; the differential
        tests assert both produce byte-identical requests.
        """
        plan = self.signature.build_plan
        self.missing = None
        uri_string = self._resolve_steps(plan.uri, store)
        if uri_string is None:
            return None
        try:
            uri = Uri.parse(uri_string)
        except ValueError:
            return None
        resolved: Dict[str, Optional[str]] = {}
        missing: List[_PlanField] = []
        for row in plan.rows:
            value = self._resolve_steps(row, store)
            resolved[row.path_string] = value
            if value is None:
                missing.append(row)
        self.missing = missing
        variant = self.choose_variant(preferred_variant, resolved)
        if variant is None:
            return None
        request = Request(method=plan.method, uri=uri, headers=Headers())
        body_kind = plan.body_kind
        if body_kind == "form":
            request.body = _new_form()
        elif body_kind == "json":
            request.body = _new_json()
        for row in plan.rows:
            if row.path_string not in variant:
                continue
            value = resolved[row.path_string]
            if value is None:
                return None
            if row.root == "header":
                request.headers.add(row.part0, value)
            elif row.root == "query":
                request.uri.query_add(row.part0, value)
            elif row.root == "body":
                if body_kind == "form":
                    request.body.add(row.part0, value)
                else:
                    row.path.assign(request, value)
        return request

    def _resolve_steps(self, row: _PlanField, store: ValueStore) -> Optional[str]:
        """One field's value from the plan's precomputed atom steps.

        Resolution order per atom: constants stand as-is; dependency
        atoms use the predecessor-derived binding; wildcard atoms use
        (most specific first) the last value observed for this exact
        field, then the tag-indexed store.  Alternations resolve via
        the dependency binding or the observed field value.
        """
        path_string = row.path_string
        dep_value = self.dep_values.get(path_string)
        parts: List[str] = []
        for step, text, per_user in row.steps:
            if step == STEP_CONST:
                parts.append(text)
            elif step == STEP_DEP:
                if dep_value is None:
                    return None
                parts.append(dep_value)
            elif step == STEP_TAG:
                value = None
                if row.single_tag is not None:
                    value = store.field_value(self.user, self.signature.site, path_string)
                if value is None:
                    value = store.scoped_tag_value(
                        self.user if per_user else None, text
                    )
                if value is None:
                    return None
                parts.append(value)
            else:  # STEP_ALT
                if dep_value is not None:
                    parts.append(dep_value)
                    continue
                value = store.field_value(self.user, self.signature.site, path_string)
                if value is None:
                    return None
                parts.append(value)
        return "".join(parts)

    def __repr__(self) -> str:
        return "RequestInstance({}, user={}, depth={})".format(
            self.signature.site, self.user, self.depth
        )


def _new_form():
    from repro.httpmsg.body import FormBody

    return FormBody()


def _new_json():
    from repro.httpmsg.body import JsonBody

    return JsonBody({})
