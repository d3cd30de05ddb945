"""Run-time signature machinery: matching and request instances.

A :class:`RuntimeSignature` wraps a static
:class:`~repro.analysis.model.TransactionSignature` with compiled
regexes (wildcard atoms become capture groups, so observing a concrete
value teaches the proxy what the wildcard stands for) and its
dependency edges.  A :class:`RequestInstance` is one concrete prefetch
request being assembled, exactly the paper's Fig. 7 evolution: created
from the successor's signature, fields copied in from predecessor
responses and learned run-time values until nothing is missing.
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
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request
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
        uri_atoms = signature.request.uri.atoms
        self._specificity = sum(
            len(str(atom.value))
            for atom in uri_atoms
            if isinstance(atom, ConstAtom)
        )
        # literal anchors: cheap string checks that must hold before the
        # full regex can possibly match (prefix/suffix/longest-const)
        self._uri_is_const = all(isinstance(a, ConstAtom) for a in uri_atoms)
        prefix_parts: List[str] = []
        for atom in uri_atoms:
            if not isinstance(atom, ConstAtom):
                break
            prefix_parts.append(str(atom.value))
        suffix_parts: List[str] = []
        for atom in reversed(uri_atoms):
            if not isinstance(atom, ConstAtom):
                break
            suffix_parts.append(str(atom.value))
        self._literal_prefix = "".join(prefix_parts)
        self._literal_suffix = "".join(reversed(suffix_parts))
        self._literal_anchor = max(
            (str(a.value) for a in uri_atoms if isinstance(a, ConstAtom)),
            key=len,
            default="",
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
        #: edges where this signature is the predecessor
        self.out_edges: List[DependencyEdge] = []
        #: edges where this signature is the successor
        self.in_edges: List[DependencyEdge] = []
        #: the copy-on-write build plan, decided once per signature.
        #: Every :class:`RequestInstance` replicated from this signature
        #: shares it; per-instance state is only the dep bindings and
        #: the per-field resolution memos.
        self.build_plan = SignatureBuildPlan(self)

    # ------------------------------------------------------------------
    @property
    def is_successor(self) -> bool:
        return bool(self.in_edges)

    @property
    def is_predecessor(self) -> bool:
        return bool(self.out_edges)

    def literal_specificity(self) -> int:
        """Total literal characters — used to rank ambiguous matches."""
        return self._specificity

    def matches_request(self, request: Request) -> bool:
        if request.method != self.method:
            return False
        return self.matches_uri(request.uri.origin() + request.uri.path)

    def matches_uri(self, base_uri: str) -> bool:
        """URI-template match with literal-anchor pre-checks.

        The anchors (leading/trailing/longest constant runs) are
        necessary conditions of the compiled regex, so rejecting on
        them never changes the outcome — it only skips the far more
        expensive ``fullmatch`` for most non-matching candidates.
        """
        if PERF.enabled:
            PERF.incr("matcher.candidate_checks")
        if self._uri_is_const:
            return base_uri == self._literal_prefix
        if (
            not base_uri.startswith(self._literal_prefix)
            or not base_uri.endswith(self._literal_suffix)
            or (self._literal_anchor and self._literal_anchor not in base_uri)
        ):
            if PERF.enabled:
                PERF.incr("matcher.anchor_rejects")
            return False
        if PERF.enabled:
            PERF.incr("matcher.regex_attempts")
        return self.uri_matcher.pattern.fullmatch(base_uri) is not None

    def __repr__(self) -> str:
        return "RuntimeSignature({})".format(self.site)


#: build-plan field classes: fully constant (resolved once per
#: *signature*), constant + dependency atoms only (resolved once per
#: *instance* — dep bindings never change after spawn), and dynamic
#: (reads the value store, so re-resolved whenever ``store.version``
#: moves)
FIELD_CONST = "const"
FIELD_DEP = "dep"
FIELD_DYNAMIC = "dynamic"

#: planned atom steps, mirroring :meth:`RequestInstance.resolve_field`
STEP_CONST = 0
STEP_DEP = 1
STEP_TAG = 2
STEP_ALT = 3


class _PlanField:
    """One field row of a build plan, decided once per signature.

    Carries the resolution class and constant parts for the builder,
    the atom steps with each wildcard tag's per-user scope already
    decided, the learn action for an observed value of the field, and
    the store keys whose learning can resolve it.
    """

    __slots__ = ("path", "path_string", "kind", "const_value", "root",
                 "part0", "steps", "tags", "single_tag", "per_user",
                 "has_dep", "reads_field")

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
        top_dep = False
        for atom in atoms:
            if isinstance(atom, ConstAtom):
                self.steps.append((STEP_CONST, str(atom.value), False))
            elif isinstance(atom, DepAtom):
                self.steps.append((STEP_DEP, "", False))
                top_dep = True
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
        if self.tags or self.reads_field:
            self.kind = FIELD_DYNAMIC
        elif top_dep:
            self.kind = FIELD_DEP
        else:
            self.kind = FIELD_CONST
        self.const_value: Optional[str] = (
            "".join(text for _step, text, _per_user in self.steps)
            if self.kind == FIELD_CONST
            else None
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
    *only* in their dep bindings.  The seed resolved every field of
    every replica from scratch on every build attempt.  The plan hoists
    everything replica-independent to the signature: fully-constant
    field values are resolved here exactly once, each field's
    resolution class and tag scopes are precomputed (so build attempts
    skip the atom walk for settled fields), and the body skeleton kind
    plus the variant frozensets are carried along.  The learner reads
    its per-signature decisions from here too: which URI captures and
    field values to learn, in which scope, and whether the signature
    sends the cookie jar.  Instances keep only their dep bindings, pred
    context, and two small memos.
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


class _TrieNode:
    """One segment of the literal-prefix dispatch trie."""

    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode"] = {}
        #: (original index, signature) pairs whose complete literal
        #: path segments end at this node
        self.entries: List[Tuple[int, RuntimeSignature]] = []


def _literal_dispatch_key(
    signature: RuntimeSignature,
) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """(origin, complete literal path segments) or None when unindexable.

    Derived only from the *leading run of ConstAtoms* in the URI
    template, so it is a necessary condition of the compiled regex: a
    request whose origin or leading path segments diverge from the key
    can never fullmatch.  A path segment counts as *complete* only when
    the literal text continues past it with ``/`` (or the template is
    fully constant) — a trailing partial segment could be extended by
    the following wildcard, so it is dropped.  Signatures whose host is
    not fully literal return None and go to the per-method linear
    fallback bucket.
    """
    atoms = signature.signature.request.uri.atoms
    prefix_parts: List[str] = []
    for atom in atoms:
        if not isinstance(atom, ConstAtom):
            break
        prefix_parts.append(str(atom.value))
    full_literal = len(prefix_parts) == len(atoms)
    prefix = "".join(prefix_parts)
    marker = prefix.find("://")
    if marker < 0:
        return None
    slash = prefix.find("/", marker + 3)
    if slash < 0:
        # the literal text ends inside the authority: host is only
        # indexable when nothing follows it
        if not full_literal:
            return None
        return prefix, ()
    origin = prefix[:slash]
    path = prefix[slash:]
    segments = [segment for segment in path.split("/") if segment]
    if segments and not full_literal and not path.endswith("/"):
        segments.pop()  # partial: the wildcard may extend this segment
    return origin, tuple(segments)


def _required_segments(signature: RuntimeSignature) -> List[str]:
    """Literal path segments every regex match must contain, complete.

    A run of characters inside a ``ConstAtom`` bounded by ``/`` on both
    sides (or by the start of the URI string on the left for the first
    atom, or by the end of the template on the right for the last atom)
    appears in *every* matching URI as a complete ``/``-delimited
    token — no wildcard can extend it.  Runs touching a wildcard
    boundary are excluded: the wildcard could extend them into a longer
    segment.
    """
    atoms = signature.signature.request.uri.atoms
    segments: List[str] = []
    for position, atom in enumerate(atoms):
        if not isinstance(atom, ConstAtom):
            continue
        text = str(atom.value)
        parts = text.split("/")
        if len(parts) == 1:
            continue  # no slash: nothing slash-bounded inside this atom
        for offset, part in enumerate(parts):
            if not part:
                continue
            left_bounded = offset > 0 or position == 0
            right_bounded = offset < len(parts) - 1 or position == len(atoms) - 1
            if left_bounded and right_bounded:
                segments.append(part)
    return segments


#: memo sentinel distinguishing "not cached" from a cached negative
_MEMO_MISS = object()


class SignatureMatcher:
    """Learning-target identification (Fig. 6, step 2), indexed.

    Four tiers replace the seed's linear regex scan:

    1. a bounded LRU memo of exact ``(method, base-uri) → signature``
       results, so repeated identical requests cost one dict hit;
    2. a literal-prefix trie keyed on (method, origin, leading literal
       path segments) for signatures whose host is fully literal;
    3. an inverted index on *required literal segments* for
       wildcard-host signatures (the common shape: the API host is an
       ``env:config`` wildcard learned at run time, followed by a
       literal path): each is filed under one ``/``-bounded constant
       segment that every regex match must contain, so only requests
       carrying that token ever see the signature.  Signatures with no
       such segment land in a per-method bucket that is always
       scanned;
    4. literal-anchor pre-checks inside
       :meth:`RuntimeSignature.matches_uri` that reject most surviving
       candidates before any regex runs.

    The index is *conservative*: every tier only ever prunes
    candidates that provably cannot fullmatch, and the final ranking
    (literal specificity, then earliest signature order) runs over the
    surviving candidates exactly as the naive scan ranks its matches —
    so :meth:`match` and :meth:`naive_match` are behaviorally
    identical.  The memo assumes the signature list is fixed after
    construction (it always is: learners build their matcher once).
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
        #: method → entries with neither a literal host nor a required
        #: literal segment (checked against every same-method request)
        self._fallback: Dict[str, List[Tuple[int, RuntimeSignature]]] = {}
        #: (method, origin) → literal path-segment trie
        self._tries: Dict[Tuple[str, str], _TrieNode] = {}
        #: (method, required segment) → wildcard-host entries
        self._segment_index: Dict[Tuple[str, str], List[Tuple[int, RuntimeSignature]]] = {}
        for index, signature in enumerate(signatures):
            entry = (index, signature)
            key = _literal_dispatch_key(signature)
            if key is not None:
                origin, segments = key
                node = self._tries.setdefault(
                    (signature.method, origin), _TrieNode()
                )
                for segment in segments:
                    node = node.children.setdefault(segment, _TrieNode())
                node.entries.append(entry)
                continue
            required = _required_segments(signature)
            if required:
                # file under the longest required segment: rarest in
                # practice, and one bucket per signature keeps the
                # candidate union duplicate-free
                chosen = max(required, key=len)
                self._segment_index.setdefault(
                    (signature.method, chosen), []
                ).append(entry)
            else:
                self._fallback.setdefault(signature.method, []).append(entry)

    # ------------------------------------------------------------------
    def candidates(
        self, method: str, base_uri: str
    ) -> List[Tuple[int, RuntimeSignature]]:
        """Indexed candidate set — a superset of the true matches."""
        found = list(self._fallback.get(method, ()))
        if self._segment_index:
            # every "/"-delimited token of the full URI string, so that
            # tokens hiding in the authority (a host equal to a path
            # literal) are looked up too — required-segment semantics
            # are defined on the raw string, not the parsed path
            for token in dict.fromkeys(base_uri.split("/")):
                if token:
                    found.extend(self._segment_index.get((method, token), ()))
        if self._tries:
            marker = base_uri.find("://")
            if marker >= 0:
                slash = base_uri.find("/", marker + 3)
                origin = base_uri if slash < 0 else base_uri[:slash]
                path = "" if slash < 0 else base_uri[slash:]
                node = self._tries.get((method, origin))
                if node is not None:
                    found.extend(node.entries)
                    for segment in path.split("/"):
                        if not segment:
                            continue
                        node = node.children.get(segment)
                        if node is None:
                            break
                        found.extend(node.entries)
        return found

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
        best_rank = (-1, 0)
        found = self.candidates(request.method, base_uri)
        if perf:
            PERF.incr("matcher.candidates", len(found))
        for index, candidate in found:
            if not candidate.matches_uri(base_uri):
                continue
            rank = (candidate._specificity, -index)
            if rank > best_rank:
                best = candidate
                best_rank = rank
        self._memo[memo_key] = best
        if len(self._memo) > self._memo_capacity:
            self._memo.popitem(last=False)
        return best

    def naive_match(self, request: Request) -> Optional[RuntimeSignature]:
        """Reference linear scan — the seed's exact algorithm.

        Kept as the differential-testing oracle and the counter
        baseline (one full regex attempt per same-method signature, no
        index, no memo, no anchor pre-checks).
        """
        base_uri = request.uri.origin() + request.uri.path
        perf = PERF.enabled
        best: Optional[RuntimeSignature] = None
        best_rank = (-1, 0)
        for index, candidate in enumerate(self.signatures):
            if request.method != candidate.method:
                continue
            if perf:
                PERF.incr("matcher.naive_regex_attempts")
            if candidate.uri_matcher.pattern.fullmatch(base_uri) is None:
                continue
            rank = (candidate._specificity, -index)
            if rank > best_rank:
                best = candidate
                best_rank = rank
        return best


def build_runtime_signatures(result: AnalysisResult) -> List[RuntimeSignature]:
    runtime = {s.site: RuntimeSignature(s) for s in result.signatures}
    for edge in result.dependencies:
        if edge.pred_site in runtime:
            runtime[edge.pred_site].out_edges.append(edge)
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
        #: bumped whenever any value changes; pending instances use it
        #: to skip rebuild attempts when nothing new was learned
        self.version = 0
        #: change listeners, called with a wake key — ``("tag", user,
        #: tag)`` / ``("field", user, site, path)``, ``user`` None for
        #: app-level values.  Learners subscribe their pending-instance
        #: wake index here, so a shared store wakes every learner.
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
                self.version += 1
                self._notify(("tag", scope, tag))
        else:
            if self._global_tags.get(tag) != value:
                self._global_tags[tag] = value
                self.version += 1
                self._notify(("tag", None, tag))

    def learn_field(self, user: str, site: str, path: str, value: str, per_user: bool) -> None:
        if per_user:
            key = (user, site, path)
            if self._user_fields.get(key) != value:
                self._user_fields[key] = value
                self.version += 1
                self._notify(("field", user, site, path))
        else:
            slot = (site, path)
            if self._global_fields.get(slot) != value:
                self._global_fields[slot] = value
                self.version += 1
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
        #: scalar fields of the predecessor response, for Fig. 9
        #: ``condition`` policies
        self.pred_context: Dict[str, object] = {}
        self._last_attempt: Optional[Tuple] = None
        #: learner bookkeeping: enqueue order, frozen dedupe key
        #: (``dep_values`` never change once the instance is queued),
        #: and the wake-index keys it is registered under (None: none)
        self.pending_seq = 0
        self.pending_key: Optional[Tuple] = None
        self.wake_keys: Optional[Tuple] = None
        #: COW build memos: dep-class fields resolve once per instance
        #: (dep bindings are frozen after spawn); dynamic-class fields
        #: are memoized per ``store.version``.  Both are invalidated by
        #: :meth:`fill` so out-of-order callers stay correct.
        self._dep_resolved: Dict[str, str] = {}
        self._memo_version = -1
        self._memo: Dict[str, Optional[str]] = {}

    def fill(self, path: FieldPath, value) -> None:
        self.dep_values[path.to_string()] = str(value)
        # a new dep binding can change any field's resolution (mixed
        # templates read dep values too) — drop the build memos
        self._dep_resolved.clear()
        self._memo_version = -1
        # ...and the failed-attempt marker, or try_build would skip a
        # build the new binding may complete
        self._last_attempt = None

    def dedupe_key(self) -> Tuple:
        """Identity of this instance: signature + dep bindings."""
        return (
            self.signature.site,
            self.user,
            tuple(sorted(self.dep_values.items())),
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_field(
        self,
        path: FieldPath,
        template: ValueTemplate,
        store: ValueStore,
        path_string: Optional[str] = None,
    ) -> Optional[str]:
        """Concrete value for one field, or None if still unknown.

        Resolution order per atom: constants stand as-is; dependency
        atoms use the predecessor-derived binding; wildcard atoms use
        (most specific first) the last value observed for this exact
        field, then the tag-indexed store.  Alternations resolve via
        the dependency binding or the observed field value.
        """
        if path_string is None:
            path_string = path.to_string()
        dep_value = self.dep_values.get(path_string)
        parts: List[str] = []
        for atom in template.atoms:
            if isinstance(atom, ConstAtom):
                parts.append(str(atom.value))
            elif isinstance(atom, DepAtom):
                if dep_value is None:
                    return None
                parts.append(dep_value)
            elif isinstance(atom, UnknownAtom):
                value = None
                if len(template.atoms) == 1:
                    value = store.field_value(self.user, self.signature.site, path_string)
                if value is None:
                    value = store.tag_value(self.user, atom.tag)
                if value is None:
                    return None
                parts.append(value)
            elif isinstance(atom, AltAtom):
                if dep_value is not None:
                    parts.append(dep_value)
                    continue
                value = store.field_value(self.user, self.signature.site, path_string)
                if value is None:
                    return None
                parts.append(value)
            else:  # pragma: no cover
                return None
        return "".join(parts)

    def resolve_uri(self, store: ValueStore) -> Optional[str]:
        return self.resolve_field(
            FieldPath("uri"), self.signature.signature.request.uri, store
        )

    def choose_variant(
        self,
        store: ValueStore,
        preferred: Optional[frozenset] = None,
        resolved: Optional[Dict[str, Optional[str]]] = None,
    ) -> Optional[frozenset]:
        """Pick the field-set variant to build (Fig. 8 adaptation).

        The most recently observed variant wins; before any
        observation, the variant with the most *resolvable* fields
        (largest on ties) stands in.
        """
        variants = self.signature.signature.variants
        if preferred is not None and preferred in self.signature.variants_set:
            return preferred
        if resolved is None:
            resolved = self._resolve_all(store)
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

    def _resolve_all(self, store: ValueStore) -> Dict[str, Optional[str]]:
        return {
            path_string: self.resolve_field(path, template, store, path_string)
            for path, path_string, template in self.signature.field_rows
        }

    def build(
        self,
        store: ValueStore,
        preferred_variant: Optional[frozenset] = None,
        use_plan: bool = True,
    ) -> Optional[Request]:
        """Assemble the concrete request, or None while values missing.

        ``use_plan=True`` (the default) resolves through the shared
        :class:`SignatureBuildPlan` with per-instance memos — constant
        fields are never re-walked, dep-bound fields resolve once per
        instance, and store-backed fields re-resolve only after
        ``store.version`` moves.  ``use_plan=False`` retains the seed's
        resolve-everything-per-attempt path as the differential oracle
        (``tests/test_learning_deferred.py`` asserts both produce
        byte-identical requests).
        """
        if not use_plan:
            return self._build_naive(store, preferred_variant)
        plan = self.signature.build_plan
        self._sync_memo(store)
        uri_string = self._resolve_planned(plan.uri, store)
        if uri_string is None:
            return None
        try:
            uri = Uri.parse(uri_string)
        except ValueError:
            return None
        resolved = {
            row.path_string: self._resolve_planned(row, store)
            for row in plan.rows
        }
        variant = self.choose_variant(store, preferred_variant, resolved)
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
            value = resolved.get(row.path_string)
            if value is None:
                return None
            if row.root == "header":
                request.headers.add(row.part0, value)
            elif row.root == "query":
                request.uri.query.append((row.part0, value))
            elif row.root == "body":
                if body_kind == "form":
                    request.body.add(row.part0, value)
                else:
                    row.path.assign(request, value)
        return request

    def unresolved_rows(self, store: ValueStore) -> Optional[List[_PlanField]]:
        """The plan rows that do not resolve against ``store``, or None
        when the URI does not resolve or parse (then any value the
        instance reads may complete it).  Right after a failed build
        every lookup is served from the build memos."""
        plan = self.signature.build_plan
        self._sync_memo(store)
        uri_string = self._resolve_planned(plan.uri, store)
        if uri_string is None:
            return None
        try:
            Uri.parse(uri_string)
        except ValueError:
            return None
        return [row for row in plan.rows if self._resolve_planned(row, store) is None]

    def _sync_memo(self, store: ValueStore) -> None:
        """Drop the dynamic-field memo once ``store.version`` moved."""
        if self._memo_version != store.version:
            self._memo = {}
            self._memo_version = store.version

    def _resolve_planned(self, row: _PlanField, store: ValueStore) -> Optional[str]:
        """One field through the plan: memoized by resolution class."""
        kind = row.kind
        if kind == FIELD_CONST:
            return row.const_value
        path_string = row.path_string
        if kind == FIELD_DEP:
            value = self._dep_resolved.get(path_string)
            if value is None:
                value = self._resolve_steps(row, store)
                if value is not None:
                    # dep bindings are frozen after spawn, so a resolved
                    # value never changes; an unresolved one stays cheap
                    # to retry and is re-checked (fill() also clears)
                    self._dep_resolved[path_string] = value
            return value
        if path_string in self._memo:
            return self._memo[path_string]
        value = self._resolve_steps(row, store)
        self._memo[path_string] = value
        return value

    def _resolve_steps(self, row: _PlanField, store: ValueStore) -> Optional[str]:
        """:meth:`resolve_field` over the plan's precomputed atom steps."""
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

    def _build_naive(
        self, store: ValueStore, preferred_variant: Optional[frozenset] = None
    ) -> Optional[Request]:
        """The seed's build: re-resolve every field each attempt."""
        uri_string = self.resolve_uri(store)
        if uri_string is None:
            return None
        try:
            uri = Uri.parse(uri_string)
        except ValueError:
            return None
        resolved = self._resolve_all(store)
        variant = self.choose_variant(store, preferred_variant, resolved)
        if variant is None:
            return None
        request = Request(
            method=self.signature.signature.request.method,
            uri=uri,
            headers=Headers(),
        )
        body_kind = self.signature.signature.request.body_kind
        if body_kind == "form":
            request.body = _new_form()
        elif body_kind == "json":
            request.body = _new_json()
        for path, path_string, _template in self.signature.field_rows:
            if path_string not in variant:
                continue
            value = resolved.get(path_string)
            if value is None:
                return None
            if path.root == "header":
                request.headers.add(str(path.parts[0]), value)
            elif path.root == "query":
                request.uri.query.append((str(path.parts[0]), value))
            elif path.root == "body":
                if body_kind == "form":
                    request.body.add(str(path.parts[0]), value)
                else:
                    path.assign(request, value)
        return request

    def try_build(
        self, store: ValueStore, preferred_variant: Optional[frozenset] = None
    ) -> Optional[Request]:
        """Like :meth:`build`, but skips work when nothing new was
        learned since the last failed attempt."""
        marker = (store.version, preferred_variant)
        if self._last_attempt == marker:
            return None
        request = self.build(store, preferred_variant)
        if request is None:
            self._last_attempt = marker
        return request

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
