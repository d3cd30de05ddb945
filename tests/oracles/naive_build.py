"""The seed's request build: walk every field's template atoms.

:meth:`repro.proxy.instances.RequestInstance.try_build` resolves each
field once through the atom steps of the signature's shared build plan.
This module walks each field's template atoms instead, which is what
the plan must reproduce byte for byte; ``resolve_all`` also names the
fields a failed plan build must report in ``RequestInstance.missing``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.model import AltAtom, ConstAtom, DepAtom, UnknownAtom, ValueTemplate
from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.proxy.instances import RequestInstance, ValueStore


def resolve_field(
    instance: RequestInstance,
    path: FieldPath,
    template: ValueTemplate,
    store: ValueStore,
    path_string: Optional[str] = None,
) -> Optional[str]:
    """Concrete value for one field, or None if still unknown.

    Resolution order per atom: constants stand as-is; dependency atoms
    use the predecessor-derived binding; wildcard atoms use (most
    specific first) the last value observed for this exact field, then
    the tag-indexed store.  Alternations resolve via the dependency
    binding or the observed field value.
    """
    if path_string is None:
        path_string = path.to_string()
    site = instance.signature.site
    dep_value = instance.dep_values.get(path_string)
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
                value = store.field_value(instance.user, site, path_string)
            if value is None:
                value = store.tag_value(instance.user, atom.tag)
            if value is None:
                return None
            parts.append(value)
        elif isinstance(atom, AltAtom):
            if dep_value is not None:
                parts.append(dep_value)
                continue
            value = store.field_value(instance.user, site, path_string)
            if value is None:
                return None
            parts.append(value)
        else:
            return None
    return "".join(parts)


def resolve_uri(instance: RequestInstance, store: ValueStore) -> Optional[str]:
    return resolve_field(
        instance, FieldPath("uri"), instance.signature.signature.request.uri, store
    )


def resolve_all(instance: RequestInstance, store: ValueStore) -> Dict[str, Optional[str]]:
    """Every request field of the signature: path string → value or None."""
    return {
        path_string: resolve_field(instance, path, template, store, path_string)
        for path, path_string, template in instance.signature.field_rows
    }


def build_naive(
    instance: RequestInstance,
    store: ValueStore,
    preferred_variant: Optional[frozenset] = None,
) -> Optional[Request]:
    """Assemble the concrete request, or None while values are missing."""
    uri_string = resolve_uri(instance, store)
    if uri_string is None:
        return None
    try:
        uri = Uri.parse(uri_string)
    except ValueError:
        return None
    resolved = resolve_all(instance, store)
    variant = instance.choose_variant(preferred_variant, resolved)
    if variant is None:
        return None
    template = instance.signature.signature.request
    request = Request(method=template.method, uri=uri, headers=Headers())
    if template.body_kind == "form":
        request.body = FormBody()
    elif template.body_kind == "json":
        request.body = JsonBody({})
    for path, path_string, _template in instance.signature.field_rows:
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
            if template.body_kind == "form":
                request.body.add(str(path.parts[0]), value)
            else:
                path.assign(request, value)
    return request
