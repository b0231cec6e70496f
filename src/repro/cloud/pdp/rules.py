"""The PDP rule vocabulary.

Every check the paper found present or absent in a studied cloud is one
named rule here: a pure predicate over the cloud's stores that either
passes (optionally publishing resolved facts into the evaluation
context) or returns the exact rejection the inline handler used to
raise.  A :class:`~repro.cloud.pdp.spec.PolicySpec` is an ordered list
of :class:`RuleRef`\\ s per endpoint action; the vocabulary below is the
complete set a spec may reference.

The recurring read-only questions (token -> user, device credential
check, user-may-touch-device) are answered through one shared
memoization skeleton, :func:`cached_decision`, over the cloud's
:class:`~repro.cloud.authz.AuthorizationCache` — the PR 7 cache
subsumed intact: same keys, same lookup/store sequence, same
epoch-invalidation semantics, so hit/miss counts are bit-identical to
the pre-PDP handlers.

Each rule declares a parameter schema plus the facts it *needs* and
*provides*; the spec validator threads those through the rule list, so
a spec that evaluates a fact before anything resolved it is rejected as
malformed rather than failing at decision time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.cloud.authz import CACHEABLE_REJECTIONS, MISS, unwrap
from repro.core.errors import (
    AuthenticationFailed,
    AuthorizationFailed,
    BindingConflict,
    RequestRejected,
    UnknownDevice,
)
from repro.cloud.pdp.model import AuthzRequest
from repro.identity.tokens import TokenKind

#: rejection-class vocabulary for the declarative ``deny`` rule
DENY_KINDS: Dict[str, type] = {
    "rejected": RequestRejected,
    "authn": AuthenticationFailed,
    "authz": AuthorizationFailed,
    "conflict": BindingConflict,
}


class EvalContext:
    """Mutable per-decision scratchpad shared by the rules.

    ``out`` accumulates resolved facts (the authenticated user, the live
    binding, ...) that later rules and the enforcement point consume;
    ``obligations`` accumulates deny-path side effects the enforcement
    point must apply before raising.
    """

    __slots__ = ("service", "request", "out", "obligations")

    def __init__(self, service: Any, request: AuthzRequest) -> None:
        self.service = service
        self.request = request
        self.out: Dict[str, Any] = {}
        #: lazily created — most decisions carry no obligations, so the
        #: hot path skips the list allocation entirely
        self.obligations: Optional[list] = None

    def oblige(self, kind: str, argument: Any) -> None:
        """Record one deny-path side effect for the enforcement point."""
        if self.obligations is None:
            self.obligations = []
        self.obligations.append((kind, argument))


def cached_decision(service: Any, key: tuple, compute: Callable[[], Any]) -> Any:
    """Version-guarded memoization skeleton for pure decisions.

    The one shared code path behind every cached authorization
    primitive (deduplicating what ``_require_user`` /
    ``_require_bound_user`` / ``_require_access`` each hand-rolled):
    look up *key*, unwrap a hit (re-raising a memoized rejection),
    otherwise run *compute* and memoize its value — or its cacheable
    rejection — under the current epoch.
    """
    cache = service.authz_cache
    value = cache.lookup(key)
    if value is not MISS:
        return unwrap(value)
    try:
        value = compute()
    except CACHEABLE_REJECTIONS as exc:
        cache.store_rejection(key, exc)
        raise
    cache.store(key, value)
    return value


def resolve_user(service: Any, user_token: Optional[str]) -> str:
    """Cached ``accounts.require_user`` (pure, version-guarded)."""
    return cached_decision(
        service,
        ("user", user_token),
        lambda: service.accounts.require_user(user_token),
    )


# ----------------------------------------------------------------------
# rule implementations
#
# Each takes (ctx, params) and returns None (pass) or the rejection the
# enforcement point must raise (deny).  Implementations are pure reads
# over the stores; the only side channels are ctx.out / ctx.obligations.
# A caught rejection is returned without its traceback: those frames
# hold the decision that holds the rejection, one reference cycle per
# denied request for the cyclic collector to find.
# ----------------------------------------------------------------------


def _rule_allow(ctx: EvalContext, params: Mapping[str, Any]) -> Optional[Exception]:
    """Unconditional pass (endpoints with no authorization question)."""
    return None


def _rule_deny(ctx: EvalContext, params: Mapping[str, Any]) -> Optional[Exception]:
    """Unconditional denial: the endpoint does not exist in this design."""
    cls = DENY_KINDS[params.get("kind", "rejected")]
    return cls(params["code"], params["detail"])


def _rule_require_user(ctx, params):
    """Resolve the presented UserToken to an account (cached)."""
    try:
        ctx.out["user"] = resolve_user(ctx.service, ctx.request.user_token)
    except AuthenticationFailed as exc:
        return exc.with_traceback(None)
    return None


def _rule_require_bind_principal(ctx, params):
    """Authenticate whoever is asking to create the binding (Figure 4a/4b)."""
    svc = ctx.service
    message = ctx.request
    if params["sender"] == "device":
        # Figure 4b: the device submits the user's credentials, which
        # were delivered to it during local configuration.
        if message.user_id is None or message.user_pw is None:
            return RequestRejected(
                "bad-bind-format", "this vendor expects device-submitted credentials"
            )
        if not svc.accounts.check_password(message.user_id, message.user_pw):
            return AuthenticationFailed("bad-credentials", "device-submitted login failed")
        ctx.out["user"] = message.user_id
        return None
    if message.user_token is None:
        return RequestRejected(
            "bad-bind-format", "this vendor expects an app-submitted UserToken"
        )
    return _rule_require_user(ctx, params)


def _rule_limit_bind_probes(ctx, params):
    """Enumeration defence: lock out accounts probing unknown device IDs."""
    svc = ctx.service
    if svc.bind_probe_failures.get(ctx.out["user"], 0) >= params["limit"]:
        return RequestRejected(
            "rate-limited",
            "too many bind attempts for unknown devices from this account",
        )
    return None


def _rule_require_registered_device(ctx, params):
    """The targeted device ID must exist in the registry."""
    svc = ctx.service
    device_id = ctx.request.device_id
    if device_id is None or not svc.registry.is_registered(device_id):
        if params.get("count_probe_failures", False):
            ctx.oblige("count-bind-probe-failure", ctx.out["user"])
        return UnknownDevice(device_id or "<none>")
    return None


def _rule_require_fresh_same_ip_registration(ctx, params):
    """Device #7: bind only after a fresh button-press registration
    arriving from the same source IP as the app's request."""
    svc = ctx.service
    window = params["window"]
    mark = svc.shadows.registration_of(ctx.request.device_id)
    if mark is None or svc.now - mark.time > window:
        return BindingConflict(
            "no-fresh-registration",
            f"press the device button within {window:.0f}s",
        )
    if mark.source_ip != ctx.request.source_ip:
        return BindingConflict(
            "ip-mismatch",
            f"app at {ctx.request.source_ip} but device registered from {mark.source_ip}",
        )
    return None


def _rule_require_online_device(ctx, params):
    """Binding requires the device shadow to be online right now."""
    svc = ctx.service
    if not svc.shadows.get(ctx.request.device_id).is_online:
        return BindingConflict("device-offline", "binding requires an online device")
    return None


def _rule_check_rebind(ctx, params):
    """Resolve an existing binding: conflict, or replace (Type 3)."""
    svc = ctx.service
    device_id = ctx.request.device_id
    existing = svc.bindings.get(device_id)
    if existing is not None:
        if not params["replaces"]:
            return BindingConflict(
                "already-bound", f"device {device_id!r} is bound to another user"
            )
        ctx.out["replace"] = True
    return None


def _rule_require_bind_capability(ctx, params):
    """Figure 4c: the submitted BindToken must be live; it names the user."""
    svc = ctx.service
    record = svc.tokens.lookup(ctx.request.bind_token, TokenKind.BIND)
    if record is None:
        return AuthorizationFailed("bad-bind-token", "unknown or spent BindToken")
    ctx.out["bind_record"] = record
    ctx.out["user"] = record.subject
    return None


def _rule_require_device_channel(ctx, params):
    """Capability bindings are confirmed over the device's own connection."""
    svc = ctx.service
    shadow = svc.shadows.get(ctx.request.device_id)
    if not shadow.is_online or shadow.connection_id != ctx.request.source:
        return AuthenticationFailed(
            "device-not-authenticated",
            "capability bindings are confirmed over the device's own connection",
        )
    return None


def _rule_require_unbound(ctx, params):
    """Capability designs never replace: an existing binding blocks."""
    if ctx.service.bindings.is_bound(ctx.request.device_id):
        return BindingConflict("already-bound", "unbind first")
    return None


def _rule_require_existing_binding(ctx, params):
    """Revocation targets must actually be bound."""
    device_id = ctx.request.device_id
    binding = ctx.service.bindings.get(device_id)
    if binding is None:
        return BindingConflict("not-bound", f"device {device_id!r} has no binding")
    ctx.out["binding"] = binding
    return None


def _rule_authorize_revocation(ctx, params):
    """Section IV-C: who may revoke, per the design's unbind signature."""
    message = ctx.request
    if message.user_token is None:
        # Type 2: Unbind : DevId — anyone with the ID can revoke.
        if not params["accepts_bare_dev_id"]:
            return RequestRejected(
                "missing-user-token", "this vendor requires a UserToken to unbind"
            )
        return None
    # Type 1: Unbind : (DevId, UserToken)
    try:
        user = resolve_user(ctx.service, message.user_token)
    except AuthenticationFailed as exc:
        return exc.with_traceback(None)
    ctx.out["user"] = user
    if params["checks_bound_user"] and ctx.out["binding"].user_id != user:
        return AuthorizationFailed("not-bound-user", "requester is not the bound user")
    return None


def _rule_require_unbound_or_owner(ctx, params):
    """DevToken issuance: only the bound user may mint for a bound device."""
    svc = ctx.service
    bound = svc.bindings.bound_user(ctx.request.device_id)
    if bound is not None and bound != ctx.out["user"]:
        return AuthorizationFailed("not-owner", "device is bound to another user")
    return None


def _rule_authenticate_device(ctx, params):
    """Figure 3: verify device identity per the design's mode.

    DevId and DevToken decisions depend only on (device_id, dev_token)
    plus registry/token state, so they are served from the authorization
    cache; PubKey verification covers the per-message *payload* and is
    always computed fresh.
    """
    svc = ctx.service
    message = ctx.request
    mode = params["mode"]

    def compute() -> str:
        device_id = message.device_id
        if device_id is None or not svc.registry.is_registered(device_id):
            raise AuthenticationFailed("unknown-device-id", str(device_id))
        if mode == "DevId":
            # Static identifier: possession of the ID *is* the identity.
            return device_id
        if mode == "DevToken":
            if not svc.registry.check_dev_token(device_id, message.dev_token):
                raise AuthenticationFailed("bad-dev-token", "stale or missing DevToken")
            return device_id
        record = svc.registry.get(device_id)
        if record.public_key is None:
            raise AuthenticationFailed("no-public-key", device_id)
        if message.signature is None or not record.public_key.verify(
            message.payload or {}, message.signature
        ):
            raise AuthenticationFailed("bad-signature", device_id)
        return device_id

    try:
        if mode == "PubKey":
            ctx.out["device"] = compute()
        else:
            ctx.out["device"] = cached_decision(
                svc, ("dev", message.device_id, message.dev_token), compute
            )
    except AuthenticationFailed as exc:
        return exc.with_traceback(None)
    return None


def _rule_require_bound_user(ctx, params):
    """The requester must be the device's bound user (owner surfaces)."""
    svc = ctx.service
    message = ctx.request
    device_id = message.device_id

    def compute() -> str:
        user = resolve_user(svc, message.user_token)
        binding = svc.bindings.get(device_id)
        if binding is None:
            raise BindingConflict("not-bound", f"device {device_id!r} has no binding")
        if binding.user_id != user:
            raise AuthorizationFailed("not-bound-user", "requester is not the bound user")
        return user

    try:
        user = cached_decision(svc, ("owner", message.user_token, device_id), compute)
    except CACHEABLE_REJECTIONS as exc:
        return exc.with_traceback(None)
    ctx.out["user"] = user
    # Same epoch => the binding row cannot have changed; re-fetch the
    # live object rather than caching a reference to it.
    ctx.out["binding"] = svc.bindings.get(device_id)
    ctx.out["is_owner"] = True
    return None


def _rule_require_device_access(ctx, params):
    """Owner *or* share-grantee access (control/query surfaces).

    Grants are explicit cloud-side authorizations created by the owner —
    never ambient authority — so they extend the binding without
    weakening it.
    """
    svc = ctx.service
    message = ctx.request
    device_id = message.device_id

    def compute() -> tuple:
        user = resolve_user(svc, message.user_token)
        binding = svc.bindings.get(device_id)
        if binding is None:
            raise BindingConflict("not-bound", f"device {device_id!r} has no binding")
        if binding.user_id == user:
            return user, True
        if svc.shares.is_granted(device_id, user):
            return user, False
        raise AuthorizationFailed("not-bound-user", "requester is not the bound user")

    try:
        user, is_owner = cached_decision(
            svc, ("access", message.user_token, device_id), compute
        )
    except CACHEABLE_REJECTIONS as exc:
        return exc.with_traceback(None)
    ctx.out["user"] = user
    ctx.out["binding"] = svc.bindings.get(device_id)
    ctx.out["is_owner"] = is_owner
    return None


def _rule_require_online_shadow(ctx, params):
    """Control requires a currently connected device."""
    if not ctx.service.shadows.get(ctx.request.device_id).is_online:
        return RequestRejected("device-offline", "device is not connected")
    return None


def _rule_require_post_binding_token(ctx, params):
    """Section IV-B: the binding token pins the owner<->device pair.

    Grantees are authorized by their explicit grant instead, but the
    device side must still have confirmed the binding.
    """
    binding = ctx.out["binding"]
    if ctx.out["is_owner"] and ctx.request.post_binding_token != binding.post_token:
        return AuthorizationFailed("bad-post-token", "control requires the binding token")
    if not binding.device_confirmed:
        return AuthorizationFailed(
            "device-not-confirmed", "device never presented this binding's token"
        )
    return None


def _rule_require_known_grantee(ctx, params):
    """Shares can only be granted to accounts that exist."""
    grantee = ctx.request.grantee
    if not ctx.service.accounts.exists(grantee):
        return RequestRejected("unknown-grantee", grantee)
    return None


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------


class RuleDef:
    """One vocabulary entry: implementation + schema + dataflow contract.

    ``params`` maps each accepted parameter to a scalar type name
    (``str`` / ``int`` / ``float`` / ``bool``); ``required`` names the
    mandatory subset.  ``needs`` / ``provides`` declare which context
    facts the rule consumes and publishes — the spec validator threads
    them through each action's rule list.  ``terminal`` marks rules
    after which no rule is reachable (the unconditional ``deny``).
    """

    __slots__ = ("name", "impl", "params", "required", "needs", "provides",
                 "terminal", "doc")

    def __init__(
        self,
        name: str,
        impl: Callable[[EvalContext, Mapping[str, Any]], Optional[Exception]],
        params: Optional[Mapping[str, str]] = None,
        required: Tuple[str, ...] = (),
        needs: Tuple[str, ...] = (),
        provides: Tuple[str, ...] = (),
        terminal: bool = False,
    ) -> None:
        self.name = name
        self.impl = impl
        self.params: Dict[str, str] = dict(params or {})
        self.required: FrozenSet[str] = frozenset(required)
        self.needs: FrozenSet[str] = frozenset(needs)
        self.provides: FrozenSet[str] = frozenset(provides)
        self.terminal = terminal
        self.doc = (impl.__doc__ or "").strip().splitlines()[0]


#: name -> :class:`RuleDef`: the complete rule vocabulary.
RULES: Dict[str, RuleDef] = {
    rule.name: rule
    for rule in (
        RuleDef("allow", _rule_allow),
        RuleDef(
            "deny", _rule_deny,
            params={"code": "str", "detail": "str", "kind": "str"},
            required=("code", "detail"), terminal=True,
        ),
        RuleDef("require-user", _rule_require_user, provides=("user",)),
        RuleDef(
            "require-bind-principal", _rule_require_bind_principal,
            params={"sender": "str"}, required=("sender",), provides=("user",),
        ),
        RuleDef(
            "limit-bind-probes", _rule_limit_bind_probes,
            params={"limit": "int"}, required=("limit",), needs=("user",),
        ),
        RuleDef(
            "require-registered-device", _rule_require_registered_device,
            params={"count_probe_failures": "bool"}, provides=("registered",),
        ),
        RuleDef(
            "require-fresh-same-ip-registration",
            _rule_require_fresh_same_ip_registration,
            params={"window": "float"}, required=("window",),
            needs=("registered",),
        ),
        RuleDef(
            "require-online-device", _rule_require_online_device,
            needs=("registered",),
        ),
        RuleDef(
            "check-rebind", _rule_check_rebind,
            params={"replaces": "bool"}, required=("replaces",),
            needs=("registered",), provides=("bind-resolution",),
        ),
        RuleDef(
            "require-bind-capability", _rule_require_bind_capability,
            provides=("user", "bind-record"),
        ),
        RuleDef(
            "require-device-channel", _rule_require_device_channel,
            needs=("registered",),
        ),
        RuleDef(
            "require-unbound", _rule_require_unbound,
            needs=("registered",), provides=("bind-resolution",),
        ),
        RuleDef(
            "require-existing-binding", _rule_require_existing_binding,
            needs=("registered",), provides=("binding",),
        ),
        RuleDef(
            "authorize-revocation", _rule_authorize_revocation,
            params={"accepts_bare_dev_id": "bool", "checks_bound_user": "bool"},
            required=("accepts_bare_dev_id", "checks_bound_user"),
            needs=("binding",), provides=("revocation",),
        ),
        RuleDef(
            "require-unbound-or-owner", _rule_require_unbound_or_owner,
            needs=("user", "registered"),
        ),
        RuleDef(
            "authenticate-device", _rule_authenticate_device,
            params={"mode": "str"}, required=("mode",), provides=("device",),
        ),
        RuleDef(
            "require-bound-user", _rule_require_bound_user,
            provides=("user", "binding", "owner"),
        ),
        RuleDef(
            "require-device-access", _rule_require_device_access,
            provides=("user", "binding", "access"),
        ),
        RuleDef(
            "require-online-shadow", _rule_require_online_shadow,
            provides=("online",),
        ),
        RuleDef(
            "require-post-binding-token", _rule_require_post_binding_token,
            needs=("access",),
        ),
        RuleDef(
            "require-known-grantee", _rule_require_known_grantee,
            needs=("owner",), provides=("grantee",),
        ),
    )
}
