"""Cloud endpoints as thin policy *enforcement* points (PEPs).

Each handler implements one endpoint of the vendor cloud in three
steps: phrase the request as a typed
:class:`~repro.cloud.pdp.model.AuthzRequest`, enforce the
:class:`~repro.cloud.pdp.model.Decision` made by the cloud's policy
decision point (:class:`~repro.cloud.pdp.engine.PolicyDecisionPoint`),
and perform the allowed mutation.  Every authentication/authorization
*check* lives in the PDP's declarative rule list
(:class:`~repro.cloud.pdp.spec.PolicySpec`), compiled from the
:class:`~repro.cloud.policy.VendorDesign`; attacks in ``repro.attacks``
succeed or fail *only* because of decisions made there — there is no
out-of-band "this vendor is vulnerable" flag anywhere.

Map from paper to code:

* Figure 3 (device authentication)  -> the ``authenticate-device`` rule
* Figure 4 (binding creation)       -> :meth:`EndpointHandlers.handle_bind`
* Section IV-C (binding revocation) -> :meth:`EndpointHandlers.handle_unbind`
* Section IV-B (post-binding authorization) -> the
  ``require-post-binding-token`` rule + the ``post_token`` issuance in
  :meth:`handle_bind` / :meth:`handle_fetch`
* Device #7's IP-match check        -> the
  ``require-fresh-same-ip-registration`` rule
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cloud.audit import AuditEntry
from repro.cloud.pdp.model import AuthzRequest, Decision
from repro.cloud.relay import QueuedCommand
from repro.core.errors import RequestRejected
from repro.core.messages import (
    BindingInfoRequest,
    BindMessage,
    BindTokenRequest,
    ControlMessage,
    DeviceFetch,
    DevTokenRequest,
    EventPollRequest,
    LoginRequest,
    LoginResponse,
    QueryRequest,
    Response,
    ScheduleUpdate,
    ShareRequest,
    ShareRevoke,
    StatusMessage,
    TokenResponse,
    UnbindMessage,
)
from repro.identity.tokens import TokenKind
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.service import CloudService


class EndpointHandlers:
    """The vendor cloud's request handlers (enforcement points).

    The recurring read-only authorization questions (token -> user,
    device credential check, user-may-touch-device) are answered inside
    the PDP rules through the cloud's
    :class:`~repro.cloud.authz.AuthorizationCache`: pure decisions
    memoized under the shared authorization epoch, so any
    binding/token/share/registry mutation invalidates them wholesale.
    Only decisions, never store objects, are cached — live records
    (bindings) are re-fetched on every hit.
    """

    def __init__(self, service: "CloudService") -> None:
        self.service = service

    # ------------------------------------------------------------------
    # enforcement
    # ------------------------------------------------------------------

    def _enforce(self, decision: Decision) -> Decision:
        """Apply the decision's obligations, then raise any rejection.

        Obligations are deny-path side effects the policy demands even
        though the request fails (XACML-style); today's only obligation
        is the bind-probe enumeration counter, charged *before* the
        rejection propagates — exactly the pre-PDP ordering.
        """
        svc = self.service
        for kind, argument in decision.obligations:
            if kind == "count-bind-probe-failure":
                svc.bind_probe_failures[argument] = (
                    svc.bind_probe_failures.get(argument, 0) + 1
                )
        if not decision.allowed:
            try:
                raise decision.rejection
            finally:
                # The traceback keeps this frame alive; dropping the
                # decision here stops frame -> decision -> exception ->
                # traceback -> frame from forming a cycle only the cyclic
                # collector could reclaim (once per rejected request).
                del decision
        return decision

    def _decide(self, request: AuthzRequest) -> Decision:
        """Ask the PDP and enforce its verdict in one step."""
        return self._enforce(self.service.pdp.decide(request))

    # ------------------------------------------------------------------
    # account endpoints
    # ------------------------------------------------------------------

    def handle_login(self, packet: Packet, message: LoginRequest) -> LoginResponse:
        """Password login (Figure 1 step 1)."""
        svc = self.service
        self._decide(AuthzRequest("login", user_id=message.user_id))
        token = svc.accounts.login(message.user_id, message.user_pw, svc.now)
        return LoginResponse(user_id=message.user_id, user_token=token)

    def handle_dev_token_request(self, packet: Packet, message: DevTokenRequest) -> TokenResponse:
        """Type-1 auth: the app fetches a DevToken to deliver locally.

        If the device is already bound, only its bound user may fetch a
        token — otherwise a remote stranger could mint a credential for
        someone else's device (the ``require-unbound-or-owner`` rule).
        """
        svc = self.service
        decision = self._decide(AuthzRequest(
            "dev-token",
            user_token=message.user_token,
            device_id=message.device_id,
        ))
        user = decision.context["user"]
        token = svc.registry.issue_dev_token(message.device_id, user, svc.now)
        return TokenResponse(token=token)

    def handle_bind_token_request(self, packet: Packet, message: BindTokenRequest) -> TokenResponse:
        """Capability design: issue a single-use BindToken to the user."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "bind-token", user_token=message.user_token,
        ))
        token = svc.tokens.issue(TokenKind.BIND, decision.context["user"], svc.now)
        return TokenResponse(token=token)

    # ------------------------------------------------------------------
    # Status (registration / heartbeat)
    # ------------------------------------------------------------------

    def handle_status(self, packet: Packet, message: StatusMessage) -> Response:
        """Authenticate a Status message and update the shadow (Figure 2 (1)/(6))."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "status",
            device_id=message.device_id,
            dev_token=message.dev_token,
            signature=message.signature,
            payload={"device_id": message.device_id, "model": message.model},
        ))
        device_id = decision.context["device"]
        shadow = svc.shadows.get(device_id)
        # Connection bookkeeping: on single-connection clouds the newest
        # authenticated sender evicts the previous one (the A3-4 lever);
        # otherwise the first connection is kept as the device channel.
        if shadow.connection_id is None or svc.design.single_connection_per_device:
            connection = packet.src
        else:
            connection = shadow.connection_id
        shadow.mark_status(svc.now, connection_id=connection)
        shadow.reported_model = message.model or shadow.reported_model
        shadow.reported_firmware = message.firmware_version or shadow.reported_firmware
        if message.is_registration:
            svc.shadows.mark_registration(device_id, svc.now, packet.observed_src_ip)
        if svc.design.status_yields_user_data and message.telemetry:
            svc.relay.report_telemetry(device_id, message.telemetry, svc.now, packet.src)
        return Response(payload={"state": shadow.state.value})

    # ------------------------------------------------------------------
    # Bind (Figure 4)
    # ------------------------------------------------------------------

    def handle_bind(self, packet: Packet, message: BindMessage) -> Response:
        """Create a binding per the Figure 4 design and the policy rules."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "bind",
            source=packet.src,
            source_ip=packet.observed_src_ip,
            device_id=message.device_id,
            user_token=message.user_token,
            user_id=message.user_id,
            user_pw=message.user_pw,
            bind_token=message.bind_token,
        ))
        if "bind_record" in decision.context:
            return self._capability_bind(decision, message)
        return self._acl_bind(decision, message)

    def _acl_bind(self, decision: Decision, message: BindMessage) -> Response:
        """Figure 4a/4b mutation: create (or replace) the ACL binding."""
        svc = self.service
        design = svc.design
        user = decision.context["user"]
        device_id = message.device_id
        shadow = svc.shadows.get(device_id)

        replace = bool(decision.context.get("replace", False))
        if replace:
            self._teardown_binding(device_id, reason="replaced")

        post_token: Optional[str] = None
        if design.post_binding_token:
            post_token = svc.tokens.issue(
                TokenKind.POST_BINDING, f"{device_id}:{user}", svc.now
            )
        svc.bindings.create(device_id, user, svc.now, post_token=post_token)
        shadow.mark_bound(user, svc.now)
        svc.notify(user, "binding-created", device_id)

        rotated: Optional[str] = None
        if design.device_auth.value == "DevToken":
            # A binding by a new user rotates the DevToken; the physical
            # device keeps working only if the binding user delivers the
            # fresh token locally (Section VI-B, device #3's saving grace).
            rotated = svc.registry.rotate_for_new_binding(device_id, user, svc.now)

        payload = {"bound_user": user, "replaced": replace}
        if post_token is not None:
            payload["post_binding_token"] = post_token
        if rotated is not None:
            payload["dev_token"] = rotated
        return Response(payload=payload)

    def _capability_bind(self, decision: Decision, message: BindMessage) -> Response:
        """Figure 4c mutation: consume the BindToken, confirm, bind."""
        svc = self.service
        record = decision.context["bind_record"]
        user = decision.context["user"]
        device_id = message.device_id
        svc.tokens.revoke(record.token)  # single use
        post_token = svc.tokens.issue(TokenKind.POST_BINDING, f"{device_id}:{user}", svc.now)
        svc.bindings.create(device_id, user, svc.now, post_token=post_token)
        # The device itself just proved presence: confirm through the
        # store so the flip is journaled like any other mutation.
        svc.bindings.confirm_device(device_id, post_token)
        svc.shadows.get(device_id).mark_bound(user, svc.now)
        return Response(payload={"bound_user": user, "post_binding_token": post_token})

    # ------------------------------------------------------------------
    # Unbind (Section IV-C)
    # ------------------------------------------------------------------

    def handle_unbind(self, packet: Packet, message: UnbindMessage) -> Response:
        """Revoke a binding per the Section IV-C revocation policy."""
        self._decide(AuthzRequest(
            "unbind",
            device_id=message.device_id,
            user_token=message.user_token,
        ))
        self._teardown_binding(message.device_id, reason="unbound")
        return Response(payload={"unbound": message.device_id})

    def _teardown_binding(self, device_id: str, reason: str) -> None:
        """Shared cleanup when a binding disappears (revoked or replaced)."""
        svc = self.service
        binding = svc.bindings.revoke(device_id)
        if binding.post_token is not None:
            svc.tokens.revoke(binding.post_token)
        svc.shares.revoke_all(device_id)  # grants die with the binding
        svc.relay.forget_device(device_id)
        svc.notify(binding.user_id, f"binding-{reason}", device_id)
        shadow = svc.shadows.get(device_id)
        if shadow.is_bound:
            shadow.mark_unbound(svc.now)
        svc.audit.record(
            AuditEntry(svc.now, "cloud", "-", f"binding-{reason}:{device_id}")
        )

    # ------------------------------------------------------------------
    # post-binding traffic
    # ------------------------------------------------------------------

    def handle_control(self, packet: Packet, message: ControlMessage) -> Response:
        """Relay a user command to the device, enforcing ownership."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "control",
            user_token=message.user_token,
            device_id=message.device_id,
            post_binding_token=message.post_binding_token,
        ))
        svc.relay.queue_command(
            message.device_id,
            QueuedCommand(
                message.command,
                dict(message.arguments),
                decision.context["user"],
                svc.now,
                trace_id=packet.trace.trace_id if packet.trace is not None else None,
            ),
        )
        return Response(payload={"queued": message.command})

    def handle_event_poll(self, packet: Packet, message: EventPollRequest) -> Response:
        """Drain the requesting user's notification inbox."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "event-poll", user_token=message.user_token,
        ))
        events = svc.events.poll(decision.context["user"])
        return Response(payload={
            "events": [
                {"time": e.time, "kind": e.kind, "device_id": e.device_id,
                 "detail": e.detail}
                for e in events
            ],
        })

    def handle_binding_info(self, packet: Packet, message: BindingInfoRequest) -> Response:
        """Return the requester's own binding metadata (incl. the
        post-binding token — the user's half, Section IV-B)."""
        decision = self._decide(AuthzRequest(
            "binding-info",
            user_token=message.user_token,
            device_id=message.device_id,
        ))
        binding = decision.context["binding"]
        payload = {
            "bound_user": decision.context["user"],
            "created_at": binding.created_at,
            "device_confirmed": binding.device_confirmed,
        }
        if binding.post_token is not None:
            payload["post_binding_token"] = binding.post_token
        return Response(payload=payload)

    def handle_share(self, packet: Packet, message: ShareRequest) -> Response:
        """Owner grants another account access (many-to-one binding)."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "share",
            user_token=message.user_token,
            device_id=message.device_id,
            grantee=message.grantee,
        ))
        svc.shares.grant(
            message.device_id, decision.context["user"], message.grantee, svc.now
        )
        return Response(payload={"shared_with": message.grantee})

    def handle_share_revoke(self, packet: Packet, message: ShareRevoke) -> Response:
        """Withdraw a share grant (owner only).

        The "was it actually shared" outcome is coupled to the store
        mutation itself (``revoke`` reports whether it removed a grant),
        so it stays here in the enforcement point rather than in a rule.
        """
        svc = self.service
        self._decide(AuthzRequest(
            "share-revoke",
            user_token=message.user_token,
            device_id=message.device_id,
            grantee=message.grantee,
        ))
        if not svc.shares.revoke(message.device_id, message.grantee):
            raise RequestRejected("not-shared", message.grantee)
        return Response(payload={"revoked": message.grantee})

    def handle_schedule(self, packet: Packet, message: ScheduleUpdate) -> Response:
        """Store the owner-set schedule for later device sync."""
        svc = self.service
        self._decide(AuthzRequest(
            "schedule",
            user_token=message.user_token,
            device_id=message.device_id,
        ))
        svc.relay.set_schedule(message.device_id, message.schedule)
        return Response(payload={"schedule": dict(message.schedule)})

    def handle_query(self, packet: Packet, message: QueryRequest) -> Response:
        """Read back device state/telemetry/schedule for an authorized user."""
        svc = self.service
        self._decide(AuthzRequest(
            "query",
            user_token=message.user_token,
            device_id=message.device_id,
        ))
        shadow = svc.shadows.get(message.device_id)
        telemetry = svc.relay.telemetry_of(message.device_id)
        payload = {
            "state": shadow.state.value,
            "telemetry": dict(telemetry.data) if telemetry else None,
            "schedule": svc.relay.schedule_of(message.device_id),
        }
        return Response(payload=payload)

    def handle_fetch(self, packet: Packet, message: DeviceFetch) -> Response:
        """Device poll: pending commands + (for data-bearing channels) the
        schedule.  This is the A1-stealing surface on DevId designs."""
        svc = self.service
        decision = self._decide(AuthzRequest(
            "fetch",
            device_id=message.device_id,
            dev_token=message.dev_token,
            signature=message.signature,
            payload={"device_id": message.device_id, "model": ""},
        ))
        device_id = decision.context["device"]
        binding = svc.bindings.get(device_id)
        if binding is not None and message.post_binding_token is not None:
            # Through the store, not the dataclass, so the confirmation
            # flip reaches an attached journal.
            svc.bindings.confirm_device(device_id, message.post_binding_token)
        commands = svc.relay.drain_commands(device_id)
        payload = {
            "commands": [
                {"command": c.command, "arguments": dict(c.arguments), "issued_by": c.issued_by}
                for c in commands
            ],
        }
        if svc.design.status_yields_user_data:
            payload["schedule"] = svc.relay.schedule_of(device_id)
        return Response(payload=payload)
