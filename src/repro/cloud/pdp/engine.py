"""The policy decision point: one evaluator for every endpoint.

A :class:`PolicyDecisionPoint` binds a validated
:class:`~repro.cloud.pdp.spec.PolicySpec` to one cloud's stores and
answers :class:`~repro.cloud.pdp.model.AuthzRequest`\\ s with
:class:`~repro.cloud.pdp.model.Decision`\\ s.  Rule lists are compiled
to ``(index, impl, params)`` tuples at construction so the per-request
loop does no registry lookups; evaluation stops at the first denial
(exactly where the inline handler would have raised).

Each request's rule trail — pass, pass, ..., deny(code), or all pass —
is fully determined by (action, stopping rule, code), so the engine
memoizes the :class:`~repro.cloud.pdp.model.RuleEval` tuple and its
rendered trail per key: a decision neither renders nor allocates its
trail.  While the cloud handles a request, :meth:`decide` notes the
trail (and, on observed runs, its own wall duration) on the request's
record (``service.open_record``), so the trail reaches the audit,
forensic and observability evidence without a side channel.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, Tuple

from repro.cloud.pdp.model import AuthzRequest, Decision, RuleEval
from repro.cloud.pdp.rules import RULES, EvalContext
from repro.cloud.pdp.spec import PolicySpec, validate_spec

#: A memoized trail: the rule evaluations and their rendered string.
Trail = Tuple[Tuple[RuleEval, ...], str]


class PolicyDecisionPoint:
    """Evaluates one cloud's :class:`PolicySpec` over its live stores."""

    __slots__ = ("service", "spec", "_compiled", "_trails")

    def __init__(self, service: Any, spec: PolicySpec) -> None:
        validate_spec(spec)
        self.service = service
        self.spec = spec
        #: per-action rule entries ``(index, impl, params)``
        self._compiled: Dict[str, Tuple[Tuple[int, Callable, Dict[str, Any]], ...]] = {
            action: tuple(
                (index, RULES[ref.rule].impl, dict(ref.params))
                for index, ref in enumerate(refs)
            )
            for action, refs in spec.actions.items()
        }
        #: ``(action, stopping rule index, code) -> Trail``; the allow
        #: path stops past the last rule
        self._trails: Dict[Tuple[str, int, str], Trail] = {}

    def decide(self, request: AuthzRequest) -> Decision:
        """Evaluate *request* against its action's rule list, in order.

        Inside a request the decision's trail lands on the open record;
        on observed runs (the service's precomputed fast-path flag) the
        evaluation is also wall-clock timed into ``record.pdp_ns`` —
        authorization-cache hits inside the rule primitives show up as
        faster evaluations, so the PDP sketch captures the cache's
        hot-path win directly.  The calm path pays one attribute read
        and a branch.
        """
        service = self.service
        record = service.open_record
        if record is None:
            return self._decide(request)
        if service._observed:
            started = perf_counter_ns()
            decision = self._decide(request)
            record.pdp_ns = perf_counter_ns() - started
        else:
            decision = self._decide(request)
        record.trail = decision.trace()
        return decision

    def _decide(self, request: AuthzRequest) -> Decision:
        ctx = EvalContext(self.service, request)
        action = request.action
        rules = self._compiled[action]
        for index, impl, params in rules:
            rejection = impl(ctx, params)
            if rejection is not None:
                evaluations, trail = self._trail(
                    action, index, getattr(rejection, "code", "")
                )
                obligations = ctx.obligations
                return Decision(
                    False, rejection, evaluations,
                    tuple(obligations) if obligations else (), ctx.out, trail,
                )
        evaluations, trail = self._trail(action, len(rules), "")
        obligations = ctx.obligations
        return Decision(
            True, None, evaluations,
            tuple(obligations) if obligations else (), ctx.out, trail,
        )

    def _trail(self, action: str, stop: int, code: str) -> Trail:
        """The memoized trail of rules passed up to *stop*, denied there."""
        key = (action, stop, code)
        trail = self._trails.get(key)
        if trail is None:
            names = [ref.rule for ref in self.spec.actions[action]]
            evaluations = tuple(RuleEval(name, "pass") for name in names[:stop])
            if stop < len(names):
                evaluations += (RuleEval(names[stop], "deny", code),)
            trail = self._trails[key] = (
                evaluations, ">".join(e.render() for e in evaluations)
            )
        return trail
