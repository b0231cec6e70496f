"""Command-line interface: regenerate any of the paper's artifacts.

Usage (after ``pip install -e .``)::

    python -m repro table3              # the headline evaluation
    python -m repro table2              # the attack taxonomy
    python -m repro fig1 --vendor TP-LINK
    python -m repro fig2 | fig3 | fig4
    python -m repro attack "E-Link Smart" A4-1
    python -m repro audit D-LINK        # Section VII lint for one vendor
    python -m repro entropy             # device-ID enumerability table
    python -m repro sweep               # design-space sweep
    python -m repro secure              # attack the recommended designs
    python -m repro obs                 # traced fleet campaign run report
    python -m repro slo                 # SLO report: burn rates, latency
    python -m repro slo --chaos cloud-brownout   # score an outage window
    python -m repro campaign --workers 4 --households 400
    python -m repro campaign --workers 4 --repeat 3   # one warm pool
    python -m repro campaign --households 8 --chaos lossy-lan
    python -m repro chaos list                 # fault-plan catalog
    python -m repro chaos run cloud-restart --seconds 120
    python -m repro detect --vendor OZWI       # detector precision/recall
    python -m repro detect --attack A4 --chaos flaky-wan
    python -m repro snapshot save /tmp/cloud.json --vendor OZWI
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.core.notation import render_table_i

    return render_table_i()


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.analysis.surface import render_table_ii

    return render_table_ii()


def _cmd_table3(args: argparse.Namespace) -> str:
    from repro.analysis.evaluator import evaluate_all_vendors
    from repro.analysis.export import to_csv, to_json, to_markdown
    from repro.analysis.report import render_agreement, render_table_iii

    evaluations = evaluate_all_vendors(seed=args.seed)
    if args.format == "json":
        return to_json(evaluations)
    if args.format == "csv":
        return to_csv(evaluations)
    if args.format == "markdown":
        return to_markdown(evaluations)
    return render_table_iii(evaluations) + "\n\n" + render_agreement(evaluations)


def _cmd_fig1(args: argparse.Namespace) -> str:
    from repro.analysis.traces import trace_lifecycle
    from repro.vendors import vendor

    return trace_lifecycle(vendor(args.vendor), seed=args.seed)


def _cmd_fig2(args: argparse.Namespace) -> str:
    from repro.core.model import check_paper_properties, render_figure_2

    properties = check_paper_properties()
    checks = "\n".join(
        f"  {name:<36} {'OK' if ok else 'VIOLATED'}"
        for name, ok in properties.items()
    )
    return render_figure_2() + "\n\nmodel properties:\n" + checks


def _cmd_fig3(args: argparse.Namespace) -> str:
    from repro.analysis.traces import trace_device_auth

    return trace_device_auth(seed=args.seed)


def _cmd_fig4(args: argparse.Namespace) -> str:
    from repro.analysis.traces import trace_binding_creation

    return trace_binding_creation(seed=args.seed)


def _cmd_attack(args: argparse.Namespace) -> str:
    from repro.attacks.runner import run_attack
    from repro.vendors import vendor

    report = run_attack(vendor(args.vendor), args.attack_id, seed=args.seed)
    lines = [
        f"attack {report.attack_id} against {report.vendor}: {report.outcome.value}",
        f"  {report.reason}",
    ]
    for key, value in report.evidence.items():
        lines.append(f"  evidence {key}: {value}")
    return "\n".join(lines)


def _cmd_audit(args: argparse.Namespace) -> str:
    from repro.analysis.recommendations import render_findings
    from repro.vendors import vendor

    return render_findings(vendor(args.vendor))


def _cmd_entropy(args: argparse.Namespace) -> str:
    from repro.identity.device_ids import MacDeviceId, RandomDeviceId, SerialDeviceId
    from repro.identity.entropy import analyze, render_report

    schemes = [
        SerialDeviceId(digits=6),
        SerialDeviceId(digits=7),
        MacDeviceId("a4:77:33"),
        RandomDeviceId(hex_chars=32),
    ]
    return render_report([analyze(s) for s in schemes], rate=args.rate)


def _cmd_witness(args: argparse.Namespace) -> str:
    from repro.analysis.protocol_model import check_safety
    from repro.vendors import vendor

    return check_safety(vendor(args.vendor)).render()


def _cmd_fix(args: argparse.Namespace) -> str:
    from repro.analysis.advisor import advise, verify_advice
    from repro.vendors import vendor

    advice = advise(vendor(args.vendor))
    text = advice.render()
    if advice.fixed_design is not None and not advice.already_secure:
        verified = verify_advice(advice, seed=args.seed)
        text += f"\n  simulation re-check: {'pass' if verified else 'FAIL'}"
    return text


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.design_space import sweep_design_space

    return sweep_design_space().render()


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.analysis.full_report import render_full_report

    return render_full_report(seed=args.seed)


def _cmd_secure(args: argparse.Namespace) -> str:
    from repro.secure import verify_all_baselines

    return "\n\n".join(v.render() for v in verify_all_baselines(seed=args.seed))


def _cmd_obs(args: argparse.Namespace) -> str:
    from repro.obs import Observability, render_report, to_json
    from repro.vendors import vendor

    obs = Observability(trace_messages=not args.no_messages)
    design = vendor(args.vendor)
    if args.mode == "attacks":
        from repro.attacks.runner import run_all_attacks

        reports = run_all_attacks(design, seed=args.seed, observer=obs)
        summary = "\n".join(r.line() for r in reports.values())
        audit = None
    else:
        from repro.attacks.campaign import campaign_binding_dos, campaign_mass_unbind
        from repro.fleet import FleetDeployment

        fleet = FleetDeployment(
            design, households=args.households, seed=args.seed, observer=obs
        )
        if args.mode == "mass-unbind":
            fleet.setup_all()
            fleet.run(12.0)
            report = campaign_mass_unbind(fleet, max_probes=args.probes)
        else:
            report = campaign_binding_dos(fleet, max_probes=args.probes)
        summary = report.render()
        audit = fleet.cloud.audit
    if args.format == "json":
        return to_json(obs)
    text = render_report(obs) + "\n\n== run summary ==\n" + summary
    if audit is not None:
        consistent = obs.matches_audit(audit)
        text += (
            f"\n\nmetrics vs audit log: "
            f"{'consistent' if consistent else 'MISMATCH'} "
            f"({len(audit)} audit entries)"
        )
    return text


def _cmd_slo(args: argparse.Namespace) -> str:
    import json

    from repro.fleet import FleetDeployment
    from repro.obs import Observability
    from repro.obs.export import render_red
    from repro.obs.slo import SLOSpec, evaluate_slo
    from repro.vendors import vendor

    design = vendor(args.vendor)
    obs = Observability(trace_messages=False)
    fleet = FleetDeployment(
        design, households=args.households, seed=args.seed, observer=obs
    )
    plan = None
    if args.chaos is not None:
        from repro.chaos import ChaosSpec, apply_chaos
        from repro.chaos.faults import plan_from_name, plan_names

        if args.chaos not in plan_names():
            from repro.core.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown fault plan {args.chaos!r}; see 'repro chaos list'"
            )
        apply_chaos(fleet, ChaosSpec(
            plan=args.chaos,
            intensity=args.intensity,
            resilience=not args.no_resilience,
        ))
        plan = plan_from_name(args.chaos, args.intensity)
    fleet.setup_all()
    fleet.run(args.seconds)
    spec = SLOSpec(objective=args.objective, latency_us=args.latency_us)
    report = evaluate_slo(
        obs.slo, spec,
        sketch=obs.red.combined_sketch(design.name),
        plan=plan,
    )
    if args.format == "json":
        payload = report.to_dict()
        payload["vendor"] = design.name
        payload["households"] = args.households
        payload["seconds"] = args.seconds
        payload["chaos"] = (
            {"plan": args.chaos, "intensity": args.intensity}
            if args.chaos is not None else None
        )
        payload["red"] = {
            "requests": obs.red.snapshot(),
            "pdp": obs.pdp_red.snapshot(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    header = (
        f"slo run: vendor={design.name} households={args.households} "
        f"seconds={args.seconds:g}"
        + (f" chaos={args.chaos} intensity={args.intensity:g}"
           if args.chaos is not None else " (calm)")
    )
    return "\n".join([
        header,
        report.render(),
        "",
        "== RED (rate / errors / duration) ==",
        render_red(obs),
    ])


def _cmd_campaign(args: argparse.Namespace) -> str:
    import json

    from repro.parallel import run_campaigns
    from repro.vendors import vendor

    chaos = None
    if args.chaos is not None:
        from repro.chaos import ChaosSpec

        chaos = ChaosSpec(
            plan=args.chaos,
            intensity=args.intensity,
            resilience=not args.no_resilience,
        )
    repeats = max(1, args.repeat)
    results = run_campaigns(
        vendor(args.vendor),
        [args.mode] * repeats,
        workers=args.workers,
        warm_start=not args.no_warm_start,
        households=args.households,
        max_probes=args.probes,
        seed=args.seed,
        build=args.build,
        snapshot_max_spans=args.max_spans,
        chaos=chaos,
        detect=args.detect,
    )
    result = results[-1]
    if args.format == "json":
        payload = {
            "report": result.to_dict(include_pool=result.pool_stats is not None),
            "snapshot": result.snapshot,
        }
        if repeats > 1:
            payload["repeats"] = [r.wall_seconds for r in results]
        return json.dumps(payload, indent=2, sort_keys=True)
    text = result.render()
    if repeats > 1:
        walls = "  ".join(
            f"#{index}={r.wall_seconds:.2f}s" for index, r in enumerate(results)
        )
        text += f"\nrepeat walls: {walls}"
    return text


def _cmd_chaos(args: argparse.Namespace) -> str:
    from repro.chaos import plan_from_name, plan_names
    from repro.chaos.faults import plan_catalog

    if args.action == "list":
        catalog = plan_catalog()
        width = max(len(name) for name in catalog)
        return "\n".join(
            f"{name:<{width}}  {description}"
            for name, description in catalog.items()
        )
    if args.action == "describe":
        return plan_from_name(args.plan, args.intensity).describe()

    # action == "run": one chaos-enabled fleet, time actually advancing,
    # so windowed faults (partitions, brownouts, restarts) fire.
    from repro.chaos import ChaosSpec, apply_chaos, binding_liveness
    from repro.fleet import FleetDeployment
    from repro.vendors import vendor

    if args.plan not in plan_names():
        from repro.core.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown fault plan {args.plan!r}; see 'repro chaos list'"
        )
    fleet = FleetDeployment(
        vendor(args.vendor), households=args.households, seed=args.seed
    )
    spec = ChaosSpec(
        plan=args.plan,
        intensity=args.intensity,
        resilience=not args.no_resilience,
    )
    controller = apply_chaos(fleet, spec)
    bound = fleet.setup_all()
    fleet.run(args.seconds)
    liveness = binding_liveness(fleet)
    summary = controller.summary()
    injector = summary["injector"]
    if getattr(args, "format", "text") == "json":
        import json

        return json.dumps(
            {
                "plan": args.plan,
                "intensity": args.intensity,
                "vendor": fleet.design.name,
                "households": args.households,
                "seconds": args.seconds,
                "setup_succeeded": bound,
                "injector": injector,
                "restarts": summary["restarts"],
                "restart_entries_applied": summary["restart_entries_applied"],
                "liveness": liveness,
                "resilience": summary["resilience"],
            },
            indent=2,
            sort_keys=True,
        )
    lines = [
        f"chaos run: plan={args.plan} intensity={args.intensity:g} "
        f"vendor={fleet.design.name} households={args.households} "
        f"seconds={args.seconds:g}",
        f"  setup succeeded: {bound}/{args.households}",
        f"  injector: requests={injector['requests']} "
        f"dropped={injector['dropped']} delayed={injector['delayed']} "
        f"timeouts={injector['timeouts']} duplicates={injector['duplicates']}",
        f"  cloud restarts: {summary['restarts']} "
        f"(journal entries replayed: {summary['restart_entries_applied']})",
        f"  binding liveness: bound {liveness['bound']}/{liveness['households']} "
        f"({liveness['bound_fraction']:.0%})  online {liveness['online']}/"
        f"{liveness['households']} ({liveness['online_fraction']:.0%})",
    ]
    resilience = summary["resilience"]
    if resilience:
        lines.append(
            f"  resilience: attempts={resilience.get('attempts', 0):g} "
            f"retries={resilience.get('retries', 0):g} "
            f"giveups={resilience.get('giveups', 0):g} "
            f"short_circuits={resilience.get('short_circuits', 0):g} "
            f"modelled backoff={resilience.get('backoff_seconds', 0.0):.1f}s"
        )
    return "\n".join(lines)


def _cmd_detect(args: argparse.Namespace) -> str:
    import json

    from repro.obs.detect.harness import (
        ATTACK_CAMPAIGNS,
        detection_matrix,
        render_detection,
        run_detection,
    )
    from repro.vendors import vendor

    chaos = None
    if args.chaos is not None:
        from repro.chaos import ChaosSpec

        chaos = ChaosSpec(
            plan=args.chaos,
            intensity=args.intensity,
            resilience=not args.no_resilience,
        )
    attacks = (
        tuple(sorted(ATTACK_CAMPAIGNS)) if args.attack == "all" else (args.attack,)
    )
    design = vendor(args.vendor)
    runs = run_detection(
        design,
        attacks=attacks,
        households=args.households,
        max_probes=args.probes,
        workers=args.workers,
        seed=args.seed,
        chaos=chaos,
    )
    if args.format == "json":
        return json.dumps(detection_matrix(runs), indent=2, sort_keys=True)
    return render_detection(design, runs, chaos=chaos)


def _cmd_designs(args: argparse.Namespace) -> str:
    import json

    from repro.cloud.pdp import PolicySpec
    from repro.secure import SECURE_BASELINES
    from repro.vendors import STUDIED_VENDORS

    catalog = list(STUDIED_VENDORS) + list(SECURE_BASELINES)

    if args.action == "list":
        rows = []
        for design in catalog:
            spec = PolicySpec.from_design(design)
            rows.append({
                "name": design.name,
                "kind": ("baseline" if design in tuple(SECURE_BASELINES)
                         else "vendor"),
                "rules": sum(len(refs) for refs in spec.actions.values()),
                "digest": spec.digest()[:12],
            })
        if args.format == "json":
            return json.dumps(rows, indent=2, sort_keys=True)
        width = max(len(row["name"]) for row in rows)
        lines = [f"{'design':<{width}}  kind      rules  spec digest"]
        lines.extend(
            f"{row['name']:<{width}}  {row['kind']:<8}  {row['rules']:>5}  "
            f"{row['digest']}"
            for row in rows
        )
        return "\n".join(lines)

    if args.action == "describe":
        matches = [d for d in catalog if d.name == args.name]
        if not matches:
            from repro.core.errors import ConfigurationError

            known = ", ".join(d.name for d in catalog)
            raise ConfigurationError(
                f"unknown design {args.name!r} (known: {known})"
            )
        spec = PolicySpec.from_design(matches[0])
        if args.format == "json":
            return json.dumps(spec.to_data(), indent=2, sort_keys=True)
        lines = [f"policy spec of {spec.name} (digest {spec.digest()[:12]}):"]
        for action, refs in spec.to_data()["actions"].items():
            lines.append(f"  {action}:")
            for index, ref in enumerate(refs, start=1):
                from repro.cloud.pdp.spec import RuleRef

                lines.append(
                    f"    {index}. {RuleRef(ref['rule'], ref.get('params')).render()}"
                )
        return "\n".join(lines)

    if args.action == "enumerate":
        from repro.analysis.policy_space import enumerate_policy_space

        digests = set()
        count = 0
        for point in enumerate_policy_space(limit=args.limit):
            count += 1
            digests.add(point.rules_digest)
        if args.format == "json":
            return json.dumps(
                {"policies": count, "distinct_rule_sets": len(digests)},
                indent=2, sort_keys=True,
            )
        return (
            f"enumerated {count} consistent policies "
            f"({len(digests)} distinct rule sets)"
        )

    # action == "diff": predictor vs Figure-2 model checker, per policy.
    from repro.analysis.policy_space import differential_check

    report = differential_check(limit=args.limit)
    if args.format == "json":
        return json.dumps(report.to_data(), indent=2, sort_keys=True)
    return report.render()


def _cmd_snapshot(args: argparse.Namespace) -> str:
    import json

    from repro.cloud.service import CloudService
    from repro.cloud.state import snapshot_json, snapshot_store_counts
    from repro.fleet import FleetDeployment
    from repro.net.network import Network
    from repro.sim.environment import Environment
    from repro.vendors import vendor

    if args.action == "save":
        fleet = FleetDeployment(
            vendor(args.vendor), households=args.households, seed=args.seed
        )
        bound = fleet.setup_all()
        fleet.run(args.run_seconds)
        document = snapshot_json(fleet.cloud)
        with open(args.path, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        return (
            f"saved {fleet.design.name} snapshot to {args.path} "
            f"({bound}/{args.households} household(s) bound, "
            f"{len(document)} bytes)"
        )

    with open(args.path, "r", encoding="utf-8") as handle:
        data = json.load(handle)

    if args.action == "inspect":
        counts = snapshot_store_counts(data)
        lines = [
            f"snapshot {args.path}:",
            f"  version: {data.get('version')}",
            f"  design:  {data.get('design')}",
            f"  time:    t={data.get('time', 0.0):.3f}",
            "  stores:",
        ]
        lines.extend(
            f"    {name:<10} {count} record(s)" for name, count in counts.items()
        )
        return "\n".join(lines)

    # action == "load": restore into a fresh world and round-trip check.
    design = vendor(data.get("design"))
    env = Environment(seed=args.seed)
    network = Network(env)
    cloud = CloudService.restore(env, network, design, data)
    resaved = json.loads(snapshot_json(cloud))
    round_trip = resaved["stores"] == data["stores"]
    lines = [
        f"restored {design.name} snapshot from {args.path}:",
    ]
    lines.extend(
        f"  {name:<10} {store.record_count()} record(s)"
        for name, store in cloud.state_stores().items()
        if store.durable
    )
    lines.append(f"  shadows rebuilt: {cloud.shadows.record_count()}")
    lines.append(
        "  round-trip: "
        + ("stores byte-identical" if round_trip else "MISMATCH after re-save")
    )
    return "\n".join(lines)


def _cmd_fuzz(args: argparse.Namespace) -> str:
    import json
    import time

    from repro.core.errors import ConfigurationError
    from repro.fuzz import (
        all_designs,
        design_named,
        load_corpus,
        replay_corpus,
        save_witness,
    )

    if args.action == "run":
        from repro.fuzz import fuzz_design, fuzz_differential

        designs = (
            [design_named(name) for name in args.designs]
            if args.designs else all_designs()
        )
        deadline = (
            time.monotonic() + args.budget if args.budget is not None else None
        )
        found_by = f"repro fuzz run --seed {args.seed}"
        witnesses = []
        for design in designs:
            if deadline is not None and time.monotonic() >= deadline:
                break
            witnesses.extend(fuzz_design(
                design, seed=args.seed, max_examples=args.max_examples,
                deadline=deadline, found_by=found_by,
            ))
        witnesses.extend(fuzz_differential(
            designs, seed=args.seed, deadline=deadline, found_by=found_by,
        ))
        lines = [
            f"fuzzed {len(designs)} designs (seed {args.seed}): "
            f"{len(witnesses)} minimal witnesses"
        ]
        for witness in witnesses:
            lines.append(
                f"  {witness.name:<52} {' -> '.join(witness.sequence)}"
            )
            if args.out:
                path = save_witness(witness, args.out)
                lines.append(f"    saved {path}")
        if len(witnesses) < args.min_findings:
            raise ConfigurationError(
                f"found {len(witnesses)} witnesses, "
                f"expected at least {args.min_findings}"
            )
        return "\n".join(lines)

    if args.action == "replay":
        results = replay_corpus(args.corpus, seed=args.replay_seed)
        lines = [result.render() for result in results]
        failed = [result for result in results if not result.ok]
        lines.append(
            f"{len(results) - len(failed)}/{len(results)} witnesses replayed ok"
        )
        if failed:
            raise ConfigurationError(
                "\n".join(lines) + "\ncorpus replay failed: "
                + ", ".join(result.witness for result in failed)
            )
        return "\n".join(lines)

    if args.action == "score":
        from repro.analysis.fuzz_generalization import (
            render,
            score_corpus,
            write_bench,
        )

        result = score_corpus(args.corpus)
        if args.out:
            write_bench(result, args.out)
        if args.format == "json":
            return json.dumps(result, indent=2, sort_keys=True)
        text = render(result)
        if args.out:
            text += f"\nwrote {args.out}"
        return text

    # list
    witnesses = load_corpus(args.corpus)
    lines = [f"{len(witnesses)} witnesses in {args.corpus}:"]
    for witness in witnesses:
        lines.append(
            f"  {witness.name:<52} [{witness.kind}] "
            f"{'+'.join(witness.designs)}: {' -> '.join(witness.sequence)}"
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (one subcommand per artifact)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the artifacts of 'Your IoTs Are (Not) Mine' (DSN 2019)",
    )
    parser.add_argument("--seed", type=int, default=3, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: notation").set_defaults(run=_cmd_table1)
    sub.add_parser("table2", help="Table II: attack taxonomy").set_defaults(run=_cmd_table2)
    table3 = sub.add_parser("table3", help="Table III: ten-vendor evaluation")
    table3.add_argument("--format", choices=["text", "json", "csv", "markdown"],
                        default="text")
    table3.set_defaults(run=_cmd_table3)

    fig1 = sub.add_parser("fig1", help="Figure 1: binding life cycle trace")
    fig1.add_argument("--vendor", default="Belkin")
    fig1.set_defaults(run=_cmd_fig1)
    sub.add_parser("fig2", help="Figure 2: shadow state machine").set_defaults(run=_cmd_fig2)
    sub.add_parser("fig3", help="Figure 3: device auth designs").set_defaults(run=_cmd_fig3)
    sub.add_parser("fig4", help="Figure 4: binding creation designs").set_defaults(run=_cmd_fig4)

    attack = sub.add_parser("attack", help="run one attack against one vendor")
    attack.add_argument("vendor")
    attack.add_argument("attack_id", choices=[
        "A1", "A2", "A3-1", "A3-2", "A3-3", "A3-4", "A4-1", "A4-2", "A4-3",
    ])
    attack.set_defaults(run=_cmd_attack)

    audit = sub.add_parser("audit", help="Section VII design lint for one vendor")
    audit.add_argument("vendor")
    audit.set_defaults(run=_cmd_audit)

    entropy = sub.add_parser("entropy", help="device-ID enumerability table")
    entropy.add_argument("--rate", type=float, default=3000.0,
                         help="attacker requests per second")
    entropy.set_defaults(run=_cmd_entropy)

    witness = sub.add_parser("witness", help="model-checked attack witnesses")
    witness.add_argument("vendor")
    witness.set_defaults(run=_cmd_witness)

    fix = sub.add_parser("fix", help="minimal redesign that closes every attack")
    fix.add_argument("vendor")
    fix.set_defaults(run=_cmd_fix)

    obs = sub.add_parser(
        "obs", help="run a traced fleet campaign / attack battery and report"
    )
    obs.add_argument("--vendor", default="OZWI")
    obs.add_argument("--mode", choices=["binding-dos", "mass-unbind", "attacks"],
                     default="binding-dos",
                     help="what to execute under the tracer")
    obs.add_argument("--households", type=int, default=10)
    obs.add_argument("--probes", type=int, default=64,
                     help="ID-space probes for campaign runs")
    obs.add_argument("--format", choices=["text", "json"], default="text")
    obs.add_argument("--no-messages", action="store_true",
                     help="skip per-request exchange spans (aggregates only)")
    obs.set_defaults(run=_cmd_obs)

    slo = sub.add_parser(
        "slo",
        help="score one fleet run against a latency/availability SLO "
             "(RED series, burn rates, chaos breach verdicts)",
    )
    slo.add_argument("--vendor", default="OZWI")
    slo.add_argument("--households", type=int, default=10)
    slo.add_argument("--seconds", type=float, default=120.0,
                     help="virtual seconds of steady-state traffic to score")
    slo.add_argument("--chaos", default=None, metavar="PLAN",
                     help="score under a named fault plan "
                          "(see 'repro chaos list')")
    slo.add_argument("--intensity", type=float, default=1.0,
                     help="fault-plan intensity scale (0 = inert)")
    slo.add_argument("--no-resilience", action="store_true",
                     help="leave devices/apps without retry/backoff "
                          "clients under chaos")
    slo.add_argument("--objective", type=float, default=0.999,
                     help="availability objective (fraction served)")
    slo.add_argument("--latency-us", type=float, default=1000.0,
                     help="per-request wall-latency compliance threshold")
    slo.add_argument("--format", choices=["text", "json"], default="text")
    slo.set_defaults(run=_cmd_slo)

    campaign = sub.add_parser(
        "campaign", help="sharded parallel fleet campaign across worker processes"
    )
    campaign.add_argument("--vendor", default="OZWI")
    campaign.add_argument("--mode",
                          choices=["binding-dos", "mass-unbind",
                                   "shadow-probe", "mass-rebind"],
                          default="binding-dos")
    campaign.add_argument("--households", type=int, default=100)
    campaign.add_argument("--probes", type=int, default=256,
                          help="fleet-wide ID-space probe budget")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = in-process serial path)")
    campaign.add_argument("--build", choices=["replay", "clone"], default="replay",
                          help="household construction: replay Figure 1 per "
                               "household, or clone one bound template "
                               "(mass-unbind only)")
    campaign.add_argument("--max-spans", type=int, default=None,
                          help="cap exported spans in JSON output")
    campaign.add_argument("--format", choices=["text", "json"], default="text")
    campaign.add_argument("--chaos", default=None, metavar="PLAN",
                          help="run under a named fault plan "
                               "(see 'repro chaos list')")
    campaign.add_argument("--intensity", type=float, default=1.0,
                          help="fault-plan intensity scale (0 = inert)")
    campaign.add_argument("--no-resilience", action="store_true",
                          help="leave devices/apps without retry/backoff "
                               "clients under chaos")
    campaign.add_argument("--detect", action="store_true",
                          help="attach the read-only detection pipeline "
                               "and score it against ground truth")
    campaign.add_argument("--no-warm-start", action="store_true",
                          help="with --repeat: rebuild every repeat's worlds "
                               "cold instead of restoring cached world images")
    campaign.add_argument("--repeat", type=int, default=1,
                          help="run the campaign N times; with --workers > 1 "
                               "the repeats share one persistent worker pool "
                               "(heartbeats, crash-respawn, warm-started "
                               "worlds), with one worker an in-process image "
                               "cache; reports the last run")
    campaign.set_defaults(run=_cmd_campaign)

    chaos = sub.add_parser(
        "chaos", help="fault-plan catalog and chaos-enabled fleet runs"
    )
    chaos.add_argument("action", choices=["list", "describe", "run"])
    chaos.add_argument("plan", nargs="?", default=None,
                       help="fault plan name (describe/run)")
    chaos.add_argument("--vendor", default="OZWI")
    chaos.add_argument("--households", type=int, default=10)
    chaos.add_argument("--seconds", type=float, default=120.0,
                       help="virtual seconds to run (run action)")
    chaos.add_argument("--intensity", type=float, default=1.0)
    chaos.add_argument("--no-resilience", action="store_true")
    chaos.add_argument("--format", choices=["text", "json"], default="text",
                       help="run action: emit the same dict the "
                            "benchmarks consume")
    chaos.set_defaults(run=_cmd_chaos)

    detect = sub.add_parser(
        "detect",
        help="score the cloud-side detectors against labelled attack campaigns",
    )
    detect.add_argument("--vendor", default="OZWI")
    detect.add_argument("--attack", choices=["A1", "A2", "A3", "A4", "all"],
                        default="all",
                        help="Table II attack class to evaluate")
    detect.add_argument("--households", type=int, default=12)
    detect.add_argument("--probes", type=int, default=32,
                        help="fleet-wide ID-space probe budget")
    detect.add_argument("--workers", type=int, default=1)
    detect.add_argument("--chaos", default=None, metavar="PLAN",
                        help="evaluate under a named fault plan "
                             "(false-positive rate under faults)")
    detect.add_argument("--intensity", type=float, default=1.0)
    detect.add_argument("--no-resilience", action="store_true")
    detect.add_argument("--format", choices=["text", "json"], default="text")
    detect.set_defaults(run=_cmd_detect)

    designs = sub.add_parser(
        "designs",
        help="declarative policy specs: catalog, rule lists, space diff",
    )
    designs.add_argument("action",
                         choices=["list", "describe", "enumerate", "diff"])
    designs.add_argument("name", nargs="?", default=None,
                         help="design name (describe)")
    designs.add_argument("--limit", type=int, default=None,
                         help="cap enumerated policies (enumerate/diff)")
    designs.add_argument("--format", choices=["text", "json"], default="text")
    designs.set_defaults(run=_cmd_designs)

    snapshot = sub.add_parser(
        "snapshot", help="save / inspect / load a cloud state snapshot (v2)"
    )
    snapshot.add_argument("action", choices=["save", "load", "inspect"])
    snapshot.add_argument("path", help="snapshot JSON file")
    snapshot.add_argument("--vendor", default="OZWI",
                          help="vendor design to build before saving")
    snapshot.add_argument("--households", type=int, default=3,
                          help="households to set up before saving")
    snapshot.add_argument("--run-seconds", type=float, default=12.0,
                          help="virtual seconds to run before saving")
    snapshot.set_defaults(run=_cmd_snapshot)

    fuzz = sub.add_parser(
        "fuzz",
        help="generative protocol fuzzing with model/differential/safety oracles",
    )
    fuzz_sub = fuzz.add_subparsers(dest="action", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="search all designs for minimal oracle counterexamples"
    )
    fuzz_run.add_argument("--budget", type=float, default=None,
                          help="wall-clock budget in seconds (safety net)")
    fuzz_run.add_argument("--designs", nargs="*", default=None,
                          help="restrict to these design names")
    fuzz_run.add_argument("--max-examples", type=int, default=150,
                          help="hypothesis examples per search round")
    fuzz_run.add_argument("--min-findings", type=int, default=0,
                          help="exit 2 unless at least this many witnesses")
    fuzz_run.add_argument("--out", default=None,
                          help="directory to save minimized witnesses into")
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-execute a witness corpus; exit 2 on any mismatch"
    )
    fuzz_replay.add_argument("corpus", nargs="?",
                             default="tests/fixtures/fuzz_corpus")
    fuzz_replay.add_argument("--replay-seed", type=int, default=None,
                             help="override the recorded world seed")
    fuzz_score = fuzz_sub.add_parser(
        "score", help="detector generalization over the witness corpus"
    )
    fuzz_score.add_argument("--corpus", default="tests/fixtures/fuzz_corpus")
    fuzz_score.add_argument("--out", default=None,
                            help="also write BENCH_fuzz.json here")
    fuzz_score.add_argument("--format", choices=["text", "json"],
                            default="text")
    fuzz_list = fuzz_sub.add_parser("list", help="list the witness corpus")
    fuzz_list.add_argument("corpus", nargs="?",
                           default="tests/fixtures/fuzz_corpus")
    fuzz.set_defaults(run=_cmd_fuzz)

    sub.add_parser("sweep", help="closed-form design-space sweep").set_defaults(run=_cmd_sweep)
    sub.add_parser("secure", help="attack the recommended designs").set_defaults(run=_cmd_secure)
    sub.add_parser("report", help="compile every artifact into one report").set_defaults(run=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.core.errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.run(args))
    except (KeyError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
