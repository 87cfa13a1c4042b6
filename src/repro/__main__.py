"""Command-line entry point: ``python -m repro [COMMAND] [options]``.

With no command it runs the self-check: it builds the paper's three-site
scenario end to end and verifies the core behavioural battery — Table 2
authorizations, Table 4 view resolution, VIG generation of the Table 5
view, QoS adaptation planning, and a live revocation — printing one
PASS/FAIL line per check.  Exit status is non-zero when any check fails,
so the command doubles as a smoke test for packaging and new
environments.

Every other behaviour is a row of :data:`COMMANDS`: its options, the
callable that builds its report, the predicate that says whether the
report passed, and the text renderer.  The report-specific callables live
in the module that builds the report; this module knows only the table
and the one runner (:func:`run_command`) that gives every command the
same contract:

* ``--json`` prints the full report as sorted, indented JSON — byte-
  identical for identical seeds; ``--out PATH`` also writes it to a file;
* exit 0 when the report passed, 1 when a gate failed or the run raised,
  2 (with the generated usage on stderr) when the arguments are bad.

``python -m repro COMMAND --help`` describes one command; ``python -m
repro verify`` replays every pinned scenario CI gates on
(:mod:`repro.verify`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from . import obs, verify
from .check import shrink
from .check.executor import ENGINE_MODES
from .drbac.cache import CachedAuthorizer
from .drbac.model import Role
from .errors import AuthorizationError
from .faults.runner import ChaosReport, ChaosRunner
from .load import churn, generator, overload, recovery
from .mail import MailClient, build_scenario
from .obs import dist
from .psf import EdgeRequirement, ServiceRequest


def run_selfcheck(*, key_bits: int = 512, verbose: bool = True) -> int:
    failures = 0

    def check(label: str, condition: bool) -> None:
        nonlocal failures
        status = "PASS" if condition else "FAIL"
        if not condition:
            failures += 1
        if verbose:
            print(f"  [{status}] {label}")

    t0 = time.perf_counter()
    scenario = build_scenario(key_bits=key_bits)
    engine = scenario.engine
    if verbose:
        print(f"scenario built in {time.perf_counter() - t0:.2f}s")
        print("\n-- Table 2 authorizations --")

    check("17 credentials issued", len(scenario.credentials) == 17)
    check("Alice is Comp.NY.Member", engine.find_proof("Alice", "Comp.NY.Member") is not None)
    bob = engine.find_proof("Bob", "Comp.NY.Member")
    check("Bob chains (11)+(2)", bob is not None and len(bob.chain) == 2)
    charlie = engine.find_proof("Charlie", "Comp.NY.Partner")
    check(
        "Charlie chains (15)+(12) with (3)",
        charlie is not None and len(charlie.support) == 1,
    )
    check(
        "sd-pc1 is a secure Mail.Node",
        engine.is_a("sd-pc1", "Mail.Node with Secure={true} Trust=(0,5)") is not None,
    )
    check(
        "se-pc1 is NOT a secure Mail.Node",
        engine.is_a("se-pc1", "Mail.Node with Secure={true}") is None,
    )
    check(
        "CPU budgets 100/80/40",
        (
            scenario.ny_guard.component_cpu_budget(Role("Mail", "MailClient")),
            scenario.sd_guard.component_cpu_budget(Role("Mail", "Encryptor")),
            scenario.se_guard.component_cpu_budget(Role("Mail", "Decryptor")),
        )
        == (100, 80, 40),
    )

    if verbose:
        print("\n-- Table 4 / Table 5: views --")
    policy = scenario.psf.registrar.policy("MailClient")
    check(
        "Charlie resolves to the partner view",
        policy.resolve("Charlie", engine).view_name == "ViewMailClient_Partner",
    )
    check(
        "strangers get the anonymous view",
        policy.resolve("Nobody", engine).view_name == "ViewMailClient_Anonymous",
    )
    spec = scenario.psf.registrar.view_spec("ViewMailClient_Partner")
    view_cls = scenario.psf.vig.generate(spec, MailClient)
    check(
        "VIG generated the Table 5 layout",
        getattr(view_cls.getPhone, "__forwarder__", "") == "_swb_AddressI"
        and getattr(view_cls.sendMessage, "__coherence_wrapped__", False),
    )

    if verbose:
        print("\n-- QoS adaptation --")
    planner = scenario.psf.planner()
    cache_plan = planner.plan(
        ServiceRequest(
            client="Bob", client_node="sd-pc1", interface="MailI",
            qos=EdgeRequirement(min_bandwidth_bps=50e6),
        )
    )
    check("low bandwidth -> cache near client", cache_plan.deployed_names() == ["ViewMailServer"])
    pair_plan = scenario.psf.planner(use_views=False).plan(
        ServiceRequest(
            client="Bob", client_node="sd-pc1", interface="MailI",
            qos=EdgeRequirement(privacy=True, channel="rmi"),
        )
    )
    check(
        "insecure bulk link -> encryptor/decryptor pair",
        sorted(pair_plan.deployed_names()) == ["Decryptor", "Encryptor"],
    )

    if verbose:
        print("\n-- continuous authorization --")
    result = engine.authorize("Charlie", "Comp.NY.Partner")
    engine.revoke(scenario.credentials[12])
    check("revocation invalidates the live proof", not result.valid)

    if verbose:
        print(f"\n{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return failures


def exercise_scenario(*, key_bits: int = 512):
    """Drive the mail scenario across every instrumented subsystem.

    Used by ``repro stats`` and the observability tests: after this runs,
    the active registry holds non-zero proof-search, cache, channel,
    planning, deployment, and coherence metrics.
    """
    scenario = build_scenario(key_bits=key_bits)
    engine = scenario.engine

    # Proof search, both directions, plus a failing search.
    engine.find_proof("Alice", "Comp.NY.Member")
    engine.find_proof("Bob", "Comp.NY.Member", direction="progression")
    engine.find_proof("Charlie", "Comp.NY.Partner")
    engine.find_proof("Nobody", "Comp.NY.Member")

    # Cached authorization: one miss, repeated hits.
    cache = CachedAuthorizer(engine)
    for _ in range(3):
        cache.authorize("Alice", "Comp.NY.Member")
    try:
        engine.authorize("Nobody", "Comp.NY.Member")
    except AuthorizationError:
        pass

    # Plan + deploy #1: privacy over the insecure WAN forces a Switchboard
    # channel to the existing server; traffic exercises RPC latency.
    plan = scenario.psf.planner().plan(
        ServiceRequest(
            client="Bob",
            client_node="sd-pc1",
            interface="MailI",
            qos=EdgeRequirement(privacy=True),
        )
    )
    deployment = scenario.psf.deployer.deploy(plan)
    access = deployment.client_access()
    access.sendMail(
        {"sender": "Bob", "recipient": "Alice", "subject": "obs", "body": "stats"}
    )
    access.fetchMail("Alice")

    # Plan + deploy #2: a bandwidth demand the WAN cannot carry pulls a
    # ViewMailServer cache next to the client — VIG instantiation plus
    # image-coherence traffic on every call through the view.
    cache_plan = scenario.psf.planner().plan(
        ServiceRequest(
            client="Bob",
            client_node="sd-pc1",
            interface="MailI",
            qos=EdgeRequirement(min_bandwidth_bps=50e6),
        )
    )
    cache_deployment = scenario.psf.deployer.deploy(cache_plan)
    cached_access = cache_deployment.client_access()
    cached_access.fetchMail("Alice")
    return scenario, deployment


def _stats(args: argparse.Namespace) -> dict:
    obs.enable()
    obs.reset()
    exercise_scenario(key_bits=1024 if args.full_keys else 512)
    return obs.snapshot()


# -- the command table --------------------------------------------------------

Option = tuple[tuple[str, ...], dict[str, Any]]


def opt(*flags: str, **kwargs: Any) -> Option:
    """One ``argparse`` argument as data, in ``add_argument``'s own terms."""
    return flags, kwargs


def num(flag: str, default: float, metavar: str, what: str) -> Option:
    """A numeric option; its type is its default's type."""
    return opt(flag, type=type(default), default=default, metavar=metavar,
               help=f"{what} (default {default})")


FULL_KEYS = opt("--full-keys", action="store_true",
                help="use 1024-bit RSA keys instead of 512-bit")
SEED = num("--seed", 7, "N", "seed of the workload")
CHAOS = opt("--chaos", action="store_true",
            help="add faults (frame loss, crashes) and at-least-once retries")
MUTATE = opt("--mutate", metavar="NAME",
             help="break one oracle or recovery step on purpose: the run must fail")
# The runner owns these two; listing them is all a command does about them.
JSON = opt("--json", action="store_true",
           help="print the full report as JSON (byte-identical per seed)")
OUT = opt("--out", metavar="PATH", help="also write the JSON report to PATH")


@dataclass(frozen=True, slots=True)
class Command:
    """One ``python -m repro`` subcommand, declared rather than coded."""

    name: str
    help: str
    options: tuple[Option, ...]
    build: Callable[[argparse.Namespace], Any]
    """Runs the command and returns its report."""
    render: Callable[[Any, float], str]
    """The human-readable summary of (report, wall seconds the run took)."""
    ok: Callable[[Any], bool] = lambda report: True
    """Whether the report passed; ``False`` becomes exit status 1."""
    to_dict: Callable[[Any], dict] = lambda report: report
    """The JSON-ready form, for builders that return a report object."""
    json_is_product: bool = False
    """The JSON document is what the command is for (``trace``): without
    ``--out`` it goes to stdout in place of the summary."""


COMMANDS: tuple[Command, ...] = (
    Command(
        "stats",
        "Drive the mail scenario through every instrumented subsystem and"
        " dump the metrics registry.",
        (JSON, FULL_KEYS),
        build=_stats,
        render=lambda snap, _s: (
            f"repro stats: mail-scenario metrics snapshot\n{obs.format_snapshot(snap)}"
        ),
    ),
    Command(
        "chaos",
        "Seeded storm of link failures, partitions, node crashes, latency"
        " spikes, loss bursts and revocations against two adapted sessions;"
        " fails on any invariant violation.",
        (SEED, num("--duration", 5.0, "S", "virtual seconds of faults"),
         num("--intensity", 1.0, "X", "fault-rate multiplier"), JSON),
        build=lambda a: ChaosRunner(
            seed=a.seed, duration=a.duration, intensity=a.intensity
        ).run(),
        render=lambda report, _s: report.summary(),
        ok=lambda report: report.ok,
        to_dict=ChaosReport.to_dict,
    ),
    Command(
        "bench-load",
        "One seeded mixed view/RPC workload through a serial baseline and"
        " through RPC pipelining + frame batching; fails if the two"
        " transcripts diverge.",
        (SEED, num("--clients", 8, "C", "client nodes"),
         num("--requests", 40, "R", "requests per client"),
         num("--depth", 8, "D", "pipeline depth"), JSON, OUT),
        build=lambda a: generator.run_bench(
            seed=a.seed, clients=a.clients, requests=a.requests, depth=a.depth
        ),
        render=generator.summarize,
        ok=generator.passed,
    ),
    Command(
        "bench-overload",
        "One seeded open-loop workload at 1x/3x/10x of service capacity, with"
        " and without flow control; fails if an overload invariant does.",
        (SEED, num("--clients", 4, "C", "client nodes"),
         num("--duration", 1.5, "S", "virtual seconds of offered load"),
         JSON, OUT),
        build=lambda a: overload.run_bench_overload(
            seed=a.seed, clients=a.clients, duration_s=a.duration
        ),
        render=overload.summarize,
        ok=overload.passed,
    ),
    Command(
        "bench-churn",
        "One seeded publish/revoke/expiry/authorize schedule through the"
        " full-search and incremental engines, compared in work units; fails"
        " if the arms or the oracle disagree.",
        (SEED, num("--ops", 600, "K", "schedule length"), JSON, OUT),
        build=lambda a: churn.ChurnBench(seed=a.seed, ops=a.ops).run(),
        render=churn.summarize,
        ok=churn.passed,
    ),
    Command(
        "bench-recovery",
        "One seeded schedule with crash/restart cycles through a crashing"
        " durable node and a never-crashed control; fails if verdicts, oracle"
        " or durable digests disagree after any recovery.",
        (SEED, num("--ops", 360, "K", "schedule length"),
         num("--crashes", 4, "C", "crash/restart cycles"), MUTATE, JSON, OUT),
        build=lambda a: recovery.RecoveryBench(
            seed=a.seed, ops=a.ops, crashes=a.crashes, mutation=a.mutate
        ).run(),
        render=recovery.summarize,
        ok=recovery.passed,
    ),
    Command(
        "simtest",
        "Replay a seeded interleaving of delegations, revocations, view"
        " accesses and guarded RPC against the real stack while reference"
        " oracles predict every observable; on divergence shrink the trace to"
        " a minimal repro.",
        (SEED, num("--steps", 500, "S", "operations to generate"), CHAOS,
         opt("--engine", choices=ENGINE_MODES, default="incr",
             help="authorization engine arm (default incr)"),
         MUTATE,
         opt("--replay", metavar="FILE",
             help="re-run a saved trace instead of generating one"),
         opt("--out", default="simtest-repro.json", metavar="PATH",
             help="where a shrunk repro goes (default simtest-repro.json); the"
                  " flight-recorder dump lands beside it"),
         JSON),
        build=lambda a: shrink.simtest(
            seed=a.seed, steps=a.steps, chaos=a.chaos, engine=a.engine,
            mutation=a.mutate, replay=a.replay, out_path=a.out,
        ),
        render=lambda run, _s: run.summary(),
        ok=lambda run: run.ok,
        to_dict=shrink.SimtestRun.to_dict,
    ),
    Command(
        "trace",
        "Run the distributed-tracing scenario and export it as Chrome/Perfetto"
        " trace-event JSON: to stdout, or to --out with a one-line summary.",
        (SEED, CHAOS, OUT),
        build=lambda a: dist.run_trace(a.seed, chaos=a.chaos),
        render=dist.summarize,
        json_is_product=True,
    ),
    Command(
        "verify",
        "Replay the pinned scenarios CI gates on: smoke, report gates,"
        " determinism across fresh processes, snapshot-is-current and"
        " mutation drills.",
        (opt("names", nargs="*", type=verify.scenario, metavar="NAME",
             help="scenarios to check (default: all of them)"),
         opt("--list", action="store_true",
             help="print the scenario table instead of running it")),
        build=lambda a: verify.verify(a.names or verify.SCENARIOS, listing=a.list),
        render=verify.summarize,
        ok=verify.passed,
    ),
)


def run_command(command: Command, args: argparse.Namespace) -> int:
    """Execute one table row: build, write, print, and map to an exit status."""
    started = time.perf_counter()
    try:
        report = command.build(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(
            f"repro {command.name}: run failed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    elapsed_s = time.perf_counter() - started
    rendered = json.dumps(command.to_dict(report), indent=2, sort_keys=True)
    out_path = args.out if OUT in command.options else None
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if JSON in command.options:
        as_json = args.json
    else:
        as_json = command.json_is_product and out_path is None
    print(rendered if as_json else command.render(report, elapsed_s))
    return 0 if command.ok(report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction self-check (no COMMAND) and harnesses.",
        allow_abbrev=False,
    )
    parser.add_argument(*FULL_KEYS[0], **FULL_KEYS[1])
    parser.set_defaults(command=None)
    subparsers = parser.add_subparsers(metavar="COMMAND")
    for command in COMMANDS:
        sub = subparsers.add_parser(
            command.name, help=command.help, description=command.help,
            allow_abbrev=False,
        )
        for flags, kwargs in command.options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(command=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 + usage on bad argv, 0 after --help
        return exc.code
    if args.command is not None:
        return run_command(args.command, args)
    print("repro self-check: Using Views for Customizing Reusable Components (HPDC 2003)")
    return 1 if run_selfcheck(key_bits=1024 if args.full_keys else 512) else 0


if __name__ == "__main__":
    raise SystemExit(main())
