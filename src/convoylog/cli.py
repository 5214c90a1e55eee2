"""Command-line frontend.

Subcommands wire the library together around on-disk JSONL artifacts:

    simulate        scenario -> trajectories/proximity/ground-truth files
    ingest          merge proximity JSONL files into one validated log
    query-group     backward-scan group query against a proximity log
    eval-rules      evaluate a rule file for one device at one time
    convoy-baseline coordinate convoy discovery over trajectory JSONL
    compare         run both pipelines on a scenario and score them

Outputs are line-oriented key:value text or JSONL on stdout; diagnostics go
to stderr; exit status is 0 only on success, and a reader that closes stdout
early (`| head`) ends the run as one. Where a scenario path is
expected, the forms `builtin:fig4` and `builtin:corridor` name the built-in
scenarios. Re-running any command on identical inputs (including the seed)
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConvoylogError, LogFormatError, finite
from .groups import GroupQueryParams, discover_group, in_group
from .jsonio import read_text, write_jsonl
from .proximity import (
    Fingerprint,
    ProximityLog,
    canonical_id,
    read_log_jsonl,
    write_log_jsonl,
)
from .rules import EngineConfig, EvalContext, eval_rules, parse_rules
from .simulation import (
    MobilityScenario,
    corridor_scenario,
    fig4_scenario,
    read_scenario,
    simulate,
    write_ground_truth_jsonl,
)
from .trajectories import (
    Convoy,
    ConvoyParams,
    discover_convoys,
    read_trajectories_jsonl,
    write_trajectories_jsonl,
)

_BUILTIN_SCENARIOS = {"fig4": fig4_scenario, "corridor": corridor_scenario}


def _load_scenario(ref: str, seed: int | None) -> MobilityScenario:
    if ref.startswith("builtin:"):
        name = ref[len("builtin:") :]
        try:
            scenario = _BUILTIN_SCENARIOS[name]()
        except KeyError:
            raise ConvoylogError(
                f"unknown builtin scenario {name!r}; have: {', '.join(sorted(_BUILTIN_SCENARIOS))}"
            ) from None
    else:
        scenario = read_scenario(ref)
    if seed is not None:
        scenario = replace(scenario, radio=replace(scenario.radio, seed=seed))
    return scenario


def _options(check, **values):
    """check(**values): a parameter object, or a checked value; a value it
    rejects becomes a ConvoylogError, so the command reports it on one line."""
    try:
        return check(**values)
    except ValueError as exc:
        raise ConvoylogError(str(exc)) from None


def _device(raw: str) -> str:
    """--device in canonical form; a blank id is a ConvoylogError."""
    try:
        return canonical_id(raw)
    except ValueError as exc:
        raise ConvoylogError(f"--device: {exc}") from None


def _resolve_t0(log: ProximityLog, device: str, raw: str) -> float:
    if raw == "latest":
        last = log.track(device).last()
        if last is None:
            raise ConvoylogError(f"device {device} has no samples")
        return last.t
    try:
        t0 = float(raw)
    except ValueError:
        raise ConvoylogError(f"t0 must be a number or 'latest', got {raw!r}") from None
    return _options(finite, value=t0, name="t0")


def _resolve_snapshot(log: ProximityLog, device: str, t0: float, delta: float) -> Fingerprint:
    fp = log.track(device).nearest_in_window(t0, delta)
    if fp is None:
        raise ConvoylogError(f"device {device} has no sample within {delta} s of t0={t0}")
    return fp


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    result = simulate(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trajectories_path = out / "trajectories.jsonl"
    proximity_path = out / "proximity.jsonl"
    truth_path = out / "ground_truth.jsonl"
    write_trajectories_jsonl(result.trajectories, trajectories_path)
    write_log_jsonl(result.proximity, proximity_path)
    write_ground_truth_jsonl(result.ground_truth, truth_path)
    samples = sum(len(result.proximity.track(d)) for d in result.proximity.devices)
    print(f"scenario: {scenario.name}")
    print(f"devices: {len(result.ground_truth)}")
    print(f"samples: {samples}")
    print(f"trajectories: {trajectories_path}")
    print(f"proximity: {proximity_path}")
    print(f"ground_truth: {truth_path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    merged: dict[str, list[Fingerprint]] = {}
    for path in args.inputs:
        log = read_log_jsonl(path)
        for device in log.devices:
            merged.setdefault(device, []).extend(log.track(device).samples)
    out = ProximityLog()
    for device in sorted(merged):
        samples = sorted(merged[device], key=lambda fp: fp.t)
        for a, b in zip(samples, samples[1:]):
            if a.t == b.t:
                raise LogFormatError(
                    f"device {device}: conflicting samples at t={a.t} across inputs"
                )
        for fp in samples:
            out.ingest(device, fp)
    write_log_jsonl(out, args.out)
    total = sum(len(out.track(d)) for d in out.devices)
    print(f"devices: {len(out)}")
    print(f"samples: {total}")
    print(f"log: {args.out}")
    return 0


def cmd_query_group(args: argparse.Namespace) -> int:
    log = read_log_jsonl(args.log)
    params = _options(
        GroupQueryParams,
        delta=args.delta,
        omega=args.omega,
        t_max=args.t_max,
        n=args.n,
        min_steps=args.min_steps,
    )
    device = _device(args.device)
    t0 = _resolve_t0(log, device, args.t0)
    e0 = _resolve_snapshot(log, device, t0, params.delta)
    result = discover_group(log, device, e0.t, e0.env, params)
    print(f"device: {device}")
    print(f"t0: {t0}")
    print(f"snapshot_t: {e0.t}")
    print(f"members: {', '.join(sorted(result.members))}")
    print(f"group_size: {len(result.members) + 1}")
    print(f"steps_processed: {result.steps_processed}")
    print(f"oldest_step_time: {result.oldest_step_time}")
    print(f"n: {params.n}")
    print(f"in_group_of: {'true' if in_group(len(result.members), params.n) else 'false'}")
    return 0


def cmd_eval_rules(args: argparse.Namespace) -> int:
    log = read_log_jsonl(args.log)
    rules = parse_rules(read_text(args.rules))
    device = _device(args.device)
    t0 = _resolve_t0(log, device, args.t0)
    config = _options(EngineConfig, delta=args.delta, omega=args.omega, min_steps=args.min_steps)
    current = _resolve_snapshot(log, device, t0, config.delta)
    ctx = _options(
        EvalContext,
        device=device,
        now=current.t,
        current=current.env,
        log=log,
        session_gap=args.session_gap,
        config=config,
    )
    write_jsonl(sys.stdout, ({"rule": rule_id, "content": content} for rule_id, content in eval_rules(rules, ctx)))
    return 0


def cmd_convoy_baseline(args: argparse.Namespace) -> int:
    db = read_trajectories_jsonl(args.trajectories)
    params = _options(ConvoyParams, e=args.e, m=args.m, k=args.k)
    write_jsonl(
        sys.stdout,
        ({"members": sorted(c.members), "t_start": c.t_start, "t_end": c.t_end} for c in discover_convoys(db, params)),
    )
    return 0


def _group_report(
    scenario: MobilityScenario,
    result,
    group_params: GroupQueryParams,
    convoys: list[Convoy],
) -> list[str]:
    lines: list[str] = []
    planted = {g.group_id: set(g.members) for g in scenario.groups}
    divergences: list[str] = []
    for group in scenario.groups:
        members = planted[group.group_id]
        others = {
            gid: devs for gid, devs in planted.items() if gid != group.group_id
        }
        recalls: list[float] = []
        precisions: list[float] = []
        prox_merged: set[str] = set()
        for device in sorted(members):
            track = result.proximity.track(device)
            last = track.last()
            if last is None or len(last.env) == 0:
                recalls.append(0.0)
                precisions.append(0.0)
                continue
            found = discover_group(
                result.proximity, device, last.t, last.env, group_params
            ).members
            true_companions = members - {device}
            hit = len(found & true_companions)
            recalls.append(hit / len(true_companions) if true_companions else 1.0)
            precisions.append(hit / len(found) if found else 1.0)
            for gid, devs in others.items():
                if found & devs:
                    prox_merged.add(gid)
        best: Convoy | None = None
        best_hit = 0
        for convoy in convoys:
            hit = len(convoy.members & members)
            if hit > best_hit:
                best, best_hit = convoy, hit
        base_recall = best_hit / len(members) if members else 1.0
        base_precision = best_hit / len(best.members) if best else 0.0
        base_merged = (
            {gid for gid, devs in others.items() if best.members & devs} if best else set()
        )
        lines.append(f"group: {group.group_id}")
        lines.append(f"group_members: {', '.join(sorted(members))}")
        lines.append(f"proximity_recall: {sum(recalls) / len(recalls):.3f}")
        lines.append(f"proximity_precision: {sum(precisions) / len(precisions):.3f}")
        lines.append(f"proximity_merged_with: {', '.join(sorted(prox_merged)) or '-'}")
        lines.append(f"baseline_recall: {base_recall:.3f}")
        lines.append(f"baseline_precision: {base_precision:.3f}")
        lines.append(f"baseline_merged_with: {', '.join(sorted(base_merged)) or '-'}")
        if prox_merged and not base_merged:
            divergences.append(
                "divergence: proximity merges {} with {}; trajectory baseline separates them".format(
                    group.group_id, ", ".join(sorted(prox_merged))
                )
            )
    lines.extend(divergences)
    return lines


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    result = simulate(scenario)
    delta = args.delta if args.delta is not None else scenario.sample_interval / 4.0
    t_max = args.t_max if args.t_max is not None else scenario.duration
    group_params = _options(
        GroupQueryParams,
        delta=delta,
        omega=args.omega,
        t_max=t_max,
        n=args.n,
        min_steps=args.min_steps,
    )
    convoy_params = _options(ConvoyParams, e=args.e, m=args.m, k=args.k)
    convoys = discover_convoys(result.trajectories, convoy_params)
    span = result.trajectories.time_range()
    grid_steps = span[1] - span[0] + 1 if span else 0
    print(f"scenario: {scenario.name}")
    print(f"seed: {scenario.radio.seed}")
    print(f"devices: {len(result.ground_truth)}")
    print(f"grid_steps: {grid_steps}")
    print(f"planted_groups: {len(scenario.groups)}")
    print(f"baseline_convoys: {len(convoys)}")
    for line in _group_report(scenario, result, group_params, convoys):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convoylog",
        description="Co-travel group discovery over Wi-Fi proximity logs.",
        allow_abbrev=False,  # options are spelled in full, as _parse assumes
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def group_flags(p: argparse.ArgumentParser, delta_default: float | None = 2.0):
        p.add_argument(
            "--delta",
            type=float,
            default=delta_default,
            help="time alignment tolerance in seconds"
            + (" (default: %(default)s)" if delta_default is not None else " (default: sample_interval/4)"),
        )
        p.add_argument(
            "--omega",
            type=float,
            default=3.0,
            help="RSSI comparability threshold in dB (default: %(default)s)",
        )
        p.add_argument(
            "--min-steps",
            type=int,
            default=2,
            help="minimum processed history samples for a non-empty answer (default: %(default)s)",
        )

    def convoy_flags(p: argparse.ArgumentParser):
        p.add_argument("--e", type=float, default=5.0, help="distance threshold in meters (default: %(default)s)")
        p.add_argument("--m", type=int, default=2, help="minimum objects per dense group (default: %(default)s)")
        p.add_argument("--k", type=int, default=2, help="minimum lifetime in grid steps (default: %(default)s)")

    p = add_parser("simulate", help="run a scenario and write its three JSONL artifacts")
    p.add_argument("scenario", help="scenario JSON path, or builtin:fig4 / builtin:corridor")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = add_parser("ingest", help="merge proximity JSONL files into one validated log")
    p.add_argument("inputs", nargs="+", help="input proximity JSONL files")
    p.add_argument("--out", required=True, help="merged log path")
    p.set_defaults(func=cmd_ingest)

    p = add_parser("query-group", help="who has been co-traveling with a device")
    p.add_argument("--log", required=True, help="proximity JSONL path")
    p.add_argument("--device", required=True)
    p.add_argument("--t0", default="latest", help="query time in seconds, or 'latest' (default)")
    p.add_argument("--n", type=int, default=2, help="group size threshold, device included (default: %(default)s)")
    group_flags(p)
    p.add_argument(
        "--t-max", type=float, default=600.0, help="lookback horizon in seconds (default: %(default)s)"
    )
    p.set_defaults(func=cmd_query_group)

    p = add_parser("eval-rules", help="evaluate a rule file for one device")
    p.add_argument("--log", required=True, help="proximity JSONL path")
    p.add_argument("--rules", required=True, help="rule file path")
    p.add_argument("--device", required=True)
    p.add_argument("--t0", default="latest", help="evaluation time in seconds, or 'latest' (default)")
    p.add_argument(
        "--session-gap",
        type=float,
        default=1800.0,
        help="visit boundary gap in seconds (default: %(default)s)",
    )
    group_flags(p)
    p.set_defaults(func=cmd_eval_rules)

    p = add_parser("convoy-baseline", help="coordinate convoy discovery over trajectory JSONL")
    p.add_argument("--trajectories", required=True, help="trajectory JSONL path")
    convoy_flags(p)
    p.set_defaults(func=cmd_convoy_baseline)

    p = add_parser("compare", help="simulate, run both pipelines, report per-group scores")
    p.add_argument("scenario", help="scenario JSON path, or builtin:fig4 / builtin:corridor")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--n", type=int, default=2, help="group size threshold (default: %(default)s)")
    group_flags(p, delta_default=None)
    p.add_argument(
        "--t-max", type=float, default=None, help="lookback horizon in seconds (default: scenario duration)"
    )
    convoy_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed, "--opt VALUE" read as "--opt=VALUE" unless --opt is a flag or
    VALUE starts with "--" (so argparse takes no -inf for an option, and ends an
    unknown --opt alike either way); an option handed no text ([] for
    "--opt=--") is a ConvoylogError."""
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for p in commands.values() for a in p._actions if a.nargs == 0 for s in a.option_strings}
    joined: list[str] = []
    for arg in argv:
        last = joined[-1] if joined else ""
        waiting = last.startswith("--") and "=" not in last and last not in flags
        if waiting and "--" not in joined and not arg.startswith("--"):
            arg = joined.pop() + "=" + arg
        joined.append(arg)
    args = parser.parse_args(joined)
    for dest, value in vars(args).items():
        if value == []:  # every option's dest is its name
            raise ConvoylogError(f"--{dest.replace('_', '-')}: expected a value")
    return args


def main(argv: list[str] | None = None) -> int:
    # Text standard output cannot encode (a path that is not UTF-8, a lone
    # surrogate in an id) is written escaped, as Python writes standard error.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        status = args.func(args)
        # Flushed here, so that a reader gone before the last write is met
        # below and not at interpreter exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed standard output early (`| head`): a normal end.
        # Standard output then points at devnull, so the interpreter's own
        # flush at exit finds nothing to fail on (the Python documentation's
        # recipe for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ConvoylogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
