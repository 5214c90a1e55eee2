"""convoylog benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from its
src/ directory, never from an installed copy. Phases:

  1. setup    generate the inputs from the seed (repeated; setup_s is the median)
  2. ingest   parse, validate and ingest the proximity log
  3. query    discover_group at querying devices' own sample times
  4. rules    eval_rules with the fixed ruleset at devices' own sample times
  5. convoy   discover_convoys over the same walk's trajectories

live-replay runs 2-4 together: every arrival is decoded and ingested, then
a group query and a rule evaluation run for the arriving device against the
growing log. Rounds of the phases are interleaved until --seconds of timed
work are spent. Operations are timed with the thread's CPU clock, scaled to
a reference speed by calibration probes (calibrate.py), and the percentiles
are over every timed repetition (README.md says why). Every output is
checked against computations made apart from the program (checks.py). The last line of standard output is the result object;
with --trace 1 it carries the per-layer metrics of one traced round of every
phase instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import thread_time as clock, thread_time_ns as clock_ns

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
# Shares of --seconds per phase: a split of measuring time, not a traffic
# mix. Rules get the most: an evaluation runs three or four group scans.
BATCH_SHARES = {"ingest": 0.1, "query": 0.25, "rules": 0.5, "convoy": 0.15}
REPLAY_SHARES = {"replay": 0.8, "convoy": 0.2}
MIN_TAIL_OPS = 1000  # p99 needs ten samples beyond it
MIN_ROUNDS = 3  # every operation runs at least three times; each repeats the first's answer
SLICE_LINES = 2000  # lines of the log per ingest round (crowd, long-history)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import convoylog
    except ImportError as exc:
        raise SystemExit(f"cannot import convoylog from {ROOT / 'src'}: {exc}")
    if Path(convoylog.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise SystemExit(f"convoylog was imported from {convoylog.__file__}, not from this checkout")


_import_program()

import checks  # noqa: E402
from calibrate import REF_NS, Speed  # noqa: E402
import workloads  # noqa: E402
from convoylog import groups, proximity, rules, trajectories  # noqa: E402
from convoylog.proximity import ProximityLog  # noqa: E402
from tracing import Tracer  # noqa: E402


def _direct(name, fn, *args):
    return fn(*args)


def _keep(into: tuple[list, list], timed: tuple) -> None:
    into[0].append(timed[0])
    into[1].append(timed[1])


class Ops:
    """Attempted and failed operations per type; failures keep a traceback."""

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def run(self, kind: str, call, fn, *args):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            return call(kind, fn, *args)
        except Exception:  # an operation failing is a result, not a crash
            if not self.failed.get(kind):
                traceback.print_exc(file=sys.stderr)
            self.failed[kind] = self.failed.get(kind, 0) + 1
            return None

    def summary(self) -> dict:
        return {k: {"attempted": n, "failed": self.failed.get(k, 0)} for k, n in self.attempted.items()}


class Run:
    """One workload's inputs plus the calls every phase makes."""

    def __init__(self, inputs: workloads.Inputs, ops: Ops, speed: Speed):
        spec = inputs.spec
        self.inputs = inputs
        self.ops = ops
        self.speed = speed
        self.params = groups.GroupQueryParams(delta=spec.delta, omega=spec.omega, t_max=spec.t_max, n=spec.n)
        self.config = rules.EngineConfig(delta=spec.delta, omega=spec.omega)
        self.ruleset = rules.parse_rules(workloads.RULESET)
        self.trajectory_samples = sum(len(inputs.trajectories.positions(o)) for o in inputs.trajectories.objects)

    def _query(self, q):
        return groups.discover_group(self.log, q.device, q.fp.t, q.fp.env, self.params)

    def _eval(self, c):
        ctx = rules.EvalContext(device=c.device, now=c.fp.t, current=c.fp.env, log=self.log, config=self.config)
        return rules.eval_rules(self.ruleset, ctx)

    def _arrive(self, line):
        device, fp = proximity.fingerprint_from_json(json.loads(line))
        self.log.ingest(device, fp)

    def _timed(self, kind: str, call, fn, *args):
        """One operation: its result and its (start, end) in thread CPU time."""
        self.speed.tick()
        t = clock_ns()
        result = self.ops.run(kind, call, fn, *args)
        return result, (t, clock_ns())

    def _each(self, kind: str, fn, records, call):
        """(results, spans) of fn over records, in order."""
        out = ([], [])
        for r in records:
            _keep(out, self._timed(kind, call, fn, r))
        return out

    def ingest_round(self, text: str, call=_direct):
        return self._timed("ingest", call, proximity.read_log_jsonl, io.StringIO(text))

    def query_round(self, call=_direct):
        return self._each("query", self._query, self.inputs.queries, call)

    def rules_round(self, call=_direct):
        return self._each("rules", self._eval, self.inputs.contexts, call)

    def replay_round(self, call=_direct):
        """Arrivals in order. Each is followed by a group query (if its
        snapshot is not empty) and a rule evaluation for the arriving device."""
        self.log = ProximityLog()
        arrivals = []
        queries, evals = ([], []), ([], [])
        for rec, line in zip(self.inputs.records, self.inputs.lines):
            arrivals.append(self._timed("ingest", call, self._arrive, line)[1])
            if len(rec.fp.env):
                _keep(queries, self._timed("query", call, self._query, rec))
            _keep(evals, self._timed("rules", call, self._eval, rec))
        return self.log, arrivals, queries, evals

    def convoy_round(self, call=_direct):
        return self._timed("convoy", call, trajectories.discover_convoys, self.inputs.trajectories, self.inputs.spec.convoy)


class Timings:
    """Every timed repetition of one operation type, and the first round's
    answers, which every later round must repeat."""

    def __init__(self, what: str):
        self.what = what
        self.first = None
        self.spans: list[tuple[int, int]] = []
        self.latencies: list[float] = []  # at the reference speed, once scaled
        self.rounds = 0
        self.problems: list[str] = []

    def add(self, results: list, spans: list[tuple[int, int]]) -> int:
        """Records one round; returns its thread CPU time."""
        self.rounds += 1
        self.spans += spans
        if self.first is None:
            self.first = results
        elif results != self.first:
            self.problems.append(f"{self.what}: round {self.rounds} differs from round 1")
        return sum(end - start for start, end in spans)

    def scale(self, speed: Speed) -> None:
        self.latencies = sorted(speed.scaled(start, end) for start, end in self.spans)

    def percentile_ms(self, q: float) -> float:
        return self.latencies[max(0, math.ceil(q * len(self.latencies)) - 1)] / 1e6

    def per_second(self, items: int) -> float:
        return items / (sum(self.latencies) / 1e9)


def _interleave(phases: dict, shares: dict, seconds: float, minimum: dict) -> None:
    """Run whole rounds, always of the phase furthest behind its share of the
    time, until `seconds` are spent and every phase has run its minimum of
    rounds. Interleaving spreads every phase over the whole run."""
    spent = dict.fromkeys(phases, 0)
    rounds = dict.fromkeys(phases, 0)
    while True:
        short = [name for name in phases if rounds[name] < minimum[name]]
        if not short and sum(spent.values()) >= seconds * 1e9:
            return
        name = min(short or phases, key=lambda n: (rounds[n] > 0, spent[n] / shares[n]))
        spent[name] += phases[name]()
        rounds[name] += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _written(log) -> str:
    buf = io.StringIO()
    proximity.write_log_jsonl(log, buf)
    return buf.getvalue()


def _oracles(inputs):
    oracle = checks.GroupOracle(checks.History(inputs.records), inputs.spec.delta, inputs.spec.omega)
    return oracle, checks.RuleOracle(oracle)


def _limits(inputs):
    """live-replay reads see only the arrivals before them."""
    if not inputs.spec.replay:
        return None, None
    return [q.seq for q in inputs.queries], [c.seq for c in inputs.contexts]


def _check_outputs(inputs, queries, fired, convoys) -> list[str]:
    oracle, rule_oracle = _oracles(inputs)
    q_limits, r_limits = _limits(inputs)
    return (
        checks.check_queries(inputs, oracle, queries, q_limits)
        + checks.check_rules(inputs, rule_oracle, fired, r_limits)
        + checks.check_convoys(inputs, convoys or [], require_planted=inputs.spec.name == "long-history")
    )


def measure(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """The untraced run: end-to-end metrics and the problems found in outputs."""
    inputs = run.inputs
    expected_text = checks.expected_log_text(inputs.records)
    problems: list[str] = []
    queries, evals, convoys = Timings("queries"), Timings("rules"), Timings("convoys")
    ingests = Timings("ingest")
    # An ingest round reads one slice of the log into a fresh log; the reads
    # run against the whole log, read once beforehand. On live-replay, every
    # arrival is one ingest.
    slices = [
        (inputs.records[i : i + SLICE_LINES], "".join(line + "\n" for line in inputs.lines[i : i + SLICE_LINES]))
        for i in range(0, len(inputs.lines), SLICE_LINES)
    ]
    slice_texts = [checks.expected_log_text(records) for records, _ in slices]
    ingest_rounds = ingested = 0

    def ingest():
        nonlocal ingest_rounds, ingested
        k = ingest_rounds % len(slices)
        ingest_rounds += 1
        log, span = run.ingest_round(slices[k][1])
        ingested += len(slices[k][0])
        problems.extend(checks.check_log_text(slice_texts[k], _written(log)) if log is not None else [])
        return ingests.add([], [span])

    def replay():
        nonlocal ingested
        log, arrival_spans, (q_res, q_spans), (r_res, r_spans) = run.replay_round()
        ingested += len(arrival_spans)
        problems.extend(checks.check_log_text(expected_text, _written(log)))
        return ingests.add([], arrival_spans) + queries.add(q_res, q_spans) + evals.add(r_res, r_spans)

    def convoy():
        found, span = run.convoy_round()
        return convoys.add(found, [span])

    gc.collect()
    run.speed.probe()
    if inputs.spec.replay:
        _interleave({"replay": replay, "convoy": convoy}, REPLAY_SHARES, seconds, dict.fromkeys(REPLAY_SHARES, MIN_ROUNDS))
    else:
        run.log = proximity.read_log_jsonl(io.StringIO(inputs.text))
        problems.extend(checks.check_log_text(expected_text, _written(run.log)))
        phases = {
            "ingest": ingest,
            "query": lambda: queries.add(*run.query_round()),
            "rules": lambda: evals.add(*run.rules_round()),
            "convoy": convoy,
        }
        minimum = dict.fromkeys(BATCH_SHARES, MIN_ROUNDS)
        minimum["ingest"] = MIN_ROUNDS * len(slices)
        _interleave(phases, BATCH_SHARES, seconds, minimum)
    run.speed.probe()  # every operation has probes after it
    peak_rss_mb = _peak_rss_mb()
    for timings in (queries, evals, convoys, ingests):
        timings.scale(run.speed)

    if min(len(queries.first), len(evals.first)) < MIN_TAIL_OPS:
        problems.append(f"too few operations for a p99: {len(queries.first)} queries, {len(evals.first)} evaluations")
    problems += queries.problems + evals.problems + convoys.problems
    problems += _check_outputs(inputs, queries.first, evals.first, convoys.first)
    metrics = {
        "ingest_fps": (ingests.per_second(ingested), "fingerprints/s"),
        "query_p50_ms": (queries.percentile_ms(0.50), "ms"),
        "query_p99_ms": (queries.percentile_ms(0.99), "ms"),
        "rules_p50_ms": (evals.percentile_ms(0.50), "ms"),
        "rules_p99_ms": (evals.percentile_ms(0.99), "ms"),
        "convoy_samples_per_s": (convoys.per_second(run.trajectory_samples * len(convoys.spans)), "samples/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, problems


def _one_pass(run: Run, call) -> tuple[float, dict]:
    """One round of every phase; (seconds, outputs)."""
    t = clock()
    if run.inputs.spec.replay:
        log, _, (qres, _), (rres, _) = run.replay_round(call)
    else:
        log, _ = run.ingest_round(run.inputs.text, call)
        run.log = log
        qres, _ = run.query_round(call)
        rres, _ = run.rules_round(call)
    convoys, _ = run.convoy_round(call)
    return clock() - t, {"queries": qres, "rules": rres, "convoys": convoys}


def trace(run: Run, setup_sim_s: list[float]) -> tuple[dict, list[str]]:
    """One untraced and one traced round of every phase: per-layer metrics."""
    inputs = run.inputs
    gc.collect()
    plain_s, plain = _one_pass(run, _direct)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced_s, traced = _one_pass(run, tracer.call)
    finally:
        tracer.uninstall()
    t = clock()
    proximity.read_log_jsonl(io.StringIO(inputs.text))
    read_s = clock() - t
    parse_s = []
    for _ in range(25):
        t = clock()
        rules.parse_rules(workloads.RULESET)
        parse_s.append(clock() - t)

    problems = [] if plain == traced else ["traced pass: answers differ from the untraced pass"]
    problems += _check_outputs(inputs, plain["queries"], plain["rules"], plain["convoys"])

    calls, self_ns = tracer.totals()
    c = tracer.counters
    tracer.write(OUT / f"{inputs.spec.name}.spans")

    def ratio(a, b):
        return a / b if b else 0.0

    def secs(name):
        return self_ns[name] / 1e9

    evals = calls["rules.eval_rules"]
    queries = calls["groups.discover_group"]
    metrics = {
        "proximity.measurements_in_window.calls": (calls["proximity.measurements_in_window"], "calls"),
        "proximity.measurements_in_window.self_s": (secs("proximity.measurements_in_window"), "s"),
        "proximity.window.devices_scanned": (c["window.scanned"], "devices"),
        "proximity.window.hit_ratio": (ratio(c["window.returned"], c["window.scanned"]), "ratio"),
        "proximity.nearest_in_window.calls": (calls["proximity.nearest_in_window"], "calls"),
        "proximity.nearest_in_window.self_s": (secs("proximity.nearest_in_window"), "s"),
        "proximity.track.calls": (calls["proximity.track"], "calls"),
        "proximity.track.self_s": (secs("proximity.track"), "s"),
        "proximity.ingest.calls": (calls["proximity.ingest"], "calls"),
        "proximity.ingest.self_s": (secs("proximity.ingest"), "s"),
        "proximity.read_log_jsonl.s": (read_s, "s"),
        "comparability.comparable.calls": (calls["comparability.comparable"], "calls"),
        "comparability.comparable.self_s": (secs("comparability.comparable"), "s"),
        "comparability.comparable.true_ratio": (ratio(c["comparable.true"], calls["comparability.comparable"]), "ratio"),
        "groups.discover_group.calls": (queries, "calls"),
        "groups.discover_group.self_s": (secs("groups.discover_group"), "s"),
        "groups.steps_per_query": (ratio(c["group.steps"], queries), "steps/query"),
        "groups.members_per_query": (ratio(c["group.members"], queries), "members/query"),
        "groups.comparisons_per_query": (ratio(calls["comparability.comparable"], queries), "checks/query"),
        "rules.parse_rules.s": (statistics.median(parse_s), "s"),
        "rules.eval_rules.calls": (evals, "calls"),
        "rules.eval_rules.self_s": (secs("rules.eval_rules"), "s"),
        "rules.eval_predicate.calls": (calls["rules.eval_predicate"] + calls["rules.visit_checks"], "calls"),
        "rules.fired_per_eval": (ratio(c["rules.fired"], evals), "rules/eval"),
        "rules.group_scans_per_eval": (ratio(calls["rules.in_group_of"], evals), "scans/eval"),
        "rules.visit_checks.self_s": (secs("rules.visit_checks"), "s"),
        "trajectories.density_clusters.calls": (calls["trajectories.density_clusters"], "calls"),
        "trajectories.density_clusters.self_s": (secs("trajectories.density_clusters"), "s"),
        "trajectories.positions_at.calls": (calls["trajectories.positions_at"], "calls"),
        "trajectories.positions_at.self_s": (secs("trajectories.positions_at"), "s"),
        "trajectories.discover_convoys.self_s": (secs("trajectories.discover_convoys"), "s"),
        "trajectories.points_per_timestamp": (ratio(c["traj.points"], calls["trajectories.positions_at"]), "points/ts"),
        "trajectories.convoys_found": (c["traj.convoys"], "convoys"),
        "simulation.simulate.s": (statistics.median(setup_sim_s), "s"),
        "simulation.fingerprints": (inputs.simulated_fingerprints, "fingerprints"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - plain_s) / plain_s, "%"),
    }
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]

    speed = Speed()
    setup_s, sim_s = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # the peak resident set holds one set of inputs, not two
        gc.collect()
        speed.probe()
        speed.probe()
        t = clock_ns()
        inputs = workloads.generate(spec, args.seed)
        end = clock_ns()
        speed.probe()
        speed.probe()
        setup_s.append(speed.scaled(t, end) / 1e9)
        sim_s.append(inputs.simulate_s)
    setup_rss_mb = _peak_rss_mb()
    # The inputs stay alive for the whole run. Frozen, they are left out of
    # the collector's passes, which would otherwise charge their traversal to
    # whichever program operation triggers a pass.
    gc.collect()
    gc.freeze()

    ops = Ops()
    run = Run(inputs, ops, speed)
    if args.trace:
        metrics, problems = trace(run, sim_s)
    else:
        metrics, problems = measure(run, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_s), "s")

    for p in problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{spec.name}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    info = {
        "workload": spec.name,
        "seed": args.seed,
        "setup_peak_rss_mb": setup_rss_mb,
        "calibration_ms": {"median": speed.median_ns() / 1e6, "reference": REF_NS / 1e6, "probes": len(speed.took)},
        "operations": ops.summary(),
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
