"""Shows that every check in checks.py accepts the program's real answers and
rejects a deliberately corrupted one.

    python3 perfbench/selftest.py

Runs one round of every phase on shrunken versions of the three workloads,
then feeds each check the true outputs (must pass) and corrupted copies
(must fail): a member dropped or added, a step count off by one, a rule
flipped, both or neither rule of a complementary pair fired, a convoy shrunk
below m, stretched past its end or duplicated as a dominated subset, a
planted group's convoy removed, and a written log with one sample missing or
one level changed.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import io
import sys

import run as bench  # sets up the import path of the checkout's src/
import checks
import workloads
from convoylog import proximity
from convoylog.proximity import ApObservation, EnvironmentSnapshot, Fingerprint, ProximityLog
from convoylog.trajectories import Convoy

SMALL = {
    "crowd": dict(groups=6, loners=20, queries=60, evals=60),
    "long-history": dict(groups=2, loners=2, duration_s=2 * 3600.0, queries=40, evals=40),
    "live-replay": dict(groups=3, loners=8, duration_s=60.0),
}


class Expect:
    def __init__(self):
        self.failures = 0

    def passes(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failures += 1
            print(f"FAIL {what}: true answer rejected: {problems[0]}")
        else:
            print(f"ok   {what}: true answer accepted")

    def rejects(self, what: str, problems: list[str]) -> None:
        if problems:
            print(f"ok   {what}: rejected ({problems[0][:100]})")
        else:
            self.failures += 1
            print(f"FAIL {what}: corrupted answer accepted")


def _written(log: ProximityLog) -> str:
    buf = io.StringIO()
    proximity.write_log_jsonl(log, buf)
    return buf.getvalue()


def exercise(name: str, expect: Expect) -> None:
    spec = dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])
    inputs = workloads.generate(spec, seed=11)
    run = bench.Run(inputs, bench.Ops(), bench.Speed())
    _, out = bench._one_pass(run, bench._direct)
    oracle, rule_oracle = bench._oracles(inputs)
    q_limits = [q.seq for q in inputs.queries] if spec.replay else None
    r_limits = [c.seq for c in inputs.contexts] if spec.replay else None
    queries, fired, convoys = out["queries"], out["rules"], out["convoys"]

    expect.passes(f"{name} queries", checks.check_queries(inputs, oracle, queries, q_limits))
    i = next(i for i, r in enumerate(queries) if r.members)
    dropped = list(queries)
    dropped[i] = dataclasses.replace(queries[i], members=frozenset(sorted(queries[i].members)[1:]))
    expect.rejects(f"{name} queries, one member dropped", checks.check_queries(inputs, oracle, dropped, q_limits))

    limit = q_limits[i] if q_limits else None
    strangers = [d for d in oracle.history.times if d != inputs.queries[i].device and d not in queries[i].members]
    witnessless = next(
        d for d in strangers
        if checks.check_witnesses(oracle, inputs.queries[i],
                                  dataclasses.replace(queries[i], members=frozenset({d})), limit)
    )
    added = dataclasses.replace(queries[i], members=queries[i].members | {witnessless})
    expect.rejects(f"{name} witnesses, a stranger added",
                   checks.check_witnesses(oracle, inputs.queries[i], added, limit))
    longer = dataclasses.replace(queries[i], steps_processed=queries[i].steps_processed + 1)
    expect.rejects(f"{name} witnesses, one step too many",
                   checks.check_witnesses(oracle, inputs.queries[i], longer, limit)
                   + checks.check_queries(inputs, oracle, queries[:i] + [longer] + queries[i + 1:], q_limits))

    expect.passes(f"{name} rules", checks.check_rules(inputs, rule_oracle, fired, r_limits))
    j = next(j for j, f in enumerate(fired) if f)
    flipped = list(fired)
    flipped[j] = fired[j][1:]
    expect.rejects(f"{name} rules, one rule flipped", checks.check_rules(inputs, rule_oracle, flipped, r_limits))
    both = list(fired)
    both[j] = sorted(set(fired[j]) | {("seen", "x"), ("unseen", "y")})
    expect.rejects(f"{name} rules, seen and unseen both fired", checks.check_complements(both))
    neither = [[(r, c) for r, c in f if r not in ("welcome", "back")] for f in fired]
    expect.rejects(f"{name} rules, neither welcome nor back fired", checks.check_complements(neither))

    planted = name == "long-history"
    expect.passes(f"{name} convoys", checks.check_convoys(inputs, convoys, planted))
    c = convoys[0]
    shrunk = [Convoy(frozenset(sorted(c.members)[: spec.convoy.m - 1]), c.t_start, c.t_end)] + convoys[1:]
    expect.rejects(f"{name} convoys, shrunk below m", checks.check_convoys(inputs, shrunk, False))
    late = next((x for x in convoys if x.t_end < max(inputs.trajectories.time_range())), None)
    if late is not None:
        stretched = [Convoy(x.members, x.t_start, x.t_end + 1) if x is late else x for x in convoys]
        expect.rejects(f"{name} convoys, stretched one step", checks.check_convoys(inputs, stretched, False))
    sub = Convoy(frozenset(sorted(c.members)[: spec.convoy.m]), c.t_start, c.t_start + spec.convoy.k - 1)
    if sub != c:
        expect.rejects(f"{name} convoys, dominated copy added", checks.check_convoys(inputs, convoys + [sub], False))
    if planted:
        members = set(next(iter(inputs.planted.values())))
        kept = [x for x in convoys if not members <= x.members]
        expect.rejects(f"{name} convoys, planted group lost", checks.check_convoys(inputs, kept, True))

    expected = checks.expected_log_text(inputs.records)
    log = bench.Run(inputs, bench.Ops(), bench.Speed()).ingest_round(inputs.text)[0]
    expect.passes(f"{name} written log", checks.check_log_text(expected, _written(log)))
    short = ProximityLog()
    for r in inputs.records[1:]:
        short.ingest(r.device, r.fp)
    expect.rejects(f"{name} written log, one sample missing", checks.check_log_text(expected, _written(short)))
    bent = ProximityLog()
    for r in inputs.records:
        fp = r.fp
        if r.seq == len(inputs.records) // 2 and len(fp.env):
            first, *rest = fp.env.observations
            louder = ApObservation(first.bssid, first.rssi + 1, first.ssid)
            fp = Fingerprint(fp.t, EnvironmentSnapshot((louder, *rest)))
        bent.ingest(r.device, fp)
    expect.rejects(f"{name} written log, one level changed", checks.check_log_text(expected, _written(bent)))


def main() -> int:
    expect = Expect()
    for name in SMALL:
        exercise(name, expect)
    print("selftest:", "FAILED" if expect.failures else "passed")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
