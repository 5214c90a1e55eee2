import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convoylog import (
    And,
    CloseThan,
    DuplicateRuleIdError,
    EngineConfig,
    EnvironmentSnapshot,
    EvalContext,
    FirstVisit,
    FollowUpVisit,
    InGroupOf,
    IsVisible,
    Not,
    NotVisible,
    Or,
    ProximityLog,
    Rule,
    RuleSyntaxError,
    TimeCompare,
    TimeWithin,
    eval_predicate,
    eval_rules,
    format_predicate,
    format_rules,
    parse_rules,
    write_log_jsonl,
)
from convoylog import ApObservation, Fingerprint
from helpers import put, random_snapshot, snapshot

X = "0a:00:00:00:00:01"
Y = "0a:00:00:00:00:02"


class TestParse:
    def test_coupon_rule(self):
        rules = parse_rules("RULE r1: IF IS_VISIBLE('mycafe') AND FIRST_VISIT() THEN \"coupon\"")
        assert rules == (
            Rule("r1", And(IsVisible("mycafe"), FirstVisit()), "coupon"),
        )

    def test_missing_condition(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules('RULE r1: IF THEN "x"')
        assert err.value.line == 1
        assert err.value.column == 13

    def test_empty_input(self):
        assert parse_rules("") == ()
        assert parse_rules("   \n\n  ") == ()

    def test_duplicate_rule_id(self):
        text = (
            "RULE r1: IF FIRST_VISIT() THEN 'a'\n"
            "RULE r1: IF FOLLOW_UP_VISIT() THEN 'b'\n"
        )
        with pytest.raises(DuplicateRuleIdError):
            parse_rules(text)

    def test_and_binds_tighter_than_or(self):
        (rule,) = parse_rules(
            "RULE r: IF IS_VISIBLE('a') AND IS_VISIBLE('b') OR IS_VISIBLE('c') THEN 'x'"
        )
        assert rule.condition == Or(
            And(IsVisible("a"), IsVisible("b")), IsVisible("c")
        )

    def test_not_binds_tightest(self):
        (rule,) = parse_rules("RULE r: IF NOT IS_VISIBLE('a') AND IS_VISIBLE('b') THEN 'x'")
        assert rule.condition == And(Not(IsVisible("a")), IsVisible("b"))

    def test_parentheses_override(self):
        (rule,) = parse_rules(
            "RULE r: IF IS_VISIBLE('a') AND (IS_VISIBLE('b') OR IS_VISIBLE('c')) THEN 'x'"
        )
        assert rule.condition == And(
            IsVisible("a"), Or(IsVisible("b"), IsVisible("c"))
        )

    def test_every_term_kind(self):
        (rule,) = parse_rules(
            "RULE all: IF NOT_VISIBLE('n1') AND CLOSE_THAN('n1', 'n2')"
            " AND FOLLOW_UP_VISIT() AND TIME_WITHIN('09:00', '17:30')"
            " AND TIME() >= '12:15' AND IN_GROUP_OF(3, 600) THEN 'x'"
        )
        flat = rule.condition
        terms = []
        while isinstance(flat, And):
            terms.append(flat.right)
            flat = flat.left
        terms.append(flat)
        assert set(map(type, terms)) == {
            NotVisible,
            CloseThan,
            FollowUpVisit,
            TimeWithin,
            TimeCompare,
            InGroupOf,
        }
        assert TimeWithin(9 * 60, 17 * 60 + 30) in terms
        assert TimeCompare(">=", 12 * 60 + 15) in terms
        assert InGroupOf(3, 600) in terms

    def test_all_time_relations(self):
        for rel in ("<", "<=", "=", ">=", ">"):
            (rule,) = parse_rules(f"RULE r: IF TIME() {rel} '10:00' THEN 'x'")
            assert rule.condition == TimeCompare(rel, 600)

    def test_in_group_of_argument_ranges(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE r: IF IN_GROUP_OF(0, 60) THEN 'x'")
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE r: IF IN_GROUP_OF(2, 0) THEN 'x'")

    def test_oversized_integer_literals(self):
        # 5000 digits exceed the interpreter's int-parsing limit; a 400-digit
        # lookback parses as an int but overflows a float
        for text, column in (
            (f"RULE r: IF IN_GROUP_OF({'1' * 5000}, 60) THEN 'x'", 24),
            (f"RULE r: IF IN_GROUP_OF(2, 1{'0' * 400}) THEN 'x'", 27),
        ):
            with pytest.raises(RuleSyntaxError) as err:
                parse_rules(text)
            assert (err.value.line, err.value.column) == (1, column)

    def test_bad_time_literal(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE r: IF TIME() < '25:00' THEN 'x'")
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE r: IF TIME() < 'noon' THEN 'x'")
        (rule,) = parse_rules("RULE r: IF TIME() < '9:05' THEN 'x'")
        assert rule.condition == TimeCompare("<", 545)

    def test_unterminated_string(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("RULE r: IF IS_VISIBLE('oops THEN 'x'")
        assert err.value.line == 1

    def test_string_escapes_and_quote_styles(self):
        (rule,) = parse_rules('RULE r: IF IS_VISIBLE("caf\\"e") THEN \'pay "here"\'')
        assert rule.condition == IsVisible('caf"e')
        assert rule.content == 'pay "here"'

    def test_error_line_numbers_in_multiline_ruleset(self):
        text = "RULE r1: IF FIRST_VISIT() THEN 'a'\nRULE r2: IF WHAT() THEN 'b'\n"
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        assert err.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE r: IF IS_VISIBLE('a') % THEN 'x'")


leaf_predicates = st.one_of(
    st.builds(IsVisible, st.text(alphabet="abcxyz ", min_size=1, max_size=8)),
    st.builds(NotVisible, st.text(alphabet="abcxyz'\"\\", min_size=1, max_size=8)),
    st.builds(
        CloseThan,
        st.text(alphabet="abc", min_size=1, max_size=4),
        st.text(alphabet="xyz", min_size=1, max_size=4),
    ),
    st.builds(FirstVisit),
    st.builds(FollowUpVisit),
    st.builds(
        TimeWithin,
        st.integers(min_value=0, max_value=1439),
        st.integers(min_value=0, max_value=1439),
    ),
    st.builds(
        TimeCompare,
        st.sampled_from(["<", "<=", "=", ">=", ">"]),
        st.integers(min_value=0, max_value=1439),
    ),
    st.builds(
        InGroupOf, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=3600)
    ),
)
predicates = st.recursive(
    leaf_predicates,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=12,
)


class TestPrint:
    def test_printer_drops_redundant_parens(self):
        p = Or(And(IsVisible("a"), IsVisible("b")), IsVisible("c"))
        assert format_predicate(p) == "IS_VISIBLE('a') AND IS_VISIBLE('b') OR IS_VISIBLE('c')"

    def test_printer_keeps_needed_parens(self):
        p = And(Or(IsVisible("a"), IsVisible("b")), IsVisible("c"))
        assert format_predicate(p) == "(IS_VISIBLE('a') OR IS_VISIBLE('b')) AND IS_VISIBLE('c')"
        p = Not(Or(IsVisible("a"), IsVisible("b")))
        assert format_predicate(p) == "NOT (IS_VISIBLE('a') OR IS_VISIBLE('b'))"

    @settings(max_examples=200)
    @given(
        condition=predicates,
        rule_id=st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
        content=st.text(min_size=0, max_size=30).filter(lambda s: "\n" not in s),
    )
    def test_round_trip(self, condition, rule_id, content):
        rules = (Rule(rule_id, condition, content),)
        assert parse_rules(format_rules(rules)) == rules


def make_ctx(
    current=None,
    device="02:00:00:00:00:01",
    now=1000.0,
    log=None,
    **kwargs,
) -> EvalContext:
    return EvalContext(
        device=device,
        now=now,
        current=current if current is not None else EnvironmentSnapshot(()),
        log=log if log is not None else ProximityLog(),
        **kwargs,
    )


def named(ssid: str, rssi: int, bssid: str) -> ApObservation:
    return ApObservation(bssid=bssid, rssi=rssi, ssid=ssid)


class TestVisibility:
    def test_match_by_ssid(self):
        ctx = make_ctx(EnvironmentSnapshot((named("mycafe", -60, X),)))
        assert eval_predicate(IsVisible("mycafe"), ctx)
        assert not eval_predicate(IsVisible("other"), ctx)

    def test_match_by_hardware_address(self):
        ctx = make_ctx(EnvironmentSnapshot((named("mycafe", -60, X),)))
        assert eval_predicate(IsVisible("0A-00-00-00-00-01"), ctx)
        assert not eval_predicate(IsVisible(Y), ctx)

    def test_not_visible_is_complement(self):
        ctx = make_ctx(EnvironmentSnapshot((named("mycafe", -60, X),)))
        assert not eval_predicate(NotVisible("mycafe"), ctx)
        assert eval_predicate(NotVisible("other"), ctx)


class TestCloseThan:
    def cases(self):
        return [
            ({"near": -50, "far": -70}, True),
            ({"near": -70, "far": -50}, False),
            ({"near": -50, "far": -50}, False),  # tie is false
            ({"near": -50}, True),  # far invisible
            ({"far": -50}, False),  # near invisible
            ({}, False),
        ]

    def test_decision_table(self):
        for levels, want in self.cases():
            obs = []
            if "near" in levels:
                obs.append(named("near", levels["near"], X))
            if "far" in levels:
                obs.append(named("far", levels["far"], Y))
            ctx = make_ctx(EnvironmentSnapshot(tuple(obs)))
            assert eval_predicate(CloseThan("near", "far"), ctx) is want

    def test_strongest_reading_wins_for_shared_ssid(self):
        ctx = make_ctx(
            EnvironmentSnapshot(
                (
                    named("mall", -80, X),
                    named("mall", -50, Y),
                    named("kiosk", -60, "0a:00:00:00:00:03"),
                )
            )
        )
        assert eval_predicate(CloseThan("mall", "kiosk"), ctx)
        assert not eval_predicate(CloseThan("kiosk", "mall"), ctx)


class TestVisitHistory:
    def test_ap_seen_days_ago_makes_follow_up(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 1000.0, {X: -60})
        two_days = 2 * 86400.0
        ctx = make_ctx(
            snapshot({X: -55}), now=1000.0 + two_days, log=log, session_gap=1800.0
        )
        assert eval_predicate(FollowUpVisit(), ctx)
        assert not eval_predicate(FirstVisit(), ctx)

    def test_empty_history_is_first_visit(self):
        ctx = make_ctx(snapshot({X: -60}))
        assert eval_predicate(FirstVisit(), ctx)
        assert not eval_predicate(FollowUpVisit(), ctx)

    def test_unbroken_session_is_still_first_visit(self):
        # samples every 10 minutes chain into one visit; seeing the AP many
        # times within it is not a repeat visit
        log = ProximityLog()
        for i in range(6):
            put(log, "02:00:00:00:00:01", i * 600.0, {X: -60})
        ctx = make_ctx(snapshot({X: -58}), now=3600.0, log=log)
        assert eval_predicate(FirstVisit(), ctx)

    def test_gap_splits_visits(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 0.0, {X: -60})
        put(log, "02:00:00:00:00:01", 5000.0, {X: -61})  # 5000 > 1800: new visit
        ctx = make_ctx(snapshot({X: -59}), now=5100.0, log=log)
        assert eval_predicate(FollowUpVisit(), ctx)

    def test_previous_visit_must_share_an_ap(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 0.0, {Y: -60})  # different AP back then
        put(log, "02:00:00:00:00:01", 5000.0, {X: -61})
        ctx = make_ctx(snapshot({X: -59}), now=5100.0, log=log)
        assert eval_predicate(FirstVisit(), ctx)

    def test_future_samples_ignored(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 9000.0, {X: -60})  # after `now`
        ctx = make_ctx(snapshot({X: -59}), now=100.0, log=log)
        assert eval_predicate(FirstVisit(), ctx)


class TestClock:
    def test_time_within_half_open(self):
        ctx = make_ctx(time_of_day=9 * 60)
        assert eval_predicate(TimeWithin(9 * 60, 17 * 60), ctx)
        ctx = make_ctx(time_of_day=17 * 60)
        assert not eval_predicate(TimeWithin(9 * 60, 17 * 60), ctx)

    def test_time_within_wraps_midnight(self):
        night = TimeWithin(22 * 60, 6 * 60)
        assert eval_predicate(night, make_ctx(time_of_day=23 * 60))
        assert eval_predicate(night, make_ctx(time_of_day=5 * 60))
        assert not eval_predicate(night, make_ctx(time_of_day=12 * 60))

    def test_time_of_day_derived_from_now(self):
        ctx = make_ctx(now=2 * 86400.0 + 600.0)
        assert ctx.minutes_of_day() == 10
        assert eval_predicate(TimeCompare("=", 10), ctx)

    def test_compare_relations(self):
        ctx = make_ctx(time_of_day=600)
        table = [
            ("<", 601, True),
            ("<", 600, False),
            ("<=", 600, True),
            ("=", 600, True),
            ("=", 599, False),
            (">=", 600, True),
            (">", 600, False),
            (">", 599, True),
        ]
        for rel, minutes, want in table:
            assert eval_predicate(TimeCompare(rel, minutes), ctx) is want

    def test_context_validation(self):
        with pytest.raises(ValueError):
            make_ctx(session_gap=0.0)
        with pytest.raises(ValueError):
            make_ctx(time_of_day=1440)
        with pytest.raises(ValueError):
            make_ctx(session_gap=float("nan"))

    def test_engine_config_validation(self):
        nan = float("nan")
        for bad in (dict(delta=-1.0), dict(delta=nan), dict(omega=0.0), dict(omega=nan), dict(min_steps=0)):
            with pytest.raises(ValueError):
                EngineConfig(**bad)


class TestInGroupOf:
    def group_log(self) -> ProximityLog:
        log = ProximityLog()
        for dev, levels in (
            ("02:00:00:00:00:01", [(-60, -52, -50)]),
            ("02:00:00:00:00:02", [(-65, -55, -53)]),
            ("02:00:00:00:00:03", [(-61, -80, -54)]),
        ):
            (l80, l90, l100) = levels[0]
            put(log, dev, 80, {Y: l80})
            put(log, dev, 90, {X: l90})
            put(log, dev, 100, {X: l100})
        return log

    def test_delegates_to_group_discovery(self):
        ctx = make_ctx(
            snapshot({X: -50}),
            now=100.0,
            log=self.group_log(),
            config=EngineConfig(delta=2.0, omega=10.0),
        )
        assert eval_predicate(InGroupOf(2, 20), ctx)
        assert not eval_predicate(InGroupOf(3, 20), ctx)

    def test_empty_current_view_is_false_never_raises(self):
        ctx = make_ctx(EnvironmentSnapshot(()), now=100.0, log=self.group_log())
        assert not eval_predicate(InGroupOf(1, 20), ctx)

    def test_unknown_device_is_false_for_n_above_one(self):
        ctx = make_ctx(snapshot({X: -50}), device="02:00:00:00:00:09", now=100.0, log=self.group_log())
        assert not eval_predicate(InGroupOf(2, 20), ctx)


class TestEvalRules:
    def test_fired_rules_in_declaration_order(self):
        text = (
            "RULE later: IF TIME() >= '08:00' THEN 'late enough'\n"
            "RULE cafe: IF IS_VISIBLE('mycafe') THEN 'present the coupon info'\n"
            "RULE never: IF NOT_VISIBLE('mycafe') THEN 'unreachable here'\n"
        )
        rules = parse_rules(text)
        ctx = make_ctx(
            EnvironmentSnapshot((named("mycafe", -60, X),)), time_of_day=9 * 60
        )
        assert eval_rules(rules, ctx) == [
            ("later", "late enough"),
            ("cafe", "present the coupon info"),
        ]

    def test_no_rules(self):
        assert eval_rules((), make_ctx()) == []

    def test_evaluation_is_pure_and_leaves_log_alone(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 10.0, {X: -60})
        before = io.StringIO()
        write_log_jsonl(log, before)
        rules = parse_rules("RULE r: IF FOLLOW_UP_VISIT() OR IN_GROUP_OF(2, 60) THEN 'x'")
        ctx = make_ctx(snapshot({X: -58}), now=20.0, log=log)
        first = eval_rules(rules, ctx)
        second = eval_rules(rules, ctx)
        assert first == second
        after = io.StringIO()
        write_log_jsonl(log, after)
        assert before.getvalue() == after.getvalue()


class TestComplements:
    def random_ctx(self, rng: random.Random) -> EvalContext:
        log = ProximityLog()
        device = "02:00:00:00:00:01"
        t = 0.0
        for _ in range(rng.randint(0, 6)):
            t += rng.uniform(60.0, 4000.0)
            put(log, device, t, {b: rng.randint(-90, -40) for b in rng.sample([X, Y], rng.randint(1, 2))})
        return make_ctx(
            random_snapshot(rng) if rng.random() < 0.8 else EnvironmentSnapshot(()),
            now=t + rng.uniform(0.0, 4000.0),
            log=log,
            session_gap=rng.choice([600.0, 1800.0]),
        )

    def test_visibility_and_visit_complements(self):
        rng = random.Random(41)
        for _ in range(300):
            ctx = self.random_ctx(rng)
            net = rng.choice(["lobby", X, "nope", Y])
            assert eval_predicate(NotVisible(net), ctx) == (
                not eval_predicate(IsVisible(net), ctx)
            )
            assert eval_predicate(FirstVisit(), ctx) == (
                not eval_predicate(FollowUpVisit(), ctx)
            )

    def test_close_than_antisymmetric(self):
        rng = random.Random(42)
        for _ in range(300):
            ctx = self.random_ctx(rng)
            a, b = rng.sample(["lobby", X, Y, "nope"], 2)
            both = eval_predicate(And(CloseThan(a, b), CloseThan(b, a)), ctx)
            assert not both
