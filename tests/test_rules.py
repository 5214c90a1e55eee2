import dataclasses
import io
import random

import pytest
from hypothesis import example, given, settings
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
from convoylog import ApObservation, Fingerprint, GroupQueryParams, groups
from convoylog import rules as rule_engine
from helpers import AP_POOL, DEVICE_POOL, put, random_snapshot, snapshot

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
        for n, t in ((0, 60), (2, 0), (2, float("nan")), (float("nan"), 10), (2.5, 10), (True, 10)):
            with pytest.raises(ValueError):
                InGroupOf(n, t)

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

    def test_error_position_after_escaped_line_break(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("RULE a: IF IS_VISIBLE('x\\\ny') THEN\n 'c' @")
        assert (err.value.line, err.value.column) == (3, 6)

    def test_error_names_empty_string_as_a_string(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("RULE r: IF '' THEN 'x'")
        assert str(err.value) == "line 1, column 12: expected a condition, found string ''"

    def test_error_names_string_apart_from_identifier(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("RULE r: IF IS_VISIBLE( 'a' 'b') THEN 'x'")
        assert str(err.value) == "line 1, column 28: expected ), found string 'b'"

    def test_error_names_end_of_input_after_time(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("RULE r: IF TIME()")
        assert str(err.value) == "line 1, column 18: expected comparison after TIME(), found end of input"

    def test_every_call_style_term_is_in_the_table_once(self):
        # A predicate class missing from the table could be evaluated but
        # neither parsed nor printed. TIME() <relation> 'HH:MM' is written
        # apart; And, Or and Not combine other predicates.
        leaves = set(rule_engine.Predicate.__subclasses__()) - {And, Or, Not, TimeCompare}
        classes = [cls for cls, _ in rule_engine._TERMS.values()]
        assert sorted(classes, key=repr) == sorted(leaves, key=repr)
        for cls, args in rule_engine._TERMS.values():
            assert len(args) == len(dataclasses.fields(cls)), cls


VISIBLE_X = "IS_VISIBLE('x')"
# Conditions d levels deep, each paired with a marker whose last occurrence
# in the text starts at the token that opens the deepest level.
NESTING_SHAPES = {
    "parentheses": (lambda d: "(" * d + VISIBLE_X + ")" * d, "(IS"),
    "not": (lambda d: "NOT " * d + VISIBLE_X, "NOT"),
    "and-chain": (lambda d: " AND ".join([VISIBLE_X] * (d + 1)), "AND"),
    "or-chain": (lambda d: " OR ".join([VISIBLE_X] * (d + 1)), "OR"),
}


@pytest.mark.parametrize("shape", NESTING_SHAPES)
class TestNestingLimit:
    def test_at_the_limit_parses_evaluates_and_round_trips(self, shape):
        condition = NESTING_SHAPES[shape][0](rule_engine.MAX_NESTING)
        rules = parse_rules(f"RULE a: IF {condition} THEN 'c'")
        assert parse_rules(format_rules(rules)) == rules
        ctx = make_ctx(EnvironmentSnapshot((named("x", -60, X),)))
        assert eval_rules(rules, ctx) == [("a", "c")]

    @pytest.mark.parametrize("depth", [rule_engine.MAX_NESTING + 1, 3000])
    def test_deeper_is_a_positioned_syntax_error(self, shape, depth):
        make, token = NESTING_SHAPES[shape]
        prefix = "RULE a: IF "
        condition = make(depth)
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(f"{prefix}{condition} THEN 'c'")
        assert "nests deeper" in str(err.value)
        assert err.value.line == 1
        if depth == rule_engine.MAX_NESTING + 1:
            assert err.value.column == len(prefix) + condition.rindex(token) + 1


leaf_predicates = st.one_of(
    st.builds(IsVisible, st.text(alphabet="abcxyz ", min_size=1, max_size=8)),
    st.builds(NotVisible, st.text(alphabet="abcxyz'\"\\\n", min_size=1, max_size=8)),
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
        content=st.text(min_size=0, max_size=30),
    )
    @example(condition=NotVisible("a\nb"), rule_id="r", content="line\nbreak")
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

    def test_samples_after_now_join_no_visit(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 0.0, {Y: -60})
        put(log, "02:00:00:00:00:01", 5000.0, {X: -61})
        put(log, "02:00:00:00:00:01", 6000.0, {X: -62})  # after `now`
        put(log, "02:00:00:00:00:01", 9000.0, {X: -63})  # after `now`
        ctx = make_ctx(snapshot({X: -59}), now=5100.0, log=log)
        assert eval_predicate(FirstVisit(), ctx)

    def test_sample_at_now_belongs_to_the_current_visit(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 0.0, {Y: -60})
        put(log, "02:00:00:00:00:01", 5000.0, {X: -61})
        ctx = make_ctx(snapshot({X: -61}), now=5000.0, log=log)
        assert eval_predicate(FirstVisit(), ctx)

    def test_gap_of_exactly_session_gap_continues_the_visit(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 0.0, {X: -60})
        put(log, "02:00:00:00:00:01", 1800.0, {Y: -61})
        ctx = make_ctx(snapshot({X: -59}), now=3600.0, log=log, session_gap=1800.0)
        assert eval_predicate(FirstVisit(), ctx)
        longer = make_ctx(snapshot({X: -59}), now=3600.5, log=log, session_gap=1800.0)
        assert eval_predicate(FollowUpVisit(), longer)


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
        for now in (float("nan"), float("inf"), float("-inf"), 10**400):
            with pytest.raises(ValueError):
                make_ctx(now=now)

    def test_engine_config_validation(self):
        nan = float("nan")
        for bad in (
            dict(delta=-1.0),
            dict(delta=nan),
            dict(omega=0.0),
            dict(omega=nan),
            dict(min_steps=0),
            dict(min_steps=1.5),
            dict(min_steps=nan),
            dict(min_steps=True),
        ):
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


def leafwise(p, ctx: EvalContext) -> bool:
    """p evaluated with a fresh call per leaf, sharing nothing: a group scan
    of the leaf's own lookback for IN_GROUP_OF, eval_predicate otherwise."""
    if isinstance(p, And):
        return leafwise(p.left, ctx) and leafwise(p.right, ctx)
    if isinstance(p, Or):
        return leafwise(p.left, ctx) or leafwise(p.right, ctx)
    if isinstance(p, Not):
        return not leafwise(p.operand, ctx)
    if isinstance(p, InGroupOf):
        config = ctx.config
        params = GroupQueryParams(config.delta, config.omega, float(p.t), p.n, config.min_steps)
        return len(ctx.current) > 0 and groups.in_group_of(ctx.log, ctx.device, ctx.now, ctx.current, params)
    return eval_predicate(p, ctx)


# Few lookbacks, so rulesets repeat them as well as mix them; IN_GROUP_OF
# is drawn as often as the other leaves together.
_in_group_of = st.builds(InGroupOf, st.integers(1, 4), st.sampled_from([1, 3, 10, 60]))
_leaves = st.one_of(
    _in_group_of,
    _in_group_of,
    _in_group_of,
    st.just(FirstVisit()),
    st.just(FollowUpVisit()),
    st.sampled_from([IsVisible(b) for b in AP_POOL[:3]]),
)
_conditions = st.recursive(
    _leaves,
    lambda kids: st.builds(And, kids, kids) | st.builds(Or, kids, kids) | st.builds(Not, kids),
    max_leaves=6,
)
_rulesets = st.lists(_conditions, min_size=1, max_size=6).map(
    lambda conditions: tuple(Rule(f"r{i}", c, f"c{i}") for i, c in enumerate(conditions))
)

# The IN_GROUP_OF and visit rules of the benchmark ruleset (perfbench/workloads.py).
_SHARED_RULES = """\
RULE welcome: IF FIRST_VISIT() THEN 'welcome'
RULE back: IF FOLLOW_UP_VISIT() THEN 'welcome back'
RULE coupon: IF FOLLOW_UP_VISIT() AND IS_VISIBLE('0a:00:00:00:00:01') THEN 'coupon'
RULE squad: IF IN_GROUP_OF(3, 60) THEN 'squad deal'
RULE pair: IF IN_GROUP_OF(2, 60) AND NOT IN_GROUP_OF(4, 60) THEN 'pair deal'
RULE crew: IF IN_GROUP_OF(3, 300) AND TIME() < '22:00' THEN 'crew deal'
"""


def walking_together(devices: list[str], start: float, end: float) -> ProximityLog:
    """A log where the devices hear the same access point every 10 s."""
    log = ProximityLog()
    for device in devices:
        t = start
        while t <= end:
            put(log, device, t, {X: -50})
            t += 10.0
    return log


def trailing_companions(rng: random.Random) -> tuple[ProximityLog, str, list[Fingerprint]]:
    """A querying device, and companions that copied its radio view for its
    last few samples, a different number each, so that lookbacks of
    different lengths find different groups. Gaps of 1, 2 or 5 s let short
    session gaps split the device's history into visits."""
    user = DEVICE_POOL[0]
    t, times = 0.0, []
    for _ in range(rng.randint(2, 8)):
        times.append(t)
        t += rng.choice([1.0, 2.0, 5.0])
    views = [random_snapshot(rng) for _ in times]
    log = ProximityLog()
    for t, env in zip(times, views):
        log.ingest(user, Fingerprint(t, env))
    for device in DEVICE_POOL[1 : rng.randint(2, 6)]:
        since = rng.randrange(len(times))
        for k, (t, env) in enumerate(zip(times, views)):
            log.ingest(device, Fingerprint(t - rng.uniform(0.0, 0.3), env if k >= since else random_snapshot(rng)))
    return log, user, log.track(user).samples


class TestSharing:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rules=_rulesets,
        pick=st.integers(0, 7),
        session_gap=st.sampled_from([1.5, 3.0, 1800.0]),
    )
    # Seed 2 puts three companions in the last 3 s and none over 60 s, so a
    # scan shared between lookbacks, or keyed by n, changes the answers.
    @example(
        seed=2,
        rules=(
            Rule("short", InGroupOf(3, 3), "s"),
            Rule("long", InGroupOf(3, 60), "l"),
            Rule("pair", And(InGroupOf(2, 60), Not(InGroupOf(2, 3))), "p"),
        ),
        pick=7,
        session_gap=1800.0,
    )
    # Seed 1 at t=6 has an own sample at 5, exactly 1 s back, where one of
    # four companions drops; the 1 s lookback must leave it out.
    @example(
        seed=1,
        rules=(
            Rule("five", InGroupOf(5, 1), "5"),
            Rule("four", InGroupOf(4, 1), "4"),
            Rule("long", InGroupOf(2, 10), "l"),
        ),
        pick=2,
        session_gap=1800.0,
    )
    # Seed 0 at t=16 with min_steps=2 has no own sample in the last 1 s but
    # one at 14, so only the 3 s lookback has enough evidence for its member.
    @example(
        seed=0,
        rules=(Rule("short", InGroupOf(2, 1), "s"), Rule("long", InGroupOf(2, 3), "l")),
        pick=7,
        session_gap=1800.0,
    )
    # Seed 0 at t=16 loses its last candidate at 12, between the 3 s and the
    # 10 s horizons, so the walk stops there and the 3 s lookback keeps it.
    @example(
        seed=0,
        rules=(
            Rule("short", InGroupOf(2, 3), "s"),
            Rule("long", InGroupOf(2, 10), "l"),
            Rule("both", And(InGroupOf(2, 3), Not(InGroupOf(2, 10))), "b"),
        ),
        pick=7,
        session_gap=1800.0,
    )
    def test_eval_rules_matches_fresh_calls(self, seed, rules, pick, session_gap):
        rng = random.Random(seed)
        log, user, samples = trailing_companions(rng)
        # `now` on a logged sample, often with later samples after it.
        now = samples[pick % len(samples)]
        ctx = make_ctx(
            now.env,
            device=user,
            now=now.t,
            log=log,
            session_gap=session_gap,
            time_of_day=0,
            config=EngineConfig(delta=0.5, omega=rng.choice([5.0, 10.0]), min_steps=rng.choice([1, 2])),
        )
        expected = [(r.rule_id, r.content) for r in rules if leafwise(r.condition, ctx)]
        assert eval_rules(rules, ctx) == expected

    def test_one_walk_per_evaluation_and_one_visit_check(self, monkeypatch):
        devices = ["02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"]
        log = walking_together(devices, 0.0, 600.0)
        walks, checks = [], []
        walk, visited = groups._walk, rule_engine._had_previous_visit_overlap

        def counting_walk(log, user, t0, *rest):
            walks.append(t0 - rest[-1])
            return walk(log, user, t0, *rest)

        def counting_check(ctx):
            checks.append(ctx.now)
            return visited(ctx)

        monkeypatch.setattr(groups, "_walk", counting_walk)
        monkeypatch.setattr(rule_engine, "_had_previous_visit_overlap", counting_check)
        ctx = make_ctx(snapshot({X: -50}), now=600.0, log=log, time_of_day=12 * 60)
        fired = eval_rules(parse_rules(_SHARED_RULES), ctx)
        assert [rule_id for rule_id, _ in fired] == ["welcome", "squad", "pair", "crew"]
        # One walk, back to the longest lookback, answers the 60 s rules too.
        assert walks == [300.0]
        assert checks == [600.0]

    def test_nothing_is_kept_across_calls(self):
        log = walking_together(["02:00:00:00:00:01", "02:00:00:00:00:02"], 0.0, 600.0)
        rules = parse_rules("RULE trio: IF IN_GROUP_OF(3, 60) THEN 'x'")
        ctx = make_ctx(snapshot({X: -50}), now=600.0, log=log)
        assert eval_rules(rules, ctx) == []
        for t in range(0, 601, 10):
            put(log, "02:00:00:00:00:03", float(t), {X: -52})
        assert eval_rules(rules, ctx) == [("trio", "x")]


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
