"""Production rules over proximity context.

Rules pair a condition on a device's current radio view (and its history)
with an opaque content payload to deliver when the condition holds. One
rule per statement:

    RULE <id> : IF <expr> THEN <quoted-string>
    <expr> := <term> | <expr> AND <expr> | <expr> OR <expr>
            | NOT <expr> | ( <expr> )
    <term> := IS_VISIBLE('<net>') | NOT_VISIBLE('<net>')
            | CLOSE_THAN('<net>', '<net>')
            | FIRST_VISIT() | FOLLOW_UP_VISIT()
            | TIME_WITHIN('HH:MM', 'HH:MM') | TIME() <relop> 'HH:MM'
            | IN_GROUP_OF(<n>, <seconds>)

AND binds tighter than OR, NOT tighter than both. A <net> reference names a
network by ssid text, or by hardware address when it is shaped like one
(12 hex digits with separators). Strings take single or double quotes with
backslash escapes.

Predicate semantics live in eval_predicate; evaluation never raises on
odd context (no visible networks, unknown device, empty history), it just
answers False, so a rule server can evaluate any ruleset against any
snapshot. Thresholds that tune group discovery (time and RSSI tolerances)
are engine configuration, not rule text: rule authors say "n devices over
the last t seconds" and operators own the radio calibration.

Within one eval_rules call the rules share their costly answers: one group
walk and one visit check for FIRST_VISIT and FOLLOW_UP_VISIT. Lookbacks
nest, so the walk goes back to the ruleset's longest IN_GROUP_OF lookback
and answers every lookback and every group size n from what it recorded,
exactly as a scan per lookback would. The trade-off: a ruleset whose longest
lookback sits behind a rarely true guard now walks that far whenever any
group predicate is evaluated, though the walk still stops when its
candidates run out. Each shared answer is made on first need and dropped
when the call returns; nothing is kept across calls, since the log may
change between evaluations.

Rulesets are immutable after parsing and evaluation is pure, so one parsed
ruleset may serve concurrent evaluations against a shared log snapshot.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from . import groups
from .errors import DuplicateRuleIdError, RuleSyntaxError
# rules.in_group_of stays bound because perfbench/tracing.py wraps it by that
# name. Evaluation calls groups._walk through the module instead, to share one
# walk between all its lookbacks.
from .groups import check_thresholds, in_group_of
from .proximity import (
    DeviceId,
    EnvironmentSnapshot,
    ProximityLog,
    canonical_id,
    finite_time,
    looks_like_hw_addr,
)

RELATIONS = ("<", "<=", "=", ">=", ">")


# --- Condition AST -----------------------------------------------------------


class Predicate:
    """Base class for condition nodes; subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class IsVisible(Predicate):
    network: str


@dataclass(frozen=True)
class NotVisible(Predicate):
    network: str


@dataclass(frozen=True)
class CloseThan(Predicate):
    near: str
    far: str


@dataclass(frozen=True)
class FirstVisit(Predicate):
    pass


@dataclass(frozen=True)
class FollowUpVisit(Predicate):
    pass


@dataclass(frozen=True)
class TimeWithin(Predicate):
    """Half-open daily window [start, end) in minutes since midnight;
    wraps past midnight when end < start."""

    start: int
    end: int


@dataclass(frozen=True)
class TimeCompare(Predicate):
    relation: str
    minutes: int


@dataclass(frozen=True)
class InGroupOf(Predicate):
    """At least n devices, the querying one included, over the last t seconds."""

    n: int
    t: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate


@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate


@dataclass(frozen=True)
class Rule:
    rule_id: str
    condition: Predicate
    content: str


# --- Tokenizer ---------------------------------------------------------------

_KEYWORDS = {
    "RULE",
    "IF",
    "THEN",
    "AND",
    "OR",
    "NOT",
    "IS_VISIBLE",
    "NOT_VISIBLE",
    "CLOSE_THAN",
    "FIRST_VISIT",
    "FOLLOW_UP_VISIT",
    "TIME_WITHIN",
    "TIME",
    "IN_GROUP_OF",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword text itself, or 'ident', 'int', 'string', symbol text
    text: str
    value: object
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch in "'\"":
            quote = ch
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or text[i] == "\n":
                    raise RuleSyntaxError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise RuleSyntaxError("unterminated string", start_line, start_col)
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == quote:
                    i += 1
                    col += 1
                    break
                buf.append(c)
                i += 1
                col += 1
            tokens.append(_Token("string", "".join(buf), "".join(buf), start_line, start_col))
            continue
        m = _WORD.match(text, i)
        if m:
            word = m.group(0)
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, word, start_line, start_col))
            i = m.end()
            col += len(word)
            continue
        m = _INT.match(text, i)
        if m:
            digits = m.group(0)
            # A lookback is used as float seconds, so literals must fit a float.
            try:
                value = int(digits)
                float(value)
            except (ValueError, OverflowError):
                raise RuleSyntaxError(
                    f"integer literal of {len(digits)} digits is out of range",
                    start_line,
                    start_col,
                ) from None
            tokens.append(_Token("int", digits, value, start_line, start_col))
            i = m.end()
            col += len(digits)
            continue
        two = text[i : i + 2]
        if two in ("<=", ">="):
            tokens.append(_Token(two, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "():,<>=":
            tokens.append(_Token(ch, ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise RuleSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("eof", "", None, line, col))
    return tokens


# --- Parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or kind
            raise RuleSyntaxError(
                f"expected {wanted}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def parse_ruleset(self) -> tuple[Rule, ...]:
        rules: list[Rule] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            rule = self.parse_rule()
            if rule.rule_id in seen:
                raise DuplicateRuleIdError(f"duplicate rule id {rule.rule_id!r}")
            seen.add(rule.rule_id)
            rules.append(rule)
        return tuple(rules)

    def parse_rule(self) -> Rule:
        self.expect("RULE")
        rule_id = self.expect("ident", "rule id").text
        self.expect(":")
        self.expect("IF")
        condition = self.parse_expr()
        self.expect("THEN")
        content = self.expect("string", "quoted content").text
        return Rule(rule_id=rule_id, condition=condition, content=content)

    def parse_expr(self) -> Predicate:
        node = self.parse_and()
        while self.peek().kind == "OR":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Predicate:
        node = self.parse_unary()
        while self.peek().kind == "AND":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Predicate:
        if self.peek().kind == "NOT":
            self.advance()
            return Not(self.parse_unary())
        if self.peek().kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        return self.parse_term()

    def parse_term(self) -> Predicate:
        tok = self.peek()
        if tok.kind == "IS_VISIBLE":
            return IsVisible(self._one_string())
        if tok.kind == "NOT_VISIBLE":
            return NotVisible(self._one_string())
        if tok.kind == "CLOSE_THAN":
            self.advance()
            self.expect("(")
            near = self.expect("string", "network name").text
            self.expect(",")
            far = self.expect("string", "network name").text
            self.expect(")")
            return CloseThan(near, far)
        if tok.kind == "FIRST_VISIT":
            self._empty_args()
            return FirstVisit()
        if tok.kind == "FOLLOW_UP_VISIT":
            self._empty_args()
            return FollowUpVisit()
        if tok.kind == "TIME_WITHIN":
            self.advance()
            self.expect("(")
            start = self._time_literal()
            self.expect(",")
            end = self._time_literal()
            self.expect(")")
            return TimeWithin(start, end)
        if tok.kind == "TIME":
            self._empty_args()
            rel = self.peek()
            if rel.kind not in RELATIONS:
                raise RuleSyntaxError(
                    f"expected comparison after TIME(), found {rel.text!r}",
                    rel.line,
                    rel.column,
                )
            self.advance()
            return TimeCompare(rel.kind, self._time_literal())
        if tok.kind == "IN_GROUP_OF":
            self.advance()
            self.expect("(")
            n_tok = self.expect("int", "group size")
            self.expect(",")
            t_tok = self.expect("int", "lookback seconds")
            self.expect(")")
            if n_tok.value < 1:
                raise RuleSyntaxError("group size must be at least 1", n_tok.line, n_tok.column)
            if t_tok.value <= 0:
                raise RuleSyntaxError("lookback must be positive", t_tok.line, t_tok.column)
            return InGroupOf(n=n_tok.value, t=t_tok.value)
        raise RuleSyntaxError(
            f"expected a condition, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def _one_string(self) -> str:
        self.advance()
        self.expect("(")
        value = self.expect("string", "network name").text
        self.expect(")")
        return value

    def _empty_args(self) -> None:
        self.advance()
        self.expect("(")
        self.expect(")")

    def _time_literal(self) -> int:
        tok = self.expect("string", "'HH:MM' time")
        m = re.fullmatch(r"(\d{1,2}):(\d{2})", tok.text)
        if not m:
            raise RuleSyntaxError(f"bad time {tok.text!r}, want 'HH:MM'", tok.line, tok.column)
        hours, minutes = int(m.group(1)), int(m.group(2))
        if hours > 23 or minutes > 59:
            raise RuleSyntaxError(f"time {tok.text!r} out of range", tok.line, tok.column)
        return hours * 60 + minutes


def parse_rules(text: str) -> tuple[Rule, ...]:
    """Parse rule statements; empty input gives an empty ruleset."""
    return _Parser(_tokenize(text)).parse_ruleset()


# --- Printer -----------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4


def _quote(value: str, quote: str = "'") -> str:
    body = value.replace("\\", "\\\\").replace(quote, "\\" + quote)
    return f"{quote}{body}{quote}"


def _minutes_text(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _prec(p: Predicate) -> int:
    if isinstance(p, Or):
        return _PREC_OR
    if isinstance(p, And):
        return _PREC_AND
    if isinstance(p, Not):
        return _PREC_NOT
    return _PREC_ATOM


def _render(p: Predicate, floor: int) -> str:
    if isinstance(p, Or):
        text = f"{_render(p.left, _PREC_OR)} OR {_render(p.right, _PREC_OR + 1)}"
    elif isinstance(p, And):
        text = f"{_render(p.left, _PREC_AND)} AND {_render(p.right, _PREC_AND + 1)}"
    elif isinstance(p, Not):
        text = f"NOT {_render(p.operand, _PREC_NOT)}"
    elif isinstance(p, IsVisible):
        text = f"IS_VISIBLE({_quote(p.network)})"
    elif isinstance(p, NotVisible):
        text = f"NOT_VISIBLE({_quote(p.network)})"
    elif isinstance(p, CloseThan):
        text = f"CLOSE_THAN({_quote(p.near)}, {_quote(p.far)})"
    elif isinstance(p, FirstVisit):
        text = "FIRST_VISIT()"
    elif isinstance(p, FollowUpVisit):
        text = "FOLLOW_UP_VISIT()"
    elif isinstance(p, TimeWithin):
        text = f"TIME_WITHIN({_quote(_minutes_text(p.start))}, {_quote(_minutes_text(p.end))})"
    elif isinstance(p, TimeCompare):
        text = f"TIME() {p.relation} {_quote(_minutes_text(p.minutes))}"
    elif isinstance(p, InGroupOf):
        text = f"IN_GROUP_OF({p.n}, {p.t})"
    else:
        raise TypeError(f"not a predicate: {p!r}")
    if _prec(p) < floor:
        return f"({text})"
    return text


def format_predicate(p: Predicate) -> str:
    return _render(p, _PREC_OR)


def format_rules(rules: tuple[Rule, ...] | list[Rule]) -> str:
    """Render a ruleset so that parse(format(rules)) is structurally equal."""
    return "\n".join(
        "RULE {}: IF {} THEN {}".format(
            r.rule_id, format_predicate(r.condition), _quote(r.content, quote='"')
        )
        for r in rules
    )


# --- Evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """Operator-tuned thresholds used when rules delegate to group discovery.

    delta/omega are the time and RSSI tolerances handed to the group scan;
    min_steps is its evidence floor.
    """

    delta: float = 2.0
    omega: float = 10.0
    min_steps: int = 2

    def __post_init__(self):
        check_thresholds(self.delta, self.omega, self.min_steps)


@dataclass(frozen=True)
class EvalContext:
    """Everything a condition may look at for one device at one moment.

    current is the device's radio view at now (the live snapshot or the
    logged sample); log carries its history. now must be finite. time_of_day,
    in minutes since midnight, is derived from now unless set explicitly
    (set it when `now` is not epoch-based).
    """

    device: DeviceId
    now: float
    current: EnvironmentSnapshot
    log: ProximityLog
    session_gap: float = 1800.0
    time_of_day: int | None = None
    config: EngineConfig = EngineConfig()

    def __post_init__(self):
        object.__setattr__(self, "device", canonical_id(self.device))
        object.__setattr__(self, "now", finite_time(self.now, "now"))
        if not self.session_gap > 0:
            raise ValueError(f"session_gap must be positive, got {self.session_gap}")
        if self.time_of_day is not None and not 0 <= self.time_of_day < 1440:
            raise ValueError(f"time_of_day out of range: {self.time_of_day}")

    def minutes_of_day(self) -> int:
        if self.time_of_day is not None:
            return self.time_of_day
        return int(self.now % 86400.0) // 60


def _matching_levels(network: str, env: EnvironmentSnapshot) -> list[int]:
    """RSSI values of observations matching a network reference.

    Hardware-address-shaped references match bssid; anything else matches
    ssid text exactly (several access points may share an ssid).
    """
    if looks_like_hw_addr(network):
        level = env.rssi(network)
        return [] if level is None else [level]
    return [o.rssi for o in env.observations if o.ssid == network]


_sample_time = attrgetter("t")


def _had_previous_visit_overlap(ctx: EvalContext) -> bool:
    """True when some currently visible AP was also seen on an earlier visit.

    Walking back from now, samples chained by gaps of at most session_gap
    form the current visit (a sample exactly at now belongs to it); anything
    before the first longer gap belongs to previous visits.
    """
    current_ids = ctx.current.bssids
    if not current_ids or ctx.device not in ctx.log:
        return False
    samples = ctx.log.track(ctx.device).samples
    i = bisect_right(samples, ctx.now, key=_sample_time) - 1
    edge = ctx.now
    while i >= 0 and edge - samples[i].t <= ctx.session_gap:
        edge = samples[i].t
        i -= 1
    for j in range(i, -1, -1):
        if not current_ids.isdisjoint(samples[j].env.levels):
            return True
    return False


def _longest_lookback(p: Predicate) -> int:
    """The longest IN_GROUP_OF lookback in a condition, 0 when it has none."""
    if isinstance(p, (And, Or)):
        return max(_longest_lookback(p.left), _longest_lookback(p.right))
    if isinstance(p, Not):
        return _longest_lookback(p.operand)
    return p.t if isinstance(p, InGroupOf) else 0


class _Shared:
    """Answers the predicates of one eval_rules call share.

    rules is the ruleset under evaluation; walk is the group walk back to
    its longest IN_GROUP_OF lookback, and visited the visit check's answer,
    once made. eval_rules makes one per call and keeps none, because the
    log may change between evaluations.
    """

    __slots__ = ("rules", "walk", "visited")

    def __init__(self, rules: tuple[Rule, ...] | list[Rule] = ()) -> None:
        self.rules = rules
        self.walk: groups._Walk | None = None
        self.visited: bool | None = None


def eval_predicate(p: Predicate, ctx: EvalContext, shared: _Shared | None = None) -> bool:
    """Evaluate one condition; never raises on odd context, answers False.

    shared is eval_rules' per-call memo; a call without it makes its own, so
    answers are never shared with another call.
    """
    if shared is None:
        shared = _Shared()
    if isinstance(p, And):
        return eval_predicate(p.left, ctx, shared) and eval_predicate(p.right, ctx, shared)
    if isinstance(p, Or):
        return eval_predicate(p.left, ctx, shared) or eval_predicate(p.right, ctx, shared)
    if isinstance(p, Not):
        return not eval_predicate(p.operand, ctx, shared)
    if isinstance(p, IsVisible):
        return bool(_matching_levels(p.network, ctx.current))
    if isinstance(p, NotVisible):
        return not _matching_levels(p.network, ctx.current)
    if isinstance(p, CloseThan):
        near = _matching_levels(p.near, ctx.current)
        if not near:
            return False
        far = _matching_levels(p.far, ctx.current)
        return not far or max(near) > max(far)
    if isinstance(p, (FirstVisit, FollowUpVisit)):
        if shared.visited is None:
            shared.visited = _had_previous_visit_overlap(ctx)
        return shared.visited if isinstance(p, FollowUpVisit) else not shared.visited
    if isinstance(p, TimeWithin):
        tod = ctx.minutes_of_day()
        if p.start <= p.end:
            return p.start <= tod < p.end
        return tod >= p.start or tod < p.end
    if isinstance(p, TimeCompare):
        tod = ctx.minutes_of_day()
        return {
            "<": tod < p.minutes,
            "<=": tod <= p.minutes,
            "=": tod == p.minutes,
            ">=": tod >= p.minutes,
            ">": tod > p.minutes,
        }[p.relation]
    if isinstance(p, InGroupOf):
        if len(ctx.current) == 0:
            return False
        config = ctx.config
        if shared.walk is None:
            longest = max([p.t, *(_longest_lookback(r.condition) for r in shared.rules)])
            shared.walk = groups._walk(
                ctx.log, ctx.device, ctx.now, ctx.current, config.delta, config.omega, ctx.now - longest
            )
        return len(shared.walk.members(ctx.now - p.t, config.min_steps)) + 1 >= p.n
    raise TypeError(f"not a predicate: {p!r}")


def eval_rules(
    rules: tuple[Rule, ...] | list[Rule], ctx: EvalContext
) -> list[tuple[str, str]]:
    """(rule id, content) for every rule whose condition holds, in order.

    The rules share one group walk, back to their longest IN_GROUP_OF
    lookback, and one visit check, each made on first need; nothing
    outlives the call.
    """
    shared = _Shared(rules)
    return [(r.rule_id, r.content) for r in rules if eval_predicate(r.condition, ctx, shared)]
