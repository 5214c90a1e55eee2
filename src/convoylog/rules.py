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

AND binds tighter than OR, NOT tighter than both. A condition nests at most
MAX_NESTING levels deep, counting parentheses, NOT and each AND or OR. A
<net> reference names a network by ssid text, or by hardware address when it
is shaped like one (12 hex digits with separators). Strings take single or
double quotes. A backslash escapes any character, a line break included; a
string holds no unescaped line break.

Predicate semantics live in eval_predicate, which finds each node's
evaluator in one table keyed by the node's type. Evaluation never raises on
odd context (no visible networks, unknown device, empty history), it just
answers False, so a rule server can evaluate any ruleset against any
snapshot. A node is checked when it is built instead: a field that its text
cannot carry (a relation outside RELATIONS, minutes that are not an int in
[0, 1440), a network that is not a str) is a ValueError. What the ruleset
fixes is settled then too, so an evaluation does only the work that
depends on its context: each network reference is resolved once, to a
canonical bssid or to ssid text; TimeCompare holds its operator; and each
node knows the longest IN_GROUP_OF lookback within it. Thresholds that tune
group discovery (time and RSSI tolerances) are engine configuration, not
rule text: rule authors say "n devices over the last t seconds" and
operators own the radio calibration.

Within one eval_rules call the rules share their costly answers: one group
walk and one visit check for FIRST_VISIT and FOLLOW_UP_VISIT. Lookbacks
nest, so the walk goes back to the ruleset's longest IN_GROUP_OF lookback
and answers every lookback and every group size n from what it recorded,
exactly as a scan per lookback would, counting each lookback's members
without building the set. The trade-off: a ruleset whose longest lookback
sits behind a rarely true guard now walks that far whenever any group
predicate is evaluated, though the walk still stops when its candidates run
out. Each shared answer is made on first need and dropped when the call
returns; nothing is kept across calls, since the log may change between
evaluations.

The visit check finds where the current visit starts by jumps of
session_gap, not sample by sample. From an edge (now, then the oldest
sample reached so far), every sample t with edge - t <= session_gap, as
floats compute it, chains to the edge: edge - t rounds monotonically in t,
so the gap from t to the next newer sample is no larger. One bisect for
edge - session_gap finds the oldest such sample, up to the rounding of that
subtraction, and a step at a time with the test itself corrects it. On
seed 1 of the benchmark the sample-by-sample walk stepped back 120 samples
per check on long-history, where the jumps make 2 bisects, and 14-15 on
crowd and live-replay, where they make 1; no correcting step was needed.

Rulesets are immutable after parsing and evaluation is pure, so one parsed
ruleset may serve concurrent evaluations against a shared log snapshot.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from operator import attrgetter, eq, ge, gt, le, lt
from typing import Any, NamedTuple

from . import groups
from .errors import DuplicateRuleIdError, RuleSyntaxError, check_count, check_threshold, finite
# rules.in_group_of stays bound because perfbench/tracing.py wraps it by that
# name. Evaluation calls groups._walk through the module instead, to share one
# walk between all its lookbacks.
from .groups import check_thresholds, in_group_of
from .proximity import (
    DeviceId,
    EnvironmentSnapshot,
    ProximityLog,
    canonical_id,
    looks_like_hw_addr,
)

RELATIONS = ("<", "<=", "=", ">=", ">")
_COMPARE = dict(zip(RELATIONS, (lt, le, eq, ge, gt)))


def _check_minutes(value: int, name: str) -> None:
    """ValueError unless value is an int, not a bool, in [0, 1440): a time
    of day in minutes since midnight, as 'HH:MM' writes it."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1440:
        raise ValueError(f"{name} must be minutes since midnight, an integer in [0, 1440), got {value!r}")


class _Network(NamedTuple):
    """A network reference resolved once: a canonical bssid, or ssid text."""

    key: str
    by_bssid: bool


def _network(reference: str) -> _Network:
    if not isinstance(reference, str):
        raise ValueError(f"network must be a string, got {reference!r}")
    if looks_like_hw_addr(reference):
        return _Network(canonical_id(reference), True)
    return _Network(reference, False)


# --- Condition AST -----------------------------------------------------------


class Predicate:
    """Base class for condition nodes; subclasses are frozen dataclasses.

    Fields that evaluation reads but rule text does not write are settled in
    __post_init__ (init=False, compare=False): a term's resolved networks,
    TimeCompare's operator, and _lookback, the longest IN_GROUP_OF lookback
    within the node (0 when it has none).
    """

    __slots__ = ()
    _lookback = 0


def _longest_lookback(*operands: Predicate) -> int:
    """The longest IN_GROUP_OF lookback among a node's operands."""
    for p in operands:
        if not isinstance(p, Predicate):
            raise TypeError(f"not a predicate: {p!r}")
    return max(p._lookback for p in operands)


@dataclass(frozen=True)
class IsVisible(Predicate):
    network: str
    _network: _Network = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_network", _network(self.network))


@dataclass(frozen=True)
class NotVisible(Predicate):
    network: str
    _network: _Network = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_network", _network(self.network))


@dataclass(frozen=True)
class CloseThan(Predicate):
    near: str
    far: str
    _near: _Network = field(init=False, repr=False, compare=False)
    _far: _Network = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_near", _network(self.near))
        object.__setattr__(self, "_far", _network(self.far))


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

    def __post_init__(self):
        _check_minutes(self.start, "start")
        _check_minutes(self.end, "end")


@dataclass(frozen=True)
class TimeCompare(Predicate):
    relation: str
    minutes: int
    _compare: Callable[[int, int], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.relation not in _COMPARE:
            raise ValueError(f"relation must be one of {', '.join(RELATIONS)}, got {self.relation!r}")
        _check_minutes(self.minutes, "minutes")
        object.__setattr__(self, "_compare", _COMPARE[self.relation])


@dataclass(frozen=True)
class InGroupOf(Predicate):
    """At least n devices, the querying one included, over the last t seconds."""

    n: int
    t: int
    _lookback: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Both print as integer literals, which must fit a float (_tokenize),
        # and t is used as float seconds.
        for name in ("n", "t"):
            value = getattr(self, name)
            check_count(value, name)
            finite(value, name)
        object.__setattr__(self, "_lookback", self.t)


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate
    _lookback: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookback", _longest_lookback(self.left, self.right))


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate
    _lookback: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookback", _longest_lookback(self.left, self.right))


@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate
    _lookback: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookback", _longest_lookback(self.operand))


@dataclass(frozen=True)
class Rule:
    rule_id: str
    condition: Predicate
    content: str


# --- Terms -------------------------------------------------------------------


def _quote(value: str, quote: str = "'") -> str:
    """value as a string literal: a backslash goes before each backslash,
    quote and line break in it."""
    body = value.replace("\\", "\\\\").replace(quote, "\\" + quote).replace("\n", "\\\n")
    return f"{quote}{body}{quote}"


def _minutes(text: str) -> int:
    """Minutes since midnight of an 'HH:MM' time; ValueError when malformed."""
    m = re.fullmatch(r"(\d{1,2}):(\d{2})", text)
    if not m:
        raise ValueError(f"bad time {text!r}, want 'HH:MM'")
    hours, minutes = int(m.group(1)), int(m.group(2))
    if hours > 23 or minutes > 59:
        raise ValueError(f"time {text!r} out of range")
    return hours * 60 + minutes


class _Arg(NamedTuple):
    """How a term writes one argument.

    It is a token of kind, called what in "expected ..." errors; read turns
    the token's text into the field value (ValueError when malformed) and
    show turns the value back into text. too_small is set for an integer
    that must be at least 1: the error for a smaller one, raised once the
    term's closing parenthesis is read.
    """

    kind: str
    what: str
    read: Callable[[str], object]
    show: Callable[[object], str]
    too_small: str | None = None


_NETWORK = _Arg("string", "network name", str, _quote)
_TIME = _Arg("string", "'HH:MM' time", _minutes, lambda m: _quote(f"{m // 60:02d}:{m % 60:02d}"))

# Every call-style term: its keyword, its predicate class and how it writes
# each of the class's fields, in order. The keyword set, the parser and the
# printer all read this table; only TIME() <relation> 'HH:MM' is written
# otherwise.
_TERMS: dict[str, tuple[type[Predicate], tuple[_Arg, ...]]] = {
    "IS_VISIBLE": (IsVisible, (_NETWORK,)),
    "NOT_VISIBLE": (NotVisible, (_NETWORK,)),
    "CLOSE_THAN": (CloseThan, (_NETWORK, _NETWORK)),
    "FIRST_VISIT": (FirstVisit, ()),
    "FOLLOW_UP_VISIT": (FollowUpVisit, ()),
    "TIME_WITHIN": (TimeWithin, (_TIME, _TIME)),
    "IN_GROUP_OF": (
        InGroupOf,
        (
            _Arg("int", "group size", int, str, "group size must be at least 1"),
            _Arg("int", "lookback seconds", int, str, "lookback must be positive"),
        ),
    ),
}
_TERM_OF = {cls: (keyword, args) for keyword, (cls, args) in _TERMS.items()}


# --- Tokenizer ---------------------------------------------------------------

_KEYWORDS = {"RULE", "IF", "THEN", "AND", "OR", "NOT", "TIME", *_TERMS}

# One alternative per kind of token, tried in order. A string ends at its
# first unescaped quote and holds no unescaped line break; a quote that
# starts no such string is unterminated.
_TOKEN = re.compile(
    r"""(?P<space>[ \t\r\n]+)
    | (?P<string>'[^'\\\n]*(?:\\.[^'\\\n]*)*'|"[^"\\\n]*(?:\\.[^"\\\n]*)*")
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<symbol><=|>=|[():,<>=])
    | (?P<quote>['"])
    | (?P<other>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword text itself, or 'ident', 'int', 'string', symbol text
    text: str  # a string's value, escapes resolved
    offset: int

    def shown(self) -> str:
        """The token as a "found ..." error names it."""
        if self.kind == "eof":
            return "end of input"
        if self.kind == "string":
            return f"string {_quote(self.text)}"
        return repr(self.text)


def _error(text: str, offset: int, message: str) -> RuleSyntaxError:
    """A RuleSyntaxError at the line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    return RuleSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind, word, at = m.lastgroup, m.group(), m.start()
        if kind == "string":
            tokens.append(_Token(kind, _ESCAPE.sub(r"\1", word[1:-1]), at))
        elif kind == "word":
            tokens.append(_Token(word if word in _KEYWORDS else "ident", word, at))
        elif kind == "int":
            # A lookback is used as float seconds, so literals must fit a float.
            try:
                float(int(word))
            except (ValueError, OverflowError):
                raise _error(text, at, f"integer literal of {len(word)} digits is out of range") from None
            tokens.append(_Token(kind, word, at))
        elif kind == "symbol":
            tokens.append(_Token(word, word, at))
        elif kind == "quote":
            raise _error(text, at, "unterminated string")
        elif kind == "other":
            raise _error(text, at, f"unexpected character {word!r}")
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# --- Parser ------------------------------------------------------------------


# The deepest condition the parser accepts. Each pair of parentheses, each
# NOT and each AND or OR adds a level to everything below it, so a chain of k
# operands takes k - 1 levels. Every reader of the condition tree recurses
# once per level; this keeps them all far from Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parentheses and NOTs around the current token

    def error(self, message: str, tok: _Token) -> RuleSyntaxError:
        return _error(self.text, tok.offset, message)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what or kind}, found {tok.shown()}", tok)
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
        condition, _ = self.parse_expr()
        self.expect("THEN")
        content = self.expect("string", "quoted content").text
        return Rule(rule_id=rule_id, condition=condition, content=content)

    def nest(self, tok: _Token, depth: int) -> int:
        """depth; a RuleSyntaxError at tok when the open levels plus depth
        exceed MAX_NESTING."""
        if self.open + depth > MAX_NESTING:
            raise self.error(f"condition nests deeper than {MAX_NESTING} levels", tok)
        return depth

    # Each parse_* below returns a condition and its depth in levels.

    def parse_expr(self) -> tuple[Predicate, int]:
        return self.parse_chain("OR", Or, self.parse_and)

    def parse_and(self) -> tuple[Predicate, int]:
        return self.parse_chain("AND", And, self.parse_unary)

    def parse_chain(
        self, op: str, make: type[And] | type[Or], operand: Callable[[], tuple[Predicate, int]]
    ) -> tuple[Predicate, int]:
        node, depth = operand()
        while self.peek().kind == op:
            tok = self.advance()
            right, right_depth = operand()
            node, depth = make(node, right), self.nest(tok, 1 + max(depth, right_depth))
        return node, depth

    def parse_unary(self) -> tuple[Predicate, int]:
        tok = self.peek()
        if tok.kind not in ("NOT", "("):
            return self.parse_term(), 0
        self.advance()
        self.nest(tok, 1)
        self.open += 1
        if tok.kind == "NOT":
            node, depth = self.parse_unary()
            node = Not(node)
        else:
            node, depth = self.parse_expr()
            self.expect(")")
        self.open -= 1
        return node, 1 + depth

    def parse_term(self) -> Predicate:
        tok = self.advance()
        if tok.kind == "TIME":
            self.expect("(")
            self.expect(")")
            rel = self.advance()
            if rel.kind not in RELATIONS:
                raise self.error(f"expected comparison after TIME(), found {rel.shown()}", rel)
            return TimeCompare(rel.kind, self.argument(_TIME)[1])
        if tok.kind not in _TERMS:
            raise self.error(f"expected a condition, found {tok.shown()}", tok)
        cls, args = _TERMS[tok.kind]
        self.expect("(")
        read: list[tuple[_Token, object]] = []
        for arg in args:
            if read:
                self.expect(",")
            read.append(self.argument(arg))
        self.expect(")")
        for arg, (arg_tok, value) in zip(args, read):
            if arg.too_small and value < 1:
                raise self.error(arg.too_small, arg_tok)
        return cls(*(value for _, value in read))

    def argument(self, arg: _Arg) -> tuple[_Token, object]:
        tok = self.expect(arg.kind, arg.what)
        try:
            return tok, arg.read(tok.text)
        except ValueError as exc:
            raise self.error(str(exc), tok) from None


def parse_rules(text: str) -> tuple[Rule, ...]:
    """Parse rule statements; empty input gives an empty ruleset."""
    return _Parser(text).parse_ruleset()


# --- Printer -----------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4


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
    elif isinstance(p, TimeCompare):
        text = f"TIME() {p.relation} {_TIME.show(p.minutes)}"
    elif type(p) in _TERM_OF:
        keyword, args = _TERM_OF[type(p)]
        shown = (arg.show(getattr(p, f.name)) for arg, f in zip(args, fields(p)))
        text = f"{keyword}({', '.join(shown)})"
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
    logged sample); log carries its history. now is a time and session_gap a
    threshold (errors module; ValueError otherwise). time_of_day, in minutes
    since midnight, is derived from now unless set explicitly (set it when
    `now` is not epoch-based).
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
        object.__setattr__(self, "now", finite(self.now, "now"))
        check_threshold(self.session_gap, "session_gap")
        if self.time_of_day is not None:
            _check_minutes(self.time_of_day, "time_of_day")

    def minutes_of_day(self) -> int:
        if self.time_of_day is not None:
            return self.time_of_day
        return int(self.now % 86400.0) // 60


def _matching_levels(network: _Network, env: EnvironmentSnapshot) -> list[int]:
    """RSSI values of the observations a network reference matches: the one
    with its bssid, or every one with its ssid (access points may share an
    ssid)."""
    key = network.key
    if network.by_bssid:
        return [o.rssi for o in env.observations if o.bssid == key]
    return [o.rssi for o in env.observations if o.ssid == key]


_sample_time = attrgetter("t")


def _had_previous_visit_overlap(ctx: EvalContext) -> bool:
    """True when some currently visible AP was also seen on an earlier visit.

    Walking back from now, samples chained by gaps of at most session_gap
    form the current visit (a sample exactly at now belongs to it); anything
    before the first longer gap belongs to previous visits. The start of the
    current visit is found by jumps, as the module docstring describes.
    """
    current_ids = ctx.current.bssids
    if not current_ids or ctx.device not in ctx.log:
        return False
    samples = ctx.log.track(ctx.device).samples
    gap = ctx.session_gap
    edge = ctx.now
    # samples[:i] are not yet known to be in the current visit.
    i = bisect_right(samples, edge, key=_sample_time)
    while i:
        j = bisect_left(samples, edge - gap, 0, i, key=_sample_time)
        while j and edge - samples[j - 1].t <= gap:
            j -= 1
        while j < i and edge - samples[j].t > gap:
            j += 1
        if j == i:
            break
        edge, i = samples[j].t, j
    for j in range(i - 1, -1, -1):
        for o in samples[j].env.observations:
            if o.bssid in current_ids:
                return True
    return False


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


def _visited(ctx: EvalContext, shared: _Shared) -> bool:
    if shared.visited is None:
        shared.visited = _had_previous_visit_overlap(ctx)
    return shared.visited


def _close_than(p: CloseThan, ctx: EvalContext, shared: _Shared) -> bool:
    near = _matching_levels(p._near, ctx.current)
    if not near:
        return False
    far = _matching_levels(p._far, ctx.current)
    return not far or max(near) > max(far)


def _time_within(p: TimeWithin, ctx: EvalContext, shared: _Shared) -> bool:
    tod = ctx.minutes_of_day()
    if p.start <= p.end:
        return p.start <= tod < p.end
    return tod >= p.start or tod < p.end


def _in_group_of(p: InGroupOf, ctx: EvalContext, shared: _Shared) -> bool:
    if len(ctx.current) == 0:
        return False
    config = ctx.config
    if shared.walk is None:
        longest = max([p.t, *(r.condition._lookback for r in shared.rules)])
        shared.walk = groups._walk(
            ctx.log, ctx.device, ctx.now, ctx.current, config.delta, config.omega, ctx.now - longest
        )
    return shared.walk.count(ctx.now - p.t, config.min_steps) + 1 >= p.n


# How each kind of node is evaluated. And, Or and Not evaluate their
# operands through the module's eval_predicate, so a wrapper installed there
# (perfbench/tracing.py) sees every node.
_EVALUATE: dict[type[Predicate], Callable[[Any, EvalContext, _Shared], bool]] = {
    And: lambda p, ctx, shared: eval_predicate(p.left, ctx, shared) and eval_predicate(p.right, ctx, shared),
    Or: lambda p, ctx, shared: eval_predicate(p.left, ctx, shared) or eval_predicate(p.right, ctx, shared),
    Not: lambda p, ctx, shared: not eval_predicate(p.operand, ctx, shared),
    IsVisible: lambda p, ctx, shared: bool(_matching_levels(p._network, ctx.current)),
    NotVisible: lambda p, ctx, shared: not _matching_levels(p._network, ctx.current),
    CloseThan: _close_than,
    FirstVisit: lambda p, ctx, shared: not _visited(ctx, shared),
    FollowUpVisit: lambda p, ctx, shared: _visited(ctx, shared),
    TimeWithin: _time_within,
    TimeCompare: lambda p, ctx, shared: p._compare(ctx.minutes_of_day(), p.minutes),
    InGroupOf: _in_group_of,
}


def eval_predicate(p: Predicate, ctx: EvalContext, shared: _Shared | None = None) -> bool:
    """Evaluate one condition; never raises on odd context, answers False.

    shared is eval_rules' per-call memo; a call without it makes its own, so
    answers are never shared with another call.
    """
    if shared is None:
        shared = _Shared()
    try:
        evaluate = _EVALUATE[type(p)]
    except KeyError:
        raise TypeError(f"not a predicate: {p!r}") from None
    return evaluate(p, ctx, shared)


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
