"""Append-only event log plus independent checkers.

The engine emits one event per decision; every run-time-observable claim the
engine is supposed to satisfy is then re-verified here, post hoc, from the
serialized log alone.  Events are plain dicts with stable field names so the
log round-trips through JSON Lines.

``EVENT_SHAPES`` is the one description of an event: per kind, each key
sequence the engine logs, with the shape of each field, or its role where
the walk reads it.  ``EVENT_KINDS`` and ``CREATION_FIELDS`` are read off it,
and the codec and the walk compile its rows (``_Row``).
``Trace.to_jsonl`` renders every event that fits a row through the row's
``%`` template and encodes any other whole, so the bytes are
``json.dumps``'s either way.  ``events_from_jsonl`` reads a line that is
exactly a template's output through the row's line pattern, the template's
inverse, and decodes any other line alone; either way it rejects every line
that does not fit its row exactly.  One walk of the log (``build_registry``)
reads each event by the row its keys fit, and gives the registry of labeled
polynomials, the replay and the damage: an event, in memory too, that fits
no row or fails its row's test.  Every checker, and the descent
(``oracle.DescentRun``), reads the log through that ``Registry`` alone: it
carries the ring, each position's one polynomial and signature, and the
tables the walk fills for the checkers, so nothing reads an event after the
walk, and the walk reads any iterable of events once.
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import permutations
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .poly import (BOUND, FIELD_BITS, Layout, Lazy, Monomial, Polynomial, Ring, overflow_error,
                   poly_axpy, quotient_key)
from .sig import (ReplayedVectors, Signature, check_admissible, key_index, replay_leads,
                  sig_divides, sig_key, sig_mul)


def _fields(spec: str) -> tuple[tuple[str, str], ...]:
    """The (name, shape) of each ``name:shape`` of ``spec``, interned, so a
    name is the key string of every event the reader builds."""
    return tuple(tuple(map(sys.intern, field.split(":"))) for field in spec.split())


# The fields of each event the engine logs, after ``seq`` (an int) and
# ``kind`` (a str), in log order, each as (name, shape).  The shapes are an
# int, a str, an exponent vector (a tuple of ints), a signature ({"mono":
# vector, "index": i}), a polynomial (a list of [c, vector] terms with an int
# c), a trail (a list of reduction steps, each ["monic", s] or [kind, c,
# vector, reductor]) and a list of ints.  A kind has one row per key
# sequence it is logged with.  A rejection has two: one of a candidate
# reductor in ``_is_reducible`` (``where`` "is_reducible", and for a
# rewritten one ``check`` "c" or "d"), listed first, and one of a pair
# (``where`` "crit_pair" or "spol") that also logs the pair's t, u1 and u2.
# Where the walk (``build_registry``) reads a field, its shape is its role,
# which the codec writes as an int, a str or a list of ints (``_WIRE``):
# ``new``, the position the event creates; ``pos``, one an earlier event
# created; ``owner``, one some event creates; ``positions``, a list of
# ``pos``; ``call``, the enclosing ``CallBegin``'s call; ``is(w)``, the
# row's ``where`` w; and a copy of the registry's signature of the position
# in field p, ``sig(p)``, times the vector field u, ``sig(u*p)``, or of its
# index, ``index(p)``.
EVENT_SHAPES = (
    ("CallBegin", _fields("call:int input_pos:new sig:signature poly:polynomial"
                          " g_next:positions")),
    ("CallEnd", _fields("call:call basis:ints")),
    ("DegreeStep", _fields("call:call d:int pairs:int")),
    ("RuleAdded", _fields("index:int mono:vector pos:owner")),
    ("CritPairCreated", _fields("call:call deg:int sig1:sig(u1*p1) sig2:sig(u2*p2)"
                                " t:vector u1:vector p1:pos u2:vector p2:pos")),
    ("F5CritPairReject", _fields("call:call where:is(is_reducible) h:pos h_head:vector cand:pos"
                                 " mult:vector msig:sig(mult*cand) blocked_by:pos")),
    ("F5CritPairReject", _fields("call:call where:is(crit_pair) part:int pos:pos mult:vector"
                                 " msig:sig(mult*pos) blocked_by:pos"
                                 " t:vector u1:vector p1:pos u2:vector p2:pos")),
    ("RewrittenReject", _fields("call:call where:is(is_reducible) check:str h:pos h_head:vector"
                                " cand:pos mult:vector msig:sig(mult*cand) rewriter:pos")),
    ("RewrittenReject", _fields("call:call where:is(spol) part:int pos:pos mult:vector"
                                " msig:sig(mult*pos) rewriter:pos"
                                " t:vector u1:vector p1:pos u2:vector p2:pos")),
    ("SPolCreated", _fields("call:call pos:new sig:signature poly:polynomial"
                            " p1:pos u1:vector p2:pos u2:vector d:int")),
    ("PhiPreReduce", _fields("call:call h:pos h_sig:sig(h) h_index:index(h) reductor:pos"
                             " reductor_index:index(reductor) mult:vector coeff:int")),
    ("ReductionStep", _fields("call:call h:pos h_sig:sig(h) reductor:pos mult:vector"
                              " msig:sig(mult*reductor) coeff:int post_scale:int")),
    ("NewFromTopReduction", _fields("call:call pos:new sig:signature poly:polynomial"
                                    " j:pos h:pos u:vector u_under:vector")),
    ("ReductionToZero", _fields("call:call pos:pos sig:sig(pos)")),
    ("DoneInserted", _fields("call:call pos:pos sig:sig(pos) poly:polynomial"
                             " creation_poly:polynomial trail:trail")),
)
# the shape the codec writes for each role
_WIRE = {"new": "int", "pos": "int", "owner": "int", "call": "int", "positions": "ints",
         "is": "str", "index": "int", "sig": "signature"}
# a shape: its name, a copy's multiplier field and the field or value named
_ROLE = re.compile(r"(\w+)(?:\((?:(\w+)\*)?(\w+)\))?")
# how a message names a wire shape, where it differs from the shape
_SHAPE_NAMES = {"vector": "exponent vector", "ints": "list of ints"}


# each kind once, in the order of its first row
EVENT_KINDS = tuple(dict.fromkeys(kind for kind, _ in EVENT_SHAPES))


class CreationFields(NamedTuple):
    """The payload fields of a kind that creates a labeled polynomial."""

    pos: str  # the new position
    # the greater part, the smaller part and their two multipliers; an input
    # has none
    genealogy: Optional[tuple[str, str, str, str]] = None


# the creation fields of each kind that creates a labeled polynomial: its
# ``new`` field, and its ``pos`` fields, then its vectors
CREATION_FIELDS = {kind: CreationFields(new, tuple(
    name for wanted in ("pos", "vector") for name, shape in fields if shape == wanted) or None)
    for kind, fields in EVENT_SHAPES for new, shape in fields if shape == "new"}

# ``Trace.to_jsonl`` writes this many lines per ``writelines``
_CHUNK_LINES = 1024
# the one shared string of each rejection's ``where`` and of each trail
# step's kind, as the engine's events share them
_VALUES = {value: value for value in ("crit_pair", "spol", "is_reducible", "phi", "top", "monic")}


class _Row(NamedTuple):
    """A row of ``EVENT_SHAPES`` as the JSON Lines codec reads and writes
    it, ``seq`` and ``kind`` first, and as the walk reads it."""

    kind: str
    fields: tuple[tuple[str, str], ...]  # (name, wire shape), in log order
    types: list[type]  # the exact type of each value in memory, in log order
    # the line's ``%`` template, and the positions of the str and vector
    # values, of the signatures, and of the polynomial, trail and int-list
    # values, each replaced by its JSON before the values fill it
    template: str
    atoms: tuple[int, ...]
    sigs: tuple[int, ...]
    encoded: tuple[int, ...]
    # each field's shape in ``EVENT_SHAPES``, by name, the row's ``where``,
    # if it has one, and its test (``_role_check``)
    roles: dict[str, str]
    where: Optional[str]
    check: Callable[..., Optional[str]]


@cache
def _rows() -> dict[tuple[str, ...], _Row]:
    """Each row of ``EVENT_SHAPES``, compiled, by its keys: built once, and
    shared by every caller, which changes nothing in it."""
    types = {"int": int, "str": str, "vector": tuple, "signature": dict}
    rows = {}
    for kind, roles in EVENT_SHAPES:
        fields = (("seq", "int"), ("kind", "str")) + tuple(
            (name, _WIRE.get(shape.split("(")[0], shape)) for name, shape in roles)

        def at(*wanted: str) -> tuple[int, ...]:
            return tuple(i for i, (_, shape) in enumerate(fields) if shape in wanted)

        template = ",".join(f'"{name}":%{"d" if shape == "int" else "s"}' for name, shape in fields)
        where = next((_ROLE.fullmatch(s)[3] for _, s in roles if s[:3] == "is("), None)
        rows[tuple(name for name, _ in fields)] = _Row(
            kind, fields, [types.get(shape, list) for _, shape in fields], "{" + template + "}\n",
            at("str", "vector"), at("signature"), at("polynomial", "trail", "ints"),
            dict(roles), where, _role_check(roles))
    return rows


class BrokenLink(Exception):
    """An ancestor link or rule entry of the registry is missing or
    inconsistent."""


# ---------------------------------------------------------------------------
# payload helpers


def _is_term(term) -> bool:
    """Whether ``term`` of a logged polynomial is a list [c, vector] with
    an int c; the vector is checked where it is read."""
    return type(term) is list and len(term) == 2 and type(term[0]) is int


class Trace:
    """Single-writer event sink; events receive monotone sequence numbers.

    A payload writes a monomial as ``trace.exps[v]``: ``exps`` decodes each
    packed value ``v`` once per run, under ``lay``, the packed form of the
    run's monomials, so every event holding that monomial shares one
    immutable tuple.  It writes the signature of packed monomial ``v`` and
    index ``i`` as ``trace.sigs[i][v]``, one dict per distinct signature of
    the run, which every event holding it shares.  The lists (polynomial
    terms, trail steps, ``g_next``, ``basis``) are fresh per event, so no two
    events share one.  No code mutates a logged event, so nothing it shares
    changes.  A trace that only holds or writes events needs no ``lay``.
    """

    def __init__(self, lay: Optional[Layout] = None):
        self.events: list[dict] = []
        # events logged per kind; an unknown kind raises KeyError at emit
        self.counts: dict[str, int] = dict.fromkeys(EVENT_KINDS, 0)
        exps = self.exps = Lazy(partial(Layout.unpack, lay))
        # neither memo refers to the trace, so a finished run is freed
        # without waiting for the cycle collector
        self.sigs = Lazy(lambda index: Lazy(lambda v: {"mono": exps[v], "index": index}))

    def emit(self, kind: str, **payload) -> int:
        return self.log({"seq": None, "kind": kind, **payload})

    def log(self, event: dict) -> int:
        """Log an event built whole as ``{"seq": None, "kind": kind, ...}``:
        its ``seq`` is set here and its kind counted, as for ``emit``."""
        self.counts[event["kind"]] += 1
        seq = event["seq"] = len(self.events)
        self.events.append(event)
        return seq

    def mono_payload(self, m: Monomial) -> tuple[int, ...]:
        return self.exps[m.v]

    def sig_payload(self, s: Signature) -> dict:
        return self.sigs[s.index][s.mono.v]

    def poly_payload(self, p: Polynomial) -> list:
        exps = self.exps
        return [[c, exps[m.v]] for c, m in p.terms]

    def to_jsonl(self, fp) -> None:
        """Write one compact JSON object per line, a chunk of lines per
        ``writelines``; the bytes equal ``json.dumps(ev, separators=(",",
        ":"))`` plus a newline for each event (``_line_renderer``)."""
        render = _line_renderer()
        events = self.events
        for start in range(0, len(events), _CHUNK_LINES):
            fp.writelines([render(ev) for ev in events[start:start + _CHUNK_LINES]])


def _line_renderer() -> Callable[[object], str]:
    """A function from an event to its line, ``json.dumps(ev,
    separators=(",", ":"))`` and a newline, with memos that live as long as
    the function does.

    An event that is a dict with the keys of a row of ``EVENT_SHAPES``, in
    order, and values of exactly its types (``_Row``) takes the row's
    template.  A str, escaped as the encoder escapes it by default
    (``encode_basestring_ascii``), and a tuple whose elements are all
    exactly ints, is rendered once per object: the memo is keyed by the
    object's id and holds the object, so no id is reused, and a tuple equal
    to one of ints, such as (1.0, 0), is rendered on its own.  A signature
    must have the keys "mono" and "index", in that order, and an int
    index; polynomials, trails and int lists go through the encoder.  Any
    other event, and one whose values fail a check on the way, is encoded
    whole, so its line, or the exception it raises, is the encoder's."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    rows = _rows()
    known: dict[int, str] = {}
    held: list = []
    get = known.get

    def atom(value) -> str:
        kind = type(value)
        if kind is str:
            text = encode_basestring_ascii(value)
        elif kind is tuple and all(type(e) is int for e in value):
            text = "[" + ",".join(map(str, value)) + "]"
        else:
            raise ValueError("not a str or a tuple of ints")
        known[id(value)] = text
        held.append(value)
        return text

    def render(ev) -> str:
        row = rows.get(tuple(ev)) if type(ev) is dict else None
        if row is not None:
            values = list(ev.values())
            if list(map(type, values)) == row.types:
                try:
                    for i in row.atoms:
                        value = values[i]
                        values[i] = get(id(value)) or atom(value)
                    for i in row.sigs:
                        sig = values[i]
                        mono, index = sig.values()
                        if tuple(sig) != ("mono", "index") or type(index) is not int:
                            raise ValueError("not a signature")
                        values[i] = '{"mono":%s,"index":%d}' % (get(id(mono)) or atom(mono), index)
                    for i in row.encoded:
                        values[i] = encode(values[i])
                    return row.template % tuple(values)
                except (TypeError, ValueError, RecursionError):
                    pass  # encoded whole below, which raises if the event cannot be
        return encode(ev) + "\n"

    return render


def events_from_jsonl(fp) -> list[dict]:
    """Read the events ``Trace.to_jsonl`` wrote, one line at a time; blank
    lines are skipped.

    A line that is exactly the one ``to_jsonl`` writes for a row of
    ``EVENT_SHAPES`` with no polynomial, trail or int list is read through
    the row's line pattern (``_event_reader``'s ``parse``).  Any other line
    must hold one JSON object that fits a row (``_decode_line``); otherwise
    ``ValueError`` names the first bad line (1-based).  As in the engine's
    log, each exponent vector becomes a tuple of ints, one per distinct
    vector of the read, whichever way its line was read."""
    read, parse = _event_reader()
    events: list[dict] = []
    for lineno, line in enumerate(fp, 1):
        ev = parse(line)
        if ev is not None:
            events.append(ev)
        elif line.strip():
            events.append(_decode_line(line, lineno, read))
    return events


def _decode_line(line: str, lineno: int, read: Callable[[dict], dict]) -> dict:
    try:
        ev = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        return read(ev)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


# the text of each field of a line that a pattern reads, as to_jsonl writes
# it: a JSON integer; a JSON string with no escape or control character, so
# that the text is the value; an exponent vector or a signature, whose text
# is checked as JSON when it is new to the read
_INT_TEXT = "-?(?:0|[1-9][0-9]*)"
_VECTOR_TEXT = r"\[[0-9,]*\]"
_FIELD_TEXT = {"int": f"({_INT_TEXT})", "str": r'"([^"\\\x00-\x1f]*)"',
               "vector": f"({_VECTOR_TEXT})",
               "signature": r'(\{"mono":' + _VECTOR_TEXT + r',"index":' + _INT_TEXT + r"\})"}
# the value of each field from its text: T maps a vector's text to its
# tuple, G a signature's to its dict, S a str to its shared string
_FIELD_VALUE = {"int": "int({})", "str": "S({0}, {0})", "vector": "T[{}]", "signature": "G[{}]"}


def _line_builder(row: _Row, texts: dict, sig_texts: dict) -> Callable[..., dict]:
    """The function from the texts of a line of ``row``, in log order, to
    its event: one dict literal, generated per row, as ``namedtuple``
    generates its class."""
    args, items = [], []
    for name, shape in row.fields:
        if name == "kind":
            items.append("'kind': kind")
            continue
        args.append(f"_{len(args)}")
        items.append(f"{name!r}: " + _FIELD_VALUE[shape].format(args[-1]))
    source = (f"def make(T, G, S, kind):\n def build({', '.join(args)}):\n"
              f"  return {{{', '.join(items)}}}\n return build\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace["make"](texts, sig_texts, _VALUES.get, row.kind)


def _unfit(kind, ev: dict) -> str:
    """Why the event ``ev``, of ``kind``, fits no row of ``EVENT_SHAPES``."""
    return (f"no {kind} row has the keys {list(ev)}" if kind in EVENT_KINDS
            else f"unknown kind {kind!r}")


def _event_reader() -> tuple[Callable[[dict], dict], Callable[[str], Optional[dict]]]:
    """Two functions of one read: ``read`` checks a decoded object against
    its row of ``EVENT_SHAPES``, by its keys, and gives it with its values
    and keys shared; ``parse`` reads a line through its row's line pattern.

    For ``read``, the kind must be the row's and each value exactly of its
    shape, with vector entries ints from 0 to ``poly.BOUND`` - 1, as many as
    in the first vector read; otherwise ``ValueError`` names the first
    fault.  Each vector becomes a tuple, one per distinct vector, and each
    signature a dict, one per distinct signature; the kind, str fields and
    step kinds become the row's string or ``_VALUES``', if any, and each key
    the row's, which every event of the read shares.

    A row with no polynomial, trail or int list has a line pattern, the
    inverse of its ``_Row.template``: one group per field text after the
    kind.  ``parse`` gives the event of a line that its kind's pattern
    matches, built with no JSON list (``_line_builder``), or None.  A vector
    or signature text new to the read is checked once, by ``read``'s own
    walk, which also gives its tuple or dict; a line with a text that fails
    it gives None, so its error is ``read``'s."""
    shape = None  # [int] per entry of the first vector read: every vector's types

    def exponents(t: tuple) -> tuple:
        if not all(0 <= e < BOUND for e in t):
            raise TypeError
        return t

    memo = Lazy(exponents)

    def vector(value) -> tuple:
        nonlocal shape
        if shape is None and type(value) is list:
            shape = [int] * len(value)
        # every occurrence, before the lookup: a vector with a bool or a
        # float equal to an int (False == 0, 1.0 == 1) finds the tuple of
        # the int vector it equals
        if type(value) is not list or [*map(type, value)] != shape:
            raise TypeError
        return memo[tuple(value)]

    # (vector, index) -> the one dict of that signature in the read
    sigs = Lazy(lambda key: {"mono": key[0], "index": key[1]})

    def signature(value) -> dict:
        if (type(value) is not dict or tuple(value) != ("mono", "index")
                or type(value["index"]) is not int):
            raise TypeError
        return sigs[vector(value["mono"]), value["index"]]

    def polynomial(value) -> list:
        for term in value:
            if not _is_term(term):
                raise TypeError
            term[1] = vector(term[1])
        return value

    def trail(value) -> list:
        for step in value:
            kind = step[0]
            if type(step) is not list or type(kind) is not str or type(step[1]) is not int:
                raise TypeError
            if len(step) == 4 and kind != "monic" and type(step[3]) is int:
                step[2] = vector(step[2])
            elif len(step) != 2 or kind != "monic":
                raise TypeError
            step[0] = _VALUES.get(kind, kind)
        return value

    def ints(value) -> list:
        if not all(type(e) is int for e in value):
            raise TypeError
        return value

    walks = {"str": lambda value: _VALUES.get(value, value), "vector": vector,
             "signature": signature, "polynomial": polynomial, "trail": trail, "ints": ints}
    # each row with its keys and the (name, walk) of each field it walks
    # after ``kind``
    rows = {keys: (row, keys, [(name, walks[shape]) for name, shape in row.fields[2:]
                               if shape in walks])
            for keys, row in _rows().items()}

    def read(ev) -> dict:
        if type(ev) is not dict:
            raise ValueError("not a JSON object")
        kind = ev.get("kind")
        row, keys, walked = rows.get(tuple(ev), (None, (), ()))
        if row is None or kind != row.kind:
            raise ValueError(_unfit(kind, ev))
        ev["kind"] = row.kind
        try:
            for name, walk in walked:
                ev[name] = walk(ev[name])
            if list(map(type, ev.values())) != row.types:
                name = next(name for name, t in zip(ev, row.types) if type(ev[name]) is not t)
                raise TypeError
        except (TypeError, KeyError, IndexError):
            shape = dict(row.fields)[name]
            shape = _SHAPE_NAMES.get(shape, shape)
            raise ValueError(f"field {name!r} is not a valid {shape}") from None
        return dict(zip(keys, ev.values()))

    texts = Lazy(lambda text: vector(json.loads(text)))

    def signature_text(text: str) -> dict:
        # the pattern's text {"mono":V,"index":I}, with V a vector text
        mono, index = text[8:-1].split(',"index":')
        return sigs[texts[mono], int(index)]

    sig_texts = Lazy(signature_text)
    # kind -> (fullmatch, build) of each of its rows with a line pattern, the
    # last row of EVENT_SHAPES first: a rejection's pair row, which most of
    # a log's rejections fit
    patterns: dict[str, list[tuple[Callable, Callable[..., dict]]]] = {}
    for row, _, _ in rows.values():
        if not row.encoded:
            pattern = ",".join(f'"{name}":' + (re.escape(encode_basestring_ascii(row.kind))
                                               if name == "kind" else _FIELD_TEXT[shape])
                               for name, shape in row.fields)
            patterns.setdefault(row.kind, []).insert(0, (
                re.compile(r"\{" + pattern + r"\}\n?").fullmatch,
                _line_builder(row, texts, sig_texts)))

    def parse(line: str) -> Optional[dict]:
        # the kind is the text after the first '"kind":"'; the kind's
        # patterns match a whole line or none of it
        start = line.find('"kind":"') + 8
        for match, build in patterns.get(line[start:line.find('"', start)], ()):
            found = match(line)
            if found:
                try:
                    return build(*found.groups())
                except (TypeError, ValueError):  # a vector text that fails the walk
                    return None
        return None

    return read, parse


def _mistyped(ev: dict) -> Optional[str]:
    """Why ``events_from_jsonl`` rejects the line of the event ``ev``, whose
    keys fit a row, or None: a field with a value of the wrong type, named
    as the reader names it, after the kind.  A value that cannot be written
    as JSON reads as null, which no shape takes."""

    def as_json(value):
        try:
            return json.loads(json.dumps(value))
        except (TypeError, ValueError, RecursionError):
            return None

    try:
        _event_reader()[0]({name: as_json(value) for name, value in ev.items()})
    except ValueError as exc:
        return f"{ev['kind']} {exc}"
    return None


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" first_failure={self.failures[0]}" if self.failures else ""
        return f"{self.name}: {status} ({self.checked} checked){extra}"


def _report(name: str, checked: int, failures: list) -> CheckReport:
    return CheckReport(name, not failures, checked, failures)


# ---------------------------------------------------------------------------
# registry: reconstruct every labeled polynomial from the log


@dataclass
class RegistryEntry:
    """What the log claims of an element that its replay cannot derive; its
    polynomial, and so its head, is the replay's (``Registry.polys``)."""

    pos: int
    sig: Signature
    genealogy: Optional[tuple] = None  # (greater, smaller, u_over, u_under)
    created_seq: int = -1
    done_seq: Optional[int] = None
    zero_seq: Optional[int] = None

    @property
    def index(self) -> int:
        return self.sig.index

    @property
    def is_input(self) -> bool:
        return self.genealogy is None


@dataclass
class Registry:
    """The view of a log that its one walk (``build_registry``) gives, and
    the one view every checker and the descent read.  ``vectors`` maps each
    position to its module vector, replayed from ``ops`` when it is first
    read (``sig.ReplayedVectors``), so a run replays the operations only up
    to the last one on a position its descents read."""

    entries: dict[int, RegistryEntry]
    calls: dict[int, dict]  # call index -> CallBegin payload
    # call index -> (seq, pos) of each DoneInserted, in log order
    insertions: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # signature index -> (seq, mono, pos) of each RuleAdded, in log order
    rules: dict[int, list[tuple[int, Monomial, int]]] = field(default_factory=dict)
    ring: Optional[Ring] = None  # the ring the walk replays the log in
    # the replay: its ``trail_replay`` report, the operations it performed,
    # in log order, and each position's polynomial at the end of the log
    replay: Optional[CheckReport] = None
    ops: list[tuple] = field(default_factory=list)
    polys: dict[int, Polynomial] = field(default_factory=dict)
    # the positions of call 1's last CallEnd, the checked basis; none when
    # the log has no such CallEnd
    basis: list[int] = field(default_factory=list)
    # (seq, reason) of the first event that damages what the registry
    # reads: one that fits no row or holds a value of the wrong type, or not
    # a step that fails its row's test
    # (``_role_check``); a CallBegin with a g_next position neither input
    # nor Done-inserted, or not after the CallEnd of call + 1 with its basis
    # as g_next; an empty input or insertion, or one that replays to zero;
    # else the first RuleAdded whose owner no event creates
    unknown: Optional[tuple[int, str]] = None
    # (seq, reason) of the log's first damage: ``unknown``; a step that
    # breaks a test of its row; or, on a log that reaches call 1's last
    # CallEnd, that CallEnd, naming a position that the replay did not
    # build, reduced to zero, or that is neither an input nor Done-inserted,
    # or a created element with no outcome, or an element's second outcome;
    # of two at one seq, the earlier in this list
    damage: Optional[tuple[int, str]] = None
    # call index -> the d of each of its DegreeStep events, in log order
    degrees: dict[int, list[int]] = field(default_factory=dict)
    # (p, q, seq, u_p, u_q), packed, of each pair rejection (a row whose
    # ``where`` is "crit_pair" or "spol") of p1 and p2, and of each
    # ``is_reducible`` rejection of h by cand whose ``h_head`` is h's
    # replayed head, with u_p None: the rejections ``EvidenceIndex`` reads
    rejections: list[tuple] = field(default_factory=list)

    @cached_property
    def vectors(self) -> ReplayedVectors:
        return ReplayedVectors(self.ring, self.ops)

    @cached_property
    def heads(self) -> dict[int, Monomial]:
        """Each position's head, read off ``polys`` once; a zero one has none."""
        return {pos: q.head_mono for pos, q in self.polys.items() if q.terms}


def _same_poly(q: Polynomial, payload: list, monos: Lazy) -> bool:
    """Whether the logged polynomial ``payload`` holds the terms of ``q``;
    ``monos`` maps an exponent tuple to its ``Monomial``."""
    return len(q.terms) == len(payload) and all(
        c == lc and m.v == monos[tuple(exps)].v for (c, m), (lc, exps) in zip(q.terms, payload)
    )


# the test that an event's field {0} fails, by shape, with {1} a copy's
# multiplier and {2} the field or value a role names (``_ROLE``)
_ROLE_TESTS = {
    "polynomial": "type({0}) is not list or not all(map(is_term, {0}))",
    "call": "{0} != call", "is": "{0} != {2!r}", "new": "{0} in entries", "pos": "{0} not in P",
    "positions": "not P.keys() >= set({0})", "index": "{0} != entries[ev[{2!r}]].sig.index",
    "sig": "(c := {0})['index'] != (s := entries[ev[{2!r}]].sig).index"
           " or monos[T(c['mono'])].v != s.mono.v{1}"}
# the test of the type of field {0}, by shape, where the walk would keep
# its value unread, or read it only after it records something: a value
# that fails is of the wrong type (``_WrongType``).  The walk reads every
# other value before it records anything, so a wrong one raises first
_TYPE_TESTS = {
    **dict.fromkeys(("int", "new", "owner", "call"), "type({0}) is not int"),
    "signature": "tuple(c := {0}) != ('mono', 'index') or type(c['index']) is not int",
    "ints": "not all(type(p) is int for p in {0})"}


class _WrongType(TypeError):
    """Raised by a row's test (``_role_check``) for a field whose value fails
    its ``_TYPE_TESTS``, with the message that names it as the reader would."""


def _role_check(roles: tuple[tuple[str, str], ...]) -> Callable[..., Optional[str]]:
    """The test of a row with fields ``roles`` (``EVENT_SHAPES``): the
    function of an event, the enclosing call, the replayed polynomials, the
    entries and a ``Monomial`` memo that names the first field failing its
    ``_ROLE_TESTS``, never reading a malformed polynomial or an unbuilt
    position, or gives None; generated, as ``_line_builder``.  It raises
    ``_WrongType`` first if a field fails its ``_TYPE_TESTS``."""
    tests = []
    for name, shape in roles:
        role, mult, named = _ROLE.fullmatch(shape).groups()
        if role in _TYPE_TESTS:
            wire = _WIRE.get(role, role)
            message = f"field {name!r} is not a valid {_SHAPE_NAMES.get(wire, wire)}"
            tests.append((-1, _TYPE_TESTS[role].format(f"ev[{name!r}]"),
                          f"raise WrongType({message!r})"))
        if role in _ROLE_TESTS:  # the polynomials first, then the roles, then the copies
            product = f" + monos[T(ev[{mult!r}])].v" if mult else ""
            tests.append(((role != "polynomial") + (role in ("sig", "index")),
                          _ROLE_TESTS[role].format(f"ev[{name!r}]", product, named),
                          f"return {name!r}"))
    body = "".join(f" if {test}: {then}\n" for _, test, then in sorted(
        tests, key=itemgetter(0)))
    namespace = {"is_term": _is_term, "WrongType": _WrongType}
    exec(f"def check(ev, call, P, entries, monos, T=tuple):\n{body} return None\n", namespace)
    return namespace["check"]


def _broken(ev: dict, row: _Row, name: str, call: Optional[int], P: dict) -> str:
    """The damage of ``ev``, of ``row``, whose field ``name`` breaks its
    test (``_role_check``), named by the field."""
    role = row.roles[name].split("(")[0]
    value = next(p for p in ev[name] if p not in P) if role == "positions" else ev[name]
    earlier = "an" if role == "new" else "no"
    return f"{row.kind} " + {
        "polynomial": f"field {name!r} is not a valid polynomial",
        "call": f"call {value} " + ("comes before the log's first CallBegin" if call is None else
                                    f"is not call {call}, which the enclosing CallBegin began"),
        "is": f"where {value!r} is not its row's {row.where!r}",
        "sig": f"{name} differs from the registry", "index": f"{name} differs from the registry",
    }.get(role, f"{name} names r{value}, which {earlier} earlier event created")


def build_registry(events: Iterable[dict], ring: Ring) -> Registry:
    """The one walk of the log: every labeled polynomial, with its calls,
    insertions and rules; the replay of every position's polynomial in
    ``ring`` (``Registry.replay``, ``ops`` and ``polys``); call 1's checked
    basis; the degrees and rejections the other checkers read; and the first
    damage, of the registry and of the whole log.  It reads each event once,
    in log order, by the row of ``EVENT_SHAPES`` its keys fit, after the
    row's test (``_role_check``), and decodes each distinct payload exponent
    vector once.  An event that fits no row or fails its test is damage,
    named by the field (``_broken``): a step's to the replay, which still
    replays it if every position it names was built, any other to the
    registry.  So is an event with a value of the wrong type where the walk
    reads it (``_TYPE_TESTS``), named as the reader names its line
    (``_mistyped``), and the walk skips it as one that fits no row; an event
    with no int ``seq`` is named by the seq after the previous event's.  An
    insertion is filed under the enclosing call.

    The replay rebuilds every position's polynomial P from the log, in
    ``seq`` order, and checks it against the log.  An input is its logged
    terms read into ``ring``, a created element monic(u_over * P[greater]
    - u_under * P[smaller]); a ``PhiPreReduce`` or ``ReductionStep``
    subtracts coeff * mult * P[reductor] from P[h], and a ``ReductionStep``
    then makes h monic, by its ``post_scale``.  The engine makes h monic at
    the end of each φ pass too, unlogged: the replay does so at the first
    event it reads after the pass's run of ``PhiPreReduce`` events.  Each
    failure names an event's ``seq``: a polynomial, ``post_scale``, trail or
    creation polynomial that differs from the replay, a nonzero
    ``ReductionToZero``, a step that fails its test, or, with an event that
    is not replayed, a step on a position that has its outcome, or a
    creation or outcome that fails its test.  ``checked`` counts the Done
    insertions.  The operations are ``("input", pos, index)``,
    ``("new", pos, a, ua, b, ub, s)`` for s * (ua * P[a] - ub * P[b]),
    ``(step, h, c, u, r)`` for P[h] - c * u * P[r] with step "phi" or
    "top", and ``("monic", h, s)`` for s * P[h], s != 1."""
    rows = _rows()
    monos = Lazy(Monomial)
    entries: dict[int, RegistryEntry] = {}
    calls: dict[int, dict] = {}
    insertions: dict[int, list[tuple[int, int]]] = {}
    rules: dict[int, list[tuple[int, Monomial, int]]] = {}
    degrees: dict[int, list[int]] = {}
    rejections: list[tuple] = []
    reducible: list[tuple[int, tuple]] = []  # (h_head, evidence) of each is_reducible rejection
    P: dict[int, Polynomial] = {}
    created: dict[int, Polynomial] = {}
    trails: dict[int, list] = {}
    ops: list[tuple] = []
    failures, checked = [], 0
    # h of the φ pass in progress, the call of the latest CallBegin, call
    # 1's last CallEnd, the latest CallEnd since the last CallBegin, the
    # first damage of the registry and of the replay, and the first second
    # outcome of a position
    phi_h = call = end = last_end = unknown = replay_damage = second = None

    def monic(pos: int) -> int:
        P[pos], s = P[pos].monic_scale()
        if s != 1:
            ops.append(("monic", pos, s))
            trails[pos].append(["monic", s])
        return s

    seq = -1  # the latest event's seq: one with no int seq is named by the next
    for ev in events:
        row = rows.get(tuple(ev))
        if row is None or row.kind != (kind := ev["kind"]):
            seq = ev["seq"] if type(ev.get("seq")) is int else seq + 1
            unknown = unknown or (seq, _unfit(ev.get("kind"), ev))
            continue
        try:
            if type(own := ev["seq"]) is not int:
                raise _WrongType("field 'seq' is not a valid int")
            seq = own
            if phi_h is not None and not (kind == "PhiPreReduce" and ev["h"] == phi_h):
                monic(phi_h)
                phi_h = None
            broken = row.check(ev, call, P, entries, monos)
            why = broken and _broken(ev, row, broken, call, P)
            where = row.where
            if where is not None:
                if why and unknown is None:
                    unknown = (seq, why)
                if where == "is_reducible":
                    reducible.append((monos[tuple(ev["h_head"])].v, (
                        ev["h"], ev["cand"], seq, None, monos[tuple(ev["mult"])].v)))
                else:
                    rejections.append((ev["p1"], ev["p2"], seq, monos[tuple(ev["u1"])].v,
                                       monos[tuple(ev["u2"])].v))
                continue
            step = "phi" if kind == "PhiPreReduce" else "top" if kind == "ReductionStep" else None
            if why and step is None and unknown is None:
                unknown = (seq, why)
            if kind == "RuleAdded":
                rule = (seq, monos[tuple(ev["mono"])], ev["pos"])
                rules.setdefault(ev["index"], []).append(rule)
            elif kind == "CallEnd":
                last_end, end = ev, ev if ev["call"] == 1 else end
            elif kind == "DegreeStep":
                degrees.setdefault(ev["call"], []).append(ev["d"])
            if kind in ("RuleAdded", "CallEnd", "DegreeStep", "CritPairCreated"):
                continue

            # the replay reads the creations, the steps and the outcomes
            malformed = broken is not None and row.roles[broken] == "polynomial"
            built = broken is None or all(
                ev[name] in P for name, role in row.roles.items() if role == "pos")
            replayed = built and not malformed
            if why and (step or not replayed):
                failures.append((seq, why))
                replay_damage = replay_damage or failures[-1]
            if step is not None:
                h = ev["h"]
                outcome = built and (entries[h].done_seq is not None and "DoneInserted"
                                     or entries[h].zero_seq is not None and "ReductionToZero")
                if outcome:
                    failures.append((seq, f"step on r{h} after its {outcome}"))
                elif built:
                    c, u, r = ev["coeff"], monos[tuple(ev["mult"])], ev["reductor"]
                    P[h] = poly_axpy(P[h], c, u, P[r])
                    ops.append((step, h, c, u, r))
                    trails[h].append([step, c, ev["mult"], r])
                    if step == "phi":
                        phi_h = h
                    elif monic(h) != ev["post_scale"]:
                        failures.append((seq, "post_scale differs from the replay"))
                continue

            # the registry reads the rest, a CallBegin's g_next too, and
            # records each event it can, once it has read all it needs
            creation = CREATION_FIELDS.get(kind)
            pos = ev[creation.pos if creation else "pos"]
            unlinked = uninserted = None
            if kind == "CallBegin":
                # a call begins with inputs and earlier Done insertions alone,
                # and every call but the log's first after the CallEnd of
                # call + 1, with its basis as g_next
                uninserted = broken is None and [
                    p for p in ev["g_next"]
                    if entries[p].done_seq is None and not entries[p].is_input]
                call = ev["call"]
                if calls and (last_end is None or last_end["call"] != call + 1):
                    unlinked = (f"CallBegin of call {call} does not follow the CallEnd of call"
                                f" {call + 1}")
                elif calls and ev["g_next"] != last_end["basis"]:
                    unlinked = f"CallBegin g_next is not the basis of call {call + 1}'s CallEnd"
                calls[call], last_end = ev, None
            # an outcome of a position that already has its outcome
            prior = creation is None and built and (
                entries[pos].done_seq is not None and "DoneInserted"
                or entries[pos].zero_seq is not None and "ReductionToZero")
            if prior and second is None:
                second = (seq, f"{kind} of r{pos} after its {prior}")
            if creation is not None and not malformed:
                gen = creation.genealogy
                if gen is not None:
                    a, b, ua, ub = (ev[name] for name in gen)
                    ua, ub = monos[tuple(ua)], monos[tuple(ub)]
                    gen = (a, b, ua, ub)
                sig = Signature(monos[tuple(ev["sig"]["mono"])], ev["sig"]["index"])
                if replayed:
                    if gen is None:
                        q = ring.poly([(c, monos[tuple(exps)]) for c, exps in ev["poly"]])
                        op = ("input", pos, ev["call"])
                    else:
                        q, s = poly_axpy(P[a].term_mul(1, ua), 1, ub, P[b]).monic_scale()
                        op = ("new", pos, a, ua, b, ub, s)
                    if not _same_poly(q, ev["poly"], monos):
                        failures.append((seq, f"{kind} polynomial differs from the replay"))
                    ops.append(op)
                    P[pos] = created[pos] = q
                    trails[pos] = []
                entries[pos] = RegistryEntry(pos, sig, gen, seq)
            elif kind == "ReductionToZero":
                if built:
                    entries[pos].zero_seq = seq
                if replayed and not P[pos].is_zero:
                    failures.append((seq, "nonzero on replay"))
            elif kind == "DoneInserted" and replayed:
                same = (_same_poly(P[pos], ev["poly"], monos), ev["trail"] == trails[pos],
                        _same_poly(created[pos], ev["creation_poly"], monos))
                failures += [(seq, f"{what} differs from the replay") for what, held in zip(
                    ("DoneInserted polynomial", "trail", "creation polynomial"), same) if not held]
                if call is not None:
                    entries[pos].done_seq = seq
                    insertions.setdefault(call, []).append((seq, pos))
                checked += 1
            damage = (uninserted and f"CallBegin g_next names r{uninserted[0]}, which no"
                                     " DoneInserted inserted"
                      or unlinked or kind in ("CallBegin", "DoneInserted") and (
                          not ev["poly"] and f"empty {kind} polynomial of r{pos}"
                          or replayed and P[pos].is_zero
                          and f"{'input' if kind == 'CallBegin' else 'Done-inserted'} r{pos}"
                              " replays to zero"))
            if unknown is None and damage:
                unknown = (seq, damage)
        except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
            # a value of the wrong type is damage, named as the reader names
            # a line that holds it, or by the test it failed where the line
            # is one the reader takes; any other error is the walk's own
            why = _mistyped(ev) or type(exc) is _WrongType and f"{kind} {exc}"
            if not why:
                raise
            seq = ev["seq"] if type(ev["seq"]) is int else seq + 1
            unknown = unknown or (seq, why)

    unknown = unknown or min(
        ((seq, f"RuleAdded pos names r{pos}, which no event creates")
         for table in rules.values() for seq, _, pos in table if pos not in entries),
        default=None)
    found = [d for d in (unknown, replay_damage) if d is not None]
    basis = [] if end is None else end["basis"]
    for p in basis:
        why = ("the replay did not build" if p not in P
               else "the replay reduced to zero" if P[p].is_zero
               else "no DoneInserted inserted"
               if entries[p].done_seq is None and not entries[p].is_input else None)
        if why:
            found.append((end["seq"], f"call 1's CallEnd names r{p}, which {why}"))
            break
    if end is not None:
        # a log that ends its run gives each created element one outcome
        undecided = next((pos for pos, e in entries.items() if not e.is_input
                          and e.done_seq is None and e.zero_seq is None), None)
        if undecided is not None:
            found.append((end["seq"], f"call 1's CallEnd ends the run with r{undecided}, which"
                                      " has no DoneInserted or ReductionToZero"))
        if second is not None:
            found.append(second)
    # an is_reducible rejection is evidence only at h's replayed head
    rejections += [item for head, item in reducible
                   if item[0] in P and P[item[0]].terms and P[item[0]].head_mono.v == head]
    return Registry(entries, calls, insertions, rules, ring,
                    _report("trail_replay", checked, failures), ops, P, basis, unknown,
                    min(found, key=itemgetter(0), default=None), degrees, rejections)


def check_replay(events: Iterable[dict], ring: Ring) -> CheckReport:
    """The ``trail_replay`` report of the log's walk (``build_registry``)."""
    return build_registry(events, ring).replay


def membership_at(registry: Registry, call: int, seq: int) -> list[int]:
    """Positions in G ∪ Done just before sequence number ``seq`` of ``call``.

    G at that moment is the previous basis plus this call's input plus every
    element Done-inserted earlier in the call (insertions are promoted to G at
    batch end, which never removes anything).
    """
    begin = registry.calls[call]
    done = registry.insertions.get(call, [])
    done = done[: bisect_left(done, seq, key=itemgetter(0))]
    return sorted(begin["g_next"] + [begin["input_pos"]] + [pos for _, pos in done])


# ---------------------------------------------------------------------------
# claim checkers


def check_d_progression(registry: Registry) -> CheckReport:
    """Per call (``Registry.degrees``): the degrees never decrease and d_{j+2} > d_j."""
    failures = []
    checked = 0
    for call, ds in sorted(registry.degrees.items()):
        for j in range(len(ds) - 1):
            checked += 1
            if ds[j + 1] < ds[j]:
                failures.append((call, j, ds[j], ds[j + 1], "decrease"))
        for j in range(len(ds) - 2):
            checked += 1
            if not ds[j + 2] > ds[j]:
                failures.append((call, j, ds[j], ds[j + 2], "no strict growth at j+2"))
    return _report("d_progression", checked, failures)


def check_signature_safety(registry: Registry) -> CheckReport:
    """Every replayed step (``Registry.ops``) of h by r is safe on the
    registry's signatures, and a failure names h and r: a φ step has
    index(r) > index(h), a top step by u * r has sig(h) > u * sig(r), keyed
    as key(sig(r)) + key(u) - key(1) (``sig_key``) with no product formed."""
    entries, order = registry.entries, registry.ring.order
    key_one = order.vkey(0)
    failures = []
    steps = [op for op in registry.ops if op[0] in ("phi", "top")]
    for step, h, _, u, r in steps:
        if step == "phi" and not entries[r].index > entries[h].index:
            failures.append((h, r, "pre-reduction by non-higher index"))
        elif step == "top" and sig_key(entries[h].sig, order) <= (
                sig_key(entries[r].sig, order) + order.vkey(u.v) - key_one):
            failures.append((h, r, "unsafe reduction step"))
    return _report("signature_safety", len(steps), failures)


def check_rule_degrees(registry: Registry) -> CheckReport:
    """Per index, total degrees of rule monomials never decrease, and every
    element of the log owns exactly one rule, whose index and monomial are
    those of its signature.  ``checked`` counts the degree comparisons."""
    failures = []
    checked = 0
    owned: dict[int, list[Signature]] = {}
    for idx, table in sorted(registry.rules.items()):
        for (_, m1, _), (s2, m2, _) in zip(table, table[1:]):
            checked += 1
            if m2.deg < m1.deg:
                failures.append((idx, s2, m1.deg, m2.deg))
        for _, mono, pos in table:
            owned.setdefault(pos, []).append(Signature(mono, idx))
    for pos, e in registry.entries.items():
        if owned.get(pos) != [e.sig]:
            failures.append((pos, "not exactly one rule, with its signature"))
    return _report("rule_degrees", checked, failures)


def check_genealogy(registry: Registry) -> CheckReport:
    """Created elements: sig equals u_over * S(greater part) and strictly
    exceeds u_under * S(smaller part); Done events follow their creation."""
    order = registry.ring.order
    failures = []
    checked = 0
    for e in registry.entries.values():
        if e.is_input:
            continue
        checked += 1
        greater, smaller, u_over, u_under = e.genealogy
        if greater not in registry.entries or smaller not in registry.entries:
            failures.append((e.pos, "missing parent"))
            continue
        sg = registry.entries[greater].sig
        ss = registry.entries[smaller].sig
        if sig_mul(u_over, sg) != e.sig:
            failures.append((e.pos, "sig != u_over * S(greater)"))
        if sig_key(e.sig, order) <= sig_key(sig_mul(u_under, ss), order):
            failures.append((e.pos, "sig not greater than smaller part"))
        if e.done_seq is not None and not e.created_seq < e.done_seq:
            failures.append((e.pos, "done before creation"))
    return _report("genealogy", checked, failures)


def all_admissible(registry: Registry) -> bool:
    """Whether every element's module vector, replayed from the log
    (``Registry.ops``), leads with the element's logged signature; one
    the replay did not build does not.

    Each vector's leading module term follows from the leads of the
    vectors its operations read, so the verdict replays the leads alone
    (``sig.replay_leads``), compares each with its element's signature by
    key, and builds no vector.  On a run that passes the other reports no
    lead ever cancels, by induction over the log: an input's vector is
    e_i; a created element's is u * (greater) - u' * (smaller), and
    ``genealogy`` checks u * S(greater) > u' * S(smaller); a top step
    subtracts a multiple of strictly smaller signature
    (``signature_safety``); a φ step subtracts an element of a higher
    index; scaling keeps the leading module term.  Where two leads do
    cancel, the replay cannot tell the lead, and those elements fall back
    to their full vectors (``check_admissible``), so the verdict is exact on
    every log, the ones those reports reject too.

    A vector's coordinate k multiplies input f_{k+1}, so the fallback's
    inputs are indexed by call, with zero for a call the log lacks: a log
    cut short by a budget exit stops before call 1."""
    ring, polys = registry.ring, registry.polys
    leads = replay_leads(ring, registry.ops)
    unsure = []
    for pos, e in registry.entries.items():
        if pos not in leads:
            return False
        lead = leads[pos]
        if lead is None:
            unsure.append((pos, e.sig))
        elif lead[0] != sig_key(e.sig, ring.order):
            return False
    if not unsure:
        return True
    begun = {i: polys[ev["input_pos"]] for i, ev in registry.calls.items()}
    inputs = [begun.get(i, ring.zero) for i in range(1, max(begun, default=0) + 1)]
    return all(check_admissible(registry.vectors[pos], sig, polys[pos], inputs)
               for pos, sig in unsure)


# ---------------------------------------------------------------------------
# chains


@dataclass
class ChainReport:
    chain: list[int]
    divisibility_ok: bool
    quotient_descent_ok: bool
    distinct_hm_ok: bool

    @property
    def passed(self) -> bool:
        return self.divisibility_ok and self.quotient_descent_ok and self.distinct_hm_ok


def extract_chain(pos: int, registry: Registry) -> ChainReport:
    """Walk greater-part links back to the input polynomial of the index.

    Along the chain the signatures divide consecutively, the head/signature
    quotients strictly descend (their ``quotient_key``s, one int each, fall
    from each element to the next: for ints that orders every pair), and head
    monomials are pairwise distinct with divisibility only forward and into a
    strictly larger degree.  A zero-reduced final element takes part only in
    the divisibility check: it has no head monomial.
    """
    entries, heads = registry.entries, registry.heads
    chain = [pos]
    cur = entries[pos]
    while not cur.is_input:
        parent = cur.genealogy[0]
        if parent not in entries or parent in chain:
            raise BrokenLink(f"broken ancestor link at r{cur.pos}")
        chain.append(parent)
        cur = entries[parent]
    chain.reverse()

    div_ok = all(sig_divides(entries[a].sig, entries[b].sig) for a, b in zip(chain, chain[1:]))

    held = [p for p in chain if p in heads]  # the elements with a head
    keys = [quotient_key(heads[p], entries[p].sig.mono, registry.ring.order) for p in held]
    quot_ok = all(a > b for a, b in zip(keys, keys[1:]))
    distinct_ok = all(
        a != b and not (a.divides(b) and not (i < j and a.deg < b.deg))
        for (i, a), (j, b) in permutations(enumerate(heads[p] for p in held), 2)
    )
    return ChainReport(chain, div_ok, quot_ok, distinct_ok)


def check_chains(registry: Registry) -> CheckReport:
    failures = []
    checked = 0
    for e in registry.entries.values():
        if e.is_input:
            continue
        checked += 1
        rep = extract_chain(e.pos, registry)
        if not rep.passed:
            failures.append((e.pos, rep))
    return _report("chains", checked, failures)


# ---------------------------------------------------------------------------
# the basis at one insertion, as the reductor checks see it


class InsertionView:
    """The basis at one Done insertion of a log, read off its ``Registry``,
    with checks (a)-(d).

    ``entries`` maps each position to its ``RegistryEntry``; ``rules`` are
    the rule tables of ``Registry.rules``, shared, not copied: per signature
    index, the (seq, monomial, owner) entries in log order; ``heads`` are
    ``Registry.heads``.  ``members`` are the positions of G ∪ Done at the
    insertion together with the inserted element ``g_pos``.  The view
    reads each table up to the entries logged before ``seq``, the
    insertion's sequence number.
    """

    def __init__(self, registry: Registry, members: Sequence[int], g_pos: int, seq: int):
        self.entries, self.rules, self.heads = registry.entries, registry.rules, registry.heads
        self.members = tuple(sorted(members))
        self.g_pos = g_pos
        self.seq = seq
        self._phi: dict[int, list[tuple[Monomial, int]]] = {}
        self._rule_count: dict[int, int] = {}

    def rule_count(self, index: int) -> int:
        """How many rules of ``index`` were logged before the insertion."""
        k = self._rule_count.get(index)
        if k is None:
            table = self.rules.get(index, ())
            k = self._rule_count[index] = bisect_left(table, self.seq, key=itemgetter(0))
        return k

    def phi_basis(self, index: int) -> list[tuple[Monomial, int]]:
        """(head, position) of the completed basis for ``index + 1``: the
        members of a higher signature index (their calls finished earlier),
        ascending by position."""
        basis = self._phi.get(index)
        if basis is None:
            entries, heads = self.entries, self.heads
            basis = self._phi[index] = [
                (heads[p], p) for p in self.members if entries[p].index > index
            ]
        return basis

    def phi_divisor(self, index: int, mono: Monomial) -> Optional[int]:
        """Position of the first element of ``phi_basis(index)`` whose head
        divides ``mono``, or None.  The test is ``Monomial.divides``, on the
        packed values."""
        guard = mono.lay.guard
        v = mono.v | guard
        for head, pos in self.phi_basis(index):
            if (v - head.v) & guard == guard:
                return pos
        return None

    def rule_owner(self, index: int, mono: Monomial, pos: int) -> Optional[int]:
        """The newest owner, ``pos`` or a newer one, of a rule of ``index``
        whose monomial divides ``mono``; None when there is none.  The test
        is ``Monomial.divides``, on the packed values."""
        table = self.rules.get(index, ())
        guard = mono.lay.guard
        v = mono.v | guard
        for k in range(self.rule_count(index) - 1, -1, -1):
            _, rmono, owner = table[k]
            if owner < pos:  # the tables are in creation order
                break
            if (v - rmono.v) & guard == guard:
                return owner
        return None

    def blocker(self, index: int, mono: Monomial, pos: int) -> tuple[Optional[str], Optional[int]]:
        """Checks (b) and (c), the one test of both criteria, of b_pos at the
        shifted signature monomial ``mono`` of ``index``: ("b", divisor) when
        a head of ``phi_basis(index)`` divides ``mono``, else ("c", rewriter)
        when a newer rule does, else (None, owner), with ``owner`` None when
        no rule divides ``mono``."""
        divisor = self.phi_divisor(index, mono)
        if divisor is not None:
            return "b", divisor
        owner = self.rule_owner(index, mono, pos)
        return ("c" if owner not in (None, pos) else None), owner

    def failed_check(
        self, cand: int, target_head: Monomial, target_sig: Signature
    ) -> Optional[str]:
        """The first of checks (a)-(d) that member ``cand`` fails as a
        reductor of a target with this head and signature, or None when it
        passes all four; (b) and (c) test the shifted signature monomial
        (``blocker``)."""
        e = self.entries[cand]
        u = target_head.divide(self.heads[cand])
        if u is None:
            return "a"
        mono = u.mul(e.sig.mono)
        check, owner = self.blocker(e.index, mono, cand)
        if check is not None:
            return check
        if owner is None:
            raise BrokenLink(f"r{cand} has no rule entry")
        if e.index == target_sig.index and mono == target_sig.mono:
            return "d"
        return None


def done_insertion_audit(registry: Registry) -> CheckReport:
    """At every Done insertion, re-evaluate checks (a)-(d) from scratch for
    every candidate and confirm none passes all four.  A candidate with no
    rule to decide check (c) by fails the audit."""
    failures = []
    checked = 0
    for call, done in registry.insertions.items():
        for seq, pos in done:
            checked += 1
            view = InsertionView(registry, membership_at(registry, call, seq) + [pos], pos, seq)
            g = registry.entries[pos]
            for cand in view.members:
                if cand == pos:
                    continue
                try:
                    if view.failed_check(cand, view.heads[pos], g.sig) is None:
                        failures.append((pos, cand, "candidate passes all four checks"))
                except BrokenLink as exc:
                    failures.append((pos, cand, str(exc)))
    return _report("done_insertion_audit", checked, failures)


# ---------------------------------------------------------------------------
# exhaustive pair classification at every insertion


def in_scope(key: int, deg: int, g_key: int, g_deg: int, order) -> bool:
    """Whether a target with signature key ``key`` and degree ``deg`` is
    covered by the insertion of an element with signature key ``g_key`` and
    head degree ``g_deg``.  The keys are ``sig.sig_key``s under ``order``,
    each index is read back from its key (``sig.key_index``), and the
    inserting call is the inserted element's index.  The thm5 check's
    targets are S-pairs of members, of the degree of their lcm; the
    descent's are multiplied members t * b.

    The claim covers the targets whose signature lies below the inserted
    one.  For a target of the inserting call's index it also needs deg <=
    deg(head(g)): the input is homogeneous and the main loop is stepped by
    degree, so when g is inserted in step d = deg(head(g)), no pair of a
    higher degree has been processed, and none can have been classified or
    completed yet.  Under degrevlex and deglex the degree bound follows from
    the signature bound: a labeled polynomial of index i has degree
    deg(sig.mono) + deg(f_i), so within index i a smaller signature has no
    larger degree.  Under lex it does not follow, and a target of a later
    step can have a smaller signature.  Targets of a higher index come from
    the basis of the previous call, which is complete.
    """
    return key < g_key and (deg <= g_deg or key_index(key, order) != key_index(g_key, order))


def _evidence_items(registry: Registry):
    """(p, q, seq, u_p, u_q) per item of evidence for the pair of positions p
    and q (``EvidenceIndex``), from ``seq`` on: a rejection
    (``Registry.rejections``), and an element built from the pair once it
    has its outcome.  u_p and u_q are the packed multipliers it gives p and
    q; u_p is None for an ``is_reducible`` rejection of p."""
    yield from registry.rejections
    for e in registry.entries.values():
        outcome = e.done_seq if e.done_seq is not None else e.zero_seq
        if not e.is_input and outcome is not None:
            greater, smaller, u_over, u_under = e.genealogy
            yield greater, smaller, max(e.created_seq, outcome), u_over.v, u_under.v


class EvidenceIndex(dict):
    """How the log classifies S-pairs of members, as the thm5 check reads it:
    a member pair's id (``pair_id``) -> the earliest ``seq`` after which a
    logged outcome classifies the pair at every insertion.  A pair with no
    such outcome has no entry.

    A pair of members a and b has the multipliers the replayed heads give,
    u_a = lcm(head(a), head(b)) / head(a) and u_b alike, and an item counts
    for it only with those.  The items are
      * a ``crit_pair`` F5 rejection or a ``spol`` rewritten rejection of
        the pair, with multipliers u_a and u_b, from its ``seq`` on;
      * an ``is_reducible`` rejection, of either kind, of one member h by the
        other with multiplier u of that other and ``h_head`` the head of h,
        from its ``seq`` on;
      * an element built from the pair, with multipliers u_a and u_b, once
        it is Done-inserted (completed) or reduced to zero (its rule,
        added at creation, rewrites both parts from then on), from the
        later of its creation and that outcome.
    The engine logs seqs in ascending order, so the earliest item of a pair
    is the one with the least ``seq``.

    A pair id is one int: with both positions counted from the least one of
    the log (``low``), the lower shifted above every bit of the higher.
    """

    def __init__(self, registry: Registry):
        super().__init__()
        entries = registry.entries
        self.low = min(entries, default=0)
        self.bits = (max(entries, default=0) - self.low).bit_length()
        heads = {pos: head.v for pos, head in registry.heads.items()}
        lcm, get, inf = registry.ring.order.lay.lcm, self.get, math.inf
        for p, q, seq, up, uq in _evidence_items(registry):
            # the check forms no pair of a member with no head, nor one
            # whose lcm overflows
            try:
                hp, hq = heads[p], heads[q]
                t = lcm(hp, hq)
            except (KeyError, OverflowError):
                continue
            if uq == t - hq and (up is None or up == t - hp):
                pair = self.pair_id(p, q)
                if seq < get(pair, inf):
                    self[pair] = seq

    def pair_id(self, p: int, q: int) -> int:
        p, q = p - self.low, q - self.low
        return p << self.bits | q if p < q else q << self.bits | p


class _DominanceCount:
    """Points (key, deg) added one at a time, counted by a lower bound on
    each coordinate.

    One sorted key list per distinct degree among ``degs``; the list of
    degree d holds the keys of the points of degree at least d.
    """

    def __init__(self, degs: Sequence[int]):
        self.degs = sorted(set(degs))
        self.keys: list[list[int]] = [[] for _ in self.degs]

    def add(self, key: int, deg: int) -> None:
        for d, keys in zip(self.degs, self.keys):
            if d > deg:
                break
            insort(keys, key)

    def above(self, key: int, min_deg: Optional[int] = None) -> int:
        """Points with key above ``key`` and, unless ``min_deg`` is None, a
        degree of at least ``min_deg``."""
        t = 0 if min_deg is None else bisect_left(self.degs, min_deg)
        if t == len(self.degs):
            return 0
        keys = self.keys[t]
        return len(keys) - bisect_right(keys, key)


def check_thm5_exhaustive(registry: Registry) -> CheckReport:
    """Every in-scope pair at every insertion is classified into exactly one
    of {f5, rewritten, completed} by its first processing outcome.

    The in-scope pairs at an insertion are the S-pairs of its members that
    ``in_scope`` covers, and a failure is one that no outcome logged before
    the insertion classifies (``EvidenceIndex``); ``checked`` counts the
    pairs over all insertions.  They are counted, not tested one insertion
    at a time.  A pair is formed at the stage k of its call at which its
    later member joins G ∪ Done: stage 0 for the members the call starts
    with, stage k + 1 for insertion k (counting from 0).  By ``in_scope`` it
    is in scope at exactly the insertions j >= k whose signature key is
    above the pair's and, for a pair of the call's index, whose head degree
    is at least its lcm degree: a two-sided dominance count.  Each call's
    stages are walked backwards, each insertion is added to a
    ``_DominanceCount``, and the pairs formed at a stage are counted there.
    A pair can be unclassified at insertion j only if it is in scope
    somewhere and its earliest evidence is logged no earlier than j, so
    only those insertions are looked at one by one.  In a call that steps
    by degree, as every engine run does (its insertions in seq order, all
    of the call's index, with head degrees that never decrease), no
    insertion below a pair's lcm degree covers a pair of the call's index,
    so the look starts at the first insertion of that degree.

    A pair is formed where it is counted, on the packed heads and signature
    monomials, as ``Engine._pairs`` forms it: the lcm t of the heads, the
    multipliers t - head, one guard test for both signature multiples, and
    the pair's key, the greater ``sig_key`` of the two multiplied
    signatures.  Signature keys are affine in the monomial, so each is
    key(sig) - key(1) + key(u).  Nothing is kept per pair: a pair of two
    members of G_{c+1} is formed again in each later call.
    """
    order = registry.ring.order
    lay = order.lay
    guard, shift, lcm, vkey = lay.guard, lay.shift, lay.lcm, order.vkey
    # a key of index i shifted right by this is -i (``sig.key_index``)
    index_shift = shift + FIELD_BITS
    entries, heads = registry.entries, registry.heads
    evidence = EvidenceIndex(registry)
    first_of, low, bits = evidence.get, evidence.low, evidence.bits
    key_one = vkey(0)
    inf = math.inf
    unclassified = []
    checked = 0
    for call, done in registry.insertions.items():
        g_seq = [seq for seq, _ in done]
        g_pos = [pos for _, pos in done]
        g_key = [sig_key(entries[pos].sig, order) for pos in g_pos]
        g_deg = [heads[pos].deg for pos in g_pos]
        # whether the call steps by degree: its insertions are in seq order,
        # of the call's index, with head degrees that never decrease
        stepped = (all(a < b for a, b in zip(g_seq, g_seq[1:]))
                   and all(a <= b for a, b in zip(g_deg, g_deg[1:]))
                   and all(g >> index_shift == -call for g in g_key))
        # members in the order they join; the last insertion never joins
        members = membership_at(registry, call, g_seq[0])
        start = len(members)
        members += g_pos[:-1]
        # per member: its position counted from ``low``, shifted as the
        # lower one of a pair id and not (``EvidenceIndex.pair_id``), its
        # packed head and signature monomial, and its sig_key less the
        # order key of 1
        rows = []
        for pos in members:
            sig = entries[pos].sig
            rows.append((pos - low << bits, pos - low, heads[pos].v, sig.mono.v,
                         sig_key(sig, order) - key_one))
        count = _DominanceCount(g_deg)
        above = count.above
        for k in range(len(done) - 1, -1, -1):
            count.add(g_key[k], g_deg[k])
            for i in range(start) if k == 0 else (start + k - 1,):
                b_top, b_rel, hb, sb, base_b = rows[i]
                for a_top, a_rel, ha, sa, base_a in rows[:i]:
                    t = lcm(ha, hb)
                    ua, ub = t - ha, t - hb
                    if (ua + sa | ub + sb) & guard:
                        a_pos, b_pos = sorted((a_rel + low, b_rel + low))
                        raise overflow_error(
                            f"a signature multiple of the pair of r{a_pos} and r{b_pos}")
                    key_a, key_b = base_a + vkey(ua), base_b + vkey(ub)
                    key = key_a if key_a > key_b else key_b
                    deg = t >> shift
                    own = key >> index_shift == -call  # of the call's index
                    covering = above(key, deg if own else None)
                    if not covering:
                        continue
                    checked += covering
                    first = first_of(a_top | b_rel if a_rel < b_rel else b_top | a_rel, inf)
                    # in a stepped call no insertion below the pair's degree
                    # covers a pair of the call's index
                    j = bisect_left(g_deg, deg, k) if stepped and own else k
                    while j < len(done) and g_seq[j] <= first:
                        if in_scope(key, deg, g_key[j], g_deg[j], order):
                            pair = tuple(sorted((a_rel + low, b_rel + low)))
                            unclassified.append((g_seq[j], pair, g_pos[j]))
                        j += 1
    unclassified.sort()
    failures = [(g_pos, pair, "unclassified") for _, pair, g_pos in unclassified]
    return _report("thm5_exhaustive", checked, failures)


# the report names of run_all_checkers, in its order
_CHECKER_NAMES = (
    "d_progression", "signature_safety", "rule_degrees", "genealogy", "trail_replay",
    "chains", "done_insertion_audit", "thm5_exhaustive",
)


def run_all_checkers(events: Iterable[dict], ring: Ring,
                     registry: Optional[Registry] = None) -> list[CheckReport]:
    """Every checker's report, read off the walk of ``events``
    (``build_registry``), which is made here in ``ring`` unless it is
    passed; the ``trail_replay`` report is the walk's replay.  On a log with no
    ``CallBegin`` (``Registry.calls``) no check has anything to run on, so
    each report fails with that reason.  On a log whose registry is damaged
    (``Registry.unknown``) the registry is not the run's, so each report
    read off it fails with that event's ``seq`` and reason."""
    if registry is None:
        registry = build_registry(events, ring)
    if not registry.calls:
        return [_report(name, 0, ["no CallBegin in the log"]) for name in _CHECKER_NAMES]
    reports = {"d_progression": check_d_progression(registry),
               "signature_safety": check_signature_safety(registry),
               "trail_replay": registry.replay}
    if registry.unknown is None:
        reports.update(rule_degrees=check_rule_degrees(registry),
                       genealogy=check_genealogy(registry),
                       chains=check_chains(registry),
                       done_insertion_audit=done_insertion_audit(registry),
                       thm5_exhaustive=check_thm5_exhaustive(registry))
    return [reports[name] if name in reports else _report(name, 0, [registry.unknown])
            for name in _CHECKER_NAMES]
