"""Assertion data model.

An assertion is a predicate applied to ordered argument terms.  A term is
one of: a concept symbol (plain ``str``), the ``na`` placeholder, a unit
measure, or a nested assertion.  The ``^`` self-reference that appears in
source files is resolved to the enclosing block's concept during parsing
and never survives into the model.

The predicate vocabulary lives here too: ``FIELDS`` says which script field
each field predicate fills and what argument it needs, and ``ako`` and
``goto`` are the two other predicates the file format defines.  So are the
alphabet of symbols and recognized words, ``LETTERS``, and a measure's rule.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from typing import Union

from .errors import MalformedNumber, UnknownUnit
from .ontology import Language


class NaType:
    """Singleton for the ``na`` (unspecified) argument."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "na"


NA = NaType()

DEFAULT_UNITS = ("second", "USD", "in")
# a regex class body: the letters of ASCII, Latin-1 and Latin Extended-A less × and ÷
LETTERS = "A-Za-zÀ-ÖØ-öø-ſ"
# the number of a measure: ASCII digits, an optional sign, point and exponent
NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class Measure:
    """A number with a unit, e.g. 3600 seconds or 0.33 USD.

    A unit not in ``DEFAULT_UNITS`` raises ``UnknownUnit``, a text that
    ``NUMBER_RE`` does not match ``MalformedNumber``.  The parser reads every
    measure through here, so each ``render`` reparses to an equal measure.

    The numeric text is kept exactly as written so serialization is
    bit-faithful.  Its decimal value is parsed once, as ``quantity``, and
    equality compares that, so ``3.1536e+07`` and ``31536000`` with the
    same unit are equal.
    """

    __slots__ = ("unit", "text", "quantity")

    def __init__(self, unit: str, text):
        if unit not in DEFAULT_UNITS:
            raise UnknownUnit(f"unknown unit {unit!r}")
        self.unit = unit
        self.text = text = str(text)
        if NUMBER_RE.fullmatch(text) is None:
            raise MalformedNumber(f"bad number {text!r}")
        try:
            self.quantity = Decimal(text)
        except InvalidOperation:  # an exponent past what Decimal holds
            raise MalformedNumber(f"bad numeric text {text!r}") from None

    @property
    def value(self) -> float:
        return float(self.text)

    def render(self) -> str:
        return f"NUMBER:{self.unit}:{self.text}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self.unit == other.unit and self.quantity == other.quantity

    def __hash__(self) -> int:
        # a Decimal's own hash agrees with its equality, at any exponent
        return hash((self.unit, self.quantity))

    def __repr__(self) -> str:
        return f"Measure({self.unit!r}, {self.text!r})"


Term = Union[str, NaType, Measure, "Assertion"]


def slot_init(cls):
    """Give a ``@dataclass(frozen=True, slots=True)`` class an ``__init__``
    that fills each slot through its member descriptor.

    A frozen dataclass's generated ``__init__`` sets every field with
    ``object.__setattr__``, about twice the cost of calling the slot's own
    ``__set__``, and parsing and recognition build such records by the
    thousand.  The replacement keeps the generated parameter
    names, order and defaults, so positional and keyword calls and
    ``dataclasses.replace`` work as before.  Apply it above ``@dataclass``.
    """
    if not (cls.__dataclass_params__.frozen and "__slots__" in cls.__dict__) \
            or hasattr(cls, "__post_init__") \
            or any(not f.init or f.default_factory is not MISSING for f in fields(cls)):
        raise TypeError(f"{cls.__name__}: slot_init takes a frozen, slotted dataclass "
                        "of plain fields without __post_init__")
    env, args, body = {}, [], []
    for f in fields(cls):
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            args.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            args.append(f"{f.name}=_default_{f.name}")
        body.append(f"        _set_{f.name}(self, {f.name})\n")
    source = (f"def make({', '.join(env)}):\n"
              f"    def __init__(self, {', '.join(args)}):\n{''.join(body)}"
              "    return __init__\n")
    namespace: dict = {}
    exec(source, {}, namespace)
    init = namespace["make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    cls.__init__ = init
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class Assertion:
    predicate: str
    args: tuple = ()

    def render(self) -> str:
        parts = [self.predicate] + [render_term(a) for a in self.args]
        return "[" + " ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"Assertion({self.render()!r})"


def render_term(term: Term) -> str:
    if isinstance(term, Assertion):
        return term.render()
    if isinstance(term, Measure):
        return term.render()
    if isinstance(term, NaType):
        return "na"
    return term


# -- predicate vocabulary ----------------------------------------------------------

AKO = "ako"  # hierarchy parents
GOTO = "goto"  # the [goto eventNN-of] pseudo-event that restarts a timeline

CONCEPT, MEASURE, TERM = "concept", "measure", "term"  # argument shapes
_SHAPE_TYPES = {CONCEPT: str, MEASURE: Measure, TERM: object}
# the census column of each field attribute; every other field counts as "other"
_CENSUS_COLUMNS = {"events": 0, "roles": 1, "places": 2}


@dataclass(frozen=True, slots=True)
class Field:
    """What a field predicate fills: a ``Script`` attribute, the ``NN`` of a
    numbered predicate (None otherwise), and the argument shape it needs.

    Two facts follow from these, kept so that loading reads each from the
    predicate's one entry: ``arg_type``, the class every argument of that
    shape is an instance of, and ``column``, the census column the field
    counts in (events, roles, places, then 3 for every other field)."""

    attr: str
    index: int | None
    shape: str
    arg_type: type = field(init=False, repr=False, compare=False)
    column: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arg_type", _SHAPE_TYPES[self.shape])
        object.__setattr__(self, "column", _CENSUS_COLUMNS.get(self.attr, 3))


FIELDS: dict[str, Field] = {
    "entry-condition-of": Field("entry_conditions", None, TERM),
    "result-of": Field("results", None, TERM),
    "goal-of": Field("goals", None, TERM),
    "emotion-of": Field("emotions", None, TERM),
    "performed-in": Field("places", None, CONCEPT),
    "duration-of": Field("duration", None, MEASURE),
    "period-of": Field("period", None, MEASURE),
    "cost-of": Field("cost", None, MEASURE),
}
for _n in range(100):
    FIELDS[f"role{_n:02d}-of"] = Field("roles", _n, CONCEPT)
    FIELDS[f"role{_n:02d}-script-of"] = Field("role_scripts", _n, CONCEPT)
    FIELDS[f"event{_n:02d}-of"] = Field("events", _n, TERM)

EVENT_PREDICATES = frozenset(p for p, f in FIELDS.items() if f.attr == "events")
# predicates the file format itself defines
STRUCTURAL = frozenset(FIELDS) | {AKO, GOTO}


def malformed(a: Assertion, spec: Field | None = None) -> str | None:
    """For a field assertion about a concept whose argument (the one after
    the concept) has the wrong shape, what it needs; None for every other
    assertion.  ``spec`` is the predicate's ``FIELDS`` entry, for a caller
    that has looked it up already."""
    if spec is None:
        spec = FIELDS.get(a.predicate)
    if spec is None or (len(a.args) > 1 and isinstance(a.args[1], spec.arg_type)):
        return None
    return f"{a.args[0]}: {a.predicate} needs a {spec.shape} argument"


def goto_target(term: Term) -> int | None:
    """The group a ``[goto eventNN-of]`` event restarts at; None for any other term."""
    if isinstance(term, Assertion) and term.predicate == GOTO \
            and len(term.args) == 1 and term.args[0] in EVENT_PREDICATES:
        return FIELDS[term.args[0]].index
    return None


def term_symbols(term: Term, include_predicates: bool = True) -> list[str]:
    """A list of every concept symbol inside a term, nested assertions
    included, in preorder: an assertion's predicate (unless
    ``include_predicates`` is false), then its arguments' symbols in order."""
    if isinstance(term, str):
        return [term]
    out: list[str] = []
    if isinstance(term, Assertion):
        _assertion_symbols(term, include_predicates, out)
    return out


def _assertion_symbols(a: Assertion, include_predicates: bool, out: list[str]) -> None:
    if include_predicates:
        out.append(a.predicate)
    for arg in a.args:
        if isinstance(arg, str):
            out.append(arg)
        elif isinstance(arg, Assertion):
            _assertion_symbols(arg, include_predicates, out)


@dataclass(slots=True)
class ObjectBlock:
    """One ``Object <name>`` block: lexicon lines plus ordered assertions."""

    concept: str
    lexicon: list[tuple[Language, tuple[str, ...]]] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)
    line: int = field(default=0, compare=False)
    file: str = field(default="<kb>", compare=False)
    # source line of each assertion, parallel to `assertions` when known
    assertion_lines: list[int] = field(default_factory=list, compare=False)
