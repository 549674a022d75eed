"""Script views over a concept's assertions.

A script gathers the field assertions of one concept: numbered roles and
role scripts, an event timeline, entry conditions, results, goals,
emotions, places, duration, period, and cost.  Events sharing an index are
simultaneous; a ``[goto eventNN-of]`` pseudo-event restarts the timeline
at an earlier group and has no exit condition, so unrolling is bounded by
a caller-supplied limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import ERROR, INFO, WARNING, Diagnostic
from .errors import (
    BadGotoTarget,
    NotAScript,
    RoleTypeMismatch,
    TooManyBindings,
    UnknownConcept,
)
from .kb import KnowledgeBase
from .terms import FIELDS, MEASURE, NA, Assertion, Measure, NaType, Term, goto_target, term_symbols


@dataclass(frozen=True)
class EventGroup:
    """Events sharing one index, considered roughly simultaneous."""

    index: int
    events: tuple = ()
    goto_target: int | None = None


@dataclass
class Script:
    concept: str
    roles: dict[int, str] = field(default_factory=dict)
    role_scripts: dict[int, str] = field(default_factory=dict)
    events: tuple = ()
    entry_conditions: tuple = ()
    results: tuple = ()
    goals: tuple = ()
    emotions: tuple = ()
    places: tuple = ()
    duration: Measure | None = None
    period: Measure | None = None
    cost: Measure | None = None


@dataclass(frozen=True)
class FieldValue:
    """A field value together with the concept it came from."""

    value: object
    source: str
    inherited: bool


def build_script(kb: KnowledgeBase, concept: str) -> Script:
    """Materialize the script view of a concept from its field assertions.

    It reads the concept's field assertions that loading recorded, grouped
    by field with file order preserved; the first value wins for roles, role
    scripts and measures.  A field assertion whose argument has the wrong
    shape is not recorded; loading reports it.
    """
    if concept not in kb.ontology:
        raise UnknownConcept(f"unknown concept {concept!r}")
    script = Script(concept)
    groups: dict[int, list[Term]] = {}
    gotos: dict[int, int] = {}

    for a in kb._field_assertions[concept]:
        spec = FIELDS[a.predicate]
        value = a.args[1]
        if spec.attr == "events":
            groups.setdefault(spec.index, []).append(value)
            target = goto_target(value)
            if target is not None:
                gotos.setdefault(spec.index, target)
        elif spec.index is not None:
            getattr(script, spec.attr).setdefault(spec.index, value)
        elif spec.shape == MEASURE:
            if getattr(script, spec.attr) is None:
                setattr(script, spec.attr, value)
        else:
            setattr(script, spec.attr, getattr(script, spec.attr) + (value,))

    script.roles = dict(sorted(script.roles.items()))
    script.role_scripts = dict(sorted(script.role_scripts.items()))
    script.events = tuple(
        EventGroup(i, tuple(groups[i]), gotos.get(i)) for i in sorted(groups))
    return script


def is_script(kb: KnowledgeBase, concept: str) -> bool:
    """Whether the concept is one of ``kb.script_concepts()``."""
    if concept not in kb:
        raise UnknownConcept(f"unknown concept {concept!r}")
    return concept in kb._scripts


def require_script(kb: KnowledgeBase, concept: str) -> None:
    """Raise UnknownConcept or NotAScript unless the concept is a script."""
    if not is_script(kb, concept):  # an unknown concept raises UnknownConcept here
        raise NotAScript(f"{concept!r} is not a script (no events)")


def timeline(script: Script, unroll_limit: int = 3) -> list[EventGroup]:
    """Flatten the timeline, following gotos at most ``unroll_limit`` times.

    Groups come out in index order; a goto restarts emission at its target
    group and emission stops once the jump budget is spent.  Goto groups
    themselves are not emitted.
    """
    if unroll_limit < 0:
        raise ValueError("unroll_limit must be nonnegative")
    position = {g.index: i for i, g in enumerate(script.events)}
    out: list[EventGroup] = []
    jumps = 0
    i = 0
    while i < len(script.events):
        group = script.events[i]
        if group.goto_target is not None:
            if group.goto_target not in position:
                raise BadGotoTarget(
                    f"{script.concept}: goto targets missing group "
                    f"{group.goto_target:02d}")
            if jumps >= unroll_limit:
                break
            jumps += 1
            i = position[group.goto_target]
            continue
        out.append(group)
        i += 1
    return out


def instance_assertion(kb: KnowledgeBase, script: Script, bindings) -> Assertion:
    """Assertion about a script instance: predicate is the script concept and
    the arguments fill the numbered roles in order.

    Each binding must be a descendant of (or equal to) its role concept;
    ``na`` leaves a role unfilled.
    """
    role_items = sorted(script.roles.items())
    if len(bindings) > len(role_items):
        raise TooManyBindings(
            f"{script.concept} has {len(role_items)} roles, got {len(bindings)} bindings")
    args: list[Term] = []
    for (index, role_concept), binding in zip(role_items, bindings):
        if isinstance(binding, NaType) or binding == "na":
            args.append(NA)
            continue
        if binding not in kb.ontology:
            raise UnknownConcept(binding)
        if not kb.ontology.is_a(binding, role_concept):
            raise RoleTypeMismatch(
                f"{binding!r} does not fill role {index:02d} ({role_concept})")
        args.append(binding)
    return Assertion(script.concept, tuple(args))


def validate(kb: KnowledgeBase, script: Script) -> list[Diagnostic]:
    """Sanity checks on a script: errors, warnings, and notes, not exceptions.

    Each diagnostic sits at the assertion it is about.  One about the whole
    script sits at the script's first assertion, or at ``<script>:0:0`` when
    the base holds no assertion about the script.
    """
    sites = kb.sites_about(script.concept)
    filled: dict[tuple, list] = {}  # (attr, NN) -> the field's sites, in file order
    for site in sites:
        spec = FIELDS.get(site[0].predicate)
        if spec:
            filled.setdefault((spec.attr, spec.index), []).append(site)
    out: list[Diagnostic] = []

    def report(severity, code, message, attr=None, index=None, value=None):
        # at the first assertion filling the given field, else the script's first
        at = next((site for site in filled.get((attr, index), ())
                   if value is None or value in site[0].args[1:2]),
                  sites[0] if sites else None)
        position = (at[1], at[2], 1) if at else ("<script>", 0, 0)
        out.append(Diagnostic(*position, severity, code, message))

    indices = list(script.roles)
    if indices and indices != list(range(1, len(indices) + 1)):
        report(ERROR, "RoleGap", f"role indices {indices} are not contiguous from 01")
    for index in script.role_scripts:
        if index not in script.roles:
            report(WARNING, "RoleScriptWithoutRole",
                   f"role{index:02d}-script-of has no matching role",
                   "role_scripts", index)

    group_indices = {g.index for g in script.events}
    for g in script.events:
        if not g.events:
            report(ERROR, "EmptyEventGroup", f"event group {g.index:02d} is empty")
        if g.goto_target is not None:
            goto = next((t for t in g.events if goto_target(t) is not None), None)
            if g.goto_target not in group_indices:
                report(ERROR, "BadGotoTarget",
                       f"goto in group {g.index:02d} targets missing group "
                       f"{g.goto_target:02d}", "events", g.index, goto)
            if len(g.events) > 1:
                report(WARNING, "GotoNotAlone",
                       f"group {g.index:02d} mixes a goto with other events",
                       "events", g.index, goto)

    for label in ("duration", "period"):
        measure = getattr(script, label)
        if measure is not None and measure.quantity <= 0:
            report(ERROR, "NonPositiveMeasure",
                   f"{label} must be positive, got {measure.text}", label)
    if script.cost is not None and script.cost.quantity < 0:
        report(ERROR, "NonPositiveMeasure",
               f"cost must not be negative, got {script.cost.text}", "cost")

    # roles, role scripts and measures keep their first value
    for (attr, index), given in filled.items():
        pred = given[0][0].predicate
        if len(given) > 1 and attr != "events" \
                and (index is not None or FIELDS[pred].shape == MEASURE):
            _, file, line = given[1]
            out.append(Diagnostic(file, line, 1, WARNING, "DuplicateField",
                                  f"{pred} given {len(given)} times; first wins"))

    # an event may name the script's places as well as its roles, or a more
    # general or more specific concept than one of them
    onto = kb.ontology
    related = {c for c in (*script.roles.values(), *script.places) if c in onto}
    up = related.union(*map(onto.ancestors, related))
    checked: set[str] = set()
    for g in script.events:
        for term in g.events:
            if not isinstance(term, Assertion) or goto_target(term) is not None:
                continue
            for name in term_symbols(term, include_predicates=False):
                if name in checked:
                    continue
                checked.add(name)
                if name in onto and (
                        name in up or not related.isdisjoint(onto.ancestors(name))):
                    continue
                report(INFO, "EventArgOutsideRoles",
                       f"event argument {name!r} names no declared role "
                       f"concept (nor an ancestor or descendant of one)",
                       "events", g.index, term)
    return out


_INHERITABLE = {"duration", "period", "cost", "places"}


def inherited_field(kb: KnowledgeBase, concept: str, fieldname: str) -> FieldValue | None:
    """Scalar field with ancestor fallback: the concept's own value when set,
    otherwise the nearest ancestor's.  Events and roles never inherit.

    Only the field's own assertions are read, as the script view would read
    them: the first measure, or every place in file order."""
    if fieldname not in _INHERITABLE:
        raise ValueError(f"field {fieldname!r} does not support inheritance")
    for source in [concept] + kb.ontology.ancestors(concept):
        values = tuple(a.args[1] for a in kb._field_assertions[source]
                       if FIELDS[a.predicate].attr == fieldname)
        if values:
            return FieldValue(values if fieldname == "places" else values[0],
                              source, source != concept)
    return None
