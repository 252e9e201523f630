"""Model interchange: canonical JSON, an UPPAAL XML import subset, DOT.

The JSON format (tagged "ta/1") mirrors the automaton definition: guards
are conjunctions of atoms on input, with nested all/any nodes permitted so
pipeline outputs can carry disjunctions.  UPPAAL XML import covers one
template with clock guards and x=0 resets; a channel named ``tau`` marks
silent transitions and location names ending in ``_acc`` mark accepting
locations.  Anything outside the subset is rejected loudly.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from functools import cache
from typing import Optional

from .core import (
    RELS,
    TRUE,
    And,
    Atom,
    Clock,
    FalseGuard,
    Guard,
    Or,
    TimedAutomaton,
    Transition,
    TrueGuard,
    conj,
    disj,
    make_automaton,
)

FORMAT_TAG = "ta/1"


class ParseError(ValueError):
    """Malformed or inconsistent model document; ``path`` locates the fault."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# JSON reading


def _expect(obj, key: str, path: str):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    if key not in obj:
        raise ParseError(f"missing field: {key}", path)
    return obj[key]


def _atom_from_json(obj, path: str, clocks: dict[str, Clock]) -> Atom:
    left = _expect(obj, "left", path)
    rel = _expect(obj, "rel", path)
    const = _expect(obj, "const", path)
    if not isinstance(left, str) or left not in clocks:
        raise ParseError(f"unknown clock: {left}", f"{path}.left")
    if rel not in RELS:
        raise ParseError(f"malformed relation: {rel!r}", f"{path}.rel")
    if not isinstance(const, int) or isinstance(const, bool):
        raise ParseError("constant must be an integer", f"{path}.const")
    if const < 0:
        raise ParseError("negative constant", f"{path}.const")
    right: Optional[Clock] = None
    if "right" in obj and obj["right"] is not None:
        if not isinstance(obj["right"], str) or obj["right"] not in clocks:
            raise ParseError(f"unknown clock: {obj['right']}", f"{path}.right")
        if obj["right"] == left:
            raise ParseError("diagonal atom needs two distinct clocks", f"{path}.right")
        right = clocks[obj["right"]]
    return Atom(clocks[left], rel, const, right)


def _guard_node_from_json(node, path: str, clocks: dict[str, Clock]) -> Guard:
    if not isinstance(node, dict):
        raise ParseError("guard node must be an object", path)
    for tag, join in (("all", conj), ("any", disj)):
        if tag in node:
            if not isinstance(node[tag], list):
                raise ParseError("expected a list", f"{path}.{tag}")
            return join(*(
                _guard_node_from_json(p, f"{path}.{tag}[{i}]", clocks)
                for i, p in enumerate(node[tag])
            ))
    return _atom_from_json(node, path, clocks)


def _guard_from_json(lst, path: str, clocks: dict[str, Clock]) -> Guard:
    if not isinstance(lst, list):
        raise ParseError("guard must be a list", path)
    return conj(*(
        _guard_node_from_json(node, f"{path}[{i}]", clocks)
        for i, node in enumerate(lst)
    ))


def parse_model(text: str) -> TimedAutomaton:
    """Validated automaton from a "ta/1" JSON document.

    Faults are reported with the JSON path of the offending value.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if doc.get("format", FORMAT_TAG) != FORMAT_TAG:
        raise ParseError(f"unsupported format tag: {doc['format']!r}", "$.format")

    raw_locations = _expect(doc, "locations", "$")

    clock_names = _expect(doc, "clocks", "$")
    if not isinstance(clock_names, list):
        raise ParseError("expected a list", "$.clocks")
    clocks = {}
    for i, name in enumerate(clock_names):
        if not isinstance(name, str) or not name:
            raise ParseError("clock name must be a non-empty string", f"$.clocks[{i}]")
        if name in clocks:
            raise ParseError(f"duplicate clock: {name}", f"$.clocks[{i}]")
        clocks[name] = Clock(name)

    if not isinstance(raw_locations, list) or not raw_locations:
        raise ParseError("expected a non-empty list", "$.locations")
    locations: list[str] = []
    accepting: list[str] = []
    for i, loc in enumerate(raw_locations):
        path = f"$.locations[{i}]"
        lid = _expect(loc, "id", path)
        if not isinstance(lid, str):
            raise ParseError("location id must be a string", f"{path}.id")
        if lid in locations:
            raise ParseError(f"duplicate location: {lid}", f"{path}.id")
        locations.append(lid)
        is_accepting = loc.get("accepting", False)
        if not isinstance(is_accepting, bool):
            raise ParseError("accepting must be a boolean", f"{path}.accepting")
        if is_accepting:
            accepting.append(lid)
        if "invariant" in loc:
            # no stage of the pipeline honours one, so it is not dropped quietly
            raise ParseError("location invariants are not supported", f"{path}.invariant")

    initial = _expect(doc, "initial", "$")
    if initial not in locations:
        raise ParseError(f"unknown location: {initial}", "$.initial")

    raw_transitions = _expect(doc, "transitions", "$")
    if not isinstance(raw_transitions, list):
        raise ParseError("expected a list", "$.transitions")
    transitions: list[Transition] = []
    for i, tr in enumerate(raw_transitions):
        path = f"$.transitions[{i}]"
        src = _expect(tr, "source", path)
        dst = _expect(tr, "target", path)
        for field, value in (("source", src), ("target", dst)):
            if value not in locations:
                raise ParseError(f"unknown location: {value}", f"{path}.{field}")
        action = _expect(tr, "action", path)
        if not isinstance(action, str) or not action:
            raise ParseError("action must be a non-empty string", f"{path}.action")
        guard = _guard_from_json(tr.get("guard", []), f"{path}.guard", clocks)
        raw_resets = tr.get("resets", [])
        if not isinstance(raw_resets, list):
            raise ParseError("expected a list", f"{path}.resets")
        resets = []
        for j, r in enumerate(raw_resets):
            if not isinstance(r, str) or r not in clocks:
                raise ParseError(f"unknown clock: {r}", f"{path}.resets[{j}]")
            resets.append(clocks[r])
        transitions.append(Transition(
            src, dst, None if action == "eps" else action, guard, frozenset(resets)
        ))

    return make_automaton(locations, initial, accepting, clocks.values(), transitions)


# ---------------------------------------------------------------------------
# JSON writing


_EMPTY_OR = Or(())  # how an unsatisfiable guard is written


def serialize_model(a: TimedAutomaton) -> str:
    """Canonical "ta/1" text: stable key order, locations and clocks sorted.

    The text is what ``json.dumps(doc, indent=2)`` gives for the document,
    written directly: strings go through ``json.dumps``, so escaping is the
    encoder's.  The text is appended to one list of chunks, joined once.  A
    guard node is written once per indentation and a transition's guard
    once: where the same object comes again, the span of chunks that its
    first writing appended is appended again (the memos key on object ids,
    which stay valid while ``a`` is alive).
    """
    q = cache(json.dumps)
    out: list[str] = []
    # the span of ``out`` that the first writing appended, of each guard
    # node by (id, indent) and of each transition guard by id
    node_spans: dict[tuple[int, int], tuple[int, int]] = {}
    guard_spans: dict[int, tuple[int, int]] = {}

    @cache
    def newline(indent: int) -> str:
        return "\n" + " " * indent

    def items(texts: list[str], indent: int) -> str:
        """A list of values already written, its brackets at ``indent``."""
        if not texts:
            return "[]"
        pad = newline(indent + 2)
        return "[" + pad + ("," + pad).join(texts) + newline(indent) + "]"

    def nodes(parts: tuple[Guard, ...], indent: int) -> None:
        """Append the list of guard nodes ``parts``, its brackets at ``indent``."""
        if not parts:
            out.append("[]")
            return
        inner = indent + 2
        sep, pad = "," + newline(inner), "," + newline(inner + 2)
        out.append("[" + newline(inner))
        for i, g in enumerate(parts):
            if i:
                out.append(sep)
            key = (id(g), inner)
            span = node_spans.get(key)
            if span is not None:
                out.extend(out[span[0]:span[1]])
                continue
            start = len(out)
            if isinstance(g, Atom):
                right = "" if g.right is None else f'{pad}"right": {q(g.right.name)}'
                out.append(
                    f'{{{newline(inner + 2)}"left": {q(g.left.name)}{pad}"rel": {q(g.rel)}'
                    f'{pad}"const": {g.bound}{right}{newline(inner)}}}'
                )
            elif isinstance(g, (And, Or)):
                out.append(f'{{{newline(inner + 2)}"{"all" if isinstance(g, And) else "any"}": ')
                nodes(g.parts, inner + 2)
                out.append(newline(inner) + "}")
            else:
                raise ValueError(f"guard constant cannot nest: {g}")
            node_spans[key] = (start, len(out))
        out.append(newline(indent) + "]")

    def guard(g: Guard) -> None:
        """Append a guard as the list of its conjuncts; every guard sits at indent 6."""
        key = id(g)
        span = guard_spans.get(key)
        if span is not None:
            out.extend(out[span[0]:span[1]])
            return
        start = len(out)
        if isinstance(g, TrueGuard):
            out.append("[]")
        else:
            if isinstance(g, FalseGuard):
                g = _EMPTY_OR
            nodes(g.parts if isinstance(g, And) else (g,), 6)
        guard_spans[key] = (start, len(out))

    @cache
    def resets(clocks: frozenset[Clock]) -> str:
        return items([q(c) for c in sorted(c.name for c in clocks)], 6)

    locations = [
        f'{{\n      "id": {q(str(loc))},'
        f'\n      "accepting": {"true" if loc in a.accepting else "false"}\n    }}'
        for loc in sorted(a.locations, key=str)
    ]
    clocks = items([q(c) for c in sorted(c.name for c in a.clocks)], 2)
    out.append(
        f'{{\n  "format": {q(FORMAT_TAG)},\n  "clocks": {clocks},'
        f'\n  "locations": {items(locations, 2)},\n  "initial": {q(str(a.initial))},'
        f'\n  "transitions": {"[" if a.transitions else "[]"}'
    )
    for i, t in enumerate(a.transitions):
        out.append(
            f'{"," if i else ""}\n    {{\n      "source": {q(str(t.source))},'
            f'\n      "target": {q(str(t.target))},'
            f'\n      "action": {q("eps" if t.is_silent else t.action)},\n      "guard": '
        )
        guard(t.guard)
        out.append(f',\n      "resets": {resets(t.resets)}\n    }}')
    out.append("\n  ]\n}\n" if a.transitions else "\n}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# UPPAAL XML import


_UPPAAL_ATOM = re.compile(
    r"^\s*(\w+)\s*(?:-\s*(\w+)\s*)?(<=|>=|==|<|>)\s*(\d+)\s*$"
)
_UPPAAL_RESET = re.compile(r"^\s*(\w+)\s*:?=\s*0\s*$")


def _uppaal_guard(text: str, clocks: dict[str, Clock], where: str) -> Guard:
    parts = []
    for chunk in text.split("&&"):
        m = _UPPAAL_ATOM.match(chunk)
        if not m:
            raise UnsupportedXmlError(f"unsupported guard expression {chunk.strip()!r} in {where}")
        left, right, rel, const = m.groups()
        for name in (left, right):
            if name is not None and name not in clocks:
                raise UnsupportedXmlError(f"undeclared clock {name!r} in {where}")
        try:
            parts.append(Atom(
                clocks[left],
                "=" if rel == "==" else rel,
                int(const),
                clocks[right] if right else None,
            ))
        except ValueError as e:  # one clock on both sides, or a constant too long to convert
            raise UnsupportedXmlError(f"{e} in {where}") from None
    return conj(*parts)


class UnsupportedXmlError(ValueError):
    """Document uses a feature outside the supported UPPAAL subset."""


def import_uppaal_xml(text: str) -> TimedAutomaton:
    """Automaton from a single-template UPPAAL document.

    Supported: clock/chan declarations, plain locations, guard labels that
    conjoin clock comparisons, assignment labels resetting clocks to 0, and
    synchronization labels naming a channel (``tau`` for silent).  State
    variables, committed or urgent locations, location labels (invariants
    among them), and multiple templates are rejected, and so are
    transitions whose source or target is missing or names no location,
    and a channel named ``eps``, the name "ta/1" reserves for silent steps.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise ParseError(f"invalid XML: {e}") from e
    if root.tag != "nta":
        raise UnsupportedXmlError(f"expected <nta> document, found <{root.tag}>")

    clocks: dict[str, Clock] = {}
    channels: set[str] = set()
    declarations = " ".join(d.text or "" for d in root.iter("declaration"))
    for stmt in declarations.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        kind, _, names = stmt.partition(" ")
        if kind not in ("clock", "chan"):
            raise UnsupportedXmlError(f"unsupported declaration: {stmt!r}")
        declared = [n.strip() for n in names.split(",")]
        if "" in declared:
            raise UnsupportedXmlError(f"empty {kind} name in {stmt!r}")
        if kind == "clock":
            clocks.update((n, Clock(n)) for n in declared)
        elif "eps" in declared:  # "ta/1" writes silent steps as "eps"
            raise UnsupportedXmlError(f"reserved channel name 'eps' in {stmt!r}")
        else:
            channels.update(declared)

    templates = root.findall("template")
    if len(templates) != 1:
        raise UnsupportedXmlError(f"expected exactly one template, found {len(templates)}")
    tmpl = templates[0]

    names: dict[str, str] = {}
    accepting: list[str] = []
    for loc in tmpl.findall("location"):
        lid = loc.get("id")
        if lid is None or lid in names:
            raise UnsupportedXmlError(f"missing or duplicate location id {lid!r}")
        if loc.find("committed") is not None or loc.find("urgent") is not None:
            raise UnsupportedXmlError(f"committed/urgent location {lid}")
        label = loc.find("label")
        if label is not None:
            raise UnsupportedXmlError(
                f"unsupported label kind {label.get('kind')!r} on location {lid}"
            )
        name_el = loc.find("name")
        name = name_el.text if name_el is not None and name_el.text else lid
        if name in names.values():
            raise UnsupportedXmlError(f"duplicate location name {name!r}")
        names[lid] = name
        if name.endswith("_acc"):
            accepting.append(name)
    init = tmpl.find("init")
    if init is None or init.get("ref") not in names:
        raise UnsupportedXmlError("missing or dangling <init>")

    transitions: list[Transition] = []
    for i, tr in enumerate(tmpl.findall("transition")):
        where = f"transition {i}"
        ends = [tr.find(end) for end in ("source", "target")]
        if any(e is None or e.get("ref") not in names for e in ends):
            raise UnsupportedXmlError(f"missing or dangling <source>/<target> in {where}")
        src, dst = (names[e.get("ref")] for e in ends)
        guard: Guard = TRUE
        action: Optional[str] = None
        resets: set[Clock] = set()
        for label in tr.findall("label"):
            kind = label.get("kind")
            body = (label.text or "").strip()
            if kind == "guard":
                guard = _uppaal_guard(body, clocks, where)
            elif kind == "synchronisation":
                chan = body.rstrip("!?")
                if chan not in channels:
                    raise UnsupportedXmlError(f"undeclared channel {chan!r} in {where}")
                action = None if chan == "tau" else chan
            elif kind == "assignment":
                for stmt in body.split(","):
                    m = _UPPAAL_RESET.match(stmt)
                    if not m or m.group(1) not in clocks:
                        raise UnsupportedXmlError(
                            f"unsupported assignment {stmt.strip()!r} in {where}"
                        )
                    resets.add(clocks[m.group(1)])
            else:
                raise UnsupportedXmlError(f"unsupported label kind {kind!r} in {where}")
        transitions.append(Transition(src, dst, action, guard, frozenset(resets)))

    return make_automaton(
        names.values(), names[init.get("ref")], accepting, clocks.values(), transitions
    )


# ---------------------------------------------------------------------------
# DOT export


_PRETTY_REL = {"<": "<", "<=": "≤", "=": "=", ">=": "≥", ">": ">"}


def _pretty_guard(g: Guard) -> str:
    if isinstance(g, TrueGuard):
        return "true"
    if isinstance(g, FalseGuard):
        return "false"
    if isinstance(g, Atom):
        lhs = g.left.name if g.right is None else f"{g.left.name}-{g.right.name}"
        return f"{lhs}{_PRETTY_REL[g.rel]}{g.bound}"
    if isinstance(g, And):
        return " ∧ ".join(
            f"({_pretty_guard(p)})" if isinstance(p, Or) else _pretty_guard(p)
            for p in g.parts
        )
    return " ∨ ".join(f"({_pretty_guard(p)})" for p in g.parts)


def _dot_quote(s: object) -> str:
    """``s`` as a DOT quoted string, its ``\\`` and ``"`` escaped."""
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: TimedAutomaton) -> str:
    """Graphviz rendering; accepting locations are double circles."""
    lines = ["digraph ta {", "  rankdir=LR;", '  node [shape=circle];']
    order = sorted(a.locations, key=str)
    for q in order:
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  {_dot_quote(q)} [shape={shape}];')
    lines.append(f'  __init__ [shape=point,label=""];')
    lines.append(f'  __init__ -> {_dot_quote(a.initial)};')
    for t in a.transitions:
        label = "ε" if t.is_silent else t.action
        pieces = [label]
        if not isinstance(t.guard, TrueGuard):
            pieces.append(_pretty_guard(t.guard))
        if t.resets:
            pieces.append("{" + ",".join(sorted(c.name for c in t.resets)) + "}")
        lines.append(f'  {_dot_quote(t.source)} -> {_dot_quote(t.target)}'
                     f' [label={_dot_quote("  ".join(pieces))}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
