"""JSON round-trips, UPPAAL subset import, DOT export."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tadet.core import (
    FALSE,
    TRUE,
    And,
    Atom,
    Clock,
    FalseGuard,
    Or,
    Transition,
    TrueGuard,
    conj,
    disj,
    make_automaton,
)
from tadet.cli import EXIT_PARSE, main
from tadet.corpus import NAMED_MODELS, coffee_machine, random_automaton
from tadet.determinize import (
    determinize_guard_oriented,
    determinize_standard,
    pipeline_on_the_fly,
)
from tadet.modelio import (
    ParseError,
    UnsupportedXmlError,
    export_dot,
    import_uppaal_xml,
    parse_model,
    serialize_model,
)
from tadet.silent import remove_all_silent
from tadet.unfold import rename_clocks, unfold

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("name", sorted(NAMED_MODELS))
def test_serialize_parse_round_trip(name):
    a = NAMED_MODELS[name]()
    text = serialize_model(a)
    b = parse_model(text)
    assert serialize_model(b) == text
    assert b.locations == a.locations
    assert b.accepting == a.accepting
    assert b.initial == a.initial
    assert len(b.transitions) == len(a.transitions)


@pytest.mark.parametrize("name", sorted(NAMED_MODELS))
def test_bundled_files_match_corpus(name):
    text = (MODELS_DIR / f"{name}.json").read_text()
    assert serialize_model(NAMED_MODELS[name]()) == text
    assert serialize_model(parse_model(text)) == text


def test_pipeline_output_round_trips():
    d = determinize_guard_oriented(
        remove_all_silent(rename_clocks(unfold(coffee_machine(), 4)))
    )
    text = serialize_model(d.to_automaton())
    assert serialize_model(parse_model(text)) == text
    assert '"any"' in text  # merged guards carry disjunction


# reference for serialize_model: the document as nested dicts and lists,
# encoded by json.dumps(indent=2)


def _ref_node(g):
    if isinstance(g, Atom):
        out = {"left": g.left.name, "rel": g.rel, "const": int(g.bound)}
        if g.right is not None:
            out["right"] = g.right.name
        return out
    if isinstance(g, And):
        return {"all": [_ref_node(p) for p in g.parts]}
    if isinstance(g, Or):
        return {"any": [_ref_node(p) for p in g.parts]}
    raise ValueError(f"guard constant cannot nest: {g}")


def _ref_guard(g):
    if isinstance(g, TrueGuard):
        return []
    if isinstance(g, FalseGuard):
        return [{"any": []}]
    if isinstance(g, And):
        return [_ref_node(p) for p in g.parts]
    return [_ref_node(g)]


def reference_text(a):
    doc = {
        "format": "ta/1",
        "clocks": sorted(c.name for c in a.clocks),
        "locations": [
            {"id": str(q), "accepting": q in a.accepting}
            for q in sorted(a.locations, key=str)
        ],
        "initial": str(a.initial),
        "transitions": [
            {
                "source": str(t.source),
                "target": str(t.target),
                "action": "eps" if t.is_silent else t.action,
                "guard": _ref_guard(t.guard),
                "resets": sorted(c.name for c in t.resets),
            }
            for t in a.transitions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _pipeline_outputs():
    for name in sorted(NAMED_MODELS):
        for k in (2, 3):
            tree = rename_clocks(unfold(NAMED_MODELS[name](), k))
            removed = remove_all_silent(tree)
            yield f"{name}-{k}-tree", tree.to_automaton()
            yield f"{name}-{k}-new", determinize_guard_oriented(removed).to_automaton()
            yield f"{name}-{k}-otf", pipeline_on_the_fly(NAMED_MODELS[name](), k).to_automaton()
        removed = remove_all_silent(rename_clocks(unfold(NAMED_MODELS[name](), 2)))
        yield f"{name}-2-std", determinize_standard(removed).to_automaton()
    for seed in range(12, 24):
        yield f"random-{seed}", random_automaton(seed)
        yield f"random-{seed}-3-otf", pipeline_on_the_fly(random_automaton(seed), 3).to_automaton()


def test_writer_matches_reference_on_models_and_outputs():
    for name in sorted(NAMED_MODELS):
        a = NAMED_MODELS[name]()
        assert serialize_model(a) == reference_text(a), name
    for label, a in _pipeline_outputs():
        assert serialize_model(a) == reference_text(a), label


def test_writer_matches_reference_on_hand_built_cases():
    x, y, z = Clock("x"), Clock("y"), Clock("z")
    quoted = 'q"1'
    slashed = "q\\2"
    accented = "q\u00e93"
    nested = conj(
        Atom(x, "<", 3),
        disj(Atom(y, ">=", 1), conj(Atom(x, "=", 2, y), Atom(z, ">", 0))),
    )
    shared = Atom(z, "<=", 4)
    a = make_automaton(
        locations=["q0", quoted, slashed, accented],
        initial="q0",
        accepting=[quoted, accented],
        clocks=[x, y, z],
        transitions=[
            Transition("q0", quoted, "a", FALSE),
            Transition(quoted, slashed, None, nested, frozenset((x, y, z))),
            Transition(slashed, accented, "b\\c", disj(shared, Atom(x, ">", 1, z))),
            Transition(accented, "q0", "\u00e9", shared, frozenset((y,))),
            Transition("q0", "q0", "d", TRUE),
        ],
    )
    assert serialize_model(a) == reference_text(a)
    bare = make_automaton(["only"], "only", [], [], [])
    assert serialize_model(bare) == reference_text(bare)


def test_missing_field_diagnostic():
    with pytest.raises(ParseError, match=r"missing field: locations"):
        parse_model("{}")


def test_unknown_clock_names_path():
    doc = json.loads(serialize_model(coffee_machine()))
    doc["transitions"][1]["guard"] = [{"left": "z", "rel": "<", "const": 2}]
    with pytest.raises(ParseError, match=r"transitions\[1\].*unknown clock: z"):
        parse_model(json.dumps(doc))


def test_negative_constant_rejected():
    doc = json.loads(serialize_model(coffee_machine()))
    doc["transitions"][1]["guard"] = [{"left": "x", "rel": "<", "const": -1}]
    with pytest.raises(ParseError, match="negative constant"):
        parse_model(json.dumps(doc))


def test_malformed_relation_rejected():
    doc = json.loads(serialize_model(coffee_machine()))
    doc["transitions"][1]["guard"] = [{"left": "x", "rel": "!=", "const": 1}]
    with pytest.raises(ParseError, match="malformed relation"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("keys, value, where", [
    pytest.param(("transitions", 0, "resets"), 5, "$.transitions[0].resets", id="resets-int"),
    pytest.param(("transitions", 0, "resets"), "x", "$.transitions[0].resets", id="resets-str"),
    pytest.param(("transitions", 0, "resets"), [["x"]], "$.transitions[0].resets[0]",
                 id="reset-list"),
    pytest.param(("transitions", 1, "guard"), [{"all": 3}], "$.transitions[1].guard[0].all",
                 id="all-int"),
    pytest.param(("transitions", 1, "guard"), [{"any": {}}], "$.transitions[1].guard[0].any",
                 id="any-object"),
    pytest.param(("transitions", 1, "guard", 0, "left"), ["x"],
                 "$.transitions[1].guard[0].left", id="left-list"),
    pytest.param(("transitions", 1, "guard", 0, "right"), ["x"],
                 "$.transitions[1].guard[0].right", id="right-list"),
    pytest.param(("transitions", 1, "guard", 0, "right"), "x",
                 "$.transitions[1].guard[0].right", id="right-is-left"),
    pytest.param(("locations", 1, "accepting"), "false", "$.locations[1].accepting",
                 id="accepting-str"),
    pytest.param(("locations", 1, "accepting"), 1, "$.locations[1].accepting",
                 id="accepting-int"),
    # no stage honours a location invariant, so it is not dropped quietly
    pytest.param(("locations", 0, "invariant"), [{"left": "x", "rel": "<=", "const": 1}],
                 "$.locations[0].invariant", id="invariant"),
])
def test_malformed_document_is_a_parse_error(keys, value, where, tmp_path, capsys):
    doc = json.loads(serialize_model(coffee_machine()))
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError, match=re.escape(where + ":")):
        parse_model(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["--input", str(bad), "--depth", "2"]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse"


UPPAAL = """<nta>
  <declaration>clock x; chan alpha, tau;</declaration>
  <template>
    <name>m</name>
    <location id="id0"><name>q0</name></location>
    <location id="id1"><name>q1_acc</name></location>
    <init ref="id0"/>
    <transition><source ref="id0"/><target ref="id1"/>
      <label kind="guard">x&gt;1 &amp;&amp; x&lt;=3</label>
      <label kind="synchronisation">alpha!</label>
      <label kind="assignment">x=0</label></transition>
    <transition><source ref="id1"/><target ref="id0"/>
      <label kind="synchronisation">tau?</label></transition>
  </template>
</nta>"""


def test_uppaal_import_subset():
    a = import_uppaal_xml(UPPAAL)
    assert a.locations == frozenset(("q0", "q1_acc"))
    assert a.accepting == frozenset(("q1_acc",))
    silent = [t for t in a.transitions if t.is_silent]
    assert len(silent) == 1
    alpha = next(t for t in a.transitions if t.action == "alpha")
    assert len(alpha.resets) == 1


def test_uppaal_rejects_state_variables():
    with pytest.raises(UnsupportedXmlError, match="int n"):
        import_uppaal_xml(UPPAAL.replace("clock x;", "clock x; int n;"))


def test_uppaal_rejects_two_templates():
    doubled = UPPAAL.replace(
        "</template>", "</template><template><name>n</name>"
        '<location id="id9"><name>p</name></location><init ref="id9"/></template>'
    )
    with pytest.raises(UnsupportedXmlError, match="one template"):
        import_uppaal_xml(doubled)


def test_uppaal_rejects_committed_locations():
    committed = UPPAAL.replace(
        '<location id="id0"><name>q0</name></location>',
        '<location id="id0"><name>q0</name><committed/></location>',
    )
    with pytest.raises(UnsupportedXmlError, match="committed"):
        import_uppaal_xml(committed)


@pytest.mark.parametrize("old, new, message", [
    pytest.param('<location id="id0"><name>q0</name></location>',
                 '<location id="id0"><name>q0</name>'
                 '<label kind="invariant">x &lt;= 1</label></location>',
                 "'invariant' on location id0", id="invariant"),
    pytest.param('<source ref="id1"/>', '<source ref="id7"/>',
                 "<source>/<target> in transition 1", id="dangling-source"),
    pytest.param('<source ref="id1"/>', '', "<source>/<target> in transition 1",
                 id="missing-source"),
    pytest.param('<target ref="id1"/>', '', "<source>/<target> in transition 0",
                 id="missing-target"),
    pytest.param('<location id="id1">', '<location>', "missing or duplicate location id",
                 id="missing-id"),
    pytest.param('<location id="id1">', '<location id="id0">',
                 "missing or duplicate location id", id="duplicate-id"),
    pytest.param('<name>q1_acc</name>', '<name>q0</name>', "duplicate location name",
                 id="duplicate-name"),
    pytest.param('clock x;', 'clock x, ;', "empty clock name", id="empty-clock-name"),
    pytest.param('chan alpha, tau;', 'chan alpha, , tau;', "empty chan name",
                 id="empty-channel-name"),
])
def test_uppaal_rejects_malformed_locations_and_transitions(old, new, message, tmp_path, capsys):
    assert old in UPPAAL
    text = UPPAAL.replace(old, new)
    with pytest.raises(UnsupportedXmlError, match=re.escape(message)):
        import_uppaal_xml(text)
    bad = tmp_path / "bad.xml"
    bad.write_text(text)
    assert main(["--input", str(bad), "--depth", "2"]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse"


# -- the readers on malformed input ----------------------------------------
# whatever the document, a reader returns an automaton or raises one of its
# two documented errors, which the CLI turns into exit 2

MODEL_TEXTS = [p.read_text() for p in sorted(MODELS_DIR.glob("*.json"))]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)

# pieces of the UPPAAL subset, so that mutants reach the importer's checks
# and not only the XML parser's
XML_TOKENS = st.sampled_from([
    "x", "y", "-", " ", "&lt;", "&gt;", "&lt;=", "==", "=", ":=", "0", "1", "9" * 5000,
    ",", ";", "&amp;&amp;", "!", "?", "clock", "chan", "int", "tau", "alpha", "_acc",
    "id0", "id1", "id7", '"', "<", ">", "/>", "</label>", '<label kind="guard">',
    '<label kind="assignment">', '<label kind="invariant">', "<committed/>", "<init ",
    "<location ", "<name>", "</name>", "<template>", "</template>",
])


def _positions(node):
    """Every (container, key) inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _positions(child)


@st.composite
def mutated_document(draw):
    """A bundled model with a few of its values replaced or deleted."""
    doc = json.loads(draw(st.sampled_from(MODEL_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = draw(st.sampled_from(list(_positions(doc))))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(json_values)
    return json.dumps(doc)


@st.composite
def mutated_text(draw, texts, pieces):
    """One of ``texts`` with a few short spans replaced by ``pieces``."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + "".join(draw(st.lists(pieces, max_size=3))) + text[j:]
    return text


def _reads_or_rejects(read, text):
    try:
        a = read(text)
    except (ParseError, UnsupportedXmlError):
        return
    # what a reader accepts, the JSON reader reads back
    assert serialize_model(parse_model(serialize_model(a))) == serialize_model(a)


@settings(max_examples=100, deadline=None)
@given(st.one_of(json_values.map(json.dumps), st.text(max_size=20)))
@example("[" + "1" * 5000 + "]")  # past the interpreter's integer-string limit
def test_parse_model_on_random_json(text):
    _reads_or_rejects(parse_model, text)


@settings(max_examples=150, deadline=None)
@given(st.one_of(mutated_document(), mutated_text(MODEL_TEXTS, st.text(max_size=3))))
def test_parse_model_on_mutated_models(text):
    _reads_or_rejects(parse_model, text)


@settings(max_examples=200, deadline=None)
@given(mutated_text([UPPAAL], XML_TOKENS | st.text(max_size=3)))
@example(UPPAAL.replace("x&lt;=3", "x - x &lt;= 3"))
@example(UPPAAL.replace("x&lt;=3", "x&lt;=" + "9" * 5000))
@example(UPPAAL.replace("clock x;", "clock x, ;"))  # an empty name
@example(UPPAAL.replace("chan alpha, tau;", "chan alpha, tau, ;"))
def test_uppaal_import_on_mutated_documents(text):
    _reads_or_rejects(import_uppaal_xml, text)


def test_dot_export_structure():
    text = export_dot(coffee_machine())
    assert text.count("doublecircle") == 1
    assert "ε" in text
    assert text.count("->") == 6 + 1  # edges + initial marker
    assert text == export_dot(coffee_machine())  # deterministic


def test_dot_export_shows_disjunction():
    d = determinize_guard_oriented(
        remove_all_silent(rename_clocks(unfold(coffee_machine(), 4)))
    )
    text = export_dot(d.to_automaton())
    assert "∨" in text
