"""JSON round trips and DOT snapshots."""

import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import equation_text
from mahler.automata import (
    addition_automaton,
    addition_automaton_zeckendorf,
    constant_recognizer,
    count_ones_automaton,
    defect_automaton,
    defect_automaton_constructed,
    fibonacci_representation_automaton,
)
from mahler.equations import build_automaton_dumas, parse_equation
from mahler.numeration import ZECKENDORF
from mahler.rings import (INTEGERS, RATIONALS, ModRing, PrimeField, RingError, RingValue,
                          _quote, parse_ring)
from mahler.serialize import (
    _decode_label,
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    dfa_to_dot,
    dfa_to_json,
)
from mahler.wfa import (
    AutomatonError,
    DfaWithOutput,
    WeightedAutomaton,
    _label_key,
    cauchy_product,
    determinize,
    same_structure,
)


def small(ring, w):
    e = ring.element
    return WeightedAutomaton(
        ring=ring,
        alphabet=(0, 1),
        states=("a", "b"),
        initial=(ring.one, ring.zero),
        final=(ring.zero, e(w)),
        transitions={(0, 0, 0): ring.one, (0, 1, 1): e(w), (1, 1, 0): e(w)},
    )


# ---------------------------------------------------------------------------
# JSON

class TestJsonRoundTrip:
    def test_integers(self):
        A = fibonacci_representation_automaton()
        B = automaton_from_json(automaton_to_json(A))
        assert same_structure(A, B)

    def test_rationals(self):
        A = small(RATIONALS, RATIONALS.parse("-2/3"))
        B = automaton_from_json(automaton_to_json(A))
        assert same_structure(A, B)
        assert str(B.final[1]) == "-2/3"

    def test_prime_field(self):
        A = count_ones_automaton(PrimeField(2))
        B = automaton_from_json(automaton_to_json(A))
        assert same_structure(A, B)
        assert B.ring is not None and B.ring.spec == "Fp:2"

    def test_modular(self):
        A = small(ModRing(12), 7)
        B = automaton_from_json(automaton_to_json(A))
        assert same_structure(A, B)
        assert B.ring.spec == "Zmod:12"

    def test_tuple_labels(self):
        A = addition_automaton_zeckendorf().automaton
        B = automaton_from_json(automaton_to_json(A))
        assert same_structure(A, B)
        assert all(isinstance(b, tuple) and len(b) == 3 for b in B.alphabet)

    def test_text_is_deterministic_and_stable(self):
        A = small(INTEGERS, -3)
        text = automaton_to_json(A)
        assert text == automaton_to_json(A)
        assert text == automaton_to_json(automaton_from_json(text))

    def test_schema_shape(self):
        doc = json.loads(automaton_to_json(small(INTEGERS, 2)))
        assert set(doc) == {"ring", "alphabet", "states", "initial", "final",
                            "transitions"}
        assert doc["ring"] == "Z"
        assert doc["states"] == ["a", "b"]
        assert doc["initial"] == {"a": "1"}
        assert doc["final"] == {"b": "2"}
        assert doc["transitions"][0] == {"from": "a", "label": 0,
                                         "weight": "1", "to": "a"}
        # weights are strings so every ring round-trips exactly
        assert all(isinstance(row["weight"], str) for row in doc["transitions"])


def doc_of(A=None):
    return json.loads(automaton_to_json(A if A is not None else small(INTEGERS, 2)))


def reimport(doc):
    return automaton_from_json(json.dumps(doc))


class TestJsonValidation:
    def test_not_json(self):
        with pytest.raises(AutomatonError, match="not valid JSON"):
            automaton_from_json("{nope")

    def test_too_deeply_nested(self):
        with pytest.raises(AutomatonError, match="not valid JSON"):
            automaton_from_json("[" * 200_000)

    def test_not_an_object(self):
        with pytest.raises(AutomatonError, match="expected a JSON object"):
            automaton_from_json("[1, 2]")

    def test_dfa_documents_are_export_only(self):
        text = dfa_to_json(defect_automaton())
        with pytest.raises(AutomatonError, match="cannot import automata of type 'dfa'"):
            automaton_from_json(text)

    def test_missing_key(self):
        doc = doc_of()
        del doc["final"]
        with pytest.raises(AutomatonError, match="missing key 'final'"):
            reimport(doc)

    def test_bad_states(self):
        doc = doc_of()
        doc["states"] = "ab"
        with pytest.raises(AutomatonError, match="states must be an array of names"):
            reimport(doc)
        doc = doc_of()
        doc["states"] = ["a", "a"]
        with pytest.raises(AutomatonError, match="duplicate state name 'a'"):
            reimport(doc)

    def test_bad_vectors(self):
        doc = doc_of()
        doc["initial"] = ["a"]
        with pytest.raises(AutomatonError, match="initial must be an object"):
            reimport(doc)
        doc = doc_of()
        doc["final"] = {"zz": "1"}
        with pytest.raises(AutomatonError, match="final names unknown state 'zz'"):
            reimport(doc)

    def test_bad_transitions(self):
        doc = doc_of()
        doc["transitions"] = {}
        with pytest.raises(AutomatonError, match="transitions must be an array"):
            reimport(doc)
        doc = doc_of()
        doc["transitions"] = ["x"]
        with pytest.raises(AutomatonError, match="each transition must be an object"):
            reimport(doc)
        doc = doc_of()
        del doc["transitions"][0]["to"]
        with pytest.raises(AutomatonError, match="transition missing key 'to'"):
            reimport(doc)
        doc = doc_of()
        doc["transitions"][0]["to"] = "zz"
        with pytest.raises(AutomatonError, match="transition endpoint unknown"):
            reimport(doc)
        doc = doc_of()
        doc["transitions"].append(dict(doc["transitions"][0]))
        with pytest.raises(AutomatonError, match="duplicate transition"):
            reimport(doc)

    def test_wrong_json_types(self):
        doc = doc_of()
        doc["alphabet"] = 5
        with pytest.raises(AutomatonError, match="alphabet must be an array"):
            reimport(doc)
        doc = doc_of()
        doc["ring"] = 5
        with pytest.raises(AutomatonError, match="ring must be a string"):
            reimport(doc)
        doc = doc_of()
        doc["initial"] = {"a": 1}
        with pytest.raises(AutomatonError, match="initial weight 1 is not a string"):
            reimport(doc)
        doc = doc_of()
        doc["transitions"][0]["weight"] = [2]
        with pytest.raises(AutomatonError, match=r"transition weight \[2\] is not a string"):
            reimport(doc)
        doc = doc_of()
        doc["transitions"][0]["from"] = ["a"]
        with pytest.raises(AutomatonError, match="transition endpoint unknown"):
            reimport(doc)

    def test_bad_labels(self):
        doc = doc_of()
        doc["alphabet"] = ["x"]
        with pytest.raises(AutomatonError,
                           match="label 'x' is neither an integer nor an array"):
            reimport(doc)
        doc = doc_of()
        doc["alphabet"] = [True]
        with pytest.raises(AutomatonError, match="label True is neither"):
            reimport(doc)
        doc = doc_of()
        doc["alphabet"] = [[1, "a"]]
        with pytest.raises(AutomatonError,
                           match="label component 'a' is not an integer"):
            reimport(doc)

    def test_bad_weight_propagates_ring_error(self):
        doc = doc_of()
        doc["initial"]["a"] = "x"
        with pytest.raises(RingError, match="bad Z element 'x'"):
            reimport(doc)

    @pytest.mark.parametrize("bad", ["1_0", "١"])
    def test_weights_are_ascii_decimal(self, bad):
        # int() alone reads "1_0" as 10 and "١" (Arabic-Indic one) as 1
        doc = doc_of()
        doc["initial"]["a"] = bad
        with pytest.raises(RingError, match=f"bad Z element '{bad}'"):
            reimport(doc)
        doc = doc_of(small(RATIONALS, RATIONALS.parse("-2/3")))
        doc["transitions"][0]["weight"] = f"1/{bad}"
        with pytest.raises(RingError, match=f"bad Q element '1/{bad}'"):
            reimport(doc)
        doc = doc_of(small(PrimeField(7), 3))
        doc["final"]["b"] = bad
        with pytest.raises(RingError, match=f"bad Fp:7 element '{bad}'"):
            reimport(doc)

    def test_unknown_ring(self):
        doc = doc_of()
        doc["ring"] = "Foo"
        with pytest.raises(RingError, match="unknown ring spec 'Foo'"):
            reimport(doc)


class TestDfaJson:
    def test_defect_machine(self):
        doc = json.loads(dfa_to_json(defect_automaton()))
        assert doc["type"] == "dfa"
        assert doc["initial"] == "q0"
        assert doc["outputs"]["q3"] == -1
        assert doc["outputs"]["q4"] == 1
        assert {"from": "q0", "label": 0, "to": "q0"} in doc["transitions"]
        # q0 has no -1 edge on purpose
        assert not any(row["from"] == "q0" and row["label"] == -1
                       for row in doc["transitions"])

    def test_boolean_outputs(self):
        doc = json.loads(dfa_to_json(constant_recognizer((-1, 0, 1), 0)))
        assert doc["outputs"]["p0q0"] is True
        assert doc["outputs"]["dead"] is False

    def test_unserializable_output(self):
        D = DfaWithOutput(alphabet=(0,), states=("a",), initial=0,
                          transitions={(0, 0): 0}, outputs=(1.5,))
        with pytest.raises(AutomatonError, match="cannot serialize output 1.5"):
            dfa_to_json(D)


def reference_automaton_json(A):
    """The document automaton_to_json writes, through json.dumps(indent=1)."""
    def label(b):
        return list(b) if isinstance(b, tuple) else b

    return json.dumps({
        "ring": A.ring.spec,
        "alphabet": [label(b) for b in A.alphabet],
        "states": list(A.states),
        "initial": {A.states[i]: str(w) for i, w in enumerate(A.initial) if w},
        "final": {A.states[i]: str(w) for i, w in enumerate(A.final) if w},
        "transitions": [{"from": A.states[s], "label": label(b), "weight": str(w),
                         "to": A.states[d]}
                        for (s, b, d), w in sorted(A.transitions.items(),
                                                   key=lambda kv: (kv[0][0], _label_key(kv[0][1]),
                                                                   kv[0][2]))],
    }, indent=1)


def reference_dfa_json(D):
    """The document dfa_to_json writes, through json.dumps(indent=1)."""
    def label(b):
        return list(b) if isinstance(b, tuple) else b

    return json.dumps({
        "type": "dfa",
        "alphabet": [label(b) for b in D.alphabet],
        "states": list(D.states),
        "initial": D.states[D.initial],
        "outputs": {D.states[i]: str(v) if isinstance(v, RingValue) else v
                    for i, v in enumerate(D.outputs)},
        "transitions": [{"from": D.states[s], "label": label(b), "to": D.states[d]}
                        for (s, b), d in sorted(D.transitions.items(),
                                                key=lambda kv: (kv[0][0], _label_key(kv[0][1])))],
    }, indent=1)


# names with quotes, backslashes, control and non-ASCII characters
NAMES = st.text(st.sampled_from('az"\\/\n\t\x00\x7féß€𝔽😀') | st.characters(), max_size=5)
# ints, and tuple labels of every length, the empty one too
LABELS = st.integers(-3, 12) | st.lists(st.integers(-2, 3), max_size=3).map(tuple)
JSON_RINGS = ("Z", "Q", "Zmod:6", "Fp:2305843009213693951")


@st.composite
def json_machines(draw, pool_size=None):
    """Random machines over JSON_RINGS; with a pool_size, every weight is one
    of that many values, so the literals of a document repeat."""
    ring = parse_ring(draw(st.sampled_from(JSON_RINGS)))
    states = draw(st.lists(NAMES, unique=True, max_size=4))
    alphabet = draw(st.lists(LABELS, unique=True, max_size=4))
    n = len(states)
    value = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 9)) \
        if ring == RATIONALS else st.integers(-10**20, 10**20)
    if pool_size:
        value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=pool_size)))
    vector = st.lists(value | st.just(0), min_size=n, max_size=n)
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from(alphabet), st.integers(0, n - 1)),
        value, max_size=6)) if n and alphabet else {}
    return WeightedAutomaton(ring=ring, alphabet=tuple(alphabet), states=tuple(states),
                             initial=tuple(draw(vector)), final=tuple(draw(vector)),
                             transitions=arrows)


@st.composite
def json_dfas(draw):
    states = draw(st.lists(NAMES, unique=True, min_size=1, max_size=4))
    alphabet = draw(st.lists(LABELS, unique=True, max_size=3))
    n = len(states)
    ring = parse_ring(draw(st.sampled_from(JSON_RINGS)))
    output = (st.none() | st.booleans() | st.integers(-10**20, 10**20) | NAMES
              | st.integers(-5, 5).map(ring.element))
    transitions = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from(alphabet)),
        st.integers(0, n - 1), max_size=6)) if alphabet else {}
    return DfaWithOutput(alphabet=tuple(alphabet), states=tuple(states),
                         initial=draw(st.integers(0, n - 1)), transitions=transitions,
                         outputs=tuple(draw(st.lists(output, min_size=n, max_size=n))))


@settings(max_examples=200)
@given(json_machines(), json_dfas())
def test_json_writers_equal_json_dumps_with_indent_1(A, D):
    assert automaton_to_json(A) == reference_automaton_json(A)
    assert dfa_to_json(D) == reference_dfa_json(D)


def reference_automaton_from_json(text: str) -> WeightedAutomaton:
    """The loader as it was before it kept one value per distinct literal:
    every weight parsed by Ring.parse, every label through _decode_label."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise AutomatonError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise AutomatonError("expected a JSON object")
    if doc.get("type", "wfa") != "wfa":
        raise AutomatonError(
            f"cannot import automata of type {_quote(doc.get('type'))}; only "
            "weighted automata round-trip")
    for key in ("ring", "alphabet", "states", "initial", "final", "transitions"):
        if key not in doc:
            raise AutomatonError(f"missing key {key!r}")
    if not isinstance(doc["ring"], str):
        raise AutomatonError("ring must be a string")
    ring = parse_ring(doc["ring"])
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise AutomatonError("states must be an array of names")
    index = {}
    for i, name in enumerate(states):
        if name in index:
            raise AutomatonError(f"duplicate state name {_quote(name)}")
        index[name] = i
    if not isinstance(doc["alphabet"], list):
        raise AutomatonError("alphabet must be an array")
    alphabet = tuple(_decode_label(b) for b in doc["alphabet"])

    def parse_weight(wtext, what):
        if not isinstance(wtext, str):
            raise AutomatonError(f"{what} weight {_quote(wtext)} is not a string")
        return ring.parse(wtext)

    def vector(mapping, what):
        if not isinstance(mapping, dict):
            raise AutomatonError(f"{what} must be an object")
        vec = [ring.zero] * len(states)
        for name, wtext in mapping.items():
            if name not in index:
                raise AutomatonError(f"{what} names unknown state {_quote(name)}")
            vec[index[name]] = parse_weight(wtext, what)
        return tuple(vec)

    initial = vector(doc["initial"], "initial")
    final = vector(doc["final"], "final")
    trans = {}
    if not isinstance(doc["transitions"], list):
        raise AutomatonError("transitions must be an array")
    for row in doc["transitions"]:
        if not isinstance(row, dict):
            raise AutomatonError("each transition must be an object")
        try:
            src, label, wtext, dst = row["from"], row["label"], row["weight"], row["to"]
        except KeyError as e:
            raise AutomatonError(f"transition missing key {_quote(e.args[0])}") from None
        if not (isinstance(src, str) and isinstance(dst, str)
                and src in index and dst in index):
            raise AutomatonError(
                f"transition endpoint unknown: {_quote(src)} -> {_quote(dst)}")
        key = (index[src], _decode_label(label), index[dst])
        if key in trans:
            raise AutomatonError(
                f"duplicate transition {_quote(src)} -{_quote(label)}-> {_quote(dst)}")
        trans[key] = parse_weight(wtext, "transition")
    return WeightedAutomaton(ring=ring, alphabet=alphabet, states=tuple(states),
                             initial=initial, final=final, transitions=trans)


def load_outcome(load, text):
    """The machine load(text) returns, or the type and message it raises."""
    try:
        return load(text)
    except Exception as e:  # every error type counts, not only AutomatonError
        return type(e), str(e)


def assert_loads_like_the_reference(text):
    got = load_outcome(automaton_from_json, text)
    want = load_outcome(reference_automaton_from_json, text)
    if isinstance(want, WeightedAutomaton):
        assert isinstance(got, WeightedAutomaton) and same_structure(got, want)
    else:
        assert got == want
    return got


# one JSON scalar: a string, a number or a literal
SCALAR = re.compile(r'"(?:[^"\\]|\\.)*"|-?[0-9]+|true|false|null')
# what a mutant puts in a scalar's place: weights repeated, made zero, bad or
# of another JSON type, labels and names of the wrong kind
SUBSTITUTES = ('"1"', '"-1"', '"0"', '"-0"', '"0/7"', '"1/2"', '"2/4"', '"x"', '"1_0"',
               '"1/0"', '""', "0", "1", "true", "null", "[2]", "[1, 2]", "[true]",
               '{"a": 1}', "{}", "[]")


@settings(max_examples=150)
@given(json_machines(pool_size=3), st.data())
def test_loader_matches_the_literal_by_literal_loader(A, data):
    text = automaton_to_json(A)
    B = assert_loads_like_the_reference(text)
    assert same_structure(A, B) and automaton_to_json(B) == text
    # every scalar but the object keys, each of which the writer follows by ":"
    tokens = [m.span() for m in SCALAR.finditer(text) if text[m.end()] != ":"]
    for _ in range(4):
        i, j = data.draw(st.sampled_from(tokens))
        other = data.draw(st.sampled_from(tokens))
        sub = data.draw(st.sampled_from(SUBSTITUTES) | st.just(text[other[0]:other[1]]))
        assert_loads_like_the_reference(text[:i] + sub + text[j:])


def two_arrow_doc(ring="Z"):
    """A two-state document whose arrows both weigh "2"."""
    return {"ring": ring, "alphabet": [0, 1], "states": ["a", "b"],
            "initial": {"a": "1"}, "final": {"b": "1"},
            "transitions": [{"from": "a", "label": 0, "weight": "2", "to": "b"},
                            {"from": "a", "label": 1, "weight": "2", "to": "b"}]}


NON_STRINGS = [([2], "[2]"), ({"a": 1}, "{'a': 1}"), (3, "3"), (None, "None"),
               (True, "True")]


@pytest.mark.parametrize("bad, shown", NON_STRINGS, ids=[s for _, s in NON_STRINGS])
def test_non_string_weights_are_refused_before_and_after_a_literal(bad, shown):
    doc = two_arrow_doc()
    doc["initial"]["a"] = bad
    first = json.dumps(doc)
    doc = two_arrow_doc()
    doc["transitions"][1]["weight"] = bad  # after "2" was read at that key
    again = json.dumps(doc)
    doc = two_arrow_doc()
    doc["final"]["b"] = bad  # after "1" was read at the same state's initial weight
    doc["initial"] = {"b": "1"}
    vector = json.dumps(doc)
    for text, what in ((first, "initial"), (again, "transition"), (vector, "final")):
        assert assert_loads_like_the_reference(text) == (
            AutomatonError, f"{what} weight {shown} is not a string")


def test_bool_labels_are_refused_in_arrows_too():
    doc = two_arrow_doc()
    doc["transitions"][1]["label"] = True  # equal to the label 1 as a dict key
    assert assert_loads_like_the_reference(json.dumps(doc)) == (
        AutomatonError, "label True is neither an integer nor an array")


def test_a_bad_literal_seen_twice_fails_as_before():
    doc = two_arrow_doc()
    doc["initial"]["a"] = doc["transitions"][0]["weight"] = "x"
    assert assert_loads_like_the_reference(json.dumps(doc)) == (
        RingError, "bad Z element 'x'")
    doc = two_arrow_doc()
    doc["transitions"][0]["weight"] = doc["transitions"][1]["weight"] = "1/0"
    assert assert_loads_like_the_reference(json.dumps(doc)) == (
        RingError, "bad Z element '1/0'")


@pytest.mark.parametrize("ring, zeros", [("Z", ["0", "-0", "+0"]),
                                         ("Q", ["0", "-0", "0/7"]),
                                         ("Fp:5", ["0", "-0", "5"])])
def test_zero_literals_are_dropped(ring, zeros):
    doc = two_arrow_doc(ring)
    doc["transitions"] = [{"from": "a", "label": b, "weight": z, "to": "b"}
                          for b, z in zip((0, 1), zeros)] + [
        {"from": "b", "label": 0, "weight": zeros[-1], "to": "a"},
        {"from": "a", "label": 1, "weight": "1", "to": "a"}]
    doc["final"] = {"a": zeros[0], "b": "1"}
    B = assert_loads_like_the_reference(json.dumps(doc))
    assert dict(B.transitions) == {(0, 1, 0): B.ring.one}
    assert B.final == (B.ring.zero, B.ring.one)


def test_a_literal_means_what_its_own_document_ring_says():
    doc = two_arrow_doc("Q")
    doc["transitions"][0]["weight"] = doc["final"]["b"] = "1/2"
    B = assert_loads_like_the_reference(json.dumps(doc))
    assert B.transitions[0, 0, 1].payload == B.final[1].payload == Fraction(1, 2)
    doc["ring"] = "Fp:5"  # a modular literal is a decimal integer
    assert assert_loads_like_the_reference(json.dumps(doc)) == (
        RingError, "bad Fp:5 element '1/2'")
    doc["ring"] = "Q"
    assert same_structure(assert_loads_like_the_reference(json.dumps(doc)), B)


# ---------------------------------------------------------------------------
# DOT

class TestDot:
    def test_weighted_nodes_and_edges(self):
        dot = automaton_to_dot(small(INTEGERS, 2))
        assert dot.startswith("digraph automaton {")
        assert dot.endswith("}\n")
        assert '  "a" [label="a\\nI=1"];' in dot
        assert '  "b" [label="b\\nF=2", peripheries=2];' in dot
        assert '  "a" -> "b" [label="1:2"];' in dot
        assert '  "a" -> "a" [label="0:1"];' in dot

    def test_newlines_are_single_escapes(self):
        dot = automaton_to_dot(small(INTEGERS, 2))
        assert "\\n" in dot
        assert "\\\\n" not in dot

    def test_quote_escaping(self):
        e = INTEGERS.element
        A = WeightedAutomaton(
            ring=INTEGERS, alphabet=(0,), states=('s"0',),
            initial=(e(1),), final=(e(1),), transitions={})
        dot = automaton_to_dot(A)
        assert '"s\\"0"' in dot
        assert '[label="s\\"0\\nI=1\\nF=1", peripheries=2]' in dot

    def test_dfa_dot(self):
        dot = dfa_to_dot(defect_automaton())
        assert '  "q0" [label="q0 / 0\\n(start)", style=bold];' in dot
        assert '  "q3" [label="q3 / -1"];' in dot
        assert '  "q1" -> "q3" [label="-1"];' in dot
        assert "\\\\n" not in dot

    def test_tuple_labels_in_dot(self):
        dot = automaton_to_dot(addition_automaton_zeckendorf().automaton)
        assert ':1"];' in dot  # weights are all 1
        assert "0,0,0:1" in dot


# sha256 of the DOT text, taken before both writers shared one layout: a
# rewrite of a writer must keep its output byte for byte
DOT_PINS = {
    "fib_repr": "23f6764ba74a317577ff6d0fe57c2f81d7919d95118caec8278982729c89c2e8",
    "dumas_fib": "839d103373d05fd3510b6e0c159a40c0eb3cf1fe996aee7aee87d78aea548c68",
    "addition zeckendorf":
        "b8c040537734d17806a85e29f61bdee81ff7b5189870612ad2a55be9afc7deb3",
    "defect": "37f1f8546b97941f29fa48af65023a9cd314c11307066883fccde5134a3f93be",
    "defect constructed":
        "3410f63fb638d12e7dff11b0637d47815b9ee70be7ea778f4b51bc5223c392f0",
    "fib@Fp:2 squared, direct":
        "e8d05fe3b47303fdeba366804a526a31c08da0ba48f534c9688f0435dac1a71d",
}


def test_dot_is_pinned():
    def build(name):
        return build_automaton_dumas(parse_equation(equation_text(name)))

    f2 = fibonacci_representation_automaton(PrimeField(2))
    texts = {
        "fib_repr": automaton_to_dot(build("fib_repr.eq")),
        "dumas_fib": automaton_to_dot(build("dumas_fib.eq")),
        "addition zeckendorf": automaton_to_dot(addition_automaton_zeckendorf().automaton),
        "defect": dfa_to_dot(defect_automaton()),
        "defect constructed": dfa_to_dot(defect_automaton_constructed()),
        "fib@Fp:2 squared, direct": dfa_to_dot(determinize(
            cauchy_product(f2, f2, addition_automaton(ZECKENDORF)), "direct")),
    }
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert got == DOT_PINS
