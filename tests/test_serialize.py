"""JSON round trips and DOT snapshots."""

import json

import pytest

from mahler.automata import (
    addition_automaton_zeckendorf,
    constant_recognizer,
    count_ones_automaton,
    defect_automaton,
    fibonacci_representation_automaton,
)
from mahler.rings import INTEGERS, RATIONALS, ModRing, PrimeField, RingError
from mahler.serialize import (
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    dfa_to_dot,
    dfa_to_json,
)
from mahler.wfa import AutomatonError, WeightedAutomaton, same_structure


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
