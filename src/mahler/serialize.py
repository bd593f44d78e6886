"""JSON and DOT serialization for automata.

The JSON schema for a weighted automaton:

    { "ring": "<spec>", "alphabet": [labels], "states": ["name", ...],
      "initial": {"name": "weight"}, "final": {"name": "weight"},
      "transitions": [{"from": "name", "label": l, "weight": "w",
                       "to": "name"}, ...] }

Weights are strings in the ring's own format (integers in decimal,
rationals as "a/b"), so round-trips are exact over every ring.  Tuple
labels (addition automata read digit triples) are stored as JSON
arrays.  Output ordering is deterministic: states as stored, initial
and final entries in state order, transitions sorted by source, label,
target.

Machines with outputs (recognizers, the defect automaton, determinize
results) serialize under "type": "dfa"; they are export-only.
"""

from __future__ import annotations

import json

from .rings import RingValue, parse_ring
from .wfa import AutomatonError, DfaWithOutput, WeightedAutomaton, _label_key


def _encode_label(label):
    return list(label) if isinstance(label, tuple) else label


def _decode_label(raw):
    if isinstance(raw, list):
        out = []
        for x in raw:
            if not isinstance(x, int) or isinstance(x, bool):
                raise AutomatonError(f"label component {x!r} is not an integer")
            out.append(x)
        return tuple(out)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise AutomatonError(f"label {raw!r} is neither an integer nor an array")


def automaton_to_json(A: WeightedAutomaton) -> str:
    doc = {
        "ring": A.ring.spec,
        "alphabet": [_encode_label(b) for b in A.alphabet],
        "states": list(A.states),
        "initial": {A.states[i]: str(w) for i, w in enumerate(A.initial) if w},
        "final": {A.states[i]: str(w) for i, w in enumerate(A.final) if w},
        "transitions": [
            {"from": A.states[s], "label": _encode_label(b),
             "weight": str(w), "to": A.states[d]}
            for (s, b, d), w in sorted(
                A.transitions.items(),
                key=lambda kv: (kv[0][0], _label_key(kv[0][1]), kv[0][2]))
        ],
    }
    return json.dumps(doc, indent=1)


def automaton_from_json(text: str) -> WeightedAutomaton:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise AutomatonError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise AutomatonError("expected a JSON object")
    if doc.get("type", "wfa") != "wfa":
        raise AutomatonError(
            f"cannot import automata of type {doc.get('type')!r}; only "
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
            raise AutomatonError(f"duplicate state name {name!r}")
        index[name] = i
    if not isinstance(doc["alphabet"], list):
        raise AutomatonError("alphabet must be an array")
    alphabet = tuple(_decode_label(b) for b in doc["alphabet"])

    def parse_weight(wtext, what):
        if not isinstance(wtext, str):
            raise AutomatonError(f"{what} weight {wtext!r} is not a string")
        return ring.parse(wtext)

    def vector(mapping, what):
        if not isinstance(mapping, dict):
            raise AutomatonError(f"{what} must be an object")
        vec = [ring.zero] * len(states)
        for name, wtext in mapping.items():
            if name not in index:
                raise AutomatonError(f"{what} names unknown state {name!r}")
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
            raise AutomatonError(f"transition missing key {e.args[0]!r}") from None
        if not (isinstance(src, str) and isinstance(dst, str)
                and src in index and dst in index):
            raise AutomatonError(f"transition endpoint unknown: {src!r} -> {dst!r}")
        key = (index[src], _decode_label(label), index[dst])
        if key in trans:
            raise AutomatonError(f"duplicate transition {src!r} -{label!r}-> {dst!r}")
        trans[key] = parse_weight(wtext, "transition")
    return WeightedAutomaton(
        ring=ring,
        alphabet=alphabet,
        states=tuple(states),
        initial=initial,
        final=final,
        transitions=trans,
    )


def dfa_to_json(D: DfaWithOutput) -> str:
    def out_value(v):
        if v is None or isinstance(v, (bool, int, str)):
            return v
        if isinstance(v, RingValue):
            return str(v)
        raise AutomatonError(f"cannot serialize output {v!r}")

    doc = {
        "type": "dfa",
        "alphabet": [_encode_label(b) for b in D.alphabet],
        "states": list(D.states),
        "initial": D.states[D.initial],
        "outputs": {D.states[i]: out_value(v) for i, v in enumerate(D.outputs)},
        "transitions": [
            {"from": D.states[s], "label": _encode_label(b), "to": D.states[d]}
            for (s, b), d in sorted(
                D.transitions.items(),
                key=lambda kv: (kv[0][0], _label_key(kv[0][1])))
        ],
    }
    return json.dumps(doc, indent=1)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return str(label)


def automaton_to_dot(A: WeightedAutomaton) -> str:
    """One node per state, one edge per nonzero transition ("label:weight").

    Nonzero initial/final weights are annotated in the node label;
    final-weight carriers are drawn with a double border.
    """
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, name in enumerate(A.states):
        parts = [_dot_escape(name)]
        attrs = []
        if A.initial[i]:
            parts.append(_dot_escape(f"I={A.initial[i]}"))
        if A.final[i]:
            parts.append(_dot_escape(f"F={A.final[i]}"))
            attrs.append("peripheries=2")
        attrs.insert(0, f'label="{(chr(92) + "n").join(parts)}"')
        lines.append(f'  "{_dot_escape(name)}" [{", ".join(attrs)}];')
    for (s, b, d), w in sorted(
            A.transitions.items(),
            key=lambda kv: (kv[0][0], _label_key(kv[0][1]), kv[0][2])):
        text = f"{_label_text(b)}:{w}"
        lines.append(f'  "{_dot_escape(A.states[s])}" -> "{_dot_escape(A.states[d])}" '
                     f'[label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfa_to_dot(D: DfaWithOutput) -> str:
    """One node per state ("name / output"), one edge per transition.

    The initial state is drawn bold with a "(start)" mark, which keeps
    the node count equal to the state count.
    """
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, name in enumerate(D.states):
        label = name
        if D.outputs[i] is not None:
            label += f" / {D.outputs[i]}"
        parts = [_dot_escape(label)]
        attrs = []
        if i == D.initial:
            attrs.append("style=bold")
            parts.append("(start)")
        attrs.insert(0, f'label="{(chr(92) + "n").join(parts)}"')
        lines.append(f'  "{_dot_escape(name)}" [{", ".join(attrs)}];')
    for (s, b), d in sorted(
            D.transitions.items(),
            key=lambda kv: (kv[0][0], _label_key(kv[0][1]))):
        lines.append(f'  "{_dot_escape(D.states[s])}" -> "{_dot_escape(D.states[d])}" '
                     f'[label="{_dot_escape(_label_text(b))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
