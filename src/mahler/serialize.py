"""JSON and DOT serialization for automata.

The JSON schema for a weighted automaton:

    { "ring": "<spec>", "alphabet": [labels], "states": ["name", ...],
      "initial": {"name": "weight"}, "final": {"name": "weight"},
      "transitions": [{"from": "name", "label": l, "weight": "w",
                       "to": "name"}, ...] }

Weights are strings in the ring's own format (integers in ASCII
decimal with an optional sign, rationals as "a/b"), so round-trips are
exact over every ring.  A document repeats few distinct weight
literals, and the loader parses each once.  Tuple
labels (addition automata read digit triples) are stored as JSON
arrays.  Output ordering is deterministic: states as stored, initial
and final entries in state order, transitions sorted by source, label,
target.

Machines with outputs (recognizers, the defect automaton, determinize
results) serialize under "type": "dfa"; they are export-only.

Both documents are written as json.dumps(doc, indent=1) writes them,
byte for byte, but straight from the fixed schema: strings through
json's ASCII string encoder, ints in decimal, arrays and objects one
item a line.  Any indent sends json.dumps to its pure-Python encoder,
which cost most of the time of a write.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

from .rings import RingValue, _quote, parse_ring
from .wfa import AutomatonError, DfaWithOutput, WeightedAutomaton, _flat, _label_key


def _sorted_transitions(M) -> list:
    """M's arrows by source, label and target: (s, b, d, payload) read from
    a weighted machine's index, ((s, b), d) items of a machine with outputs
    (the key's last entry is the label, which breaks no tie)."""
    if isinstance(M, WeightedAutomaton):
        rank = {b: _label_key(b) for b in M._arrows}
        return sorted(_flat(M._arrows), key=lambda a: (a[0], rank[a[1]], a[2]))
    rank = {b: _label_key(b) for b in {key[1] for key in M.transitions}}
    return sorted(M.transitions.items(), key=lambda kv: (kv[0][0], rank[kv[0][1]], kv[0][-1]))


def _decode_label(raw):
    if isinstance(raw, list):
        out = []
        for x in raw:
            if not isinstance(x, int) or isinstance(x, bool):
                raise AutomatonError(f"label component {_quote(x)} is not an integer")
            out.append(x)
        return tuple(out)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise AutomatonError(f"label {_quote(raw)} is neither an integer nor an array")


def _json(value, pad: str) -> str:
    """value as json.dumps(..., indent=1) writes it on a line indented by
    ``pad``: strings through json's own ASCII encoder, ints in decimal,
    tuples and lists as arrays one item a line, anything else (None,
    true, false) by json.dumps itself."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (tuple, list)):
        return _block("[]", [_json(x, pad + " ") for x in value], pad)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return json.dumps(value)


def _block(brackets: str, items: list, pad: str) -> str:
    """Written items in brackets, one a line, a space deeper than ``pad``,
    as json.dumps(..., indent=1) lays out an array or object."""
    if not items:
        return brackets
    sep = "\n " + pad
    return f"{brackets[0]}{sep}{(',' + sep).join(items)}\n{pad}{brackets[1]}"


def _object(mapping: dict, pad: str) -> str:
    """A JSON object of str keys and written values."""
    return _block("{}", [f"{_string(k)}: {v}" for k, v in mapping.items()], pad)


def _label_texts(labels, pad: str) -> dict:
    """Each of the labels, written on a line indented by ``pad``."""
    return {b: _json(b, pad) for b in labels}


def automaton_to_json(A: WeightedAutomaton) -> str:
    """The schema above, byte for byte what json.dumps(doc, indent=1)
    writes for it, without json's pure-Python indenting encoder."""
    states = A.states
    names = [_string(s) for s in states]
    labels = _label_texts(A._arrows, "   ")  # the labels that have arrows
    fmt = A.ring.format  # ASCII digits, sign and "/": nothing for JSON to escape
    transitions = [
        f'{{\n   "from": {names[s]},\n   "label": {labels[b]},\n'
        f'   "weight": "{fmt(p)}",\n   "to": {names[d]}\n  }}'
        for s, b, d, p in _sorted_transitions(A)]

    def vector(v):
        return _object({states[i]: _string(str(w)) for i, w in enumerate(v) if w}, " ")

    return _block("{}", [
        f'"ring": {_string(A.ring.spec)}',
        f'"alphabet": {_json(A.alphabet, " ")}',
        f'"states": {_block("[]", names, " ")}',
        f'"initial": {vector(A.initial)}',
        f'"final": {vector(A.final)}',
        f'"transitions": {_block("[]", transitions, " ")}',
    ], "")


def automaton_from_json(text: str) -> WeightedAutomaton:
    """The machine a "wfa" document describes; anything malformed raises
    one AutomatonError or RingError line.  Each distinct weight literal
    is parsed once per document, and its repeats share that value."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also ints past the str limit
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
    alphabet = tuple(b if type(b) is int else _decode_label(b) for b in doc["alphabet"])
    parsed = {}  # literal -> its value, parsed on first sight

    def parse_weight(wtext, what):
        if not isinstance(wtext, str):
            raise AutomatonError(f"{what} weight {_quote(wtext)} is not a string")
        w = parsed.get(wtext)
        if w is None:
            w = parsed[wtext] = ring.parse(wtext)
        return w

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
        key = (index[src], label if type(label) is int else _decode_label(label), index[dst])
        if key in trans:
            raise AutomatonError(
                f"duplicate transition {_quote(src)} -{_quote(label)}-> {_quote(dst)}")
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
    """The "dfa" document, written as automaton_to_json writes its own."""
    def out_value(v):
        if v is None or isinstance(v, (bool, int, str)):
            return v
        if isinstance(v, RingValue):
            return str(v)
        raise AutomatonError(f"cannot serialize output {_quote(v)}")

    states = D.states
    names = [_string(s) for s in states]
    labels = _label_texts({key[1] for key in D.transitions}, "   ")
    transitions = [
        f'{{\n   "from": {names[s]},\n   "label": {labels[b]},\n   "to": {names[d]}\n  }}'
        for (s, b), d in _sorted_transitions(D)]
    outputs = {states[i]: _json(out_value(v), "  ") for i, v in enumerate(D.outputs)}
    return _block("{}", [
        '"type": "dfa"',
        f'"alphabet": {_json(D.alphabet, " ")}',
        f'"states": {_block("[]", names, " ")}',
        f'"initial": {names[D.initial]}',
        f'"outputs": {_object(outputs, " ")}',
        f'"transitions": {_block("[]", transitions, " ")}',
    ], "")


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return str(label)


def _dot(states, nodes, edges) -> str:
    """DOT text: ``nodes`` holds each state's label lines and extra
    attributes, ``edges`` its (source, target, label) arrows."""
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for name, (parts, attrs) in zip(states, nodes):
        label = "\\n".join(_dot_escape(p) for p in parts)
        attr_list = ", ".join([f'label="{label}"', *attrs])
        lines.append(f'  "{_dot_escape(name)}" [{attr_list}];')
    for s, d, text in edges:
        lines.append(f'  "{_dot_escape(states[s])}" -> "{_dot_escape(states[d])}" '
                     f'[label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_to_dot(A: WeightedAutomaton) -> str:
    """One node per state, one edge per nonzero transition ("label:weight").

    Nonzero initial/final weights are annotated in the node label;
    final-weight carriers are drawn with a double border.
    """
    nodes = []
    for name, i, f in zip(A.states, A.initial, A.final):
        parts, attrs = [name], []
        if i:
            parts.append(f"I={i}")
        if f:
            parts.append(f"F={f}")
            attrs.append("peripheries=2")
        nodes.append((parts, attrs))
    edges = ((s, d, f"{_label_text(b)}:{A.ring.format(p)}")
             for s, b, d, p in _sorted_transitions(A))
    return _dot(A.states, nodes, edges)


def dfa_to_dot(D: DfaWithOutput) -> str:
    """One node per state ("name / output"), one edge per transition.

    The initial state is drawn bold with a "(start)" mark, which keeps
    the node count equal to the state count.
    """
    nodes = [([name if out is None else f"{name} / {out}"], [])
             for name, out in zip(D.states, D.outputs)]
    nodes[D.initial][0].append("(start)")
    nodes[D.initial][1].append("style=bold")
    edges = ((s, d, _label_text(b)) for (s, b), d in _sorted_transitions(D))
    return _dot(D.states, nodes, edges)
