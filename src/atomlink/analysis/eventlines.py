"""A block parser of events.jsonl lines in the writer's form, ``tables.EVENT_LINE``.

``parse_event_lines`` reads a block of such lines without a ``json.loads``
per line: it checks the template's fixed text at the places its colons
give, then reads every field of the block through fixed-width windows of
the bytes, numbers with Python's float and the other fields by their JSON
tokens.  Any other line is for the caller to read with ``json.loads`` and
write back through ``template_line``.
"""

import json
import re

import numpy as np

from ..quantum import OUTCOME_KEYS
from .tables import BELL_OUTCOMES, DETECTORS, EVENT_LINE, PLANES, READOUTS, EventTable

# the fixed text around EVENT_LINE's fields, each field's key, and the fields
# a number fills (%r, %d); every other field holds a JSON token (%s)
_EVENT_TEXT = [part.encode() for part in re.split("%[rds]", EVENT_LINE)]
_EVENT_KEYS = [part.decode().rsplit('"', 2)[1] for part in _EVENT_TEXT[:-1]]
_EVENT_NUMBERS = [i for i, kind in enumerate(re.findall("%([rds])", EVENT_LINE)) if kind != "s"]
# every part but the last ends in '": ', so a part starts at a fixed offset
# before its last colon; the index of that colon among a line's colons
_TEXT_COLON = np.cumsum([part.count(b":") for part in _EVENT_TEXT[:-1]]) - 1
_TEXT_OFFSET = np.array([part.rindex(b":") for part in _EVENT_TEXT[:-1]])
# the longest field read (a float repr has at most 24 bytes), and the masks
# that keep the first k bytes of a field's three 8-byte words, at index k
_FIELD_WIDTH = 24
_FIELD_MASKS = np.array([np.frombuffer(b"\xff" * k + bytes(_FIELD_WIDTH - k), np.uint64)
                         for k in range(_FIELD_WIDTH + 1)])
# the parts in pieces of up to 16 bytes: each piece's part, its offset in
# the part, and its bytes as two 8-byte words with the masks that keep them
_PIECES = [(k, offset, part[offset:offset + 16]) for k, part in enumerate(_EVENT_TEXT)
           for offset in range(0, len(part), 16)]
_PIECE_PART = np.array([k for k, _, _ in _PIECES])
_PIECE_OFFSET = np.array([offset for _, offset, _ in _PIECES])
_PIECE_WORDS = np.array([np.frombuffer(piece.ljust(16, b"\0"), np.uint64)
                         for _, _, piece in _PIECES])
_PIECE_MASKS = _FIELD_MASKS[[len(piece) for _, _, piece in _PIECES], :2]
# the values each %s field may hold, but the config hash, which is not read
# and may be any JSON string; a node's readout is decoded alone, then paired
_NODE_READOUTS = ("up", "down", None)
_EVENT_VOCABULARIES = {"bell_outcome": BELL_OUTCOMES, "detector1": DETECTORS,
                       "detector2": DETECTORS, "accepted": (False, True),
                       "origin": ("background", "signal"), "plane": PLANES,
                       "outcome1": _NODE_READOUTS, "outcome2": _NODE_READOUTS}
_EVENT_TOKENS = [_EVENT_KEYS.index(key) for key in _EVENT_VOCABULARIES]
_EVENT_HASH = _EVENT_KEYS.index("config_hash")
# each value of those vocabularies and its JSON token as json.dumps spells
# it; the tokens as a field's words, in the order of their first word, which
# tells them apart; and each value's code in each %s field (-1 where the
# field cannot hold it)
_VALUE_TOKENS = {v: json.dumps(v) for vocabulary in _EVENT_VOCABULARIES.values()
                 for v in vocabulary}
_TOKEN_WORDS = np.array([np.frombuffer(token.encode().ljust(_FIELD_WIDTH, b"\0"), np.uint64)
                         for token in _VALUE_TOKENS.values()])
_TOKEN_ORDER = np.argsort(_TOKEN_WORDS[:, 0])
_TOKEN_CODES = np.array([[vocabulary.index(v) if v in vocabulary else -1
                          for vocabulary in _EVENT_VOCABULARIES.values()]
                         for v in _VALUE_TOKENS], dtype=np.int8)
# the READOUTS index of each (node 1, node 2) pair of _NODE_READOUTS indices;
# -1 for no readout, -2 for a pair no run writes
_READOUT_CODES = np.full((len(_NODE_READOUTS),) * 2, -2, dtype=np.int8)
_READOUT_CODES[-1, -1] = -1
_READOUT_CODES[tuple(np.array([[_NODE_READOUTS.index(r) for r in pair]
                               for pair in READOUTS]).T)] = range(len(READOUTS))


def _decode(words) -> np.ndarray:
    """(n, k) codes of the (n, k, 3) words of the _EVENT_TOKENS fields.

    A code indexes the field's vocabulary in _EVENT_VOCABULARIES.  Raises
    ValueError for a token that is not one of the field's values as
    json.dumps spells it.
    """
    index = _TOKEN_ORDER[np.minimum(np.searchsorted(_TOKEN_WORDS[:, 0], words[..., 0],
                                                    sorter=_TOKEN_ORDER), len(_TOKEN_ORDER) - 1)]
    codes = _TOKEN_CODES[index, np.arange(len(_EVENT_TOKENS))]
    if not (np.array_equal(_TOKEN_WORDS[index], words) and np.all(codes >= 0)):
        raise ValueError("a field holds a value outside its vocabulary")
    return codes


def parse_event_lines(lines) -> EventTable:
    """EventTable of events.jsonl lines (bytes) in the writer's form, EVENT_LINE.

    Each line must hold _EVENT_TEXT verbatim, a number in each %r and %d
    field, a value of the field's vocabulary in each other field as
    json.dumps spells it, and one JSON string as the config hash.  A number
    is read as Python's float reads it, which for a JSON number is the value
    json.loads gives.  Raises ValueError for any other line.
    """
    line_ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)))
    if len(lines) and not lines[-1].endswith(b"\n"):
        raise ValueError("the last line has no newline")
    text = np.frombuffer(b"".join([*lines, bytes(_FIELD_WIDTH)]), np.uint8)
    colons = np.flatnonzero(text == ord(":"))
    if len(colons) != len(lines) * (_TEXT_COLON[-1] + 1):
        raise ValueError("not in the form of EVENT_LINE")
    colons = colons.reshape(len(lines), _TEXT_COLON[-1] + 1)
    parts = np.concatenate([colons[:, _TEXT_COLON] - _TEXT_OFFSET,
                            line_ends[:, None] - len(_EVENT_TEXT[-1])], axis=1)
    # each array is dropped once read, so that the parse holds about 2 kB a line
    del colons
    # the 16 and the _FIELD_WIDTH bytes from each position of the text, as one item
    pieces, windows = (np.ndarray((len(text) - width + 1,), f"V{width}", text, strides=(1,))
                       for width in (16, _FIELD_WIDTH))
    held = pieces[(parts[:, _PIECE_PART] + _PIECE_OFFSET).ravel()].view(np.uint64)
    held = held.reshape(len(parts), *_PIECE_MASKS.shape)
    held &= _PIECE_MASKS
    if not (np.array_equal(parts[:, 0], np.concatenate([[0], line_ends])[:-1])
            and np.all(held == _PIECE_WORDS)):
        raise ValueError("not in the form of EVENT_LINE")
    del held
    starts = parts[:, :-1] + [len(part) for part in _EVENT_TEXT[:-1]]
    lengths = parts[:, 1:] - starts
    del parts
    if not np.all((lengths >= 0) & (lengths <= _FIELD_WIDTH)):
        raise ValueError("a field longer than the parser reads")
    words = windows[starts.ravel()].view(np.uint64).reshape(*starts.shape, _FIELD_WIDTH // 8)
    del text, pieces, windows, starts
    words &= _FIELD_MASKS[lengths]
    tokens = words.view(f"S{_FIELD_WIDTH}")[..., 0]
    # the config hash, which is not read, is one JSON string on every line
    if len(lines) and not (np.all(words[:, _EVENT_HASH] == words[0, _EVENT_HASH])
                           and isinstance(json.loads(tokens[0, _EVENT_HASH]), str)):
        raise ValueError("the config hash is not one JSON string")
    floats = dict(zip([_EVENT_KEYS[i] for i in _EVENT_NUMBERS],
                      tokens[:, _EVENT_NUMBERS].astype(float).T))
    codes = dict(zip(_EVENT_VOCABULARIES, _decode(words[:, _EVENT_TOKENS]).T))
    readout = _READOUT_CODES[codes["outcome1"], codes["outcome2"]]
    if np.any(readout < -1):
        raise ValueError("one node's readout without the other's")
    return EventTable(
        wall_time_s=floats["wall_time_s"], try_index=floats["try_index"].astype(np.int64),
        outcome=codes["bell_outcome"],
        detectors=np.stack([codes["detector1"], codes["detector2"]], axis=1),
        click_ns=np.stack([floats["click1_ns"], floats["click2_ns"]], axis=1),
        accepted=codes["accepted"] == 1, signal=codes["origin"] == 1,
        alpha_rad=floats["alpha_rad"], beta_rad=floats["beta_rad"], plane=codes["plane"],
        fidelity=floats["fidelity"],
        probabilities=np.stack([floats[k] for k in OUTCOME_KEYS], axis=1), readout=readout)


def template_line(rec) -> bytes:
    """An events.jsonl record written through EVENT_LINE, with an empty config hash."""
    flat = {**rec, **rec["probabilities"], "config_hash": '""'}
    values = [flat[key] for key in _EVENT_KEYS]
    for i in _EVENT_TOKENS:
        values[i] = _VALUE_TOKENS[values[i]]
    return (EVENT_LINE % tuple(values)).encode()
