"""Textual partition literals.

Two forms are accepted: block form ``{{a,b},{c}}`` with arbitrary
labels, and the raw form ``rgs:0,0,1``.  Labels sort lexicographically
onto the internal elements ``0..n-1``, so a literal determines one
partition exactly.  Printing is bit-exact: blocks ordered by least
element, elements ascending, no whitespace.
"""

from __future__ import annotations

import re
import string

from .core import Partition


def default_labels(n: int) -> tuple[str, ...]:
    """Lowercase letters, or zero-padded ``x``-names when letters run out.

    Either way the labels sort lexicographically in element order, so
    printing with them round-trips.
    """
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    width = len(str(n - 1))
    return tuple(f"x{i:0{width}d}" for i in range(n))


def parse_partition(text: str) -> tuple[Partition, tuple[str, ...]]:
    """Parse a partition literal, returning the partition and its labels.

    Raw rgs literals must already be canonical; they get default labels.
    """
    s = text.strip()
    if s.startswith("rgs:"):
        body = s[len("rgs:"):]
        try:
            values = tuple(int(tok) for tok in body.split(","))
        except ValueError:
            raise ValueError(f"malformed rgs literal: {text!r}") from None
        p = Partition(len(values), values)
        return p, default_labels(p.n)
    blocks = _parse_blocks(s)
    labels = sorted(lab for block in blocks for lab in block)
    block_of = {lab: i for i, block in enumerate(blocks) for lab in block}
    if len(block_of) != len(labels):
        dup = next(lab for i, lab in enumerate(labels) if i and labels[i - 1] == lab)
        raise ValueError(f"duplicate label {dup!r} in partition literal")
    # The reader gives non-empty blocks of distinct labels, so the labels
    # cover the universe once and from_blocks's checks would all pass.
    return Partition.from_labels([block_of[lab] for lab in labels]), tuple(labels)


# After any whitespace: a brace, a comma, a label, or the end of the text ("").
_BLOCK_TOKEN_RE = re.compile(r"\s*([{},]|[^{},\s]+|\Z)")
# For each state of the block-form reader, the state each token it accepts
# leads to ("label" stands for any label), and the message for any other.
_BLOCK_STATES = {
    "start": ({"{": "block"}, "expected '{'"),
    "block": ({"{": "label"}, "expected '{'"),
    "label": ({"label": "in block"}, "expected a label"),
    "in block": ({",": "label", "}": "after block"}, "expected '}'"),
    "after block": ({",": "block", "}": "end"}, "expected '}'"),
    "end": ({"": "end"}, "trailing input"),
}


def _parse_blocks(s: str) -> list[list[str]]:
    blocks: list[list[str]] = []
    state = "start"
    for m in _BLOCK_TOKEN_RE.finditer(s):
        token = m.group(1)
        kind = token if token in ("{", "}", ",", "") else "label"
        moves, message = _BLOCK_STATES[state]
        if kind not in moves:
            raise ValueError(f"{message} (at position {m.start(1)}) in partition literal")
        if kind == "label":
            blocks[-1].append(token)
        elif state == "block":
            blocks.append([])
        state = moves[kind]
    return blocks


def format_partition(p: Partition, labels: tuple[str, ...] | None = None) -> str:
    """Block form with the given labels (defaults for the universe size)."""
    if labels is None:
        labels = default_labels(p.n)
    if len(labels) != p.n:
        raise ValueError(f"{len(labels)} labels for universe size {p.n}")
    return "{" + ",".join("{" + ",".join(labels[u] for u in block) + "}" for block in p.blocks) + "}"


def format_rgs(p: Partition) -> str:
    return "rgs:" + ",".join(str(b) for b in p.rgs)
