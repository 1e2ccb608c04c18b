"""Formal direct sums of shifted blocks.

A FormalObject is a finite sum of summands B(a)[b] with B a named block,
`a` the grading shift and `b` the cohomological shift, under the
conventions M(a)^i = M^(i+a) and H^n(M(a)[b])^g = H^(n+b)(M)^(g+a).
This is the representation of cohomology tables of split objects; all
invariants are evaluated summand-wise through the shift rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blocks import BlockModule, make_block, require_int


class SpecError(ValueError):
    """Malformed object description (CLI exit code 2)."""


@dataclass(frozen=True)
class Summand:
    block: BlockModule
    i: int  # grading shift
    j: int  # cohomological shift


class FormalObject:
    def __init__(self, p: int, r: int = 1, summands=()):
        self.p = p
        self.r = r
        self.summands = list(summands)
        for s in self.summands:
            if s.block.p != p or s.block.r != r:
                raise SpecError("summand parameters do not match the object")

    @classmethod
    def of_blocks(cls, p, r, *pairs):
        """pairs: (block_or_kind, i, j) or (block, i, j). Strings make blocks."""
        summands = []
        for blk, i, j in pairs:
            if isinstance(blk, str):
                blk = make_block(blk, p, r)
            summands.append(Summand(blk, i, j))
        return cls(p, r, summands)

    def __repr__(self):
        parts = []
        for s in self.summands:
            txt = s.block.label()
            if s.i:
                txt += f"({s.i})"
            if s.j:
                txt += f"[{s.j}]"
            parts.append(txt)
        return " + ".join(parts) if parts else "0"

    # -- JSON wire format -------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "p": self.p,
            "r": self.r,
            "object": [
                {"block": _block_json(s.block), "shift": [s.i, s.j]} for s in self.summands
            ],
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FormalObject":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "FormalObject":
        if not isinstance(data, dict):
            raise SpecError("object spec must be a JSON object")
        try:
            p = require_int("p", data["p"])
            r = require_int("r", data.get("r", 1))
            items = data["object"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"missing or malformed field: {exc}") from exc
        if not isinstance(items, list):
            raise SpecError("'object' must be a list of summands")
        summands = []
        for item in items:
            try:
                bdesc = dict(item["block"])
                kind = bdesc.pop("kind")
                i, j = (require_int("shift", x) for x in item.get("shift", [0, 0]))
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"malformed summand: {exc}") from exc
            try:
                block = make_block(kind, p, r, **bdesc)
            except (ValueError, KeyError) as exc:
                raise SpecError(f"bad block {kind!r}: {exc}") from exc
            summands.append(Summand(block, i, j))
        return cls(p, r, summands)


def _block_json(block: BlockModule):
    out = {"kind": block.kind}
    out.update(block.params)
    return out
