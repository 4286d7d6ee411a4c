"""Structured, deterministically serializable reports.

Every verdict records the operation that produced it. Exact rationals are
serialized as "p/q" strings in lowest terms; nothing in a report depends on
wall-clock time, so identical inputs (and seed) give byte-identical JSON.
json_text is the one layout of a whole JSON document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

TOOL_NAME = "splittings"
TOOL_VERSION = "0.1.0"


def rational_str(x: Fraction | int) -> str:
    """Lowest-terms "p/q" (or "p" when the denominator is 1)."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Verdict:
    op: str
    key: str
    value: str
    informational: bool = False


def envelope(operation: str, input_digest: Optional[str], seed: Optional[int] = None) -> dict:
    """The keys that open every JSON result: the operation, the tool, the
    sha256 of the input and the seed of the words sampled (None when the
    command samples nothing)."""
    return {
        "operation": operation,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "input_digest": input_digest,
        "seed": seed,
    }


@dataclass
class Report:
    operation: str
    verdicts: list[Verdict] = field(default_factory=list)
    values: dict[str, str] = field(default_factory=dict)
    input_digest: Optional[str] = None
    seed: Optional[int] = None
    graph_digest: Optional[str] = None

    def add(self, op: str, key: str, value: str, informational: bool = False) -> None:
        self.verdicts.append(Verdict(op, key, value, informational))

    def verdict(self, key: str) -> Optional[str]:
        for v in self.verdicts:
            if v.key == key:
                return v.value
        return None

    def to_dict(self) -> dict:
        d = {
            **envelope(self.operation, self.input_digest, self.seed),
            "verdicts": [
                {
                    "op": v.op,
                    "key": v.key,
                    "value": v.value,
                    "informational": v.informational,
                }
                for v in self.verdicts
            ],
            "values": dict(sorted(self.values.items())),
        }
        if self.graph_digest is not None:
            d["graph_digest"] = self.graph_digest
        return d

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_text(self) -> str:
        """One line per verdict, then one per value in key order."""
        lines = []
        for v in self.verdicts:
            tag = " (informational)" if v.informational else ""
            lines.append(f"{v.key}: {v.value}{tag}\n")
        for k in sorted(self.values):
            lines.append(f"{k} = {self.values[k]}\n")
        return "".join(lines)
