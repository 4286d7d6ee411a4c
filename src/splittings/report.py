"""Structured, deterministically serializable reports.

Every verdict records the operation that produced it. Exact rationals are
serialized as "p/q" strings in lowest terms; nothing in a report depends on
wall-clock time, so identical inputs (and seed) give byte-identical JSON.
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


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Verdict:
    op: str
    key: str
    value: str
    informational: bool = False


@dataclass
class Report:
    operation: str
    verdicts: list[Verdict] = field(default_factory=list)
    values: dict[str, str] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    seed: Optional[int] = None

    def add(self, op: str, key: str, value: str, informational: bool = False) -> None:
        self.verdicts.append(Verdict(op, key, value, informational))

    def verdict(self, key: str) -> Optional[str]:
        for v in self.verdicts:
            if v.key == key:
                return v.value
        return None

    def contains(self, text: str) -> bool:
        return any(text in v.value for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "operation": self.operation,
            "seed": self.seed,
            "provenance": dict(sorted(self.provenance.items())),
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
            "witnesses": {},
            "hypotheses": [],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
