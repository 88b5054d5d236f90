"""Machine-readable run reports with deterministic serialization.

Reports serialize with sorted keys so equal runs produce byte-identical
JSON.  Wall-clock measurements are inherently non-deterministic, so the
top-level ``wall_clock_ms`` field and any metric whose name starts with
``wall_`` are treated as volatile: ``canonical_json(volatile=False)``
excludes them, which is what determinism comparisons should use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import PurePath

VOLATILE_PREFIX = "wall_"


def json_text(value) -> str:
    """*value* as echokit writes every JSON document: sorted keys, indent 2
    and a final newline, so equal values give equal bytes."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def jsonable(value):
    """Recursively coerce numpy scalars/arrays and paths to plain Python values."""
    if isinstance(value, PurePath):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (bool, int, float, str)):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


@dataclass
class Report:
    subcommand: str = ""
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    wall_clock_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config": jsonable(self.config),
            "metrics": jsonable(self.metrics),
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "wall_clock_ms": float(self.wall_clock_ms),
        }

    def to_json(self) -> str:
        return json_text(self.as_dict())

    def canonical_json(self, volatile: bool = False) -> str:
        """Serialization for comparisons; drops timing fields unless asked."""
        data = self.as_dict()
        if not volatile:
            del data["wall_clock_ms"]
            data["metrics"] = {
                k: v for k, v in data["metrics"].items()
                if not k.startswith(VOLATILE_PREFIX)
            }
        return json_text(data)

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.subcommand}]"]
        for name in sorted(self.metrics):
            lines.append(f"  {name} = {self.metrics[name]}")
        for name in sorted(self.verdicts):
            state = "PASS" if self.verdicts[name] else "FAIL"
            lines.append(f"  {name}: {state}")
        lines.append(f"  wall_clock_ms = {self.wall_clock_ms:.1f}")
        return lines
