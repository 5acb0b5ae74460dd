"""Deterministic check reports shared by verification routines and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    status: str  # "pass" or "fail"
    witness: object = None

    def to_dict(self):
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name, passed, witness=None):
        self.checks.append(Check(name, "pass" if passed else "fail", witness))
        return passed

    def note(self, text):
        self.notes.append(text)

    def extend(self, other):
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)

    @property
    def ok(self):
        return all(c.status == "pass" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self):
        # no timing here on purpose: serialized reports must be byte-identical
        # for identical (input, seed)
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
            "ok": self.ok,
        }

    def render_text(self, elapsed=None):
        lines = [f"== {self.command} =="]
        for c in self.checks:
            mark = "ok " if c.status == "pass" else "FAIL"
            line = f"  [{mark}] {c.name}"
            if c.status != "pass" and c.witness is not None:
                line += f"  witness: {c.witness}"
            lines.append(line)
        for n in self.notes:
            lines.append(f"  note: {n}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}"
                     + (f"  ({elapsed:.3f}s)" if elapsed is not None else ""))
        return "\n".join(lines)
