"""Structured reports shared by all validators, plus JSON/text rendering.

Reports are machine-readable first: every failed axiom appears as a
`Violation` with a witness dictionary, and rendering to JSON is
deterministic (sorted keys, rational numbers as strings) so that repeated
runs with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "SchemaError",
    "PreconditionError",
    "Violation",
    "ValidationReport",
    "CITATIONS",
    "attach_citation",
    "dump_json",
    "json_int",
    "json_list",
    "json_str",
    "render_text",
]


class SchemaError(ValueError):
    """Malformed input document; reported distinctly from axiom failures."""


class PreconditionError(ValueError):
    """Operation invoked outside its stated precondition."""


@dataclass
class Violation:
    axiom: str
    witness: dict

    def to_dict(self) -> dict:
        return {"axiom": self.axiom, "witness": self.witness}


@dataclass
class ValidationReport:
    check: str
    subject: str = ""
    schema_errors: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, axiom: str, witness: dict) -> None:
        self.violations.append(Violation(axiom, witness))

    @property
    def ok(self) -> bool:
        return not self.schema_errors and not self.violations

    def to_dict(self) -> dict:
        doc = {
            "check": self.check,
            "subject": self.subject,
            "ok": self.ok,
            "schema_errors": list(self.schema_errors),
            "violations": [v.to_dict() for v in self.violations],
        }
        if self.notes:
            doc["notes"] = self.notes
        return doc


# Optional audit labels, attached to reports only when requested via the
# CLI flag --paper-ref.  Keys are check names as they appear in reports.
CITATIONS = {
    "validate-category": "sec. 2 (closure of the orthogonality relation)",
    "check-filtered": "sec. 3 (filtered index category)",
    "check-orthocomplement": "Assumption 3.4 (1)",
    "check-extension": "Assumption 3.9",
    "validate-action": "sec. 2 (group actions by orthogonal functors)",
    "operad-axioms": "Def 2.1",
    "algebra-axioms": "Remark 2.3",
    "equivariant-algebra-axioms": "Defs 2.5-2.7, Remark 2.6",
    "geometry-disjoint": "Def 5.1",
    "geometry-include": "Def 5.1",
    "geometry-project": "Lemma 5.6",
    "witness-diagram": "Lemma 5.3 / Assumption 3.9",
    "homotopy-certification": "Construction 5.9, Prop 5.10",
    "haag-duality": "Assumption 3.4 (3)",
    "perp-commutativity": "Example 2.4 (2)",
    "localized": "Corollary 3.7 (2)",
    "transport": "Corollary 3.7 (1)",
    "diamond-laws": "Prop 3.8",
    "sector-perp-commutativity": "Prop 3.10",
    "structure-maps": "Theorem 3.11, Eq 3.23",
    "group-implementation": "Assumption 4.1",
}


def attach_citation(doc: dict) -> dict:
    check = doc.get("check")
    if check in CITATIONS:
        doc = dict(doc)
        doc["citation"] = CITATIONS[check]
    return doc


def dump_json(doc: dict) -> str:
    """Canonical serialization: the text of `json.dumps(doc, sort_keys=True,
    indent=2, ensure_ascii=True)` plus a newline, written in one pass.

    Only str, int, bool, None, dicts with str keys, lists and tuples are
    written; anything else, a float included, raises TypeError (reports
    carry rationals as strings, so a float is a bug)."""
    parts: list[str] = []
    _write(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


_escape = json.encoder.encode_basestring_ascii


def _write(value, parts: list[str], newline: str) -> None:
    """Append the JSON text of `value` to `parts`; `newline` is a newline
    followed by the indent of the line `value` starts on.

    A module-level function, not a closure over `parts`: a self-referencing
    inner function would keep every report's parts alive until the cyclic
    collector runs."""
    if isinstance(value, str):
        parts.append(_escape(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep)
            parts.append(_escape(key))
            parts.append(": ")
            _write(item, parts, inner)
            sep = comma
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, parts, inner)
            sep = comma
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_list(value, what: str) -> list | tuple:
    """A JSON array of an input document as it stands: a string, which
    would iterate as its characters, or any other non-list is refused."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{what} must be a list, not {value!r}")
    return value


def json_str(value, what: str) -> str:
    """A JSON string of an input document as it stands: a number, a
    boolean or null is refused rather than coerced with str()."""
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, not {value!r}")
    return value


def json_int(value, what: str) -> int:
    """A JSON integer as it stands: a float, a string or a boolean is
    refused rather than coerced."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, not {value!r}")
    return value


def _walk(doc, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                _walk(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {v if v or v == 0 or v is False else '-'}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                _walk(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {v}")


def render_text(doc: dict) -> str:
    """Human-readable rendering of a report dictionary."""
    lines: list[str] = []
    check = doc.get("check", "report")
    status = None
    for key in ("ok", "holds", "passed", "certified", "filtered", "found"):
        if key in doc:
            status = f"{key}={doc[key]}"
            break
    header = f"== {check}"
    if doc.get("subject"):
        header += f" [{doc['subject']}]"
    if status:
        header += f" :: {status}"
    lines.append(header)
    body = {k: v for k, v in doc.items() if k not in ("check", "subject")}
    _walk(body, 1, lines)
    return "\n".join(lines) + "\n"
