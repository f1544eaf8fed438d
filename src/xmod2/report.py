"""Machine- and human-readable check reports.

Reports are deterministic given (input, seed): checks are sorted by name,
witnesses rendered through the canonical element printer, and the JSON
form is byte-stable (sorted keys, UTF-8, LF newlines): ``canonical_json``
writes the bytes of ``json.dumps(obj, sort_keys=True, ensure_ascii=False,
indent=2)`` plus a newline, in one pass of its own, because ``json.dumps``
with an indent runs its pure-Python encoder.
"""

import json
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    tag: str
    status: str  # "pass" | "fail" | "skipped"
    witness: str = None
    certificate: dict = None

    def to_json(self):
        out = {"name": self.name, "tag": self.tag, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


@dataclass
class Report:
    command: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, name, tag, ok, witness=None, certificate=None):
        status = "pass" if ok else "fail"
        if ok is None:
            status = "skipped"
        if certificate is not None and hasattr(certificate, "to_json"):
            certificate = certificate.to_json()
        self.checks.append(Check(name, tag, status, witness, certificate))

    def extend(self, prefix, entries):
        """Absorb (name, ok, witness) triples from a checker; each tag is
        the last segment of its name."""
        for name, ok, witness in entries:
            tag = name.rsplit("/", 1)[-1]
            self.add("%s/%s" % (prefix, name) if prefix else name, tag, ok, witness)

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.name)

    def counts(self):
        """The number of checks of each status."""
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json_obj(self):
        counts = self.counts()
        return {
            "command": self.command,
            "params": self.params,
            "status": "fail" if counts["fail"] else "pass",
            "counts": counts,
            "checks": [c.to_json() for c in self.sorted_checks()],
        }

    def to_text(self):
        lines = ["# xmod2 %s" % self.command]
        if self.params:
            lines.append("params: %s" % json.dumps(self.params, sort_keys=True))
        for c in self.sorted_checks():
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[c.status]
            line = "%s  %s" % (mark, c.name)
            if c.witness:
                line += "  [%s]" % c.witness
            lines.append(line)
        counts = self.counts()
        lines.append(
            "%s: %d pass, %d fail, %d skipped"
            % ("fail" if counts["fail"] else "pass", counts["pass"], counts["fail"], counts["skipped"])
        )
        return "\n".join(lines) + "\n"


_encode_str = json.encoder.encode_basestring  # the escaper json.dumps uses
_STR_KEYS = {str}


def canonical_json(obj):
    """Byte-stable JSON: exactly ``json.dumps(obj, sort_keys=True,
    ensure_ascii=False, indent=2) + "\\n"`` -- sorted keys, UTF-8, two-space
    indent, LF, trailing newline -- written in one pass by ``_render``.

    ``json.dumps`` with an indent never uses its C encoder, and a report is
    JSON strings, ints, bools, None and non-empty string-keyed dicts and
    lists, which ``_render`` writes itself; it hands anything else to
    ``json.dumps``.  A value nested too deep to recurse, or one that holds
    itself, goes to ``json.dumps`` whole, which gives json's result or
    error for it."""
    out = []
    try:
        _render(obj, "\n", out)
    except RecursionError:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _render(value, newline, out):
    """Append to out the text of value as ``canonical_json`` writes it at
    the depth whose line break and indent is newline.  Strings, bool, None,
    plain ints and non-empty lists and all-``str``-keyed dicts are written
    here; every other value (floats, tuples, empty containers, other keys,
    subclasses, unsupported objects) is ``json.dumps``'s text re-indented,
    with its errors."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is dict and value and set(map(type, value)) == _STR_KEYS:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            out.append(sep + _encode_str(key) + ": ")
            if type(item) is str:  # most values: skip the call
                out.append(_encode_str(item))
            else:
                _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list and value:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2).replace("\n", newline))
