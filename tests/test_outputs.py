"""``tools/outputs`` on one command: its line holds the exit code, the
sha256 of the ``--json`` report and of the printed text, and the command,
each the digest of what the same command gives in this process."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

from xmod2.cli import main

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, os.pardir)
TOOL = os.path.join(ROOT, "tools", "outputs.py")


def test_outputs_digests_the_report_and_the_text(tmp_path, capsys, monkeypatch):
    out = subprocess.run([sys.executable, TOOL, "validate", "fixtures.json"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    [line] = out.splitlines()
    code, json_sha, text_sha, command = line.split(" ", 3)
    monkeypatch.chdir(ROOT)
    report = tmp_path / "report.json"
    assert main(["validate", "fixtures.json", "--json", str(report)]) == int(code) == 0
    text = capsys.readouterr().out
    assert json_sha == hashlib.sha256(report.read_bytes()).hexdigest()
    assert text_sha == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert command == "validate fixtures.json"


def _tool():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_escaping_document_prints_its_names_and_label_escaped(tmp_path, capsys):
    """The document ``tools/outputs`` writes for its escaping run fails
    associativity at a witness that shows its non-ASCII name and its label
    x"\\; the report keeps them raw in UTF-8, escapes only the quote and
    the backslash, and reads back as the text printed them."""
    doc = tmp_path / "escaping.json"
    doc.write_text(json.dumps(_tool().ESCAPING_DOC, ensure_ascii=False), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["validate", str(doc), "--json", str(report)]) == 1
    text = capsys.readouterr().out
    raw = report.read_text(encoding="utf-8")
    [check] = json.loads(raw)["checks"]
    assert check["witness"].startswith(r"""algebras '代数': associativity fails at (('x"\\', """)
    assert check["witness"] in text and check["witness"].replace("\\", "\\\\").replace('"', '\\"') in raw


def test_free_pair_document_reads_a_missing_image_as_zero(tmp_path, capsys):
    """The document of ``tools/outputs``' free-pair runs gives f only
    f0(x) = p and h only s(y) = a over R free on x and y: it validates, and
    h's target has g0(x) = p + d1'(0) = p and g0(y) = 0 + d1'(a) = p."""
    doc = tmp_path / "free-pair.json"
    doc.write_text(json.dumps(_tool().FREE_PAIR_DOC, ensure_ascii=False), encoding="utf-8")
    assert main(["validate", str(doc)]) == 0
    report = tmp_path / "report.json"
    assert main(["homotopy", "apply", str(doc), "--names", "h", "--json", str(report)]) == 0
    text = capsys.readouterr().out
    witness = {c["name"]: c.get("witness") for c in json.loads(report.read_text(encoding="utf-8"))["checks"]}
    assert witness["value/h/g0(x)"] == witness["value/h/g0(y)"] == "p"
    assert "value/h/g0(x)  [p]" in text and "value/h/g0(y)  [p]" in text
