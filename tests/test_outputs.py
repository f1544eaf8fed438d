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


def test_escaping_document_prints_its_names_and_label_escaped(tmp_path, capsys):
    """The document ``tools/outputs`` writes for its escaping run fails
    associativity at a witness that shows its non-ASCII name and its label
    x"\\; the report keeps them raw in UTF-8, escapes only the quote and
    the backslash, and reads back as the text printed them."""
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    doc = tmp_path / "escaping.json"
    doc.write_text(json.dumps(tool.ESCAPING_DOC, ensure_ascii=False), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["validate", str(doc), "--json", str(report)]) == 1
    text = capsys.readouterr().out
    raw = report.read_text(encoding="utf-8")
    [check] = json.loads(raw)["checks"]
    assert check["witness"].startswith(r"""algebras '代数': associativity fails at (('x"\\', """)
    assert check["witness"] in text and check["witness"].replace("\\", "\\\\").replace('"', '\\"') in raw
