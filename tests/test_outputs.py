"""``tools/outputs`` on one command: its line holds the exit code, the
sha256 of the ``--json`` report and of the printed text, and the command,
each the digest of what the same command gives in this process."""

import hashlib
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
