"""``tools/reach`` on one command: the functions ``xmod2 validate`` never
enters are listed, by module, and the ones it enters are not."""

import os
import subprocess
import sys

HERE = os.path.dirname(__file__)
TOOL = os.path.join(HERE, os.pardir, "tools", "reach.py")


def test_reach_lists_what_validate_never_enters():
    out = subprocess.run([sys.executable, TOOL, "validate", "fixtures.json"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.splitlines()
    listed = {line.strip() for line in lines if line.startswith("  ")}
    assert "tcm_homotopy.z_map" in listed
    assert "maps.check_law" not in listed
    assert "tcm_homotopy" in lines and lines[-1].endswith("functions never entered")
