"""Every runtime function runs under some CLI command, or
unrun_functions.txt says why it does not."""
import json
import re
import subprocess
import sys
from pathlib import Path

from reach_probe import expected_exits

HERE = Path(__file__).resolve().parent


def listed_unrun() -> dict[str, str]:
    """module:qualname -> reason, from the checked-in list."""
    entries = {}
    for line in (HERE / "unrun_functions.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason = (re.split(r"\s{2,}", line.strip(), maxsplit=1) + [""])[:2]
            entries[name] = reason
    return entries


def test_unrun_runtime_functions_are_listed(tmp_path):
    # A fresh interpreter, so that no cache warmed by other tests skips a call.
    probe = subprocess.run([sys.executable, str(HERE / "reach_probe.py"), str(tmp_path)],
                           capture_output=True, text=True, check=True)
    doc = json.loads(probe.stdout)
    assert doc["exits"] == expected_exits()
    singular = [run for run, code in doc["exits"].items()
                if run.startswith("hermite-2d-singular ") and code == 2]
    for run in singular:
        assert "numerically singular" in doc["stderr"][run], (run, doc["stderr"][run])
    listed, unrun = listed_unrun(), set(doc["unrun"])
    assert [name for name, reason in listed.items() if not reason] == [], "entries need a reason"
    unlisted = sorted(unrun - listed.keys())
    assert unlisted == [], ("no command runs these: delete them, move them into qlsm.reference "
                            "or the tests, or list them with a reason")
    gone = sorted(listed.keys() - set(doc["functions"]))
    assert gone == [], "listed functions that no longer exist"
    running = sorted(listed.keys() - unrun - set(gone))
    assert running == [], "listed functions that a command now runs"
