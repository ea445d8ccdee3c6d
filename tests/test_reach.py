"""Every runtime module loads and every runtime function runs under some CLI
command, or unrun_functions.txt says why it does not; and every report those
commands write is JSON as RFC 8259 defines it."""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qlsm.harness.cli import EXIT_CONFIG, main
from reach_probe import COMMANDS, PROBE_CONFIGS, expected_exits, runtime_modules

HERE = Path(__file__).resolve().parent


def listed_unrun() -> dict[str, str]:
    """module:qualname -> reason, from the checked-in list."""
    entries = {}
    for line in (HERE / "unrun_functions.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason = (re.split(r"\s{2,}", line.strip(), maxsplit=1) + [""])[:2]
            entries[name] = reason
    return entries


@pytest.fixture(scope="module")
def probe_run(tmp_path_factory):
    """The probe's JSON document and the directory its runs wrote to."""
    out = tmp_path_factory.mktemp("reach")
    # A fresh interpreter, so that no cache warmed by other tests skips a call.
    probe = subprocess.run([sys.executable, str(HERE / "reach_probe.py"), str(out)],
                           capture_output=True, text=True, check=True)
    return json.loads(probe.stdout), out


def test_unrun_runtime_functions_are_listed(probe_run):
    doc, _ = probe_run
    assert doc["exits"] == expected_exits()
    singular = [run for run, code in doc["exits"].items()
                if run.startswith("hermite-2d-singular ") and code == 2]
    for run in singular:
        assert "numerically singular" in doc["stderr"][run], (run, doc["stderr"][run])
    listed, unrun = listed_unrun(), set(doc["unrun"])
    assert [name for name, reason in listed.items() if not reason] == [], "entries need a reason"
    unlisted = sorted(unrun - listed.keys())
    assert unlisted == [], ("no command runs these: delete them, move them into the tests, "
                            "or list them with a reason")
    gone = sorted(listed.keys() - set(doc["functions"]))
    assert gone == [], "listed functions that no longer exist"
    running = sorted(listed.keys() - unrun - set(gone))
    assert running == [], "listed functions that a command now runs"


def test_probe_loads_every_runtime_module(probe_run):
    # src/ holds only the runtime: a module that no command imports belongs
    # in the tests.
    doc, _ = probe_run
    assert set(doc["modules"]) ^ set(runtime_modules().values()) == set(), \
        "the commands must load exactly the modules under src/qlsm"


def _refuse(constant: str):
    raise ValueError(f"{constant} is not JSON")


def test_reports_are_strict_json(probe_run, tmp_path, capsys):
    # json.loads accepts NaN, Infinity and -Infinity unless parse_constant refuses them.
    doc, out = probe_run
    kinds = {"price": "price", "scaling": "scaling", "validate-bounds": "bounds",
             "dump-oracle": "oracle"}
    for name in PROBE_CONFIGS:
        for command in COMMANDS:
            report = out / name / f"{kinds[command[0]]}.json"
            assert report.exists() == (doc["exits"][f"{name} {' '.join(command)}"] == 0), report
            if report.exists():
                json.loads(report.read_text(), parse_constant=_refuse)
    # A cost weight of 1e308 makes the cost totals infinite, which JSON
    # cannot hold: the run is an error and writes no report.
    config = tmp_path / "huge-weight.json"
    config.write_text(json.dumps({"sample_step_cost": 1e308, "trials": 1}))
    assert main(["price", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("run error: the price report holds a "
                                              "non-finite number")
    assert not (tmp_path / "out").exists()
