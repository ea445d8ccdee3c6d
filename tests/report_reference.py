"""Recorded run reports and a field-by-field comparison against them.

``golden_reports_scipy.json`` holds the golden instances' reports as they
were when the chain's normal CDF came from ``scipy.special.ndtr`` and the
basis log-factorials from ``scipy.special.gammaln``. The stdlib
``math.erfc`` and ``math.lgamma`` that replaced them differ in the last bits,
so the byte digests moved; these reports show by how much.
"""
import hashlib
import json
from pathlib import Path

_RECORDED = json.loads(Path(__file__).with_name("golden_reports_scipy.json").read_text())


def recorded_report(key: str, digest: str) -> dict:
    """The recorded report under key, checked against its old byte digest."""
    doc = _RECORDED[key]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, key
    return doc


def assert_report_close(new, old, rel: float = 1e-12, where: str = "report") -> None:
    """Floats agree to rel relative; every other field (integers, indices,
    ledger counts, strings, keys, lengths) is identical."""
    assert type(new) is type(old), where
    if isinstance(old, dict):
        assert new.keys() == old.keys(), where
        for key in old:
            assert_report_close(new[key], old[key], rel, f"{where}/{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            assert_report_close(a, b, rel, f"{where}[{i}]")
    elif isinstance(old, float):
        assert abs(new - old) <= rel * abs(old), (where, new, old)
    else:
        assert new == old, (where, new, old)
