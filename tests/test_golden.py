"""The audit report against its committed golden copy: `audit --json` and
`audit` output recorded before the space-search fast paths, byte for byte."""
from pathlib import Path

import pytest

from topogamma import audit_paper

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def report():
    return audit_paper()


def test_audit_json_matches_golden(report):
    assert report.to_json() == (GOLDEN / "audit.json").read_text(encoding="utf-8")


def test_audit_text_matches_golden(report):
    assert report.to_text() == (GOLDEN / "audit.txt").read_text(encoding="utf-8")
