"""Reports against their committed golden copies, byte for byte: the audit
report (`audit --json` and `audit`, recorded before the space-search fast
paths), the registry listing (`claims --json` and `claims`, recorded
before the statements and hypotheses moved into declaration tables) and
the sha256 of every `enumerate --n k` listing, text and JSON (recorded
before rendering moved to per-universe label tables)."""
import hashlib
from pathlib import Path

import pytest

from topogamma import audit_paper
from topogamma.cli import run

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def report():
    return audit_paper()


def test_audit_json_matches_golden(report):
    assert report.to_json() == (GOLDEN / "audit.json").read_text(encoding="utf-8")


def test_audit_text_matches_golden(report):
    assert report.to_text() == (GOLDEN / "audit.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, golden", [
    (["claims", "--json"], "claims.json"),
    (["claims"], "claims.txt"),
])
def test_claims_listing_matches_golden(capsys, argv, golden):
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


# "<sha256>  <argv>" per line, as sha256sum prints it
ENUMERATE_DIGESTS = [
    line.split("  ", 1)[::-1]
    for line in (GOLDEN / "enumerate.sha256").read_text(encoding="utf-8").splitlines()
]


@pytest.mark.parametrize("command, digest", ENUMERATE_DIGESTS,
                         ids=[command for command, _ in ENUMERATE_DIGESTS])
def test_enumerate_listing_matches_golden_digest(capsys, command, digest):
    assert run(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
