"""Reports against their committed golden copies, byte for byte: the audit
report (`audit --json` and `audit`, recorded before the space-search fast
paths), the registry listing (`claims --json` and `claims`, recorded
before the statements and hypotheses moved into declaration tables) and
the sha256 of every `enumerate --n k` listing, text and JSON (recorded
before rendering moved to per-universe label tables), and the sha256 of
small map-claim searches, text and JSON, under both closures (recorded
while map claims still read their instance through a forwarding
wrapper), the sha256 of small space-claim searches, text and JSON
(recorded before the search stream shared tables between operations), and
of four space searches at the default bounds (two recorded before the
stream stopped looking tables up by the images of the opens, two under
the lattice closure before the tables were built from the variant's own
interior table), and the sha256 of
every `show` form on the six fixtures (recorded while `show` still called
the semistar operator functions)."""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from topogamma import audit_paper, fixture_catalog
from topogamma.cli import run
from topogamma.jsonio import space_to_json

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
def _digests(name: str) -> list:
    return [
        line.split("  ", 1)[::-1]
        for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    ]


ENUMERATE_DIGESTS = _digests("enumerate.sha256")


@pytest.mark.parametrize("command, digest", ENUMERATE_DIGESTS,
                         ids=[command for command, _ in ENUMERATE_DIGESTS])
def test_enumerate_listing_matches_golden_digest(capsys, command, digest):
    assert run(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# every map claim at --max-n 2 --budget 3 --no-stop, plus two dropped
# hypotheses; T4.9 and T4.7 without semi-open-map refute there, so a detail
# witness and a slot witness with its assignment are both pinned
MAP_SEARCH_DIGESTS = _digests("map_search.sha256")


@pytest.mark.parametrize("command, digest", MAP_SEARCH_DIGESTS,
                         ids=[command for command, _ in MAP_SEARCH_DIGESTS])
def test_map_search_matches_golden_digest(capsys, command, digest):
    code = run(command.split())
    out = capsys.readouterr().out
    assert code == (1 if "REFUTED" in out else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every space law at --max-n 3 --budget 8 --no-stop under both closures,
# plus the labelled witnesses of two dropped hypotheses, the pointwise
# interior reading and the semi-open operation domain (recorded before
# the stream shared tables between the operations of one topology); then
# T3.14 and the `open`-gated P3.17b at the default bounds, 24 193
# instances each, where the stream shares the most tables, and, under the
# lattice closure, P3.29 (which keeps its first failure on the tables) and
# T3.13 (which refutes, so its JSON names the closure), recorded while the
# tables still branched on the closure variant
SPACE_SEARCH_DIGESTS = _digests("space_search.sha256") + _digests("default_search.sha256")


@pytest.mark.parametrize("command, digest", SPACE_SEARCH_DIGESTS,
                         ids=[command for command, _ in SPACE_SEARCH_DIGESTS])
def test_space_search_matches_golden_digest(capsys, command, digest):
    code = run(command.split())
    out = capsys.readouterr().out
    assert code == (1 if "REFUTED" in out else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every --what on every fixture under both closures, text and JSON; an
# operator that takes --set runs on every subset in mask order, and one
# digest covers the outputs of all of them
SHOW_DIGESTS = _digests("show.sha256")


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fixtures")
    return write_fixture_files(folder)


def write_fixture_files(folder: Path) -> dict:
    """Each fixture as a space file with its operation embedded."""
    paths = {}
    for name, space in fixture_catalog().items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(space_to_json(space.topology, space.gamma)))
        paths[name] = str(path)
    return paths


def show_stdout(command: str, paths: dict) -> str:
    """The stdout of `command`, its --space named by fixture, once per
    subset of the universe when the --what takes --set."""
    argv = command.split()
    at = argv.index("--space") + 1
    name = argv[at]
    argv[at] = paths[name]
    universe = fixture_catalog()[name].universe
    what = argv[argv.index("--what") + 1]
    runs = ([argv + ["--set", literal] for literal in universe.format_table]
            if what in ("scl", "sint", "sbd", "sext") else [argv])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for one in runs:
            assert run(one) == 0, one
    return out.getvalue()


@pytest.mark.parametrize("command, digest", SHOW_DIGESTS,
                         ids=[command for command, _ in SHOW_DIGESTS])
def test_show_matches_golden_digest(fixture_files, command, digest):
    out = show_stdout(command, fixture_files)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
