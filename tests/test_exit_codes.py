"""The exit-code contract over drawn command lines: every subcommand, flag
and value, valid or not. Exit 0 is success, 1 a refutation (and stdout says
REFUTED), 2 a usage or input error; no input ends in a traceback."""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topogamma.claims import KNOWN_HYPOTHESES, list_claims
from topogamma.cli import SHOW_WHAT, run

FILES = {
    "f5": {
        "points": ["a", "b", "c"],
        "opens": [[], ["a"], ["c"], ["a", "c"], ["a", "b", "c"]],
        "operation": {"builtin": "interior-closure"},
    },
    "tau1": {
        "points": ["a", "b", "c"],
        "opens": [[], ["a"], ["b"], ["a", "b"], ["a", "c"], ["a", "b", "c"]],
    },
    "two": {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]},
    "gamma2": {
        "table": {"[b]": ["b"], "[a,b]": ["a", "b", "c"], "[b,c]": ["b", "c"],
                  "[a,b,c]": ["a", "b", "c"]},
        "fill": "identity",
    },
    "closure_op": {"builtin": "closure"},
    "idmap": {"assign": {"a": "a", "b": "b", "c": "c"}},
    "swap": {"assign": {"a": "b", "b": "a", "c": "c"}},
    "squash": {"assign": {"a": "a", "b": "a", "c": "b"}},
    "no_full": {"points": ["a", "b"], "opens": [[], ["a"]]},
    "bad_point": {"points": ["a"], "opens": [[], ["z"], ["a"]]},
    "list": [1, 2, 3],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit-codes")
    out = {name: str(root / f"{name}.json") for name in FILES}
    for name, payload in FILES.items():
        with open(out[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    (root / "broken.json").write_text("{not json")
    out["broken"] = str(root / "broken.json")
    out["missing"] = str(root / "missing.json")
    out["report"] = str(root / "report.json")
    out["no_dir"] = str(root / "no-such-dir" / "report.json")
    return out


BAD_FILES = ["no_full", "bad_point", "list", "broken", "missing"]
CLAIM_IDS = [c.id for c in list_claims()]


def values(valid, invalid):
    """Mostly a valid value, now and then an invalid one."""
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(invalid if i == 7 else valid)
    )


def files(*valid):
    return values(["@" + k for k in valid], ["@" + k for k in BAD_FILES + ["idmap", "f5"]])


SPACES = files("f5", "tau1", "two")
CLOSURES = values(["pointwise", "lattice"], ["other"])
SR = values(["cap", "cup"], ["other"])
INTERIOR = values(["lattice", "pointwise"], ["other"])
DROPS = values(list(KNOWN_HYPOTHESES), ["other"])

# subcommand -> flag -> (required, value strategy or None for a switch);
# a value "@key" names one of the files above. A search always gets small
# bounds: without them it would run at --max-n 4 --budget 64.
ALWAYS = {"--max-n", "--budget"}
FLAGS = {
    "show": {
        "--space": (True, SPACES),
        "--op": (False, files("gamma2", "closure_op")),
        "--what": (True, values(list(SHOW_WHAT), ["nope"])),
        "--set": (False, values(["{a}", "{a,b}", "a,c", "{}", ""], ["{z}", "{a", "b}"])),
        "--closure": (False, CLOSURES),
        "--json": (False, None),
    },
    "check": {
        "--claim": (True, values(CLAIM_IDS, ["T9.9", ""])),
        "--space": (True, SPACES),
        "--op": (False, files("gamma2", "closure_op")),
        "--map": (False, files("idmap", "swap", "squash")),
        "--codomain": (False, SPACES),
        "--codomain-op": (False, files("gamma2", "closure_op")),
        "--closure": (False, CLOSURES),
        "--sr": (False, SR),
        "--interior": (False, INTERIOR),
        "--drop": (False, DROPS),
        "--json": (False, None),
    },
    "search": {
        "--claim": (True, values(CLAIM_IDS, ["T9.9", ""])),
        "--drop": (False, DROPS),
        "--max-n": (True, values(["1", "2"], ["-1", "0", "6", "x"])),
        "--budget": (True, values(["1", "2"], ["-1", "0", "x"])),
        "--domain": (False, values(["opens", "semi-opens"], ["other"])),
        "--closure": (False, CLOSURES),
        "--sr": (False, SR),
        "--interior": (False, INTERIOR),
        "--no-stop": (False, None),
        "--json": (False, None),
    },
    "audit": {
        "--out": (False, values(["@report"], ["@no_dir"])),
        "--json": (False, None),
    },
    "enumerate": {
        "--n": (True, values(["1", "2", "3"], ["-1", "0", "6", "x", ""])),
        "--count-only": (False, None),
        "--json": (False, None),
    },
    "claims": {"--json": (False, None)},
}


@st.composite
def argvs(draw):
    command = draw(values(sorted(FLAGS), ["nope"]))
    argv = [command]
    flags = FLAGS.get(command, {})
    for flag in draw(st.permutations(sorted(flags))):
        required, value = flags[flag]
        # a required flag is left out now and then, an optional one half
        # the time
        if flag not in ALWAYS and draw(st.integers(0, 7 if required else 1)) == 1:
            continue
        argv.append(flag)
        if value is not None:
            argv.append(draw(value))
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "-h", "x"])))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argvs())
def test_exit_code_contract(paths, argv):
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert "REFUTED" in out.getvalue(), argv
