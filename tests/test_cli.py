"""End-to-end command-line behavior: output, exit codes, determinism."""
import json
from pathlib import Path

import pytest

from topogamma import SchemaError, default_universe, make_topology
from topogamma.claims import EvalOptions, SearchConfig, list_claims, search_counterexample
from topogamma.cli import run
from topogamma.jsonio import operation_from_json

F5_SPACE = {
    "points": ["a", "b", "c"],
    "opens": [[], ["a"], ["c"], ["a", "c"], ["a", "b", "c"]],
    "operation": {"builtin": "interior-closure"},
}

TAU1_SPACE = {
    "points": ["a", "b", "c"],
    "opens": [[], ["a"], ["b"], ["a", "b"], ["a", "c"], ["a", "b", "c"]],
}

GAMMA2_OP = {
    "table": {
        "[b]": ["b"],
        "[a,b]": ["a", "b", "c"],
        "[b,c]": ["b", "c"],
        "[a,b,c]": ["a", "b", "c"],
    },
    "fill": "identity",
}

IDENTITY_MAP = {"assign": {"a": "a", "b": "b", "c": "c"}}

GOLDEN = Path(__file__).parent / "golden"

SR_GATED = [c.id for c in list_claims() if "semi-regular" in c.hypotheses]


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (
        ("f5", F5_SPACE),
        ("tau1", TAU1_SPACE),
        ("gamma2", GAMMA2_OP),
        ("idmap", IDENTITY_MAP),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


class TestShow:
    def test_sbd_of_a_on_f5(self, files, capsys):
        # {a} is semi-regular here, so its semi-boundary is empty
        code = run(["show", "--space", files["f5"], "--what", "sbd", "--set", "{a}"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{}"

    def test_scl_set_literal_forms(self, files, capsys):
        for literal in ("{b}", "b", " { b } "):
            assert run(["show", "--space", files["f5"], "--what", "scl", "--set", literal]) == 0
            assert capsys.readouterr().out.strip() == "{b}"

    def test_so_family(self, files, capsys):
        code = run(["show", "--space", files["f5"], "--what", "so"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "{} {a} {a,b} {c} {a,c} {b,c} {a,b,c}"

    def test_tau_gamma_with_operation_file(self, files, capsys):
        code = run([
            "show", "--space", files["tau1"], "--op", files["gamma2"],
            "--what", "tau-gamma",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{} {a} {b} {a,b} {a,c} {a,b,c}"

    def test_classify(self, files, capsys):
        code = run(["show", "--space", files["f5"], "--what", "classify", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["semi_regular_cap"] is False
        assert payload["semi_regular_cup"] is True

    def test_lattice_variant_flag(self, files, capsys):
        code = run([
            "show", "--space", files["f5"], "--what", "scl",
            "--set", "{c}", "--closure", "lattice",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{c}"

    def test_missing_set_is_usage_error(self, files, capsys):
        assert run(["show", "--space", files["f5"], "--what", "sbd"]) == 2

    @pytest.mark.parametrize("what", ["tau-gamma", "so", "sc", "classify"])
    def test_set_that_is_not_read_is_usage_error(self, files, capsys, what):
        code = run(["show", "--space", files["f5"], "--what", what, "--set", "{zzz}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--what {what} takes no --set" in captured.err

    def test_default_operation_is_identity(self, files, capsys):
        code = run(["show", "--space", files["tau1"], "--what", "tau-gamma"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{} {a} {b} {a,b} {a,c} {a,b,c}"


class TestCheck:
    def test_confirmed(self, files, capsys):
        code = run(["check", "--claim", "E3.25b", "--space", files["f5"]])
        assert code == 0
        assert "CONFIRMED" in capsys.readouterr().out

    def test_vacuous_exit_zero(self, files, capsys):
        code = run(["check", "--claim", "T3.24", "--space", files["f5"]])
        assert code == 0
        assert "VACUOUS" in capsys.readouterr().out

    def test_refuted_exit_one(self, files, capsys):
        code = run([
            "check", "--claim", "T3.24", "--space", files["f5"],
            "--drop", "semi-regular",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REFUTED" in out and "{a,b}" in out

    def test_map_claim(self, files, capsys):
        code = run([
            "check", "--claim", "T4.2", "--space", files["f5"],
            "--map", files["idmap"], "--codomain", files["f5"],
        ])
        assert code == 0
        assert "CONFIRMED" in capsys.readouterr().out

    @pytest.mark.parametrize("closure", ["pointwise", "lattice"])
    def test_t47_refutes_with_every_hypothesis_met(self, tmp_path, capsys, closure):
        # the identity map on the discrete 3-point space, each side under
        # gamma_F (V for V in F, X otherwise): F_X = {},{a},{b},{a,b},X and
        # F_Y adds {a,c}; {b,c} is semi-open in X, its image is not in Y
        discrete = {"points": ["a", "b", "c"],
                    "opens": [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"],
                              ["b", "c"], ["a", "b", "c"]]}
        whole = ["a", "b", "c"]
        gamma_x = {"table": {"[c]": whole, "[a,c]": whole, "[b,c]": whole},
                   "fill": "identity"}
        gamma_y = {"table": {"[c]": whole, "[b,c]": whole}, "fill": "identity"}
        paths = {}
        for name, payload in (("space", discrete), ("op_x", gamma_x), ("op_y", gamma_y),
                              ("map", IDENTITY_MAP)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        code = run([
            "check", "--claim", "T4.7", "--space", str(paths["space"]),
            "--op", str(paths["op_x"]), "--codomain", str(paths["space"]),
            "--codomain-op", str(paths["op_y"]), "--map", str(paths["map"]),
            "--closure", closure, "--json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "REFUTED"
        assert payload["variant"]["hypotheses"] == "open+semi-continuous+semi-open-map"
        assert "unmet" not in payload["variant"]
        assert payload["witness"]["slots"] == {"A": "{b,c}"}

    def test_map_claim_without_codomain(self, files, capsys):
        assert run(["check", "--claim", "T4.2", "--space", files["f5"]]) == 2

    def test_map_to_unknown_target_point_is_usage_error(self, files, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"assign": {"a": "a", "b": "z", "c": "c"}}))
        code = run([
            "check", "--claim", "T4.2", "--space", files["f5"],
            "--map", str(bad), "--codomain", files["f5"],
        ])
        assert code == 2
        assert "assignment names unknown target points ['z']" in capsys.readouterr().err

    def test_unknown_claim(self, files, capsys):
        assert run(["check", "--claim", "T0.0", "--space", files["f5"]]) == 2
        assert "T0.0" in capsys.readouterr().err

    def test_fixture_claim_on_another_space_is_usage_error(self, files, capsys):
        assert run(["check", "--claim", "E3.2a", "--space", files["f5"]]) == 2
        captured = capsys.readouterr()
        assert "REFUTED" not in captured.out
        assert captured.err.startswith("error: claim E3.2a checks fixture F1")

    def test_json_output(self, files, capsys):
        code = run(["check", "--claim", "E3.25b", "--space", files["f5"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "CONFIRMED"
        assert payload["claim"] == "E3.25b"


class TestSearch:
    def test_necessity_search(self, capsys):
        code = run([
            "search", "--claim", "T3.24", "--drop", "semi-regular", "--max-n", "3",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REFUTED" in out

    def test_exhausted_exit_zero(self, capsys):
        code = run([
            "search", "--claim", "T3.14", "--max-n", "2", "--budget", "3",
        ])
        assert code == 0
        assert "EXHAUSTED" in capsys.readouterr().out

    def test_json_deterministic(self, capsys):
        argv = ["search", "--claim", "T3.24", "--drop", "semi-regular",
                "--max-n", "3", "--json"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["status"] == "REFUTED"

    @pytest.mark.parametrize("claim, drop", [
        ("T3.26.1", ()),
        # refutes, so the reading shows in the witness's variant
        ("T3.26.3", ("semi-regular",)),
    ])
    def test_interior_reading(self, capsys, claim, drop):
        argv = ["search", "--claim", claim, "--interior", "pointwise",
                "--max-n", "3", "--budget", "4", "--json"]
        for hypothesis in drop:
            argv += ["--drop", hypothesis]
        config = SearchConfig(max_n=3, op_budget=4,
                              options=EvalOptions(interior_reading="pointwise", drop=drop))
        expected = search_counterexample(claim, config).to_dict()
        code = run(argv)
        assert json.loads(capsys.readouterr().out) == expected
        assert code == (1 if expected["status"] == "REFUTED" else 0)
        if expected["witness"]:
            assert expected["witness"]["variant"]["interior"] == "pointwise"

    @pytest.mark.parametrize("closure", ["pointwise", "lattice"])
    @pytest.mark.parametrize("claim", SR_GATED)
    def test_sr_cup_reaches_the_search(self, capsys, claim, closure):
        # the union form holds for every operation, so --sr cup must search
        # exactly as dropping the hypothesis does; only the variant differs
        argv = ["search", "--claim", claim, "--closure", closure, "--max-n", "3",
                "--budget", "8", "--no-stop", "--json"]
        results = []
        for extra in (["--sr", "cup"], ["--drop", "semi-regular"]):
            code = run(argv + extra)
            payload = json.loads(capsys.readouterr().out)
            witness = payload.pop("witness")
            if witness is not None:
                payload["instance"] = witness["instance"]
                payload["slots"] = witness["witness"]["slots"]
            results.append((code, payload))
        assert results[0] == results[1]

    def test_fixture_claim_is_usage_error(self, capsys):
        # a worked-example claim checks one fixture; on a 1-point space it
        # must not come out REFUTED
        assert run(["search", "--claim", "E3.2d", "--max-n", "1"]) == 2
        captured = capsys.readouterr()
        assert "REFUTED" not in captured.out
        assert "E3.2d" in captured.err


class TestAuditCommand:
    def test_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run(["audit", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert {"entries", "errata", "fixtures", "sweeps"} <= set(payload)
        text = capsys.readouterr().out
        assert "errata" in text

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["audit", "--out", str(a)])
        run(["audit", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_out_and_json_write_the_golden_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert run(["audit", "--out", str(out_path), "--json"]) == 0
        golden = (GOLDEN / "audit.json").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == golden
        assert out_path.read_bytes() == golden


class TestEnumerate:
    def test_count_only(self, capsys):
        code = run(["enumerate", "--n", "3", "--count-only"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "29"

    def test_listing(self, capsys):
        code = run(["enumerate", "--n", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "{} {a} {b} {a,b}"

    def test_out_of_range(self, capsys):
        assert run(["enumerate", "--n", "7"]) == 2


class TestClaimsCommand:
    def test_lists_registry(self, capsys):
        code = run(["claims"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T3.24" in out and "E3.25c" in out


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert run(["show", "--space", "/nonexistent.json", "--what", "so"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_opens_missing_full(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": ["a", "b"], "opens": [[]]}))
        assert run(["show", "--space", str(bad), "--what", "so"]) == 2
        err = capsys.readouterr().err
        assert "opens" in err

    def test_unknown_point_in_opens(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": ["a"], "opens": [[], ["z"]]}))
        assert run(["show", "--space", str(bad), "--what", "so"]) == 2
        err = capsys.readouterr().err
        assert "opens[1]" in err and "'z'" in err

    def test_unknown_flag(self, files):
        assert run(["show", "--space", files["f5"], "--what", "so", "--wat"]) == 2

    def test_shrinking_table_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "points": ["a", "b"],
            "opens": [[], ["a"], ["a", "b"]],
            "operation": {"table": {"[a]": []}},
        }))
        assert run(["show", "--space", str(bad), "--what", "tau-gamma"]) == 2

    @pytest.mark.parametrize("key", ["[a,b]", "{a,b}", "a,b", " [ a , b ] "])
    def test_table_key_forms_parse_alike(self, key):
        topology = make_topology(default_universe(3), (0, 1, 7))
        parsed = operation_from_json({"table": {key: ["a", "b", "c"], "[]": ["b"]}}, topology)
        expected = operation_from_json({"table": {"{a,b}": ["a", "b", "c"], "{}": ["b"]}},
                                       topology)
        assert parsed.table == expected.table
        assert parsed.table[3] == 7 and parsed.table[0] == 2

    @pytest.mark.parametrize("key", ["[a,z]", "{a,z}", "a,z"])
    def test_table_key_with_unknown_point(self, key):
        topology = make_topology(default_universe(3), (0, 1, 7))
        with pytest.raises(SchemaError, match="unknown point 'z'") as info:
            operation_from_json({"table": {key: ["a", "b", "c"]}}, topology)
        assert info.value.json_path == f"operation.table.{key}"

    def _assert_usage_error(self, argv, capsys, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err

    def test_search_zero_budget(self, capsys):
        self._assert_usage_error(
            ["search", "--claim", "T4.2", "--budget", "0"], capsys, "op_budget")

    def test_search_zero_max_n(self, capsys):
        self._assert_usage_error(
            ["search", "--claim", "T4.2", "--max-n", "0"], capsys, "max_n")

    def test_search_max_n_above_enumeration_cap(self, capsys):
        # refused before any instance is visited: T3.13 refutes at n <= 5,
        # so a search that started would print REFUTED and exit 1
        self._assert_usage_error(
            ["search", "--claim", "T3.13", "--max-n", "6"], capsys, "max_n")

    def test_show_unknown_point_in_set(self, files, capsys):
        self._assert_usage_error(
            ["show", "--space", files["f5"], "--what", "scl", "--set", "{z}"],
            capsys, "'z'")


def test_check_and_search_share_the_evaluation_flags():
    import argparse

    from topogamma.cli import _build_parser

    (commands,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]

    def flags(command):
        return {
            a.option_strings[0]: (a.choices, a.default, a.help)
            for a in commands.choices[command]._actions
            if a.option_strings[0] in ("--closure", "--sr", "--interior", "--drop")
        }

    assert sorted(flags("check")) == ["--closure", "--drop", "--interior", "--sr"]
    assert flags("search") == flags("check")
    assert flags("search")["--drop"][2] is not None


def test_module_entry_point(files):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "topogamma.cli", "enumerate", "--n", "2", "--count-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"
