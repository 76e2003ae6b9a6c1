"""Command line behavior: subcommands, exit codes, artifacts."""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from psrelief import dsl
from psrelief.cli import main
from psrelief.io import load_matrix_csv

INSTANCES = Path(__file__).parent.parent / "instances"
DERIVED = str(INSTANCES / "derived_1x1.json")


def data_path(name: str) -> str:
    return str(resources.files("psrelief").joinpath("data", name))


KATRINA = ["--candidate", data_path("katrina_psystem.csv"),
           "--reference", data_path("katrina_reference.csv")]


class TestSolve:
    def test_solve_derived_instance(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        code = main(["solve", "--instance", DERIVED, "--variant", "simplified",
                     "--tol", "1e-5", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["converged"] is True
        assert abs(payload["result"]["q"][0][0] - 0.5) < 1e-3
        assert payload["manifest"]["command"] == "solve"

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(["solve", "--instance", DERIVED, "--tol", "1e-12",
                     "--max-iter", "5", "--format", "json", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["result"]["converged"] is False

    def test_missing_instance_is_input_error(self, capsys):
        code = main(["solve", "--instance", "/nonexistent.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 1,\n  "n": ]')
        code = main(["solve", "--instance", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", DERIVED, "--wibble"])
        assert exc.value.code == 2

    def test_tol_is_checked_only_where_it_is_read(self, capsys):
        demo = str(INSTANCES / "demo_2x2.json")
        for variant in ("simplified", "full"):
            assert main(["solve", "--variant", variant, "--instance", demo, "--tol", "0"]) == 2
            assert capsys.readouterr().err == "error: tol must be positive\n"

    @pytest.mark.parametrize("tol, message", [
        ("nan", "tol must be finite"),
        ("inf", "tol must be finite"),
        ("-1", "tol must be positive"),
    ])
    def test_invalid_tol_is_input_error(self, capsys, tol, message):
        assert main(["solve", "--instance", DERIVED, "--tol", tol]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oracle_past_the_float_range_does_not_converge(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        code = main(["oracle", "--instance", str(INSTANCES / "demo_2x2.json"), "--p", "309",
                     "--max-iter", "2", "--format", "json", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["result"]["converged"] is False


class TestInputErrors:
    # a flag is taken only by the subcommands that read it: every other
    # argument of each row is valid, and nothing is written
    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--instance", DERIVED, "--p", "2"], ["--seed", "1"]),
        (["build", "--instance", DERIVED, "--p", "2", "--emit", "system.psys"], ["--tol", "1"]),
        (["oracle", "--instance", DERIVED, "--p", "3"], ["--tol", "0"]),
        (["simulate", "--instance", DERIVED, "--p", "2", "--format", "json"], ["--tol", "inf"]),
        (["compare"] + KATRINA, ["--tol", "1e-5"]),
        (["compare"] + KATRINA, ["--max-iter", "-1"]),
        (["compare"] + KATRINA, ["--instance", "/nonexistent.json"]),
    ], ids=["simulate-seed", "build-tol", "oracle-tol", "simulate-tol", "compare-tol",
            "compare-max-iter", "compare-instance"])
    def test_flag_the_subcommand_does_not_take_is_rejected(self, tmp_path, monkeypatch, capsys,
                                                           argv, flag):
        monkeypatch.chdir(tmp_path)
        out = [] if argv[0] == "build" else ["--out", "export"]
        with pytest.raises(SystemExit) as exc:
            main(argv + out + flag)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(flag)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    @pytest.mark.parametrize("argv", [["solve"], ["oracle", "--p", "3"], ["simulate", "--p", "2"]])
    def test_non_positive_max_iter_rejected_before_reading(self, tmp_path, capsys, argv, max_iter):
        # the instance does not exist: the limit is checked first
        code = main(argv + ["--instance", str(tmp_path / "missing.json"), "--max-iter", max_iter])
        assert code == 2
        assert capsys.readouterr().err == "error: max_iter must be positive\n"

    ROUTES = [
        ["solve", "--instance"],
        ["compare", "--reference", data_path("katrina_reference.csv"), "--candidate"],
        ["trace", "--psys"],
    ]

    @pytest.mark.parametrize("content, position", [
        (b"\xff\xfe{}", "1:1"),
        (b"k,l,value\n1,1,2\xe9\n", "2:6"),
    ])
    @pytest.mark.parametrize("route", ROUTES)
    def test_undecodable_file_is_positioned(self, tmp_path, capsys, route, content, position):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        assert main(route + [str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{position}: not UTF-8 text\n"

    @pytest.mark.parametrize("route", ROUTES)
    def test_missing_file_is_named(self, tmp_path, capsys, route):
        missing = tmp_path / "missing.txt"
        assert main(route + [str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {missing}: cannot read: No such file or directory\n"


class TestSimulateOracleAgreement:
    def test_same_q_tables(self, tmp_path):
        sim_out = tmp_path / "sim.json"
        ora_out = tmp_path / "ora.json"
        assert main(["simulate", "--instance", DERIVED, "--p", "3",
                     "--max-iter", "300", "--format", "json", "--out", str(sim_out)]) == 0
        assert main(["oracle", "--instance", DERIVED, "--p", "3",
                     "--max-iter", "300", "--format", "json", "--out", str(ora_out)]) == 0
        sim = json.loads(sim_out.read_text())["result"]
        ora = json.loads(ora_out.read_text())["result"]
        assert sim["q"] == ora["q"]
        assert sim["iterations"] == ora["iterations"]

    def test_simulation_cut_off_exits_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--instance", str(INSTANCES / "demo_2x2.json"), "--p", "2",
                     "--max-iter", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "simulation did not halt within 3 iterations\n"
        assert not out.exists()


class TestBuild:
    def test_emitted_system_parses(self, tmp_path, capsys):
        out = tmp_path / "system.psys"
        assert main(["build", "--instance", DERIVED, "--p", "2",
                     "--emit", str(out)]) == 0
        summary = capsys.readouterr().out
        parsed = dsl.parse(out.read_text())
        assert parsed.ok
        d = parsed.definition
        assert summary == (f"wrote {out}: {len(d.parent)} membranes, {len(d.rules)} rules, "
                           f"{len(d.priorities)} priority pairs\n")


class TestCompare:
    def test_case_study_statistics(self, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["compare"] + KATRINA + ["--format", "json", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert abs(result["average"] - 1.98) <= 0.01
        assert abs(result["median"] - 0.82) <= 0.01
        assert abs(result["max"] - 7.89) <= 0.01

    def test_dimension_mismatch_is_input_error(self, capsys):
        code = main(["compare",
                     "--candidate", data_path("example1_psystem.csv"),
                     "--reference", data_path("example2_reference.csv")])
        assert code == 2

    @pytest.mark.parametrize("side, table, line, value", [
        ("candidate", "k,l,value\n1,1,1\n1,2,inf\n", 3, "inf"),
        ("reference", "k,l,value\n1,1,nan\n1,2,2\n", 2, "nan"),
    ])
    def test_non_finite_cell_is_positioned_input_error(self, tmp_path, capsys, side, table,
                                                        line, value):
        paths = {name: tmp_path / f"{name}.csv" for name in ("candidate", "reference")}
        for name, path in paths.items():
            path.write_text(table if name == side else "k,l,value\n1,1,1\n1,2,2\n")
        out = tmp_path / "stats.json"
        code = main(["compare", "--candidate", str(paths["candidate"]),
                     "--reference", str(paths["reference"]), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[side]}:{line}:1: value '{value}' is not finite\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_percent_error_is_input_error(self, tmp_path, capsys, fmt):
        # both tables are finite, but |1e300 - 1e-300| / 1e-300 is not
        paths = {name: tmp_path / f"{name}.csv" for name in ("candidate", "reference")}
        paths["candidate"].write_text("k,l,value\n1,1,1e300\n1,2,2\n")
        paths["reference"].write_text("k,l,value\n1,1,1e-300\n1,2,2\n")
        out = tmp_path / "stats.out"
        code = main(["compare", "--candidate", str(paths["candidate"]),
                     "--reference", str(paths["reference"]), "--format", fmt, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: percent error of cell k=1, l=1 is not finite\n"
        assert not out.exists()

    def test_table_without_cells_is_positioned_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("k,l,value\n")
        code = main(["compare", "--candidate", str(empty),
                     "--reference", data_path("katrina_reference.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {empty}:1:1: table has no cells\n"


class TestTrace:
    def test_trace_psys_file(self, tmp_path):
        psys = tmp_path / "sys.psys"
        psys.write_text(
            "membrane 1\ninit 1: a^3 d\n"
            "rule r1: [a^2 -> b]'0 @ 1\nrule r2: [a -> c]'0 @ 1\nrule r3: [d -> e]'0 @ 1\n"
            "prio r1 > r2\n"
        )
        out = tmp_path / "trace.txt"
        assert main(["trace", "--psys", str(psys), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "step=1 membrane=1 rule=r1 count=1",
            "step=1 membrane=1 rule=r2 count=1",
            "step=1 membrane=1 rule=r3 count=1",
        ]

    def test_long_priority_chain_validates_and_runs(self, tmp_path):
        n = 5000
        psys = tmp_path / "chain.psys"
        psys.write_text("\n".join(
            ["membrane 1", "init 1: a^2"]
            + [f"rule r{i}: [a -> b]'0 @ 1" for i in range(n)]
            + [f"prio r{i} > r{i + 1}" for i in range(n - 1)]
        ) + "\n")
        out = tmp_path / "trace.txt"
        assert main(["trace", "--psys", str(psys), "--max-steps", "1", "--out", str(out)]) == 1
        assert out.read_text() == "step=1 membrane=1 rule=r0 count=2\n"

    @pytest.mark.parametrize("text, line", [
        ("membrane environment\ninit environment: a^2\nrule r: [a -> b]'0 @ environment\n", 1),
        ("membrane s\nmembrane environment in s\ninit environment: a^2\n"
         "rule r: [a]'0 -> c []'0 @ environment\n", 2),
    ])
    def test_membrane_named_environment_is_input_error(self, tmp_path, capsys, text, line):
        psys = tmp_path / "env.psys"
        psys.write_text(text)
        assert main(["trace", "--psys", str(psys), "--max-steps", "4"]) == 2
        assert capsys.readouterr().err == (
            f"{psys}:{line}:10: error: membrane label 'environment' is reserved for the environment\n")

    def test_trace_requires_some_input(self, capsys):
        assert main(["trace"]) == 2

    BOTH = "trace takes --psys FILE or --instance FILE, not both"
    P_ALONE = "trace takes --p only with --instance FILE"

    @pytest.mark.parametrize("flags, message", [
        (["--psys", "PSYS", "--instance", "/nonexistent.json", "--p", "7"], BOTH),
        (["--psys", "PSYS", "--instance", DERIVED], BOTH),
        (["--psys", "PSYS", "--p", "7"], P_ALONE),
        (["--p", "7"], P_ALONE),
    ], ids=["psys-instance-p", "psys-instance", "psys-p", "p"])
    def test_flags_that_would_be_ignored_are_rejected(self, tmp_path, capsys, flags, message):
        psys, out = tmp_path / "sys.psys", tmp_path / "trace.txt"
        psys.write_text("membrane 1\ninit 1: a\nrule r1: [a -> b]'0 @ 1\n")
        out.write_bytes(b"keep me\n")
        argv = ["trace", "--out", str(out)] + [str(psys) if f == "PSYS" else f for f in flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_bytes() == b"keep me\n"

    def test_non_positive_max_steps_leaves_out_file_alone(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        out.write_bytes(b"keep me\n")
        assert main(["trace", "--instance", DERIVED, "--p", "1",
                     "--max-steps", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: max_steps must be positive\n"
        assert out.read_bytes() == b"keep me\n"

    def test_trace_psys_diagnostic_exits_2(self, tmp_path, capsys):
        psys = tmp_path / "dup.psys"
        psys.write_text("membrane 1\nmembrane 1\n")
        assert main(["trace", "--psys", str(psys)]) == 2
        assert capsys.readouterr().err == f"{psys}:2:1: error: membrane '1' already declared\n"


def strict_json(text: str):
    """``json.loads`` that rejects the ``NaN`` and ``Infinity`` extensions
    (RFC 8259 has neither)."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestManifest:
    STAMP = "2000-01-01T00:00:00+00:00"
    DEMO = "instances/demo_2x2.json"

    # the settings each command takes; one it does not take is null
    @pytest.mark.parametrize("argv, manifest", [
        (["solve", "--instance", DEMO, "--tol", "1e-4", "--max-iter", "1000"],
         {"command": "solve", "instance_path": DEMO, "variant": "simplified", "p": None,
          "tol": 1e-4, "max_iter": 1000, "timestamp": STAMP}),
        (["oracle", "--instance", DEMO, "--p", "3"],
         {"command": "oracle", "instance_path": DEMO, "variant": "quantized", "p": 3,
          "tol": None, "max_iter": 100_000, "timestamp": STAMP}),
        (["simulate", "--instance", DEMO, "--p", "2", "--max-iter", "500"],
         {"command": "simulate", "instance_path": DEMO, "variant": "psystem", "p": 2,
          "tol": None, "max_iter": 500, "timestamp": STAMP}),
        (["compare"] + KATRINA,
         {"command": "compare", "instance_path": None, "variant": None, "p": None,
          "tol": None, "max_iter": None, "timestamp": STAMP}),
    ], ids=["solve", "oracle", "simulate", "compare"])
    def test_manifest_is_strict_json_of_the_settings(self, tmp_path, monkeypatch, argv, manifest):
        monkeypatch.chdir(INSTANCES.parent)
        for fmt in ("json", "csv"):
            out = tmp_path / f"export.{fmt}"
            assert main(argv + ["--format", fmt, "--timestamp", self.STAMP,
                                "--out", str(out)]) == 0
            text = out.read_text()
            if fmt == "json":
                doc = strict_json(text)
                assert doc["manifest"] == manifest
                assert set(doc) == ({"manifest", "result"} if argv[0] == "compare"
                                    else {"manifest", "result", "instance"})
            else:
                line = text.splitlines()[0]
                assert line.startswith("# manifest: ")
                assert strict_json(line.removeprefix("# manifest: ")) == manifest


class TestDeterminism:
    # sha256 of the --timestamp exports on demo_2x2, run from the repository
    # root so that the manifest's instance_path is the relative path
    @pytest.mark.parametrize("argv, fmt, digest", [
        (["solve"], "csv", "04bc5e0f7c9cf7811f967a2054b7053da22bad12dc4a9fbaea5f00b1590ea0c3"),
        (["solve"], "json", "45b07ee5c8b995e9e6962f80f8caa64334c79e924679473a7c026b3c54b4c603"),
        (["oracle", "--p", "3"], "csv", "5de3af0c262a5d0620e1860abf33ca90016a1f195ab391d60f347b5887e7dd31"),
        (["oracle", "--p", "3"], "json", "ee6add3ffe70332dedb76ff5bb29ca56a090b68f14a268b984031f7c79e02a34"),
        (["simulate", "--p", "2"], "csv", "16bb8eddf39be501f54fad60bfb740676eefacabd450ade0b2d0d2a060bc5a1d"),
        (["simulate", "--p", "2"], "json", "04bcb22a5650b7dd5439236b311c36f60fa6f2fbf59bdff36863e43f90e391c3"),
    ])
    def test_pinned_exports(self, tmp_path, monkeypatch, argv, fmt, digest):
        monkeypatch.chdir(INSTANCES.parent)
        out = tmp_path / f"export.{fmt}"
        assert main(argv + ["--instance", "instances/demo_2x2.json", "--format", fmt,
                            "--timestamp", "2000-01-01T00:00:00+00:00", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_same_manifest_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["solve", "--instance", DERIVED, "--timestamp", "2026-01-01T00:00:00",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_round_trip_lossless(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["solve", "--instance", DERIVED, "--timestamp", "t0",
                     "--out", str(out)]) == 0
        q = load_matrix_csv(out)
        code = main(["solve", "--instance", DERIVED, "--timestamp", "t0",
                     "--format", "json", "--out", str(tmp_path / "q.json")])
        assert code == 0
        ref = json.loads((tmp_path / "q.json").read_text())["result"]["q"]
        assert q.tolist() == ref
