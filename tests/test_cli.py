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

    def test_tol_is_checked_only_where_it_is_read(self, tmp_path, capsys):
        demo = str(INSTANCES / "demo_2x2.json")
        for variant in ("simplified", "full"):
            assert main(["solve", "--variant", variant, "--instance", demo, "--tol", "0"]) == 2
            assert capsys.readouterr().err == "error: tol must be positive\n"
        # the quantized iteration never reads tol
        assert main(["oracle", "--p", "3", "--instance", demo,
                     "--tol", "0", "--out", str(tmp_path / "q.csv")]) == 0

    def test_seed_is_trace_only(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--instance", DERIVED, "--p", "2", "--seed", "1"])
        assert exc.value.code == 2


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

    def test_ignored_solver_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--instance", DERIVED, "--p", "2",
                  "--emit", str(tmp_path / "system.psys"), "--tol", "1"])
        assert exc.value.code == 2


class TestCompare:
    def test_case_study_statistics(self, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["compare",
                     "--candidate", data_path("katrina_psystem.csv"),
                     "--reference", data_path("katrina_reference.csv"),
                     "--format", "json", "--out", str(out)])
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

    def test_trace_requires_some_input(self, capsys):
        assert main(["trace"]) == 2

    def test_trace_psys_diagnostic_exits_2(self, tmp_path, capsys):
        psys = tmp_path / "dup.psys"
        psys.write_text("membrane 1\nmembrane 1\n")
        assert main(["trace", "--psys", str(psys)]) == 2
        assert capsys.readouterr().err == f"{psys}:2:1: error: membrane '1' already declared\n"


class TestDeterminism:
    # sha256 of the --timestamp exports on demo_2x2, run from the repository
    # root so that the manifest's instance_path is the relative path
    @pytest.mark.parametrize("argv, fmt, digest", [
        (["solve"], "csv", "5573aae2c38871a9de09f70d823f5e7702d762b97427249e4b7c007fae2c4fc7"),
        (["solve"], "json", "bb8cad18335b4cc76893c64986136db6a2764a6caf7462891249bc75507a1110"),
        (["oracle", "--p", "3"], "csv", "f4a35f1de4e71098705cb381cbdd63d8f635b011693d93aaa839c43421fb4e97"),
        (["oracle", "--p", "3"], "json", "8ff2942b00cb66d7ab3feb26b9cdb5e97da17de382edf668545e2a42fe1848b4"),
        (["simulate", "--p", "2"], "csv", "be8eedae5152c5b9049a766733b3c09272746a6c0c2e6bafc83c0d94bf7f0e7c"),
        (["simulate", "--p", "2"], "json", "e38b75715494c0b7ed81265505a34906048001143d0bc543ada230df3111b6f8"),
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
