import csv
import json

import pytest

from rotsynth import __version__, faults, programs
from rotsynth.cli import main
from rotsynth.ir import Circuit, Gate, parse_circuit


@pytest.fixture
def ccz_program(tmp_path):
    path = tmp_path / "ccz.json"
    path.write_text(programs.program_text("ccz"))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestCompileCommand:
    def test_compile_writes_artifacts(self, tmp_path, ccz_program):
        out = tmp_path / "circuit.json"
        report = tmp_path / "report.json"
        diagram = tmp_path / "diagram.txt"
        code = run([
            "compile", "--in", ccz_program, "--out", out, "--report", report,
            "--diagram", diagram, "--budget", 1, "--seed", 1, "--measure-x", "3",
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["t_depth"] == 2
        assert payload["orderings_tried"] == payload["orderings_valid"] == 1
        assert payload["config"]["version"]
        circ = json.loads(out.read_text())
        assert circ["n"] == 4
        assert any(g["kind"] == "MeasX" for g in circ["gates"])
        assert "L0" in diagram.read_text()

    def test_missing_input(self, tmp_path):
        code = run(["compile", "--in", tmp_path / "nope.json", "--out", tmp_path / "o.json"])
        assert code == 1

    def test_partition_failure_exit_2(self, tmp_path, capsys):
        # infeasible, but no proof covers it: the budget runs out
        prog = tmp_path / "bad.json"
        prog.write_text(json.dumps({
            "n": 2,
            "rotations": [{"support": v, "k": 1} for v in ("10", "10", "10", "01")],
        }))
        capsys.readouterr()
        code = run(["compile", "--in", prog, "--out", tmp_path / "o.json", "--budget", 20])
        err = capsys.readouterr().err
        assert code == 2
        assert "no valid block partition among 20 sampled" in err and err.count("\n") == 1

    def test_no_partition_exists_exit_2(self, tmp_path, capsys):
        # an empty support: no budget can help, and the message says so
        prog = tmp_path / "empty.json"
        prog.write_text(json.dumps({"n": 3, "rotations": [{"support": "000", "k": 0}]}))
        capsys.readouterr()
        code = run(["compile", "--in", prog, "--out", tmp_path / "o.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no block partition exists" in err and err.count("\n") == 1

    def test_rank_deficient_exit_2(self, tmp_path, capsys):
        # four "11" supports span 1 of 2 dimensions: every block is singular
        prog = tmp_path / "rank1.json"
        prog.write_text(json.dumps({"n": 2, "rotations": [{"support": "11", "k": 1}] * 4}))
        capsys.readouterr()
        code = run(["compile", "--in", prog, "--out", tmp_path / "o.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no block partition exists: the 4 supports span 1 of 2" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o.json").exists()

    def test_measure_x_out_of_range_exit_1(self, tmp_path, ccz_program, capsys):
        out = tmp_path / "circuit.json"
        code = run([
            "compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "7",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("qubits", ["4", "-1", "3,3", "0,1,0", "a", "1,x", ","])
    def test_measure_x_rejected_before_search(self, tmp_path, ccz_program, capsys,
                                              monkeypatch, qubits):
        # a bad qubit list ends in exit 1 with one line, and the search never runs
        from rotsynth import cli

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "compile_program", no_search)
        out = tmp_path / "circuit.json"
        capsys.readouterr()
        code = run([
            "compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", qubits,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --measure-x") and err.count("\n") == 1
        assert not out.exists()

    def test_measure_x_checked_before_partition_failure(self, tmp_path, capsys):
        # no partition exists (exit 2), but the repeated qubit is found first
        prog = tmp_path / "rank1.json"
        prog.write_text(json.dumps({"n": 2, "rotations": [{"support": "11", "k": 1}] * 4}))
        capsys.readouterr()
        assert run(["compile", "--in", prog, "--out", tmp_path / "o.json",
                    "--measure-x", "1,1"]) == 1
        assert capsys.readouterr().err.startswith("error: --measure-x")

    def test_objective_flag_preserves_t_count(self, tmp_path, ccz_program):
        outs = []
        for objective in ("cnot-depth", "cnot-count"):
            out = tmp_path / f"{objective}.json"
            assert run([
                "compile", "--in", ccz_program, "--out", out,
                "--objective", objective, "--budget", 40, "--seed", 0,
            ]) == 0
            payload = json.loads(out.read_text())
            outs.append(sum(1 for g in payload["gates"] if g["kind"] in ("T", "PrepT")))
        assert outs[0] == outs[1] == 8


    def test_report_counts_valid_orderings(self, tmp_path, ccz_program):
        # ccz at seed 0: the program order and 199 shuffles, of which 164
        # cut into two invertible blocks
        report = tmp_path / "report.json"
        assert run([
            "compile", "--in", ccz_program, "--out", tmp_path / "c.json",
            "--report", report, "--budget", 200,
        ]) == 0
        payload = json.loads(report.read_text())
        assert (payload["orderings_valid"], payload["orderings_tried"]) == (164, 200)


class TestVerifyCommand:
    def test_compiled_vs_source_program(self, tmp_path, ccz_program):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1])
        assert run(["verify", "--a", out, "--b", ccz_program, "--oracle", "dense"]) == 0

    @pytest.mark.parametrize("n", [0, 2])
    def test_empty_program_verifies(self, tmp_path, n):
        # no rotations prepares |+>^n: n preparations, none on 0 qubits
        prog = tmp_path / "empty.json"
        prog.write_text(json.dumps({"n": n, "rotations": []}))
        out = tmp_path / "circuit.json"
        assert run(["compile", "--in", prog, "--out", out]) == 0
        assert parse_circuit(out.read_text()).gates == tuple(
            Gate("PrepPlus", (q,)) for q in range(n)
        )
        assert run(["verify", "--a", out, "--b", prog, "--oracle", "dense"]) == 0

    def test_circuit_vs_itself(self, tmp_path, ccz_program):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1])
        assert run(["verify", "--a", out, "--b", out, "--oracle", "dense"]) == 0

    def test_extra_z_not_equivalent(self, tmp_path, ccz_program):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1])
        payload = json.loads(out.read_text())
        payload["gates"].append({"kind": "Z", "qubits": [0]})
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert run(["verify", "--a", out, "--b", tampered, "--oracle", "dense"]) == 3

    def test_poly_oracle_on_programs(self, tmp_path, ccz_program):
        assert run(["verify", "--a", ccz_program, "--b", ccz_program, "--oracle", "poly"]) == 0

    @pytest.mark.parametrize("oracle", ["dense", "poly"])
    def test_different_widths_not_equivalent(self, tmp_path, oracle, capsys):
        # ccz has 4 qubits, t15 has 5: both oracles answer, neither raises
        a, b = tmp_path / "ccz.json", tmp_path / "t15.json"
        a.write_text(programs.program_text("ccz"))
        b.write_text(programs.program_text("t15"))
        assert run(["verify", "--a", a, "--b", b, "--oracle", oracle]) == 3
        assert capsys.readouterr().err == "NOT equivalent\n"

    def test_poly_oracle_suggests_dense_for_preps(self, tmp_path, ccz_program, capsys):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1])
        code = run(["verify", "--a", out, "--b", ccz_program, "--oracle", "poly"])
        assert code == 1
        assert "dense" in capsys.readouterr().err


class TestFaultsCommand:
    def test_pair_report(self, tmp_path, ccz_program, capsys):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "3"])
        report = tmp_path / "faults.json"
        code = run([
            "faults", "--circuit", out, "--outputs", "0,1,2",
            "--singles", "--pairs", "--out", report,
        ])
        assert code == 0
        assert "28 harmful of 28" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["pairs"]["harmful"] == 28
        assert payload["singles"]["detected"] == 8

    def test_harness_built_once(self, tmp_path, ccz_program, monkeypatch):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "3"])
        built = []
        init = faults.FaultHarness.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(faults.FaultHarness, "__init__", counting_init)
        report = tmp_path / "faults.json"
        assert run([
            "faults", "--circuit", out, "--outputs", "0,1,2", "--gadgetize", "--singles",
            "--sites", "all", "--pairs", "--first-order", "--tdecode", 2, "--out", report,
        ]) == 0
        assert len(built) == 1
        monkeypatch.undo()
        # the same tables as the enumerators give, each on its own harness
        payload = json.loads(report.read_text())
        circuit = faults.gadgetize(parse_circuit(out.read_text()))
        assert payload["singles"] == faults.FaultHarness(circuit, [0, 1, 2]).singles(
            "all", 2
        ).to_dict()
        assert payload["pairs"] == faults.enumerate_pair_faults(circuit, [0, 1, 2]).to_dict()
        assert payload["first_order"] == faults.first_order_oracle(
            circuit, [0, 1, 2], faults.NoiseModel(1e-4, 0.0, 2)
        ).to_dict()

    @pytest.mark.parametrize("tdecode", [1, 2])
    def test_singles_rounds_match_first_order(self, tmp_path, ccz_program, tdecode):
        # the CondS corrections follow the decode-idle rounds: one report
        # names every gate's round from one schedule
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "3"])
        report = tmp_path / "faults.json"
        assert run([
            "faults", "--circuit", out, "--outputs", "0,1,2", "--gadgetize", "--singles",
            "--sites", "all", "--first-order", "--tdecode", tdecode, "--out", report,
        ]) == 0
        payload = json.loads(report.read_text())
        label = {r["index"]: r["label"] for r in payload["first_order"]["rounds"]}
        gates = faults.gadgetize(parse_circuit(out.read_text())).gates
        singles = payload["singles"]["entries"]
        corrections = [e for e in singles if gates[e["gate_index"]].kind == "CondS"]
        assert corrections and all(label[e["round"]] == "correct" for e in corrections)
        round_of = {e["gate_index"]: e["round"] for e in singles}
        checked = 0
        for e in payload["first_order"]["faults"]["entries"]:
            if label[e["round"]] != "decode-idle" and e["gate_index"] in round_of:
                assert round_of[e["gate_index"]] == e["round"]
                checked += 1
        assert checked


class TestSweepCommand:
    def test_row_count(self, tmp_path, ccz_program):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "3"])
        csv_path = tmp_path / "sweep.csv"
        code = run([
            "sweep", "--circuit", out, "--outputs", "0,1,2", "--pl", "1e-4",
            "--r", "1,3,10", "--shots", "1e3", "--seed", 2, "--gadgetize",
            "--out", csv_path,
        ])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows

    def test_harness_built_once(self, tmp_path, ccz_program, monkeypatch):
        out = tmp_path / "circuit.json"
        run(["compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "3"])
        built = []
        init = faults.FaultHarness.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(faults.FaultHarness, "__init__", counting_init)
        csv_path = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--circuit", out, "--outputs", "0,1,2", "--pl", "1e-3,2e-3",
            "--r", "1,3", "--shots", "500", "--seed", 4, "--gadgetize", "--tdecode", 2,
            "--out", csv_path,
        ]) == 0
        assert len(built) == 1
        rows = list(csv.reader(csv_path.read_text().splitlines()))[1:]
        monkeypatch.undo()
        circuit = faults.gadgetize(parse_circuit(out.read_text()))
        want = []
        for p_l in (1e-3, 2e-3):
            for r in (1.0, 3.0):
                rep = faults.monte_carlo_infidelity(
                    circuit, [0, 1, 2], faults.NoiseModel.from_ratio(p_l, r, 2), 500, seed=4
                )
                want.append([str(x) for x in (p_l, r, 500, rep.accepted, rep.infidelity,
                                              rep.stderr)])
        assert rows == want


class TestGadgetizedT15:
    """15 qubits, at most 10 live at once: under the dense cap."""

    @pytest.fixture
    def t15_circuit(self, tmp_path):
        program = tmp_path / "t15.json"
        program.write_text(programs.program_text("t15"))
        out = tmp_path / "circuit.json"
        assert run([
            "compile", "--in", program, "--out", out, "--budget", 1, "--measure-x", "0,1,2,3",
        ]) == 0
        return out

    def test_singles(self, tmp_path, t15_circuit, capsys):
        report = tmp_path / "faults.json"
        assert run([
            "faults", "--circuit", t15_circuit, "--outputs", "4", "--gadgetize",
            "--singles", "--out", report,
        ]) == 0
        singles = json.loads(report.read_text())["singles"]
        assert singles["total"] == 15
        assert {e["pauli"] for e in singles["entries"]} == {"Z"}
        assert singles["harmful"] == 0
        assert "0 harmful" in capsys.readouterr().out

    def test_sweep(self, tmp_path, t15_circuit):
        csv_path = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--circuit", t15_circuit, "--outputs", "4", "--pl", "1e-3", "--r", "1",
            "--shots", "300", "--gadgetize", "--out", csv_path,
        ]) == 0
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert len(rows) == 2 and int(rows[1][3]) > 0


class TestLiveWidthCap:
    def test_thirteen_live_qubits_exit_1(self, tmp_path, capsys):
        # a CNOT chain keeps all 13 qubits live until the final measurement
        gates = [Gate("PrepPlus", (q,)) for q in range(13)]
        gates += [Gate("CNOT", (q, q + 1)) for q in range(12)]
        gates.append(Gate("MeasX", (12,), "d0"))
        path = tmp_path / "wide.json"
        path.write_text(Circuit(13, tuple(gates)).to_json())
        capsys.readouterr()
        assert run(["faults", "--circuit", path, "--outputs", "0", "--singles"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "13" in err
        assert err.count("\n") == 1


class TestErrorExits:
    """Bad values end in exit 1 with one line on stderr, not a traceback."""

    @pytest.fixture
    def ccz_circuit(self, tmp_path, ccz_program):
        out = tmp_path / "circuit.json"
        assert run([
            "compile", "--in", ccz_program, "--out", out, "--budget", 1, "--measure-x", "3",
        ]) == 0
        return out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--outputs", "0,1,2", "--pl", "1e-3", "--r", "1", "--shots", "0"],
            ["sweep", "--outputs", "0,1,2", "--pl", "abc", "--r", "1", "--shots", "10"],
            ["faults", "--outputs", "0,9", "--singles"],
            ["faults", "--outputs", "0", "--singles"],
            ["sweep", "--outputs", "0,1,2", "--pl", "1e-3", "--r", "1", "--shots", "10",
             "--seed", "-1"],
            ["sweep", "--outputs", "0,1,2", "--pl", "1e-3", "--r", "1", "--shots", "10",
             "--tdecode", "-1"],
            ["faults", "--outputs", "0,1,2", "--singles", "--tdecode", "-1"],
            ["sweep", "--outputs", "0,1,2", "--pl", ",", "--r", "1", "--shots", "10"],
            ["sweep", "--outputs", "0,1,2", "--pl", "1e-3", "--r", ",", "--shots", "10"],
            # one idle round per decode round is built: the bound comes first
            ["sweep", "--outputs", "0,1,2", "--pl", "1e-3", "--r", "1", "--shots", "10",
             "--tdecode", faults.MAX_T_DECODE + 1],
            ["faults", "--outputs", "0,1,2", "--gadgetize", "--singles",
             "--tdecode", faults.MAX_T_DECODE + 1],
            ["faults", "--outputs", "0,1,2", "--first-order", "--tdecode", faults.MAX_T_DECODE + 1],
        ],
        ids=["sweep-shots-0", "sweep-pl-abc", "faults-outputs-out-of-range",
             "faults-outputs-not-pure", "sweep-seed-negative", "sweep-tdecode-negative",
             "faults-tdecode-negative", "sweep-pl-empty", "sweep-r-empty",
             "sweep-tdecode-above-bound", "faults-singles-tdecode-above-bound",
             "faults-first-order-tdecode-above-bound"],
    )
    def test_exit_1(self, tmp_path, ccz_circuit, capsys, argv):
        capsys.readouterr()
        extra = ["--out", tmp_path / "out.csv"] if argv[0] == "sweep" else []
        assert run(argv[:1] + ["--circuit", ccz_circuit] + argv[1:] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--budget", "abc"],
            ["compile"],
            ["bogus"],
            ["compile", "--objective", "fast"],
        ],
        ids=["budget-not-int", "missing-in", "unknown-subcommand", "unknown-objective"],
    )
    def test_usage_exit_1(self, tmp_path, ccz_program, capsys, argv):
        # argparse's own errors: exit 1 and one line, not exit 2 (no
        # partition) and the usage text
        if argv != ["compile"]:
            argv = argv + ["--in", ccz_program]
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "o.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "o.json").exists()

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


class TestMalformedInput:
    """Malformed JSON payloads raise ParseError and exit 1 with one line."""

    @staticmethod
    def assert_exit_1(argv, capsys):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            [1, 2],
            {"n": 2.5, "gates": []},
            {"n": 2, "gates": [{"kind": "X", "qubits": [0.5]}]},
            {"n": 2, "gates": [{"kind": "CNOT", "qubits": [0, True]}]},
            {"n": 2, "gates": 5},
            {"n": 2, "rotations": 5},
            {"n": 1, "gates": [{"kind": "MeasZ", "qubits": [0], "record": [1]}]},
            {"n": 1, "gates": [{"kind": "MeasZ", "qubits": [0], "record": {"a": 1}}]},
            {"n": 1, "rotations": [{"support": "1", "k": True}]},
        ],
        ids=["number", "list", "n-float", "qubit-float", "qubit-bool", "gates-number",
             "rotations-number", "record-list", "record-object", "k-bool"],
    )
    def test_verify(self, tmp_path, ccz_program, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        self.assert_exit_1(["verify", "--a", bad, "--b", ccz_program], capsys)

    @pytest.mark.parametrize("command", ["faults", "sweep"])
    @pytest.mark.parametrize(
        "payload",
        [{"n": 2.5, "gates": []}, {"n": 2, "gates": [{"kind": "X", "qubits": [0.5]}]},
         {"n": 1, "gates": [{"kind": "MeasZ", "qubits": [0], "record": [1]}]}],
        ids=["n-float", "qubit-float", "record-list"],
    )
    def test_circuit_commands(self, tmp_path, capsys, command, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        extra = (
            ["--singles"] if command == "faults"
            else ["--pl", "1e-3", "--r", "1", "--shots", "10", "--out", tmp_path / "o.csv"]
        )
        self.assert_exit_1([command, "--circuit", bad, "--outputs", "0"] + extra, capsys)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_compile_budget_below_1(self, tmp_path, ccz_program, capsys, budget):
        out = tmp_path / "circuit.json"
        self.assert_exit_1(
            ["compile", "--in", ccz_program, "--out", out, "--budget", budget], capsys
        )
        assert not out.exists()

    def test_compile_seed_negative(self, tmp_path, ccz_program, capsys):
        out = tmp_path / "circuit.json"
        self.assert_exit_1(
            ["compile", "--in", ccz_program, "--out", out, "--budget", 40, "--seed", -5], capsys
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compile", "faults", "sweep"])
    def test_parse_error_from_main(self, tmp_path, capsys, command):
        # one handler in cli.main turns every ParseError into exit 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = {
            "compile": ["compile", "--in", bad, "--out", tmp_path / "o.json"],
            "faults": ["faults", "--circuit", bad, "--outputs", "0", "--singles"],
            "sweep": ["sweep", "--circuit", bad, "--outputs", "0", "--pl", "1e-3", "--r", "1",
                      "--shots", "10", "--out", tmp_path / "o.csv"],
        }[command]
        self.assert_exit_1(argv, capsys)


class TestCostCommand:
    def test_values(self, capsys):
        assert run(["cost", "--distance", "11"]) == 0
        assert "20328" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--rounds", "0"], ["--patches", "-1"], ["--factor", "0"], ["--distance", "0"],
         ["--distance", ","]],
    )
    def test_out_of_range_exit_1(self, capsys, flags):
        argv = ["cost", "--distance", "3"] + flags
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ratio_does_not_move_with_factor(self, capsys):
        # both costs scale with the qubits per patch, so their ratio does not
        ratios = set()
        for factor in (2, 3, 4):
            assert run(["cost", "--distance", "5", "--factor", factor]) == 0
            ratios.add(capsys.readouterr().out.splitlines()[-1].split()[-1])
        assert ratios == {"13.66"}

    def test_bad_later_distance_prints_no_rows(self, capsys):
        # the valid d=3 row must not reach stdout when d=0 fails after it
        assert run(["cost", "--distance", "3,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCostOverflow:
    """A cost that does not fit in a float ends in exit 1 with one line on
    stderr and nothing on stdout, not `inf` or a traceback."""

    @pytest.mark.parametrize(
        "flags",
        [["--distance", 10**103], ["--distance", f"3,{10**199}"], ["--rounds", 10**399]],
        ids=["distance-104-digits", "distance-200-digits", "rounds-400-digits"],
    )
    def test_exit_1(self, capsys, flags):
        assert run(["cost", "--distance", "3"] + flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_default_rows_unchanged(self, capsys):
        assert run(["cost", "--distance", "3,5,11,25"]) == 0
        assert capsys.readouterr().out == (
            "d  qubit-cycles  surgery-baseline  ratio\n"
            "3  1512  12393  8.20\n"
            "5  4200  57375  13.66\n"
            "11  20328  610929  30.05\n"
            "25  105000  7171875  68.30\n"
        )
