"""Hypothesis mutations of the bundled programs and their compiled circuits,
fed through `cli.main`: every run ends in exit 0, 1, 2 or 3, an error in
exactly one line on stderr, and never a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from rotsynth import programs
from rotsynth.cli import main
from rotsynth.compiler import compile_program
from rotsynth.ir import GATE_ARITY, with_x_detection

_NAMES = programs.NAMES
# the other side of `verify`: any bundled program or compiled circuit, so
# sides of different widths and kinds meet
_ARTIFACTS = [f"{name}.json" for name in _NAMES] + [f"{name}_circuit.json" for name in _NAMES]
_KINDS = sorted(GATE_ARITY) + ["Bogus"]
_RECORDS = ["det0", "det1", "inj0", "m", ""]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 16),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="01x", max_size=6),
    st.lists(st.integers(-1, 6), max_size=4),
    st.just({}),
)


def _paths(node, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replacement(draw, payload, path, value):
    """A plausible value for the entry at `path` (a gate kind of the same
    arity, a qubit of the circuit, a record that exists, a flipped support
    bit, an exponent in range), or now and then junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JUNK)
    key = path[-1]
    n = payload.get("n") if isinstance(payload, dict) else None
    n = n if isinstance(n, int) and not isinstance(n, bool) and n > 0 else 4
    if key == "kind":
        # an earlier edit may have left junk, maybe unhashable, in the field
        arity = GATE_ARITY.get(value) if isinstance(value, str) else None
        same = [k for k in _KINDS if GATE_ARITY.get(k) == arity]
        return draw(st.sampled_from(same or _KINDS))
    if key == "record":
        records = [g.get("record") for g in payload.get("gates", []) if isinstance(g, dict)]
        return draw(st.sampled_from([r for r in records if r] + _RECORDS))
    if key == "support" and isinstance(value, str) and value:
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + ("1" if value[i] == "0" else "0") + value[i + 1 :]
    if key == "k":
        return draw(st.integers(0, 7))
    if key == "n":
        return draw(st.integers(0, n + 3))
    if isinstance(value, int) and not isinstance(value, bool):  # a qubit index
        return draw(st.integers(0, n - 1))
    return draw(_JUNK)


@st.composite
def mutations(draw, base):
    """One to three edits of a JSON payload: replace a value (mostly with a
    plausible one); delete, duplicate or swap gates or rotations; add
    qubits; or rarely drop a field or replace the whole payload."""
    payload = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(payload, dict):
            break
        entries = payload.get("gates", payload.get("rotations"))
        entries = entries if isinstance(entries, list) and entries else None
        op = draw(st.sampled_from(
            ["replace", "replace", "replace", "delete", "duplicate", "swap", "grow", "rare"]
        ))
        if op in ("delete", "duplicate", "swap") and entries is not None:
            i = draw(st.integers(0, len(entries) - 1))
            j = draw(st.integers(0, len(entries) - 1))
            if op == "delete":
                del entries[i]
            elif op == "duplicate":
                entries.insert(i, copy.deepcopy(entries[i]))
            else:
                entries[i], entries[j] = entries[j], entries[i]
        elif op == "grow" and isinstance(payload.get("n"), int) and "gates" in payload:
            payload["n"] += draw(st.integers(1, 2))
        elif op == "rare":
            if draw(st.booleans()):
                payload = draw(_JUNK)
            else:
                del payload[draw(st.sampled_from(sorted(payload)))]
        else:
            paths = [path for path in _paths(payload) if path]
            if not paths:
                continue
            path = draw(st.sampled_from(paths))
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = _replacement(draw, payload, path, parent[path[-1]])
    return payload


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Bundled programs and their budget-1 circuits with X detection."""
    root = tmp_path_factory.mktemp("fuzz")
    for name in _NAMES:
        (root / f"{name}.json").write_text(programs.program_text(name))
        rep = compile_program(programs.load(name), budget=1)
        circuit = with_x_detection(rep.circuit, programs.DESIGNATIONS[name][1])
        (root / f"{name}_circuit.json").write_text(circuit.to_json())
    return root


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    text = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, text)
    assert "Traceback" not in text
    if code:
        assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
    return code


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(_NAMES), other=st.sampled_from(_ARTIFACTS), data=st.data())
def test_mutated_programs(workdir, name, other, data):
    base = json.loads((workdir / f"{name}.json").read_text())
    mutant = workdir / "mutant_program.json"
    mutant.write_text(json.dumps(data.draw(mutations(base))))
    _run(["compile", "--in", mutant, "--out", workdir / "out.json", "--budget", 1])
    for oracle in ("dense", "poly"):
        _run(["verify", "--a", mutant, "--b", workdir / other, "--oracle", oracle])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(_NAMES), qubits=st.one_of(
    st.lists(st.integers(-2, 6), max_size=5).map(lambda qs: ",".join(map(str, qs))),
    st.text(alphabet="0123,x -", max_size=6),
))
def test_measure_x_lists(workdir, name, qubits):
    # compile appends one MeasX per listed qubit, or rejects the list (exit
    # 1): a token that is no integer, no qubit at all, a qubit outside the
    # program, or one listed twice
    n = programs.load(name).n
    try:
        want = [int(x) for x in qubits.split(",") if x != ""]
    except ValueError:
        want = None
    accept = qubits == "" or (
        bool(want) and len(set(want)) == len(want) and all(0 <= q < n for q in want)
    )
    out = workdir / "measured.json"
    out.unlink(missing_ok=True)
    # "--flag=value" keeps a list that starts with "-" from reading as a flag
    code = _run(["compile", "--in", workdir / f"{name}.json", "--out", out, "--budget", 1,
                 f"--measure-x={qubits}"])
    assert code == (0 if accept else 1), (qubits, code)
    if accept:
        gates = json.loads(out.read_text())["gates"]
        assert [g["qubits"][0] for g in gates if g["kind"] == "MeasX"] == (want or [])
    else:
        assert not out.exists()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(_NAMES), other=st.sampled_from(_ARTIFACTS),
       gadgetize=st.booleans(), data=st.data())
def test_mutated_circuits(workdir, name, other, gadgetize, data):
    base = json.loads((workdir / f"{name}_circuit.json").read_text())
    mutant = workdir / "mutant_circuit.json"
    mutant.write_text(json.dumps(data.draw(mutations(base))))
    outputs = ",".join(map(str, programs.DESIGNATIONS[name][0]))
    for oracle in ("dense", "poly"):
        _run(["verify", "--a", mutant, "--b", workdir / other, "--oracle", oracle])
    # gadgetized first order on t15 takes seconds (up to 1024 branches per fault): singles only
    analyses = ["--singles"] if gadgetize else ["--singles", "--pairs", "--first-order"]
    _run(["faults", "--circuit", mutant, "--outputs", outputs, *analyses]
         + (["--gadgetize"] if gadgetize else []))
    _run(["sweep", "--circuit", mutant, "--outputs", outputs, "--pl", "1e-3", "--r", "1",
          "--shots", 20, "--out", workdir / "sweep.csv"]
         + (["--gadgetize"] if gadgetize else []))


@pytest.mark.parametrize(
    "shots, want",
    [("1.5", None), ("0.5", None), ("1e-3", None), ("inf", None), ("nan", None),
     ("1e400", None), ("2e3", 2000), ("7.0", 7), ("20", 20)],
)
def test_sweep_shot_count(workdir, shots, want):
    # a count with a fraction is refused, not truncated to fewer shots
    out = workdir / "shots.csv"
    out.unlink(missing_ok=True)
    outputs = ",".join(map(str, programs.DESIGNATIONS["ccz"][0]))
    argv = ["sweep", "--circuit", workdir / "ccz_circuit.json", "--outputs", outputs,
            "--pl", "1e-3", "--r", "1", "--shots", shots, "--out", out]
    _run(argv)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if want is None:
        assert code == 1 and err.getvalue().startswith("error: --shots")
        assert not out.exists()
    else:
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[2] == str(want)


def test_faults_unwritable_out(workdir):
    # the report is written before the summary: a missing directory leaves
    # stdout empty and one error line on stderr
    outputs = ",".join(map(str, programs.DESIGNATIONS["ccz"][0]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["faults", "--circuit", str(workdir / "ccz_circuit.json"), "--outputs", outputs,
                     "--gadgetize", "--pairs", "--out", str(workdir / "missing" / "f.json")])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
