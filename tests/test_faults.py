import os
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import event, given, settings, strategies as st
from oracles import (
    reference_deferred_exact,
    reference_exact,
    reference_monte_carlo,
    reference_sites,
    reference_trajectory,
    t_gadget_channel,
)

from rotsynth.ir import PREP_KINDS, T_LIKE_KINDS, Circuit, Gate
from rotsynth.compiler import compile_program
from rotsynth import programs
from rotsynth.ir import with_x_detection
from rotsynth import faults, semantics
from rotsynth.cli import main as cli_main
from rotsynth.semantics import _CHUNK_AMPLITUDES, SimulationError
from rotsynth.faults import (
    FaultAnalysisError,
    FaultHarness,
    NoiseModel,
    _fault_class,
    TGadgetChannel,
    build_schedule,
    channel_superoperator,
    enumerate_pair_faults,
    enumerate_single_faults,
    first_order_oracle,
    gadgetize,
    monte_carlo_infidelity,
    spacetime_cost,
    surgery_baseline_cost,
)


def compiled_ccz():
    rep = compile_program(programs.load("ccz"), budget=1)
    outputs, detectors = programs.DESIGNATIONS["ccz"]
    return with_x_detection(rep.circuit, detectors), list(outputs)


def compiled_t15():
    rep = compile_program(programs.load("t15"), budget=1)
    outputs, detectors = programs.DESIGNATIONS["t15"]
    return with_x_detection(rep.circuit, detectors), list(outputs)


def compiled_cs():
    rep = compile_program(programs.load("cs"), budget=1)
    outputs, detectors = programs.DESIGNATIONS["cs"]
    return with_x_detection(rep.circuit, detectors), list(outputs)


def fault_arrays(configs):
    """Fault configurations, each a list of (position, Pauli letter,
    qubit), as the four arrays (configuration, position, Pauli index into
    "XYZ", qubit) that `FaultHarness.run_exact` and `run_sampled` take."""
    flat = np.array(
        [(i, pos, "XYZ".index(pauli), qubit)
         for i, faults in enumerate(configs) for pos, pauli, qubit in faults],
        dtype=np.int64,
    )
    return tuple(flat.reshape(-1, 4).T)


def run_exact(harness, configs):
    """`FaultHarness.run_exact` on configurations given as in `fault_arrays`."""
    return harness.run_exact(fault_arrays(configs), len(configs))


def fault_classes(harness, configs):
    """(The first configuration of each class, the class of each
    configuration), as `run_exact` groups them."""
    return harness._classes(harness.kernel.frames(*fault_arrays(configs)), len(configs))


def t_sites(harness):
    """(position, qubit) of each T row of the harness's site table."""
    pos, qubit, _, kind = harness.sites(build_schedule(harness.circuit))
    t = kind != faults._DEPOLARIZING
    return list(zip(pos[t].tolist(), qubit[t].tolist()))


def depolarizing_sites(harness, rounds):
    """(round, insert position, qubit) of each depolarizing row of the
    harness's site table under the schedule `rounds`."""
    pos, qubit, rnd, kind = harness.sites(rounds)
    d = kind == faults._DEPOLARIZING
    return list(zip(rnd[d].tolist(), pos[d].tolist(), qubit[d].tolist()))


def run_one(harness, faults):
    """`run_exact` on a single fault configuration, as floats."""
    acc, infid = run_exact(harness, [faults])
    return float(acc[0]), float(infid[0])


def sampled(harness, faults, uniforms):
    """`run_sampled` on rows that draw every outcome, scattered back per
    row: (accepted, infidelity), a rejected row reading (False, 0)."""
    row, weight, infid = harness.run_sampled(faults, uniforms)
    assert len(np.unique(row)) == len(row) and (weight == 1.0).all()
    accepted = np.zeros(len(uniforms), dtype=bool)
    infidelity = np.zeros(len(uniforms))
    accepted[row] = True
    infidelity[row] = infid
    return accepted, infidelity


@pytest.fixture
def harnesses(monkeypatch):
    """Every `FaultHarness` built while the test runs, in order."""
    made = []
    init = FaultHarness.__init__

    def recorded(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FaultHarness, "__init__", recorded)
    return made


def tallied(harness, run):
    """(What `run()` returns, what it adds to each of `harness.counts`)."""
    before = dict(harness.counts)
    result = run()
    return result, {k: harness.counts[k] - before[k] for k in before}


class TestNoiseModel:
    def test_ratio(self):
        nm = NoiseModel.from_ratio(1e-4, 3.0, 1)
        assert nm.p_t == pytest.approx(3e-4)
        assert nm.r == pytest.approx(3.0)

    def test_probability_range(self):
        with pytest.raises(FaultAnalysisError):
            NoiseModel(0.7, 0.0)
        with pytest.raises(FaultAnalysisError):
            NoiseModel(0.1, -0.1)


class TestTGadgetChannel:
    def test_identity(self):
        ch = t_gadget_channel(0.0, 0.0, 0.0)
        assert ch == TGadgetChannel(1.0, 0.0, 0.0, 0.0)

    def test_pauli_mapping(self):
        ch = t_gadget_channel(0.01, 0.02, 0.03)
        assert ch.p_sdag == pytest.approx(0.01)
        assert ch.p_s == pytest.approx(0.02)
        assert ch.p_z == pytest.approx(0.03)
        assert ch.p_i == pytest.approx(0.94)

    def test_negative_rejected(self):
        with pytest.raises(FaultAnalysisError):
            t_gadget_channel(-0.1, 0.0, 0.0)

    def test_symmetric_phase_mixing_collapses_to_z(self):
        # mixing S and Sdag noise at equal rate q is the same channel as
        # adding q of plain Z noise
        q, pz = 0.07, 0.02
        mixed = TGadgetChannel(1 - 2 * q - pz, q, q, pz)
        plain = TGadgetChannel(1 - q - pz, 0.0, 0.0, q + pz)
        delta = channel_superoperator(mixed) - channel_superoperator(plain)
        assert np.max(np.abs(delta)) < 1e-12


class TestGadgetize:
    def test_structure(self):
        circ, _ = compiled_ccz()
        impl = gadgetize(circ)
        n_t = sum(1 for g in circ.gates if g.kind == "T")
        assert impl.n == circ.n + n_t
        assert sum(1 for g in impl.gates if g.kind == "T") == 0
        assert sum(1 for g in impl.gates if g.kind == "CondS") == n_t
        assert sum(1 for g in impl.gates if g.kind == "PrepT") == circ.t_count()

    def test_rejects_tdag(self):
        c = Circuit(1, (Gate("PrepPlus", (0,)), Gate("Tdag", (0,))))
        with pytest.raises(FaultAnalysisError):
            gadgetize(c)

    def test_parallel_layer_shares_rounds(self):
        circ, _ = compiled_ccz()
        impl = gadgetize(circ)
        sched = build_schedule(impl, t_decode=1)
        labels = [r.label for r in sched]
        assert labels.count("correct") == 1
        assert labels.count("decode-idle") == 1
        assert labels[0] == "prep"
        # 6 transversal CNOT rounds: depth-3 block, injection, depth-2 block
        assert labels.count("cnot") == 6


class TestSchedules:
    def test_decode_idles_inserted_before_correction(self):
        circ, _ = compiled_ccz()
        impl = gadgetize(circ)
        sched = build_schedule(impl, t_decode=3)
        labels = [r.label for r in sched]
        i = labels.index("correct")
        assert labels[i - 3 : i] == ["decode-idle"] * 3

    def test_measured_qubits_stop_accruing_noise(self):
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        schedule = build_schedule(harness.circuit)
        rounds = [r for r, _, _ in depolarizing_sites(harness, schedule)]
        assert rounds.count(1) == 8                     # all live after round 1
        assert rounds.count(len(schedule) - 1) == 3     # flag measured at the end

    def test_noise_only_on_qubits_in_use(self):
        # declared qubits that no gate or output uses add no site, however
        # many there are; an output that no gate touches keeps its noise
        circ, outputs = compiled_ccz()
        want = depolarizing_sites(FaultHarness(circ, outputs), build_schedule(circ, 1))
        wide = Circuit(200_000, circ.gates)
        harness = FaultHarness(wide, outputs)
        assert depolarizing_sites(harness, build_schedule(wide, 1)) == want
        # and no table of the harness or its kernel grows with the declared n
        tables = [
            t for t in (*vars(harness).values(), *vars(harness.kernel).values())
            if isinstance(t, (np.ndarray, list, tuple, dict))
        ]
        assert len(tables) > 10
        assert max(t.size if isinstance(t, np.ndarray) else len(t) for t in tables) < wide.n
        idle = Circuit(5, (Gate("PrepPlus", (4,)),) + circ.gates)
        schedule = build_schedule(idle, 1)
        sites = depolarizing_sites(FaultHarness(idle, outputs + [4]), schedule)
        # the extra preparation shifts every insert position by one
        assert [(r, pos - 1, q) for r, pos, q in sites if q != 4] == want
        assert [r for r, _, q in sites if q == 4] == list(range(1, len(schedule)))


    # (in-circuit T-like gates, |T> preparations): singles and pairs put a Z
    # site after both, Monte Carlo fires p_T only after the preparations
    t_rows = {
        "ccz": (4, 4), "ccz-g": (0, 8), "cs": (8, 4), "cs-g": (0, 12), "t15": (10, 5),
        "t15-g": (0, 15),
    }

    @pytest.mark.parametrize("name", list(t_rows))
    def test_site_table(self, name):
        # the T rows in gate order, then the depolarizing rows, against the
        # sites that `reference_sites` reads off the gate list and schedule
        circ, outputs = pinned_circuit(name)
        harness = FaultHarness(circ, outputs)
        for t_decode in range(3):
            schedule = build_schedule(circ, t_decode)
            table = harness.sites(schedule)
            assert table.dtype == np.int64 and table.shape[0] == 4
            pos, qubit, rnd, kind = table.tolist()
            t_gates = kind.count(faults._T_GATE)
            t_preps = kind.count(faults._T_PREP)
            assert (t_gates, t_preps) == self.t_rows[name]
            t = t_gates + t_preps
            assert kind[t:] == [faults._DEPOLARIZING] * (len(kind) - t)
            want = [(p, g.qubits[0]) for p, g in enumerate(circ.gates) if g.kind in T_LIKE_KINDS]
            assert list(zip(pos[:t], qubit[:t])) == want
            assert [schedule[r].gate_indices.count(p) for p, r in zip(pos[:t], rnd[:t])] == [1] * t
            preps, depolarizing = reference_sites(circ, outputs, schedule)
            assert [(p, q) for p, q, k in zip(pos, qubit, kind) if k == faults._T_PREP] == preps
            assert list(zip(rnd[t:], pos[t:], qubit[t:])) == depolarizing


class TestEnumeration:
    def test_ccz_singles_all_detected(self):
        circ, outputs = compiled_ccz()
        table = enumerate_single_faults(circ, outputs, sites="tprep")
        assert len(table.entries) == 8
        assert table.count("detected") == 8
        assert table.count("harmful") == 0

    def test_ccz_pairs(self):
        circ, outputs = compiled_ccz()
        pairs = enumerate_pair_faults(circ, outputs)
        assert pairs.total == 28
        assert pairs.harmful == 28

    def test_t15_distance_three(self):
        circ, outputs = compiled_t15()
        table = enumerate_single_faults(circ, outputs, sites="tprep")
        assert table.count("harmful") == 0
        pairs = enumerate_pair_faults(circ, outputs)
        assert pairs.total == 105
        assert pairs.harmful == 0

    def test_no_detection_makes_pairs_harmful(self):
        # the spectator flag detects nothing, so the Z pair on the two
        # rotation sites corrupts the output unchecked
        gates = (
            Gate("PrepPlus", (0,)),
            Gate("PrepPlus", (1,)),
            Gate("PrepPlus", (2,)),
            Gate("T", (0,)),
            Gate("T", (1,)),
            Gate("MeasX", (2,), "d0"),
        )
        circ = Circuit(3, gates)
        pairs = enumerate_pair_faults(circ, [0, 1])
        assert pairs.harmful == pairs.total == 1

    def test_fault_after_last_detection_is_harmful(self):
        circ, outputs = compiled_ccz()
        # Z on an output qubit inserted after the final gate: nothing
        # downstream can catch it
        table = enumerate_single_faults(circ, outputs, sites="all")
        on_outputs = [e for e in table.entries
                      if e.location.qubit in outputs and e.location.pauli == "Z"]
        last = max(on_outputs, key=lambda e: e.location.gate_index)
        assert last.classification == "harmful"


class TestFirstOrder:
    def test_detection_free_idle_coefficient(self):
        # k idle rounds on one undetected qubit: every Z is harmful with
        # infidelity 1 on |+>? no: Z|+> is orthogonal, X acts trivially,
        # Y flips like Z; coefficient = k * (0 + 1 + 1)/3
        k = 4
        gates = (
            Gate("PrepPlus", (0,)),
            Gate("PrepPlus", (1,)),
        ) + tuple(Gate("CNOT", (0, 1)) for _ in range(k)) + (
            Gate("MeasX", (1,), "d0"),
        )
        # CNOT on |+>|+> is trivial, so each round is effectively an idle;
        # qubit 1 is measured and postselected, qubit 0 is the output
        circ = Circuit(2, gates)
        fo = first_order_oracle(circ, [0], NoiseModel(1e-4, 0.0, 0))
        # per round: qubit 0: Z harmful (1), Y harmful (1), X harmless;
        # qubit 1: Z and Y flip the detector, X harmless
        assert fo.coefficient == pytest.approx(k * 2 / 3, abs=1e-9)

    def test_tdecode_increment_matches_idle_rate(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        c1 = first_order_oracle(impl, outputs, NoiseModel(1e-4, 0.0, 1))
        c2 = first_order_oracle(impl, outputs, NoiseModel(1e-4, 0.0, 2))
        assert c2.coefficient - c1.coefficient == pytest.approx(
            c1.idle_round_increment, abs=1e-9
        )

    def test_round_breakdown(self):
        # gadgetized ccz at t_decode = 1: four cnot rounds, the decode idle,
        # the correction and the last two cnot rounds
        circ, outputs = compiled_ccz()
        fo = first_order_oracle(gadgetize(circ), outputs, NoiseModel(1e-4, 0.0, 1))
        rounds = fo.to_dict()["rounds"]
        assert [r["index"] for r in rounds] == list(range(1, 9))
        labels = ["cnot"] * 4 + ["decode-idle", "correct", "cnot", "cnot"]
        assert [r["label"] for r in rounds] == labels
        values = [r["contribution"] for r in rounds]
        assert values == pytest.approx(
            [4 / 3, 1.75, 1.0, 1.0, 1.0, 1.0, 7 / 3, 2.75], rel=0, abs=1e-9
        )
        assert sum(values) == pytest.approx(fo.coefficient, rel=0, abs=1e-12)
        assert values[4] == pytest.approx(fo.idle_round_increment, rel=0, abs=1e-12)

    def test_ccz_coefficient_near_reported_value(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        fo = first_order_oracle(impl, outputs, NoiseModel(1e-4, 0.0, 1))
        assert abs(fo.coefficient - 11.25) / 11.25 < 0.15


def pinned_circuit(name):
    """A bundled circuit with its detection, gadgetized under a "-g" name."""
    circ, outputs = {"ccz": compiled_ccz, "cs": compiled_cs, "t15": compiled_t15}[
        name.removesuffix("-g")
    ]()
    return (gadgetize(circ) if name.endswith("-g") else circ), outputs


# (detected, harmless, harmful) of single faults by site class, and of pairs
PINNED_CLASS_COUNTS = {
    ("ccz", "tprep"): (8, 0, 0),
    ("ccz", "all"): (34, 15, 47),
    ("ccz", "pairs"): (0, 0, 28),
    ("ccz-g", "tprep"): (8, 0, 0),
    ("ccz-g", "all"): (42, 35, 55),
    ("ccz-g", "pairs"): (0, 0, 28),
    ("cs", "tprep"): (12, 0, 0),
    ("cs", "all"): (62, 20, 56),
    ("cs", "pairs"): (48, 0, 18),
    ("cs-g", "tprep"): (12, 0, 0),
    ("cs-g", "all"): (78, 60, 72),
    ("cs-g", "pairs"): (48, 0, 18),
    ("t15", "tprep"): (15, 0, 0),
    ("t15", "all"): (131, 82, 45),
    ("t15", "pairs"): (105, 0, 0),
    ("t15-g", "tprep"): (15, 0, 0),
    ("t15-g", "all"): (151, 142, 55),
    ("t15-g", "pairs"): (105, 0, 0),
}
# first-order coefficients at t_decode 0, 1 and 2
PINNED_FIRST_ORDER = {
    "ccz": (9.166666666666663, 9.166666666666663, 9.166666666666663),
    "ccz-g": (11.166666666666645, 12.166666666666643, 13.166666666666643),
    "cs": (6.4999999999999964, 6.4999999999999964, 6.4999999999999964),
    "cs-g": (9.749999999999991, 11.166666666666657, 12.583333333333323),
    "t15": (3.9375, 3.9375, 3.9375),
    "t15-g": (5.104166666666673, 5.687500000000007, 6.27083333333334),
}
# (circuit, r, shots) -> (accepted, faulty) at p_L 1e-3, t_decode 1, seed 3
PINNED_MONTE_CARLO = {
    ("ccz-g", 1, 100_000): (96958, 4842),
    ("ccz-g", 10, 30_000): (27237, 3379),
    ("cs-g", 1, 10_000): (9237, 1052),
    ("t15", 1, 40_000): (37768, 2829),
}


@pytest.mark.parametrize("name, sites", sorted(PINNED_CLASS_COUNTS))
def test_fault_classes_pinned(name, sites):
    # pins the exact analysis end to end, which the oracle comparisons check
    # only up to their tolerances
    circ, outputs = pinned_circuit(name)
    if sites == "pairs":
        got = enumerate_pair_faults(circ, outputs).to_dict()
    else:
        got = enumerate_single_faults(circ, outputs, sites=sites).to_dict()
    assert (got["detected"], got["harmless"], got["harmful"]) == PINNED_CLASS_COUNTS[name, sites]


@pytest.mark.parametrize("name", sorted(PINNED_FIRST_ORDER))
def test_first_order_pinned(name):
    circ, outputs = pinned_circuit(name)
    got = [
        first_order_oracle(circ, outputs, NoiseModel(1e-4, 0.0, t_decode)).coefficient
        for t_decode in range(3)
    ]
    assert got == pytest.approx(PINNED_FIRST_ORDER[name], rel=0, abs=1e-12)


@pytest.mark.parametrize("name, r, shots", sorted(PINNED_MONTE_CARLO))
def test_monte_carlo_pinned(name, r, shots):
    circ, outputs = pinned_circuit(name)
    rep = monte_carlo_infidelity(circ, outputs, NoiseModel.from_ratio(1e-3, r, 1), shots, seed=3)
    assert (rep.accepted, rep.faulty) == PINNED_MONTE_CARLO[name, r, shots]


class TestMonteCarlo:
    def test_noiseless(self):
        circ, outputs = compiled_ccz()
        rep = monte_carlo_infidelity(circ, outputs, NoiseModel(0.0, 0.0), 500, seed=0)
        assert rep.acceptance == 1.0
        assert rep.infidelity == 0.0
        assert rep.faulty == 0

    def test_faulty_counter(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        shots = 5000
        rep = monte_carlo_infidelity(impl, outputs, NoiseModel(1e-2, 1e-2, 1), shots, seed=4)
        assert 0 < rep.faulty < shots
        assert rep.accepted >= shots - rep.faulty
        assert rep.to_dict()["faulty"] == rep.faulty

    def test_determinism(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        nm = NoiseModel(1e-3, 1e-3, 1)
        a = monte_carlo_infidelity(impl, outputs, nm, 20000, seed=9)
        b = monte_carlo_infidelity(impl, outputs, nm, 20000, seed=9)
        assert a == b

    def test_acceptance_monotone_in_pt(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        acc = []
        for p_t in (0.01, 0.05, 0.12):
            rep = monte_carlo_infidelity(
                impl, outputs, NoiseModel(0.0, p_t), 20000, seed=2
            )
            acc.append(rep.acceptance)
        assert acc[0] > acc[1] > acc[2]

    def test_pair_dominated_regime(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        rep = monte_carlo_infidelity(
            impl, outputs, NoiseModel(0.0, 1e-2), 100000, seed=3
        )
        assert rep.infidelity == pytest.approx(28e-4, rel=0.25)

    def test_zero_accepted_flagged(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        # at p_t = 0.5 single shots are often rejected; find one such seed
        for seed in range(60):
            rep = monte_carlo_infidelity(
                impl, outputs, NoiseModel(0.0, 0.5), 1, seed=seed
            )
            if rep.accepted == 0:
                assert rep.undefined
                assert rep.infidelity is None
                break
        else:
            pytest.fail("no rejecting seed found")


class TestSparseSampler:
    """`_draw_batch` draws the masks and the Pauli picks as raw words and
    keeps only the fired sites. Against the literal calls whose values it
    reproduces, batch after batch from one seed: equal fired sites, picks,
    faulty shots and uniforms, and an equal generator state after every
    batch (PCG64 buffers the unused half of a raw word for the next 32-bit
    draw)."""

    @staticmethod
    def literal(rng, b, nm, n_prep, n_depol, n_meas):
        prep = rng.random((b, n_prep)) < nm.p_t
        depol = rng.random((b, n_depol)) < nm.p_l
        picks = rng.integers(0, 3, size=(b, n_depol))[depol]
        uniforms = rng.random((b, n_meas))
        faulty = np.flatnonzero(prep.any(axis=1) | depol.any(axis=1))
        return np.flatnonzero(prep), np.flatnonzero(depol), picks, faulty, uniforms[faulty]

    class Counted:
        """A generator that counts its `integers` calls."""

        def __init__(self, rng):
            self.rng, self.integers_calls = rng, 0
            self.bit_generator = rng.bit_generator

        def random(self, *args, **kwargs):
            return self.rng.random(*args, **kwargs)

        def integers(self, *args, **kwargs):
            self.integers_calls += 1
            return self.rng.integers(*args, **kwargs)

    def assert_batches(self, batches, nm, n_prep, n_depol, n_meas, seed=11, fallback=False):
        got_rng = self.Counted(np.random.default_rng(seed))
        want_rng = np.random.default_rng(seed)
        fired = 0
        for b in batches:
            got = faults._draw_batch(got_rng, b, nm, n_prep, n_depol, n_meas)
            want = self.literal(want_rng, b, nm, n_prep, n_depol, n_meas)
            for g, w in zip(got, want):
                assert g.shape == w.shape and (g == w).all()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            fired += len(got[1])
        # the picks come from `integers` only where a word is rejected
        assert (got_rng.integers_calls > 0) == (fallback and n_depol > 0)
        return fired

    @pytest.mark.parametrize("draw_rows", [2048, 5])
    def test_odd_words_carry_a_buffered_half(self, monkeypatch, draw_rows):
        # 7 x 43 words: odd, so a buffered half goes into the next batch,
        # which uses it for its first pick
        monkeypatch.setattr(faults, "_DRAW_ROWS", draw_rows)
        nm = NoiseModel(0.2, 0.1)
        assert self.assert_batches([7, 7, 8, 1, 7, 33], nm, 8, 43, 7) > 0

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_extreme_rates(self, monkeypatch, p):
        monkeypatch.setattr(faults, "_DRAW_ROWS", 6)
        fired = self.assert_batches([13, 9, 20], NoiseModel(p, p), 3, 11, 4)
        assert (fired == 0) == (p == 0.0)

    def test_no_preparation_sites(self):
        assert self.assert_batches([5, 3, 11], NoiseModel(0.3, 0.3), 0, 9, 3) > 0

    def test_no_sites_at_all(self):
        assert self.assert_batches([5, 4], NoiseModel(0.3, 0.3), 0, 0, 3) == 0

    def test_rejected_word_falls_back(self, monkeypatch):
        # a word of 0 (probability 2^-32 each) makes `integers` draw again;
        # then the batch's picks come from `integers` itself
        fallbacks = []

        def always(raw):
            fallbacks.append(len(raw))
            return True

        monkeypatch.setattr(faults, "_zero_word", always)
        monkeypatch.setattr(faults, "_DRAW_ROWS", 4)
        assert self.assert_batches([7, 9, 3], NoiseModel(0.2, 0.2), 2, 5, 3, fallback=True) > 0
        assert fallbacks

    def test_zero_word(self):
        low, high = np.uint64(0xFFFFFFFF), np.uint64(1 << 32)
        assert not faults._zero_word(np.array([low + high, high + np.uint64(1)]))
        assert faults._zero_word(np.array([low + high, high]))        # low half 0
        assert faults._zero_word(np.array([low, low + high]))         # high half 0
        # Lemire's method in `integers(0, 3)` rejects exactly the word 0
        words = np.array([1, 2, 3, 0x55555555, 0xAAAAAAAB, 0xFFFFFFFF], dtype=np.uint64)
        assert ((words * np.uint64(3)) % np.uint64(1 << 32) >= 1).all()

    def test_monte_carlo_with_odd_batches(self, monkeypatch):
        # whole runs across odd batches against the reference's literal draws
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        monkeypatch.setattr(faults, "_BATCH", 333)
        nm = NoiseModel(0.01, 0.02, 1)
        got = monte_carlo_infidelity(impl, outputs, nm, 1000, seed=8)
        want = reference_monte_carlo(impl, outputs, nm, 1000, seed=8)
        assert (got.accepted, got.faulty) == (want.accepted, want.faulty)
        assert got.infidelity == pytest.approx(want.infidelity, rel=1e-12, abs=1e-15)


class TestBatchedKernel:
    """The batched trajectory kernel against the one-trajectory reference in
    tests/oracles.py: same draws, so equal accepted counts, and estimates
    equal up to floating-point summation order."""

    @staticmethod
    def assert_same(got, want):
        assert got.accepted == want.accepted
        assert got.faulty == want.faulty
        assert got.infidelity == pytest.approx(want.infidelity, rel=1e-12, abs=1e-15)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "name, nm, shots",
        [
            ("ccz-g", NoiseModel.from_ratio(1e-3, 1, 1), 20000),
            ("ccz-g", NoiseModel.from_ratio(1e-3, 10, 1), 10000),
            ("cs-g", NoiseModel.from_ratio(1e-3, 1, 1), 2000),
            ("t15", NoiseModel.from_ratio(1e-3, 1, 1), 20000),
            ("ccz-g", NoiseModel(0.0, 0.5, 1), 1000),    # heavy rejection
            ("ccz-g", NoiseModel(0.05, 0.0, 0), 600),    # many X, Y, Z faults
        ],
    )
    def test_matches_reference(self, name, nm, shots):
        circ, outputs = {"ccz-g": compiled_ccz, "cs-g": compiled_cs, "t15": compiled_t15}[
            name
        ]()
        if name.endswith("-g"):
            circ = gadgetize(circ)
        got = monte_carlo_infidelity(circ, outputs, nm, shots, seed=17)
        want = reference_monte_carlo(circ, outputs, nm, shots, seed=17)
        assert want.accepted < shots and want.faulty > 0
        self.assert_same(got, want)

    def test_more_faulty_rows_than_one_chunk(self, monkeypatch):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        nm = NoiseModel(0.0, 0.5, 1)
        monkeypatch.setattr(faults, "_BATCH", 700)  # two batches, the second partial
        got = monte_carlo_infidelity(impl, outputs, nm, 1000, seed=3)
        want = reference_monte_carlo(impl, outputs, nm, 1000, seed=3)
        assert want.faulty > 2 * (_CHUNK_AMPLITUDES >> impl.n)
        self.assert_same(got, want)

    def test_fully_rejected_chunks(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        nm = NoiseModel(0.0, 0.5, 1)
        rejected = 0
        for seed in range(20):
            got = monte_carlo_infidelity(impl, outputs, nm, 1, seed=seed)
            want = reference_monte_carlo(impl, outputs, nm, 1, seed=seed)
            assert (got.accepted, got.faulty, got.undefined) == (
                want.accepted, want.faulty, want.undefined
            )
            if want.undefined:
                rejected += 1
            else:
                self.assert_same(got, want)
        assert rejected > 0

    def test_every_single_fault_per_trajectory(self):
        # one row per (depolarizing site, Pauli): Y faults everywhere, and
        # more rows than one 12-qubit chunk holds
        circ, outputs = compiled_cs()
        impl = gadgetize(circ)
        harness = FaultHarness(impl, outputs)
        sites = [
            (pos, pauli, q)
            for _, pos, q in depolarizing_sites(harness, build_schedule(impl, 1))
            for pauli in range(3)
        ]
        assert len(sites) > 2 * (_CHUNK_AMPLITUDES >> impl.n)
        rng = np.random.default_rng(5)
        uniforms = rng.random((len(sites), len(harness.meas_order)))
        rows = np.arange(len(sites))
        pos, pauli, qubit = (np.array(col) for col in zip(*sites))
        accepted, infidelity = sampled(harness, (rows, pos, pauli, qubit), uniforms)
        for row, (p, pa, q) in enumerate(sites):
            ok, infid = reference_trajectory(harness, {p: [("XYZ"[pa], q)]}, uniforms[row])
            assert accepted[row] == ok
            assert infidelity[row] == pytest.approx(infid, rel=1e-12, abs=1e-13)
        assert 0 < accepted.sum() < len(sites)


class TestSharedPrefix:
    """Rows share one state per outcome history up to their first stop, and
    `run_sampled` puts rows into chunks by their earliest stop. Neither may
    change a row's result."""

    @staticmethod
    def mc_batch(harness, p, shots, seed):
        """The faults and uniforms of the faulty shots of one Monte Carlo
        batch at p_L = p_T = p, as `run_sampled` takes them."""
        c = harness.circuit
        sites = reference_sites(c, harness.outputs, build_schedule(c, 1))
        prep_sites, depol_sites = (
            np.array(s, dtype=np.int64).reshape(-1, width) for s, width in zip(sites, (2, 3))
        )
        prep, depol, picks, faulty, uniforms = faults._draw_batch(
            np.random.default_rng(seed), shots, NoiseModel(p, p), len(prep_sites),
            len(depol_sites), len(harness.meas_order),
        )
        prep_shot, prep_col = np.divmod(prep, len(prep_sites))
        depol_shot, depol_col = np.divmod(depol, len(depol_sites))
        insertions = (
            faulty.searchsorted(np.concatenate([prep_shot, depol_shot])),
            np.concatenate([prep_sites[prep_col, 0], depol_sites[depol_col, 1]]),
            np.concatenate([np.full(len(prep), 2), picks]),
            np.concatenate([prep_sites[prep_col, 1], depol_sites[depol_col, 2]]),
        )
        return insertions, uniforms

    @pytest.mark.parametrize("name", ["ccz-g", "cs-g", "t15"])
    def test_row_order_changes_nothing(self, monkeypatch, name):
        circ, outputs = {"ccz-g": compiled_ccz, "cs-g": compiled_cs, "t15": compiled_t15}[
            name
        ]()
        if name.endswith("-g"):
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        monkeypatch.setattr(semantics, "_CHUNK_AMPLITUDES", 100 << harness.kernel.peak)
        (row, pos, pauli, qubit), uniforms = self.mc_batch(harness, 0.01, 3000, 5)
        assert len(uniforms) > 5 * harness.kernel.chunk_rows   # several chunks
        accepted, infidelity = sampled(harness, (row, pos, pauli, qubit), uniforms)
        perm = np.random.default_rng(1).permutation(len(uniforms))
        place = np.argsort(perm)   # the place of each row in the permuted batch
        got_accepted, got_infidelity = sampled(
            harness, (place[row], pos, pauli, qubit), uniforms[perm]
        )
        assert (got_accepted[place] == accepted).all()
        assert np.abs(got_infidelity[place] - infidelity).max() <= 1e-12
        assert 0 < accepted.sum() < len(uniforms)

    def test_stops_at_first_and_last_half_step(self):
        # gadgetized ccz behind a T on an extra output qubit, in |0>: an X or
        # Y before that T stops at half-step 0, and a Pauli after the last
        # gate at the last half-step; the kernel runs all rows in one chunk,
        # those that stop at a detector too
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        extra = impl.n
        c = Circuit(extra + 1, (Gate("T", (extra,)),) + impl.gates)
        harness = FaultHarness(c, outputs + [extra])
        end = len(c.gates) - 1
        sites = [(-1, 0, extra), (-1, 1, extra), (-1, 2, extra)]
        sites += [(end, pauli, q) for q in outputs + [extra] for pauli in range(3)]
        sites += [
            (pos, pauli, q) for pos, q in _fault_sites(c)[5::40] for pauli in range(3)
            if q != extra
        ]
        rows = np.arange(len(sites))
        pos, pauli, qubit = (np.array(col) for col in zip(*sites))
        frames = harness.kernel.frames(rows, pos, pauli, qubit)
        row, stop, x, z = frames
        last = 2 * len(c.gates)
        assert {0, last} <= set(stop.tolist()) and len(set(stop.tolist())) > 4
        assert len(sites) <= harness.kernel.chunk_rows
        uniforms = np.random.default_rng(4).random((len(sites), len(harness.meas_order)))
        alive, weight, states, _ = harness.kernel.run(uniforms, harness.reference, frames)
        assert (weight == 1.0).all()
        accepted = np.zeros(len(sites), dtype=bool)
        accepted[alive] = True
        infidelity = np.zeros(len(sites))
        infidelity[alive] = harness._infidelity(states)
        for r, (p, pa, q) in enumerate(sites):
            ok, infid = reference_trajectory(harness, {p: [("XYZ"[pa], q)]}, uniforms[r])
            assert accepted[r] == ok
            assert infidelity[r] == pytest.approx(infid, rel=1e-12, abs=1e-13)
        assert accepted[:2].all() and infidelity[:2] == pytest.approx(1.0)
        assert 0 < accepted.sum() < len(sites)
        # `run_sampled` decides the 5 rows whose first frame flips a detector
        # (the kernel rejected them) and runs the other 31 as one chunk
        decided = _decided_rows(harness, frames)
        assert len(decided) == 5 and not accepted[decided].any()
        (got_accepted, got_infidelity), counts = tallied(
            harness, lambda: sampled(harness, (rows, pos, pauli, qubit), uniforms)
        )
        assert counts == {
            "kernel_calls": 1, "trunk_runs": 0, "rows_decided": 5, "rows_forked": 0, "rows_run": 31,
        }
        assert (got_accepted == accepted).all()
        assert np.abs(got_infidelity - infidelity).max() <= 1e-12

    def test_one_state_per_history_before_the_stops(self, monkeypatch):
        # rows whose faults all stop at the end: every half-step acts on one
        # state per outcome history of the 4 injection measurements, not on
        # one per row, and each row still reads its own outcomes
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        assert len(harness.injection) == 4
        end = len(harness.circuit.gates) - 1
        rows = 200
        assert rows <= harness.kernel.chunk_rows
        widths = []
        apply_run = semantics.TrajectoryKernel._apply_run

        def counted(self, states, start, stop):
            widths.append(len(states))
            return apply_run(self, states, start, stop)

        monkeypatch.setattr(semantics.TrajectoryKernel, "_apply_run", counted)
        rng = np.random.default_rng(2)
        uniforms = rng.random((rows, len(harness.meas_order)))
        qubit = rng.choice(outputs, rows)
        pauli = rng.integers(0, 3, rows)
        accepted, infidelity = sampled(
            harness, (np.arange(rows), np.full(rows, end), pauli, qubit), uniforms
        )
        assert widths and max(widths) <= 16
        for row in range(rows):
            ok, infid = reference_trajectory(
                harness, {end: [("XYZ"[pauli[row]], qubit[row])]}, uniforms[row]
            )
            assert accepted[row] == ok
            assert infidelity[row] == pytest.approx(infid, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("name", ["ccz-g", "t15"])
    def test_exact_classes_in_one_chunk(self, name):
        # classes that stop early, late and not at all: those that flip a
        # detector are decided, the rest fork from one trunk in one chunk,
        # and the fault-free class reads the trunk
        circ, outputs = compiled_t15() if name == "t15" else compiled_ccz()
        if name == "ccz-g":
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        sites = _fault_sites(harness.circuit)
        end = len(harness.circuit.gates) - 1
        configs = [[]] + [[(end, "X", q)] for q in outputs]
        configs += [[(pos, pauli, q)] for pos, q in sites[::17] for pauli in "XYZ"]
        configs += [[(pos, "Z", q), (end, "Y", outputs[0])] for pos, q in sites[3::31]]
        classes = len(fault_classes(harness, configs)[0])
        decided, forked = {"ccz-g": (13, 27), "t15": (30, 27)}[name]
        assert decided + forked + 1 == classes
        (acc, infid), counts = tallied(harness, lambda: run_exact(harness, configs))
        assert counts == {
            "kernel_calls": 2, "trunk_runs": 1, "rows_decided": decided, "rows_forked": forked,
            "rows_run": 0,
        }
        for config, value in zip(configs, zip(acc, infid)):
            assert value == pytest.approx(reference_exact(harness, config), rel=0, abs=1e-12)


class TestPreparationRoundFaults:
    """Every row starts from |0...0>, with preparations as gathers. A fault
    inside round 0 goes in right after its gate, or just after its qubit's
    axis is made if no gate other than the preparation has touched it yet;
    a fault placed before its qubit's preparation has no effect."""

    gates = (
        Gate("PrepT", (0,)),
        Gate("X", (0,)),
        Gate("PrepT", (1,)),
        Gate("S", (1,)),
        Gate("PrepPlus", (2,)),   # erases the earlier faults on qubit 2
        Gate("CZ", (0, 1)),
        Gate("CNOT", (0, 2)),
        Gate("CNOT", (1, 2)),
        Gate("MeasX", (2,), "d0"),
    )

    def run_rows(self, harness, faults):
        """One row per (pos, pauli, qubit) fault, each checked against the
        one-trajectory reference."""
        uniforms = np.full((len(faults), 1), 0.5)
        pos, pauli, qubit = (np.array(col) for col in zip(*faults))
        accepted, infidelity = sampled(
            harness, (np.arange(len(faults)), pos, pauli, qubit), uniforms
        )
        prepared = {g.qubits[0]: i for i, g in enumerate(self.gates) if g.kind in PREP_KINDS}
        for row, (p, pa, q) in enumerate(faults):
            fault_map = {p: [("XYZ"[pa], q)]} if p >= prepared[q] else {}
            ok, infid = reference_trajectory(harness, fault_map, uniforms[row])
            assert accepted[row] == ok
            assert infidelity[row] == pytest.approx(infid, rel=1e-12, abs=1e-13)
        return accepted

    def test_matches_reference(self):
        harness = FaultHarness(Circuit(3, self.gates), [0, 1])
        faults = [(pos, 2, q) for pos in range(-1, len(self.gates)) for q in range(3)]
        accepted = self.run_rows(harness, faults)
        assert 0 < np.count_nonzero(accepted) < len(faults)

    def test_every_pauli_inside_round_0(self):
        harness = FaultHarness(Circuit(3, self.gates), [0, 1])
        round0 = build_schedule(harness.circuit)[0].gate_indices
        assert len(round0) == 6
        faults = [
            (pos, pauli, q) for pos in range(-1, len(round0)) for pauli in range(3)
            for q in range(3)
        ]
        accepted = self.run_rows(harness, faults)
        assert 0 < np.count_nonzero(accepted) < len(faults)


class TestExactKernel:
    """`run_exact` (one row per fault class that branches at every
    injection measurement, whole classes per kernel call) against the
    per-branch reference executor with the faults inserted as gates."""

    @staticmethod
    def assert_same(harness, faults, got):
        want = reference_exact(harness, faults)
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @classmethod
    def assert_all_same(cls, harness, configs):
        acc, infid = run_exact(harness, configs)
        assert len(acc) == len(infid) == len(configs)
        for faults, got in zip(configs, zip(acc, infid)):
            cls.assert_same(harness, faults, got)

    @pytest.mark.parametrize("name", ["ccz-g", "t15"])
    def test_all_singles(self, name):
        circ, outputs = compiled_t15() if name == "t15" else compiled_ccz()
        if name == "ccz-g":
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        table = enumerate_single_faults(circ, outputs, sites="all")
        assert len(table.entries) > 100
        for e in table.entries:
            loc = e.location
            self.assert_same(
                harness, [(loc.gate_index, loc.pauli, loc.qubit)], (e.acceptance, e.infidelity)
            )

    def test_ccz_pairs(self):
        circ, outputs = compiled_ccz()
        impl = gadgetize(circ)
        harness = FaultHarness(impl, outputs)
        sites = t_sites(harness)
        configs = [
            [(sites[a][0], "Z", sites[a][1]), (sites[b][0], "Z", sites[b][1])]
            for a in range(len(sites)) for b in range(a + 1, len(sites))
        ]
        assert len(configs) == 28
        self.assert_all_same(harness, configs)

    def test_cs_tprep_singles(self):
        circ, outputs = compiled_cs()
        impl = gadgetize(circ)
        harness = FaultHarness(impl, outputs)
        assert len(harness.injection) == 8   # 256 branches per configuration
        self.assert_all_same(harness, [[(pos, "Z", q)] for pos, q in t_sites(harness)])

    def test_mixed_sizes_in_one_call(self):
        # configurations of 0, 1, 2 and 3 faults side by side in one group
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        (p0, q0), (p1, q1), (p2, q2) = t_sites(harness)[:3]
        self.assert_all_same(harness, [
            [], [(p0, "Z", q0)], [(p0, "Z", q0), (p1, "X", q1)], [],
            [(p2, "Y", q2), (p0, "Z", q0), (p2, "Y", q2)], [(p1, "Z", q1)],
        ])

    @pytest.mark.parametrize("chunk_rows", [48, 4])
    def test_groups_split_mid_list(self, monkeypatch, chunk_rows):
        # gadgetized ccz: 16 branches per configuration on 8 live qubits, so
        # a 48-row chunk takes 3 configurations (100 of them end mid-group)
        # and a 4-row chunk one, whose branches outgrow it
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        assert (len(harness.injection), harness.kernel.peak) == (4, 8)
        sites = _fault_sites(harness.circuit)
        configs = [
            [(pos, pauli, q)] for pos, q in sites[:: len(sites) // 34] for pauli in "XYZ"
        ][:100]
        assert len(configs) == 100
        want = run_exact(harness, configs)
        monkeypatch.setattr(semantics, "_CHUNK_AMPLITUDES", chunk_rows << 8)
        got = run_exact(harness, configs)
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
        assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12)
        assert 0 < np.count_nonzero(want[0]) < len(configs)
        assert np.count_nonzero(want[1] > 1e-9) > 0

    def test_branches_outgrow_chunk(self, monkeypatch):
        # a 128-amplitude chunk holds half an 8-qubit state: every chunk
        # takes one row, whose 16 branches outgrow it, and each row that
        # forks from the trunk runs in a call of its own
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        monkeypatch.setattr(semantics, "_CHUNK_AMPLITUDES", 1 << 7)
        assert harness.kernel.chunk_rows == 1
        nothing = (np.zeros(0, dtype=np.int64),) * 4
        row, _, _ = harness.run_sampled(nothing, np.full((1, len(harness.meas_order)), np.nan))
        assert len(row) == 16
        (p0, q0), (p1, q1), (p2, q2) = t_sites(harness)[:3]
        configs = [
            [], [(p0, "Z", q0)], [(p0, "Z", q0), (p1, "X", q1)], [(p2, "Y", q2)],
            [(p1, "Z", q1), (p2, "Z", q2)],
        ]
        assert tallied(harness, lambda: self.assert_all_same(harness, configs))[1] == {
            "kernel_calls": 4, "trunk_runs": 1, "rows_decided": 1, "rows_forked": 3, "rows_run": 0,
        }


def _table_configs(table):
    """The fault configuration of each entry of a detection table."""
    return [[(e.location.gate_index, e.location.pauli, e.location.qubit)] for e in table.entries]


def _pair_configs(harness):
    """The configurations of `enumerate_pair_faults`, in its order."""
    sites = t_sites(harness)
    return [
        [(pos_a, "Z", qubit_a), (pos_b, "Z", qubit_b)]
        for a, (pos_a, qubit_a) in enumerate(sites)
        for pos_b, qubit_b in sites[a + 1 :]
    ]


class TestBatchedEnumeration:
    """The enumerators hand all their configurations to one `run_exact`
    call, which runs one row per fault class: decided at a detector, forked
    from the trunk, or the fault-free class that reads the trunk."""

    # per enumeration: (rows decided, rows forked, fault-free classes, tail
    # calls); its harness also walks one trunk for the noiseless reference
    # and one for the enumeration
    pinned = {
        "ccz-g": {"singles": (15, 57, 1, 1), "pairs": (0, 7, 0, 1), "first order": (12, 47, 0, 1)},
        "cs-g": {"singles": (22, 87, 1, 6), "pairs": (32, 10, 0, 1), "first order": (20, 76, 1, 5)},
        "t15": {"singles": (41, 71, 1, 1), "pairs": (70, 11, 0, 1), "first order": (37, 62, 1, 1)},
    }

    @pytest.mark.parametrize("name", ["ccz-g", "cs-g", "t15"])
    def test_kernel_calls_per_group(self, harnesses, name):
        circ, outputs = {"ccz-g": compiled_ccz, "cs-g": compiled_cs, "t15": compiled_t15}[
            name
        ]()
        if name.endswith("-g"):
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        nm = NoiseModel(1e-4, 0.0, 1)

        def pairs():
            configs = _pair_configs(harness)
            assert enumerate_pair_faults(circ, outputs).total == len(configs)
            return configs

        for label, run in (
            ("singles", lambda: _table_configs(enumerate_single_faults(circ, outputs, sites="all"))),
            ("pairs", pairs),
            ("first order", lambda: _table_configs(first_order_oracle(circ, outputs, nm).table)),
        ):
            harnesses.clear()
            configs = run()
            (made,) = harnesses   # each enumerator builds one harness
            classes = len(fault_classes(harness, configs)[0])
            decided, forked, clean, tails = self.pinned[name][label]
            assert decided + forked + clean == classes
            assert made.counts == {
                "kernel_calls": 2 + tails, "trunk_runs": 2, "rows_decided": decided,
                "rows_forked": forked, "rows_run": 0,
            }

    def test_one_t_site_has_no_pairs(self, harnesses):
        gates = (
            Gate("PrepPlus", (0,)),
            Gate("PrepPlus", (1,)),
            Gate("T", (0,)),
            Gate("MeasX", (1,), "d0"),
        )
        pairs = enumerate_pair_faults(Circuit(2, gates), [0])
        assert (pairs.total, pairs.harmful, pairs.detected, pairs.harmless) == (0, 0, 0, 0)
        # the harness's noiseless reference, and no pair
        (made,) = harnesses
        assert made.counts == {
            "kernel_calls": 1, "trunk_runs": 1, "rows_decided": 0, "rows_forked": 0, "rows_run": 0,
        }

    def test_no_t_sites_gives_empty_table(self):
        gates = (
            Gate("PrepPlus", (0,)),
            Gate("PrepPlus", (1,)),
            Gate("CNOT", (0, 1)),
            Gate("MeasX", (1,), "d0"),
        )
        table = enumerate_single_faults(Circuit(2, gates), [0])
        assert table.entries == []
        assert table.to_dict()["total"] == 0

    def test_empty_configuration_list(self):
        circ, outputs = compiled_ccz()
        acc, infid = run_exact(FaultHarness(circ, outputs), [])
        assert acc.shape == infid.shape == (0,)
        assert acc.dtype == infid.dtype == np.float64

    def test_every_class_decided_reads_float(self):
        # the 8 T-site Z faults of X-detected ccz each flip the detector, so
        # no row runs, and the values are still float64, as the table's are
        circ, outputs = compiled_ccz()
        harness = FaultHarness(circ, outputs)
        (acc, infid), counts = tallied(
            harness, lambda: run_exact(harness, [[(pos, "Z", q)] for pos, q in t_sites(harness)])
        )
        assert counts["rows_decided"] == 8 and counts["rows_forked"] == 0
        assert acc.dtype == infid.dtype == np.float64
        assert acc.tolist() == infid.tolist() == [0.0] * 8
        entries = enumerate_single_faults(circ, outputs).to_dict()["entries"]
        assert [type(e["acceptance"]) for e in entries] == [float] * 8


class TestFaultClasses:
    """`run_exact` runs one row per class of configurations with equal Pauli
    frames. For every enumeration on the bundled circuits and their
    gadgetized forms: its classification counts, the same as with one row
    per configuration; its number of classes; and the values of each
    class's first member and of one random member against the per-position
    reference. Gadgetized cs and t15 outgrow `reference_exact` (256 branches
    of 12 qubits, and 15 qubits), so they use `reference_deferred_exact`."""

    # (detected, harmless, harmful) of each enumeration, and its number of
    # classes; first order at t_decode 0, 1 and 2
    expected = {
        "ccz": {
            "tprep": ((8, 0, 0), 8), "all": ((34, 15, 47), 53), "pairs": ((0, 0, 28), 7),
            "fo0": ((16, 2, 39), 37), "fo1": ((16, 2, 39), 37), "fo2": ((16, 2, 39), 37),
        },
        "ccz-g": {
            "tprep": ((8, 0, 0), 8), "all": ((42, 35, 55), 73), "pairs": ((0, 0, 28), 7),
            "fo0": ((36, 26, 55), 59), "fo1": ((40, 26, 63), 59), "fo2": ((44, 26, 71), 59),
        },
        "cs": {
            "tprep": ((12, 0, 0), 12), "all": ((62, 20, 56), 70), "pairs": ((48, 0, 18), 42),
            "fo0": ((43, 10, 37), 56), "fo1": ((43, 10, 37), 56), "fo2": ((43, 10, 37), 56),
        },
        "cs-g": {
            "tprep": ((12, 0, 0), 12), "all": ((78, 60, 72), 110), "pairs": ((48, 0, 18), 42),
            "fo0": ((109, 99, 74), 97), "fo1": ((121, 107, 90), 97),
            "fo2": ((133, 115, 106), 97),
        },
        "t15": {
            "tprep": ((15, 0, 0), 15), "all": ((131, 82, 45), 113), "pairs": ((105, 0, 0), 81),
            "fo0": ((119, 58, 36), 100), "fo1": ((119, 58, 36), 100),
            "fo2": ((119, 58, 36), 100),
        },
        "t15-g": {
            "tprep": ((15, 0, 0), 15), "all": ((151, 142, 55), 163),
            "fo0": ((218, 255, 55), 152),
        },
    }

    @staticmethod
    def enumerate(label, circ, outputs, harness):
        """(configurations, acceptance, infidelity) of one enumeration."""
        if label == "pairs":
            configs = _pair_configs(harness)
            acc, infid = run_exact(harness, configs)
            summary = enumerate_pair_faults(circ, outputs)
            counts = np.bincount(_fault_class(acc, infid), minlength=3).tolist()
            assert counts == [summary.detected, summary.harmless, summary.harmful]
            return configs, acc, infid
        if label.startswith("fo"):
            table = first_order_oracle(circ, outputs, NoiseModel(1e-4, 0.0, int(label[2:]))).table
        else:
            table = enumerate_single_faults(circ, outputs, sites=label)
        acc = np.array([e.acceptance for e in table.entries])
        infid = np.array([e.infidelity for e in table.entries])
        return _table_configs(table), acc, infid

    @pytest.mark.parametrize("name", list(expected))
    def test_classes_against_reference(self, name):
        base, gadgetized = name.split("-g")[0], name.endswith("-g")
        circ, outputs = {"ccz": compiled_ccz, "cs": compiled_cs, "t15": compiled_t15}[base]()
        if gadgetized:
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        reference = reference_deferred_exact if name in ("cs-g", "t15-g") else reference_exact
        known: dict[tuple, tuple[float, float]] = {}
        rng = np.random.default_rng(len(name))
        for label, (counts, classes) in self.expected[name].items():
            configs, acc, infid = self.enumerate(label, circ, outputs, harness)
            assert tuple(np.bincount(_fault_class(acc, infid), minlength=3)) == counts
            first, klass = fault_classes(harness, configs)
            assert len(first) == classes and (klass[first] == np.arange(classes)).all()
            members = [rng.choice(np.flatnonzero(klass == k)) for k in range(classes)]
            for i in {*first.tolist(), *members}:
                key = tuple(configs[i])
                if key not in known:
                    known[key] = reference(harness, configs[i])
                assert (acc[i], infid[i]) == pytest.approx(known[key], rel=0, abs=1e-14)

    @pytest.mark.parametrize("name", ["ccz-g", "cs-g"])
    def test_deferred_reference(self, name):
        # the deferred-measurement reference against the per-branch one: on
        # gadgetized ccz every Pauli after every gate, on gadgetized cs
        # (1 s per branch enumeration) Z on each T site
        circ, outputs = compiled_ccz() if name == "ccz-g" else compiled_cs()
        harness = FaultHarness(gadgetize(circ), outputs)
        if name == "ccz-g":
            configs = [
                [(pos, pauli, q)]
                for pos, g in enumerate(harness.circuit.gates) for q in g.qubits
                for pauli in "XYZ"
            ]
        else:
            configs = [[(pos, "Z", q)] for pos, q in t_sites(harness)]
        for faults in configs:
            assert reference_deferred_exact(harness, faults) == pytest.approx(
                reference_exact(harness, faults), rel=0, abs=1e-14
            )


def test_exact_analysis_imports_no_sampling_modules():
    # the exact enumerators and a measurement-free dense simulation, in a
    # fresh interpreter, import neither numpy.ma nor numpy.random beyond what
    # a bare `import numpy` loads (numpy 1.x loads both, 2.x neither)
    code = "\n".join([
        "import sys",
        "import numpy",
        "sampling = ('numpy.ma', 'numpy.random')",
        "loaded = {m for m in sampling if m in sys.modules}",
        "from rotsynth import programs",
        "from rotsynth.compiler import compile_program",
        "from rotsynth.faults import (NoiseModel, enumerate_pair_faults,",
        "    enumerate_single_faults, first_order_oracle, gadgetize)",
        "from rotsynth.ir import Circuit, Gate, with_x_detection",
        "from rotsynth.semantics import simulate",
        "outputs, detectors = programs.DESIGNATIONS['ccz']",
        "circ = compile_program(programs.load('ccz'), budget=1).circuit",
        "circ = gadgetize(with_x_detection(circ, detectors))",
        "enumerate_single_faults(circ, list(outputs), sites='all')",
        "enumerate_pair_faults(circ, list(outputs))",
        "first_order_oracle(circ, list(outputs), NoiseModel(1e-4, 0.0, 1))",
        "simulate(Circuit(2, (Gate('PrepPlus', (0,)), Gate('CNOT', (0, 1)))))",
        "print(sorted(m for m in sampling if m in sys.modules and m not in loaded))",
    ])
    src = os.path.dirname(os.path.dirname(semantics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["[]"]


def test_monte_carlo_imports_no_masked_arrays():
    # a Monte Carlo run, in a fresh interpreter, loads numpy.random, which it
    # draws from, and no numpy.ma beyond what a bare `import numpy` loads
    # (numpy 1.x loads it with numpy itself)
    code = "\n".join([
        "import sys",
        "import numpy",
        "loaded = 'numpy.ma' in sys.modules",
        "from rotsynth import programs",
        "from rotsynth.compiler import compile_program",
        "from rotsynth.faults import NoiseModel, gadgetize, monte_carlo_infidelity",
        "from rotsynth.ir import with_x_detection",
        "outputs, detectors = programs.DESIGNATIONS['ccz']",
        "circ = compile_program(programs.load('ccz'), budget=1).circuit",
        "circ = gadgetize(with_x_detection(circ, detectors))",
        "rep = monte_carlo_infidelity(circ, list(outputs), NoiseModel(1e-2, 1e-2, 1), 3000, seed=1)",
        "assert rep.faulty > 0",
        "print('numpy.random' in sys.modules, loaded or 'numpy.ma' not in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(semantics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["True", "True"]


def _fault_sites(c: Circuit) -> list[tuple[int, int]]:
    """(position, qubit) pairs where a fault does not precede the qubit's
    preparation; position -1 is before the first gate."""
    prepared = {g.qubits[0]: i for i, g in enumerate(c.gates) if g.kind in PREP_KINDS}
    return [
        (pos, q) for pos in range(-1, len(c.gates)) for q in range(c.n)
        if prepared.get(q, -1) <= pos
    ]


@pytest.fixture(scope="module")
def exact_harnesses():
    ccz, ccz_out = compiled_ccz()
    t15, t15_out = compiled_t15()
    return {"ccz-g": FaultHarness(gadgetize(ccz), ccz_out), "t15": FaultHarness(t15, t15_out)}


def _decided_rows(harness, frames):
    """The rows, ascending, that `run_sampled` decides at a detector without
    a run, by their frames as `TrajectoryKernel.frames` returns them."""
    row, stop, x, z = frames
    first = np.ones(len(row), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    return row[first][harness._decided(stop[first], x[first], z[first])]


def _detector_flips(harness):
    """A fault right before each detection measurement that flips it."""
    return [
        (pos - 1, "Z" if g.kind == "MeasX" else "X", g.qubits[0])
        for pos, g in enumerate(harness.circuit.gates) if g.record in harness.reference
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(["ccz-g", "t15"]), data=st.data())
def test_random_faults_match_reference(exact_harnesses, name, data):
    # a draw may add a fault that flips a detector, so that rows decided at
    # a detector, and rows whose frames cancel there, are drawn too
    harness = exact_harnesses[name]
    sites = _fault_sites(harness.circuit)
    faults = [
        (pos, pauli, q)
        for (pos, q), pauli in data.draw(
            st.lists(
                st.tuples(st.sampled_from(sites), st.sampled_from("XYZ")),
                min_size=1, max_size=3,
            )
        )
    ]
    faults += data.draw(st.lists(st.sampled_from(_detector_flips(harness)), max_size=1))
    decided = len(_decided_rows(harness, harness.kernel.frames(*fault_arrays([faults]))))
    event(f"decided at a detector: {bool(decided)}")
    got, counts = tallied(harness, lambda: run_one(harness, faults))
    assert counts["rows_decided"] == decided
    assert got == pytest.approx(reference_exact(harness, faults), rel=0, abs=1e-12)


class TestDecidedRows:
    """A row whose first frame flips a certain detection outcome is decided
    without a kernel run. The kernel itself keeps no branch of any such
    row, with every outcome branched and with drawn outcomes."""

    @staticmethod
    def enumerations(circ, outputs, harness):
        """(label, configurations) of singles on every site, Z pairs on the
        T sites, and first order at t_decode 0, 1 and 2."""
        yield "singles", _table_configs(enumerate_single_faults(circ, outputs, sites="all"))
        yield "pairs", _pair_configs(harness)
        for t_decode in range(3):
            nm = NoiseModel(1e-4, 0.0, t_decode)
            yield f"fo{t_decode}", _table_configs(first_order_oracle(circ, outputs, nm).table)

    @pytest.mark.parametrize("name", ["ccz", "ccz-g", "cs", "cs-g", "t15", "t15-g"])
    def test_kernel_keeps_no_branch(self, name):
        base = name.split("-g")[0]
        circ, outputs = {"ccz": compiled_ccz, "cs": compiled_cs, "t15": compiled_t15}[base]()
        if name.endswith("-g"):
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        kernel = harness.kernel
        rng = np.random.default_rng(len(name))
        total = 0
        for label, configs in self.enumerations(circ, outputs, harness):
            frames = kernel.frames(*fault_arrays(configs))
            first, klass = fault_classes(harness, configs)
            decided = _decided_rows(harness, frames)
            # one row per decided class, renumbered in order
            rows = np.unique(first[klass[decided]])
            total += len(rows)
            on = np.isin(frames[0], rows)
            sub = (rows.searchsorted(frames[0][on]), *(a[on] for a in frames[1:]))
            drawn = rng.random((len(rows), len(harness.meas_order)))
            assert len(kernel.run(drawn, harness.reference, sub)[0]) == 0, label
            step = max(1, kernel.chunk_rows >> len(harness.injection))
            for lo in range(0, len(rows), step):
                hi = min(lo + step, len(rows))
                a, b = sub[0].searchsorted((lo, hi))
                alive, _, _, _ = kernel.run(
                    np.full((hi - lo, len(harness.meas_order)), np.nan), harness.reference,
                    (sub[0][a:b] - lo, *(f[a:b] for f in sub[1:])),
                )
                assert len(alive) == 0, label
        assert total > 0

    def test_frames_that_cancel_at_a_detector_run(self):
        # two Z faults on T sites of gadgetized ccz: each one's frame stops
        # at the detection MeasX and flips it, so each alone is decided; the
        # two frames cancel there, so the pair runs (and is harmful)
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        pair = _pair_configs(harness)[0]
        configs = [[pair[0]], [pair[1]], pair]
        frames = harness.kernel.frames(*fault_arrays(configs))
        row, stop = frames[:2]
        (det,) = [2 * pos for pos, g in enumerate(harness.circuit.gates) if g.record == "det0"]
        assert stop[row == 0].min() == stop[row == 1].min() == det
        assert _decided_rows(harness, frames).tolist() == [0, 1]
        (acc, infid), counts = tallied(harness, lambda: run_exact(harness, configs))
        assert counts == {
            "kernel_calls": 2, "trunk_runs": 1, "rows_decided": 2, "rows_forked": 1, "rows_run": 0,
        }
        assert acc[:2].tolist() == infid[:2].tolist() == [0.0, 0.0]
        assert (acc[2], infid[2]) == pytest.approx(reference_exact(harness, pair), rel=0, abs=1e-12)
        assert _fault_class(acc[2], infid[2]) == 2   # harmful

    @pytest.mark.parametrize("eps", [1e-20, 1e-12])
    def test_outcome_not_certain_to_the_drop_threshold(self, monkeypatch, eps):
        # a detector prepared as sqrt(1 - eps)|0> + sqrt(eps)|1>: the
        # noiseless check tolerates eps, and an X before its MeasZ leaves
        # the reference outcome probability eps. At 1e-12 the kernel keeps
        # that branch, so the row must run; at 1e-20 it is decided.
        amps = dict(semantics.PREP_AMPLITUDES, PrepZero=(np.sqrt(1.0 - eps), np.sqrt(eps)))
        monkeypatch.setattr(semantics, "PREP_AMPLITUDES", amps)
        circ = Circuit(2, (
            Gate("PrepT", (0,)), Gate("PrepZero", (1,)), Gate("MeasZ", (1,), "d"),
        ))
        harness = FaultHarness(circ, [0])
        configs = [[(1, "X", 1)]]
        _, weight, _, _ = harness.kernel.run(
            np.full((1, 1), np.nan), harness.reference,
            harness.kernel.frames(*fault_arrays(configs)),
        )
        (acc, infid), counts = tallied(harness, lambda: run_exact(harness, configs))
        assert counts["rows_decided"] == (eps < 1e-14)
        assert acc[0] == weight.sum() and acc[0] == pytest.approx(eps if eps > 1e-14 else 0.0)
        assert infid[0] == pytest.approx(0.0, abs=1e-12)


class TestTrunk:
    """Exact rows fork from the fault-free branch tree of one NaN row (the
    trunk), several stops per kernel call, within the chunk's amplitudes."""

    # budgets at which some chunks take several rows: a trunk with more
    # branches leaves fewer rows per chunk
    @pytest.mark.parametrize(
        "name, budget", [("ccz-g", 1 << 12), ("cs-g", 1 << 14), ("t15-g", 1 << 16)]
    )
    def test_chunks_stay_within_amplitudes(self, monkeypatch, name, budget):
        circ, outputs = {"ccz-g": compiled_ccz, "cs-g": compiled_cs, "t15-g": compiled_t15}[name]()
        harness = FaultHarness(gadgetize(circ), outputs)
        monkeypatch.setattr(semantics, "_CHUNK_AMPLITUDES", budget)
        rows, seen = [0], []
        run, apply_run = semantics.TrajectoryKernel.run, semantics.TrajectoryKernel._apply_run

        def tail(self, uniforms, postselect=None, frames=semantics._NO_FRAMES, start=None, *args):
            if start is not None:
                rows[0] = len(uniforms)
            try:
                return run(self, uniforms, postselect, frames, start, *args)
            finally:
                rows[0] = 0

        def applied(self, states, first, last):
            out = apply_run(self, states, first, last)
            if rows[0] > 1:   # a chunk of one row may outgrow the budget
                seen.append(out.size)
            return out

        monkeypatch.setattr(semantics.TrajectoryKernel, "run", tail)
        monkeypatch.setattr(semantics.TrajectoryKernel, "_apply_run", applied)
        configs = [
            [(pos, pauli, q)]
            for _, pos, q in depolarizing_sites(harness, build_schedule(harness.circuit, 1))
            for pauli in "XYZ"
        ]
        acc, infid = run_exact(harness, configs)
        assert seen and max(seen) <= budget
        monkeypatch.undo()
        want = run_exact(harness, configs)
        assert np.abs(acc - want[0]).max() <= 1e-14 and np.abs(infid - want[1]).max() <= 1e-14

    def test_uniforms_all_nan_or_all_drawn(self):
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        uniforms = np.full((2, len(harness.meas_order)), np.nan)
        uniforms[1] = 0.5
        with pytest.raises(ValueError, match="all NaN or all drawn"):
            harness.run_sampled(fault_arrays([[], []]), uniforms)

    def test_no_frame_before_the_start(self):
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        kernel = harness.kernel
        nan = np.full((1, len(harness.meas_order)), np.nan)
        end = 2 * len(harness.circuit.gates)
        tree = semantics.BranchTree.root(1)
        kernel.walk(tree, nan, harness.reference, end)
        assert tree.h == end
        early = kernel.frames([0], [t_sites(harness)[0][0]], [2], [t_sites(harness)[0][1]])
        assert len(early[1]) == 1 and early[1][0] < end
        with pytest.raises(SimulationError, match="before the start"):
            kernel.run(nan, harness.reference, early, tree)

    @staticmethod
    def _trunk(to=None):
        """(harness, NaN uniforms of one row, the trunk of gadgetized ccz
        walked to half-step `to`)."""
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        nan = np.full((1, len(harness.meas_order)), np.nan)
        tree = semantics.BranchTree.root(1)
        harness.kernel.walk(tree, nan, harness.reference, to)
        return harness, nan, tree

    @staticmethod
    def _snapshot(tree):
        return (
            tree.h, tree.alive.copy(), tree.weight.copy(), tree.states.copy(),
            None if tree.of is None else tree.of.copy(),
            {r: o.copy() for r, o in tree.outcomes.items()},
        )

    @staticmethod
    def _assert_same(got, want):
        assert got[0] == want[0]
        for a, b in zip(got[1:4], want[1:4]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (got[4] is None) == (want[4] is None)
        if want[4] is not None:
            assert np.array_equal(got[4], want[4])
        assert got[5].keys() == want[5].keys()
        assert all(np.array_equal(got[5][r], want[5][r]) for r in want[5])

    def test_walk_advances_in_place(self):
        # ccz-g: its four injection measurements are gates 22-25
        harness, nan, tree = self._trunk(50)
        assert tree.h == 50 and len(tree.alive) == 8
        assert set(tree.outcomes) == {"inj0", "inj1", "inj2"}
        harness.kernel.walk(tree, nan, harness.reference)
        assert tree.h == 2 * len(harness.circuit.gates)
        alive, weight, states, outcomes = tree.final()
        want = harness.kernel.run(nan, harness.reference)
        assert np.array_equal(alive, want[0]) and len(alive) == 16
        assert np.allclose(weight, want[1], rtol=0, atol=1e-14)
        assert np.allclose(states, want[2], rtol=0, atol=1e-14)
        assert all(np.array_equal(outcomes[r], want[3][r]) for r in want[3])

    def test_walk_stops_with_no_state_row(self):
        harness, nan, tree = self._trunk(-1)
        flipped = {r: 1 - o for r, o in harness.reference.items()}
        harness.kernel.walk(tree, nan, flipped)
        # the detection MeasX is gate 35, the last; no branch keeps its flip
        assert len(tree.alive) == 0 and tree.h == 2 * 35 + 1

    @pytest.mark.parametrize("to", [44, 50, 72])
    def test_walk_back_changes_nothing(self, to):
        harness, nan, tree = self._trunk(to)
        before = self._snapshot(tree)
        states = tree.states
        for earlier in (to, to - 1, -1):
            harness.kernel.walk(tree, nan, harness.reference, earlier)
            self._assert_same(self._snapshot(tree), before)
        assert tree.states is states

    # at half-step 44 every branch shares one state (`of` is set); at 50
    # the trunk holds 8 branches, each with its own state
    @pytest.mark.parametrize("to", [44, 50])
    @pytest.mark.parametrize("every", [True, False], ids=["every-row", "some-rows"])
    def test_run_leaves_the_start_unwritten(self, to, every):
        harness, _, tree = self._trunk(to)
        kernel = harness.kernel
        configs = [
            [(pos, pauli, q)]
            for _, pos, q in depolarizing_sites(harness, build_schedule(harness.circuit))
            for pauli in "XYZ"
        ]
        row, stop, x, z = kernel.frames(*fault_arrays(configs))
        here = np.flatnonzero(stop == to)
        assert len(here) >= 10
        # one frame per row; without `every`, rows without frames in between
        rows = len(here) if every else 2 * len(here) + 1
        placed = np.arange(len(here)) * (1 if every else 2) + (0 if every else 1)
        before = self._snapshot(tree)
        alive, weight, states, _ = kernel.run(
            np.full((rows, len(harness.meas_order)), np.nan), harness.reference,
            (placed, stop[here], x[here], z[here]), tree,
        )
        assert len(alive) and (weight > 0).all()
        self._assert_same(self._snapshot(tree), before)


class TestLiveWidth:
    """A row holds an axis only for a qubit between its first gate other
    than a preparation and the measurement after which nothing reads it.
    Every single fault, and every pair on the late qubit, against the
    full-width references."""

    gates = (
        Gate("PrepPlus", (0,)),
        Gate("PrepPlus", (1,)),
        Gate("PrepZero", (2,)),
        Gate("PrepT", (3,)),      # an output that no gate touches
        Gate("PrepT", (4,)),      # idle through rounds 0 and 1
        Gate("T", (0,)),
        Gate("CNOT", (0, 1)),
        Gate("MeasZ", (2,), "d0"),   # qubit 2 is used again below
        Gate("CNOT", (1, 4)),
        Gate("MeasZ", (4,), "m0"),   # last gate on qubit 4: its axis goes
        Gate("CondS", (1,), "m0"),
        Gate("CNOT", (0, 2)),
        Gate("CS", (0, 1)),
        Gate("CNOT", (0, 2)),
        Gate("MeasZ", (2,), "d1"),
    )
    outputs = [0, 1, 3]

    @pytest.fixture(scope="class")
    def harness(self):
        # qubit 5 is declared, but no gate touches it
        return FaultHarness(Circuit(6, self.gates), self.outputs)

    def test_layouts(self, harness):
        # live after each gate: qubit 2 survives d0, qubit 4 leaves at m0,
        # qubit 3 appears only at the end
        live = [sorted(harness.kernel.layout(2 * p + 1)) for p in range(len(self.gates))]
        assert live[7] == [0, 1, 2]
        assert live[9] == [0, 1, 2]
        assert 3 not in live[-1] and 3 in harness.kernel.layout(-1)
        assert harness.kernel.peak == 4
        # qubit 3 gets its axis after qubit 4, but the noise sites list each
        # round's qubits in ascending order, which fixes the order of the
        # fault tables and of the Monte Carlo draws; qubit 5 has no axis
        assert harness.kernel.axis_qubits == [0, 1, 2, 3, 4]
        sites = depolarizing_sites(harness, build_schedule(harness.circuit))
        assert sites == sorted(sites) and {q for _, _, q in sites} == {0, 1, 2, 3, 4}
        # qubit 2 is measured in round 1 and read again up to its last
        # measurement, in round 5: noise acts on it in rounds 1-4
        assert [r for r, _, q in sites if q == 2] == [1, 2, 3, 4]
        assert [r for r, _, q in sites if q == 4] == [1]

    def test_singles_exact(self, harness):
        sites = _fault_sites(harness.circuit)
        pending = [(pos, q) for pos, q in sites if q == 4 and pos < 8]
        assert len(pending) == 4   # after its preparation, rounds 0 and 1
        configs = [[(pos, pauli, q)] for pos, q in sites for pauli in "XYZ"]
        acc, infid = run_exact(harness, configs)
        for faults, got in zip(configs, zip(acc, infid)):
            assert got == pytest.approx(reference_exact(harness, faults), rel=0, abs=1e-12)
        # faults without effect, in the reference too: on qubit 4 after the
        # measurement that drops its axis, and on the untouched qubit 5
        clean = reference_exact(harness, [])
        dropped = [i for i, f in enumerate(configs) if f[0][2] == 4 and f[0][0] >= 9]
        untouched = [i for i, f in enumerate(configs) if f[0][2] == 5]
        assert (len(dropped), len(untouched)) == (18, 48)
        for i in dropped + untouched:
            assert (acc[i], infid[i]) == pytest.approx(clean, rel=0, abs=1e-12)
        # and before a qubit's preparation, which resets it: every Pauli at
        # every earlier position of the preparation block, against the
        # fault-free reference (which takes no gate before a preparation)
        prepared = {g.qubits[0]: pos for pos, g in enumerate(self.gates) if g.kind in PREP_KINDS}
        early = [
            [(pos, pauli, q)] for q, prep in prepared.items() for pos in range(-1, prep)
            for pauli in "XYZ"
        ]
        assert len(early) == 45
        for got in zip(*run_exact(harness, early)):
            assert got == pytest.approx(clean, rel=0, abs=1e-12)

    def test_pairs_on_late_and_measured_qubits(self, harness):
        # two Paulis on the idle resource, and faults after its measurement
        positions = range(4, len(self.gates))
        configs = [
            [(a, pa, 4), (b, pb, 4), (b, "X", 3)]
            for a in positions for b in positions
            for pa, pb in (("X", "Z"), ("Y", "Y"), ("Z", "X"))
        ]
        # the noise sites of qubit 2, which is measured and read again: each
        # alone and with an X on qubit 0 at every later noise site
        sites = depolarizing_sites(harness, build_schedule(harness.circuit))
        mid = [pos for _, pos, q in sites if q == 2]
        assert len(mid) == 4
        configs += [[(pos, pauli, 2)] for pos in mid for pauli in "XYZ"]
        configs += [
            [(pos, pauli, 2), (later, "X", 0)]
            for pos in mid for pauli in "XYZ"
            for _, later, q in sites if q == 0 and later > pos
        ]
        for faults, got in zip(configs, zip(*run_exact(harness, configs))):
            assert got == pytest.approx(reference_exact(harness, faults), rel=0, abs=1e-12)

    def test_sampled_rows(self, harness):
        sites = [(pos, pauli, q) for pos, q in _fault_sites(harness.circuit) for pauli in range(3)]
        uniforms = np.random.default_rng(8).random((len(sites), len(harness.meas_order)))
        pos, pauli, qubit = (np.array(col) for col in zip(*sites))
        accepted, infidelity = sampled(
            harness, (np.arange(len(sites)), pos, pauli, qubit), uniforms
        )
        for row, (p, pa, q) in enumerate(sites):
            ok, infid = reference_trajectory(harness, {p: [("XYZ"[pa], q)]}, uniforms[row])
            assert accepted[row] == ok
            assert infidelity[row] == pytest.approx(infid, rel=1e-12, abs=1e-13)

    def test_fourteen_qubits_two_live(self):
        # twelve teleported T gates through resources used one at a time
        n = 14
        gates = [Gate("PrepPlus", (0,)), Gate("PrepZero", (13,))]
        gates += [Gate("PrepT", (q,)) for q in range(1, 13)]
        for q in range(1, 13):
            gates += [
                Gate("CNOT", (0, q)), Gate("MeasZ", (q,), f"m{q}"), Gate("CondS", (0,), f"m{q}"),
            ]
        gates.append(Gate("MeasZ", (13,), "d0"))
        harness = FaultHarness(Circuit(n, tuple(gates)), [0])
        assert harness.kernel.peak == 2
        # pending Z on the data qubit and Y on a resource, faults after
        # measurements, and X on the idle detection qubit
        sites = [(5, 2, 0), (7, 1, 5), (15, 0, 0), (20, 0, 1), (30, 2, 0), (40, 1, 0),
                 (45, 0, 13)]
        uniforms = np.random.default_rng(3).random((len(sites), len(harness.meas_order)))
        pos, pauli, qubit = (np.array(col) for col in zip(*sites))
        accepted, infidelity = sampled(
            harness, (np.arange(len(sites)), pos, pauli, qubit), uniforms
        )
        for row, (p, pa, q) in enumerate(sites):
            ok, infid = reference_trajectory(harness, {p: [("XYZ"[pa], q)]}, uniforms[row])
            assert accepted[row] == ok
            assert infidelity[row] == pytest.approx(infid, rel=1e-12, abs=1e-13)
        assert run_one(harness, []) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_thirteen_live_qubits_rejected(self):
        gates = [Gate("PrepPlus", (q,)) for q in range(13)]
        gates += [Gate("CNOT", (q, q + 1)) for q in range(12)]
        gates.append(Gate("MeasX", (12,), "d0"))
        with pytest.raises(SimulationError, match="13"):
            FaultHarness(Circuit(13, tuple(gates)), [0])

    def test_gadgetized_t15_singles(self):
        # 15 qubits, 10 live: T-site Z faults against full-width trajectories
        circ, outputs = compiled_t15()
        impl = gadgetize(circ)
        harness = FaultHarness(impl, outputs)
        assert (impl.n, harness.kernel.peak) == (15, 10)
        sites = t_sites(harness)
        uniforms = np.random.default_rng(6).random((len(sites), len(harness.meas_order)))
        pos, qubit = (np.array(col) for col in zip(*sites))
        accepted, infidelity = sampled(
            harness, (np.arange(len(sites)), pos, np.full(len(sites), 2), qubit), uniforms
        )
        for row, (p, q) in enumerate(sites):
            ok, infid = reference_trajectory(harness, {p: [("Z", q)]}, uniforms[row])
            assert accepted[row] == ok
            assert infidelity[row] == pytest.approx(infid, rel=1e-12, abs=1e-13)
        table = enumerate_single_faults(impl, outputs)
        assert (len(table.entries), table.count("harmful")) == (15, 0)


class TestHarnessOutputs:
    @pytest.mark.parametrize("outputs", [[0, 9], [0, 0, 1], [-1, 1, 2], []])
    def test_outputs_checked(self, outputs):
        circ, _ = compiled_ccz()
        with pytest.raises(FaultAnalysisError):
            enumerate_single_faults(circ, outputs)

    def test_preparation_after_other_gates(self):
        # the schedule accepts frame gates in round 0, but a second
        # preparation would reset qubit 0 after its X
        gates = (
            Gate("PrepPlus", (0,)), Gate("X", (0,)), Gate("PrepZero", (0,)),
            Gate("PrepZero", (1,)), Gate("CNOT", (0, 1)), Gate("MeasZ", (1,), "d0"),
        )
        with pytest.raises(SimulationError, match="after other gates"):
            FaultHarness(Circuit(2, gates), [0])


def _cli_exit_1(tmp_path, capsys, circ, command, match):
    """`rotsynth faults --singles` or `sweep` on `circ` with output 0 ends in
    exit 1 with one stderr line that contains `match`."""
    path = tmp_path / "circuit.json"
    path.write_text(circ.to_json())
    extra = (
        ["--singles"] if command == "faults"
        else ["--pl", "1e-3", "--r", "1", "--shots", "10", "--out", tmp_path / "o.csv"]
    )
    capsys.readouterr()
    assert cli_main([command, "--circuit", str(path), "--outputs", "0", *map(str, extra)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and err.count("\n") == 1


def _random_detectors(k: int) -> Circuit:
    """Output |0> on qubit 0, and k |+> qubits measured in Z as detectors."""
    gates = [Gate("PrepZero", (0,))]
    for q in range(1, k + 1):
        gates += [Gate("PrepPlus", (q,)), Gate("MeasZ", (q,), f"d{q}")]
    return Circuit(k + 1, tuple(gates))


class TestNoiselessReference:
    """`FaultHarness` takes its reference from one trunk walk and rejects a
    circuit whose noiseless run has a random detector, branches that
    disagree on the output, or an output entangled with another qubit."""

    invalid = {
        "not deterministic": _random_detectors(1),
        "disagree on the output": Circuit(4, (
            Gate("PrepPlus", (0,)), Gate("PrepZero", (1,)), Gate("PrepZero", (2,)),
            Gate("PrepZero", (3,)), Gate("CNOT", (0, 1)), Gate("MeasZ", (1,), "m"),
            Gate("CondS", (2,), "m"), Gate("MeasZ", (3,), "d"),
        )),
        "not in a pure state": Circuit(3, (
            Gate("PrepPlus", (0,)), Gate("PrepZero", (1,)), Gate("PrepZero", (2,)),
            Gate("CNOT", (0, 1)), Gate("MeasZ", (2,), "d"),
        )),
    }

    @pytest.mark.parametrize("message", list(invalid))
    def test_harness_rejects(self, message):
        with pytest.raises(FaultAnalysisError, match=message):
            FaultHarness(self.invalid[message], [0])

    @pytest.mark.parametrize("message", list(invalid))
    def test_cli_exit_1(self, tmp_path, capsys, message):
        _cli_exit_1(tmp_path, capsys, self.invalid[message], "faults", message)

    def test_trunk_stays_bounded(self, monkeypatch):
        # 30 random detectors: the trunk drops the branches of each one's
        # other outcome, so it never holds more than two branches
        monkeypatch.setattr(semantics, "MAX_TREE_AMPLITUDES", 2)
        with pytest.raises(FaultAnalysisError, match="not deterministic"):
            FaultHarness(_random_detectors(30), [0])

    def test_one_trunk_walk(self):
        circ, outputs = compiled_ccz()
        harness = FaultHarness(gadgetize(circ), outputs)
        assert harness.reference == {"det0": 0}
        assert harness.counts == {
            "kernel_calls": 1, "trunk_runs": 1, "rows_decided": 0, "rows_forked": 0, "rows_run": 0,
        }


def _injection_chain(k: int) -> Circuit:
    """k |+> qubits, each measured in Z and consumed by a CondS on the |0>
    output (qubit 0), and one certain detector: the fault-free branch tree
    doubles at each injection."""
    gates = [Gate("PrepZero", (0,)), Gate("PrepZero", (k + 1,))]
    for q in range(1, k + 1):
        gates += [
            Gate("PrepPlus", (q,)), Gate("MeasZ", (q,), f"m{q}"), Gate("CondS", (0,), f"m{q}"),
        ]
    gates.append(Gate("MeasZ", (k + 1,), "d"))
    return Circuit(k + 2, tuple(gates))


class TestTreeCap:
    """A walk raises SimulationError before a measurement could leave a
    branch tree more than `semantics.MAX_TREE_AMPLITUDES` amplitudes; the
    CLI ends in exit 1 with one line."""

    def test_harness(self, monkeypatch):
        # 8 injections: 2^8 branches of the 1-qubit output
        harness = FaultHarness(_injection_chain(8), [0])
        _, weight, _ = harness.run_sampled(
            (np.zeros(0, dtype=np.int64),) * 4, np.full((1, 8 + 1), np.nan)
        )
        assert len(weight) == 1 << 8 and weight.sum() == pytest.approx(1.0)
        monkeypatch.setattr(semantics, "MAX_TREE_AMPLITUDES", 1 << 8)
        with pytest.raises(SimulationError, match="exceeds the cap of 256 amplitudes"):
            FaultHarness(_injection_chain(8), [0])

    def test_enumerate_branches(self, monkeypatch):
        # one qubit measured in X and Z in turn: every outcome is random
        gates = (Gate("PrepZero", (0,)),) + tuple(
            Gate("MeasX" if i % 2 == 0 else "MeasZ", (0,), f"m{i}") for i in range(8)
        )
        assert len(semantics.enumerate_branches(Circuit(1, gates))) == 1 << 8
        monkeypatch.setattr(semantics, "MAX_TREE_AMPLITUDES", 1 << 8)
        with pytest.raises(SimulationError, match="exceeds the cap"):
            semantics.enumerate_branches(Circuit(1, gates))

    @pytest.mark.parametrize("command", ["faults", "sweep"])
    def test_cli_exit_1(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(semantics, "MAX_TREE_AMPLITUDES", 1 << 8)
        _cli_exit_1(tmp_path, capsys, _injection_chain(8), command, "exceeds the cap")


class TestOneHarness:
    """One harness runs every estimator, at several t_decode and in any
    order. The kernel's caches (`_runs`, `_tails`, `_frame_table`) outlive
    each call and are shared across schedules; they leave each result, and
    each call's work, as a fresh harness gives them."""

    CALLS = (
        ("first_order(2)", lambda h: h.first_order(2)),
        ("singles(all)", lambda h: h.singles("all")),
        ("first_order(0)", lambda h: h.first_order(0)),
        ("pairs()", lambda h: h.pairs()),
        ("monte_carlo at t_decode 1",
         lambda h: h.monte_carlo(NoiseModel.from_ratio(1e-2, 1.0, 1), 2000, seed=3)),
        ("monte_carlo at t_decode 0",
         lambda h: h.monte_carlo(NoiseModel.from_ratio(1e-2, 1.0, 0), 2000, seed=3)),
        ("first_order(2) again", lambda h: h.first_order(2)),
    )

    @pytest.mark.parametrize("name", ["ccz-g", "t15"])
    def test_calls_match_fresh_harnesses(self, name):
        circ, outputs = compiled_ccz() if name == "ccz-g" else compiled_t15()
        if name == "ccz-g":
            circ = gadgetize(circ)
        harness = FaultHarness(circ, outputs)
        for label, call in self.CALLS:
            got, counts = tallied(harness, lambda: call(harness))
            fresh = FaultHarness(circ, outputs)
            want = call(fresh)
            assert got.to_dict() == want.to_dict(), label
            # less the one kernel call and one trunk run of building `fresh`
            built = {"kernel_calls": 1, "trunk_runs": 1}
            assert counts == {k: v - built.get(k, 0) for k, v in fresh.counts.items()}, label


class TestSpacetimeCost:
    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_default_formula(self, d):
        assert spacetime_cost(d) == 168 * d * d

    def test_explicit_values(self):
        assert spacetime_cost(1) == 168
        assert spacetime_cost(5) == 4200
        assert spacetime_cost(11) == 20328

    def test_surgery_ratio_scales_linearly(self):
        # baseline / ours grows like the code distance
        r3 = surgery_baseline_cost(3) / spacetime_cost(3)
        r9 = surgery_baseline_cost(9) / spacetime_cost(9)
        assert r9 == pytest.approx(3 * r3, rel=1e-12)

    def test_invalid_distance(self):
        with pytest.raises(FaultAnalysisError):
            spacetime_cost(0)

    @pytest.mark.parametrize(
        "kwargs", [{"rounds": 0}, {"patches": -1}, {"qubits_per_patch_factor": 0}]
    )
    def test_invalid_ranges(self, kwargs):
        with pytest.raises(FaultAnalysisError):
            spacetime_cost(3, **kwargs)
