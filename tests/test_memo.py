"""The per-probe memo: each probe's optimal basis and Bell analyzer are computed once per process."""

import dataclasses
import json
import re

import numpy as np
import pytest
from oracles import three_peak_state

from rotosense import measurement
from rotosense.bell_analysis import bell_measurement
from rotosense.cli import _load_state, main
from rotosense.estimation import qcrb_experiment
from rotosense.measurement import MEMO_SIZE, optimal_basis
from rotosense.spin_core import RotationParams, SpinState
from rotosense.states import balance, get_state, tetra1, tetra2


@pytest.fixture
def cold():
    """Empty memos, and the (hits, misses) of the optimal-basis and Bell-analyzer ones."""
    memos = (optimal_basis, bell_measurement)
    for memo in memos:
        memo.cache_clear()
    return lambda: [memo.cache_info()[:2] for memo in memos]


@pytest.fixture
def work(monkeypatch):
    """Counts of the calls that analyse a probe: np.linalg.svd and anticoherence_report."""
    counts = {"svd": 0, "anticoherence_report": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(
        measurement,
        "anticoherence_report",
        counted("anticoherence_report", measurement.anticoherence_report),
    )
    return counts


def state_file(tmp_path, state: SpinState) -> str:
    """The --state selector of a file holding the state."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"J": state.J, "amps": [[z.real, z.imag] for z in state.amps]}))
    return f"file:{path}"


class TestRepeatedReports:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("probe", ["tetra2", "balance"])
    def test_second_probabilities_call_reanalyses_nothing(
        self, probe, fmt, tmp_path, cold, work
    ):
        outs = [tmp_path / f"first.{fmt}", tmp_path / f"second.{fmt}"]
        argv = ["probabilities", "--state", probe, "--grid-points", "11", "--format", fmt]
        assert main([*argv, "--out", str(outs[0])]) == 0
        assert work == {"svd": 1, "anticoherence_report": 1}
        # the Bell analyzer reads the optimal basis the report has just built
        assert cold() == [(1, 1), (0, 1)]
        work.update(svd=0, anticoherence_report=0)
        assert main([*argv, "--out", str(outs[1])]) == 0
        assert work == {"svd": 0, "anticoherence_report": 0}
        assert cold() == [(2, 1), (1, 1)]
        assert outs[1].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize("pipeline", ["optimal", "bell"])
    def test_second_experiment_reanalyses_nothing(self, pipeline, cold, work):
        params = RotationParams(0.03, 1.0, 0.5)
        first = qcrb_experiment(balance(), params, 10**6, 50, 9, pipeline)
        work.update(svd=0, anticoherence_report=0)
        second = qcrb_experiment(balance(), params, 10**6, 50, 9, pipeline)
        assert work == {"svd": 0, "anticoherence_report": 0}
        assert second.to_dict() == first.to_dict()
        assert second.theta1_hats.tobytes() == first.theta1_hats.tobytes()

    def test_registry_probes_are_shared(self):
        for name, builder in (("tetra1", tetra1), ("tetra2", tetra2), ("balance", balance)):
            assert get_state(name) is builder() is builder()

    def test_registry_names_its_probes(self):
        message = "unknown state 'nosuch'; choose from ['balance', 'tetra1', 'tetra2']"
        with pytest.raises(ValueError, match=re.escape(message)):
            get_state("nosuch")


class TestByValue:
    def test_file_probe_with_tetra2_bytes_shares_the_entry(self, tmp_path, cold):
        loaded = _load_state(state_file(tmp_path, tetra2()))
        assert loaded is not tetra2()
        assert loaded.amps.tobytes() == tetra2().amps.tobytes()
        basis = optimal_basis(tetra2())
        assert optimal_basis(loaded) is basis
        assert bell_measurement(loaded) is bell_measurement(tetra2())
        assert cold() == [(2, 1), (1, 1)]

    def test_a_last_bit_is_another_probe(self, cold):
        amps = tetra2().amps.copy()
        amps[0] = np.nextafter(amps[0].real, 1.0)
        other = SpinState(2.0, amps)
        assert other.amps.tobytes() != tetra2().amps.tobytes()
        basis = optimal_basis(other)
        assert basis is not optimal_basis(tetra2())
        assert cold()[0] == (0, 2)
        # each entry comes from its caller's own amplitudes, bit for bit
        assert basis.rows[0].tobytes() == other.amps.conj().tobytes()

    def test_fixed_size(self, cold):
        probes = [tetra2(), balance(), *(three_peak_state(j) for j in (4, 5, 6, 7))]
        assert len(probes) > MEMO_SIZE
        for probe in probes:
            optimal_basis(probe)
        assert optimal_basis.cache_info().currsize == MEMO_SIZE
        optimal_basis(probes[0])  # the oldest entry was dropped, so it is recomputed
        assert cold()[0] == (0, len(probes) + 1)


class TestReadOnly:
    @pytest.mark.parametrize("factory", [tetra1, tetra2, balance])
    def test_registry_amplitudes(self, factory):
        state = factory()
        assert not state.amps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.amps[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.J = 1.0

    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_cached_rows(self, factory):
        for cached in (optimal_basis(factory()), bell_measurement(factory())):
            assert not cached.rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached.rows[0, 0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                cached.rows = np.eye(len(cached.rows))


class TestRefusalsAreNotCached:
    def test_not_anticoherent(self, cold, work):
        coherent = SpinState.from_m_amplitudes(2, {2: 1.0})
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="second-order anti-coherent") as info:
                optimal_basis(coherent)
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert work["anticoherence_report"] == 3  # checked again on every call
        assert optimal_basis.cache_info().currsize == 0

    def test_tetra1_bell_misfit(self, cold):
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="does not fit this probe") as info:
                bell_measurement(tetra1())
            messages.append(str(info.value))
        assert messages == [messages[0]] * 3
        assert cold() == [(2, 1), (0, 3)]  # one optimal basis, the analyzer refused each time
        assert bell_measurement.cache_info().currsize == 0

    def test_tetra1_estimate_refusal_repeats(self, capsys):
        argv = ["estimate", "--state", "tetra1", "--pipeline", "bell", "--trials", "5"]
        errors = []
        for _ in range(2):
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: the Bell analyzer does not fit this probe")
