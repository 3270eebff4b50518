import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bell_outcome_probabilities,
    bell_supports,
    params_from_axis,
    register_contraction,
    rotation_unitary,
    seven_photon_state,
    three_peak_state,
)

from rotosense import bell_analysis
from rotosense.bell_analysis import (
    BELL_STATES,
    SYMMETRIC_LABELS,
    bell_decompose,
    bell_measurement,
    singlet_weight,
    verify_tabulated_decompositions,
)
from rotosense.measurement import (
    Measurement, exact_probabilities, optimal_basis, sweep_probabilities
)
from rotosense.spin_core import (
    RotationParams,
    SpinState,
    dicke_to_qubit,
    rotated_amplitudes,
    spin_operators,
)
from rotosense.states import balance, tetra1, tetra2

SQ3 = math.sqrt(3.0)

# The Bell-product supports of the optimal-basis states, as the paper tabulates
# them.  The six-photon P2 group holds (3,3,3): the J_2-image state carries 3/8
# of its weight there.  (1,1,1) is in no group: no psi_mu holds it, it belongs
# to the completion state n6_psi4.
N4_GROUPS = [
    {(0, 0), (3, 3), (1, 1)},
    {(0, 1), (1, 0)},
    {(1, 3), (3, 1)},
    {(0, 3), (3, 0)},
]
N6_GROUPS = [
    {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 3, 3), (3, 1, 3), (3, 3, 1)},
    {(0, 0, 0), (3, 3, 0), (0, 3, 3), (3, 0, 3), (0, 1, 1), (1, 0, 1), (1, 1, 0)},
    {(0, 3, 0), (3, 0, 0), (0, 0, 3), (3, 1, 1), (1, 3, 1), (1, 1, 3), (3, 3, 3)},
    {(0, 3, 1), (3, 0, 1), (1, 0, 3), (1, 3, 0), (0, 1, 3), (3, 1, 0)},
]


def rotated_qubit_state(state, params):
    spun = SpinState.normalized(state.J, rotation_unitary(state.J, params) @ state.amps)
    return dicke_to_qubit(spun)


class TestBellStates:
    def test_orthonormal(self):
        gram = BELL_STATES.conj() @ BELL_STATES.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)
        assert not BELL_STATES.flags.writeable

    def test_phi1_amplitude(self):
        assert BELL_STATES[1][1] == pytest.approx(1j / math.sqrt(2))

    def test_completeness(self):
        total = sum(np.outer(s, s.conj()) for s in BELL_STATES)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-15)

    def test_spin_is_imaginary_in_the_symmetric_bell_basis(self):
        # the phases of BELL_STATES make phi0, phi1, phi3 a Cartesian basis of a
        # pair's spin 1: every J_i is purely imaginary there, so rotations act on
        # Bell-product amplitudes as real orthogonal matrices
        image = bell_analysis._bell_image(2)
        for op in spin_operators(1):
            in_bell = image @ op @ image.conj().T
            assert np.abs(in_bell.real).max() <= 1e-15
            assert np.abs(in_bell.imag).max() == pytest.approx(1.0)


class TestBellDecompose:
    def test_tetra2_coefficients(self):
        bp = bell_decompose(tetra2())
        assert bp[0, 0] == pytest.approx((1 + 1j / SQ3) / 2, abs=1e-12)
        assert bp[3, 3] == pytest.approx(-(1 - 1j / SQ3) / 2, abs=1e-12)
        assert bp[1, 1] == pytest.approx(-2j / SQ3 / 2, abs=1e-12)
        others = sum(
            abs(bp[t]) for t in np.ndindex(4, 4) if t not in ((0, 0), (3, 3), (1, 1))
        )
        assert others <= 1e-12

    def test_product_basis_vector(self):
        bp = register_contraction(np.kron(BELL_STATES[0], BELL_STATES[1]))
        assert bp[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert abs((np.abs(bp) ** 2).sum() - 1.0) <= 1e-12

    def test_psi1_up_to_global_phase(self):
        basis = optimal_basis(tetra2())
        bp = bell_decompose(SpinState(2, basis.rows[1].conj()))
        target = -1j / math.sqrt(2)
        ratio = bp[0, 1] / target
        assert abs(abs(ratio) - 1.0) <= 1e-12
        assert bp[1, 0] == pytest.approx(ratio * target, abs=1e-12)
        weight = abs(bp[0, 1]) ** 2 + abs(bp[1, 0]) ** 2
        assert weight == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_norm_preserved(self, seed):
        # a linear map that keeps every norm is unitary, hence invertible
        rng = np.random.default_rng(seed)
        for n in (2, 4, 6):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            bp = register_contraction(amps / np.linalg.norm(amps))
            assert abs((np.abs(bp) ** 2).sum() - 1.0) <= 1e-12

    def test_pair_order_permutation(self):
        # swapping the two pairs of the input swaps the label axes
        qubits = dicke_to_qubit(tetra2())
        swapped = qubits.reshape([2] * 4).transpose(2, 3, 0, 1).reshape(-1)
        np.testing.assert_allclose(
            register_contraction(swapped), register_contraction(qubits).T, atol=1e-12
        )

    def test_matching_independence_for_symmetric_states(self):
        # any perfect matching of a permutation-symmetric state gives the same tensor
        qubits = dicke_to_qubit(tetra2())
        rematched = qubits.reshape([2] * 4).transpose(0, 2, 1, 3).reshape(-1)
        np.testing.assert_allclose(
            register_contraction(rematched), register_contraction(qubits), atol=1e-12
        )

    def test_rejects_odd_register(self):
        # 8 amplitudes are three qubits, with no Bell pairs; 6 are no register at all
        for size in (8, 6, 2, 1, 0):
            with pytest.raises(ValueError, match="^Bell decomposition needs an even number of qubits"):
                register_contraction(np.ones(size, dtype=complex))

    def test_matches_register_contraction(self):
        # the pair-by-pair image against the 2^N register, two independent
        # constructions; a tuple holding a singlet is exactly 0, not small
        rng = np.random.default_rng(17)
        for n in range(2, 13, 2):
            for _ in range(5):
                amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
                state = SpinState.normalized(n / 2, amps)
                bp = bell_decompose(state)
                assert bp.shape == (4,) * (n // 2)
                reference = register_contraction(dicke_to_qubit(state))
                np.testing.assert_allclose(bp, reference, rtol=0, atol=1e-15)
                singlet = (np.indices(bp.shape) == 2).any(axis=0)
                assert (bp[singlet] == 0).all()

    @pytest.mark.parametrize("n_photons", [0, 1, 7, 14, 40])
    def test_names_a_photon_number_without_bell_products(self, n_photons):
        state = SpinState.from_m_amplitudes(n_photons / 2, {n_photons / 2: 1.0})
        with pytest.raises(ValueError, match=f"from 2 to 12, got {n_photons}$"):
            bell_decompose(state)


class TestSingletExclusion:
    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_rotations_stay_symmetric(self, factory):
        state = factory()
        rng = np.random.default_rng(13)
        for _ in range(30):
            params = RotationParams(*rng.uniform(-math.pi, math.pi, size=3))
            bp = register_contraction(rotated_qubit_state(state, params))
            assert singlet_weight(bp) <= 1e-10

    def test_singlet_product_has_full_weight(self):
        product = np.kron(BELL_STATES[2], BELL_STATES[2])
        assert singlet_weight(register_contraction(product)) == pytest.approx(1.0, abs=1e-12)

    def test_weight_is_not_negative(self):
        # decompose's default rotation of balance on the register path, whose
        # singlet entries are rounding noise: the weight sums them, never
        # subtracts two sums
        state = balance()
        amps = rotated_amplitudes(state, [0.02], RotationParams(0.02, 1.0, 0.5).axis)[0]
        bp = register_contraction(dicke_to_qubit(SpinState(state.J, amps)))
        assert 0.0 <= singlet_weight(bp) <= 1e-15


class TestAggregation:
    def test_unrotated(self):
        basis = optimal_basis(tetra2())
        bp = register_contraction(dicke_to_qubit(tetra2()))
        np.testing.assert_allclose(bell_outcome_probabilities(bp, basis), [1, 0, 0, 0], atol=1e-12)
        p = exact_probabilities(
            tetra2(), [bell_measurement(tetra2())], RotationParams(0.0, 1.0, 0.5)
        )[0]
        np.testing.assert_allclose(p, [1, 0, 0, 0, 0], atol=1e-12)

    def test_tetra2_z_rotation(self):
        theta = 0.05
        params = params_from_axis(theta, [0, 0, 1])
        p = exact_probabilities(tetra2(), [bell_measurement(tetra2())], params)[0]
        assert abs(p[3] - 2 * theta**2) <= 1.0 * theta**3

    def test_balance_y_rotation(self):
        theta = 0.05
        params = params_from_axis(theta, [0, 1, 0])
        p = exact_probabilities(balance(), [bell_measurement(balance())], params)[0]
        assert abs(p[2] - 4 * theta**2) <= 1.0 * theta**3

    def test_rejects_wrong_pair_count(self):
        # the three-pair analyzer of balance does not measure a two-pair probe
        params = RotationParams(0.05, 1.0, 0.5)
        with pytest.raises(ValueError, match="different spin sectors"):
            exact_probabilities(tetra2(), [bell_measurement(balance())], params)

    def test_groups_are_disjoint_and_distinct(self):
        for factory in (tetra2, balance, lambda: three_peak_state(4)):
            seen = set()
            for support in bell_supports(optimal_basis(factory())):
                assert support and not (seen & support)
                seen |= support

    @pytest.mark.parametrize("factory,groups", [(tetra2, N4_GROUPS), (balance, N6_GROUPS)])
    def test_derived_groups_are_the_paper_tables(self, factory, groups):
        state = factory()
        basis = optimal_basis(state)
        assert bell_supports(basis) == groups
        # the analyzer's rows are the Dicke-space images of those tuples, in
        # label order, to rounding: the register path is built independently
        images = [
            register_contraction(dicke_to_qubit(SpinState(state.J, e)))
            for e in np.eye(len(basis.rows[0]))
        ]
        # followed by the symmetric-label tuples outside every group, the rest
        rest = set(itertools.product(SYMMETRIC_LABELS, repeat=int(state.J))) - set().union(*groups)
        expected = [
            [image[t] for image in images] for group in [*groups, rest] for t in sorted(group)
        ]
        measurement = bell_measurement(state)
        np.testing.assert_allclose(measurement.rows, expected, rtol=0, atol=1e-15)
        assert measurement.starts == tuple(np.cumsum([0] + [len(g) for g in groups]))

    @pytest.mark.parametrize(
        "factory,n_photons", [(tetra2, 4), (balance, 6)]
    )
    def test_matches_exact_probabilities(self, factory, n_photons):
        state = factory()
        basis = optimal_basis(state)
        rng = np.random.default_rng(5)
        axes = rng.normal(size=(5, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for theta in np.geomspace(1e-3, 0.05, 6):
            for u in axes:
                params = params_from_axis(theta, u)
                exact = exact_probabilities(state, [basis], params)[0, :4]
                bp = register_contraction(rotated_qubit_state(state, params))
                assert bp.ndim == n_photons // 2
                agg = bell_outcome_probabilities(bp, basis)
                assert np.max(np.abs(agg - exact)) <= 1.0 * theta**3


ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)


class TestBellMeasurement:
    """Row blocks over |J,m> against the qubit-picture reference."""

    @pytest.mark.parametrize("factory,n_photons", [(tetra2, 4), (balance, 6)])
    @given(theta1=ANGLE, theta2=ANGLE, theta3=ANGLE)
    @settings(max_examples=60, deadline=None)
    def test_matches_qubit_pipeline(self, factory, n_photons, theta1, theta2, theta3):
        state = factory()
        basis = optimal_basis(state)
        params = RotationParams(theta1, theta2, theta3)
        blocks = exact_probabilities(state, [bell_measurement(state)], params)[0, :4]
        bp = register_contraction(rotated_qubit_state(state, params))
        assert bp.ndim == n_photons // 2
        reference = bell_outcome_probabilities(bp, basis)
        assert np.max(np.abs(blocks - reference)) <= 1e-13

    @pytest.mark.parametrize(
        "probe,n_photons",
        [(seven_photon_state, 7), (lambda: three_peak_state(20), 40)],
        ids=["7", "40"],
    )
    def test_rejects_other_photon_numbers(self, probe, n_photons):
        # anti-coherent probes, each with an optimal basis: an odd photon
        # number has no Bell pairs; past 12 photons the check comes before
        # the 4^(N/2) x (N+1) image is allocated
        message = f"Bell products need an even photon number 2J from 2 to 12, got {n_photons}$"
        with pytest.raises(ValueError, match=message):
            bell_measurement(probe())

    def test_fits_the_cube_state(self):
        # an anti-coherent J = 4 probe: disjoint supports of 21, 8, 8 and 8
        # tuples, and the other 36 of the 81 symmetric-label tuples as the rest
        state = three_peak_state(4)
        measurement = bell_measurement(state)
        assert measurement.starts == (0, 21, 29, 37, 45)
        assert len(measurement.rows) == 81
        exact_basis = optimal_basis(state)
        for theta in (0.01, 0.02, 0.05):
            params = RotationParams(theta, 1.0, 0.5)
            gap = np.subtract(*exact_probabilities(state, [measurement, exact_basis], params))
            assert np.max(np.abs(gap[:4])) <= 1.0 * theta**3

    def test_every_measurement_is_an_isometry(self):
        # five blocks whose rows form an isometry, so every P_mu, the rest
        # included, is ||K_mu psi||^2
        for factory in (tetra1, tetra2, balance, lambda: three_peak_state(4)):
            measurement = optimal_basis(factory())
            rows = measurement.rows
            assert len(measurement.starts) == 5
            np.testing.assert_allclose(rows.conj().T @ rows, np.eye(rows.shape[1]), atol=1e-13)

    def test_rest_rows_complete_the_analyzer(self):
        # the rest outcome is the symmetric Bell products outside every
        # support: with them the rows form an isometry, so the rest
        # probability is exact; the analyzer holds the 3^(N/2) symmetric-label
        # products and no more
        cube = lambda: three_peak_state(4)
        for factory, n_rows, n_rest in ((tetra2, 9, 0), (balance, 27, 1), (cube, 81, 36)):
            measurement = bell_measurement(factory())
            rows = measurement.rows
            assert len(measurement.starts) == 5
            assert len(rows) == n_rows and len(rows) - measurement.starts[4] == n_rest
            np.testing.assert_allclose(rows.conj().T @ rows, np.eye(rows.shape[1]), atol=1e-13)
            if n_rest:
                # without the rest rows the analyzer is not complete
                kept = rows[: measurement.starts[4]]
                assert not np.allclose(kept.conj().T @ kept, np.eye(rows.shape[1]), atol=1e-13)

    def test_rest_is_fourth_order(self):
        # P_rest / theta1^4 is the same at theta1 = 1e-6 as at 1e-3: the rest
        # is read from its own rows, not from 1 - sum P, which cancels to
        # rounding noise at small angles
        u = RotationParams(0.0, 1.0, 0.5).axis
        cases = [(tetra2, optimal_basis), (balance, optimal_basis), (balance, bell_measurement)]
        for factory, build in cases:
            rest = sweep_probabilities(factory(), [build(factory())], [1e-6, 1e-3], u)[0, :, 4]
            scaled = rest / np.array([1e-6, 1e-3]) ** 4
            assert scaled[1] > 0.1 and scaled[0] == pytest.approx(scaled[1], rel=0.01)
        # tetra2's Bell rest block is empty
        rest = sweep_probabilities(tetra2(), [bell_measurement(tetra2())], [1e-6, 1e-3], u)[0, :, 4]
        assert rest.tolist() == [0, 0]


class TestTabulatedDecompositions:
    def test_four_photon_tables_exact(self):
        report = verify_tabulated_decompositions()
        for check in report["checks"]:
            if check["label"].startswith("n4"):
                assert check["ok"], check["label"]
                assert check["fidelity"] >= 1 - 1e-9

    def test_six_photon_reconciliation(self):
        # the psi2/psi4/psi6 rows are internally inconsistent with the
        # basis-change computation; the report must itemize them, not hide them
        report = verify_tabulated_decompositions()
        by_label = {c["label"]: c for c in report["checks"]}
        for label in ("n6_psi0", "n6_psi1", "n6_psi3", "n6_psi5"):
            assert by_label[label]["ok"]
            assert by_label[label]["fidelity"] >= 1 - 1e-9
        for label in ("n6_psi2", "n6_psi4", "n6_psi6"):
            check = by_label[label]
            assert not check["ok"]
            assert len(check["mismatches"]) > 0
        assert not report["all_ok"]

    def test_six_photon_mismatch_listings(self):
        # the paper's table errors, entry by entry: {labels: (tabulated,
        # recomputed)} and the fidelity of each failing row
        s6, s10 = 1 / math.sqrt(6), 1 / math.sqrt(10)
        expected = {
            "n6_psi2": (1 / 16, {
                **dict.fromkeys([(0, 0, 3), (0, 3, 0), (3, 0, 0)], (s6, s6 / 2)),
                **dict.fromkeys([(1, 1, 3), (1, 3, 1), (3, 1, 1)], (-s6, s6)),
                (3, 3, 3): (0, -math.sqrt(6) / 4),
            }),
            "n6_psi4": (4 / 25, dict.fromkeys([(0, 0, 1), (0, 1, 0), (1, 0, 0)], (-1j * s10, 1j * s10))),
            "n6_psi6": (169 / 400, {
                **dict.fromkeys([(0, 0, 3), (0, 3, 0), (3, 0, 0)], (s10, -1.5 * s10)),
                **dict.fromkeys([(1, 1, 3), (1, 3, 1), (3, 1, 1)], (-s10, s10)),
                (3, 3, 3): (2 * s10, s10 / 2),
            }),
        }
        checks = {c["label"]: c for c in verify_tabulated_decompositions()["checks"]}
        assert {label for label, c in checks.items() if not c["ok"]} == set(expected)
        for label, (fidelity, entries) in expected.items():
            check = checks[label]
            assert check["fidelity"] == pytest.approx(fidelity, abs=1e-12), label
            listed = {tuple(m["labels"]): m for m in check["mismatches"]}
            assert list(listed) == sorted(entries), label
            for labels, (tabulated, recomputed) in entries.items():
                for key, value in (("tabulated", tabulated), ("recomputed", recomputed)):
                    got = complex(*listed[labels][key])
                    assert abs(got - value) <= 1e-12, (label, labels, key)

    def test_lists_a_table_only_entry(self, monkeypatch):
        # every mismatch of the paper's tables is an entry the direct state
        # holds; here n4_psi1 gains (3, 3), where the direct state is 0
        prefix, probe, rows, completions = bell_analysis.TABULATED_REFERENCES[0]
        rows = list(rows)
        rows[1] = {**rows[1], (3, 3): 0.1}
        record = ((prefix, probe, tuple(rows), completions),)
        monkeypatch.setattr(bell_analysis, "TABULATED_REFERENCES", record)
        checks = verify_tabulated_decompositions()["checks"]
        assert [c["label"] for c in checks if not c["ok"]] == ["n4_psi1"]
        assert checks[1]["fidelity"] == pytest.approx(1 / 1.01, abs=1e-12)
        assert checks[1]["mismatches"] == [
            {"labels": [3, 3], "tabulated": [0.1, 0.0], "recomputed": [0.0, 0.0]}
        ]

    def test_report_serializes(self):
        data = verify_tabulated_decompositions()
        assert len(data["checks"]) == 12
        for entry in data["checks"]:
            assert {"label", "fidelity", "ok", "mismatches"} <= set(entry)


class TestBellMisfit:
    @pytest.mark.parametrize("state", [tetra2, balance])
    def test_fits_reference_probes(self, state):
        # outcome 0 holds the whole unrotated probe
        p = exact_probabilities(state(), [bell_measurement(state())], RotationParams(0.0, 1.0, 0.5))
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "state,shared",
        [
            (tetra1, "outcomes 0 and 1 share the Bell product (0, 0)"),
            (lambda: three_peak_state(3), "outcomes 0 and 1 share the Bell product (0, 0, 0)"),
        ],
        ids=["tetra1", "three-peak-J3"],
    )
    def test_names_the_overlapping_outcomes(self, state, shared):
        with pytest.raises(ValueError, match=re.escape(f"does not fit this probe: {shared}")):
            bell_measurement(state())

    def test_a_product_in_two_outcomes_misfits(self, monkeypatch):
        # in the J = 2 Dicke basis no Bell product lies in more than two
        # outcomes: (0, 0) = (HH + VV)(HH + VV)/2 lies in |2,2> and |2,0>.
        # The probe |2,2> has no optimal basis of its own, so whatever the
        # analyzer does, no other test's memo entry is touched
        dicke = Measurement(np.eye(5), (0, 1, 2, 3, 4))
        monkeypatch.setattr(bell_analysis, "optimal_basis", lambda phi0: dicke)
        bell_measurement.cache_clear()
        shared = "outcomes 0 and 2 share the Bell product (0, 0)"
        with pytest.raises(ValueError, match=re.escape(f"does not fit this probe: {shared}")):
            bell_measurement(SpinState.from_m_amplitudes(2, {2: 1.0}))

    def test_names_the_photon_number(self):
        # an anti-coherent J = 7 probe: its optimal basis exists, but Bell
        # products stop at 12 photons
        with pytest.raises(ValueError, match=r"from 2 to 12, got 14$"):
            bell_measurement(three_peak_state(7))
