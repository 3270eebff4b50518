"""SpinState is a value, equal and hashed alike exactly when its bits match.

A Measurement is a plain record that holds a read-only copy of its rows.
"""

import numpy as np
import pytest

from rotosense.measurement import Measurement, optimal_basis
from rotosense.spin_core import SpinState
from rotosense.states import balance, tetra2


def one_bit_up(array: np.ndarray) -> np.ndarray:
    """A copy of a complex array whose first real part is the next float up."""
    array = array.copy()
    array.flat[0] = np.nextafter(array.flat[0].real, np.inf) + 1j * array.flat[0].imag
    return array


@pytest.mark.parametrize("factory", [tetra2, balance])
class TestEqualValues:
    def test_states(self, factory):
        probe = factory()
        twins = [SpinState(probe.J, probe.amps.copy()) for _ in range(2)]
        assert twins[0] is not probe
        assert twins[0] == probe and hash(twins[0]) == hash(probe)
        assert len({probe, *twins}) == 1


class TestUnequalValues:
    def test_a_probe_one_bit_away(self):
        other = SpinState(2, one_bit_up(tetra2().amps))
        assert other.amps.tobytes() != tetra2().amps.tobytes()
        assert other != tetra2()

    def test_signed_zeros_differ(self):
        # equality is by bits: amplitudes that compare == can still be two values
        plus = SpinState(2, [1.0, complex(0.0, 0.0), 0.0, 0.0, 0.0])
        minus = SpinState(2, [1.0, complex(0.0, -0.0), 0.0, 0.0, 0.0])
        assert np.array_equal(plus.amps, minus.amps)
        assert plus != minus


class TestMeasurementFromLists:
    def test_is_a_read_only_value(self):
        basis = optimal_basis(tetra2())
        listed = Measurement(basis.J, basis.rows.tolist(), list(basis.starts))
        assert listed.rows.tobytes() == basis.rows.tobytes()
        assert listed.starts == (0, 1, 2, 3, 4) and type(listed.starts) is tuple
        assert not listed.rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            listed.rows[0, 0] = 0.0

    def test_holds_a_copy(self):
        rows = np.eye(5)
        measurement = Measurement(2, rows, (0, 1, 2, 3, 4))
        assert rows.flags.writeable and measurement.rows is not rows
        rows[0, 0] = 2.0
        assert measurement.rows[0, 0] == 1.0
