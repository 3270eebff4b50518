"""Built-in probe states.

``tetra1`` and ``tetra2`` are four-photon (J=2) second-order anti-coherent
states; ``tetra2`` is the one whose optimal basis decomposes into pairwise
Bell products.  ``balance`` is the six-photon (J=3) anti-coherent state
(|3,2> + |3,-2>)/sqrt(2).  Each builder returns one shared state per
process; a SpinState is frozen and its amplitudes are read-only.
"""

from __future__ import annotations

import math
from functools import cache

from .spin_core import SpinState


@cache
def tetra1() -> SpinState:
    return SpinState.from_m_amplitudes(2, {2: 1 / math.sqrt(3), -1: math.sqrt(2 / 3)})


@cache
def tetra2() -> SpinState:
    return SpinState.from_m_amplitudes(2, {2: 0.5, -2: 0.5, 0: 0.5j * math.sqrt(2)})


@cache
def balance() -> SpinState:
    s = 1 / math.sqrt(2)
    return SpinState.from_m_amplitudes(3, {2: s, -2: s})


REGISTRY = {"tetra1": tetra1, "tetra2": tetra2, "balance": balance}


def get_state(name: str) -> SpinState:
    try:
        return REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown state {name!r}; choose from {sorted(REGISTRY)}") from None
