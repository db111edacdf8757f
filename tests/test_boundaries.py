"""NaN at the exported boundaries: each check fails for NaN, not only for a
value below the bound, so a NaN raises where it enters, with the message of
that check."""

import math

import numpy as np
import pytest

from nfwpt import (
    average_harvested_power,
    build_upa,
    channel,
    fim,
    fim_finite_difference,
    lattice_crb,
    locate_er,
    min_sensing_duration,
    scaling_factor,
    simulate_echo,
    solve_energy_covariance,
    uniform_probe,
    weighted_channel_matrix,
)
from nfwpt.channel import ErState, VisibilityRegion

NAN = math.nan
GEOM = build_upa(4, 4, 28e9)
ER = ErState(position=np.array([1.0, 0.2, 0.1]), vr=VisibilityRegion(1, 16), reflection=1.0 + 0.5j)
PROBE = uniform_probe(GEOM, 1.0)
H = channel(GEOM, ER)
WEIGHTED = weighted_channel_matrix([H], [1.0])
SOLUTION = solve_energy_covariance(WEIGHTED, 1.0)
BOX = (ER.position - 0.1, ER.position + 0.1)
RNG = np.random.default_rng(0)


def _crbs():
    return lattice_crb(GEOM, [(ER.position, ER.vr, ER.reflection)], (0.05,) * 3, PROBE, 1e-15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simulate_echo(H, 1.0, PROBE, 1, NAN, RNG), "noise power must be nonnegative"),
        (lambda: simulate_echo(H, 1.0, PROBE, NAN, 0.0, RNG), "slot length must be >= 1"),
        (lambda: uniform_probe(GEOM, NAN), "probe power must be positive"),
        (lambda: solve_energy_covariance(WEIGHTED, NAN), "power budget must be positive"),
        (lambda: average_harvested_power(H, SOLUTION, 1, 1, NAN), "block length must be positive"),
        (lambda: average_harvested_power(H, SOLUTION, NAN, 1, 200), "slot length must be nonneg"),
        (lambda: scaling_factor(NAN, 1.0), "power levels must be nonnegative"),
        (lambda: scaling_factor(0.5, NAN), "power levels must be nonnegative"),
        (lambda: fim_finite_difference(GEOM, ER, PROBE, 1, NAN), "noise power must be positive"),
        (lambda: fim_finite_difference(GEOM, ER, PROBE, 1, 1e-15, NAN), "step must be positive"),
        (lambda: locate_er(GEOM, H, ER.vr, BOX, tol=NAN), "tol must be positive"),
        (lambda: fim(GEOM, ER, PROBE, 1, NAN), "noise power must be positive"),
        (lambda: fim(GEOM, ER, PROBE, NAN, 1e-15), "slot length must be >= 1"),
        (lambda: min_sensing_duration(_crbs(), NAN, 200), "accuracy target must be positive"),
        (lambda: min_sensing_duration(_crbs(), 4e4, NAN), "block length must be >= 1"),
        (lambda: build_upa(4, 4, NAN), "carrier frequency must be positive"),
        (lambda: build_upa(4, 4, 28e9, spacing=NAN), "element spacing must be positive"),
    ],
    ids=[
        "simulate_echo-noise_power",
        "simulate_echo-slot_len",
        "uniform_probe-p_max",
        "solve_energy_covariance-p_max",
        "average_harvested_power-block_len",
        "average_harvested_power-tau",
        "scaling_factor-p_out",
        "scaling_factor-p_in",
        "fim_finite_difference-noise_power",
        "fim_finite_difference-step",
        "locate_er-tol",
        "fim-noise_power",
        "fim-slot_len",
        "min_sensing_duration-gamma",
        "min_sensing_duration-block_len",
        "build_upa-carrier_freq",
        "build_upa-spacing",
    ],
)
def test_a_nan_input_fails_the_check_where_it_enters(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError
