"""Speed scaling divides by a centred median of the reference samples."""

from __future__ import annotations

from perfbench import speed


def test_scale_maps_the_median_reference_to_nominal() -> None:
    assert speed.scale([speed.NOMINAL_S, 2 * speed.NOMINAL_S, 9.0]) == 0.5


def test_local_scales_follow_a_change_of_machine_speed() -> None:
    fast, slow = speed.NOMINAL_S, 2 * speed.NOMINAL_S
    samples = [fast] * 20 + [slow] * 20
    factors = speed.local_scales(samples, window=3)
    assert factors[:17] == [1.0] * 17
    assert factors[-17:] == [0.5] * 17


def test_reference_kernel_takes_time() -> None:
    assert speed.reference_seconds() > 0.0
