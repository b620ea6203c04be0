"""Output values of ``gen`` and of short fits equal their recorded ones
(``tests/golden.json``; ``python tests/golden.py --write`` records them)."""

import numpy as np
import pytest

import golden

RECORDED = golden.recorded()


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(golden.CASES)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_values_equal_the_recorded_ones(name):
    got, want = golden.compute(name), RECORDED[name]
    assert sorted(got) == sorted(want)
    for key, value in got.items():
        expected = np.asarray(want[key])
        assert value.shape == expected.shape, key
        tol = golden.REL * np.max(np.abs(expected))
        np.testing.assert_allclose(value, expected, rtol=0.0, atol=tol,
                                   err_msg=f"{name}: {key}")
