import time

import pytest

from perfbench.calibrate import KERNELS, HostSpeed


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_scaled_seconds_follow_the_reference_kernel(kernel):
    clock = HostSpeed(kernel)
    assert clock.factor == 1.0
    result, scaled = clock.timed(time.sleep, 0.01)
    assert result is None and scaled > 0 and clock.raw_s >= 0.01
    assert clock.factor == clock.raw_s / clock.scaled_s
