import pytest
from hypothesis import given, strategies as st

from v2vsec.kinematics import (
    VehicleState,
    kmh_to_ms,
    ms_to_kmh,
    safety_distance_full,
)


class TestSafetyDistance:
    def test_equal_vehicles_reduce_to_cruise(self):
        host = VehicleState(speed=20.0, accel=5.0)
        assert safety_distance_full(host, host, tau=0.2) == pytest.approx(4.0, rel=1e-12)

    def test_asymmetric_hand_value(self):
        host = VehicleState(speed=20.0, accel=5.0)
        target = VehicleState(speed=10.0, accel=5.0)
        assert safety_distance_full(host, target, tau=0.2) == pytest.approx(34.0, rel=1e-12)

    def test_can_go_negative(self):
        host = VehicleState(speed=5.0, accel=10.0)
        target = VehicleState(speed=40.0, accel=2.0)
        assert safety_distance_full(host, target, tau=0.1) < 0

    @given(
        v=st.floats(min_value=0.0, max_value=100.0),
        a=st.floats(min_value=0.5, max_value=20.0),
        tau=st.floats(min_value=0.01, max_value=5.0),
    )
    def test_cruise_equals_full_under_symmetry(self, v, a, tau):
        state = VehicleState(speed=v, accel=a)
        assert safety_distance_full(state, state, tau) == pytest.approx(
            v * tau, rel=1e-9, abs=1e-9
        )

    def test_cruise_zero_speed(self):
        state = VehicleState(speed=0.0, accel=5.0)
        assert safety_distance_full(state, state, 0.2) == 0.0

    def test_cruise_80_kmh(self):
        state = VehicleState(speed=kmh_to_ms(80.0), accel=5.0)
        assert safety_distance_full(state, state, 0.2) == pytest.approx(
            4.444444444444445, rel=1e-12
        )

    def test_rejects_zero_accel(self):
        with pytest.raises(ValueError):
            VehicleState(speed=10.0, accel=0.0)


class TestUnitConversion:
    def test_zero(self):
        assert kmh_to_ms(0.0) == 0.0

    def test_exact_36(self):
        assert kmh_to_ms(36.0) == 10.0

    def test_80_kmh(self):
        assert kmh_to_ms(80.0) == pytest.approx(22.222222222222221, rel=1e-15)

    @given(x=st.floats(min_value=0.0, max_value=1e4))
    def test_scale_consistency(self, x):
        assert kmh_to_ms(3.6 * x) == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert ms_to_kmh(kmh_to_ms(3.6 * x)) == pytest.approx(3.6 * x, rel=1e-12, abs=1e-12)
