"""Unit conversions and power-of-two helpers."""

import pytest

from repro.common import errors, units


class TestTimeUnits:
    def test_nanoseconds_to_picoseconds(self):
        assert units.ns(1) == 1_000

    def test_fractional_nanoseconds_round(self):
        assert units.ns(1.25) == 1_250

    def test_microseconds(self):
        assert units.us(50) == 50_000_000

    def test_milliseconds(self):
        assert units.ms(7) == 7_000_000_000

    def test_seconds(self):
        assert units.seconds(1.2) == 1_200_000_000_000

    def test_roundtrip_to_ns(self):
        assert units.to_ns(units.ns(123.5)) == pytest.approx(123.5)


class TestCapacityUnits:
    def test_kib(self):
        assert units.kib(1) == 1024

    def test_mib(self):
        assert units.mib(2) == 2 * 1024 * 1024

    def test_gib(self):
        assert units.gib(1) == 1 << 30


class TestFrequency:
    def test_one_ghz_period(self):
        assert units.period_ps(units.ghz(1.0)) == 1000

    def test_ddr4_800mhz_period(self):
        assert units.period_ps(units.mhz(800)) == 1250

    def test_four_ghz_period(self):
        assert units.period_ps(units.ghz(4.0)) == 250

    def test_zero_frequency_rejected(self):
        with pytest.raises(errors.ConfigError):
            units.period_ps(0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(errors.ConfigError):
            units.period_ps(-1e9)

    def test_sub_picosecond_period_rejected(self):
        with pytest.raises(errors.ConfigError):
            units.period_ps(5e12)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exp in range(0, 40):
            assert units.is_power_of_two(1 << exp)

    def test_rejects_non_powers(self):
        for value in (0, -1, 3, 6, 100, (1 << 20) + 1):
            assert not units.is_power_of_two(value)

    def test_log2_exact(self):
        assert units.log2_exact(1) == 0
        assert units.log2_exact(2048) == 11

    def test_log2_exact_rejects_non_power(self):
        with pytest.raises(errors.ConfigError):
            units.log2_exact(12)
