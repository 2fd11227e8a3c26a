"""Clock / FakeClock tests: fake time moves only when told to."""

from repro.chaos import CLOCK, Clock, FakeClock


class TestRealClock:
    def test_monotonic_advances(self):
        clock = Clock()
        a = clock.monotonic()
        clock.sleep_sync(0.001)
        assert clock.monotonic() > a

    def test_default_instance_is_a_clock(self):
        assert isinstance(CLOCK, Clock)
        assert not isinstance(CLOCK, FakeClock)


class TestFakeClock:
    def test_starts_at_start_and_advances(self):
        fake = FakeClock(start=100.0)
        assert fake.monotonic() == 100.0
        fake.advance(2.5)
        assert fake.monotonic() == 102.5

    def test_sleep_sync_jumps_time_without_blocking(self):
        fake = FakeClock()
        before = fake.monotonic()
        fake.sleep_sync(3600.0)  # returns immediately
        assert fake.monotonic() == before + 3600.0
