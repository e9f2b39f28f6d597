"""The timing arithmetic, on fake clocks, and the frozen kernel."""

import pytest

import refclock
from refclock import K_REF_MS, RefClock, percentile

MS = 1_000_000


class FakeClocks:
    """Clocks that advance only when told to; the kernel "takes" the
    next duration from ``kernel_ms`` each time it runs."""

    def __init__(self, kernel_ms):
        self.wall = self.cpu = self.server = self.kernel_clock = 0
        self._kernel_ms = iter(kernel_ms)

    def run_kernel(self):
        spent = int(next(self._kernel_ms) * MS)
        self.kernel_clock += spent
        # A kernel run is harness CPU and wall time like any other work.
        self.cpu += spent
        self.wall += spent
        return refclock.KERNEL_CHECKSUM

    def advance(self, wall_ms, cpu_ms=0.0, server_ms=0.0):
        self.wall += int(wall_ms * MS)
        self.cpu += int(cpu_ms * MS)
        self.server += int(server_ms * MS)

    def clock(self, server=True):
        return RefClock(
            (lambda: self.server) if server else None,
            wall=lambda: self.wall, cpu=lambda: self.cpu,
            kernel_cpu=lambda: self.kernel_clock,
            run_kernel=self.run_kernel)


def test_cpu_is_scaled_by_the_neighbouring_kernels_and_wait_is_not():
    # Kernel reads 0.5 ms before and 0.3 ms after: k_local is K_REF, so
    # this host is at reference speed and CPU passes through unscaled.
    fake = FakeClocks([0.5, 0.3])
    clock = fake.clock()
    clock.begin()
    fake.advance(wall_ms=50.0, cpu_ms=2.0, server_ms=8.0)
    op = clock.end()
    assert op.harness_cpu_ms == pytest.approx(2.0)
    assert op.server_cpu_ms == pytest.approx(8.0)
    assert op.wait_ms == pytest.approx(40.0)
    assert op.ref_ms == pytest.approx(50.0)
    assert op.raw_ms == pytest.approx(50.0)


def test_a_host_at_half_speed_halves_the_cpu_of_a_cpu_bound_segment():
    fake = FakeClocks([0.9, 0.7])           # k_local 0.8 = 2 x K_REF
    clock = fake.clock()
    clock.begin()
    fake.advance(wall_ms=10.0, cpu_ms=2.0, server_ms=8.0)
    op = clock.end()
    assert K_REF_MS == 0.40
    assert op.cpu_ms == pytest.approx(5.0)
    assert op.wait_ms == 0.0
    assert op.ref_ms == pytest.approx(5.0)


def test_cpu_hidden_behind_a_timer_is_left_as_measured():
    # 10 ms of CPU and 40 ms of wait: the wait is long enough to have
    # covered all of the work, so the segment is taken to last 50 ms at
    # any speed, while its CPU cost is still reported at reference speed.
    fake = FakeClocks([0.9, 0.7])
    clock = fake.clock()
    clock.begin()
    fake.advance(wall_ms=50.0, cpu_ms=2.0, server_ms=8.0)
    op = clock.end()
    assert op.cpu_ms == pytest.approx(5.0)
    assert op.wait_ms == pytest.approx(40.0)
    assert op.ref_ms == pytest.approx(50.0)


def test_a_short_wait_hides_only_its_share_of_the_cpu():
    fake = FakeClocks([0.9, 0.7])
    clock = fake.clock()
    clock.begin()
    fake.advance(wall_ms=11.0, cpu_ms=2.0, server_ms=8.0)
    op = clock.end()
    # A tenth of the CPU may have overlapped the 1 ms wait:
    # 5 + 1 - (5 - 10) * 0.1
    assert op.ref_ms == pytest.approx(6.5)


def test_in_process_idle_time_is_preemption_not_wait():
    fake = FakeClocks([0.4, 0.4])
    clock = fake.clock(server=False)
    clock.begin()
    fake.advance(wall_ms=12.0, cpu_ms=10.0)
    op = clock.end()
    assert op.wait_ms == 0.0
    assert op.preempt_ms == pytest.approx(2.0)
    assert op.ref_ms == pytest.approx(10.0)


def test_the_after_reading_is_the_next_segments_before():
    fake = FakeClocks([0.4, 0.2, 0.6])
    clock = fake.clock(server=False)
    clock.begin()
    fake.advance(wall_ms=3.0, cpu_ms=3.0)
    assert clock.end().ref_ms == pytest.approx(3.0 * 0.4 / 0.3)
    clock.begin()
    fake.advance(wall_ms=3.0, cpu_ms=3.0)
    assert clock.end().ref_ms == pytest.approx(3.0)     # (0.2 + 0.6) / 2


def test_kernel_runs_inside_a_segment_are_neither_work_nor_wait():
    fake = FakeClocks([0.4, 0.4, 0.4, 0.4])
    clock = fake.clock()
    clock.begin()
    fake.advance(wall_ms=10.0, cpu_ms=1.0, server_ms=5.0)
    clock.tick()
    clock.tick()
    op = clock.end()
    assert op.harness_cpu_ms == pytest.approx(1.0)
    assert op.server_cpu_ms == pytest.approx(5.0)
    assert op.wait_ms == pytest.approx(4.0)


def test_a_lap_splits_a_segment_without_running_the_kernel():
    fake = FakeClocks([0.4, 0.4])
    clock = fake.clock()
    clock.begin()
    fake.advance(wall_ms=1.0, cpu_ms=1.0)
    clock.lap()
    fake.advance(wall_ms=43.0, cpu_ms=1.0, server_ms=2.0)
    op = clock.end()
    assert op.ref_ms == pytest.approx(44.0)
    assert clock.last_lap.ref_ms == pytest.approx(43.0)
    assert clock.last_lap.wait_ms == pytest.approx(40.0)


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 0.90) == 90
    assert percentile(samples, 0.50) == 50
    with pytest.raises(ValueError, match="beyond"):
        percentile(samples[:99], 0.90)
    with pytest.raises(ValueError, match="beyond"):
        percentile(samples, 0.99)
    assert percentile(samples, 0.99, min_beyond=1) == 99
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_the_kernel_computes_what_it_always_did():
    assert refclock.kernel() == refclock.KERNEL_CHECKSUM


def test_the_kernel_cannot_change_silently():
    # Editing the kernel, its data, K_REF_MS or the scaling formula moves
    # every reference-speed number.  That is a re-baseline — its own
    # benchmark change, with baseline.json measured again — not a side
    # effect of another edit.
    assert refclock.kernel_fingerprint() == PINNED_FINGERPRINT


PINNED_FINGERPRINT = \
    "231a081b6498fe444129f8ca485b28477496678c97ddb08d8368689b3df59061"
