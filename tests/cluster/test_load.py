"""Background load injection."""

import pytest

from repro.cluster import BackgroundCpuLoad, Cluster, LoadPhase


class TestBackgroundCpuLoad:
    def test_load_slows_foreground_job(self, kernel):
        cluster = Cluster.full_mesh(["n0"], kernel=kernel)
        load = BackgroundCpuLoad(cluster, "n0", [
            LoadPhase(duration_seconds=1000.0, parallelism=1, demand=5.0)])
        load.start()
        finish = {}

        def foreground():
            yield cluster.node("n0").compute(10.0)
            finish["t"] = kernel.now
        kernel.spawn(foreground())
        kernel.run(until=1000.0)
        # With one background competitor the foreground job takes ~2x.
        assert finish["t"] > 15.0

    def test_load_stops_after_phases(self, kernel):
        cluster = Cluster.full_mesh(["n0"], kernel=kernel)
        load = BackgroundCpuLoad(cluster, "n0", [
            LoadPhase(duration_seconds=10.0, demand=1.0)])
        load.start()
        kernel.run(until=100.0)
        issued_at_10 = load.jobs_issued
        kernel.run(until=200.0)
        assert load.jobs_issued == issued_at_10
        assert issued_at_10 >= 10

    def test_parallelism_multiplies_issue_rate(self, kernel):
        cluster = Cluster.full_mesh(["n0"], kernel=kernel)
        serial = BackgroundCpuLoad(cluster, "n0", [
            LoadPhase(duration_seconds=50.0, parallelism=1, demand=1.0)])
        serial.start()
        kernel.run(until=60.0)
        serial_jobs = serial.jobs_issued

        kernel2 = type(kernel)()
        cluster2 = Cluster.full_mesh(["n0"], kernel=kernel2)
        parallel = BackgroundCpuLoad(cluster2, "n0", [
            LoadPhase(duration_seconds=50.0, parallelism=4, demand=1.0)])
        parallel.start()
        kernel2.run(until=60.0)
        # Four workers sharing a single CPU issue the same total rate of
        # work, so completed jobs stay comparable (PS conserves work).
        assert parallel.jobs_issued == pytest.approx(serial_jobs, abs=8)

    def test_stop_interrupts(self, kernel):
        cluster = Cluster.full_mesh(["n0"], kernel=kernel)
        load = BackgroundCpuLoad(cluster, "n0", [
            LoadPhase(duration_seconds=1e9, demand=1.0)])
        process = load.start()
        kernel.run(until=5.0)
        load.stop()
        kernel.run(until=10.0)
        assert not process.is_alive

