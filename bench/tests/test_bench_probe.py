"""The pump charges probe-cache ejects to the commits that were waiting."""

import time
from types import SimpleNamespace

from bench.site import ProbeCache, Pump


class FakePipeline:
    """process_available() delivers the scripted ejects of this drain."""

    def __init__(self, probe):
        self.probe = probe
        self.script = []
        self.tailer = SimpleNamespace(lag=0)

    def process_available(self):
        for key in self.script.pop(0) if self.script else ():
            time.sleep(0.002)
            self.probe.handle_message(None, key)


def test_commits_in_one_tick_are_all_charged_from_the_oldest():
    probe = ProbeCache()
    pipeline = FakePipeline(probe)
    pump = Pump(pipeline, probe)
    pump.phase = "storm"
    pipeline.script = [["/a", "/b", "/c"]]
    oldest = time.perf_counter()
    pump.committed(oldest)
    time.sleep(0.01)
    pump.committed(time.perf_counter())
    pump.tick()
    assert [key for _at, key in probe.events] == ["/a", "/b", "/c"]
    ((phase, before, drain, _when),) = pump.eject_ms
    # one sample for the group: last eject minus the *oldest* commit
    assert phase == "storm"
    assert abs(before + drain - 1e3 * (probe.events[-1][0] - oldest)) < 1e-6
    assert before >= 10 and drain >= 3 * 2
    assert pump.clear_ms == [] and pump.waiting == []


def test_a_group_that_ejects_nothing_is_a_clear_sample():
    probe = ProbeCache()
    pump = Pump(FakePipeline(probe), probe)
    pump.committed(time.perf_counter())
    pump.tick()
    assert pump.eject_ms == [] and len(pump.clear_ms) == 1
    pump.tick()  # nothing waiting: no sample of either kind
    assert len(pump.clear_ms) == 1 and len(pump.blocks) == 2


def test_ejects_with_no_commit_waiting_are_not_attributed():
    probe = ProbeCache()
    pipeline = FakePipeline(probe)
    pump = Pump(pipeline, probe)
    pipeline.script = [["/late"]]
    pump.tick()
    assert len(probe.events) == 1 and pump.eject_ms == []


def test_disabled_pump_is_the_no_invalidation_control():
    probe = ProbeCache()
    pipeline = FakePipeline(probe)
    pipeline.script = [["/a"]]
    pump = Pump(pipeline, probe, enabled=False)
    pump.committed(time.perf_counter())
    pump.tick()
    assert probe.events == [] and pump.blocks == []


def test_lag_peak_is_sampled_at_tick_start():
    probe = ProbeCache()
    pipeline = FakePipeline(probe)
    pump = Pump(pipeline, probe)
    for lag in (3, 9, 2):
        pipeline.tailer.lag = lag
        pump.tick()
    assert pump.lag_peak == 9
