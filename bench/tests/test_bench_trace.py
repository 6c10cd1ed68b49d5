"""The span recorder: self time, install/uninstall, and a whole traced pass."""

import time

from bench import session
from bench.metrics import PER_LAYER, names
from bench.site import build_bed
from bench.trace import Tracer
from bench.workloads import BY_NAME, SMOKE


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", outer_body, root=True)()
    assert len(tracer.durations["inner"]) == 2
    outer, outer_self = tracer.durations["outer"][0], tracer.self_times["outer"][0]
    assert outer >= 0.05
    assert 0.009 <= outer_self < 0.02
    # each inner span charged its duration to the span that caused it
    assert abs(outer - outer_self - sum(tracer.durations["inner"])) < 1e-9


def test_non_root_wrapper_passes_through_without_a_current_span():
    tracer = Tracer()
    assert tracer.wrap("leaf", lambda: 7)() == 7
    assert "leaf" not in tracer.durations


def test_install_sets_instance_attributes_and_uninstall_restores_them():
    bed = build_bed(BY_NAME["read_cold"], SMOKE, 1)
    gateway = session.AsyncGateway(bed.site, workers=1, tick=bed.pump.tick)
    before_ingest = bed.pipeline.pre_ingest
    tracer = Tracer()
    tracer.install(bed, gateway)
    assert "get" in vars(gateway) and "execute" in vars(bed.database)
    assert bed.pipeline.pre_ingest is not before_ingest
    assert "process_available" in vars(bed.pipeline)
    tracer.uninstall()
    assert "get" not in vars(gateway) and "execute" not in vars(bed.database)
    assert "handle" not in vars(bed.site.balancer)
    assert bed.pipeline.pre_ingest == before_ingest
    assert "process_available" not in vars(bed.pipeline)


def test_traced_smoke_pass_reports_every_layer_metric_and_passes_checks():
    record = session.run(
        session.Config(
            workload=BY_NAME["update_storm"],
            scale=SMOKE,
            seed=7,
            seconds=1.0,
            trace=True,
            setups=1,
        )
    )
    assert record["correct"], record["detail"]["checks"]
    assert list(record["metrics"]) == names(PER_LAYER)
    assert record["detail"]["checks"]["stream eject set == sync twin's"]
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert values["stale_pages"] == 0
    assert values["core.invalidator.decide_ms_per_update"] > 0
    assert values["serve.hit_us"] > 0 and values["db.select_light_us"] > 0
    assert 0 <= values["ledger_unattributed_share"] <= 0.1
