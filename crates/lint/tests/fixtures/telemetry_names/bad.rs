// Fixture: string-literal metric names at telemetry-store query sites —
// each call must trip rule L3 (metric_names), same as registry calls.

pub fn watch(ts: &lsdf_obs::TelemetryStore) {
    let _ = ts.counter_series("foo_total", &[]);
    let _ = ts.counter_sum("foo_total", &[]);
    let _ = ts.counter_window_sum(&lsdf_obs::MetricId::new("foo_total", &[]), 0);
    let _ = ts.counter_series_filtered("foo_total", ("project", "p"));
    let _ = ts.gauge_series("foo_depth", &[]);
    let _ = ts.hist_series(
        "foo_latency_ns",
        &[("op", "put")],
    );
}
