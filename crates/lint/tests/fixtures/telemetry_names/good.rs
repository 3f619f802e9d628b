// Fixture: telemetry-store queries via lsdf_obs::names consts — nothing
// here may trip L3. Test code may use ad-hoc literal names.
use lsdf_obs::names;

pub fn watch(ts: &lsdf_obs::TelemetryStore) {
    let _ = ts.counter_series(names::FOO_TOTAL, &[]);
    let _ = ts.counter_window_sum(&lsdf_obs::MetricId::new(names::FOO_TOTAL, &[]), 0);
    let _ = ts.counter_series_filtered(names::FOO_TOTAL, ("project", "p"));
    let _ = ts.hist_series(names::FOO_LATENCY_NS, &[("op", "put")]);
}

#[cfg(test)]
mod tests {
    #[test]
    fn ad_hoc_names_are_fine_in_tests() {
        let ts = lsdf_obs::TelemetryStore::new(lsdf_obs::TelemetryConfig::default());
        let _ = ts.counter_sum("scratch", &[]);
    }
}
