//! The benchmark's metric registry and its result line.
//!
//! Every workload's result line carries every end-to-end metric, as the
//! benchmark contract requires; `README.md` defines each metric per
//! workload. `BENCHMARK.json` must list exactly these names (checked by a
//! test).

use std::collections::BTreeMap;

/// End-to-end metrics of untraced runs that the result line carries and
/// `BENCHMARK.json` bounds: name and unit.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("wall_s", "s")];

/// End-to-end metrics that untraced runs print, where they apply, but the
/// result line does not carry. `cpu_s` moves with `wall_s` and `capacity_rps` is a fixed
/// amount of work divided by it, so bounds on them would count the same
/// noise twice. The others vary between runs on a shared host by about as
/// much as the largest bound a regression gate may use (`README.md` gives
/// the measured spreads).
pub const PRINTED_ONLY: [(&str, &str); 7] = [
    ("cpu_s", "s"),
    ("capacity_rps", "1/s"),
    ("rank_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("sim_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. Seconds are self time
/// as a share of the traced end-to-end time (see `README.md`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("traces.generate.s", "s"),
    ("traces.generate.count", "count"),
    ("traces.summary.s", "s"),
    ("traces.summary.count", "count"),
    ("core.flat.s", "s"),
    ("core.flat.count", "count"),
    ("core.engine.setup.s", "s"),
    ("core.engine.run.s", "s"),
    ("core.engine.run.refs", "count"),
    ("core.engine.run.ticks", "count"),
    ("core.engine.run.refs_per_s", "1/s"),
    ("core.sim.checksum", "count"),
    ("experiments.sweep.s", "s"),
    ("experiments.sweep.failed", "count"),
    ("experiments.journal.bytes", "bytes"),
    ("experiments.explore.parse.s", "s"),
    ("experiments.explore.rank.s", "s"),
    ("experiments.explore.rank.cells", "count"),
    ("experiments.explore.simulate.s", "s"),
    ("experiments.explore.simulate.cells", "count"),
    ("experiments.explore.artifact.s", "s"),
    ("par.cpu_util", "ratio"),
    ("par.idle.s", "s"),
    ("model.predict.s", "s"),
    ("model.predict.count", "count"),
    ("model.within_band_ratio", "ratio"),
    ("serve.proto.parse.s", "s"),
    ("serve.proto.encode.s", "s"),
    ("serve.transport.s", "s"),
    ("serve.failed", "count"),
    ("serve.queued", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.pool.warm_ratio", "ratio"),
    ("loadgen.lag_ms", "ms"),
    ("trace.e2e.s", "s"),
    ("trace.layers.s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.within_slack", "count"),
];

/// Largest `|trace.unattributed_frac|` a traced run may show and still
/// count its layers as accounting for the end-to-end time.
pub const SLACK: f64 = 0.15;

/// Layers whose self seconds make up the traced end-to-end time.
pub const LAYERS: [&str; 15] = [
    "traces.generate.s",
    "traces.summary.s",
    "core.flat.s",
    "core.engine.setup.s",
    "core.engine.run.s",
    "experiments.sweep.s",
    "experiments.explore.parse.s",
    "experiments.explore.rank.s",
    "experiments.explore.simulate.s",
    "experiments.explore.artifact.s",
    "par.idle.s",
    "model.predict.s",
    "serve.proto.parse.s",
    "serve.proto.encode.s",
    "serve.transport.s",
];

/// A workload's measurements.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable notes per metric (sample counts, percentiles).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets a metric with a note printed beside it.
    pub fn set_noted(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.set(name, value);
        self.notes.insert(name.to_string(), note.into());
    }

    /// Adds to a metric (starting from zero).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// A metric's value, zero when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Completes the layer accounting of a traced run whose end-to-end
    /// time is `e2e` seconds: the layer sum, the unattributed share (which
    /// is negative when layers over-account) and the slack verdict.
    pub fn close_accounting(&mut self, e2e: f64) {
        let layers: f64 = LAYERS.iter().map(|l| self.get(l)).sum();
        let unattributed = if e2e > 0.0 { (e2e - layers) / e2e } else { 0.0 };
        self.set("trace.e2e.s", e2e);
        self.set("trace.layers.s", layers);
        self.set("trace.unattributed_frac", unattributed);
        self.set(
            "trace.within_slack",
            f64::from(u8::from(unattributed.abs() <= SLACK)),
        );
    }

    /// The metrics the result line carries for this mode, in order. A
    /// per-layer metric a workload has no value for reads 0. Panics if an
    /// untraced workload left an end-to-end metric unset, which is a
    /// benchmark bug.
    pub fn metrics(&self, traced: bool) -> Metrics {
        let registry: &[(&'static str, &'static str)] =
            if traced { &PER_LAYER } else { &END_TO_END };
        registry
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or_else(|| {
                    assert!(traced, "workload did not report end-to-end metric {name}");
                    0.0
                });
                (name, unit, v)
            })
            .collect()
    }

    /// Every metric this mode prints: the result line's, plus the
    /// [`PRINTED_ONLY`] metrics an untraced run set.
    pub fn printed(&self, traced: bool) -> Metrics {
        let mut all = self.metrics(traced);
        if !traced {
            all.extend(
                PRINTED_ONLY
                    .iter()
                    .filter_map(|&(name, unit)| Some((name, unit, *self.values.get(name)?))),
            );
        }
        all
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Metric name, unit and value.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Formats a finite number with all its digits; non-finite values (which
/// no metric should produce) become 0 so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn registry_names_follow_the_name_rule() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PRINTED_ONLY).chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for layer in LAYERS {
            assert!(valid_name(layer), "{layer}");
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = hbm_serve::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        for (name, _) in END_TO_END.iter().chain(&PRINTED_ONLY) {
            r.set(name, 1.5);
        }
        r.attempted = 3;
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            !line.contains("p50_ms"),
            "printed-only metrics stay off the line"
        );
        assert_eq!(
            r.printed(false).len(),
            END_TO_END.len() + PRINTED_ONLY.len()
        );
        r.values.remove("sim_p50_ms");
        assert_eq!(
            r.printed(false).len(),
            END_TO_END.len() + PRINTED_ONLY.len() - 1,
            "printed-only metrics a workload does not set are left out"
        );
        hbm_serve::json::Json::parse(&line).expect("result line is JSON");
    }

    #[test]
    fn accounting_reports_over_and_under_attribution() {
        let mut r = Report::default();
        r.set("core.engine.run.s", 0.9);
        r.close_accounting(1.0);
        assert!((r.get("trace.unattributed_frac") - 0.1).abs() < 1e-12);
        assert_eq!(r.get("trace.within_slack"), 1.0);
        r.set("serve.transport.s", 0.5);
        r.close_accounting(1.0);
        assert!((r.get("trace.unattributed_frac") + 0.4).abs() < 1e-12);
        assert_eq!(r.get("trace.within_slack"), 0.0);
    }
}
