//! Metric catalogue, sample statistics and the result line.
//!
//! The two catalogues below are the benchmark's contract: `END_TO_END` is
//! what a run with `--trace 0` prints, `PER_LAYER` what a run with
//! `--trace 1` prints, each on every workload. `BENCHMARK.json` lists the
//! same names (a unit test keeps the two in step).

use std::collections::BTreeMap;

/// End-to-end metrics (name, unit), measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("app_overhead_pct", "%"),
    ("ckpt_ms_p50", "ms"),
    ("first_step_ms_p50", "ms"),
    ("flush_mib_s", "MiB/s"),
];

/// Per-layer metrics (name, unit), from the traced run. A layer a
/// workload does not exercise reports 0. The `tail.*` entries are the
/// 90th percentiles of the end-to-end timings: they are not gated because
/// on a shared 2-vCPU host their run-to-run spread reached 0.2–0.5 of the
/// median.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail.ckpt_ms_p90", "ms"),
    ("tail.first_step_ms_p90", "ms"),
    ("mem.faults", "count/ckpt"),
    ("mem.fault_mean_us", "us"),
    ("core.wait_pages", "pages/ckpt"),
    ("core.cow_pages", "pages/ckpt"),
    ("core.avoided_pages", "pages/ckpt"),
    ("core.lock_acq_per_page", "count/page"),
    ("runtime.ckpt_self_ms", "ms"),
    ("runtime.clean_skip_ratio", "ratio"),
    ("runtime.restore.demand_faults", "count/restore"),
    ("runtime.restore.prefetch_ratio", "ratio"),
    ("runtime.restore.lazy_fill_mib_s", "MiB/s"),
    ("restore.ttfi_ms_p50", "ms"),
    ("restore.ttfi_ms_p90", "ms"),
    ("restore.mib_s", "MiB/s"),
    ("storage.ckpt_child_ms", "ms"),
    ("storage.write_pages_ms", "ms"),
    ("storage.finish_ms_p50", "ms"),
    ("storage.fsyncs_per_epoch", "count/epoch"),
    ("storage.bytes_per_syscall", "B"),
    ("storage.encode_ratio", "ratio"),
    ("storage.compact_bytes_per_user_byte", "ratio"),
    ("storage.stored_per_user_byte", "ratio"),
    ("storage.scrub_ms", "ms/ckpt"),
    ("storage.scrub_mib", "MiB/ckpt"),
    ("storage.read_page_us_mean", "us"),
    ("storage.page_reads_per_page", "count/page"),
    ("storage.rung.memcpy_mib_s", "MiB/s"),
    ("storage.rung.crc64_mib_s", "MiB/s"),
    ("storage.rung.codec_mib_s", "MiB/s"),
    ("storage.rung.epoch_nosync_mib_s", "MiB/s"),
    ("storage.rung.epoch_sync_mib_s", "MiB/s"),
    ("cache.hit_ratio", "ratio"),
    ("policy.copy_bytes_per_user_byte", "ratio"),
    ("policy.drain_ms", "ms"),
    ("policy.backlog_max", "count"),
    ("service.flushes_failed", "count"),
    ("service.admission_rejections", "count"),
    ("service.drain_backlog_max", "count"),
    ("service.light_ckpt_ms_p50", "ms"),
    ("service.light_ckpt_ms_p90", "ms"),
    ("gen.lag_ms_p90", "ms"),
    ("bench.failed_op_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an ascending-sorted sample (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Contiguous windows a run's samples are split into. Tails, ratios and
/// rates are computed per window and reported as the median over windows,
/// so a burst of outside noise that hits one window does not move them.
pub const WINDOWS: usize = 5;

/// Median over [`WINDOWS`] contiguous, equal-count windows of `samples`
/// (in measurement order) of `stat(window)`; 0 for no samples.
pub fn windowed<T>(samples: &[T], stat: impl Fn(&[T]) -> f64) -> f64 {
    let n = samples.len();
    let w = WINDOWS.min(n);
    if w == 0 {
        return 0.0;
    }
    let per_window: Vec<f64> = (0..w)
        .map(|i| stat(&samples[i * n / w..(i + 1) * n / w]))
        .collect();
    median(&per_window)
}

/// `sum(a) / sum(b)` over `(a, b)` pairs.
pub fn ratio_of_sums(pairs: &[(f64, f64)]) -> f64 {
    let (a, b) = pairs
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
    ratio(a, b)
}

/// `num / den`, 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// Samples the value was computed from (1 for a single measurement).
    pub samples: usize,
}

/// Metrics of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Metric>,
}

impl Report {
    /// Record `name` (must be in a catalogue).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, Metric { value, samples });
    }

    /// Record the median and 90th percentile of `samples` (in
    /// measurement order) as `p50` and `p90`, each the median over
    /// [`WINDOWS`] windows.
    pub fn set_tail(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        let q = |q: f64| {
            move |w: &[f64]| {
                let mut v = w.to_vec();
                v.sort_by(f64::total_cmp);
                quantile(&v, q)
            }
        };
        self.set(p50, windowed(samples, q(0.5)), samples.len());
        self.set(p90, windowed(samples, q(0.9)), samples.len());
    }

    /// Record `(windowed ratio_of_sums(pairs) - 1)` as a percentage: the
    /// overhead of `a` over `b`.
    pub fn set_overhead(&mut self, name: &'static str, pairs: &[(f64, f64)]) {
        self.set(
            name,
            (windowed(pairs, ratio_of_sums) - 1.0) * 100.0,
            pairs.len(),
        );
    }

    /// Record the median MiB/s of `(bytes, seconds)` pairs, each pair's
    /// own rate, over [`WINDOWS`] windows. A per-pair median, unlike
    /// bytes over summed seconds, is not pulled down by the few pairs a
    /// host stall stretched.
    pub fn set_rate(&mut self, name: &'static str, pairs: &[(f64, f64)]) {
        let rates: Vec<f64> = pairs
            .iter()
            .map(|&(bytes, secs)| ratio(bytes / (1024.0 * 1024.0), secs))
            .collect();
        self.set(name, windowed(&rates, median), pairs.len());
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|m| m.value)
    }

    /// Print `catalogue` as a table (name, value, unit, samples), then the
    /// other metrics the run recorded (marked as outside the catalogue),
    /// then the one-line JSON result the harness parses, which holds the
    /// catalogue only. Metrics a workload did not record read 0 with 0
    /// samples; a non-finite value marks the run incorrect.
    pub fn print(
        &self,
        catalogue: &[(&'static str, &'static str)],
        mut correct: bool,
        attempted: u64,
        failed: u64,
    ) {
        let mut json = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let m = self.values.get(name).copied().unwrap_or(Metric {
                value: 0.0,
                samples: 0,
            });
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            println!("  {name:<38} {value:>14.4} {unit:<13} n={}", m.samples);
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        for (name, m) in &self.values {
            if !catalogue.iter().any(|(n, _)| n == name) {
                let unit = unit_of(name).unwrap_or("");
                println!(
                    "  ({name:<36}) {:>14.4} {unit:<13} n={} (not in this catalogue)",
                    m.value, m.samples
                );
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn windowed_median_ignores_one_disturbed_window() {
        let mut v = vec![1.0; 100];
        v[..20].iter_mut().for_each(|x| *x = 50.0);
        assert_eq!(
            windowed(&v, |w| w.iter().sum::<f64>() / w.len() as f64),
            1.0
        );
        assert_eq!(windowed(&[2.0, 4.0], |w| w[0]), 2.0);
        assert_eq!(windowed::<f64>(&[], |_| 9.0), 0.0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list end")];
            let listed: Vec<&str> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name end")])
                .collect();
            let ours: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(listed, ours, "{section} names");
            for (name, unit) in catalogue.iter() {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&needle), "{section}: {name} unit {unit}");
            }
        }
    }
}
