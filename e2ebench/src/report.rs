//! What one run prints: named metrics with units, the operation tally, the
//! statistics the metrics are made of, and the process's peak memory.

use std::fmt::Write as _;
use zipserv_serve::metrics::percentile;

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted: requests served plus checks made.
    attempted: u64,
    /// Operations whose output was wrong.
    failed: u64,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
}

impl Report {
    /// Records a metric. A non-finite value is itself a failure.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(value.is_finite(), &format!("metric {name} is finite"));
        self.metrics.push((name, value, unit));
    }

    /// Counts one operation; `ok == false` counts it failed and says why on
    /// standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("correctness check failed: {what}");
        }
    }

    /// Folds a tally of `attempted` operations, `failed` of them wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("correctness check failed: {what} ({failed} of {attempted})");
        }
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric table followed, on the last line, by the JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<36} {value:>16.6} {unit}");
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Rust prints an f64 in its shortest round-trip form: every
            // digit the measurement has. JSON has no NaN, and a non-finite
            // value already failed the run in `put`.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank quantile of the samples (the serving crate's
/// `percentile`); `0.0` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    percentile(samples.iter().copied(), q).unwrap_or(0.0)
}

/// Nearest-rank median of the samples; `0.0` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident memory of this process in MB (10⁶ bytes), from the
/// kernel's high-water mark; `0.0` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Makes peak RSS repeatable: glibc's allocator gets one arena and a fixed
/// mmap threshold. By default each thread gets its own arena, and the mmap
/// threshold grows as large blocks are freed, so where a block lands
/// depends on which thread allocated first and on what was freed before;
/// peak RSS of one workload and seed then varied between 65 and 77 MB on
/// `tinyllm_generate`, and between 17 and 20 MB on `sim_fleet_tenants`
/// across seeds. With these settings it repeats within 1%. Call before any
/// thread starts.
pub fn steady_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets allocator tunables; glibc accepts
        // them at any time, and no other thread exists yet to race with it.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            // glibc's initial threshold, fixed: blocks of 128 KiB and up
            // are always mapped on their own and unmapped when freed.
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// FNV-1a over 64-bit words, for pinning simulator outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest folded to 32 bits, so it survives a JSON number exactly.
    pub fn fold32(&self) -> u32 {
        ((self.0 >> 32) ^ (self.0 & 0xffff_ffff)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_read_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn render_ends_in_one_json_line() {
        let mut r = Report::default();
        r.put("a_ms", 1.25, "ms");
        r.check(true, "ok");
        let out = r.render();
        let last = out.lines().last().expect("a line");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.put("bad", f64::NAN, "ms");
        assert!(!r.correct());
        assert!(r
            .render()
            .ends_with("{\"bad\": {\"value\": null, \"unit\": \"ms\"}}}"));
    }
}
