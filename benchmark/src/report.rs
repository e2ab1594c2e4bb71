//! What one run of one workload reports, and how it is printed.

use std::collections::BTreeMap;

use polyufc_serve::json::{fmt_f64, push_escaped};

use crate::spec::{Better, MetricSpec};
use crate::stats;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its initial 128 KiB, for the sake of
/// [`peak_rss_mib`]. Left alone, the threshold rises to the size of the
/// largest block freed so far, and later blocks of that size are carved
/// from the heap, which does not shrink again: `evaluate_sim` then read
/// 8.3 MiB in two runs of three and 11.8 MiB in the third, same seed,
/// depending on where the cache simulator's tag arrays had landed. With
/// the threshold fixed a large block is mapped for as long as it lives
/// and unmapped after, so the peak follows what the program holds.
/// Interleaved runs with and without it showed no difference in speed on
/// `compile_cold` and `serve_cold`. A no-op on other C libraries.
pub fn fix_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores a tunable of the allocator; it is
        // called once, before the workload spawns any thread.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of one workload run (one pass, traced or not).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked (warm-up rounds included).
    pub attempted: u64,
    /// Operations refused, shed, mis-ordered, answered with wrong bytes
    /// or the wrong error code, or not deterministic.
    pub failed: u64,
    /// Descriptions of the first few failures and failed run-level checks.
    pub problems: Vec<String>,
    /// Per-round samples of each metric; the reported value is their
    /// median. Metrics measured once per run hold a single sample.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Free-form rows printed above the metric table (one per program or
    /// request class).
    pub rows: Vec<String>,
}

/// Failures described in full before the rest are only counted.
const MAX_PROBLEMS: usize = 8;

impl Outcome {
    /// Records one per-round sample of a metric.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Records a metric measured once per run.
    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(name.to_string(), vec![value]);
    }

    /// Keeps a failure's description unless enough are kept already.
    pub fn note(&mut self, problem: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.note(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The reported value of a metric (0 when the workload does not
    /// exercise the layer that produces it).
    pub fn value(&self, name: &str) -> f64 {
        let v = self.samples.get(name).map_or(0.0, |s| stats::median(s));
        // The result line must hold numbers; a ratio with an empty base
        // reads 0 like any other layer that did not run.
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// Inter-quartile spread over rounds as a share of the median.
    pub fn spread(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| stats::iqr_share(s))
    }

    /// The human-readable report: rows, then every metric by name with
    /// unit, direction, bound and spread over rounds.
    pub fn print(&self, workload: &str, specs: &[MetricSpec]) {
        for row in &self.rows {
            println!("  {row}");
        }
        println!(
            "== {workload}: attempted {} failed {} ==",
            self.attempted, self.failed
        );
        for p in &self.problems {
            println!("  FAILED CHECK: {p}");
        }
        let mut idle = 0;
        for m in specs {
            let Some(samples) = self.samples.get(&m.name) else {
                idle += 1;
                continue;
            };
            let dir = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
            let spread = if samples.len() > 1 {
                format!(
                    " | iqr {:.2}% of median over {} rounds",
                    self.spread(&m.name) * 100.0,
                    samples.len()
                )
            } else {
                String::new()
            };
            println!(
                "  {:<34} {:>16.4} {:<6} {dir:<6}{bound}{spread}",
                m.name,
                self.value(&m.name),
                m.unit
            );
        }
        if idle > 0 {
            println!("  ({idle} metrics of layers this workload does not exercise read 0)");
        }
    }

    /// Per-metric spread over rounds, for the parent process of `repeat`.
    pub fn detail_line(&self, specs: &[MetricSpec]) -> String {
        let mut s = String::from("detail: {");
        for (i, m) in specs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_escaped(&mut s, &m.name);
            s.push(':');
            s.push_str(&fmt_f64(self.spread(&m.name)));
        }
        s.push('}');
        s
    }

    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let mut s = String::with_capacity(256 + 64 * specs.len());
        s.push_str("{\"correct\":");
        s.push_str(if self.correct() { "true" } else { "false" });
        s.push_str(&format!(
            ",\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        ));
        for (i, m) in specs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_escaped(&mut s, &m.name);
            s.push_str(":{\"value\":");
            s.push_str(&fmt_f64(self.value(&m.name)));
            s.push_str(",\"unit\":");
            push_escaped(&mut s, &m.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}
