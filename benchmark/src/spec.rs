//! The benchmark's fixed parameters, and the metric table read from
//! `BENCHMARK.json` so names, units, directions and bounds live in one
//! place.

use polyufc_serve::json::{self, Value};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20260930;
/// Default `--seconds` (the `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 16;
/// Compile workers of the server under test (`EngineConfig::workers`):
/// one, on a core of its own. The load generator is one thread on one
/// connection (callers of this system are build drivers and job
/// launchers that wait for their reply, so the load is closed-loop); it
/// and the reactor take turns on the other core. No more threads are
/// then ever runnable than the two cores the benchmark asks for. With
/// two workers, two connections and a thread for each, the same code
/// read 12 to 35% apart from one run to the next: reactor wake-ups
/// queued behind a compile, or crossed to an idle core, for as long as
/// the scheduler and the hypervisor saw fit.
pub const WORKERS: usize = 1;
/// Cores the serve workloads need: one for generator and reactor, one for
/// the worker. The benchmark refuses to run on fewer.
pub const CORES_NEEDED: usize = 2;
/// Size of the library's fork-join pool (`POLYUFC_THREADS`): the
/// parallel polysum regions of a compile and the per-kernel fan-out of
/// the simulator run on the calling thread. On the two-vCPU sandbox the
/// short-lived threads of that pool land on one core or on two from one
/// call to the next (the same atax simulation took 110 ms or 56 ms), and
/// no regression bound can contain a coin-flip; the server's reactor and
/// its long-lived worker are the only parallelism the benchmark times.
pub const PAR_THREADS: usize = 1;
/// Requests a pipelined client writes before it reads the replies.
pub const PIPELINE_WINDOW: usize = 32;
/// Times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Fewest timed passes a batch workload makes over its programs, however
/// short `--seconds` is.
pub const MIN_BATCH_ROUNDS: usize = 3;
/// Wall-clock target of `run` without `--trace`, all workloads, 2 cores.
pub const UNTRACED_BUDGET_S: u64 = 120;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot compiles of the 37 evaluation programs.
    CompileCold,
    /// Cached traffic, one request in flight.
    ServeHot,
    /// Distinct programs, one request in flight.
    ServeCold,
    /// 70/20/10 blend in 32-deep pipelined windows.
    ServeMixedPipelined,
    /// Compile, simulate and score against the stock driver.
    EvaluateSim,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::CompileCold,
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeMixedPipelined,
        Workload::EvaluateSim,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile_cold",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeMixedPipelined => "serve_mixed_pipelined",
            Workload::EvaluateSim => "evaluate_sim",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Timed rounds of a serve workload; each lasts `seconds / rounds`.
    /// Many short rounds rather than a few long ones: the sandbox this
    /// runs in loses a core for a second or so every now and then, and a
    /// median over many rounds shrugs off the few that were hit. Cold
    /// rounds are twice as long because their requests differ: a round
    /// needs a few hundred of them before its mix is the workload's.
    pub fn serve_rounds(self) -> usize {
        match self {
            Workload::ServeCold => 10,
            _ => 20,
        }
    }

    /// The latency percentile reported as `latency_tail_us`: the highest
    /// of p90/p95/p99/p99.9 that keeps at least ten samples beyond it in
    /// every round. Batch workloads time a few dozen programs per round,
    /// so their tail is the slowest program (quantile 1).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ServeHot | Workload::ServeMixedPipelined => 0.99,
            Workload::ServeCold => 0.95,
            Workload::CompileCold | Workload::EvaluateSim => 1.0,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the median by which an end-to-end metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The metric tables of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Bounded metrics a user of the system sees (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Unbounded metrics of single layers (`--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the `BENCHMARK.json` this binary was built next to.
    pub fn load() -> Spec {
        let v = json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let table = |key: &str| -> Vec<MetricSpec> {
            v.get(key)
                .and_then(Value::as_arr)
                .expect("BENCHMARK.json lists its metrics")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("metric fields are strings")
                            .to_string()
                    };
                    MetricSpec {
                        name: field("name"),
                        unit: field("unit"),
                        better: if field("better") == "higher" {
                            Better::Higher
                        } else {
                            Better::Lower
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    }
                })
                .collect()
        };
        Spec {
            end_to_end: table("end_to_end"),
            per_layer: table("per_layer"),
        }
    }
}
