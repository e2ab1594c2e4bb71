//! POLYUFC-SEARCH (Sec. VI-C): selection of the best uncore frequency
//! cap for a kernel, guided by its bottleneck characterization.
//!
//! The search space is the platform's 0.1 GHz frequency grid (≈39 steps
//! on RPL). Because Eqns. 4 and 10 are non-linear in `f_c` and `I`, the
//! objective is explored with a binary search over the grid (with a
//! small local refinement, since the measured bandwidth table makes the
//! objective only piecewise-smooth), plus the paper's ε trade-off rule:
//! for CB kernels a lower frequency is admissible only while the
//! performance loss does not exceed the bandwidth loss by more than ε;
//! for BB kernels a higher frequency is admissible only while the
//! performance gain tracks the bandwidth gain within ε.
//!
//! One model evaluation ([`ParametricModel::point`]) yields everything a
//! grid point is judged on, and [`search_cap`] evaluates each grid index
//! at most once per call: the bisection and the ±3 refinement revisit
//! points, and a revisit reads a memo that lives only for that call (no
//! state outlives a search). A revisit still counts in
//! [`SearchResult::steps`] and still appends its [`SearchStep`] to the
//! log: `steps` is what the paper's search costs in objective
//! evaluations, and the daemon's replies print it as `search_steps`, so
//! the memo changes how long a search takes, never what it reports.

use serde::{Deserialize, Serialize};

use crate::characterize::Boundedness;
use crate::model::{ModelPoint, ParametricModel};

/// What the search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Performance-only: maximize `Perf(f_c)`; ties break toward lower
    /// frequency (free energy savings).
    Performance,
    /// Energy-only: minimize `E(f_c)`.
    Energy,
    /// Energy-delay product (the paper's focus): minimize `E·T`.
    Edp,
}

/// One evaluated frequency during the search.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SearchStep {
    /// Evaluated frequency (GHz).
    pub f_ghz: f64,
    /// Relative performance vs. the reference (max) frequency.
    pub delta_perf: f64,
    /// Relative bandwidth vs. the reference frequency.
    pub delta_bw: f64,
    /// Relative EDP vs. the reference frequency.
    pub delta_edp: f64,
    /// Whether the ε rule admitted this frequency.
    pub admissible: bool,
}

/// The outcome of POLYUFC-SEARCH for one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Chosen cap (GHz).
    pub f_ghz: f64,
    /// Number of objective evaluations.
    pub steps: usize,
    /// Objective value at the chosen cap.
    pub objective_value: f64,
    /// The kernel's class (drives the search direction).
    pub class: Boundedness,
    /// Evaluation log.
    pub log: Vec<SearchStep>,
}

/// The reference point and the ε rule every grid evaluation is judged
/// against: the one copy of the admissibility test and the objective.
struct Judge<'m> {
    model: &'m ParametricModel<'m>,
    objective: Objective,
    epsilon: f64,
    /// The reference (maximum) frequency, and the model there.
    f_ref: f64,
    at_ref: ModelPoint,
}

impl<'m> Judge<'m> {
    fn new(model: &'m ParametricModel<'m>, freqs: &[f64], objective: Objective, eps: f64) -> Self {
        let f_ref = *freqs.last().expect("empty frequency grid");
        let at_ref = model.point(f_ref);
        Judge {
            model,
            objective,
            epsilon: eps,
            f_ref,
            at_ref,
        }
    }

    fn value(&self, p: &ModelPoint) -> f64 {
        match self.objective {
            Objective::Performance => -p.performance,
            Objective::Energy => p.energy,
            Objective::Edp => p.edp,
        }
    }

    /// One model evaluation at `f`: the log entry and the objective
    /// value (whether or not `f` is admissible).
    fn eval(&self, f: f64) -> (SearchStep, f64) {
        let p = self.model.point(f);
        let dp = p.performance / self.at_ref.performance;
        let db = p.bandwidth / self.at_ref.bandwidth;
        let admissible = match self.at_ref.class {
            // CB: allow lower f while perf loss tracks bw loss within ε.
            Boundedness::ComputeBound => (1.0 - dp) <= (1.0 - db) + self.epsilon,
            // BB: allow a setting only when perf gains align with bw gains.
            Boundedness::BandwidthBound => dp >= db - self.epsilon,
        };
        let step = SearchStep {
            f_ghz: f,
            delta_perf: dp,
            delta_bw: db,
            delta_edp: p.edp / self.at_ref.edp,
            admissible,
        };
        (step, self.value(&p))
    }

    /// Whether `v` ties the incumbent `best`: only the performance
    /// objective has ties, values within ε of each other.
    fn ties(&self, v: f64, best: f64) -> bool {
        self.objective == Objective::Performance && (v - best).abs() <= self.epsilon * best.abs()
    }

    /// The result for the admissible `(f, value)` chosen, falling back to
    /// the reference frequency when nothing was admissible; one step per
    /// log entry.
    fn result(&self, best: Option<(f64, f64)>, log: Vec<SearchStep>) -> SearchResult {
        let (f_ghz, objective_value) = best.unwrap_or((self.f_ref, self.value(&self.at_ref)));
        SearchResult {
            f_ghz,
            steps: log.len(),
            objective_value,
            class: self.at_ref.class,
            log,
        }
    }
}

/// Runs POLYUFC-SEARCH for one kernel over the platform frequency grid.
///
/// `freqs` must be the ascending 0.1 GHz grid; `epsilon` is the paper's
/// tunable threshold (they evaluate with `1e-3`).
///
/// # Panics
///
/// Panics if `freqs` is empty.
pub fn search_cap(
    model: &ParametricModel<'_>,
    freqs: &[f64],
    objective: Objective,
    epsilon: f64,
) -> SearchResult {
    let judge = Judge::new(model, freqs, objective, epsilon);
    let mut log = Vec::new();
    // This call's memo: the bisection and the refinement revisit grid
    // points, and a point's evaluation depends only on its index.
    let mut memo: Vec<Option<(SearchStep, f64)>> = vec![None; freqs.len()];
    let mut score = |i: usize, log: &mut Vec<SearchStep>| -> f64 {
        let (step, v) = *memo[i].get_or_insert_with(|| judge.eval(freqs[i]));
        log.push(step);
        if step.admissible {
            v
        } else {
            f64::INFINITY
        }
    };

    // Binary search for the grid minimizer (terminates when the interval
    // collapses — "frequency stabilizes between iterations").
    let (mut lo, mut hi) = (0usize, freqs.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let a = score(mid, &mut log);
        let b = score(mid + 1, &mut log);
        if a <= b {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // Local refinement around the stabilization point (the measured
    // bandwidth table is only piecewise-linear, so the objective can have
    // small local plateaus the bisection may land next to).
    let mut best_idx = lo;
    let mut best_val = score(lo, &mut log);
    for i in lo.saturating_sub(3)..=(lo + 3).min(freqs.len() - 1) {
        let v = score(i, &mut log);
        if v < best_val || (judge.ties(v, best_val) && freqs[i] < freqs[best_idx]) {
            best_idx = i;
            best_val = v;
        }
    }
    let best = best_val.is_finite().then(|| (freqs[best_idx], best_val));
    judge.result(best, log)
}

/// Exhaustive 0.1 GHz scan (the ablation baseline for the binary search):
/// returns the admissible grid minimizer and the number of evaluations.
pub fn scan_cap(
    model: &ParametricModel<'_>,
    freqs: &[f64],
    objective: Objective,
    epsilon: f64,
) -> SearchResult {
    let judge = Judge::new(model, freqs, objective, epsilon);
    let mut log = Vec::with_capacity(freqs.len());
    let mut best: Option<(f64, f64)> = None;
    for &f in freqs {
        let (step, v) = judge.eval(f);
        log.push(step);
        if step.admissible && best.is_none_or(|(_, bv)| v < bv || judge.ties(v, bv)) {
            best = Some((f, v));
        }
    }
    judge.result(best, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_cache::{KernelCacheStats, LevelStats};
    use polyufc_machine::{ExecutionEngine, Platform};
    use polyufc_roofline::RooflineModel;

    fn stats(flops: f64, q_dram: f64) -> KernelCacheStats {
        KernelCacheStats {
            levels: vec![LevelStats {
                accesses: 0.0,
                hits: 0.0,
                misses: q_dram / 64.0,
                fit_level: 0,
            }],
            cold_lines: q_dram / 64.0,
            q_dram_bytes: q_dram,
            flops,
            total_accesses: 0.0,
        }
    }

    fn setup() -> (Platform, RooflineModel) {
        let p = Platform::broadwell();
        let r = RooflineModel::calibrate(&ExecutionEngine::noiseless(p.clone()));
        (p, r)
    }

    #[test]
    fn cb_edp_search_picks_low_frequency() {
        let (p, r) = setup();
        let st = stats(1e12, 1e8); // deep CB
        let m = ParametricModel::new(&r, &st, true, p.cores as f64);
        let res = search_cap(&m, &p.uncore_freqs(), Objective::Edp, 1e-3);
        assert_eq!(res.class, Boundedness::ComputeBound);
        assert!(
            res.f_ghz <= 1.6,
            "deep CB should cap low, got {}",
            res.f_ghz
        );
    }

    #[test]
    fn bb_edp_search_picks_high_frequency() {
        let (p, r) = setup();
        let st = stats(1e9, 3.2e10); // deep BB
        let m = ParametricModel::new(&r, &st, true, p.cores as f64);
        let res = search_cap(&m, &p.uncore_freqs(), Objective::Edp, 1e-3);
        assert_eq!(res.class, Boundedness::BandwidthBound);
        assert!(
            res.f_ghz >= 2.0,
            "deep BB should cap high, got {}",
            res.f_ghz
        );
    }

    #[test]
    fn performance_objective_never_loses_much_perf() {
        let (p, r) = setup();
        for st in [stats(1e12, 1e8), stats(1e9, 3.2e10)] {
            let m = ParametricModel::new(&r, &st, true, p.cores as f64);
            let res = search_cap(&m, &p.uncore_freqs(), Objective::Performance, 1e-3);
            let perf_at = m.performance(res.f_ghz);
            let perf_max = m.performance(p.uncore_max_ghz);
            assert!(perf_at >= perf_max * 0.99, "{} vs {}", perf_at, perf_max);
        }
    }

    #[test]
    fn binary_matches_scan() {
        let (p, r) = setup();
        for st in [stats(1e12, 1e8), stats(1e10, 1e9), stats(1e9, 3.2e10)] {
            let m = ParametricModel::new(&r, &st, true, p.cores as f64);
            let fast = search_cap(&m, &p.uncore_freqs(), Objective::Edp, 1e-3);
            let slow = scan_cap(&m, &p.uncore_freqs(), Objective::Edp, 1e-3);
            let ratio = m.edp(fast.f_ghz) / m.edp(slow.f_ghz);
            assert!(
                ratio <= 1.02,
                "binary ({} GHz) must be near-optimal vs scan ({} GHz): {ratio}",
                fast.f_ghz,
                slow.f_ghz
            );
            assert!(
                fast.steps <= slow.steps,
                "binary must not evaluate more than the scan"
            );
        }
    }

    #[test]
    fn search_stays_in_range() {
        let (p, r) = setup();
        let st = stats(1e10, 1e10);
        let m = ParametricModel::new(&r, &st, true, p.cores as f64);
        for obj in [Objective::Performance, Objective::Energy, Objective::Edp] {
            let res = search_cap(&m, &p.uncore_freqs(), obj, 1e-3);
            assert!(res.f_ghz >= p.uncore_min_ghz - 1e-9);
            assert!(res.f_ghz <= p.uncore_max_ghz + 1e-9);
            assert!(!res.log.is_empty());
        }
    }

    #[test]
    fn epsilon_controls_cb_aggressiveness() {
        let (p, r) = setup();
        // Moderate CB: perf slightly degrades at the lowest frequencies.
        let st = stats(2e10, 1e9);
        let m = ParametricModel::new(&r, &st, true, p.cores as f64);
        let tight = scan_cap(&m, &p.uncore_freqs(), Objective::Energy, 1e-6);
        let loose = scan_cap(&m, &p.uncore_freqs(), Objective::Energy, 0.5);
        assert!(loose.f_ghz <= tight.f_ghz, "looser ε admits lower caps");
    }
}
