//! POLYUFC-SEARCH against an oracle that evaluates the model on every
//! call: the search memoises per grid index and the model computes each
//! grid point once ([`ParametricModel::point`]), and neither may move a
//! bit of what a search reports — the chosen cap, `steps` (printed on the
//! wire as `search_steps`), the objective value, the class and every log
//! entry. The oracle below is the search and the Eqn. 5/6/10/11
//! composition as they were written before either change, over the
//! unchanged `exec_time`.

use std::sync::OnceLock;

use proptest::prelude::*;

use polyufc::search::{scan_cap, SearchStep};
use polyufc::{search_cap, Boundedness, Objective, ParametricModel, SearchResult};
use polyufc_cache::{KernelCacheStats, LevelStats};
use polyufc_machine::{ExecutionEngine, Platform};
use polyufc_roofline::RooflineModel;

const EPSILONS: [f64; 5] = [0.0, 1e-6, 1e-3, 0.05, 0.5];
const OBJECTIVES: [Objective; 3] = [Objective::Performance, Objective::Energy, Objective::Edp];

fn platform(ix: usize) -> &'static (Platform, RooflineModel) {
    static P: OnceLock<[(Platform, RooflineModel); 2]> = OnceLock::new();
    &P.get_or_init(|| {
        [Platform::broadwell(), Platform::raptor_lake()].map(|p| {
            let r = RooflineModel::calibrate(&ExecutionEngine::noiseless(p.clone()));
            (p, r)
        })
    })[ix]
}

/// The model quantities, each evaluated anew on every call.
struct Oracle<'a>(&'a ParametricModel<'a>);

impl Oracle<'_> {
    fn performance(&self, f: f64) -> f64 {
        self.0.stats.flops / self.0.exec_time(f).max(1e-15)
    }

    fn bandwidth(&self, f: f64) -> f64 {
        self.0.stats.q_dram_bytes / self.0.exec_time(f).max(1e-15)
    }

    fn class_at(&self, f: f64) -> Boundedness {
        if self.0.oi() >= self.0.roofline.time_balance(f) {
            Boundedness::ComputeBound
        } else {
            Boundedness::BandwidthBound
        }
    }

    fn avg_power(&self, f: f64) -> f64 {
        let m = self.0;
        let b = m.roofline.time_balance(f);
        let i = m.oi().max(1e-9);
        let p_idle = m.roofline.uncore_idle(f);
        let p_mem_active = (m.roofline.p_dram_hat(f) - p_idle).max(0.0);
        let pf = m.roofline.p_hat_fpu * if m.parallel { 1.0 } else { 0.25 };
        let dynamic = match self.class_at(f) {
            Boundedness::ComputeBound => p_mem_active * (b / i).min(1.0) + pf,
            Boundedness::BandwidthBound => p_mem_active + pf * (i / b).min(1.0),
        };
        m.roofline.p_con + p_idle + dynamic
    }

    fn energy(&self, f: f64) -> f64 {
        let m = self.0;
        let t = m.exec_time(f);
        let p = self.avg_power(f);
        let pf = m.roofline.p_hat_fpu * if m.parallel { 1.0 } else { 0.25 };
        let fpu_share = match self.class_at(f) {
            Boundedness::ComputeBound => pf,
            Boundedness::BandwidthBound => pf * (m.oi() / m.roofline.time_balance(f)).min(1.0),
        };
        let flop_energy = m.stats.flops * m.roofline.e_fpu;
        flop_energy + (p - fpu_share).max(0.0) * t
    }

    fn edp(&self, f: f64) -> f64 {
        self.energy(f) * self.0.exec_time(f)
    }

    fn value(&self, objective: Objective, f: f64) -> f64 {
        match objective {
            Objective::Performance => -self.performance(f),
            Objective::Energy => self.energy(f),
            Objective::Edp => self.edp(f),
        }
    }

    fn step(&self, f: f64, class: Boundedness, refs: (f64, f64, f64), eps: f64) -> SearchStep {
        let dp = self.performance(f) / refs.0;
        let db = self.bandwidth(f) / refs.1;
        let de = self.edp(f) / refs.2;
        let admissible = match class {
            Boundedness::ComputeBound => (1.0 - dp) <= (1.0 - db) + eps,
            Boundedness::BandwidthBound => dp >= db - eps,
        };
        SearchStep {
            f_ghz: f,
            delta_perf: dp,
            delta_bw: db,
            delta_edp: de,
            admissible,
        }
    }

    fn refs(&self, f_ref: f64) -> (Boundedness, (f64, f64, f64)) {
        let refs = (
            self.performance(f_ref),
            self.bandwidth(f_ref),
            self.edp(f_ref),
        );
        (self.class_at(f_ref), refs)
    }

    /// The bisection + ±3 refinement, evaluating on every visit.
    fn search(&self, freqs: &[f64], objective: Objective, eps: f64) -> SearchResult {
        let f_ref = *freqs.last().unwrap();
        let (class, refs) = self.refs(f_ref);
        let mut log = Vec::new();
        let mut score = |f: f64| {
            let step = self.step(f, class, refs, eps);
            log.push(step);
            if step.admissible {
                self.value(objective, f)
            } else {
                f64::INFINITY
            }
        };
        let (mut lo, mut hi) = (0usize, freqs.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let a = score(freqs[mid]);
            let b = score(freqs[mid + 1]);
            if a <= b {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut best_idx = lo;
        let mut best_val = score(freqs[lo]);
        for i in lo.saturating_sub(3)..=(lo + 3).min(freqs.len() - 1) {
            let v = score(freqs[i]);
            if v < best_val
                || (objective == Objective::Performance
                    && (v - best_val).abs() <= eps * best_val.abs()
                    && freqs[i] < freqs[best_idx])
            {
                best_idx = i;
                best_val = v;
            }
        }
        let (f_ghz, objective_value) = if best_val.is_finite() {
            (freqs[best_idx], best_val)
        } else {
            (f_ref, self.value(objective, f_ref))
        };
        SearchResult {
            f_ghz,
            steps: log.len(),
            objective_value,
            class,
            log,
        }
    }

    /// The exhaustive scan.
    fn scan(&self, freqs: &[f64], objective: Objective, eps: f64) -> SearchResult {
        let f_ref = *freqs.last().unwrap();
        let (class, refs) = self.refs(f_ref);
        let mut log = Vec::new();
        let mut best: Option<(f64, f64)> = None;
        for &f in freqs {
            let step = self.step(f, class, refs, eps);
            log.push(step);
            if !step.admissible {
                continue;
            }
            let v = self.value(objective, f);
            let replace = match best {
                None => true,
                Some((_, bv)) => {
                    v < bv
                        || (objective == Objective::Performance && (v - bv).abs() <= eps * bv.abs())
                }
            };
            if replace {
                best = Some((f, v));
            }
        }
        let (f_ghz, objective_value) = best.unwrap_or((f_ref, self.value(objective, f_ref)));
        SearchResult {
            f_ghz,
            steps: freqs.len(),
            objective_value,
            class,
            log,
        }
    }
}

fn step_bits(s: &SearchStep) -> (u64, u64, u64, u64, bool) {
    (
        s.f_ghz.to_bits(),
        s.delta_perf.to_bits(),
        s.delta_bw.to_bits(),
        s.delta_edp.to_bits(),
        s.admissible,
    )
}

fn same(got: &SearchResult, want: &SearchResult) -> Result<(), String> {
    let bits = |r: &SearchResult| {
        (
            r.f_ghz.to_bits(),
            r.steps,
            r.objective_value.to_bits(),
            r.class,
            r.log.iter().map(step_bits).collect::<Vec<_>>(),
        )
    };
    if bits(got) == bits(want) {
        Ok(())
    } else {
        Err(format!("got {got:?}\nwant {want:?}"))
    }
}

/// 1–3 cache levels; FLOPs and DRAM traffic drawn over thirteen and seven
/// decades, so the operational intensity spans deep BB (below the power
/// model's 1e-9 clamp) to deep CB, and a kernel with no DRAM traffic.
fn stats(levels: &[(f64, f64)], flops_exp: f64, q_exp: f64, no_dram: bool) -> KernelCacheStats {
    let q_dram = if no_dram { 0.0 } else { 10f64.powf(q_exp) };
    KernelCacheStats {
        levels: levels
            .iter()
            .map(|&(hits_exp, misses_exp)| LevelStats {
                accesses: 0.0,
                hits: 10f64.powf(hits_exp),
                misses: if no_dram { 0.0 } else { 10f64.powf(misses_exp) },
                fit_level: 0,
            })
            .collect(),
        cold_lines: q_dram / 64.0,
        q_dram_bytes: q_dram,
        flops: 10f64.powf(flops_exp),
        total_accesses: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn search_and_scan_match_the_evaluate_every_visit_oracle(
        levels in proptest::collection::vec((0.0f64..8.0, 0.0f64..8.0), 1..4),
        flops_exp in 0.0f64..13.0,
        q_exp in 4.0f64..11.0,
        no_dram in 0usize..16,
        plat in 0usize..2,
        parallel in any::<bool>(),
    ) {
        let (p, rl) = platform(plat);
        let st = stats(&levels, flops_exp, q_exp, no_dram == 0);
        let pm = ParametricModel::new(rl, &st, parallel, p.cores as f64);
        let oracle = Oracle(&pm);
        let freqs = p.uncore_freqs();

        for &f in &freqs {
            let pt = pm.point(f);
            let got = (pt.time, pt.performance, pt.bandwidth, pt.energy, pt.edp);
            let want = (pm.exec_time(f), oracle.performance(f), oracle.bandwidth(f),
                        oracle.energy(f), oracle.edp(f));
            prop_assert_eq!(
                [got.0, got.1, got.2, got.3, got.4].map(f64::to_bits),
                [want.0, want.1, want.2, want.3, want.4].map(f64::to_bits),
                "point({}) = {:?}, oracle {:?}", f, got, want
            );
            prop_assert_eq!(pt.class, oracle.class_at(f));
            prop_assert_eq!(pm.class_at(f), oracle.class_at(f));
            prop_assert_eq!(pm.avg_power(f).to_bits(), oracle.avg_power(f).to_bits());
        }
        for objective in OBJECTIVES {
            for eps in EPSILONS {
                let tag = format!("{objective:?} ε={eps}");
                same(&search_cap(&pm, &freqs, objective, eps), &oracle.search(&freqs, objective, eps))
                    .map_err(|e| format!("search_cap {tag}: {e}"))
                    .unwrap();
                same(&scan_cap(&pm, &freqs, objective, eps), &oracle.scan(&freqs, objective, eps))
                    .map_err(|e| format!("scan_cap {tag}: {e}"))
                    .unwrap();
            }
        }
    }
}
