//! Bounded schedule exploration for protocol models.
//!
//! A [`Model`] is a deterministic state machine over N logical threads:
//! the explorer owns the scheduler, the model owns everything else. Each
//! `step(t)` executes one atomic region of thread `t` (one lock-protected
//! critical section in the real code), so every interleaving of regions
//! that the real kernel scheduler could produce corresponds to some
//! schedule here.
//!
//! Exploration is iterative-deepening-free, CHESS-style DFS: from each
//! state, continuing the currently running thread is free, while
//! *preempting* it (switching away from a thread that is still enabled)
//! spends one unit of a fixed preemption budget. Small budgets are known
//! to catch the overwhelming majority of real concurrency bugs while
//! keeping the schedule count tractable; a seeded-random tail then
//! samples schedules *beyond* the bound with an unlimited budget.
//!
//! Every terminal state is checked for deadlock (some thread not done but
//! nothing enabled — this is also how a lost wakeup manifests: the waiter
//! is parked forever) and for the model's own `finish` invariants. A
//! violation carries the schedule string (e.g. `"0.0.2.1"`) that
//! [`replay`] re-executes deterministically.

/// A deterministic protocol model explored by [`Explorer`].
///
/// Implementations must be `Clone` (the DFS snapshots states at branch
/// points) and fully deterministic: no wall clock, no OS randomness —
/// all nondeterminism comes from the schedule.
pub trait Model: Clone {
    /// Short protocol name for reports.
    fn name(&self) -> &'static str;
    /// Number of logical threads.
    fn threads(&self) -> usize;
    /// True once thread `t` has run to completion.
    fn done(&self, t: usize) -> bool;
    /// True if thread `t` can take a step now (false when done or
    /// blocked — this is how models express a park or a join).
    fn enabled(&self, t: usize) -> bool;
    /// Executes one atomic region of thread `t`; `Err` is a safety
    /// violation observed *during* the step (e.g. a double completion).
    fn step(&mut self, t: usize) -> Result<(), String>;
    /// Invariants over the final quiescent state (e.g. every request
    /// answered exactly once).
    fn finish(&self) -> Result<(), String>;
}

/// A safety or liveness violation, replayable via its schedule string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Dot-separated thread indices, in execution order.
    pub schedule: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "violation at schedule {}: {}",
            self.schedule, self.message
        )
    }
}

/// Exploration outcome: schedule counts, depth, and the first violation.
#[derive(Debug, Clone)]
pub struct ExploreStats {
    /// Complete schedules explored by the bounded DFS.
    pub schedules: u64,
    /// Additional seeded-random schedules run beyond the bound.
    pub random_schedules: u64,
    /// Longest schedule executed (steps).
    pub max_depth: usize,
    /// First violation found, if any.
    pub violation: Option<Violation>,
}

/// Bounded DFS explorer with a preemption budget and a seeded-random
/// tail; see the module docs.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Preemptive context switches allowed per schedule in the DFS.
    pub max_preemptions: usize,
    /// Hard per-schedule step bound (guards against unproductive loops
    /// in a buggy model; never reached by the shipped models).
    pub max_steps: usize,
    /// DFS stops counting new schedules past this cap.
    pub max_schedules: u64,
    /// Random schedules (unlimited preemptions) run after the DFS.
    pub random_tail: u64,
    /// Seed for the random tail (SplitMix64).
    pub seed: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_preemptions: 3,
            max_steps: 256,
            max_schedules: 200_000,
            random_tail: 2_000,
            seed: 0x706f6c79_75666331,
        }
    }
}

/// Deterministic SplitMix64 stream for the random tail.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Renders a schedule as the dot-separated string printed in reports.
pub fn schedule_string(schedule: &[usize]) -> String {
    let mut s = String::new();
    for (i, t) in schedule.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&t.to_string());
    }
    s
}

/// Parses a schedule string back into thread indices.
pub fn parse_schedule(s: &str) -> Result<Vec<usize>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|tok| {
            tok.parse::<usize>()
                .map_err(|e| format!("bad schedule token {tok:?}: {e}"))
        })
        .collect()
}

/// The enabled threads of `m`, lowest index first.
fn enabled_set<M: Model>(m: &M) -> Vec<usize> {
    (0..m.threads()).filter(|&t| m.enabled(t)).collect()
}

fn all_done<M: Model>(m: &M) -> bool {
    (0..m.threads()).all(|t| m.done(t))
}

/// Checks a quiescent (no thread enabled) state: either everything is
/// done and `finish` holds, or some thread is parked forever.
fn check_terminal<M: Model>(m: &M, schedule: &[usize]) -> Option<Violation> {
    if all_done(m) {
        if let Err(msg) = m.finish() {
            return Some(Violation {
                schedule: schedule_string(schedule),
                message: msg,
            });
        }
        return None;
    }
    let stuck: Vec<String> = (0..m.threads())
        .filter(|&t| !m.done(t))
        .map(|t| format!("t{t}"))
        .collect();
    Some(Violation {
        schedule: schedule_string(schedule),
        message: format!(
            "deadlock/lost wakeup: no thread enabled but {} never finished",
            stuck.join(", ")
        ),
    })
}

impl Explorer {
    /// Explores `model` exhaustively within the preemption bound, then
    /// samples the seeded-random tail. Stops at the first violation.
    pub fn explore<M: Model>(&self, model: &M) -> ExploreStats {
        let mut stats = ExploreStats {
            schedules: 0,
            random_schedules: 0,
            max_depth: 0,
            violation: None,
        };
        let mut prefix = Vec::new();
        self.dfs(model, &mut prefix, self.max_preemptions, None, &mut stats);
        if stats.violation.is_none() {
            let mut rng = SplitMix64::new(self.seed);
            for _ in 0..self.random_tail {
                stats.random_schedules += 1;
                if let Some(v) = self.random_run(model, &mut rng, &mut stats) {
                    stats.violation = Some(v);
                    break;
                }
            }
        }
        stats
    }

    fn dfs<M: Model>(
        &self,
        state: &M,
        prefix: &mut Vec<usize>,
        budget: usize,
        running: Option<usize>,
        stats: &mut ExploreStats,
    ) {
        if stats.violation.is_some() || stats.schedules >= self.max_schedules {
            return;
        }
        stats.max_depth = stats.max_depth.max(prefix.len());
        let enabled = enabled_set(state);
        if enabled.is_empty() {
            stats.schedules += 1;
            stats.violation = check_terminal(state, prefix);
            return;
        }
        if prefix.len() >= self.max_steps {
            stats.schedules += 1;
            stats.violation = Some(Violation {
                schedule: schedule_string(prefix),
                message: format!(
                    "schedule exceeded {} steps without quiescing",
                    self.max_steps
                ),
            });
            return;
        }
        for &t in &enabled {
            let preemptive = match running {
                Some(r) => r != t && state.enabled(r),
                None => false,
            };
            if preemptive && budget == 0 {
                continue;
            }
            let mut next = state.clone();
            prefix.push(t);
            if let Err(msg) = next.step(t) {
                stats.schedules += 1;
                stats.violation = Some(Violation {
                    schedule: schedule_string(prefix),
                    message: msg,
                });
                prefix.pop();
                return;
            }
            let next_budget = if preemptive { budget - 1 } else { budget };
            self.dfs(&next, prefix, next_budget, Some(t), stats);
            prefix.pop();
            if stats.violation.is_some() {
                return;
            }
        }
    }

    fn random_run<M: Model>(
        &self,
        model: &M,
        rng: &mut SplitMix64,
        stats: &mut ExploreStats,
    ) -> Option<Violation> {
        let mut m = model.clone();
        let mut schedule = Vec::new();
        loop {
            let enabled = enabled_set(&m);
            if enabled.is_empty() {
                stats.max_depth = stats.max_depth.max(schedule.len());
                return check_terminal(&m, &schedule);
            }
            if schedule.len() >= self.max_steps {
                return Some(Violation {
                    schedule: schedule_string(&schedule),
                    message: format!(
                        "schedule exceeded {} steps without quiescing",
                        self.max_steps
                    ),
                });
            }
            let t = enabled[(rng.next_u64() % enabled.len() as u64) as usize];
            schedule.push(t);
            if let Err(msg) = m.step(t) {
                return Some(Violation {
                    schedule: schedule_string(&schedule),
                    message: msg,
                });
            }
        }
    }
}

/// Deterministically re-executes `schedule` against a fresh clone of
/// `model`, returning the violation it reproduces (a violation found by
/// [`Explorer::explore`] replays to the same message), or `Ok(())` if
/// the schedule runs clean.
pub fn replay<M: Model>(model: &M, schedule: &str) -> Result<(), Violation> {
    let steps = parse_schedule(schedule).map_err(|message| Violation {
        schedule: schedule.to_string(),
        message,
    })?;
    let mut m = model.clone();
    let mut ran = Vec::new();
    for t in steps {
        if t >= m.threads() || !m.enabled(t) {
            return Err(Violation {
                schedule: schedule.to_string(),
                message: format!(
                    "schedule names thread {t} which is not enabled at step {}",
                    ran.len()
                ),
            });
        }
        ran.push(t);
        if let Err(msg) = m.step(t) {
            return Err(Violation {
                schedule: schedule_string(&ran),
                message: msg,
            });
        }
    }
    // A full replayed schedule ends quiescent; surface terminal checks
    // (deadlock / finish invariants) exactly like the explorer would.
    if enabled_set(&m).is_empty() {
        if let Some(v) = check_terminal(&m, &ran) {
            return Err(v);
        }
    }
    Ok(())
}
