//! Bounded schedule exploration for protocol harnesses.
//!
//! A [`Model`] is a deterministic state machine over N logical threads:
//! the explorer owns the scheduler, the model owns everything else. Each
//! `step(t)` executes one atomic region of thread `t` — in the serving
//! stack's harnesses, one call into production code that holds at most
//! one lock — so every interleaving of regions that the real kernel
//! scheduler could produce corresponds to some schedule here.
//!
//! States are never cloned: the explorer is handed a constructor and
//! rebuilds a state by re-running its schedule prefix on a fresh one, so
//! a model may own production types that cannot be copied (boxed
//! `FnOnce` waiters, an epoll fd).
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
/// Implementations must be fully deterministic: no wall clock, no OS
/// randomness — all nondeterminism comes from the schedule, so the same
/// prefix run on a fresh instance always reaches the same state.
pub trait Model {
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

impl Violation {
    fn at(schedule: &[usize], message: String) -> Violation {
        Violation {
            schedule: schedule_string(schedule),
            message,
        }
    }
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
    /// in a buggy model; never reached by the shipped harnesses).
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

/// Deterministic SplitMix64 stream (Steele, Lea & Flood 2014): one state
/// word, full 2^64 period, stable across Rust releases. Drives the random
/// tail here. It is the vendored `rand` `StdRng` (the generator behind
/// every fault and chaos draw) bit for bit, kept as a copy because `chk`
/// has no dependencies.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Renders a schedule as the dot-separated string printed in reports.
pub fn schedule_string(schedule: &[usize]) -> String {
    let steps: Vec<String> = schedule.iter().map(usize::to_string).collect();
    steps.join(".")
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

/// Checks a quiescent (no thread enabled) state: either everything is
/// done and `finish` holds, or some thread is parked forever.
fn check_terminal<M: Model>(m: &M, schedule: &[usize]) -> Option<Violation> {
    let stuck: Vec<usize> = (0..m.threads()).filter(|&t| !m.done(t)).collect();
    let message = if stuck.is_empty() {
        m.finish().err()?
    } else {
        format!(
            "deadlock/lost wakeup: no thread enabled but {} never finished",
            thread_names(&stuck)
        )
    };
    Some(Violation::at(schedule, message))
}

/// `t1, t3` for `[1, 3]`.
fn thread_names(threads: &[usize]) -> String {
    let names: Vec<String> = threads.iter().map(|t| format!("t{t}")).collect();
    names.join(", ")
}

/// The violation of a schedule that ran past the step bound.
fn runaway(schedule: &[usize], max_steps: usize) -> Violation {
    let message = format!("schedule exceeded {max_steps} steps without quiescing");
    Violation::at(schedule, message)
}

/// A fresh state advanced through `prefix`. Every step of it already ran
/// clean once, and models are deterministic, so none can fail now.
fn rebuild<M: Model>(make: &impl Fn() -> M, prefix: &[usize]) -> M {
    let mut m = make();
    for &t in prefix {
        m.step(t).expect("a replayed prefix step is deterministic");
    }
    m
}

impl Explorer {
    /// Explores the model `make` builds exhaustively within the
    /// preemption bound, then samples the seeded-random tail. Stops at
    /// the first violation.
    pub fn explore<M: Model>(&self, make: impl Fn() -> M) -> ExploreStats {
        let mut stats = ExploreStats {
            schedules: 0,
            random_schedules: 0,
            max_depth: 0,
            violation: None,
        };
        let mut prefix = Vec::new();
        self.dfs(
            &make,
            make(),
            &mut prefix,
            self.max_preemptions,
            None,
            &mut stats,
        );
        if stats.violation.is_none() {
            let mut rng = SplitMix64::new(self.seed);
            for _ in 0..self.random_tail {
                stats.random_schedules += 1;
                if let Some(v) = self.random_run(make(), &mut rng, &mut stats) {
                    stats.violation = Some(v);
                    break;
                }
            }
        }
        stats
    }

    fn dfs<M: Model>(
        &self,
        make: &impl Fn() -> M,
        state: M,
        prefix: &mut Vec<usize>,
        budget: usize,
        running: Option<usize>,
        stats: &mut ExploreStats,
    ) {
        if stats.violation.is_some() || stats.schedules >= self.max_schedules {
            return;
        }
        stats.max_depth = stats.max_depth.max(prefix.len());
        let enabled = enabled_set(&state);
        if enabled.is_empty() {
            stats.schedules += 1;
            stats.violation = check_terminal(&state, prefix);
            return;
        }
        if prefix.len() >= self.max_steps {
            stats.schedules += 1;
            stats.violation = Some(runaway(prefix, self.max_steps));
            return;
        }
        let running = running.filter(|&r| state.enabled(r));
        // The first branch continues in `state`; later ones rebuild it.
        let mut state = Some(state);
        for &t in &enabled {
            let preemptive = running.is_some_and(|r| r != t);
            if preemptive && budget == 0 {
                continue;
            }
            let mut next = state.take().unwrap_or_else(|| rebuild(make, prefix));
            prefix.push(t);
            if let Err(msg) = next.step(t) {
                stats.schedules += 1;
                stats.violation = Some(Violation::at(prefix, msg));
                prefix.pop();
                return;
            }
            let next_budget = if preemptive { budget - 1 } else { budget };
            self.dfs(make, next, prefix, next_budget, Some(t), stats);
            prefix.pop();
            if stats.violation.is_some() {
                return;
            }
        }
    }

    fn random_run<M: Model>(
        &self,
        mut m: M,
        rng: &mut SplitMix64,
        stats: &mut ExploreStats,
    ) -> Option<Violation> {
        let mut schedule = Vec::new();
        loop {
            let enabled = enabled_set(&m);
            if enabled.is_empty() {
                stats.max_depth = stats.max_depth.max(schedule.len());
                return check_terminal(&m, &schedule);
            }
            if schedule.len() >= self.max_steps {
                return Some(runaway(&schedule, self.max_steps));
            }
            let t = enabled[(rng.next_u64() % enabled.len() as u64) as usize];
            schedule.push(t);
            if let Err(msg) = m.step(t) {
                return Some(Violation::at(&schedule, msg));
            }
        }
    }
}

/// Deterministically re-executes `schedule` against a fresh model from
/// `make`, returning the violation it reproduces (a violation found by
/// [`Explorer::explore`] replays to the same message), or `Ok(())` if
/// the schedule runs clean to quiescence. A schedule that stops while
/// threads are still enabled is an error, not a pass: a pinned "clean"
/// schedule that was cut short must not succeed vacuously.
pub fn replay<M: Model>(make: impl Fn() -> M, schedule: &str) -> Result<(), Violation> {
    // Misuse of the schedule itself is reported against it as written.
    let misuse = |message: String| Violation {
        schedule: schedule.to_string(),
        message,
    };
    let steps = parse_schedule(schedule).map_err(misuse)?;
    let mut m = make();
    for (i, &t) in steps.iter().enumerate() {
        if t >= m.threads() || !m.enabled(t) {
            let message = format!("schedule names thread {t} which is not enabled at step {i}");
            return Err(misuse(message));
        }
        if let Err(msg) = m.step(t) {
            return Err(Violation::at(&steps[..=i], msg));
        }
    }
    let enabled = enabled_set(&m);
    if !enabled.is_empty() {
        return Err(misuse(format!(
            "schedule ends before quiescence: {} still enabled",
            thread_names(&enabled)
        )));
    }
    // Quiescent: surface the terminal checks (deadlock / finish
    // invariants) exactly like the explorer would.
    check_terminal(&m, &steps).map_or(Ok(()), Err)
}
