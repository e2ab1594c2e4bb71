//! Interpretation of affine kernels at their concrete problem sizes,
//! streaming memory-access and flop events. This is the trace source for
//! both the exact cache simulator and the machine model — the stand-in for
//! running the compiled binary on hardware.
//!
//! Traces are produced in *block* form. One innermost-loop instance is a
//! [`RunGroup`] holding one [`AccessRun`] per (statement, access) pair,
//! instead of one [`AccessEvent`] per executed access; and consecutive
//! instances along the second-innermost loop whose innermost bounds agree
//! are one [`RunBlock`]: a group count, the first group, and each run's
//! element stride along that outer loop. Where the innermost bounds do not
//! read the second-innermost iterator, its whole loop is one block;
//! triangular nests are cut into maximal stretches of equal innermost
//! lower bound and trip count. A depth-1 kernel is a block of one group.
//! Trailing loops that run once whatever the iterators (their bounds read
//! only the iterators of such loops and span one iteration, as a 1 × 1
//! convolution's filter loops do) are fixed at that iteration, so here
//! "innermost" is the deepest loop above them: the per-event order is the
//! same, and groups are not one step long.
//!
//! Sinks that care only about aggregates (or about line granularity, like
//! the cache simulator) consume blocks directly. Every other sink keeps
//! working unchanged through the default [`TraceSink::block`], which
//! expands a block into [`TraceSink::run`] calls, and the default
//! [`TraceSink::run`], which expands a group into per-event calls, both in
//! exactly the order the interpreter used to emit them.

use crate::affine::{AffineKernel, AffineProgram};
use crate::types::ArrayId;

/// One memory access produced by interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Which array is accessed.
    pub array: ArrayId,
    /// Linear element offset within the array (row-major).
    pub offset: u64,
    /// Access width in bytes (the element size).
    pub bytes: u32,
    /// Whether the access is a store.
    pub is_write: bool,
}

/// A run of accesses from one (statement, access) pair across one
/// innermost-loop instance: step `t` (`0 <= t < count`) accesses element
/// offset `base + stride * t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRun {
    /// Which array is accessed.
    pub array: ArrayId,
    /// Element offset at the first step (non-negative for valid kernels).
    pub base: i64,
    /// Element-offset delta per innermost step; may be zero (loop-invariant
    /// access) or negative (reversed traversal).
    pub stride: i64,
    /// Number of steps; equals [`RunGroup::steps`] of the containing group.
    pub count: u64,
    /// Access width in bytes (the element size).
    pub bytes: u32,
    /// Whether the access is a store.
    pub is_write: bool,
}

/// The slice of a [`RunGroup`]'s runs belonging to one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtSpan {
    /// Flops per statement instance.
    pub flops: u64,
    /// First run of the statement in [`RunGroup::runs`].
    pub start: u32,
    /// Number of runs (accesses) of the statement.
    pub len: u32,
}

/// One full innermost-loop instance in run-length form.
///
/// Execution order semantics: for each step `t` in `0..steps`, each
/// statement executes in program order — its flops first, then its
/// accesses in program order. `runs` holds the statements' runs
/// back-to-back, so the per-step access order is exactly the order of
/// `runs`.
#[derive(Debug, Clone, Copy)]
pub struct RunGroup<'a> {
    /// Trip count of this innermost-loop instance (always > 0; empty
    /// instances are not emitted).
    pub steps: u64,
    /// All runs of the instance, statement-major, program order.
    pub runs: &'a [AccessRun],
    /// Per-statement spans into `runs`, in program order.
    pub stmts: &'a [StmtSpan],
}

/// Consecutive innermost-loop instances along one second-innermost loop:
/// group `g` (`0 <= g < groups`) is [`RunBlock::first`] with every run's
/// base moved on by `g` times its entry of [`RunBlock::outer`]. All groups
/// share the step count and the statement spans.
#[derive(Debug, Clone, Copy)]
pub struct RunBlock<'a> {
    /// Number of groups (always > 0).
    pub groups: u64,
    /// The first group.
    pub first: RunGroup<'a>,
    /// Per run of `first`, in order: the element-offset delta from one
    /// group to the next (the run's coefficient of the second-innermost
    /// iterator; zero for a block of one group).
    pub outer: &'a [i64],
}

/// Consumer of an interpretation trace.
pub trait TraceSink {
    /// Called for every array access, in program order.
    fn access(&mut self, ev: AccessEvent);
    /// Called once per statement instance with its flop count.
    fn flops(&mut self, n: u64);
    /// Called once per (non-empty) innermost-loop instance with all of its
    /// runs. The default expands the group into [`TraceSink::flops`] and
    /// [`TraceSink::access`] calls in exactly the interleaved per-event
    /// order — step-major, then statement, then access — so sinks that do
    /// not override it observe an unchanged trace.
    fn run(&mut self, group: RunGroup<'_>) {
        for step in 0..group.steps as i64 {
            for s in group.stmts {
                if s.flops > 0 {
                    self.flops(s.flops);
                }
                for r in &group.runs[s.start as usize..(s.start + s.len) as usize] {
                    let off = r.base + r.stride * step;
                    debug_assert!(off >= 0, "negative offset in run expansion");
                    self.access(AccessEvent {
                        array: r.array,
                        offset: off as u64,
                        bytes: r.bytes,
                        is_write: r.is_write,
                    });
                }
            }
        }
    }
    /// Called once per block of innermost-loop instances. The default
    /// expands the block into one [`TraceSink::run`] call per group, in
    /// order, so sinks that do not override it observe an unchanged
    /// sequence of groups.
    fn block(&mut self, block: RunBlock<'_>) {
        let mut runs = block.first.runs.to_vec();
        for _ in 0..block.groups {
            self.run(RunGroup {
                runs: &runs,
                ..block.first
            });
            for (r, &o) in runs.iter_mut().zip(block.outer) {
                r.base += o;
            }
        }
    }
}

/// A [`TraceSink`] that aggregates totals; useful for tests and for
/// cross-checking static counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total reads.
    pub reads: u64,
    /// Total writes.
    pub writes: u64,
    /// Total flops.
    pub flops: u64,
    /// Total bytes touched (sum of access widths, not unique bytes).
    pub bytes: u64,
}

impl TraceStats {
    /// Adds `instances` instances of `group` at once: every counter is
    /// linear in the step count, so this is O(#runs), not O(steps × #runs).
    fn add(&mut self, group: RunGroup<'_>, instances: u64) {
        let steps = group.steps * instances;
        for s in group.stmts {
            self.flops += s.flops * steps;
        }
        for r in group.runs {
            self.accesses += steps;
            if r.is_write {
                self.writes += steps;
            } else {
                self.reads += steps;
            }
            self.bytes += r.bytes as u64 * steps;
        }
    }
}

impl TraceSink for TraceStats {
    fn access(&mut self, ev: AccessEvent) {
        self.accesses += 1;
        if ev.is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.bytes += ev.bytes as u64;
    }

    fn flops(&mut self, n: u64) {
        self.flops += n;
    }

    fn run(&mut self, group: RunGroup<'_>) {
        self.add(group, 1);
    }

    fn block(&mut self, block: RunBlock<'_>) {
        self.add(block.first, block.groups);
    }
}

/// A compiled access: linear offset as an affine function of the iterators.
#[derive(Debug, Clone)]
struct CompiledAccess {
    array: ArrayId,
    coeffs: Vec<i64>,
    constant: i64,
    bytes: u32,
    is_write: bool,
}

/// Reusable buffers for building run blocks without per-block
/// allocation.
#[derive(Default)]
struct RunBufs {
    runs: Vec<AccessRun>,
    spans: Vec<StmtSpan>,
    outer: Vec<i64>,
}

/// Interprets one kernel, streaming events to `sink`.
///
/// # Panics
///
/// Panics if the kernel fails validation against `program`'s array table
/// (indices out of declared arity) or has zero depth.
pub fn interpret_kernel(program: &AffineProgram, kernel: &AffineKernel, sink: &mut impl TraceSink) {
    let depth = kernel.depth();
    assert!(depth > 0, "kernel `{}` has no loops", kernel.name);

    // Compile accesses to linear offset functions over the iterators.
    let mut stmts: Vec<(u64, Vec<CompiledAccess>)> = Vec::new();
    for s in &kernel.statements {
        let mut cas = Vec::with_capacity(s.accesses.len());
        for a in &s.accesses {
            let decl = program.array(a.array);
            let strides = decl.strides();
            assert_eq!(a.indices.len(), strides.len());
            let mut coeffs = vec![0i64; depth];
            let mut constant = 0i64;
            for (idx_expr, &stride) in a.indices.iter().zip(&strides) {
                constant += idx_expr.constant_term() * stride as i64;
                for (v, c) in idx_expr.terms() {
                    coeffs[v] += c * stride as i64;
                }
            }
            cas.push(CompiledAccess {
                array: a.array,
                coeffs,
                constant,
                bytes: decl.elem.size_bytes() as u32,
                is_write: a.is_write,
            });
        }
        stmts.push((s.flops, cas));
    }

    // The loops that run once whatever the iterators: their bounds read
    // only such loops' iterators and span one iteration. Trailing ones are
    // fixed at it (module docs).
    let mut iters = vec![0i64; depth];
    let mut once = vec![false; depth];
    for (d, l) in kernel.loops.iter().enumerate() {
        let fixed = |b: &crate::affine::Bound| {
            b.exprs
                .iter()
                .all(|e| (0..d).all(|v| once[v] || e.coeff(v) == 0))
        };
        if fixed(&l.lb) && fixed(&l.ub) {
            let lb = l.lb.eval_lb(&iters);
            once[d] = l.ub.eval_ub(&iters) == lb + 1;
            iters[d] = lb;
        }
    }
    let levels = once.iter().rposition(|&o| !o).map_or(1, |d| d + 1);
    let nest = Nest {
        kernel,
        stmts,
        levels,
    };
    walk(&nest, &mut RunBufs::default(), &mut iters, 0, sink);
}

/// A kernel ready to interpret: its accesses compiled, and the number of
/// loop levels that form groups and blocks (the kernel's depth, less the
/// trailing loops fixed at their one iteration).
struct Nest<'a> {
    kernel: &'a AffineKernel,
    stmts: Vec<(u64, Vec<CompiledAccess>)>,
    levels: usize,
}

/// Runs the loops from `depth` down: the loops above the second-innermost
/// one one iteration at a time, the last two as blocks.
fn walk(
    nest: &Nest<'_>,
    bufs: &mut RunBufs,
    iters: &mut [i64],
    depth: usize,
    sink: &mut impl TraceSink,
) {
    let n = nest.levels;
    let l = &nest.kernel.loops[depth];
    let lb = l.lb.eval_lb(iters);
    let ub = l.ub.eval_ub(iters);
    if depth + 1 == n {
        // A depth-1 nest: one group.
        emit(nest, bufs, iters, 1, (lb, ub), sink);
    } else if depth + 2 < n {
        for i in lb..ub {
            iters[depth] = i;
            walk(nest, bufs, iters, depth + 1, sink);
        }
    } else if lb < ub {
        // The second-innermost loop: cut it into maximal stretches whose
        // innermost bounds agree — the whole loop when they do not read
        // this iterator, so they are evaluated once.
        let inner = &nest.kernel.loops[n - 1];
        let reads_outer = |b: &crate::affine::Bound| b.exprs.iter().any(|e| e.coeff(depth) != 0);
        let bounds = |iters: &[i64]| (inner.lb.eval_lb(iters), inner.ub.eval_ub(iters));
        iters[depth] = lb;
        if !reads_outer(&inner.lb) && !reads_outer(&inner.ub) {
            emit(nest, bufs, iters, (ub - lb) as u64, bounds(iters), sink);
            return;
        }
        // Equal lower bound and trip count; empty stretches all agree.
        let same = |(l0, u0): (i64, i64), (l1, u1): (i64, i64)| {
            (u0 - l0).max(0) == (u1 - l1).max(0) && (u0 <= l0 || l0 == l1)
        };
        let (mut start, mut cur) = (lb, bounds(iters));
        // `ub` itself only closes the last stretch.
        for i in lb + 1..=ub {
            iters[depth] = i;
            let next = (i < ub).then(|| bounds(iters));
            if next.is_some_and(|b| same(cur, b)) {
                continue;
            }
            iters[depth] = start;
            emit(nest, bufs, iters, (i - start) as u64, cur, sink);
            if let Some(b) = next {
                (start, cur) = (i, b);
            }
        }
    }
}

/// Emits a block of `groups` instances of the innermost loop `lb..ub`, the
/// first at the iterators in `iters` (nothing if the loop is empty).
fn emit(
    nest: &Nest<'_>,
    bufs: &mut RunBufs,
    iters: &mut [i64],
    groups: u64,
    (lb, ub): (i64, i64),
    sink: &mut impl TraceSink,
) {
    let steps = (ub - lb).max(0) as u64;
    if steps == 0 {
        return;
    }
    // One run per (statement, access), based at the first group's
    // iterators, advancing by the innermost iterator's coefficient per step
    // and by the second-innermost one's per group.
    let depth = nest.levels - 1;
    iters[depth] = lb;
    bufs.runs.clear();
    bufs.spans.clear();
    bufs.outer.clear();
    for (flops, cas) in &nest.stmts {
        let start = bufs.runs.len() as u32;
        for ca in cas {
            let mut base = ca.constant;
            for (v, &c) in ca.coeffs.iter().enumerate() {
                base += c * iters[v];
            }
            let stride = ca.coeffs[depth];
            let outer = if groups > 1 { ca.coeffs[depth - 1] } else { 0 };
            debug_assert!(
                base + (stride * (steps as i64 - 1)).min(0) + (outer * (groups as i64 - 1)).min(0)
                    >= 0,
                "negative offset in `{}`",
                nest.kernel.name
            );
            bufs.runs.push(AccessRun {
                array: ca.array,
                base,
                stride,
                count: steps,
                bytes: ca.bytes,
                is_write: ca.is_write,
            });
            bufs.outer.push(outer);
        }
        bufs.spans.push(StmtSpan {
            flops: *flops,
            start,
            len: bufs.runs.len() as u32 - start,
        });
    }
    sink.block(RunBlock {
        groups,
        first: RunGroup {
            steps,
            runs: &bufs.runs,
            stmts: &bufs.spans,
        },
        outer: &bufs.outer,
    });
}

/// Interprets every kernel of a program in order.
pub fn interpret_program(program: &AffineProgram, sink: &mut impl TraceSink) {
    for k in &program.kernels {
        interpret_kernel(program, k, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Access, AffineKernel, Bound, Loop, Statement};
    use crate::types::ElemType;
    use polyufc_presburger::LinExpr;

    /// A recording sink for order-sensitive assertions. Uses the default
    /// `run` expansion, so it observes the exact per-event order.
    #[derive(Default)]
    struct Recorder {
        events: Vec<AccessEvent>,
        flops: u64,
    }

    impl TraceSink for Recorder {
        fn access(&mut self, ev: AccessEvent) {
            self.events.push(ev);
        }
        fn flops(&mut self, n: u64) {
            self.flops += n;
        }
    }

    /// A sink that records raw run groups (no expansion).
    #[derive(Default)]
    struct RunRecorder {
        groups: Vec<(u64, Vec<AccessRun>, Vec<StmtSpan>)>,
    }

    impl TraceSink for RunRecorder {
        fn access(&mut self, _ev: AccessEvent) {
            panic!("interpreter must emit runs, not events");
        }
        fn flops(&mut self, _n: u64) {
            panic!("interpreter must emit runs, not events");
        }
        fn run(&mut self, group: RunGroup<'_>) {
            self.groups
                .push((group.steps, group.runs.to_vec(), group.stmts.to_vec()));
        }
    }

    /// A sink that records raw blocks (no expansion).
    #[derive(Default)]
    struct BlockRecorder {
        /// Per block: group count, step count, first group's runs, outer
        /// strides.
        blocks: Vec<(u64, u64, Vec<AccessRun>, Vec<i64>)>,
    }

    impl TraceSink for BlockRecorder {
        fn access(&mut self, _ev: AccessEvent) {
            panic!("interpreter must emit blocks, not events");
        }
        fn flops(&mut self, _n: u64) {
            panic!("interpreter must emit blocks, not events");
        }
        fn run(&mut self, _group: RunGroup<'_>) {
            panic!("interpreter must emit blocks, not groups");
        }
        fn block(&mut self, b: RunBlock<'_>) {
            self.blocks.push((
                b.groups,
                b.first.steps,
                b.first.runs.to_vec(),
                b.outer.to_vec(),
            ));
        }
    }

    fn matmul_program(m: usize, n: usize, k: usize) -> AffineProgram {
        let mut p = AffineProgram::new("mm");
        let a = p.add_array("A", vec![m, k], ElemType::F64);
        let b = p.add_array("B", vec![k, n], ElemType::F64);
        let c = p.add_array("C", vec![m, n], ElemType::F64);
        let (vi, vj, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        p.kernels.push(AffineKernel {
            name: "mm".into(),
            loops: vec![
                Loop::range(m as i64),
                Loop::range(n as i64),
                Loop::range(k as i64),
            ],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone(), vk.clone()]),
                    Access::read(b, vec![vk, vj.clone()]),
                    Access::read(c, vec![vi.clone(), vj.clone()]),
                    Access::write(c, vec![vi, vj]),
                ],
                flops: 2,
            }],
        });
        p
    }

    #[test]
    fn matmul_event_counts() {
        let p = matmul_program(3, 4, 5);
        let mut st = TraceStats::default();
        interpret_program(&p, &mut st);
        let pts = 3 * 4 * 5u64;
        assert_eq!(st.accesses, 4 * pts);
        assert_eq!(st.reads, 3 * pts);
        assert_eq!(st.writes, pts);
        assert_eq!(st.flops, 2 * pts);
        assert_eq!(st.bytes, 4 * pts * 8);
    }

    #[test]
    fn offsets_are_row_major() {
        let p = matmul_program(2, 2, 2);
        let mut r = Recorder::default();
        interpret_kernel(&p, &p.kernels[0], &mut r);
        // First statement instance (i=0, j=0, k=0): A[0,0], B[0,0], C[0,0].
        assert_eq!(r.events[0].offset, 0);
        // Second instance (k=1): A[0,1] offset 1, B[1,0] offset 2.
        assert_eq!(r.events[4].offset, 1);
        assert_eq!(r.events[5].offset, 2);
    }

    #[test]
    fn trace_matches_domain_size() {
        let p = matmul_program(7, 3, 9);
        let mut st = TraceStats::default();
        interpret_program(&p, &mut st);
        let dom = p.kernels[0].domain_size().unwrap() as u64;
        assert_eq!(st.flops, 2 * dom);
    }

    #[test]
    fn runs_are_emitted_per_innermost_instance() {
        let p = matmul_program(3, 4, 5);
        let mut rr = RunRecorder::default();
        interpret_kernel(&p, &p.kernels[0], &mut rr);
        // One group per (i, j) pair, each spanning the k loop.
        assert_eq!(rr.groups.len(), 3 * 4);
        let (steps, runs, spans) = &rr.groups[0];
        assert_eq!(*steps, 5);
        assert_eq!(runs.len(), 4);
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0],
            StmtSpan {
                flops: 2,
                start: 0,
                len: 4
            }
        );
        // A[i,k]: k-stride 1; B[k,j]: k-stride n_cols(B) = 4; C[i,j]: 0.
        assert_eq!(runs[0].stride, 1);
        assert_eq!(runs[1].stride, 4);
        assert_eq!(runs[2].stride, 0);
        assert_eq!(runs[3].stride, 0);
        assert!(runs[3].is_write);
        assert!(runs.iter().all(|r| r.count == 5 && r.bytes == 8));
    }

    #[test]
    fn default_run_expansion_matches_event_order() {
        // Manually expand a RunGroup through the default impl and compare
        // against the interpreter's per-event order for the same kernel.
        let p = matmul_program(2, 3, 4);
        let mut r = Recorder::default();
        interpret_kernel(&p, &p.kernels[0], &mut r);
        // Reconstruct the expected order by brute force.
        let mut expected = Vec::new();
        for i in 0..2u64 {
            for j in 0..3u64 {
                for k in 0..4u64 {
                    expected.push((0usize, i * 4 + k, false));
                    expected.push((1usize, k * 3 + j, false));
                    expected.push((2usize, i * 3 + j, false));
                    expected.push((2usize, i * 3 + j, true));
                }
            }
        }
        assert_eq!(r.events.len(), expected.len());
        for (ev, (arr, off, w)) in r.events.iter().zip(&expected) {
            assert_eq!(ev.array.0, *arr);
            assert_eq!(ev.offset, *off);
            assert_eq!(ev.is_write, *w);
        }
        assert_eq!(r.flops, 2 * 2 * 3 * 4);
    }

    #[test]
    fn aggregate_run_override_matches_expansion() {
        // TraceStats overrides `run` with O(1)-per-run arithmetic; the
        // expanded path must agree exactly, including negative strides.
        let mut p = AffineProgram::new("rev");
        let a = p.add_array("A", vec![16, 16], ElemType::F32);
        // A[i, 15 - j] — negative innermost stride.
        p.kernels.push(AffineKernel {
            name: "rev".into(),
            loops: vec![Loop::range(16), Loop::range(16)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(
                    a,
                    vec![LinExpr::var(0), LinExpr::constant(15) - LinExpr::var(1)],
                )],
                flops: 3,
            }],
        });
        let mut fast = TraceStats::default();
        interpret_program(&p, &mut fast);
        let mut slow = Recorder::default();
        interpret_program(&p, &mut slow);
        assert_eq!(fast.accesses, slow.events.len() as u64);
        assert_eq!(fast.flops, slow.flops);
        assert_eq!(
            fast.bytes,
            slow.events.iter().map(|e| e.bytes as u64).sum::<u64>()
        );
    }

    #[test]
    fn triangular_bounds_respected() {
        // for i in 0..4 { for j in 0..=i { read A[i][j] } }
        let mut p = AffineProgram::new("tri");
        let a = p.add_array("A", vec![4, 4], ElemType::F32);
        p.kernels.push(AffineKernel {
            name: "tri".into(),
            loops: vec![
                Loop::range(4),
                Loop::new(
                    Bound::constant(0),
                    Bound::expr(LinExpr::var(0) + LinExpr::constant(1)),
                ),
            ],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(a, vec![LinExpr::var(0), LinExpr::var(1)])],
                flops: 1,
            }],
        });
        let mut st = TraceStats::default();
        interpret_program(&p, &mut st);
        assert_eq!(st.accesses, 10);
        assert_eq!(st.bytes, 40);
    }

    #[test]
    fn empty_loop_produces_nothing() {
        let mut p = AffineProgram::new("empty");
        let _ = p.add_array("A", vec![1], ElemType::F64);
        p.kernels.push(AffineKernel {
            name: "e".into(),
            loops: vec![Loop::range(0)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![],
                flops: 1,
            }],
        });
        let mut st = TraceStats::default();
        interpret_program(&p, &mut st);
        assert_eq!(st.flops, 0);
        let mut rr = RunRecorder::default();
        interpret_program(&p, &mut rr);
        assert!(rr.groups.is_empty(), "empty instances are not emitted");
    }

    #[test]
    fn blocks_carry_group_counts_and_outer_strides() {
        let p = matmul_program(3, 4, 5);
        let mut br = BlockRecorder::default();
        interpret_kernel(&p, &p.kernels[0], &mut br);
        // One block per i, spanning the j loop; each group spans k.
        assert_eq!(br.blocks.len(), 3);
        for (i, (groups, steps, runs, outer)) in br.blocks.iter().enumerate() {
            assert_eq!((*groups, *steps), (4, 5));
            // A[i,k], B[k,j], C[i,j] (read), C[i,j] (write) at j = 0, k = 0.
            let bases: Vec<i64> = runs.iter().map(|r| r.base).collect();
            let i = i as i64;
            assert_eq!(bases, [i * 5, 0, i * 4, i * 4]);
            // Per j: A does not move, B and C move by one element.
            assert_eq!(outer, &[0, 1, 1, 1]);
        }
    }

    /// `for i in 0..n { for j in lb(i)..ub(i) { read A[i][j] } }` over a
    /// 6 x 6 array.
    fn triangle(lb: LinExpr, ub: Vec<LinExpr>) -> AffineProgram {
        let mut p = AffineProgram::new("tri");
        let a = p.add_array("A", vec![6, 6], ElemType::F32);
        p.kernels.push(AffineKernel {
            name: "tri".into(),
            loops: vec![
                Loop::range(6),
                Loop::new(Bound::expr(lb), Bound { exprs: ub }),
            ],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(a, vec![LinExpr::var(0), LinExpr::var(1)])],
                flops: 1,
            }],
        });
        p
    }

    #[test]
    fn triangular_nests_are_cut_into_blocks_by_trip_count() {
        let i = LinExpr::var(0);
        // j < min(i + 1, 3): trips 1, 2, 3, 3, 3, 3.
        let capped = triangle(
            LinExpr::constant(0),
            vec![i.clone() + LinExpr::constant(1), LinExpr::constant(3)],
        );
        // i <= j < 6: trips 6, 5, 4, 3, 2, 1, each its own lower bound.
        let upper = triangle(i.clone(), vec![LinExpr::constant(6)]);
        // i <= j < min(i + 2, 6): a trip count of 2 (1 in the last row),
        // but a lower bound that moves with every group.
        let band = triangle(
            i.clone(),
            vec![i + LinExpr::constant(2), LinExpr::constant(6)],
        );
        for (p, expected) in [
            (capped, vec![(1, 1, 0), (1, 2, 6), (4, 3, 12)]),
            (upper, (0..6).map(|i| (1, 6 - i, 7 * i as i64)).collect()),
            (
                band,
                vec![
                    (1, 2, 0),
                    (1, 2, 7),
                    (1, 2, 14),
                    (1, 2, 21),
                    (1, 2, 28),
                    (1, 1, 35),
                ],
            ),
        ] {
            let mut br = BlockRecorder::default();
            interpret_program(&p, &mut br);
            let got: Vec<(u64, u64, i64)> = br
                .blocks
                .iter()
                .map(|(g, s, runs, _)| (*g, *s, runs[0].base))
                .collect();
            assert_eq!(got, expected);
            // Every block moves one row per group, and the blocks' default
            // expansion is the per-event trace.
            assert!(br.blocks.iter().all(|b| b.0 == 1 || b.3 == [6]));
            let mut fast = TraceStats::default();
            interpret_program(&p, &mut fast);
            let mut slow = Recorder::default();
            interpret_program(&p, &mut slow);
            assert_eq!(fast.accesses, slow.events.len() as u64);
            let offsets: Vec<u64> = slow.events.iter().map(|e| e.offset).collect();
            let mut expected = Vec::new();
            for (g, s, runs, outer) in &br.blocks {
                for group in 0..*g as i64 {
                    let base = runs[0].base + group * outer[0];
                    expected.extend((0..*s as i64).map(|t| (base + t) as u64));
                }
            }
            assert_eq!(offsets, expected);
        }
    }

    #[test]
    fn trailing_loops_of_one_iteration_are_fixed() {
        // for i in 0..3, j in 0..4, t in 0..1, k in t + 1..t + 2:
        // read X[i][j + k] over a 3 x 8 array. `t` and `k` run once, so
        // groups step along `j` and blocks along `i`. With `k in j..j + 1`
        // instead, `k` reads a loop that runs four times: every group is
        // one step of `k`, each with its own lower bound.
        let (i, j, t, k) = (
            LinExpr::var(0),
            LinExpr::var(1),
            LinExpr::var(2),
            LinExpr::var(3),
        );
        let by_column: Vec<(u64, u64, i64, i64, i64)> = (0..3)
            .flat_map(|r| (0..4).map(move |c| (1, 1, 8 * r + 2 * c, 1, 0)))
            .collect();
        for (k_from, expected, k_at) in [
            (
                t + LinExpr::constant(1),
                vec![(3, 4, 1, 1, 8)],
                (|_| 1) as fn(u64) -> u64,
            ),
            (j.clone(), by_column, |j| j),
        ] {
            let mut p = AffineProgram::new("once");
            let x = p.add_array("X", vec![3, 8], ElemType::F64);
            p.kernels.push(AffineKernel {
                name: "once".into(),
                loops: vec![
                    Loop::range(3),
                    Loop::range(4),
                    Loop::range(1),
                    Loop::new(
                        Bound::expr(k_from.clone()),
                        Bound::expr(k_from + LinExpr::constant(1)),
                    ),
                ],
                statements: vec![Statement {
                    name: "S".into(),
                    accesses: vec![Access::read(x, vec![i.clone(), j.clone() + k.clone()])],
                    flops: 1,
                }],
            });
            let mut br = BlockRecorder::default();
            interpret_program(&p, &mut br);
            let got: Vec<(u64, u64, i64, i64, i64)> = br
                .blocks
                .iter()
                .map(|(g, s, runs, outer)| (*g, *s, runs[0].base, runs[0].stride, outer[0]))
                .collect();
            assert_eq!(got, expected);
            let mut slow = Recorder::default();
            interpret_program(&p, &mut slow);
            let offsets: Vec<u64> = slow.events.iter().map(|e| e.offset).collect();
            let brute: Vec<u64> = (0..3)
                .flat_map(|r| (0..4).map(move |c| 8 * r + c + k_at(c)))
                .collect();
            assert_eq!(offsets, brute);
        }
    }

    #[test]
    fn a_depth_one_kernel_is_one_block_of_one_group() {
        let mut p = AffineProgram::new("sum");
        let a = p.add_array("A", vec![7], ElemType::F64);
        p.kernels.push(AffineKernel {
            name: "sum".into(),
            loops: vec![Loop::range(7)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(a, vec![LinExpr::var(0)])],
                flops: 1,
            }],
        });
        let mut br = BlockRecorder::default();
        interpret_program(&p, &mut br);
        assert_eq!(br.blocks.len(), 1);
        let (groups, steps, runs, outer) = &br.blocks[0];
        assert_eq!((*groups, *steps, runs[0].stride), (1, 7, 1));
        assert_eq!(outer, &[0]);
    }
}
