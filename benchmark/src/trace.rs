//! In-memory span recorder for the `--trace` pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; nothing inside the program under test
//! is instrumented. They stay in memory until the pass ends and are then
//! written to `out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::time::Instant;

use polyufc_serve::json::push_escaped;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`cache.model`, `ir.parse`, …). Root spans of
    /// a replayed input are named `request`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Which replayed input the span belongs to.
    pub request: usize,
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, parents before children.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for a worker thread; its
    /// spans are merged back with [`Recorder::adopt`].
    pub fn fork(&self) -> Recorder {
        Recorder {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose time was accumulated over many short calls
    /// (the cache simulator is entered once per innermost-loop instance):
    /// it starts with its parent and lasts the accumulated time.
    pub fn aggregated(&mut self, name: &'static str, parent: usize, busy_ns: u64) {
        let (start_ns, request) = (self.spans[parent].start_ns, self.spans[parent].request);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            request,
        });
    }

    /// Merges the spans of a forked recorder; its roots become children
    /// of `parent`.
    pub fn adopt(&mut self, forked: Recorder, parent: usize) {
        let base = self.spans.len();
        for mut s in forked.spans {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            self.spans.push(s);
        }
    }

    /// Self time per span: its duration minus the part of that interval
    /// its child spans cover (overlapping children, from worker threads,
    /// are counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(s.name).or_insert(0) += t;
        }
        by_name
    }

    /// Total duration of the root spans called `name`, in nanoseconds.
    pub fn root_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Mean duration of the spans called `name`, in microseconds.
    pub fn mean_duration_us(&self, name: &str) -> Option<f64> {
        let durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        (!durations.is_empty())
            .then(|| durations.iter().sum::<u64>() as f64 / 1e3 / durations.len() as f64)
    }

    /// The span file: one object per span plus the per-layer self-time
    /// ledger, hand-rendered like every other JSON the repo emits.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let self_times = self.self_times();
        let mut s = String::with_capacity(128 * self.spans.len() + 1024);
        s.push_str("{\"schema\":\"polyufc-benchmark-trace/1\",\"workload\":");
        push_escaped(&mut s, workload);
        s.push_str(&format!(",\"seed\":{seed},\"self_time_ns\":{{"));
        for (i, (name, ns)) in self.self_time_by_name().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_escaped(&mut s, name);
            s.push_str(&format!(":{ns}"));
        }
        s.push_str("},\"spans\":[\n");
        for (i, (sp, self_ns)) in self.spans.iter().zip(&self_times).enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str("{\"id\":");
            s.push_str(&i.to_string());
            s.push_str(",\"name\":");
            push_escaped(&mut s, sp.name);
            s.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"request\":{}}}",
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.request
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let mut r = Recorder::new();
        r.spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (a worker thread): the union covers 10..60.
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(r.self_times(), vec![40, 25, 30, 10, 5]);
        let by_name = r.self_time_by_name();
        assert_eq!(by_name["request"], 40);
        assert_eq!(by_name.values().sum::<u64>(), 110);
        assert_eq!(r.root_total_ns("request"), 100);
    }

    #[test]
    fn adopted_spans_hang_under_the_given_parent() {
        let mut r = Recorder::new();
        let root = r.open("request", None, 7);
        let mut forked = r.fork();
        let outer = forked.open("outer", None, 7);
        forked.span("inner", Some(outer), 7, || ());
        forked.close(outer);
        r.adopt(forked, root);
        r.close(root);
        assert_eq!(r.spans[1].parent, Some(root));
        assert_eq!(r.spans[2].parent, Some(1));
        let json = r.to_json("w", 1);
        assert!(polyufc_serve::json::parse(&json).is_ok());
    }
}
