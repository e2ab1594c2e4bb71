//! Seeded input generators for the five workloads.
//!
//! Everything the program under test sees is derived from `--seed` here:
//! the same seed yields byte-identical request lines and program orders,
//! and the servers and compilers receive only these generated inputs.

use polyufc_ir::affine::AffineProgram;
use polyufc_ir::lower::lower_tensor_to_linalg;
use polyufc_serve::json::push_escaped;
use polyufc_serve::protocol::codes;
use polyufc_workloads::{ml_suite, polybench, polybench_suite, PolybenchSize};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Uniform draw from `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
/// every range used here, far under what a load mix can resolve.
pub fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, below(rng, i as u64 + 1) as usize);
    }
}

/// An independent generator for one named purpose of one run, so adding a
/// draw to one stream never shifts another.
pub fn stream(seed: u64, purpose: &str) -> StdRng {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut rng = StdRng::seed_from_u64(h);
    rng.next_u64();
    rng
}

/// Which extent of [`PolybenchSize`] scales a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extent {
    N3,
    N2,
    Tri,
    Datamining,
    Stencil2,
    Stencil3,
    N1,
    /// doitgen's `(q, q, 2q + j)`, encoded as `8q + j` so the range holds
    /// as many distinct programs as the other kernels' ranges do.
    Doitgen,
}

impl Extent {
    /// The extent at the mini, small and large presets (the values
    /// `polybench_suite` derives from [`PolybenchSize`]).
    fn presets(self) -> [usize; 3] {
        match self {
            Extent::N3 => [24, 96, 512],
            Extent::N2 => [48, 512, 2000],
            Extent::Tri => [12, 128, 500],
            Extent::Datamining => [18, 72, 384],
            Extent::Stencil2 => [32, 250, 1000],
            Extent::Stencil3 => [12, 40, 100],
            Extent::N1 => [256, 100_000, 2_000_000],
            Extent::Doitgen => [3 * 8, 12 * 8, 64 * 8],
        }
    }
}

/// Time steps at the mini, small and large presets.
const TSTEPS: [usize; 3] = [4, 10, 20];

/// One PolyBench constructor with the extent that scales it.
#[derive(Clone, Copy)]
pub struct Kernel {
    /// PolyBench spelling.
    pub name: &'static str,
    extent: Extent,
    /// One of the six kernels whose cold compile is tens to hundreds of
    /// milliseconds at `large`; `serve_cold` leaves them to `compile_cold`
    /// so its tail percentile is not a bimodal coin-flip.
    pub heavy: bool,
    build: fn(usize, usize) -> AffineProgram,
}

/// Every PolyBench constructor of `polyufc_workloads`, in suite order.
pub const KERNELS: [Kernel; 30] = {
    use polybench as pb;
    use Extent::*;
    const fn k(
        name: &'static str,
        extent: Extent,
        heavy: bool,
        build: fn(usize, usize) -> AffineProgram,
    ) -> Kernel {
        Kernel {
            name,
            extent,
            heavy,
            build,
        }
    }
    [
        k("gemm", N3, false, |n, _| pb::gemm(n)),
        k("2mm", N3, false, |n, _| pb::two_mm(n)),
        k("3mm", N3, false, |n, _| pb::three_mm(n)),
        k("syrk", N3, false, |n, _| pb::syrk(n)),
        k("syr2k", N3, false, |n, _| pb::syr2k(n)),
        k("symm", N3, false, |n, _| pb::symm(n)),
        k("trmm", N3, false, |n, _| pb::trmm(n)),
        k("gemver", N2, false, |n, _| pb::gemver(n)),
        k("gesummv", N2, false, |n, _| pb::gesummv(n)),
        k("atax", N2, false, |n, _| pb::atax(n)),
        k("bicg", N2, false, |n, _| pb::bicg(n)),
        k("mvt", N2, false, |n, _| pb::mvt(n)),
        k("doitgen", Doitgen, false, |n, _| {
            pb::doitgen(n / 8, n / 8, 2 * (n / 8) + n % 8)
        }),
        k("trisolv", N2, false, |n, _| pb::trisolv(n)),
        k("durbin", Tri, false, |n, _| pb::durbin(n)),
        k("lu", Tri, true, |n, _| pb::lu(n)),
        k("ludcmp", Tri, true, |n, _| pb::ludcmp(n)),
        k("cholesky", Tri, true, |n, _| pb::cholesky(n)),
        k("gramschmidt", N3, false, |n, _| pb::gramschmidt(n)),
        k("correlation", Datamining, false, |n, _| pb::correlation(n)),
        k("covariance", Datamining, false, |n, _| pb::covariance(n)),
        k("jacobi-1d", N1, false, |n, ts| pb::jacobi_1d(2 * ts, n)),
        k("jacobi-2d", Stencil2, true, |n, ts| pb::jacobi_2d(ts, n)),
        k("heat-3d", Stencil3, true, |n, ts| pb::heat_3d(ts, n)),
        k("seidel-2d", Stencil2, false, |n, ts| pb::seidel_2d(ts, n)),
        k("fdtd-2d", Stencil2, true, |n, ts| pb::fdtd_2d(ts, n)),
        k("adi", Stencil2, false, |n, ts| pb::adi(ts, n)),
        k("deriche", N2, false, |n, _| pb::deriche(n)),
        k("floyd-warshall", Tri, false, |n, _| pb::floyd_warshall(n)),
        k("nussinov", Tri, false, |n, _| pb::nussinov(n)),
    ]
};

/// Which preset interval a program's extent is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeBand {
    /// Between the `mini` and `small` presets (the hot corpus).
    MiniToSmall,
    /// Between the `small` and `large` presets (cold traffic).
    SmallToLarge,
}

impl Kernel {
    /// The program at extent `n` with `ts` time steps.
    pub fn program(&self, n: usize, ts: usize) -> AffineProgram {
        (self.build)(n, ts)
    }

    /// Inclusive extent range of a band.
    fn extent_range(&self, band: SizeBand) -> (usize, usize) {
        let p = self.extent.presets();
        match band {
            SizeBand::MiniToSmall => (p[0], p[1]),
            SizeBand::SmallToLarge => (p[1], p[2]),
        }
    }

    /// Time steps matching an extent: interpolated between the presets so
    /// a program is identified by `(kernel, extent)` alone.
    fn tsteps_for(&self, n: usize, band: SizeBand) -> usize {
        let (lo, hi) = self.extent_range(band);
        let (t_lo, t_hi) = match band {
            SizeBand::MiniToSmall => (TSTEPS[0], TSTEPS[1]),
            SizeBand::SmallToLarge => (TSTEPS[1], TSTEPS[2]),
        };
        t_lo + (t_hi - t_lo) * (n - lo) / (hi - lo)
    }

    /// A seeded extent within the band.
    fn draw(&self, rng: &mut StdRng, band: SizeBand) -> (usize, usize) {
        let (lo, hi) = self.extent_range(band);
        let n = lo + below(rng, (hi - lo + 1) as u64) as usize;
        (n, self.tsteps_for(n, band))
    }
}

/// Programs of the hot corpus.
pub const HOT_PROGRAMS: usize = 64;

/// Malformed request lines with the typed error code each must return.
pub const MALFORMED: [(&str, &str); 7] = [
    ("{", codes::BAD_JSON),
    ("[1,2,3]", codes::BAD_REQUEST),
    ("{\"op\":\"frobnicate\"}", codes::UNKNOWN_OP),
    ("{\"op\":\"compile\"}", codes::BAD_REQUEST),
    (
        "{\"op\":\"compile\",\"source\":\"func @k { wat }\"}",
        codes::PARSE_ERROR,
    ),
    (
        "{\"op\":\"compile\",\"source\":\"x\",\"epsilon\":-1}",
        codes::BAD_REQUEST,
    ),
    ("not json at all", codes::BAD_JSON),
];

/// One program of a serve corpus, pre-rendered so a client can assemble
/// any variant of its request line with two copies.
#[derive(Debug, Clone)]
pub struct ServeProgram {
    /// Kernel name (also the artifact's `"program"` field).
    pub name: &'static str,
    /// The JSON-escaped, quoted textual IR.
    source_json: String,
}

impl ServeProgram {
    fn new(kernel: &Kernel, n: usize, ts: usize) -> Self {
        let text = format!("{}", kernel.program(n, ts));
        let mut source_json = String::with_capacity(text.len() + 64);
        push_escaped(&mut source_json, &text);
        ServeProgram {
            name: kernel.name,
            source_json,
        }
    }

    /// The canonical request line: default options, no tag.
    pub fn line(&self, out: &mut String) {
        out.push_str("{\"op\":\"compile\",\"format\":\"ir\",\"source\":");
        out.push_str(&self.source_json);
        out.push('}');
    }

    /// The same request under an ignored `"name"` tag: other bytes, same
    /// artifact (textual IR embeds its own names).
    pub fn line_tagged(&self, tag: u64, out: &mut String) {
        out.push_str("{\"op\":\"compile\",\"format\":\"ir\",\"name\":\"t");
        out.push_str(&tag.to_string());
        out.push_str("\",\"source\":");
        out.push_str(&self.source_json);
        out.push('}');
    }

    /// The same program under another ε: a new artifact that shares the
    /// program's characterization prefix.
    pub fn line_epsilon(&self, epsilon: &str, out: &mut String) {
        out.push_str("{\"op\":\"compile\",\"format\":\"ir\",\"epsilon\":");
        out.push_str(epsilon);
        out.push_str(",\"source\":");
        out.push_str(&self.source_json);
        out.push('}');
    }
}

/// The ε of the `i`-th fresh variant, printed the way the artifact prints
/// it back (shortest round-trip form), so a reply can be matched to its
/// request by text.
pub fn epsilon_variant(i: u64) -> String {
    polyufc_serve::json::fmt_f64(1e-3 * (1.0 + (i + 1) as f64 * 1e-9))
}

/// The light kernels in a seeded order.
fn light_kernels(rng: &mut StdRng) -> Vec<&'static Kernel> {
    let mut light: Vec<&Kernel> = KERNELS.iter().filter(|k| !k.heavy).collect();
    shuffle(rng, &mut light);
    light
}

/// `count` distinct programs: kernels rotate through a seeded permutation
/// of the light ones and each takes a seeded extent of `band`, so every
/// seed serves the same kernel mix and only extents differ — request and
/// reply sizes, which set the cost of a cache hit, and the spread of
/// compile costs then vary little from seed to seed.
fn draw_programs(rng: &mut StdRng, band: SizeBand, count: usize) -> Vec<ServeProgram> {
    let light = light_kernels(rng);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut slot = 0;
    while out.len() < count {
        let kernel = light[slot % light.len()];
        slot += 1;
        let (n, ts) = kernel.draw(rng, band);
        if seen.insert((kernel.name, n)) {
            out.push(ServeProgram::new(kernel, n, ts));
        }
    }
    out
}

/// The hot corpus: [`HOT_PROGRAMS`] programs at mini-to-small extents.
/// The six heavy kernels are left out here too: their cold compiles would
/// only lengthen set-up, and the timed phase never compiles.
pub fn hot_corpus(seed: u64) -> Vec<ServeProgram> {
    draw_programs(
        &mut stream(seed, "hot-corpus"),
        SizeBand::MiniToSmall,
        HOT_PROGRAMS,
    )
}

/// Most programs a cold corpus may hold while every light kernel still
/// has unused extents, so the kernel mix stays the same from the first
/// request to the last.
pub const COLD_PROGRAMS_MAX: usize = 7200;

/// `count` distinct programs for `serve_cold`: a seeded draw without
/// replacement over (light kernel × small-to-large extent).
pub fn cold_corpus(seed: u64, count: usize) -> Vec<ServeProgram> {
    assert!(
        count <= COLD_PROGRAMS_MAX,
        "every light kernel has at least {} distinct extents",
        COLD_PROGRAMS_MAX / 24
    );
    draw_programs(
        &mut stream(seed, "cold-corpus"),
        SizeBand::SmallToLarge,
        count,
    )
}

/// How a request is expected to be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Byte-identical repeat of a warmed line: exact-line tier.
    Line,
    /// Warmed program under a fresh tag: parse, prepare, artifact tier.
    Artifact,
    /// Warmed program under a fresh ε: artifact miss, prefix hit; a worker
    /// runs search, code generation and rendering only.
    Prefix,
    /// A program the server has never seen: every tier misses.
    Cold,
    /// A malformed line: typed error.
    Error,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 5] = [
        Class::Line,
        Class::Artifact,
        Class::Prefix,
        Class::Cold,
        Class::Error,
    ];

    /// The metric-name fragment (`serve.<tier>.p50_us`).
    pub fn tier(self) -> &'static str {
        match self {
            Class::Line => "line_tier",
            Class::Artifact => "artifact_tier",
            Class::Prefix => "prefix_tier",
            Class::Cold => "cold",
            Class::Error => "error",
        }
    }
}

/// One request of a traffic stream, before its line is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Expected answering tier.
    pub class: Class,
    /// Index into the corpus ([`MALFORMED`] for [`Class::Error`]).
    pub index: usize,
    /// Tag or ε ordinal, unique within a run for the classes that use it.
    pub ordinal: u64,
}

/// The traffic blend of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blend {
    /// 50% line repeats, 50% retagged repeats.
    Hot,
    /// Distinct programs, in corpus order.
    Cold,
    /// 70% line repeats, 20% fresh-ε variants, 10% malformed.
    Mixed,
}

/// An endless seeded stream of [`Op`]s. Ordinals count up, so the stream
/// never sends the same tag, ε, or cold program twice.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    blend: Blend,
    corpus_len: usize,
    next_ordinal: u64,
}

impl OpStream {
    /// The stream of a blend over a corpus of `corpus_len` programs.
    pub fn new(seed: u64, blend: Blend, corpus_len: usize) -> Self {
        OpStream {
            rng: stream(seed, &format!("ops-{blend:?}")),
            blend,
            corpus_len,
            next_ordinal: 0,
        }
    }

    fn ordinal(&mut self) -> u64 {
        let o = self.next_ordinal;
        self.next_ordinal += 1;
        o
    }

    /// The next request, or `None` once a cold corpus is used up.
    pub fn next_op(&mut self) -> Option<Op> {
        let pick = |rng: &mut StdRng, n: usize| below(rng, n as u64) as usize;
        Some(match self.blend {
            Blend::Hot => {
                let index = pick(&mut self.rng, self.corpus_len);
                if below(&mut self.rng, 2) == 0 {
                    Op {
                        class: Class::Line,
                        index,
                        ordinal: 0,
                    }
                } else {
                    Op {
                        class: Class::Artifact,
                        index,
                        ordinal: self.ordinal(),
                    }
                }
            }
            Blend::Cold => {
                let ordinal = self.ordinal();
                if ordinal as usize >= self.corpus_len {
                    return None;
                }
                Op {
                    class: Class::Cold,
                    index: ordinal as usize,
                    ordinal,
                }
            }
            Blend::Mixed => match below(&mut self.rng, 10) {
                0 => Op {
                    class: Class::Error,
                    index: pick(&mut self.rng, MALFORMED.len()),
                    ordinal: 0,
                },
                1 | 2 => Op {
                    class: Class::Prefix,
                    index: pick(&mut self.rng, self.corpus_len),
                    ordinal: self.ordinal(),
                },
                _ => Op {
                    class: Class::Line,
                    index: pick(&mut self.rng, self.corpus_len),
                    ordinal: 0,
                },
            },
        })
    }
}

/// Assembles the request line of `op` into `out` (cleared first).
pub fn render_op(op: &Op, corpus: &[ServeProgram], out: &mut String) {
    out.clear();
    match op.class {
        Class::Line | Class::Cold => corpus[op.index].line(out),
        Class::Artifact => corpus[op.index].line_tagged(op.ordinal, out),
        Class::Prefix => corpus[op.index].line_epsilon(&epsilon_variant(op.ordinal), out),
        Class::Error => out.push_str(MALFORMED[op.index].0),
    }
}

/// The 37 evaluation programs of `compile_cold` (7 ML + 30 PolyBench at
/// `large`), in a seeded order: the set is the paper's, the seed decides
/// only which program follows which.
pub fn compile_corpus(seed: u64) -> Vec<(String, AffineProgram)> {
    let mut programs: Vec<(String, AffineProgram)> = ml_suite()
        .into_iter()
        .map(|w| {
            (
                w.name.to_string(),
                lower_tensor_to_linalg(&w.graph, w.elem).lower_to_affine(),
            )
        })
        .chain(
            polybench_suite(PolybenchSize::Large)
                .into_iter()
                .map(|w| (w.name.to_string(), w.program)),
        )
        .collect();
    shuffle(&mut stream(seed, "compile-order"), &mut programs);
    programs
}

/// The programs `evaluate_sim` simulates, as (kernel, extent, time
/// steps): four bandwidth-bound kernels at their `large` extent, and a
/// compute-bound BLAS kernel and a stencil at half of it. At `large`
/// those two take 0.8 s and 1.1 s of trace simulation each, which left
/// room for four rounds in a run — too few for a median to shrug off a
/// disturbed one; at half extent a round is under a second. gemm and
/// heat-3d (8–13 s each at `large`) are out for the same reason.
pub const EVALUATE_PROGRAMS: [(&str, usize, usize); 6] = [
    ("mvt", 2000, 0),
    ("atax", 2000, 0),
    ("gesummv", 2000, 0),
    ("trisolv", 2000, 0),
    ("syrk", 256, 0),
    ("jacobi-2d", 500, 10),
];

/// The `evaluate_sim` programs in a seeded order.
pub fn evaluate_corpus(seed: u64) -> Vec<(String, AffineProgram)> {
    let mut programs: Vec<(String, AffineProgram)> = EVALUATE_PROGRAMS
        .iter()
        .map(|&(name, n, ts)| {
            let kernel = KERNELS
                .iter()
                .find(|k| k.name == name)
                .expect("evaluate programs are PolyBench kernels");
            (name.to_string(), kernel.program(n, ts))
        })
        .collect();
    shuffle(&mut stream(seed, "evaluate-order"), &mut programs);
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The first `n` request lines of a blend.
    fn lines(seed: u64, blend: Blend, corpus: &[ServeProgram], n: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut ops = OpStream::new(seed, blend, corpus.len());
        for _ in 0..n {
            let Some(op) = ops.next_op() else { break };
            let mut line = String::new();
            render_op(&op, corpus, &mut line);
            out.push(line);
        }
        out
    }

    fn texts(programs: &[(String, AffineProgram)]) -> Vec<String> {
        programs
            .iter()
            .map(|(name, p)| format!("{name}\n{p}"))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_corpora_for_all_five_workloads() {
        let (hot_a, hot_b) = (hot_corpus(11), hot_corpus(11));
        let (cold_a, cold_b) = (cold_corpus(11, 300), cold_corpus(11, 300));
        for blend in [Blend::Hot, Blend::Mixed] {
            assert_eq!(
                lines(11, blend, &hot_a, 500),
                lines(11, blend, &hot_b, 500),
                "{blend:?}"
            );
        }
        assert_eq!(
            lines(11, Blend::Cold, &cold_a, 300),
            lines(11, Blend::Cold, &cold_b, 300)
        );
        assert_eq!(texts(&compile_corpus(11)), texts(&compile_corpus(11)));
        assert_eq!(texts(&evaluate_corpus(11)), texts(&evaluate_corpus(11)));
        // ...and the seed does decide the order of the fixed program sets.
        assert_ne!(texts(&compile_corpus(11)), texts(&compile_corpus(12)));
        assert_eq!(compile_corpus(11).len(), 37);
        assert_eq!(evaluate_corpus(11).len(), EVALUATE_PROGRAMS.len());
    }

    #[test]
    fn another_seed_gives_another_cold_corpus_without_repeats() {
        let a = lines(1, Blend::Cold, &cold_corpus(1, 600), 700);
        let b = lines(2, Blend::Cold, &cold_corpus(2, 600), 700);
        assert_eq!(a.len(), 600, "the stream drains the corpus exactly");
        assert_ne!(a, b);
        for run in [&a, &b] {
            let distinct: BTreeSet<&String> = run.iter().collect();
            assert_eq!(distinct.len(), run.len(), "a program repeats within a run");
        }
        // The largest corpus a run may ask for still has no repeat and
        // never draws a heavy kernel.
        let full = cold_corpus(3, COLD_PROGRAMS_MAX);
        let distinct: BTreeSet<&str> = full.iter().map(|p| p.source_json.as_str()).collect();
        assert_eq!(distinct.len(), COLD_PROGRAMS_MAX);
        let heavy: Vec<&str> = KERNELS.iter().filter(|k| k.heavy).map(|k| k.name).collect();
        assert_eq!(heavy.len(), 6);
        assert!(full.iter().all(|p| !heavy.contains(&p.name)));
    }

    #[test]
    fn blends_hold_within_one_percent() {
        let n = 200_000;
        for (blend, want) in [
            (Blend::Hot, vec![(Class::Line, 0.5), (Class::Artifact, 0.5)]),
            (
                Blend::Mixed,
                vec![
                    (Class::Line, 0.7),
                    (Class::Prefix, 0.2),
                    (Class::Error, 0.1),
                ],
            ),
        ] {
            let mut ops = OpStream::new(5, blend, HOT_PROGRAMS);
            let mut seen = std::collections::BTreeMap::new();
            for _ in 0..n {
                *seen.entry(ops.next_op().unwrap().class).or_insert(0usize) += 1;
            }
            assert_eq!(seen.len(), want.len(), "{blend:?} has other classes");
            for (class, share) in want {
                let got = seen[&class] as f64 / n as f64;
                assert!(
                    (got - share).abs() <= 0.01,
                    "{blend:?} {class:?}: {got} vs {share}"
                );
            }
        }
    }

    #[test]
    fn tags_and_epsilons_never_repeat() {
        let corpus = hot_corpus(9);
        for blend in [Blend::Hot, Blend::Mixed] {
            let mut fresh = BTreeSet::new();
            let mut ops = OpStream::new(9, blend, corpus.len());
            for _ in 0..4000 {
                let op = ops.next_op().unwrap();
                if matches!(op.class, Class::Artifact | Class::Prefix) {
                    assert!(fresh.insert(op.ordinal), "ordinal {} reused", op.ordinal);
                }
            }
        }
        // Distinct ordinals print as distinct ε values that parse back.
        let (a, b) = (epsilon_variant(0), epsilon_variant(1));
        assert_ne!(a, b);
        assert!(a.parse::<f64>().unwrap() > 1e-3);
    }

    #[test]
    fn preset_extents_reproduce_the_suite_programs() {
        // The kernel table mirrors `polybench_suite`: at the `small`
        // preset's extents every constructor yields the suite's program.
        let suite = polybench_suite(PolybenchSize::Small);
        assert_eq!(suite.len(), KERNELS.len());
        for (k, w) in KERNELS.iter().zip(&suite) {
            assert_eq!(k.name, w.name);
            let n = k.extent.presets()[1];
            assert_eq!(
                format!("{}", k.program(n, TSTEPS[1])),
                format!("{}", w.program),
                "{}",
                k.name
            );
        }
    }
}
