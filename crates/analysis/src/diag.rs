//! Structured diagnostics: severity, pass id, location, message, and an
//! optional concrete witness, with text and JSON renderings shared by the
//! `polyufc lint` CLI and the pipeline's verify gate.

use std::fmt;

use polyufc_ir::deps::DepSummary;

/// How bad a finding is. Ordering is by badness: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Non-actionable note (e.g. a skipped audit check).
    Info,
    /// Suspicious but not unsound (e.g. an unused array).
    Warning,
    /// A proven or unprovable-safety violation; compilation must not
    /// trust the program.
    Error,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the program a diagnostic points. All fields optional: a
/// program-level lint (unused array) has no kernel, a kernel-level one no
/// statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Kernel name.
    pub kernel: Option<String>,
    /// Statement label within the kernel.
    pub statement: Option<String>,
    /// Loop depth index (0 = outermost).
    pub loop_index: Option<usize>,
    /// Array name.
    pub array: Option<String>,
    /// Source file path (used by source-level passes like the self-lint).
    pub file: Option<String>,
    /// 1-based source line within `file`.
    pub line: Option<usize>,
}

impl Location {
    /// A kernel-level location.
    pub fn kernel(name: impl Into<String>) -> Self {
        Location {
            kernel: Some(name.into()),
            ..Location::default()
        }
    }

    /// Adds a statement label.
    pub fn statement(mut self, name: impl Into<String>) -> Self {
        self.statement = Some(name.into());
        self
    }

    /// Adds a loop index.
    pub fn loop_index(mut self, d: usize) -> Self {
        self.loop_index = Some(d);
        self
    }

    /// Adds an array name.
    pub fn array(mut self, name: impl Into<String>) -> Self {
        self.array = Some(name.into());
        self
    }

    /// A source-file location (1-based line), for source-level passes.
    pub fn source(file: impl Into<String>, line: usize) -> Self {
        Location {
            file: Some(file.into()),
            line: Some(line),
            ..Location::default()
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(k) = &self.kernel {
            parts.push(format!("kernel `{k}`"));
        }
        if let Some(s) = &self.statement {
            parts.push(format!("statement `{s}`"));
        }
        if let Some(d) = self.loop_index {
            parts.push(format!("loop %i{d}"));
        }
        if let Some(a) = &self.array {
            parts.push(format!("array `{a}`"));
        }
        if let Some(file) = &self.file {
            match self.line {
                Some(line) => parts.push(format!("{file}:{line}")),
                None => parts.push(file.clone()),
            }
        }
        if parts.is_empty() {
            f.write_str("program")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// Concrete evidence attached to a diagnostic: the solver's sampled point
/// rather than a mere emptiness verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// Two iteration vectors proving a loop-carried dependence: the
    /// conflict happens between instance `src` and later instance `dst`.
    IterationPair {
        /// Source iteration.
        src: Vec<i64>,
        /// Conflicting later iteration.
        dst: Vec<i64>,
    },
    /// An iteration whose subscript leaves the array shape in one
    /// dimension.
    Point {
        /// The violating iteration vector.
        iters: Vec<i64>,
        /// Which array dimension overflows.
        dim: usize,
        /// Value of the subscript at `iters`.
        index_value: i64,
    },
}

fn vec_fmt(v: &[i64]) -> String {
    let inner: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("({})", inner.join(", "))
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::IterationPair { src, dst } => {
                write!(f, "iterations {} -> {}", vec_fmt(src), vec_fmt(dst))
            }
            Witness::Point {
                iters,
                dim,
                index_value,
            } => write!(
                f,
                "iteration {}, subscript {} in dim {}",
                vec_fmt(iters),
                index_value,
                dim
            ),
        }
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable pass identifier (`race`, `bounds`, `ir-verify`,
    /// `model-audit`).
    pub pass: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Program location.
    pub location: Location,
    /// Human-readable description.
    pub message: String,
    /// Concrete evidence, when the pass can produce one.
    pub witness: Option<Witness>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.pass, self.location, self.message
        )?;
        if let Some(w) = &self.witness {
            write!(f, " — witness {w}")?;
        }
        Ok(())
    }
}

/// Solver-level accounting for one analyzer run: how the batched
/// Presburger [`Context`](polyufc_presburger::Context) was exercised.
/// Feeds the pipeline's `CompileReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Emptiness batches issued through the shared context.
    pub emptiness_batches: u64,
    /// Individual emptiness checks issued (across all batches).
    pub emptiness_checks: u64,
    /// High-water mark of the solver arena, in bytes.
    pub peak_arena_bytes: usize,
}

/// The result of analyzing one program: every finding of every pass that
/// ran, in deterministic pass-then-program order.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Name of the analyzed program.
    pub program: String,
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Solver accounting for this run.
    pub stats: AnalysisStats,
    /// The well-formed kernels' dependence summaries, in kernel order (one
    /// per kernel when there is no error), handed on to Pluto.
    pub deps: Vec<DepSummary>,
}

impl AnalysisReport {
    /// The worst severity present, or `None` if there are no findings.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Whether the program is clean: no warnings and no errors (infos are
    /// allowed — they record skipped checks, not findings).
    pub fn is_clean(&self) -> bool {
        self.max_severity().is_none_or(|s| s < Severity::Warning)
    }

    /// Findings at or above a severity.
    pub fn at_least(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity >= s)
    }

    /// Human-readable multi-line rendering with a trailing summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        let (mut ne, mut nw, mut ni) = (0usize, 0usize, 0usize);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => ne += 1,
                Severity::Warning => nw += 1,
                Severity::Info => ni += 1,
            }
        }
        out.push_str(&format!(
            "`{}`: {} error(s), {} warning(s), {} info(s)\n",
            self.program, ne, nw, ni
        ));
        out
    }

    /// Machine-readable JSON rendering (hand-rolled: the offline serde
    /// stand-in has no serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"polyufc-lint/1\",\n");
        out.push_str(&format!(
            "  \"program\": \"{}\",\n",
            json_escape(&self.program)
        ));
        out.push_str(&format!(
            "  \"max_severity\": {},\n",
            match self.max_severity() {
                Some(s) => format!("\"{}\"", s.as_str()),
                None => "null".to_string(),
            }
        ));
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("    {}{}\n", diag_json(d), comma));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn diag_json(d: &Diagnostic) -> String {
    let mut fields = vec![
        format!("\"pass\": \"{}\"", d.pass),
        format!("\"severity\": \"{}\"", d.severity.as_str()),
    ];
    if let Some(k) = &d.location.kernel {
        fields.push(format!("\"kernel\": \"{}\"", json_escape(k)));
    }
    if let Some(s) = &d.location.statement {
        fields.push(format!("\"statement\": \"{}\"", json_escape(s)));
    }
    if let Some(l) = d.location.loop_index {
        fields.push(format!("\"loop\": {l}"));
    }
    if let Some(a) = &d.location.array {
        fields.push(format!("\"array\": \"{}\"", json_escape(a)));
    }
    if let Some(file) = &d.location.file {
        fields.push(format!("\"file\": \"{}\"", json_escape(file)));
    }
    if let Some(line) = d.location.line {
        fields.push(format!("\"line\": {line}"));
    }
    fields.push(format!("\"message\": \"{}\"", json_escape(&d.message)));
    match &d.witness {
        Some(Witness::IterationPair { src, dst }) => fields.push(format!(
            "\"witness\": {{\"kind\": \"iteration-pair\", \"src\": {}, \"dst\": {}}}",
            json_vec(src),
            json_vec(dst)
        )),
        Some(Witness::Point {
            iters,
            dim,
            index_value,
        }) => fields.push(format!(
            "\"witness\": {{\"kind\": \"point\", \"iters\": {}, \"dim\": {dim}, \"index\": {index_value}}}",
            json_vec(iters)
        )),
        None => {}
    }
    format!("{{{}}}", fields.join(", "))
}

fn json_vec(v: &[i64]) -> String {
    let inner: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", inner.join(", "))
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` escaped for a JSON string literal, without the
/// quotes. The one JSON string escaper: [`json_escape`] and the daemon's
/// wire writer both call it.
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_summaries() {
        let mut r = AnalysisReport {
            program: "p".into(),
            diagnostics: vec![],
            ..Default::default()
        };
        assert!(r.is_clean());
        assert_eq!(r.max_severity(), None);
        r.diagnostics.push(Diagnostic {
            pass: "ir-verify",
            severity: Severity::Info,
            location: Location::default(),
            message: "note".into(),
            witness: None,
        });
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic {
            pass: "race",
            severity: Severity::Error,
            location: Location::kernel("k").loop_index(1),
            message: "conflict".into(),
            witness: Some(Witness::IterationPair {
                src: vec![0, 0],
                dst: vec![0, 1],
            }),
        });
        assert!(!r.is_clean());
        assert!(r.has_errors());
        let text = r.render_text();
        assert!(text.contains("error[race] kernel `k`, loop %i1"));
        assert!(text.contains("witness iterations (0, 0) -> (0, 1)"));
        assert!(text.contains("1 error(s), 0 warning(s), 1 info(s)"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = AnalysisReport {
            program: "q\"uote".into(),
            diagnostics: vec![Diagnostic {
                pass: "bounds",
                severity: Severity::Error,
                location: Location::kernel("k").statement("S0").array("A"),
                message: "out of bounds".into(),
                witness: Some(Witness::Point {
                    iters: vec![15],
                    dim: 0,
                    index_value: 16,
                }),
            }],
            ..Default::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"program\": \"q\\\"uote\""));
        assert!(j.contains("\"max_severity\": \"error\""));
        assert!(j.contains(
            "\"witness\": {\"kind\": \"point\", \"iters\": [15], \"dim\": 0, \"index\": 16}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
