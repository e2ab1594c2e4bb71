//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, always. Every
//! malformed input — bad JSON, wrong field types, unparseable kernel
//! sources, oversized lines — comes back as a typed `{"ok":false,
//! "error":{...}}` object on the same connection; the daemon never
//! panics, never closes the connection on bad input, and never leaves a
//! request unanswered.
//!
//! Response bytes are deterministic: field order is fixed by the
//! renderers below and floats print in shortest round-trip form, so a
//! cached artifact is byte-identical to a fresh compilation of the same
//! request and to the one-shot CLI's `--json` output.

use polyufc::Objective;
use polyufc_cache::AssocMode;
use polyufc_machine::Platform;

use crate::json::{self, Value};

/// Hard cap on one request line. Compile requests carry whole kernel
/// sources, so the limit is generous, but a bound must exist: an
/// unbounded line is an allocation attack on a long-running daemon.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Stable machine-readable error codes of the `error.code` field.
pub mod codes {
    /// The request line was not valid JSON.
    pub const BAD_JSON: &str = "bad_json";
    /// The request was JSON but violated the request schema.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The request's `op` is not one the daemon knows.
    pub const UNKNOWN_OP: &str = "unknown_op";
    /// The request line exceeded [`super::MAX_REQUEST_BYTES`].
    pub const OVERSIZED: &str = "oversized";
    /// The kernel source did not parse (textual IR or cgeist C).
    pub const PARSE_ERROR: &str = "parse_error";
    /// The static verifier rejected the program with errors.
    pub const REJECTED: &str = "rejected";
    /// The cache model could not analyze a kernel.
    pub const MODEL: &str = "model";
    /// Every worker was busy and the queue was full; the request was
    /// shed (backpressure — retry later).
    pub const OVERLOADED: &str = "overloaded";
    /// A compile worker panicked; the daemon recovered and keeps
    /// serving, the request did not.
    pub const INTERNAL: &str = "internal";
    /// The compile exceeded the configured per-request deadline and was
    /// aborted by the watchdog.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// This kernel (its source on this platform and assoc mode, whatever
    /// the search parameters) repeatedly panicked or timed out and is
    /// quarantined; the request was rejected from cache.
    pub const QUARANTINED: &str = "quarantined";
    /// The daemon is shutting down; pending compiles were drained with
    /// this error instead of compiling.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// A typed protocol error, rendered as one `{"ok":false,...}` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error from a code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// The one-line JSON response body.
    pub fn render(&self) -> String {
        render_error(self.code, &self.message)
    }
}

/// Renders a typed error response body (no trailing newline).
pub fn render_error(code: &str, message: &str) -> String {
    let mut s = String::with_capacity(64 + message.len());
    s.push_str("{\"ok\":false,\"error\":{\"code\":");
    json::push_escaped(&mut s, code);
    s.push_str(",\"message\":");
    json::push_escaped(&mut s, message);
    s.push_str("}}");
    s
}

/// How the kernel source in a compile request is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFormat {
    /// The textual affine dialect (`polyufc_ir::textual`).
    TextualIr,
    /// A cgeist-style C scop (`polyufc_cgeist`).
    C,
}

/// Pipeline configuration shared by the daemon and the one-shot CLI.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target platform.
    pub platform: Platform,
    /// Search objective.
    pub objective: Objective,
    /// POLYUFC-SEARCH ε threshold.
    pub epsilon: f64,
    /// PolyUFC-CM associativity mode.
    pub assoc: AssocMode,
    /// Include the generated scf program text in the artifact.
    pub emit_scf: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            platform: Platform::broadwell(),
            objective: Objective::Edp,
            epsilon: 1e-3,
            assoc: AssocMode::SetAssociative,
            emit_scf: false,
        }
    }
}

/// A validated compile request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Source encoding.
    pub format: SourceFormat,
    /// The kernel source text.
    pub source: String,
    /// Program name for C sources (textual IR embeds its own names).
    pub name: String,
    /// Pipeline configuration.
    pub opts: CompileOptions,
}

/// The two content addresses of a compile request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestKeys {
    /// Artifact-tier key: everything the response bytes depend on.
    pub artifact: Vec<u8>,
    /// Prefix- and quarantine-tier key: what pipeline stages 1–3 depend
    /// on, so one entry serves every ε/objective/emit variant.
    pub prefix: Vec<u8>,
}

impl CompileRequest {
    /// Both content addresses, built from the request as sent: the
    /// parsed options and the source *bytes*, length-prefixed. The source
    /// determines the program, its sanitize trace and every name a
    /// response embeds, so nothing is parsed to build a key — and two
    /// spellings of one program (whitespace, comments) are two keys.
    /// `name` counts only for C sources; textual IR carries its own.
    /// The artifact key is the search parameters followed by the prefix
    /// key. This is the only place either key is built.
    pub fn keys(&self) -> RequestKeys {
        let field = |key: &mut Vec<u8>, bytes: &[u8]| {
            key.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            key.extend_from_slice(bytes);
        };
        let (format, name): (&[u8], &str) = match self.format {
            SourceFormat::TextualIr => (b"ir", ""),
            SourceFormat::C => (b"c", &self.name),
        };
        let opts = &self.opts;

        let mut prefix = Vec::with_capacity(self.source.len() + name.len() + 64);
        field(&mut prefix, opts.platform.name.as_bytes());
        field(&mut prefix, assoc_str(opts.assoc).as_bytes());
        field(&mut prefix, format);
        field(&mut prefix, name.as_bytes());
        field(&mut prefix, self.source.as_bytes());

        let mut artifact = Vec::with_capacity(prefix.len() + 48);
        field(&mut artifact, objective_str(opts.objective).as_bytes());
        field(&mut artifact, &opts.epsilon.to_le_bytes());
        field(&mut artifact, &[opts.emit_scf as u8]);
        artifact.extend_from_slice(&prefix);
        RequestKeys { artifact, prefix }
    }
}

/// A validated request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a kernel source and return the cap artifact.
    Compile(Box<CompileRequest>),
    /// Return the daemon's structured cache/pool counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain and stop the daemon.
    Shutdown,
}

/// The spelled form of an objective, as used on the wire.
pub fn objective_str(o: Objective) -> &'static str {
    match o {
        Objective::Edp => "edp",
        Objective::Energy => "energy",
        Objective::Performance => "perf",
    }
}

/// The spelled form of an associativity mode, as used on the wire.
pub fn assoc_str(a: AssocMode) -> &'static str {
    match a {
        AssocMode::SetAssociative => "set",
        AssocMode::FullyAssociative => "full",
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Returns a [`WireError`] (`bad_json` / `bad_request` / `unknown_op` /
/// `oversized`) describing exactly what was wrong; the caller renders it
/// as the response.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(WireError::new(
            codes::OVERSIZED,
            format!(
                "request line is {} bytes; the limit is {MAX_REQUEST_BYTES}",
                line.len()
            ),
        ));
    }
    let v = json::parse(line).map_err(|e| WireError::new(codes::BAD_JSON, e.to_string()))?;
    let Value::Obj(_) = &v else {
        return Err(WireError::new(
            codes::BAD_REQUEST,
            "request must be a JSON object",
        ));
    };
    let op = req_str(&v, "op")?
        .ok_or_else(|| WireError::new(codes::BAD_REQUEST, "missing required string field `op`"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "compile" => parse_compile(v).map(|c| Request::Compile(Box::new(c))),
        other => Err(WireError::new(
            codes::UNKNOWN_OP,
            format!("unknown op `{other}` (compile|stats|ping|shutdown)"),
        )),
    }
}

fn parse_compile(mut v: Value) -> Result<CompileRequest, WireError> {
    // The source is the request's bulk: moved out, not copied.
    let source = match &mut v {
        Value::Obj(fields) => fields.remove("source"),
        _ => None,
    };
    let source = match source {
        Some(Value::Str(s)) => s,
        Some(_) => return Err(not_a_string("source")),
        None => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                "compile requires a string field `source`",
            ))
        }
    };
    let v = &v;
    let format = match req_str(v, "format")?.unwrap_or("ir") {
        "ir" | "mlir" => SourceFormat::TextualIr,
        "c" => SourceFormat::C,
        other => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                format!("unknown format `{other}` (ir|c)"),
            ))
        }
    };
    let name = req_str(v, "name")?.unwrap_or("request").to_string();
    let platform_name = req_str(v, "platform")?.unwrap_or("bdw");
    let platform: Platform = platform_name.parse().map_err(|()| {
        WireError::new(
            codes::BAD_REQUEST,
            format!("unknown platform `{platform_name}` (bdw|rpl)"),
        )
    })?;
    let objective = match req_str(v, "objective")?.unwrap_or("edp") {
        "edp" => Objective::Edp,
        "energy" => Objective::Energy,
        "perf" | "performance" => Objective::Performance,
        other => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                format!("unknown objective `{other}` (edp|energy|perf)"),
            ))
        }
    };
    let epsilon = match v.get("epsilon") {
        None => 1e-3,
        Some(Value::Num(e)) if e.is_finite() && *e > 0.0 => *e,
        Some(_) => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                "`epsilon` must be a positive finite number",
            ))
        }
    };
    let assoc = match req_str(v, "assoc")?.unwrap_or("set") {
        "set" => AssocMode::SetAssociative,
        "full" => AssocMode::FullyAssociative,
        other => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                format!("unknown assoc mode `{other}` (set|full)"),
            ))
        }
    };
    let emit_scf = match v.get("emit") {
        None => false,
        Some(Value::Str(s)) if s == "none" => false,
        Some(Value::Str(s)) if s == "scf" => true,
        Some(_) => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                "`emit` must be \"none\" or \"scf\"",
            ))
        }
    };
    Ok(CompileRequest {
        format,
        source,
        name,
        opts: CompileOptions {
            platform,
            objective,
            epsilon,
            assoc,
            emit_scf,
        },
    })
}

/// Optional string field: `Ok(None)` if absent, error if present with a
/// non-string type.
fn req_str<'a>(v: &'a Value, key: &str) -> Result<Option<&'a str>, WireError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(not_a_string(key)),
    }
}

fn not_a_string(key: &str) -> WireError {
    WireError::new(
        codes::BAD_REQUEST,
        format!("field `{key}` must be a string"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_compile() {
        let r = parse_request(r#"{"op":"compile","source":"func @k {\n}\n"}"#).unwrap();
        match r {
            Request::Compile(c) => {
                assert_eq!(c.format, SourceFormat::TextualIr);
                assert_eq!(c.opts.platform.name, "BDW");
                assert_eq!(c.opts.objective, Objective::Edp);
                assert!(!c.opts.emit_scf);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_full_compile() {
        let line = r#"{"op":"compile","format":"c","name":"m","source":"x",
                       "platform":"rpl","objective":"perf","epsilon":0.01,
                       "assoc":"full","emit":"scf"}"#
            .replace('\n', " ");
        match parse_request(&line).unwrap() {
            Request::Compile(c) => {
                assert_eq!(c.format, SourceFormat::C);
                assert_eq!(c.name, "m");
                assert_eq!(c.opts.platform.name, "RPL");
                assert_eq!(c.opts.objective, Objective::Performance);
                assert!((c.opts.epsilon - 0.01).abs() < 1e-12);
                assert_eq!(c.opts.assoc, AssocMode::FullyAssociative);
                assert!(c.opts.emit_scf);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_each_malformation_with_its_code() {
        let cases: &[(&str, &str)] = &[
            ("{", codes::BAD_JSON),
            ("[1,2]", codes::BAD_REQUEST),
            ("{\"op\":42}", codes::BAD_REQUEST),
            ("{\"x\":1}", codes::BAD_REQUEST),
            ("{\"op\":\"frobnicate\"}", codes::UNKNOWN_OP),
            ("{\"op\":\"compile\"}", codes::BAD_REQUEST),
            (
                "{\"op\":\"compile\",\"source\":\"x\",\"format\":\"rust\"}",
                codes::BAD_REQUEST,
            ),
            (
                "{\"op\":\"compile\",\"source\":\"x\",\"platform\":\"m1\"}",
                codes::BAD_REQUEST,
            ),
            (
                "{\"op\":\"compile\",\"source\":\"x\",\"epsilon\":-1}",
                codes::BAD_REQUEST,
            ),
            (
                "{\"op\":\"compile\",\"source\":\"x\",\"epsilon\":\"small\"}",
                codes::BAD_REQUEST,
            ),
            (
                "{\"op\":\"compile\",\"source\":\"x\",\"emit\":\"exe\"}",
                codes::BAD_REQUEST,
            ),
        ];
        for (line, code) in cases {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, *code, "{line}");
        }
    }

    #[test]
    fn oversized_lines_are_typed_errors() {
        let big = format!(
            "{{\"op\":\"compile\",\"source\":\"{}\"}}",
            "a".repeat(MAX_REQUEST_BYTES)
        );
        assert_eq!(parse_request(&big).unwrap_err().code, codes::OVERSIZED);
    }

    #[test]
    fn error_render_is_valid_json() {
        let body = render_error(codes::PARSE_ERROR, "line 3: bad \"token\"");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("parse_error"));
    }
}
