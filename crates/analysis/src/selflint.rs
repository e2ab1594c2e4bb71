//! Source-level concurrency self-lint for the serving stack.
//!
//! The compiler lints *programs*; this pass lints the daemon's own
//! sources for the concurrency conventions the `chk` crate enforces
//! dynamically. It is deliberately token-level (no Rust parser in the
//! workspace): files are scanned line by line with comments and string
//! literals blanked out, so a mention of `Mutex` in a doc comment never
//! trips a rule. Four passes:
//!
//! * **`chk-signal-safety`** — a function annotated `// chk:signal-handler`
//!   runs in async-signal context: only async-signal-safe work is
//!   allowed (atomic stores, raw `write(2)`/`raise(2)`). Allocation,
//!   formatting, locking, and panicking are errors.
//! * **`chk-eintr-loop`** — a raw syscall (`read(`, `write(`,
//!   `epoll_wait(`, declared via `extern "C"`, not the `std::io` traits)
//!   outside a signal handler must sit in a function that handles
//!   `ErrorKind::Interrupted`: under the BSD `signal()` semantics the
//!   daemon installs, syscalls do not auto-restart, and one signal
//!   landing mid-call would otherwise surface a spurious error.
//! * **`chk-reactor-blocking`** — a function annotated
//!   `// chk:reactor-thread` runs on the event-loop thread (the marker
//!   covers one function, so the loop and each of its helpers carry
//!   one): it must never block on anything but the loop's own
//!   `epoll_wait`. Sleeps, joins, blocking channel receives, and blocking
//!   flight waits are errors.
//! * **`chk-lockdep`** — files adopted by the lock-order detector must
//!   not construct a bare `std::sync::Mutex` (invisible to lockdep, so a
//!   cycle through it would go unreported) or any `Condvar` (the daemon
//!   parks on channels and its eventfd; there is no wrapper for one).
//!
//! A finding can be acknowledged in place with
//! `// chk-allow(<pass>): <reason>` on the same or the preceding line;
//! an allowed finding is downgraded to `Info` (recorded, not gating).

use crate::diag::{AnalysisReport, Diagnostic, Location, Severity};

/// One source file to lint: repo-relative path plus full text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, e.g. `crates/serve/src/reactor.rs`.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

impl SourceFile {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }
}

/// Marker comment opening an async-signal-handler region (attaches to
/// the next `fn`).
pub const MARK_SIGNAL_HANDLER: &str = "chk:signal-handler";
/// Marker comment opening a reactor-thread region (attaches to the next
/// `fn`).
pub const MARK_REACTOR_THREAD: &str = "chk:reactor-thread";

/// Tokens that are not async-signal-safe: anything that may allocate,
/// format, lock, unwind, or touch buffered stdio.
const SIGNAL_UNSAFE: &[&str] = &[
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
    "format!",
    "panic!",
    "String::",
    "Vec::",
    "Box::new",
    "to_string",
    "to_owned",
    ".lock()",
    "Mutex",
    "Condvar",
    "std::io::",
    ".unwrap()",
    ".expect(",
];

/// Calls that park or sleep the calling thread; none may run on the
/// reactor thread (its only legal park is its own `epoll_wait`).
const REACTOR_BLOCKING: &[&str] = &[
    "thread::sleep",
    ".join()",
    ".wait()",
    ".recv()",
    "wait_timeout",
    "handle_line(",
];

/// Raw syscalls the daemon declares via `extern "C"`; each call site
/// must live in an EINTR-restarting function.
const RAW_SYSCALLS: &[&str] = &["read(", "write(", "epoll_wait("];

/// A contiguous function region `[start_line, end_line]` (1-based,
/// inclusive) opened by a marker comment.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    end: usize,
}

/// Lints the given sources and returns one combined report (program
/// name `self`). Diagnostics are ordered file-then-line.
pub fn lint_sources(files: &[SourceFile]) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    for f in files {
        lint_file(f, &mut diagnostics);
    }
    AnalysisReport {
        program: "self".to_string(),
        diagnostics,
        ..Default::default()
    }
}

fn lint_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let raw_lines: Vec<&str> = file.text.lines().collect();
    let code_lines = strip_comments_and_strings(&raw_lines);

    let handler_regions = marked_regions(&raw_lines, &code_lines, MARK_SIGNAL_HANDLER);
    let reactor_regions = marked_regions(&raw_lines, &code_lines, MARK_REACTOR_THREAD);
    let fn_regions = all_fn_regions(&code_lines);

    let mut findings = Vec::new();

    // Pass 1: async-signal safety inside handler-marked regions.
    for r in &handler_regions {
        for ln in r.start..=r.end {
            let code = &code_lines[ln - 1];
            for tok in SIGNAL_UNSAFE {
                if has_token(code, tok) {
                    findings.push((
                        "chk-signal-safety",
                        ln,
                        format!(
                            "`{tok}` inside a signal handler: only async-signal-safe \
                             work (atomic stores, raw write(2)/raise(2)) is allowed here"
                        ),
                    ));
                }
            }
        }
    }

    // Pass 2: raw syscalls outside handler regions need EINTR restarts.
    for (ln, code) in code_lines.iter().enumerate().map(|(i, c)| (i + 1, c)) {
        if in_any(ln, &handler_regions) {
            continue; // governed by the signal-safety pass instead
        }
        for sys in RAW_SYSCALLS {
            if !has_bare_call(code, sys) {
                continue;
            }
            let enclosing = fn_regions.iter().find(|r| ln >= r.start && ln <= r.end);
            let restarts = enclosing.is_some_and(|r| {
                (r.start..=r.end).any(|l| code_lines[l - 1].contains("Interrupted"))
            });
            if !restarts {
                let name = sys.trim_end_matches('(');
                findings.push((
                    "chk-eintr-loop",
                    ln,
                    format!(
                        "raw `{name}(2)` call in a function with no \
                         `ErrorKind::Interrupted` restart: signals do not auto-restart \
                         syscalls under the daemon's `signal()` semantics"
                    ),
                ));
            }
        }
    }

    // Pass 3: the reactor thread must not block.
    for r in &reactor_regions {
        for ln in r.start..=r.end {
            let code = &code_lines[ln - 1];
            for tok in REACTOR_BLOCKING {
                if has_token(code, tok) {
                    findings.push((
                        "chk-reactor-blocking",
                        ln,
                        format!(
                            "`{tok}` on the reactor thread: the event loop may only \
                             park in its own epoll_wait"
                        ),
                    ));
                }
            }
        }
    }

    // Pass 4: lockdep-adopted files must not construct bare std locks.
    const USE_MUTEX: &str =
        "use `OrderedMutex::new(\"<site>\", ..)` so the lock-order detector sees it";
    const NO_CONDVAR: &str = "the daemon parks on channels and its eventfd, and a condvar \
                              wait is invisible to the lock-order detector";
    for (ln, code) in code_lines.iter().enumerate().map(|(i, c)| (i + 1, c)) {
        for (tok, advice) in [
            ("std::sync::Mutex", USE_MUTEX),
            ("std::sync::Condvar", NO_CONDVAR),
        ] {
            if code.contains(tok) {
                let message = format!("`{tok}` in a lockdep-adopted file: {advice}");
                findings.push(("chk-lockdep", ln, message));
            }
        }
        for (bare, advice) in [("Mutex::new(", USE_MUTEX), ("Condvar::new(", NO_CONDVAR)] {
            for pos in match_positions(code, bare) {
                // `OrderedMutex::new(` contains `Mutex::new(`; only the
                // bare constructor is a finding.
                if !preceded_by(code, pos, "Ordered") {
                    let message = format!("bare `{bare}..)` in a lockdep-adopted file: {advice}");
                    findings.push(("chk-lockdep", ln, message));
                }
            }
        }
    }

    findings.sort_by_key(|&(_, ln, _)| ln);
    for (pass, ln, message) in findings {
        let allow = allow_reason(&raw_lines, ln, pass);
        let (severity, message) = match allow {
            Some(reason) => (Severity::Info, format!("{message} (allowed: {reason})")),
            None => (Severity::Error, message),
        };
        out.push(Diagnostic {
            pass,
            severity,
            location: Location::source(file.path.clone(), ln),
            message,
            witness: None,
        });
    }
}

/// The `chk-allow(<pass>): reason` directive on this line or the one
/// above, if present.
fn allow_reason(raw_lines: &[&str], line: usize, pass: &str) -> Option<String> {
    let needle = format!("chk-allow({pass})");
    for ln in [Some(line), line.checked_sub(1)].into_iter().flatten() {
        if ln == 0 || ln > raw_lines.len() {
            continue;
        }
        let raw = raw_lines[ln - 1];
        if let Some(pos) = raw.find(&needle) {
            let rest = &raw[pos + needle.len()..];
            let reason = rest.trim_start_matches(':').trim();
            return Some(if reason.is_empty() {
                "unspecified".to_string()
            } else {
                reason.to_string()
            });
        }
    }
    None
}

fn in_any(line: usize, regions: &[Region]) -> bool {
    regions.iter().any(|r| line >= r.start && line <= r.end)
}

/// Byte offsets of every occurrence of `needle` in `hay`.
fn match_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        out.push(from + i);
        from += i + needle.len();
    }
    out
}

fn preceded_by(hay: &str, pos: usize, prefix: &str) -> bool {
    pos >= prefix.len() && hay[..pos].ends_with(prefix)
}

/// Whether `code` calls `sys` as a bare (non-method, non-suffixed)
/// identifier: the previous character must not be part of a path,
/// method chain, or longer identifier.
fn has_bare_call(code: &str, sys: &str) -> bool {
    match_positions(code, sys).iter().any(|&pos| {
        // `fn write(...)` is the extern "C" declaration, not a call.
        if preceded_by(code, pos, "fn ") {
            return false;
        }
        pos == 0
            || !matches!(
                code.as_bytes()[pos - 1],
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'.' | b':'
            )
    })
}

/// Whether `code` contains `tok` starting at an identifier boundary
/// (so `println!` does not match inside `eprintln!`). Tokens opening
/// with a non-identifier byte (`.lock()`) match anywhere.
fn has_token(code: &str, tok: &str) -> bool {
    let ident_start = tok
        .as_bytes()
        .first()
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    match_positions(code, tok).iter().any(|&pos| {
        !ident_start
            || pos == 0
            || !matches!(
                code.as_bytes()[pos - 1],
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_'
            )
    })
}

/// Regions opened by `marker` comments: each marker attaches to the next
/// line containing `fn` and spans to that function's closing brace.
fn marked_regions(raw_lines: &[&str], code_lines: &[String], marker: &str) -> Vec<Region> {
    let mut out = Vec::new();
    for (i, raw) in raw_lines.iter().enumerate() {
        if !raw.contains(marker) || raw.contains("chk-allow") {
            continue;
        }
        // Find the next fn line at or after the marker.
        let Some(fn_idx) = (i..code_lines.len()).find(|&j| is_fn_line(&code_lines[j])) else {
            continue;
        };
        if let Some(end) = brace_span_end(code_lines, fn_idx) {
            out.push(Region {
                start: fn_idx + 1,
                end: end + 1,
            });
        }
    }
    out
}

/// Every function region in the file, for "enclosing fn" queries.
fn all_fn_regions(code_lines: &[String]) -> Vec<Region> {
    let mut out = Vec::new();
    for i in 0..code_lines.len() {
        if is_fn_line(&code_lines[i]) {
            if let Some(end) = brace_span_end(code_lines, i) {
                out.push(Region {
                    start: i + 1,
                    end: end + 1,
                });
            }
        }
    }
    out
}

fn is_fn_line(code: &str) -> bool {
    match_positions(code, "fn ").iter().any(|&pos| {
        pos == 0
            || !matches!(
                code.as_bytes()[pos - 1],
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_'
            )
    })
}

/// The (0-based) line index of the brace closing the block opened at or
/// after `start`, by brace counting over comment/string-stripped code.
fn brace_span_end(code_lines: &[String], start: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut opened = false;
    for (j, code) in code_lines.iter().enumerate().skip(start) {
        for b in code.bytes() {
            match b {
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some(j);
        }
        // A declaration-only line (`extern` block item, trait method)
        // that hits `;` before any `{` has no body to span.
        if !opened && code.contains(';') {
            return None;
        }
    }
    None
}

/// Line-by-line copy of the file with comments and string/char literals
/// blanked, preserving line count and byte offsets within each line.
/// Block comments spanning lines are handled; raw strings are treated as
/// normal strings (good enough for the daemon's sources, which have
/// none).
fn strip_comments_and_strings(raw_lines: &[&str]) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        Block,
        Str,
        Char,
    }
    let mut st = St::Code;
    let mut out = Vec::with_capacity(raw_lines.len());
    for raw in raw_lines {
        let bytes = raw.as_bytes();
        let mut line = vec![b' '; bytes.len()];
        let mut i = 0;
        while i < bytes.len() {
            match st {
                St::Code => match bytes[i] {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => break, // rest is comment
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        st = St::Block;
                        i += 2;
                    }
                    b'"' => {
                        st = St::Str;
                        i += 1;
                    }
                    // A char literal (not a lifetime): 'x' or '\n'.
                    b'\''
                        if bytes.get(i + 2) == Some(&b'\'')
                            || (bytes.get(i + 1) == Some(&b'\\')) =>
                    {
                        st = St::Char;
                        i += 1;
                    }
                    b => {
                        line[i] = b;
                        i += 1;
                    }
                },
                St::Block => {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        st = St::Code;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                St::Str => match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        st = St::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
                St::Char => match bytes[i] {
                    b'\\' => i += 2,
                    b'\'' => {
                        st = St::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
            }
        }
        // Strings and chars never span lines in these sources; a
        // still-open literal at EOL is closed (multiline strings would
        // need raw-string tracking the daemon doesn't require).
        if st == St::Str || st == St::Char {
            st = St::Code;
        }
        out.push(String::from_utf8(line).expect("ascii blanks of a utf-8 line"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, text: &str) -> AnalysisReport {
        lint_sources(&[SourceFile::new(path, text)])
    }

    #[test]
    fn signal_handler_region_rejects_unsafe_tokens() {
        let src = r#"
// chk:signal-handler
extern "C" fn on_signal(_sig: i32) {
    FLAG.store(true, Ordering::SeqCst);
    eprintln!("caught"); // not async-signal-safe
}

fn elsewhere() {
    eprintln!("fine outside the handler");
}
"#;
        let r = lint_one("x.rs", src);
        let errs: Vec<_> = r.at_least(Severity::Error).collect();
        assert_eq!(errs.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(errs[0].pass, "chk-signal-safety");
        assert_eq!(errs[0].location.line, Some(5));
    }

    #[test]
    fn raw_syscall_without_eintr_restart_is_flagged() {
        let src = r#"
fn leaky(fd: i32) -> isize {
    unsafe { write(fd, core::ptr::null(), 0) }
}

fn restarting(fd: i32) {
    loop {
        let n = unsafe { write(fd, core::ptr::null(), 0) };
        if n >= 0 || std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
            return;
        }
    }
}
"#;
        let r = lint_one("x.rs", src);
        let errs: Vec<_> = r.at_least(Severity::Error).collect();
        assert_eq!(errs.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(errs[0].pass, "chk-eintr-loop");
        assert_eq!(errs[0].location.line, Some(3));
    }

    #[test]
    fn method_reads_and_writes_are_not_raw_syscalls() {
        let src = r#"
fn wrapped(s: &mut TcpStream, buf: &mut [u8]) {
    let _ = s.read(buf);
    let _ = s.write(buf);
    let _ = io::Write::write(s, buf);
}
"#;
        let r = lint_one("x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn reactor_region_rejects_blocking_calls() {
        // The marker covers one function: the loop and its marked helper
        // are linted, the unmarked function is not.
        let src = r#"
// chk:reactor-thread
fn event_loop(rx: &Receiver<u8>) {
    loop {
        let _ = rx.recv();
    }
}

fn worker(rx: &Receiver<u8>) {
    let _ = rx.recv();
}

// chk:reactor-thread
fn helper_the_loop_calls(rx: &Receiver<u8>) {
    let _ = rx.recv();
}
"#;
        let r = lint_one("x.rs", src);
        let errs: Vec<_> = r.at_least(Severity::Error).collect();
        assert_eq!(errs.len(), 2, "{:?}", r.diagnostics);
        assert!(errs.iter().all(|d| d.pass == "chk-reactor-blocking"));
        assert_eq!(errs[0].location.line, Some(5));
        assert_eq!(errs[1].location.line, Some(15));
    }

    #[test]
    fn bare_std_locks_are_flagged_but_wrappers_pass() {
        let src = r#"
use std::sync::Mutex;
fn build() {
    let _a = Mutex::new(0);
    let _b = OrderedMutex::new("site", 0);
    let _c = Condvar::new();
}
"#;
        let r = lint_one("x.rs", src);
        let errs: Vec<_> = r.at_least(Severity::Error).collect();
        assert_eq!(errs.len(), 3, "{:?}", r.diagnostics);
        assert!(errs.iter().all(|d| d.pass == "chk-lockdep"));
        assert_eq!(errs[0].location.line, Some(2)); // the import
        assert_eq!(errs[1].location.line, Some(4)); // the bare constructor
        assert!(errs[1].message.contains("OrderedMutex::new("));
        assert_eq!(errs[2].location.line, Some(6)); // no wrapper to suggest
        assert!(errs[2].message.contains("parks on channels"));
    }

    #[test]
    fn chk_allow_downgrades_to_info_with_reason() {
        let src = r#"
fn one_shot(fd: i32) {
    // chk-allow(chk-eintr-loop): best-effort single write; caller retries
    unsafe { write(fd, core::ptr::null(), 0) };
}
"#;
        let r = lint_one("x.rs", src);
        assert!(
            r.at_least(Severity::Error).next().is_none(),
            "{:?}",
            r.diagnostics
        );
        let info: Vec<_> = r.diagnostics.iter().collect();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].severity, Severity::Info);
        assert!(info[0].message.contains("best-effort single write"));
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = r#"
//! One big `Mutex` guarded the map; see std::sync::Mutex docs.
/* Mutex::new( in a block comment */
fn messages() {
    let _s = "std::sync::Mutex and Mutex::new( in a string";
}
"#;
        let r = lint_one("x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn diagnostics_carry_file_and_line_into_json() {
        let src = "use std::sync::Mutex;\n";
        let r = lint_one("crates/x/src/lib.rs", src);
        let j = r.to_json();
        assert!(j.contains("\"file\": \"crates/x/src/lib.rs\""), "{j}");
        assert!(j.contains("\"line\": 1"), "{j}");
        let text = r.render_text();
        assert!(text.contains("crates/x/src/lib.rs:1"), "{text}");
    }
}
