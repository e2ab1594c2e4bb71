//! Byte-identity of the wire replies, pinned: every `oneshot_response`
//! body (the function behind `polyufc compile --json`) over PolyBench at
//! mini and small plus the 7 ML programs, × {bdw, rpl} × {edp, energy,
//! perf} × three ε × {no emit, `"emit":"scf"`}, folded into one FNV-1a
//! digest. `tests/compile_digest.rs` pins the compiler's output but not
//! the reply's `search_steps`; this pins what a client reads.
//!
//! The same requests also go, in order, through an [`Engine`] with two
//! workers, one at a time. Every request after the first per (program,
//! platform) finds the prefix that first compile left in the shared
//! prefix tier, whichever worker takes it, and runs only the search (and
//! codegen under `"emit":"scf"`): each of those bodies must equal its
//! one-shot body, and the engine's counters must say exactly that.

use std::collections::HashSet;

use polyufc_machine::fault::{fnv1a, FNV_OFFSET};
use polyufc_serve::{
    json, oneshot_response, parse_request, CompileRequest, Engine, EngineConfig, Request,
};
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

fn sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (tag, size) in [
        ("mini", PolybenchSize::Mini),
        ("small", PolybenchSize::Small),
    ] {
        for w in polybench_suite(size) {
            out.push((format!("{}@{tag}", w.name), format!("{}", w.program)));
        }
    }
    for w in ml_suite() {
        out.push((w.name.to_string(), format!("{}", w.affine())));
    }
    out
}

fn request(line: &str) -> CompileRequest {
    match parse_request(line) {
        Ok(Request::Compile(c)) => *c,
        other => panic!("{line} parsed as {other:?}"),
    }
}

/// The engine's `(prefix_hits, prefix_misses)`.
fn prefix_counters(engine: &Engine) -> (u64, u64) {
    let stats = json::parse(&engine.stats_json()).expect("stats are JSON");
    let server = |key: &str| {
        let v = stats.get("server").and_then(|s| s.get(key));
        v.and_then(|v| v.as_f64()).expect("a server counter") as u64
    };
    (server("prefix_hits"), server("prefix_misses"))
}

#[test]
fn wire_replies_are_pinned_and_prefix_hits_match_oneshot() {
    let sources = sources();
    // Byte-equal sources would share a prefix, and their requests would
    // be artifact hits rather than the prefix hits counted below.
    let distinct: HashSet<&str> = sources.iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(distinct.len(), sources.len(), "two sources are byte-equal");
    let engine = Engine::new(&EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let mut h = FNV_OFFSET;
    let mut replies = 0usize;
    for (name, source) in &sources {
        for platform in ["bdw", "rpl"] {
            for objective in ["edp", "energy", "perf"] {
                for epsilon in ["1e-3", "0.0123", "0.3"] {
                    for emit in ["", "\"emit\":\"scf\","] {
                        let mut line = format!(
                            "{{\"op\":\"compile\",\"platform\":\"{platform}\",\
                             \"objective\":\"{objective}\",\"epsilon\":{epsilon},{emit}\"source\":"
                        );
                        json::push_escaped(&mut line, source);
                        line.push('}');
                        let oneshot = oneshot_response(&request(&line));
                        let served = engine.handle_line(&line);
                        assert_eq!(
                            served.body(),
                            oneshot,
                            "{name} {platform} {objective} ε={epsilon} {emit}: \
                             engine reply differs from the one-shot reply"
                        );
                        h = fnv1a(h, name.as_bytes());
                        h = fnv1a(h, oneshot.as_bytes());
                        replies += 1;
                    }
                }
            }
        }
    }
    assert_eq!(replies, 67 * 36);
    let pinned = 0xb7a7_cc43_0e4e_fb21u64;
    assert_eq!(
        h, pinned,
        "wire replies moved: digest is now {h:#018x}, pinned {pinned:#018x}"
    );
    // One prefix miss per (program, platform), then 17 hits.
    assert_eq!(prefix_counters(&engine), (67 * 2 * 17, 67 * 2));
    engine.shutdown();
}
