//! Byte-identity of the wire replies, pinned: every `oneshot_response`
//! body (the function behind `polyufc compile --json`) over PolyBench at
//! mini and small plus the 7 ML programs, × {bdw, rpl} × {edp, energy,
//! perf} × three ε × {no emit, `"emit":"scf"`}, folded into one FNV-1a
//! digest. `tests/compile_digest.rs` pins the compiler's output but not
//! the reply's `search_steps`; this pins what a client reads.
//!
//! The same requests also go, in order, through one [`WorkerState`], so
//! all but the first request per (program, platform) is a prefix hit
//! that runs only the search (and codegen under `"emit":"scf"`): each of
//! those bodies must equal its one-shot body.

use polyufc_machine::fault::{fnv1a, FNV_OFFSET};
use polyufc_serve::engine::{compile_prepared, prepare, WorkerState};
use polyufc_serve::{json, oneshot_response, parse_request, CompileRequest, Request};
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

#[test]
fn wire_replies_are_pinned_and_prefix_hits_match_oneshot() {
    let mut state = WorkerState::new();
    let mut h = FNV_OFFSET;
    let mut replies = 0usize;
    for (name, source) in sources() {
        for platform in ["bdw", "rpl"] {
            for objective in ["edp", "energy", "perf"] {
                for epsilon in ["1e-3", "0.0123", "0.3"] {
                    for emit in ["", "\"emit\":\"scf\","] {
                        let mut line = format!(
                            "{{\"op\":\"compile\",\"platform\":\"{platform}\",\
                             \"objective\":\"{objective}\",\"epsilon\":{epsilon},{emit}\"source\":"
                        );
                        json::push_escaped(&mut line, &source);
                        line.push('}');
                        let req = request(&line);
                        let oneshot = oneshot_response(&req);
                        let prepared = prepare(&req).unwrap_or_else(|e| panic!("{name}: {e:?}"));
                        let (served, _, _) = compile_prepared(&prepared, &mut state);
                        assert_eq!(
                            served, oneshot,
                            "{name} {platform} {objective} ε={epsilon} {emit}: \
                             worker reply differs from the one-shot reply"
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
}
