//! The content addresses and the order the engine probes its tiers in.
//!
//! Both keys are built from the request as sent
//! ([`CompileRequest::keys`]): the first test pins what shares a key and
//! what does not, the second which counter each kind of request moves —
//! the same table as `benchmark`'s `class_labels_match_the_tier_that_
//! answers`, so a tier drifting fails here and not only in the benchmark.

use polyufc_serve::json;
use polyufc_serve::{
    oneshot_response, parse_request, ChaosPlan, CompileRequest, Engine, EngineConfig, Request,
};
use polyufc_workloads::{polybench_suite, PolybenchSize};

const STENCIL_C: &str = "double A[64]; double B[64];\n#pragma scop\nfor (int i = 1; i < 63; i++)\n  B[i] = A[i-1] + A[i] + A[i+1];\n#pragma endscop\n";

fn mini_source(name: &str) -> String {
    let w = polybench_suite(PolybenchSize::Mini)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name}"));
    format!("{}", w.program)
}

/// A compile line: `head` is spliced in front of the `source` field.
fn compile_line(head: &str, source: &str) -> String {
    let mut s = format!("{{\"op\":\"compile\",{head}\"source\":");
    json::push_escaped(&mut s, source);
    s.push('}');
    s
}

fn request(line: &str) -> CompileRequest {
    match parse_request(line) {
        Ok(Request::Compile(c)) => *c,
        other => panic!("{line} parsed as {other:?}"),
    }
}

#[test]
fn keys_follow_the_request_as_sent() {
    let gemm = mini_source("gemm");
    let keys = |head: &str, source: &str| request(&compile_line(head, source)).keys();
    let base = keys("", &gemm);

    // Textual IR embeds its own names: the tag changes nothing.
    assert_eq!(keys("\"name\":\"tagged\",", &gemm), base);
    // A C scop is named by the request: another name, another program.
    let (c_a, c_b) = (
        keys("\"format\":\"c\",\"name\":\"a\",", STENCIL_C),
        keys("\"format\":\"c\",\"name\":\"b\",", STENCIL_C),
    );
    assert_ne!(c_a.artifact, c_b.artifact);
    assert_ne!(c_a.prefix, c_b.prefix);
    // The same bytes read as another format are another program.
    assert_ne!(keys("\"format\":\"c\",", &gemm).prefix, base.prefix);

    // Search parameters and the emit flag pick the artifact, not the
    // prefix; platform and assoc mode pick both.
    for head in [
        "\"epsilon\":0.002,",
        "\"objective\":\"energy\",",
        "\"emit\":\"scf\",",
    ] {
        let variant = keys(head, &gemm);
        assert_ne!(variant.artifact, base.artifact, "{head}");
        assert_eq!(variant.prefix, base.prefix, "{head}");
    }
    for head in ["\"platform\":\"rpl\",", "\"assoc\":\"full\","] {
        let variant = keys(head, &gemm);
        assert_ne!(variant.artifact, base.artifact, "{head}");
        assert_ne!(variant.prefix, base.prefix, "{head}");
    }

    // Another spelling of the same program is another key.
    let respelled = keys("", &format!("{gemm}\n// respelled\n"));
    assert_ne!(respelled.artifact, base.artifact);
    assert_ne!(respelled.prefix, base.prefix);
}

/// `[hits, misses, line entries, prefix hits, prefix misses, errors]`.
fn counters(engine: &Engine) -> [u64; 6] {
    let a = engine.cache_stats();
    let stats = json::parse(&engine.stats_json()).expect("stats are JSON");
    let server = |key: &str| {
        let v = stats.get("server").and_then(|s| s.get(key));
        v.and_then(|v| v.as_f64()).expect("a server counter") as u64
    };
    [
        a.hits,
        a.misses,
        a.line_entries as u64,
        server("prefix_hits"),
        server("prefix_misses"),
        server("errors"),
    ]
}

#[test]
fn each_request_moves_the_counters_of_the_tier_that_answers() {
    let engine = Engine::new(&EngineConfig {
        workers: 1,
        deadline: None,
        chaos: ChaosPlan::pristine(),
        ..EngineConfig::default()
    });
    let (gemm, atax) = (mini_source("gemm"), mini_source("atax"));
    let warmed = compile_line("", &gemm);
    let expected = engine.handle_line(&warmed).body().to_string();
    assert!(expected.starts_with("{\"ok\":true"), "{expected}");

    let respelled = format!("{gemm}\n// respelled\n");
    let unparseable = compile_line("", "func @k {");
    let cases = [
        ("exact line", &warmed, [1, 0, 0, 0, 0, 0]),
        // A hit is answered from the keys alone: one line-tier
        // promotion, no `prepare`, no worker.
        (
            "retagged",
            &compile_line("\"name\":\"tag\",", &gemm),
            [1, 0, 1, 0, 0, 0],
        ),
        (
            "fresh epsilon",
            &compile_line("\"epsilon\":0.002,", &gemm),
            [0, 1, 1, 1, 0, 0],
        ),
        ("unseen", &compile_line("", &atax), [0, 1, 1, 0, 1, 0]),
        // Same program, other bytes: a compile of its own.
        (
            "respelled",
            &compile_line("", &respelled),
            [0, 1, 1, 0, 1, 0],
        ),
        // The probes count only hits and `lookup` is never reached: a
        // parse error is neither a miss nor cached, however often it
        // comes.
        ("unparseable", &unparseable, [0, 0, 0, 0, 0, 1]),
        ("unparseable again", &unparseable, [0, 0, 0, 0, 0, 1]),
    ];
    for (what, line, want) in cases {
        let before = counters(&engine);
        let entries = engine.cache_stats().entries;
        let body = engine.handle_line(line).body().to_string();
        let delta: Vec<u64> = counters(&engine)
            .iter()
            .zip(before)
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(delta, want, "{what}: {body}");
        // A compile adds its artifact; nothing else touches the keyed tier.
        let compiled = (want[1] == 1) as usize;
        assert_eq!(engine.cache_stats().entries, entries + compiled, "{what}");
        if want[5] == 1 {
            assert!(body.contains("\"code\":\"parse_error\""), "{body}");
            continue;
        }
        assert_eq!(body, oneshot_response(&request(line)), "{what}");
        if matches!(what, "exact line" | "retagged" | "respelled") {
            assert_eq!(body, expected, "{what}: one program, one reply");
        }
    }
    engine.shutdown();
}

#[test]
fn a_c_request_is_named_by_its_tag() {
    // The other half of "`name` counts only for C sources": the reply
    // embeds it, so sharing a key across names would serve wrong bytes.
    let engine = Engine::new(&EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    for name in ["first", "second"] {
        let head = format!("\"format\":\"c\",\"name\":\"{name}\",");
        let line = compile_line(&head, STENCIL_C);
        let body = engine.handle_line(&line).body().to_string();
        assert!(
            body.contains(&format!("\"program\":\"{name}\"")),
            "{name}: {body}"
        );
        assert_eq!(body, oneshot_response(&request(&line)));
    }
    assert_eq!(engine.cache_stats().misses, 2);
    engine.shutdown();
}

/// Sanitize downgrades this fixture's racy `parallel` flag, so every
/// reply to it carries a warning from the front end.
const FALSE_PARALLEL: &str =
    include_str!("../../analysis/tests/fixtures/false_parallel_reduction.mlir");

#[test]
fn sanitize_warnings_survive_a_prefix_hit() {
    let engine = Engine::new(&EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    for head in ["", "\"epsilon\":0.002,"] {
        let line = compile_line(head, FALSE_PARALLEL);
        let body = engine.handle_line(&line).body().to_string();
        assert!(!body.contains("\"warnings\":[]"), "{head}: {body}");
        assert_eq!(body, oneshot_response(&request(&line)), "{head}");
    }
    let [.., prefix_hits, _, errors] = counters(&engine);
    assert_eq!((prefix_hits, errors), (1, 0));
    engine.shutdown();
}

#[test]
fn fresh_epsilon_variants_compile_on_either_of_two_workers() {
    // Each worker has its own prefix cache, so a variant of a program one
    // worker compiled may land on the other, which then runs the front
    // end itself. Which worker takes which job is up to the schedule.
    let engine = Engine::new(&EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let gemm = mini_source("gemm");
    let warmed = compile_line("", &gemm);
    assert_eq!(
        engine.handle_line(&warmed).body(),
        oneshot_response(&request(&warmed))
    );
    let before = counters(&engine);
    let variants = ["0.002", "0.003", "0.004", "0.005", "0.006", "0.007"];
    for eps in variants {
        let line = compile_line(&format!("\"epsilon\":{eps},"), &gemm);
        let body = engine.handle_line(&line).body().to_string();
        assert_eq!(body, oneshot_response(&request(&line)), "epsilon {eps}");
    }
    let after = counters(&engine);
    let prefix_compiles = (after[3] + after[4]) - (before[3] + before[4]);
    assert_eq!(prefix_compiles, variants.len() as u64);
    assert_eq!(after[5], 0, "no errors");
    engine.shutdown();
}
