//! Doc-drift guards for the performance contract (docs/PERFORMANCE.md),
//! in the style of the METRICS.md tests in `tests/observability.rs`:
//! the checked-in `BENCH_simnet.json` must match the schema the doc
//! documents, field for field, and the user-facing docs must reference
//! `simbench` with flags the binary actually accepts.

const DOC: &str = include_str!("../docs/PERFORMANCE.md");
const BENCH: &str = include_str!("../BENCH_simnet.json");

/// Extract the names from the markdown table rows (`| \`name\` | ...`)
/// of the section starting at `heading`.
fn doc_table_names<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let section = doc
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("docs/PERFORMANCE.md lost its `{heading}` section"))
        .split("\n## ")
        .next()
        .unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l.split('`').next().unwrap())
        .collect()
}

/// Keys of a JSON object, in document order.
fn object_keys(v: &serde::Value) -> Vec<&str> {
    v.as_object().expect("expected a JSON object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn bench_document_matches_the_documented_top_level_schema() {
    let doc = serde_json::parse_value(BENCH).expect("BENCH_simnet.json parses");
    let documented = doc_table_names(DOC, "\n## Document schema");
    assert_eq!(
        object_keys(&doc),
        documented,
        "BENCH_simnet.json top-level fields must match the `Document schema` \
         table in docs/PERFORMANCE.md, in order — update whichever drifted"
    );
    assert_eq!(doc.get("tool").and_then(|t| t.as_str()), Some("simbench"));
    assert_eq!(doc.get("mode").and_then(|m| m.as_str()), Some("full"));
}

#[test]
fn bench_rows_match_the_documented_row_schema() {
    let doc = serde_json::parse_value(BENCH).expect("BENCH_simnet.json parses");
    let documented = doc_table_names(DOC, "\n## Row schema");
    let configs = doc.get("configs").and_then(|c| c.as_array()).expect("configs array");
    assert!(!configs.is_empty(), "BENCH_simnet.json has no config rows");
    for row in configs {
        assert_eq!(
            object_keys(row),
            documented,
            "every row of BENCH_simnet.json must match the `Row schema` table \
             in docs/PERFORMANCE.md, in order — update whichever drifted"
        );
    }
}

/// The acceptance bar the checked-in baseline must keep clearing: both
/// queue backends present, and at least two large-topology (>=1024
/// node) configurations at >=3x over the heap.
#[test]
fn checked_in_baseline_shows_the_wheel_speedup() {
    let doc = serde_json::parse_value(BENCH).expect("BENCH_simnet.json parses");
    let configs = doc.get("configs").and_then(|c| c.as_array()).expect("configs array");
    let wheel_rows =
        configs.iter().filter(|r| r.get("queue").and_then(|q| q.as_str()) == Some("wheel")).count();
    let heap_rows = configs.len() - wheel_rows;
    assert_eq!(wheel_rows, heap_rows, "every config must have a heap and a wheel row");
    let big_and_fast = configs
        .iter()
        .filter(|r| {
            r.get("nodes").and_then(|n| n.as_u64()).unwrap_or(0) >= 1024
                && r.get("queue").and_then(|q| q.as_str()) == Some("wheel")
                && r.get("speedup_vs_heap").and_then(|s| s.as_f64()).unwrap_or(0.0) >= 3.0
        })
        .count();
    assert!(
        big_and_fast >= 2,
        "baseline must keep >=2 large-topology configs at >=3x over the heap \
         (found {big_and_fast}) — regenerate with `cargo run --release --bin simbench`"
    );
}

#[test]
fn baseline_event_counts_are_backend_independent() {
    let doc = serde_json::parse_value(BENCH).expect("BENCH_simnet.json parses");
    let configs = doc.get("configs").and_then(|c| c.as_array()).expect("configs array");
    for pair in configs.chunks(2) {
        let [heap, wheel] = pair else { panic!("odd number of rows") };
        assert_eq!(
            heap.get("name").and_then(|n| n.as_str()),
            wheel.get("name").and_then(|n| n.as_str()),
            "rows must come in heap/wheel pairs per config"
        );
        assert_eq!(
            heap.get("events").and_then(|e| e.as_u64()),
            wheel.get("events").and_then(|e| e.as_u64()),
            "virtual event counts are machine-independent and must match \
             across backends for {:?} — a mismatch means determinism broke",
            heap.get("name")
        );
    }
}

/// README and EXPERIMENTS.md must point at simbench with flags the
/// binary really accepts (the flag list lives in `parse_args` in
/// `crates/bench/src/bin/simbench.rs` and the table in PERFORMANCE.md).
#[test]
fn user_docs_reference_simbench_with_real_flags() {
    let readme = include_str!("../README.md");
    let experiments = include_str!("../EXPERIMENTS.md");
    for (name, doc) in [("README.md", readme), ("EXPERIMENTS.md", experiments)] {
        assert!(doc.contains("simbench"), "{name} must mention the simbench harness");
    }
    for flag in ["--smoke", "--check", "--determinism-check", "--out"] {
        assert!(
            experiments.contains(flag),
            "EXPERIMENTS.md must document simbench's `{flag}` flag"
        );
        assert!(DOC.contains(flag), "docs/PERFORMANCE.md must document simbench's `{flag}` flag");
    }
}

/// The simbench source must actually accept every flag the docs
/// advertise — the reverse direction of the test above.
#[test]
fn simbench_source_accepts_the_documented_flags() {
    let source = include_str!("../crates/bench/src/bin/simbench.rs");
    for flag in [
        "--smoke",
        "--out",
        "--check",
        "--determinism-check",
        "--scale-check",
        "--jobs",
        "--in-process",
    ] {
        assert!(source.contains(&format!("\"{flag}\"")), "simbench lost its `{flag}` flag");
    }
}

/// The quadratic-regression guard must be documented and run in CI's
/// simbench job.
#[test]
fn scale_check_is_documented_and_gated_in_ci() {
    assert!(DOC.contains("\n## Scale check"), "docs/PERFORMANCE.md lost its `Scale check` section");
    assert!(DOC.contains("--scale-check"), "docs/PERFORMANCE.md must document `--scale-check`");
    let ci = include_str!("../.github/workflows/ci.yml");
    let job = ci.split("simbench-smoke:").nth(1).expect("ci.yml lost the simbench-smoke job");
    let job = job.split("\n  prof-smoke:").next().unwrap();
    assert!(
        job.contains("simbench --scale-check"),
        "the simbench-smoke job must run the scale check"
    );
}

/// The Phase 2 (data-plane) section must exist, carry the before/after
/// `profquery diff` evidence, and quote only handler cells that exist
/// in the checked-in profile artifact — the doc's claims stay tied to
/// measurable reality.
#[test]
fn phase_2_section_quotes_real_profile_cells() {
    let section = DOC
        .split("\n## Phase 2")
        .nth(1)
        .expect("docs/PERFORMANCE.md lost its `Phase 2` data-plane section")
        .split("\n## ")
        .next()
        .unwrap();
    assert!(
        section.contains("profquery diff"),
        "the Phase 2 section must show its profquery diff evidence"
    );
    let profile = serde_json::parse_value(include_str!("../results/profile_protos.json"))
        .expect("results/profile_protos.json parses");
    let schemes = profile
        .get("profile")
        .and_then(|p| p.get("schemes"))
        .and_then(|s| s.as_array())
        .expect("profile.schemes array");
    let mut cells = std::collections::BTreeSet::new();
    for s in schemes {
        let scheme = s.get("scheme").and_then(|v| v.as_str()).expect("scheme name");
        for h in s.get("handlers").and_then(|h| h.as_array()).expect("handlers array") {
            let role = h.get("role").and_then(|v| v.as_str()).expect("role");
            let handler = h.get("handler").and_then(|v| v.as_str()).expect("handler");
            match h.get("variant").and_then(|v| v.as_str()).expect("variant") {
                "-" => cells.insert(format!("{scheme};{role};{handler}")),
                v => cells.insert(format!("{scheme};{role};{handler}:{v}")),
            };
        }
    }
    for cell in section
        .lines()
        .filter(|l| l.contains(";on_message:") || l.contains(";on_timer"))
        .filter_map(|l| l.split_whitespace().last())
    {
        assert!(
            cells.contains(cell),
            "Phase 2 quotes handler cell `{cell}` that is not in \
             results/profile_protos.json — regenerate the profile or fix the doc"
        );
    }
}

/// The hot-path clippy gate the Phase 2 section advertises must exist
/// in CI with the lints it names.
#[test]
fn clippy_hotpath_ci_job_matches_the_doc() {
    let ci = include_str!("../.github/workflows/ci.yml");
    assert!(ci.contains("clippy-hotpath:"), "ci.yml lost the clippy-hotpath job");
    for lint in ["clippy::redundant_clone", "clippy::large_enum_variant"] {
        assert!(
            ci.contains(&format!("-D {lint}")) && DOC.contains(&format!("`{lint}`")),
            "the `{lint}` lint must be denied in ci.yml and documented in PERFORMANCE.md"
        );
    }
}
