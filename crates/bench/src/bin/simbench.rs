//! simbench — simulator-core throughput benchmark.
//!
//! Measures events/sec, ns/event, and peak RSS for both event-queue
//! backends ([`simnet::QueueKind`]) across two config families:
//!
//! * `storm/*` — synthetic message storms that keep a large, constant
//!   in-flight population (the queue-depth regimes where backend choice
//!   dominates: small/medium/large topologies), and
//! * `proto/*` — every [`FuzzScheme`] replication protocol under its
//!   medium-intensity nemesis schedule (realistic event mixes; actor
//!   logic shares the bill with the queue).
//!
//! Each config runs in a fresh subprocess by default so `peak_rss_bytes`
//! (`VmHWM` from `/proc/self/status`) is per-config rather than a
//! high-water mark over the whole suite; `--in-process` collapses
//! everything into one process (faster, RSS becomes cumulative).
//!
//! The output document (`BENCH_simnet.json`, schema in
//! `docs/PERFORMANCE.md`) is checked into the repo as the performance
//! trajectory baseline. Wall-clock numbers are machine-dependent; the
//! `--check` mode therefore calibrates a machine-speed factor from the
//! heap rows before comparing (see `check_against_baseline`).
//!
//! Usage (from the workspace root):
//!
//! ```text
//! cargo run --release --bin simbench                    # full run -> BENCH_simnet.json
//! cargo run --release --bin simbench -- --smoke --out /tmp/b.json --check BENCH_simnet.json
//! cargo run --release --bin simbench -- --determinism-check --jobs 8
//! cargo run --release --bin simbench -- --scale-check
//! ```
//!
//! Flags: `--smoke` (≈10% of the events, same queue depths), `--out
//! <path>`, `--check <baseline.json>` (exit 1 on >20% events/sec
//! regression), `--determinism-check` (same-seed byte-identity at
//! `--jobs 1` vs `--jobs N`, then exit), `--scale-check` (exit 1 when
//! per-event cost grows with run length, then exit), `--profile`
//! (per-handler profile of every proto config →
//! `results/profile_protos.json` + `.folded`, then exit; see
//! `docs/PROFILING.md`), `--jobs <n>`, `--in-process`. `--one <name>
//! --queue <heap|wheel>` is the internal subprocess mode.

use bench::{print_table, results_dir, save_json};
use obs::{FoldWeight, Recorder};
use rec_core::fuzz::{fuzz_workload, generate_case, FuzzScheme, FUZZ_HORIZON_MS};
use rec_core::grid::{Grid, RecorderSpec};
use rec_core::Experiment;
use serde::Serialize;
use simnet::nemesis::{self, IntensityProfile};
use simnet::{Actor, Context, Duration, LatencyModel, NodeId, QueueKind, Sim, SimConfig, SimTime};
use std::process::Command;
use std::time::Instant;

/// Schema version of the output document (bump on field changes and
/// update the table in docs/PERFORMANCE.md).
const SCHEMA_VERSION: u64 = 1;

/// One measured `(config, queue)` cell — a row of `configs` in
/// `BENCH_simnet.json`. Field names are the schema documented in
/// docs/PERFORMANCE.md (drift is pinned by `tests/performance_doc.rs`).
#[derive(Debug, Clone, Serialize)]
struct Row {
    name: String,
    family: String,
    queue: String,
    nodes: u64,
    inflight: u64,
    events: u64,
    elapsed_ns: u64,
    events_per_sec: f64,
    ns_per_event: f64,
    peak_rss_bytes: u64,
    speedup_vs_heap: f64,
}

/// A benchmark configuration (before choosing a queue backend).
#[derive(Debug, Clone)]
enum Config {
    /// Synthetic storm: `nodes` actors forward `inflight` messages
    /// `hops` times each through the uniform-latency network.
    Storm { name: &'static str, nodes: usize, inflight: usize, hops: u64 },
    /// A replication protocol under its medium-intensity nemesis.
    Proto { scheme: FuzzScheme },
}

impl Config {
    fn name(&self) -> String {
        match self {
            Config::Storm { name, .. } => format!("storm/{name}"),
            Config::Proto { scheme } => format!("proto/{}", scheme.label()),
        }
    }

    fn family(&self) -> &'static str {
        match self {
            Config::Storm { .. } => "storm",
            Config::Proto { .. } => "proto",
        }
    }
}

/// The benchmark suite. Storm sizes are chosen so the queue depth (the
/// `inflight` population) spans three orders of magnitude; `--smoke`
/// keeps the depths (so events/sec stays comparable to a full run) and
/// cuts only the hop budget, i.e. how long each depth is sustained.
fn suite(smoke: bool) -> Vec<Config> {
    let mut configs = vec![
        Config::Storm {
            name: "small",
            nodes: 64,
            inflight: 4_096,
            hops: if smoke { 16 } else { 96 },
        },
        Config::Storm {
            name: "medium",
            nodes: 256,
            inflight: 65_536,
            hops: if smoke { 4 } else { 20 },
        },
        Config::Storm {
            name: "large",
            nodes: 1_024,
            inflight: 262_144,
            hops: if smoke { 2 } else { 8 },
        },
        Config::Storm {
            name: "xlarge",
            nodes: 1_024,
            inflight: 524_288,
            hops: if smoke { 1 } else { 4 },
        },
    ];
    configs.extend(FuzzScheme::ALL.into_iter().map(|scheme| Config::Proto { scheme }));
    configs
}

/// Storm actor: forward the message (a remaining-hop counter) to a
/// random peer until the counter hits zero. The in-flight population is
/// constant until hops drain, so the queue holds ~`inflight` events for
/// the whole measured window.
struct StormNode {
    nodes: usize,
}

impl Actor<u64> for StormNode {
    fn on_start(&mut self, _ctx: &mut Context<u64>) {}

    fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, hops_left: u64) {
        if hops_left > 0 {
            let to = NodeId(ctx.rng().index(self.nodes) as u32);
            ctx.send(to, hops_left - 1);
        }
    }
}

/// Seeder actor (node 0 doubles as one): storms are kicked off via
/// `inject_at` from the driver, so no dedicated seeder is needed.
fn run_storm(nodes: usize, inflight: usize, hops: u64, queue: QueueKind) -> (u64, u64) {
    let mut sim: Sim<u64> =
        Sim::new(SimConfig::default().seed(0xbeef).queue(queue).latency(LatencyModel::Uniform {
            min: Duration::from_micros(1),
            max: Duration::from_micros(1_000),
        }));
    for _ in 0..nodes {
        sim.add_node(Box::new(StormNode { nodes }));
    }
    // Seed the in-flight population spread across all nodes and the
    // first millisecond, so the queue depth ramps to `inflight` and
    // stays there until hop budgets drain.
    for i in 0..inflight {
        let at = SimTime::from_micros((i % 1_000) as u64 + 1);
        sim.inject_at(at, NodeId((i % nodes) as u32), NodeId(((i * 7 + 1) % nodes) as u32), hops);
    }
    let start = Instant::now();
    let events = sim.run_until(SimTime::from_secs(3_600));
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    (events, elapsed_ns)
}

/// The proto rows' workload: the fuzzer's, denser (more sessions and
/// ops, shorter think time) so steady-state traffic dominates a run.
fn proto_workload(ops_per_session: u32) -> workload::WorkloadSpec {
    workload::WorkloadSpec {
        sessions: 8,
        ops_per_session,
        arrival: workload::Arrival::Closed { think_us: 2_000 },
        ..fuzz_workload()
    }
}

/// Run one protocol config: the fuzz harness deployment for `scheme`
/// under its seed-42 medium nemesis, with a denser workload than the
/// fuzzer's (more sessions/ops, shorter think time) so the measured
/// window is dominated by steady-state traffic.
fn run_proto(scheme: FuzzScheme, queue: QueueKind, smoke: bool) -> (u64, u64) {
    let case = generate_case(scheme, 42, &IntensityProfile::medium());
    let experiment = Experiment::new(scheme.to_scheme())
        .workload(proto_workload(if smoke { 40 } else { 400 }))
        .latency(LatencyModel::lan())
        .faults(nemesis::to_schedule(&case.events))
        .seed(42)
        .horizon(SimTime::from_millis(FUZZ_HORIZON_MS))
        .queue(queue);
    let start = Instant::now();
    let result = experiment.run();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    (result.events, elapsed_ns)
}

/// Run lengths (ops per session) the scale check compares.
const SCALE_OPS: [u32; 2] = [400, 4_000];

/// One `scale/<scheme>` row of the scale check.
#[derive(Debug, Clone, Copy)]
struct ScaleRow {
    scheme: FuzzScheme,
    /// Run with a counters-only recorder.
    recorder: bool,
    /// Spread the workload over [`WIDE_KEYS`] keys instead of the fuzz
    /// workload's 8.
    wide: bool,
}

impl ScaleRow {
    const fn new(scheme: FuzzScheme, recorder: bool, wide: bool) -> Self {
        ScaleRow { scheme, recorder, wide }
    }

    fn label(&self) -> String {
        format!(
            "scale/{}{}{}",
            self.scheme.label(),
            if self.recorder { "+recorder" } else { "" },
            if self.wide { "+wide" } else { "" }
        )
    }
}

/// Rows the scale check covers: every fuzz scheme with the recorder
/// off (the read-heavy client paths, digest and CRDT gossip, eager-acked
/// fan-out, consensus); quorum with it on, which runs the read-staleness
/// telemetry on every ok read; and CRDT gossip over [`WIDE_KEYS`] keys,
/// where the keys a replica holds grow with the run, so gossip work that
/// scales with keys held shows as growth.
const SCALE_ROWS: [ScaleRow; 10] = [
    ScaleRow::new(FuzzScheme::MajorityQuorum, false, false),
    ScaleRow::new(FuzzScheme::PrimarySync, false, false),
    ScaleRow::new(FuzzScheme::Causal, false, false),
    ScaleRow::new(FuzzScheme::MultiMasterCrdt, false, false),
    ScaleRow::new(FuzzScheme::EventualSticky, false, false),
    ScaleRow::new(FuzzScheme::EagerAckedEventual, false, false),
    ScaleRow::new(FuzzScheme::PartialQuorum, false, false),
    ScaleRow::new(FuzzScheme::Paxos, false, false),
    ScaleRow::new(FuzzScheme::MajorityQuorum, true, false),
    ScaleRow::new(FuzzScheme::MultiMasterCrdt, false, true),
];

/// Uniform key-space size of the `+wide` scale rows.
const WIDE_KEYS: u64 = 10_000;

/// Largest allowed ratio of median ns/event at the long run length to
/// the short one (docs/PERFORMANCE.md, "Scale check").
const SCALE_BOUND: f64 = 1.5;

/// Timed samples per `(scheme, length)`; the median is compared. A
/// short sample runs `SCALE_OPS[1] / SCALE_OPS[0]` experiments back to
/// back, so both lengths time the same number of ops and a short
/// sample is not a few milliseconds exposed to machine noise.
const SCALE_REPS: usize = 7;

/// One fault-free proto run of `row` at `ops_per_session` ops per
/// session; returns `(events, elapsed_ns)`. The horizon grows with the
/// run so every op completes and the idle tail stays the same share of
/// the run at both lengths.
fn run_scale(row: ScaleRow, ops_per_session: u32) -> (u64, u64) {
    let mut workload = proto_workload(ops_per_session);
    if row.wide {
        workload.keys = WIDE_KEYS;
    }
    let experiment = Experiment::new(row.scheme.to_scheme())
        .workload(workload)
        .latency(LatencyModel::lan())
        .seed(42)
        .horizon(SimTime::from_millis(5 * ops_per_session as u64))
        .recorder(if row.recorder { Recorder::enabled() } else { Recorder::disabled() });
    let start = Instant::now();
    let result = experiment.run();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    (result.events, elapsed_ns)
}

/// `--scale-check` mode: the guard against O(history) work per event.
/// Runs every `scale/<scheme>` row at both lengths of [`SCALE_OPS`],
/// alternating lengths so machine drift hits both alike, and fails when
/// the median ns/event at the long length exceeds [`SCALE_BOUND`] times
/// that at the short one.
fn scale_check() -> bool {
    let mut ok = true;
    let mut table = Vec::new();
    for row in SCALE_ROWS {
        let mut ns_per_event = [Vec::new(), Vec::new()];
        let mut events = [0u64; 2];
        for _ in 0..SCALE_REPS {
            for (i, &ops) in SCALE_OPS.iter().enumerate() {
                let (mut total_ev, mut total_ns) = (0u64, 0u64);
                for _ in 0..SCALE_OPS[1] / ops {
                    let (ev, ns) = run_scale(row, ops);
                    events[i] = ev;
                    total_ev += ev;
                    total_ns += ns;
                }
                ns_per_event[i].push(total_ns as f64 / total_ev.max(1) as f64);
            }
        }
        let [short, long] = ns_per_event.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        let ratio = long / short;
        let pass = ratio <= SCALE_BOUND;
        ok &= pass;
        table.push(vec![
            row.label(),
            events[0].to_string(),
            format!("{short:.1}"),
            events[1].to_string(),
            format!("{long:.1}"),
            format!("{ratio:.2}"),
            if pass { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    let [a, b] = SCALE_OPS;
    print_table(
        "simbench scale check",
        &[
            "config",
            &format!("events@{a}"),
            &format!("ns/event@{a}"),
            &format!("events@{b}"),
            &format!("ns/event@{b}"),
            "ratio",
            "verdict",
        ],
        &table,
    );
    if ok {
        println!("scale-check: PASS (every ns/event ratio <= {SCALE_BOUND})");
    } else {
        eprintln!("scale-check: FAIL — per-event cost grows with run length (bound {SCALE_BOUND})");
    }
    ok
}

/// Peak RSS of this process in bytes (`VmHWM` from `/proc/self/status`);
/// 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Measure one `(config, queue)` cell in this process.
fn measure(config: &Config, queue: QueueKind, smoke: bool) -> Row {
    let (nodes, inflight, (events, elapsed_ns)) = match *config {
        Config::Storm { nodes, inflight, hops, .. } => {
            (nodes as u64, inflight as u64, run_storm(nodes, inflight, hops, queue))
        }
        Config::Proto { scheme } => {
            (scheme.server_nodes() as u64, 0, run_proto(scheme, queue, smoke))
        }
    };
    let secs = elapsed_ns as f64 / 1e9;
    Row {
        name: config.name(),
        family: config.family().to_string(),
        queue: queue.label().to_string(),
        nodes,
        inflight,
        events,
        elapsed_ns,
        events_per_sec: if secs > 0.0 { events as f64 / secs } else { 0.0 },
        ns_per_event: if events > 0 { elapsed_ns as f64 / events as f64 } else { 0.0 },
        peak_rss_bytes: peak_rss_bytes(),
        speedup_vs_heap: 0.0, // filled in by the parent once both rows exist
    }
}

/// Measure one cell in a fresh subprocess (per-config peak RSS). Falls
/// back to in-process measurement if re-exec fails.
fn measure_subprocess(config: &Config, queue: QueueKind, smoke: bool) -> Row {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(_) => return measure(config, queue, smoke),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--one").arg(config.name()).arg("--queue").arg(queue.label());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = match cmd.output() {
        Ok(o) if o.status.success() => o,
        _ => return measure(config, queue, smoke),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix("ROW ") {
            if let Ok(v) = serde_json::parse_value(json) {
                return row_from_value(&v);
            }
        }
    }
    measure(config, queue, smoke)
}

/// Rehydrate a [`Row`] from the subprocess's `ROW {json}` line.
fn row_from_value(v: &serde::Value) -> Row {
    let s = |k: &str| v.get(k).and_then(|x| x.as_str()).unwrap_or_default().to_string();
    let u = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let f = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    Row {
        name: s("name"),
        family: s("family"),
        queue: s("queue"),
        nodes: u("nodes"),
        inflight: u("inflight"),
        events: u("events"),
        elapsed_ns: u("elapsed_ns"),
        events_per_sec: f("events_per_sec"),
        ns_per_event: f("ns_per_event"),
        peak_rss_bytes: u("peak_rss_bytes"),
        speedup_vs_heap: f("speedup_vs_heap"),
    }
}

/// `--profile` mode: run every proto config under the in-sim handler
/// profiler and write `results/profile_protos.json` (a `profile` block
/// per scheme) plus `results/profile_protos.folded` (call-count-weighted
/// flamegraph stacks). Counts and allocation tallies are jobs-invariant,
/// so both files are reproducible artifacts; query them with
/// `profquery` (see `docs/PROFILING.md`).
fn profile_protos(jobs: usize, smoke: bool) {
    let mut grid = Grid::new();
    for scheme in FuzzScheme::ALL {
        let case = generate_case(scheme, 42, &IntensityProfile::medium());
        grid.push(
            scheme.label(),
            Experiment::new(scheme.to_scheme())
                .workload(proto_workload(if smoke { 40 } else { 400 }))
                .latency(LatencyModel::lan())
                .faults(nemesis::to_schedule(&case.events))
                .seed(42)
                .horizon(SimTime::from_millis(FUZZ_HORIZON_MS)),
        );
    }
    let cells = grid.profile(true).run(jobs, RecorderSpec::Counters);
    let agg = Recorder::enabled();
    for cell in &cells {
        agg.absorb(&cell.recorder);
    }
    let report = agg.report();
    let profile = report.profile.as_ref().expect("profiled grid produces a profile");

    let mut hot: Vec<(String, u64, u64, u64)> = profile
        .schemes
        .iter()
        .flat_map(|s| {
            s.handlers.iter().map(|h| {
                (format!("{};{}", s.scheme, h.frame()), h.invocations, h.alloc_bytes, h.alloc_count)
            })
        })
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let rows: Vec<Vec<String>> = hot
        .iter()
        .take(10)
        .map(|(frame, calls, bytes, count)| {
            vec![frame.clone(), calls.to_string(), bytes.to_string(), count.to_string()]
        })
        .collect();
    print_table("hot handlers (by calls)", &["frame", "calls", "alloc_bytes", "allocs"], &rows);

    let doc = serde::Value::Object(vec![
        ("schema_version".to_string(), serde::Value::U64(SCHEMA_VERSION)),
        ("tool".to_string(), serde::Value::String("simbench".to_string())),
        (
            "mode".to_string(),
            serde::Value::String(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("profile".to_string(), profile.to_value()),
    ]);
    save_json("profile_protos", &doc);
    let path = results_dir().join("profile_protos.folded");
    match std::fs::write(&path, profile.to_folded(FoldWeight::Calls)) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => {
            eprintln!("simbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Same-seed byte-identity across `--jobs` levels, on the wheel backend:
/// the cheap standing guard the CI smoke job runs on every PR.
fn determinism_check(jobs: usize) -> bool {
    let run = |jobs: usize| -> Vec<(String, String)> {
        let mut grid = Grid::new();
        for scheme in [FuzzScheme::MajorityQuorum, FuzzScheme::EventualSticky, FuzzScheme::Paxos] {
            let case = generate_case(scheme, 11, &IntensityProfile::medium());
            grid.push(
                scheme.label(),
                Experiment::new(scheme.to_scheme())
                    .workload(fuzz_workload())
                    .faults(nemesis::to_schedule(&case.events))
                    .seed(11)
                    .horizon(SimTime::from_millis(FUZZ_HORIZON_MS))
                    .queue(QueueKind::TimingWheel),
            );
        }
        grid.seeds(2)
            .run(jobs, RecorderSpec::EventLog)
            .into_iter()
            .map(|cell| {
                (
                    serde_json::to_string(cell.result.trace.records()).expect("serializes"),
                    cell.recorder.export_jsonl(),
                )
            })
            .collect()
    };
    let serial = run(1);
    let parallel = run(jobs.max(2));
    let ok = serial == parallel;
    if ok {
        println!("determinism-check: PASS (jobs=1 vs jobs={}, byte-identical)", jobs.max(2));
    } else {
        eprintln!("determinism-check: FAIL — wheel grid output depends on --jobs");
    }
    ok
}

/// Compare measured rows against a checked-in baseline, calibrated for
/// machine speed: the heap backend is the reference implementation, so
/// the ratio of measured-to-baseline heap events/sec estimates how fast
/// this machine is relative to the one that produced the baseline. A
/// wheel row regresses when it falls below 80% of its
/// machine-speed-adjusted baseline.
fn check_against_baseline(rows: &[Row], baseline_path: &str) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let doc = match serde_json::parse_value(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check: cannot parse baseline {baseline_path}: {e:?}");
            return false;
        }
    };
    let empty = [];
    let base_rows: Vec<Row> = doc
        .get("configs")
        .and_then(|c| c.as_array())
        .unwrap_or(&empty)
        .iter()
        .map(row_from_value)
        .collect();
    let base_eps = |name: &str, queue: &str| -> Option<f64> {
        base_rows
            .iter()
            .find(|r| r.name == name && r.queue == queue)
            .map(|r| r.events_per_sec)
            .filter(|&e| e > 0.0)
    };
    // Calibrate: how fast is this machine vs the baseline machine, per
    // the reference (heap) backend? Only deep-queue storm rows are
    // gated — proto rows and storm/small finish in milliseconds and are
    // too timing-noisy for a 20% threshold; they are recorded for the
    // trajectory, not checked.
    let gated = |r: &&Row| r.family == "storm" && r.inflight >= 65_536;
    let mut ratios = Vec::new();
    for row in rows.iter().filter(gated).filter(|r| r.queue == "heap") {
        if let Some(base) = base_eps(&row.name, "heap") {
            ratios.push(row.events_per_sec / base);
        }
    }
    if ratios.is_empty() {
        eprintln!("check: no heap rows shared with the baseline; cannot calibrate");
        return false;
    }
    let factor = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("check: machine-speed factor vs baseline = {factor:.2}x");
    let mut ok = true;
    for row in rows.iter().filter(gated).filter(|r| r.queue == "wheel") {
        let Some(base) = base_eps(&row.name, "wheel") else { continue };
        let floor = 0.8 * base * factor;
        if row.events_per_sec < floor {
            eprintln!(
                "check: REGRESSION {}/{}: {:.0} events/sec < floor {:.0} \
                 (baseline {:.0} x factor {:.2} x 0.8)",
                row.name, row.queue, row.events_per_sec, floor, base, factor
            );
            ok = false;
        }
    }
    if ok {
        println!("check: PASS — no wheel config regressed >20% vs {baseline_path}");
    }
    ok
}

/// The full output document.
#[derive(Serialize)]
struct Doc {
    schema_version: u64,
    tool: String,
    mode: String,
    configs: Vec<Row>,
}

struct Args {
    smoke: bool,
    in_process: bool,
    determinism: bool,
    scale: bool,
    profile: bool,
    jobs: usize,
    out: String,
    check: Option<String>,
    one: Option<String>,
    queue: QueueKind,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        in_process: false,
        determinism: false,
        scale: false,
        profile: false,
        jobs: 8,
        out: "BENCH_simnet.json".to_string(),
        check: None,
        one: None,
        queue: QueueKind::TimingWheel,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let take = |a: &str, flag: &str, it: &mut dyn Iterator<Item = String>| -> Option<String> {
            if a == flag {
                it.next()
            } else {
                a.strip_prefix(&format!("{flag}=")).map(str::to_string)
            }
        };
        if a == "--smoke" {
            args.smoke = true;
        } else if a == "--in-process" {
            args.in_process = true;
        } else if a == "--determinism-check" {
            args.determinism = true;
        } else if a == "--scale-check" {
            args.scale = true;
        } else if a == "--profile" {
            args.profile = true;
        } else if let Some(n) = take(&a, "--jobs", &mut it) {
            args.jobs = n.parse().expect("--jobs expects a positive integer");
        } else if let Some(p) = take(&a, "--out", &mut it) {
            args.out = p;
        } else if let Some(p) = take(&a, "--check", &mut it) {
            args.check = Some(p);
        } else if let Some(n) = take(&a, "--one", &mut it) {
            args.one = Some(n);
        } else if let Some(q) = take(&a, "--queue", &mut it) {
            args.queue = QueueKind::by_name(&q)
                .unwrap_or_else(|| panic!("--queue expects 'heap' or 'wheel', got {q:?}"));
        } else {
            eprintln!("simbench: unknown argument {a:?} (see docs/PERFORMANCE.md)");
            std::process::exit(2);
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // Internal subprocess mode: measure one cell, print it, exit.
    if let Some(name) = &args.one {
        let config = suite(args.smoke)
            .into_iter()
            .find(|c| &c.name() == name)
            .unwrap_or_else(|| panic!("unknown config {name:?}"));
        let row = measure(&config, args.queue, args.smoke);
        println!("ROW {}", serde_json::to_string(&row).expect("row serializes"));
        return;
    }

    if args.determinism {
        std::process::exit(if determinism_check(args.jobs) { 0 } else { 1 });
    }

    if args.scale {
        std::process::exit(if scale_check() { 0 } else { 1 });
    }

    if args.profile {
        profile_protos(args.jobs, args.smoke);
        return;
    }

    let mode = if args.smoke { "smoke" } else { "full" };
    println!("simbench: mode={mode}, {} configs x 2 queues", suite(args.smoke).len());
    let mut rows: Vec<Row> = Vec::new();
    for config in suite(args.smoke) {
        let mut heap = if args.in_process {
            measure(&config, QueueKind::BinaryHeap, args.smoke)
        } else {
            measure_subprocess(&config, QueueKind::BinaryHeap, args.smoke)
        };
        let mut wheel = if args.in_process {
            measure(&config, QueueKind::TimingWheel, args.smoke)
        } else {
            measure_subprocess(&config, QueueKind::TimingWheel, args.smoke)
        };
        heap.speedup_vs_heap = 1.0;
        wheel.speedup_vs_heap = if heap.events_per_sec > 0.0 {
            wheel.events_per_sec / heap.events_per_sec
        } else {
            0.0
        };
        println!(
            "  {:<24} heap {:>12.0} ev/s | wheel {:>12.0} ev/s | {:.2}x",
            heap.name, heap.events_per_sec, wheel.events_per_sec, wheel.speedup_vs_heap
        );
        rows.push(heap);
        rows.push(wheel);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.queue.clone(),
                r.events.to_string(),
                format!("{:.0}", r.events_per_sec),
                format!("{:.1}", r.ns_per_event),
                format!("{:.1}", r.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", r.speedup_vs_heap),
            ]
        })
        .collect();
    print_table(
        "simbench",
        &["config", "queue", "events", "events/sec", "ns/event", "rss MiB", "speedup"],
        &table,
    );

    let doc = Doc {
        schema_version: SCHEMA_VERSION,
        tool: "simbench".to_string(),
        mode: mode.to_string(),
        configs: rows.clone(),
    };
    let json = serde_json::to_string_pretty(&doc).expect("doc serializes");
    match std::fs::write(&args.out, json + "\n") {
        Ok(()) => println!("[saved {}]", args.out),
        Err(e) => {
            eprintln!("simbench: cannot write {}: {e}", args.out);
            std::process::exit(1);
        }
    }

    if let Some(baseline) = &args.check {
        if !check_against_baseline(&rows, baseline) {
            std::process::exit(1);
        }
    }
}
