//! End-to-end and per-layer benchmark of the lab's protocol workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-long --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload in-process through the library's public API, times
//! every call into a layer from outside, checks the outputs, and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Human-readable tables go to standard error. See `README.md`.

// Linked for its global allocator: the benchmark runs under the same
// `obs::CountingAlloc` as every harness binary users run.
extern crate bench;

mod layers;
mod spans;
mod stats;
mod workloads;

use spans::Tracer;
use stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Mode, Round, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Set-ups timed before the first round, and after every round;
/// `setup_s` is the median of all of them. A set-up takes microseconds.
/// On a shared 2-vCPU VM its time switched between two levels every few
/// seconds, so samples spread over the whole run suit a median better
/// than a burst at the start.
const SETUP_REPS_FIRST: usize = 11;
const SETUP_REPS_PER_ROUND: usize = 10;
/// Fewest rounds a phase runs, however long they take.
const MIN_ROUNDS: usize = 3;
/// A run is stopped as failed once it has run this long past twice its
/// `--seconds`, or holds this much memory: a simulation whose events
/// stop converging (a retry storm) would otherwise run until the
/// machine's memory is gone.
const WATCHDOG_GRACE_SECONDS: u64 = 120;
const WATCHDOG_RSS_MB: f64 = 1_536.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 20, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 600),
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?;
    Ok(Args { workload, seed, seconds, trace })
}

/// What the rounds of a run left behind.
#[derive(Default)]
struct Rounds {
    /// `(mode, wall ns, ops, fingerprint)` of every round, in run order.
    all: Vec<(Mode, u64, u64, u64)>,
    /// The first untraced round, whose outputs are checked.
    first: Option<Round>,
    /// Traced rounds, traces dropped, for the per-layer metrics.
    traced: Vec<Round>,
    /// Every timed set-up, in seconds.
    setup_s: Vec<f64>,
}

impl Rounds {
    fn walls(&self, mode: Mode) -> Vec<f64> {
        self.all.iter().filter(|r| r.0 == mode).map(|r| r.1 as f64).collect()
    }
}

/// What every round of a run shares.
struct Bench<'a> {
    workload: Workload,
    seed: u64,
    inputs: &'a Inputs,
    tracer: &'a Tracer,
}

/// Time `reps` set-ups of `workload`, appending each to `samples`;
/// returns the inputs the last one built.
fn time_setups(workload: Workload, seed: u64, reps: usize, samples: &mut Vec<f64>) -> Inputs {
    let mut inputs = None;
    for _ in 0..reps {
        let t = Instant::now();
        let built = std::hint::black_box(workloads::setup(workload, seed));
        samples.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    inputs.expect("at least one set-up")
}

/// Run rounds, cycling through `modes`, until `budget` has passed and
/// every mode ran at least `min_rounds` times, timing set-ups between
/// rounds. Only what [`Rounds`] keeps outlives a round, so the
/// benchmark's own bookkeeping does not grow with the number of rounds.
fn phase(
    b: &Bench,
    modes: &[Mode],
    budget: Duration,
    min_rounds: usize,
    parent: u64,
    out: &mut Rounds,
) {
    let start = Instant::now();
    let mut done = 0;
    while done < min_rounds || start.elapsed() < budget {
        for &mode in modes {
            let mut r = workloads::round(b.workload, b.inputs, mode, b.tracer, parent);
            out.all.push((mode, r.wall_ns, r.ops, r.fingerprint));
            if mode == Mode::Plain && out.first.is_none() {
                out.first = Some(r);
            } else if mode == Mode::Traced {
                for run in &mut r.runs {
                    run.result = None;
                    run.stream = None;
                }
                out.traced.push(r);
            }
            time_setups(b.workload, b.seed, SETUP_REPS_PER_ROUND, &mut out.setup_s);
        }
        done += 1;
    }
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Stop the process, as a failed run, once it outlives `deadline` or
/// outgrows [`WATCHDOG_RSS_MB`].
fn start_watchdog(deadline: Duration, attempted: u64) {
    let start = Instant::now();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(100));
        let rss = status_mb("VmRSS").unwrap_or(0.0);
        if start.elapsed() >= deadline || rss >= WATCHDOG_RSS_MB {
            eprintln!(
                "perfbench: stopped after {:.1} s at {rss:.0} MB resident: a simulation is not \
                 converging (see README.md, \"Known defects\")",
                start.elapsed().as_secs_f64()
            );
            println!(
                r#"{{"correct": false, "attempted": {attempted}, "failed": {attempted}, "metrics": {{}}}}"#
            );
            std::process::exit(3);
        }
    });
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn describe(values: &[f64]) -> String {
    let med = median(values).unwrap_or(0.0);
    match quartiles(values) {
        Some((q1, q3)) => format!(
            "median {med:.6} q1 {q1:.6} q3 {q3:.6} spread {:.4} n {}",
            relative_spread(values).unwrap_or(0.0),
            values.len()
        ),
        None => format!("median {med:.6} n {}", values.len()),
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let name = a.workload.name();

    let mut rounds = Rounds::default();
    let inputs = time_setups(a.workload, a.seed, SETUP_REPS_FIRST, &mut rounds.setup_s);
    let budget = Duration::from_secs(a.seconds);
    start_watchdog(
        2 * budget + Duration::from_secs(WATCHDOG_GRACE_SECONDS),
        inputs.ops_per_round(),
    );

    let tracer = Tracer::new(a.trace);
    let root = tracer.open("workload", name, 0);
    let b = Bench { workload: a.workload, seed: a.seed, inputs: &inputs, tracer: &tracer };
    if a.trace {
        // Untraced rounds first (with the recorder toggled off in every
        // other `write-observed` round), then traced rounds.
        let plain: &[Mode] = if a.workload == Workload::WriteObserved {
            &[Mode::Plain, Mode::RecorderOff]
        } else {
            &[Mode::Plain]
        };
        let half = budget / 2;
        tracer.time("untraced", "", root.id(), |id| phase(&b, plain, half, 2, id, &mut rounds));
        tracer.time("traced", "", root.id(), |id| {
            phase(&b, &[Mode::Traced], half, 2, id, &mut rounds)
        });
    } else {
        phase(&b, &[Mode::Plain], budget, MIN_ROUNDS, root.id(), &mut rounds);
    }
    tracer.close(root);

    let first = rounds.first.as_ref().expect("every run has an untraced round");
    let checked = workloads::check(a.workload, &inputs, first, &tracer);
    let mut problems = checked.problems;
    let fingerprints: std::collections::BTreeSet<u64> = rounds.all.iter().map(|r| r.3).collect();
    if fingerprints.len() != 1 {
        problems.push(format!("{} distinct trace fingerprints across rounds", fingerprints.len()));
    }
    if obs::alloc_totals().1 == 0 {
        problems.push("obs::CountingAlloc is not the global allocator".to_string());
    }
    let correct = problems.is_empty();

    // `failed` counts ops the benchmark could not vouch for: every op of a
    // run whose outputs failed a check. Simulated ops that time out under
    // the nemesis are the lab's output, reported as `completed_op_share`.
    let attempted: u64 = rounds.all.iter().map(|r| r.2).sum();
    let failed = if correct { 0 } else { attempted };
    let failed_op_share =
        if correct { checked.failed_per_round as f64 / inputs.ops_per_round() as f64 } else { 1.0 };
    let plain_walls = rounds.walls(Mode::Plain);
    let ops_per_s: Vec<f64> =
        plain_walls.iter().map(|w| inputs.ops_per_round() as f64 / (w / 1e9)).collect();

    eprintln!(
        "perfbench {name}: seed {} rounds {} ({} ops each) fingerprint {:016x}",
        a.seed,
        rounds.all.len(),
        inputs.ops_per_round(),
        first.fingerprint
    );
    eprintln!("  ops_per_s  {}", describe(&ops_per_s));
    eprintln!("  setup_s    {}", describe(&rounds.setup_s));
    eprintln!(
        "  failed_op_share {failed_op_share:.6} (simulated ops that failed or never completed)"
    );
    for p in &problems {
        eprintln!("  CHECK FAILED: {p}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if a.trace {
        let per_layer = layers::per_layer(&layers::LayerInputs {
            workload: a.workload,
            traced: &rounds.traced,
            plain_walls: &plain_walls,
            recorder_off_walls: &rounds.walls(Mode::RecorderOff),
            check_batch_ns: checked.batch_ns,
        });
        print_layer_table(name, &per_layer);
        print_span_table(&tracer);
        for (metric, unit) in layers::PER_LAYER {
            metrics.push((metric, per_layer[metric].unwrap_or(0.0), unit));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-seed{}.jsonl", a.seed));
        match spans::write_jsonl(&tracer.spans(), &path) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
        }
    } else {
        metrics.push(("ops_per_s", median(&ops_per_s).unwrap_or(0.0), "ops/s"));
        metrics.push(("setup_s", median(&rounds.setup_s).unwrap_or(0.0), "s"));
        metrics.push(("peak_rss_mb", status_mb("VmHWM").unwrap_or(0.0), "MB"));
        metrics.push(("completed_op_share", 1.0 - failed_op_share, "ratio"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, json_number(*v)))
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_layer_table(workload: &str, values: &BTreeMap<&'static str, Option<f64>>) {
    eprintln!("  per-layer metrics on {workload} (n/a: the workload does not exercise the layer)");
    for (metric, unit) in layers::PER_LAYER {
        match values[metric] {
            Some(v) => eprintln!("    {metric:<42} {v:>16.3} {unit}"),
            None => eprintln!("    {metric:<42} {:>16} {unit}", "n/a"),
        }
    }
}

fn print_span_table(tracer: &Tracer) {
    eprintln!("  spans: name, calls, total ms, self ms");
    for (name, (calls, total, selfns)) in spans::summarize(&tracer.spans()) {
        eprintln!(
            "    {name:<18} {calls:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            selfns as f64 / 1e6
        );
    }
}
