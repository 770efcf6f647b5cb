//! The three workloads: their inputs, one timed round of each, and the
//! checks run on their outputs after timing.
//!
//! A round runs every input of the workload once. Rounds repeat the same
//! inputs, so every round must produce the same trace fingerprint.

use crate::spans::{Open, Tracer};
use consistency::{
    check_monotonic_values, check_session_guarantees, check_trace_linearizable, measure_staleness,
    LinCheckError, StreamConfig, StreamReports, StreamVerifier, Watermark,
};
use obs::{Counter, MetricsReport, Recorder};
use rec_core::fuzz::{
    fuzz_workload, generate_case, run_case, shrink_case, Expectation, FuzzCase, FuzzScheme,
    Verdict, ViolationKind, FUZZ_HORIZON_MS,
};
use rec_core::{par_map, Experiment, RunResult};
use simnet::nemesis::{self, IntensityProfile};
use simnet::{LatencyModel, OpRecord, OpTrace, QueueKind, SimRng, SimTime};
use std::collections::BTreeSet;
use std::time::Instant;
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

/// Closed-loop client sessions per experiment.
const SESSIONS: u32 = 8;
/// Think time between a response and the session's next request.
const THINK_US: u64 = 2_000;
/// Uniform key space of the two long-history workloads.
const KEYS: u64 = 1_000;

/// `read-long`: ops per session, nemesis schedules per scheme, the span
/// the nemesis spreads its faults over (it heals by two thirds of it),
/// and the virtual-time horizon, long enough for every op to finish.
const READ_OPS: u32 = 1_000;
const READ_SUBSEEDS: u64 = 6;
const READ_NEMESIS_MS: u64 = FUZZ_HORIZON_MS;
const READ_HORIZON_MS: u64 = 16_000;
const READ_SCHEMES: [FuzzScheme; 3] =
    [FuzzScheme::MajorityQuorum, FuzzScheme::PrimarySync, FuzzScheme::Causal];

/// `write-observed`: as for `read-long`. The faults overlap the ~1.5 s of
/// client load; the quiet tail after them is mostly anti-entropy.
const WRITE_OPS: u32 = 400;
const WRITE_SUBSEEDS: u64 = 4;
const WRITE_NEMESIS_MS: u64 = 3_600;
const WRITE_HORIZON_MS: u64 = 8_000;
const WRITE_SCHEMES: [FuzzScheme; 4] = [
    FuzzScheme::EventualSticky,
    FuzzScheme::MultiMasterCrdt,
    FuzzScheme::EagerAckedEventual,
    FuzzScheme::PartialQuorum,
];

/// `fuzz-campaign`: seeds per scheme in one round, and its schemes.
const FUZZ_SEEDS: u64 = 200;
const FUZZ_SCHEMES: [FuzzScheme; 7] = [
    FuzzScheme::MajorityQuorum,
    FuzzScheme::PartialQuorum,
    FuzzScheme::PrimarySync,
    FuzzScheme::Causal,
    FuzzScheme::EventualSticky,
    FuzzScheme::MultiMasterCrdt,
    FuzzScheme::EagerAckedEventual,
];

// No workload runs Paxos, because of two defects in it (see README.md,
// "Known defects"). First, its client re-arms an attempt timer on every
// retry and never cancels the previous one. While no node accepts
// requests, the pending op's timers double every attempt period: 7 of
// 900 `read-long` runs ran out of memory, and one `fuzz-campaign` seed
// peaked at 132 MB instead of 8 MB. Second, it loses linearizability
// under the heavy nemesis on about 1 case in 200, so most campaigns
// would fail their checks.

/// Workers the campaign's `par_map` runs on. With two, the peak resident
/// set of one seed's campaign ranged from 13.8 to 17.5 MB across runs,
/// depending on which heavy cases overlapped. With one, it repeats
/// exactly, so `peak_rss_mb` can be gated.
const FUZZ_JOBS: usize = 1;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long read-mostly histories, recorder off.
    ReadLong,
    /// Write-heavy runs with a counters recorder and live stream checkers.
    WriteObserved,
    /// Every fuzz scheme under heavy nemesis, judged and shrunk.
    FuzzCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ReadLong, Workload::WriteObserved, Workload::FuzzCampaign];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadLong => "read-long",
            Workload::WriteObserved => "write-observed",
            Workload::FuzzCampaign => "fuzz-campaign",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The schemes this workload runs.
    pub fn schemes(self) -> &'static [FuzzScheme] {
        match self {
            Workload::ReadLong => &READ_SCHEMES,
            Workload::WriteObserved => &WRITE_SCHEMES,
            Workload::FuzzCampaign => &FUZZ_SCHEMES,
        }
    }

    /// The client workload every experiment of this workload runs.
    fn spec(self) -> WorkloadSpec {
        let (mix, ops) = match self {
            Workload::ReadLong => (OpMix::ycsb_b(), READ_OPS),
            Workload::WriteObserved => (OpMix::new(0.9, 0.0), WRITE_OPS),
            Workload::FuzzCampaign => return fuzz_workload(),
        };
        WorkloadSpec {
            keys: KEYS,
            distribution: KeyDistribution::Uniform,
            mix,
            arrival: Arrival::Closed { think_us: THINK_US },
            sessions: SESSIONS,
            ops_per_session: ops,
        }
    }
}

/// Metric-name slug of a fuzz scheme.
pub fn slug(scheme: FuzzScheme) -> &'static str {
    match scheme {
        FuzzScheme::Paxos => "paxos",
        FuzzScheme::MajorityQuorum => "quorum-r2w2",
        FuzzScheme::PartialQuorum => "quorum-r1w1",
        FuzzScheme::PrimarySync => "primary-sync",
        FuzzScheme::Causal => "causal",
        FuzzScheme::EventualSticky => "eventual-sticky",
        FuzzScheme::MultiMasterCrdt => "mm-gossip-crdt",
        FuzzScheme::EagerAckedEventual => "mm-eager-acked",
    }
}

/// The seed of case `k` of the `scheme_index`-th scheme: a splitmix64
/// mix of the workload seed, so nearby workload seeds give unrelated
/// cases.
pub fn case_seed(seed: u64, scheme_index: u64, k: u64) -> u64 {
    let mut z = seed ^ (scheme_index << 32 | k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One long-history experiment, built during set-up.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The scheme, seed and nemesis schedule.
    pub case: FuzzCase,
    /// The experiment, recorder not yet attached.
    pub experiment: Experiment,
}

/// Everything the timed phase runs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `read-long`, `write-observed`.
    Runs(Vec<Planned>),
    /// `fuzz-campaign`.
    Cases(Vec<FuzzCase>),
}

impl Inputs {
    /// Client ops one round attempts.
    pub fn ops_per_round(&self) -> u64 {
        match self {
            Inputs::Runs(runs) => runs.iter().map(|p| p.experiment.workload.total_ops()).sum(),
            Inputs::Cases(cases) => cases.len() as u64 * fuzz_workload().total_ops(),
        }
    }

    /// Every `(scheme, seed, schedule)` the round runs.
    fn cases(&self) -> Vec<&FuzzCase> {
        match self {
            Inputs::Runs(runs) => runs.iter().map(|p| &p.case).collect(),
            Inputs::Cases(cases) => cases.iter().collect(),
        }
    }
}

/// Nemesis intensity, schedules per scheme, nemesis span and horizon.
fn plan(workload: Workload) -> (IntensityProfile, u64, u64, u64) {
    match workload {
        Workload::ReadLong => {
            (IntensityProfile::medium(), READ_SUBSEEDS, READ_NEMESIS_MS, READ_HORIZON_MS)
        }
        Workload::WriteObserved => {
            (IntensityProfile::medium(), WRITE_SUBSEEDS, WRITE_NEMESIS_MS, WRITE_HORIZON_MS)
        }
        Workload::FuzzCampaign => {
            (IntensityProfile::heavy(), FUZZ_SEEDS, FUZZ_HORIZON_MS, FUZZ_HORIZON_MS)
        }
    }
}

/// The nemesis schedule of one case: [`generate_case`] for the campaign,
/// the same generator over the workload's own span otherwise.
fn make_case(workload: Workload, scheme: FuzzScheme, seed: u64) -> FuzzCase {
    let (profile, _, nemesis_ms, _) = plan(workload);
    if workload == Workload::FuzzCampaign {
        return generate_case(scheme, seed, &profile);
    }
    let events = nemesis::generate(seed, scheme.server_nodes(), nemesis_ms, &profile);
    FuzzCase { scheme, seed, events }
}

/// Build every input of `workload` from `seed`: one nemesis schedule per
/// `(scheme, sub-seed)` and, for the long-history workloads, the
/// experiment that runs it. This is the set-up the `setup_s` metric
/// times.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let (_, subseeds, _, horizon_ms) = plan(workload);
    // Every case gets its own seed, so two workload seeds share no case.
    let cases = workload.schemes().iter().enumerate().flat_map(|(si, &scheme)| {
        (0..subseeds).map(move |k| make_case(workload, scheme, case_seed(seed, si as u64, k)))
    });
    if workload == Workload::FuzzCampaign {
        return Inputs::Cases(cases.collect());
    }
    let spec = workload.spec();
    Inputs::Runs(
        cases
            .map(|case| {
                let experiment = Experiment::new(case.scheme.to_scheme())
                    .workload(spec.clone())
                    .latency(LatencyModel::lan())
                    .faults(nemesis::to_schedule(&case.events))
                    .seed(case.seed)
                    .horizon(SimTime::from_millis(horizon_ms));
                Planned { case, experiment }
            })
            .collect(),
    )
}

/// How a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// As users run the workload: the untraced measurement.
    Plain,
    /// `write-observed` with the recorder off (events are identical).
    RecorderOff,
    /// With spans, the handler profiler and a counters recorder.
    Traced,
}

/// What one experiment (or fuzz case) produced.
#[derive(Debug)]
pub struct RunOut {
    /// The scheme that ran.
    pub scheme: FuzzScheme,
    /// The run's result (kept for the output checks).
    pub result: Option<RunResult>,
    /// The streaming checkers' final reports (`write-observed`).
    pub stream: Option<StreamReports>,
    /// The fuzz verdict and shrunk reproducer.
    pub verdict: Option<(Verdict, Option<FuzzCase>)>,
    /// Wall time of the timed call, ns.
    pub wall_ns: u64,
    /// Simulator events.
    pub events: u64,
    /// Client ops scripted.
    pub ops: u64,
    /// Recorder counters and profile (traced runs).
    pub metrics: Option<MetricsReport>,
    /// `(wall_ns, ops completed)` at each bucket boundary (traced runs).
    pub growth: Vec<(f64, f64)>,
    /// Time inside the benchmark's monitor callback, ns.
    pub monitor_ns: u64,
    /// Time in streaming checkers, ns.
    pub stream_ns: u64,
    /// Time in batch checkers, ns (traced fuzz runs).
    pub batch_ns: u64,
    /// Time in `shrink_case`, ns.
    pub shrink_ns: u64,
    /// Wall time of the whole fuzz case (run, judge, shrink), ns.
    pub case_ns: u64,
}

impl RunOut {
    fn new(scheme: FuzzScheme, ops: u64) -> Self {
        RunOut {
            scheme,
            result: None,
            stream: None,
            verdict: None,
            wall_ns: 0,
            events: 0,
            ops,
            metrics: None,
            growth: Vec::new(),
            monitor_ns: 0,
            stream_ns: 0,
            batch_ns: 0,
            shrink_ns: 0,
            case_ns: 0,
        }
    }
}

/// What one round produced.
#[derive(Debug)]
pub struct Round {
    /// Wall time of the round's timed calls, ns.
    pub wall_ns: u64,
    /// Ops the round attempted.
    pub ops: u64,
    /// Per experiment / case outputs.
    pub runs: Vec<RunOut>,
    /// Fingerprint of every trace (or verdict) the round produced.
    pub fingerprint: u64,
    /// Time re-generating nemesis schedules, ns, and how many (traced).
    pub nemesis_ns: (u64, u64),
    /// Time in `WorkloadSpec::session_script`, ns, and ops scripted
    /// (traced).
    pub script_ns: (u64, u64),
}

/// Run every input once.
pub fn round(
    workload: Workload,
    inputs: &Inputs,
    mode: Mode,
    tracer: &Tracer,
    parent: u64,
) -> Round {
    let span = tracer.open("round", workload.name(), parent);
    let id = span.id();
    let mut out = match inputs {
        Inputs::Runs(runs) => {
            let outs: Vec<RunOut> =
                runs.iter().map(|p| run_experiment(workload, p, mode, tracer, id)).collect();
            let wall_ns = outs.iter().map(|o| o.wall_ns).sum();
            let ops = outs.iter().map(|o| o.ops).sum();
            Round {
                wall_ns,
                ops,
                runs: outs,
                fingerprint: 0,
                nemesis_ns: (0, 0),
                script_ns: (0, 0),
            }
        }
        Inputs::Cases(cases) => campaign(cases, mode, tracer, id),
    };
    if mode == Mode::Traced {
        out.nemesis_ns = time_nemesis(workload, inputs, tracer, id);
        out.script_ns = time_scripts(workload, inputs, tracer, id);
    }
    out.fingerprint = fingerprint_round(&out);
    tracer.close(span);
    out
}

fn run_experiment(
    workload: Workload,
    p: &Planned,
    mode: Mode,
    tracer: &Tracer,
    parent: u64,
) -> RunOut {
    let mut out = RunOut::new(p.case.scheme, p.experiment.workload.total_ops());
    let observed = workload == Workload::WriteObserved;
    let traced = mode == Mode::Traced;
    if workload == Workload::ReadLong && !traced {
        // As `fuzz_nemesis` and `simbench` run: recorder disabled, no
        // monitor, so `drive` runs the simulation in one slice.
        let (result, wall) =
            tracer.time("run", slug(p.case.scheme), parent, |_| p.experiment.run());
        out.wall_ns = wall;
        out.events = result.events;
        out.result = Some(result);
        return out;
    }
    let recorder =
        if mode == Mode::RecorderOff { Recorder::disabled() } else { Recorder::enabled() };
    let experiment = p.experiment.clone().recorder(recorder.clone()).profile(traced);
    let run = tracer.open("run", slug(p.case.scheme), parent);
    let run_id = run.id();
    let start = Instant::now();
    let mut verifier =
        observed.then(|| StreamVerifier::new(StreamConfig::default()).with_recorder(recorder));
    let mut bucket: Option<Open> = traced.then(|| tracer.open("bucket", "", run_id));
    let mut fed = 0usize;
    let (mut monitor_ns, mut stream_ns) = (0u64, 0u64);
    let mut growth = vec![(0.0, 0.0)];
    let result = experiment.run_monitored(&mut |ops: &[OpRecord], now: SimTime| {
        let t0 = Instant::now();
        if let Some(b) = bucket.take() {
            tracer.close(b);
        }
        fed += ops.len();
        if traced {
            growth.push((t0.duration_since(start).as_nanos() as f64, fed as f64));
        }
        if let Some(v) = verifier.as_mut() {
            let (_, ns) = tracer.time("stream_feed", "", run_id, |_| {
                v.feed_slice(ops);
                v.advance(Watermark::at(now));
            });
            stream_ns += ns;
        }
        if traced {
            bucket = Some(tracer.open("bucket", "", run_id));
        }
        monitor_ns += t0.elapsed().as_nanos() as u64;
    });
    if let Some(b) = bucket.take() {
        tracer.close(b);
    }
    if let Some(v) = verifier {
        let (reports, ns) = tracer.time("stream_finish", "", run_id, |_| v.finish());
        stream_ns += ns;
        out.stream = Some(reports);
    }
    out.wall_ns = tracer.close(run);
    out.events = result.events;
    out.metrics = traced.then(|| result.metrics.clone());
    out.growth = growth;
    out.monitor_ns = monitor_ns;
    out.stream_ns = stream_ns;
    out.result = Some(result);
    out
}

/// The streaming checkers run unbounded, so their final reports must
/// equal the batch checkers' over the finished trace.
fn stream_parity(trace: &OpTrace, reports: &StreamReports) -> bool {
    reports.session == check_session_guarantees(trace)
        && reports.staleness == measure_staleness(trace)
        && reports.monotonic == check_monotonic_values(trace)
}

/// The fuzz harness's experiment for `case`, built from the same public
/// pieces `run_case` uses.
fn fuzz_experiment(case: &FuzzCase) -> Experiment {
    Experiment::new(case.scheme.to_scheme())
        .workload(fuzz_workload())
        .latency(LatencyModel::lan())
        .faults(nemesis::to_schedule(&case.events))
        .seed(case.seed)
        .horizon(SimTime::from_millis(FUZZ_HORIZON_MS))
        .queue(QueueKind::TimingWheel)
}

fn campaign(cases: &[FuzzCase], mode: Mode, tracer: &Tracer, parent: u64) -> Round {
    let traced = mode == Mode::Traced;
    let ops = fuzz_workload().total_ops();
    let (runs, wall_ns) = tracer.time("campaign", "", parent, |id| {
        par_map(cases, FUZZ_JOBS, |_, case| {
            let (mut out, case_ns) = tracer.time("case", slug(case.scheme), id, |case_id| {
                let mut out = RunOut::new(case.scheme, ops);
                let verdict = if traced {
                    // The traced case runs the same experiment as
                    // `run_case`, with the profiler on, and times the
                    // batch checker call on its own.
                    let exp = fuzz_experiment(case).recorder(Recorder::enabled()).profile(true);
                    let (result, wall) =
                        tracer.time("run", slug(case.scheme), case_id, |_| exp.run());
                    let (verdict, ns) =
                        tracer.time("batch_check", slug(case.scheme), case_id, |_| {
                            judge(case.scheme, &result.trace)
                        });
                    out.batch_ns = ns;
                    out.events = result.events;
                    out.metrics = Some(result.metrics);
                    out.wall_ns = wall;
                    verdict
                } else {
                    tracer.time("run_case", slug(case.scheme), case_id, |_| run_case(case)).0
                };
                let shrunk = verdict.kind().map(|_| {
                    let (shrunk, ns) =
                        tracer
                            .time("shrink_case", slug(case.scheme), case_id, |_| shrink_case(case));
                    out.shrink_ns = ns;
                    shrunk
                });
                out.verdict = Some((verdict, shrunk));
                out
            });
            out.case_ns = case_ns;
            out
        })
    });
    let total_ops = ops * cases.len() as u64;
    Round { wall_ns, ops: total_ops, runs, fingerprint: 0, nemesis_ns: (0, 0), script_ns: (0, 0) }
}

/// Judge a trace against the scheme's expected guarantee with the public
/// checkers, as the fuzz harness does. A per-key history too long for
/// the linearizability checker falls back to the no-stale-reads check.
pub fn judge(scheme: FuzzScheme, trace: &OpTrace) -> Verdict {
    let violation = |kind, count: u64| {
        if count == 0 {
            Verdict::Pass
        } else {
            Verdict::Violation { kind, count }
        }
    };
    match scheme.expectation() {
        Expectation::Linearizable => match check_trace_linearizable(trace) {
            Ok(()) | Err(LinCheckError::SearchBudgetExceeded { .. }) => Verdict::Pass,
            Err(LinCheckError::NotLinearizable { .. }) => {
                violation(ViolationKind::NotLinearizable, 1)
            }
            Err(LinCheckError::HistoryTooLarge { .. }) => {
                violation(ViolationKind::StaleReads, measure_staleness(trace).stale_reads)
            }
        },
        Expectation::NoStaleReads => {
            violation(ViolationKind::StaleReads, measure_staleness(trace).stale_reads)
        }
        Expectation::ReadYourWrites => {
            violation(ViolationKind::ReadYourWrites, check_session_guarantees(trace).ryw_violations)
        }
        Expectation::MonotonicReads => {
            violation(ViolationKind::MonotonicReads, check_monotonic_values(trace).violations)
        }
    }
}

/// Re-generate every nemesis schedule under spans (set-up's cost, seen
/// per call).
fn time_nemesis(workload: Workload, inputs: &Inputs, tracer: &Tracer, parent: u64) -> (u64, u64) {
    let cases = inputs.cases();
    let mut total = 0;
    for c in &cases {
        let (case, ns) = tracer.time("generate_case", slug(c.scheme), parent, |_| {
            make_case(workload, c.scheme, c.seed)
        });
        assert_eq!(&&case, c, "nemesis schedules are a pure function of their seed");
        total += ns;
    }
    (total, cases.len() as u64)
}

/// Time `WorkloadSpec::session_script` on every session of every input,
/// seeded as `Experiment` seeds it.
fn time_scripts(workload: Workload, inputs: &Inputs, tracer: &Tracer, parent: u64) -> (u64, u64) {
    let spec = workload.spec();
    let (mut total, mut ops) = (0, 0);
    for case in inputs.cases() {
        let root = SimRng::new(case.seed ^ 0x5eed_f00d);
        for i in 0..spec.sessions {
            let mut rng = root.fork(i as u64 + 1);
            let (script, ns) = tracer.time("session_script", slug(case.scheme), parent, |_| {
                spec.session_script(&mut rng)
            });
            std::hint::black_box(&script);
            total += ns;
            ops += script.len() as u64;
        }
    }
    (total, ops)
}

/// FNV-1a over every trace record (or fuzz verdict) of a round.
fn fingerprint_round(round: &Round) -> u64 {
    let mut h = Fnv::default();
    for r in &round.runs {
        if let Some(result) = &r.result {
            h.u64(result.events);
            for op in result.trace.records() {
                fingerprint_op(&mut h, op);
            }
        }
        if let Some((verdict, shrunk)) = &r.verdict {
            h.bytes(format!("{verdict:?}").as_bytes());
            if let Some(case) = shrunk {
                h.bytes(format!("{:?}", case.events).as_bytes());
            }
        }
    }
    h.0
}

fn fingerprint_op(h: &mut Fnv, op: &OpRecord) {
    h.u64(op.session);
    h.u64(op.op_id);
    h.u64(op.key);
    h.u64(matches!(op.kind, simnet::OpKind::Write) as u64);
    h.u64(op.value_written.unwrap_or(u64::MAX));
    for v in &op.value_read {
        h.u64(*v);
    }
    h.u64(op.invoked.as_micros());
    h.u64(op.completed.as_micros());
    h.u64(op.replica.0 as u64);
    h.u64(op.ok as u64);
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The result of the output checks.
#[derive(Debug, Default)]
pub struct Checked {
    /// Ops that failed (or never completed) in one round.
    pub failed_per_round: u64,
    /// Every check that did not hold.
    pub problems: Vec<String>,
    /// Time in batch checkers, ns, and ops checked.
    pub batch_ns: (u64, u64),
}

/// Check one round's outputs: every scripted op is in the trace, every
/// scheme keeps its expected guarantee, streaming and batch checkers
/// agree, and (for the campaign) the positive control finds a violation.
pub fn check(workload: Workload, inputs: &Inputs, first: &Round, tracer: &Tracer) -> Checked {
    let mut c = Checked::default();
    let checks = tracer.open("checks", workload.name(), 0);
    match inputs {
        Inputs::Runs(_) => {
            for r in &first.runs {
                let result = r.result.as_ref().expect("runs keep their result");
                c.failed_per_round +=
                    scripted_ops_check(&result.trace, r.ops, r.scheme, &mut c.problems);
                let (verdict, ns) = tracer.time("batch_check", slug(r.scheme), checks.id(), |_| {
                    judge(r.scheme, &result.trace)
                });
                c.batch_ns.0 += ns;
                c.batch_ns.1 += r.ops;
                if verdict != Verdict::Pass && !r.scheme.violation_expected() {
                    c.problems.push(format!(
                        "{} broke its expected guarantee: {verdict:?}",
                        slug(r.scheme)
                    ));
                }
                if let Some(reports) = &r.stream {
                    let (same, ns) =
                        tracer.time("batch_check", slug(r.scheme), checks.id(), |_| {
                            stream_parity(&result.trace, reports)
                        });
                    c.batch_ns.0 += ns;
                    if !same {
                        c.problems.push(format!(
                            "{}: streaming checker reports differ from the batch checkers",
                            slug(r.scheme)
                        ));
                    }
                }
            }
        }
        Inputs::Cases(cases) => {
            let mut control_found = false;
            for (case, r) in cases.iter().zip(&first.runs) {
                let (verdict, shrunk) = r.verdict.as_ref().expect("cases keep their verdict");
                let result = fuzz_experiment(case).run();
                c.failed_per_round +=
                    scripted_ops_check(&result.trace, r.ops, case.scheme, &mut c.problems);
                let (rejudged, ns) =
                    tracer.time("batch_check", slug(case.scheme), checks.id(), |_| {
                        judge(case.scheme, &result.trace)
                    });
                c.batch_ns.0 += ns;
                c.batch_ns.1 += r.ops;
                if rejudged != *verdict {
                    c.problems.push(format!(
                        "{} seed {}: run_case said {verdict:?}, the checkers say {rejudged:?}",
                        slug(case.scheme),
                        case.seed
                    ));
                }
                match (verdict.kind(), case.scheme.violation_expected()) {
                    (Some(_), true) => control_found = true,
                    (Some(_), false) => c.problems.push(format!(
                        "unexpected violation: {} seed {}: {verdict:?}",
                        slug(case.scheme),
                        case.seed
                    )),
                    _ => {}
                }
                if let Some(shrunk) = shrunk {
                    if run_case(shrunk).kind() != verdict.kind() {
                        c.problems.push(format!(
                            "{} seed {}: the shrunk reproducer does not reproduce",
                            slug(case.scheme),
                            case.seed
                        ));
                    }
                }
            }
            if !control_found {
                c.problems.push("the quorum-r1w1 positive control found no violation".to_string());
            }
        }
    }
    tracer.close(checks);
    c
}

/// Every scripted op must appear in the trace exactly once. Returns the
/// ops that failed or never completed.
fn scripted_ops_check(
    trace: &OpTrace,
    scripted: u64,
    scheme: FuzzScheme,
    problems: &mut Vec<String>,
) -> u64 {
    let ids: BTreeSet<(u64, u64)> = trace.records().iter().map(|r| (r.session, r.op_id)).collect();
    let recorded = trace.len() as u64;
    if ids.len() as u64 != recorded || recorded != scripted {
        problems.push(format!(
            "{}: {recorded} trace records ({} distinct) for {scripted} scripted ops",
            slug(scheme),
            ids.len()
        ));
    }
    let failed = trace.records().iter().filter(|r| !r.ok).count() as u64;
    failed + scripted.saturating_sub(recorded)
}

/// Counter total over a set of runs.
pub fn counter(runs: &[&RunOut], c: Counter) -> u64 {
    runs.iter().filter_map(|r| r.metrics.as_ref()).map(|m| m.counter(c)).sum()
}
