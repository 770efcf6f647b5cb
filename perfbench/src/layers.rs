//! Per-layer metrics, derived from the traced rounds' spans and the
//! counters the program already publishes.

use crate::stats::{growth_ratio, median, percentile, tail_percentile};
use crate::workloads::{counter, slug, Round, RunOut, Workload};
use obs::Counter;
use rec_core::FuzzScheme;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order. The list in
/// `BENCHMARK.json` must match it.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("simnet.events_per_op", "events/op"),
    ("simnet.messages_per_op", "msgs/op"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.core_ns_per_event", "ns"),
    ("simnet.nemesis_generate_us_per_case", "us"),
    ("replication.client_ns_per_op", "ns"),
    ("replication.replica_ns_per_op", "ns"),
    ("replication.client_ns_per_op_growth", "ratio"),
    ("replication.paxos.ns_per_op", "ns"),
    ("replication.quorum-r2w2.ns_per_op", "ns"),
    ("replication.quorum-r1w1.ns_per_op", "ns"),
    ("replication.primary-sync.ns_per_op", "ns"),
    ("replication.causal.ns_per_op", "ns"),
    ("replication.eventual-sticky.ns_per_op", "ns"),
    ("replication.mm-gossip-crdt.ns_per_op", "ns"),
    ("replication.mm-eager-acked.ns_per_op", "ns"),
    ("replication.bytes_sent_per_op", "B/op"),
    ("replication.anti_entropy_rounds_per_op", "rounds/op"),
    ("replication.alloc_bytes_per_op", "B/op"),
    ("replication.handler_invocations_per_op", "calls/op"),
    ("kvstore.wal_appends_per_op", "appends/op"),
    ("kvstore.wal_replayed_records_per_case", "records"),
    ("obs.recorder_ns_per_event", "ns"),
    ("consistency.stream_ns_per_op", "ns"),
    ("consistency.batch_ns_per_op", "ns"),
    ("rec_core.case_ms_p50", "ms"),
    ("rec_core.case_ms_p99", "ms"),
    ("rec_core.case_ms_tail", "ms"),
    ("rec_core.case_tail_pct", "%"),
    ("rec_core.case_samples", "count"),
    ("rec_core.shrink_share", "ratio"),
    ("workload.script_ns_per_op", "ns"),
    ("bench.trace_overhead_share", "ratio"),
];

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The workload measured.
    pub workload: Workload,
    /// Rounds run with spans, the profiler and a counters recorder.
    pub traced: &'a [Round],
    /// Wall times of untraced rounds, ns.
    pub plain_walls: &'a [f64],
    /// Wall times of `write-observed` rounds with the recorder off, ns.
    pub recorder_off_walls: &'a [f64],
    /// Batch checker time, ns, and ops checked, from the output checks.
    pub check_batch_ns: (u64, u64),
}

/// Compute every per-layer metric; `None` marks a layer the workload
/// does not exercise.
pub fn per_layer(inp: &LayerInputs) -> BTreeMap<&'static str, Option<f64>> {
    let runs: Vec<&RunOut> = inp.traced.iter().flat_map(|r| &r.runs).collect();
    let ops = runs.iter().map(|r| r.ops).sum::<u64>() as f64;
    let events = runs.iter().map(|r| r.events).sum::<u64>() as f64;
    let run_wall = runs.iter().map(|r| r.wall_ns).sum::<u64>() as f64;
    let per_op = |v: f64| (ops > 0.0).then(|| v / ops);
    let count_per_op = |c: Counter| per_op(counter(&runs, c) as f64);
    let role_ns = |role: Option<&str>| -> f64 {
        runs.iter()
            .filter_map(|r| r.metrics.as_ref()?.profile.as_ref())
            .flat_map(|p| &p.schemes)
            .flat_map(|s| &s.handlers)
            .filter(|h| role.is_none_or(|role| h.role == role))
            .map(|h| h.time_total_ns as f64)
            .sum()
    };
    let handler_ns = role_ns(None);
    let monitor_ns = runs.iter().map(|r| r.monitor_ns).sum::<u64>() as f64;
    let sum2 = |f: fn(&Round) -> (u64, u64)| {
        inp.traced.iter().map(f).fold((0.0, 0.0), |a, (x, n)| (a.0 + x as f64, a.1 + n as f64))
    };
    let (nemesis_ns, nemesis_n) = sum2(|r| r.nemesis_ns);
    let (script_ns, script_ops) = sum2(|r| r.script_ns);
    let fuzz = inp.workload == Workload::FuzzCampaign;
    let observed = inp.workload == Workload::WriteObserved;

    let mut m: BTreeMap<&'static str, Option<f64>> = BTreeMap::new();
    m.insert("simnet.events_per_op", per_op(events));
    m.insert("simnet.messages_per_op", count_per_op(Counter::MessagesSent));
    m.insert("simnet.ns_per_event", (events > 0.0).then(|| run_wall / events));
    m.insert(
        "simnet.core_ns_per_event",
        (events > 0.0).then(|| (run_wall - handler_ns - monitor_ns) / events),
    );
    m.insert(
        "simnet.nemesis_generate_us_per_case",
        (nemesis_n > 0.0).then(|| nemesis_ns / nemesis_n / 1e3),
    );
    m.insert("replication.client_ns_per_op", per_op(role_ns(Some("client"))));
    m.insert("replication.replica_ns_per_op", per_op(role_ns(Some("replica"))));
    let growth: Vec<f64> =
        runs.iter().filter_map(|r| growth_ratio(&r.growth, r.ops as f64)).collect();
    m.insert("replication.client_ns_per_op_growth", if fuzz { None } else { median(&growth) });
    for scheme in FuzzScheme::ALL {
        let mine: Vec<&&RunOut> = runs.iter().filter(|r| r.scheme == scheme).collect();
        let ops = mine.iter().map(|r| r.ops).sum::<u64>() as f64;
        let wall = mine.iter().map(|r| r.wall_ns).sum::<u64>() as f64;
        m.insert(scheme_metric(scheme), (ops > 0.0).then(|| wall / ops));
    }
    m.insert("replication.bytes_sent_per_op", count_per_op(Counter::BytesSent));
    m.insert("replication.anti_entropy_rounds_per_op", count_per_op(Counter::AntiEntropyRounds));
    m.insert("replication.alloc_bytes_per_op", count_per_op(Counter::AllocBytes));
    m.insert("replication.handler_invocations_per_op", count_per_op(Counter::HandlerInvocations));
    m.insert("kvstore.wal_appends_per_op", count_per_op(Counter::WalAppends));
    m.insert(
        "kvstore.wal_replayed_records_per_case",
        (!runs.is_empty())
            .then(|| counter(&runs, Counter::WalReplayedRecords) as f64 / runs.len() as f64),
    );
    let events_per_round = inp.traced.first().map(|r| r.runs.iter().map(|o| o.events).sum::<u64>());
    m.insert(
        "obs.recorder_ns_per_event",
        match (median(inp.plain_walls), median(inp.recorder_off_walls), events_per_round) {
            (Some(on), Some(off), Some(ev)) if observed && ev > 0 => Some((on - off) / ev as f64),
            _ => None,
        },
    );
    m.insert(
        "consistency.stream_ns_per_op",
        if observed { per_op(runs.iter().map(|r| r.stream_ns).sum::<u64>() as f64) } else { None },
    );
    m.insert(
        "consistency.batch_ns_per_op",
        if fuzz {
            per_op(runs.iter().map(|r| r.batch_ns).sum::<u64>() as f64)
        } else {
            let (ns, n) = inp.check_batch_ns;
            (n > 0).then(|| ns as f64 / n as f64)
        },
    );
    let case_ms: Vec<f64> =
        if fuzz { runs.iter().map(|r| r.case_ns as f64 / 1e6).collect() } else { Vec::new() };
    let tail = tail_percentile(case_ms.len());
    m.insert("rec_core.case_ms_p50", median(&case_ms));
    m.insert(
        "rec_core.case_ms_p99",
        tail.filter(|&p| p >= 99.0).and_then(|_| percentile(&case_ms, 99.0)),
    );
    m.insert("rec_core.case_ms_tail", tail.and_then(|p| percentile(&case_ms, p)));
    m.insert("rec_core.case_tail_pct", tail);
    m.insert("rec_core.case_samples", fuzz.then_some(case_ms.len() as f64));
    // Workers run cases side by side, so the share is of worker time.
    let case_ns: u64 = runs.iter().map(|r| r.case_ns).sum();
    m.insert(
        "rec_core.shrink_share",
        (fuzz && case_ns > 0)
            .then(|| runs.iter().map(|r| r.shrink_ns).sum::<u64>() as f64 / case_ns as f64),
    );
    m.insert("workload.script_ns_per_op", (script_ops > 0.0).then(|| script_ns / script_ops));
    let traced_walls: Vec<f64> = inp.traced.iter().map(|r| r.wall_ns as f64).collect();
    m.insert(
        "bench.trace_overhead_share",
        match (median(&traced_walls), median(inp.plain_walls)) {
            (Some(t), Some(p)) if p > 0.0 => Some(t / p - 1.0),
            _ => None,
        },
    );
    debug_assert!(PER_LAYER.iter().all(|(name, _)| m.contains_key(name)));
    m
}

fn scheme_metric(scheme: FuzzScheme) -> &'static str {
    let name = PER_LAYER.iter().map(|(n, _)| *n).find(|n| {
        n.strip_prefix("replication.").and_then(|r| r.strip_suffix(".ns_per_op"))
            == Some(slug(scheme))
    });
    name.expect("every scheme slug has a per-layer metric")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these metrics, with these units.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in PER_LAYER {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let per_layer = json.split(r#""per_layer""#).nth(1).expect("a per_layer list");
        assert_eq!(per_layer.matches(r#""name""#).count(), PER_LAYER.len());
    }

    #[test]
    fn every_scheme_has_a_metric() {
        for scheme in FuzzScheme::ALL {
            assert!(scheme_metric(scheme).contains(slug(scheme)));
        }
    }
}
