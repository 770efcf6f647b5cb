//! Operation traces.
//!
//! Every experiment records the client-visible history of the run — one
//! [`OpRecord`] per completed (or failed) operation — into an [`OpTrace`].
//! The consistency checkers in the `consistency` crate consume *only* this
//! trace, never protocol internals, so a buggy protocol cannot hide from
//! its checker.
//!
//! Values are `u64`s; experiments give every write a globally unique value
//! so that reads unambiguously identify which write they observed (the
//! standard trick in linearizability checking).

use crate::sim::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read a key.
    Read,
    /// Write a key.
    Write,
}

/// One completed client operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// The session (client) that issued the operation.
    pub session: u64,
    /// Per-trace unique operation id, in issue order per session.
    pub op_id: u64,
    /// Key operated on.
    pub key: u64,
    /// Read or write.
    pub kind: OpKind,
    /// For writes: the (globally unique) value written.
    pub value_written: Option<u64>,
    /// For reads: the observed value(s). Multiple values = siblings returned
    /// by a multi-value register under concurrent writes; empty = key absent.
    pub value_read: Vec<u64>,
    /// When the client invoked the operation.
    pub invoked: SimTime,
    /// When the response arrived at the client.
    pub completed: SimTime,
    /// The replica that served the operation.
    pub replica: NodeId,
    /// Whether the operation succeeded (false = timeout / unavailable).
    pub ok: bool,
    /// For reads: the write-timestamp of the version returned, if the
    /// protocol exposes one (used for staleness measurement).
    pub version_ts: Option<SimTime>,
    /// Logical version stamp as a `(counter, actor)` Lamport pair: for
    /// writes, the stamp the replica assigned; for reads, the stamp of the
    /// version returned (maximum across siblings). Session-guarantee
    /// checkers compare these under the Lamport total order.
    pub stamp: Option<(u64, u64)>,
}

impl OpRecord {
    /// Client-observed latency of this operation.
    pub fn latency(&self) -> crate::time::Duration {
        self.completed.saturating_since(self.invoked)
    }
}

/// A full run's operation history.
///
/// Serializes as `{"records": [...]}`; the write index is derived state
/// and never serialized.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    records: Vec<OpRecord>,
    /// Built by the first [`OpTrace::read_staleness`] call, kept current
    /// by [`OpTrace::push`], dropped by [`OpTrace::sort_by_completion`].
    /// A trace nobody asks for staleness never pays for it; boxed so
    /// that the many traces kept without one stay small.
    index: Option<Box<WriteIndex>>,
}

/// Link value meaning "no earlier acknowledged write to this key".
const NO_WRITE: u32 = u32::MAX;

/// Per-key chains of acknowledged (ok) writes over record positions,
/// newest first, with each write's rank in its chain and, while every
/// ok write's value is distinct, the position that wrote each value.
/// Costs two `u32`s per record plus one map entry per key and per ok
/// write.
#[derive(Debug, Clone)]
struct WriteIndex {
    /// Position of the newest ok write to each key.
    newest: HashMap<u64, u32>,
    /// Per record: for an ok write, the position of the previous ok
    /// write to the same key; otherwise [`NO_WRITE`].
    prev: Vec<u32>,
    /// Per record: for an ok write, how many ok writes to its key the
    /// trace holds up to and including it; otherwise 0.
    rank: Vec<u32>,
    /// Position of the ok write that wrote each value. `None` once two
    /// ok writes share a value (client sessions write unique values),
    /// and queries fall back to walking the key's chain.
    by_value: Option<HashMap<u64, u32>>,
}

impl WriteIndex {
    fn build(records: &[OpRecord]) -> Self {
        let mut index = WriteIndex {
            newest: HashMap::new(),
            prev: Vec::with_capacity(records.len()),
            rank: Vec::with_capacity(records.len()),
            by_value: Some(HashMap::new()),
        };
        for r in records {
            index.push(r);
        }
        index
    }

    fn push(&mut self, r: &OpRecord) {
        let pos = u32::try_from(self.prev.len())
            .ok()
            .filter(|&p| p != NO_WRITE)
            .expect("trace too long for u32 record positions");
        if r.kind != OpKind::Write || !r.ok {
            self.prev.push(NO_WRITE);
            self.rank.push(0);
            return;
        }
        let link = self.newest.insert(r.key, pos).unwrap_or(NO_WRITE);
        let rank = if link == NO_WRITE { 1 } else { self.rank[link as usize] + 1 };
        self.prev.push(link);
        self.rank.push(rank);
        if let (Some(by_value), Some(v)) = (&mut self.by_value, r.value_written) {
            if by_value.insert(v, pos).is_some() {
                self.by_value = None;
            }
        }
    }
}

impl Serialize for OpTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![("records".to_string(), self.records.to_value())])
    }
}

impl Deserialize for OpTrace {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let records =
            v.get("records").ok_or_else(|| serde::Error::custom("missing field `records`"))?;
        Ok(OpTrace { records: Vec::from_value(records)?, index: None })
    }
}

#[cfg(debug_assertions)]
thread_local! {
    static STALENESS_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times [`OpTrace::read_staleness`] has run on this thread
/// (debug builds only). Tests use it to prove that staleness telemetry
/// is skipped when the recorder is off.
#[cfg(debug_assertions)]
pub fn staleness_calls() -> u64 {
    STALENESS_CALLS.with(|c| c.get())
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: OpRecord) {
        if let Some(index) = &mut self.index {
            index.push(&r);
        }
        self.records.push(r);
    }

    /// All records, in append order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one session, in issue order.
    pub fn session(&self, session: u64) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(move |r| r.session == session)
    }

    /// All successful records.
    pub fn successful(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.ok)
    }

    /// Distinct session ids present in the trace, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self.records.iter().map(|r| r.session).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Sort records by completion time (checkers want real-time order).
    /// Drops the write index: positions move, and a finished trace kept
    /// for the checkers does not need it.
    pub fn sort_by_completion(&mut self) {
        self.index = None;
        self.records.sort_by_key(|r| (r.completed, r.session, r.op_id));
    }

    /// Staleness of a read against the writes committed before it was
    /// invoked: how many acknowledged writes to `key` (completed at or
    /// before `at`) are newer than the version the read returned, and
    /// how long before `at` (µs) the newest such missed write was
    /// acknowledged. Returns `(0, 0)` for a perfectly fresh read.
    ///
    /// Records are appended at completion time, so `completed` is
    /// non-decreasing and the committed prefix is found by binary
    /// search. The index then gives the newest acknowledged write to
    /// `key` in that prefix, the newest one the read returned (looked
    /// up by value), and the count between them from their ranks. A
    /// call costs O(log n + |values_read| + writes to `key`
    /// acknowledged after `at`), however long the trace. If two ok
    /// writes share a value, it walks `key`'s writes instead. The first
    /// call builds the write index in one pass.
    ///
    /// A read that returns a write acknowledged after `at` finds no
    /// match in the prefix and counts every earlier acknowledged write
    /// to `key` as missed (see `docs/METRICS.md`).
    pub fn read_staleness(&mut self, key: u64, at: SimTime, values_read: &[u64]) -> (u64, u64) {
        #[cfg(debug_assertions)]
        STALENESS_CALLS.with(|c| c.set(c.get() + 1));
        let records = &self.records;
        let index = self.index.get_or_insert_with(|| Box::new(WriteIndex::build(records)));
        let prefix = records.partition_point(|r| r.completed <= at);
        let mut newest = index.newest.get(&key).copied().unwrap_or(NO_WRITE);
        while newest != NO_WRITE && newest as usize >= prefix {
            newest = index.prev[newest as usize]; // acknowledged after `at`
        }
        if newest == NO_WRITE {
            return (0, 0);
        }
        // The newest write in the prefix whose value the read returned:
        // writes older than it were superseded, not missed.
        let seen = match &index.by_value {
            Some(by_value) => values_read
                .iter()
                .filter_map(|v| by_value.get(v).copied())
                .filter(|&p| p <= newest && records[p as usize].key == key)
                .max(),
            None => {
                let was_read = |p: u32| {
                    records[p as usize].value_written.is_some_and(|v| values_read.contains(&v))
                };
                let mut pos = newest;
                while pos != NO_WRITE && !was_read(pos) {
                    pos = index.prev[pos as usize];
                }
                (pos != NO_WRITE).then_some(pos)
            }
        };
        let missed = index.rank[newest as usize] - seen.map_or(0, |p| index.rank[p as usize]);
        let lag_us = if missed == 0 {
            0
        } else {
            at.saturating_since(records[newest as usize].completed).as_micros()
        };
        (missed as u64, lag_us)
    }

    /// Fraction of operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.ok).count() as f64 / self.records.len() as f64
    }
}

/// A trace shared between client actors in a single-threaded simulation.
pub type SharedTrace = Rc<RefCell<OpTrace>>;

/// Create an empty shared trace.
pub fn shared_trace() -> SharedTrace {
    Rc::new(RefCell::new(OpTrace::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference oracle for [`OpTrace::read_staleness`]: the direct
    /// backward scan over the committed prefix.
    fn read_staleness_scan(t: &OpTrace, key: u64, at: SimTime, values_read: &[u64]) -> (u64, u64) {
        let prefix = t.records.partition_point(|r| r.completed <= at);
        let mut missed = 0u64;
        let mut newest_missed: Option<SimTime> = None;
        for r in t.records[..prefix].iter().rev() {
            if r.kind != OpKind::Write || !r.ok || r.key != key {
                continue;
            }
            if r.value_written.map(|v| values_read.contains(&v)).unwrap_or(false) {
                break;
            }
            missed += 1;
            if newest_missed.is_none() {
                newest_missed = Some(r.completed);
            }
        }
        let lag_us = newest_missed.map(|c| at.saturating_since(c).as_micros()).unwrap_or(0);
        (missed, lag_us)
    }

    fn rec(session: u64, op_id: u64, kind: OpKind, ok: bool) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key: 1,
            kind,
            value_written: (kind == OpKind::Write).then_some(op_id),
            value_read: if kind == OpKind::Read { vec![42] } else { vec![] },
            invoked: SimTime::from_millis(op_id),
            completed: SimTime::from_millis(op_id + 5),
            replica: NodeId(0),
            ok,
            version_ts: None,
            stamp: None,
        }
    }

    #[test]
    fn latency_is_completion_minus_invocation() {
        let r = rec(0, 3, OpKind::Read, true);
        assert_eq!(r.latency(), crate::time::Duration::from_millis(5));
    }

    #[test]
    fn session_filter() {
        let mut t = OpTrace::new();
        t.push(rec(0, 0, OpKind::Write, true));
        t.push(rec(1, 1, OpKind::Read, true));
        t.push(rec(0, 2, OpKind::Read, true));
        assert_eq!(t.session(0).count(), 2);
        assert_eq!(t.session(1).count(), 1);
        assert_eq!(t.sessions(), vec![0, 1]);
    }

    #[test]
    fn success_rate() {
        let mut t = OpTrace::new();
        assert_eq!(t.success_rate(), 1.0);
        t.push(rec(0, 0, OpKind::Write, true));
        t.push(rec(0, 1, OpKind::Write, false));
        assert_eq!(t.success_rate(), 0.5);
        assert_eq!(t.successful().count(), 1);
    }

    #[test]
    fn sort_by_completion_orders_records() {
        let mut t = OpTrace::new();
        t.push(rec(0, 9, OpKind::Read, true));
        t.push(rec(0, 1, OpKind::Read, true));
        t.sort_by_completion();
        assert!(t.records()[0].completed <= t.records()[1].completed);
        assert_eq!(t.records()[0].op_id, 1);
    }

    #[test]
    fn shared_trace_is_shared() {
        let s = shared_trace();
        let s2 = s.clone();
        s.borrow_mut().push(rec(0, 0, OpKind::Write, true));
        assert_eq!(s2.borrow().len(), 1);
    }

    fn write(op_id: u64, key: u64, completed_ms: u64, ok: bool) -> OpRecord {
        OpRecord {
            key,
            invoked: SimTime::from_millis(completed_ms.saturating_sub(2)),
            completed: SimTime::from_millis(completed_ms),
            ..rec(0, op_id, OpKind::Write, ok)
        }
    }

    /// Pins a known over-count: a read that returns a write acknowledged
    /// after the read was invoked finds no match in the committed prefix,
    /// so every earlier acknowledged write to the key counts as missed.
    #[test]
    fn read_of_a_later_acknowledged_write_counts_all_earlier_writes() {
        let mut t = OpTrace::new();
        t.push(write(1, 1, 10, true));
        t.push(write(2, 1, 20, true));
        t.push(write(3, 1, 30, true));
        t.push(write(4, 1, 40, true)); // acknowledged after the read began
        let at = SimTime::from_millis(35);
        assert_eq!(t.read_staleness(1, at, &[4]), (3, 5_000));
        assert_eq!(t.read_staleness(1, at, &[3]), (0, 0));
        assert_eq!(t.read_staleness(1, at, &[2]), (1, 5_000));
        assert_eq!(t.read_staleness(9, at, &[]), (0, 0)); // never written
    }

    #[test]
    fn serialized_form_is_records_only() {
        let mut t = OpTrace::new();
        t.push(write(1, 1, 10, true));
        t.read_staleness(1, SimTime::from_millis(10), &[]); // builds the index
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(
            json,
            format!("{{\"records\":{}}}", serde_json::to_string(t.records()).unwrap())
        );
        let back: OpTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records(), t.records());
        assert!(back.index.is_none());
    }

    /// One generated op: `(kind, key, completion step, read choice, extra)`.
    type GenOp = (u64, u64, u64, u64, u64);

    /// Build a trace from generated ops. Keys 0..3 are written; reads
    /// also hit keys 3..5, which never are. Completion times advance in
    /// steps of 0 or more ms, so equal `completed` times are common.
    /// Reads return up to two values (siblings) drawn from every write
    /// value of the whole trace, including writes acknowledged later,
    /// failed writes and values no write produced. With `repeat`, writes
    /// share values (the index's fallback walk); otherwise every write
    /// value is distinct, as in client runs.
    fn gen_trace(ops: &[GenOp], repeat: bool) -> (OpTrace, Vec<(u64, SimTime, Vec<u64>)>) {
        let value_of = |i: u64| if repeat { i % 4 } else { i };
        let written: Vec<u64> = (0..ops.len() as u64).map(value_of).collect();
        let mut t = OpTrace::new();
        let mut reads = Vec::new();
        let mut now = 0u64;
        for (i, &(kind, key, step, pick, extra)) in ops.iter().enumerate() {
            now += step;
            let completed = SimTime::from_millis(now);
            let invoked = SimTime::from_millis(now.saturating_sub(extra));
            if kind < 2 {
                t.push(OpRecord {
                    invoked,
                    value_written: Some(value_of(i as u64)),
                    ..write(i as u64, key % 3, now, kind == 0 || extra > 0)
                });
            } else {
                let mut values = Vec::new();
                for v in [pick, pick.wrapping_mul(7) + extra] {
                    if v % 5 != 0 {
                        values.push(written[(v as usize) % written.len()]);
                    } else if v % 2 == 0 {
                        values.push(1_000 + v);
                    }
                }
                values.truncate(1 + (extra as usize % 2));
                reads.push((key, invoked, values.clone()));
                t.push(OpRecord {
                    key,
                    kind: OpKind::Read,
                    value_written: None,
                    value_read: values,
                    invoked,
                    completed,
                    ..rec(1, i as u64, OpKind::Read, kind != 3 || extra > 0)
                });
            }
        }
        (t, reads)
    }

    fn assert_matches_oracle(t: &mut OpTrace, reads: &[(u64, SimTime, Vec<u64>)]) {
        for (key, at, values) in reads {
            for at in [*at, SimTime::from_millis(at.as_micros() / 1_000 + 3)] {
                let want = read_staleness_scan(t, *key, at, values);
                assert_eq!(t.read_staleness(*key, at, values), want, "key {key} at {at:?}");
            }
        }
    }

    proptest! {
        /// The indexed staleness query equals the backward scan: while
        /// the trace grows (index built mid-run, then kept current by
        /// `push`), after `sort_by_completion`, and after a serde round
        /// trip.
        #[test]
        fn read_staleness_matches_backward_scan(
            ops in proptest::collection::vec((0u64..4, 0u64..5, 0u64..3, 0u64..40, 0u64..4), 1..60),
            repeat in any::<bool>(),
        ) {
            let (full, reads) = gen_trace(&ops, repeat);
            let mut live = OpTrace::new();
            for (i, r) in full.records().iter().enumerate() {
                live.push(r.clone());
                if i % 7 == 3 {
                    assert_matches_oracle(&mut live, &reads);
                }
            }
            assert_matches_oracle(&mut live, &reads);

            live.sort_by_completion();
            prop_assert!(live.index.is_none());
            assert_matches_oracle(&mut live, &reads);

            let json = serde_json::to_string(&live).unwrap();
            let mut back: OpTrace = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back.records(), live.records());
            assert_matches_oracle(&mut back, &reads);
        }
    }
}
