//! The resolution layer: how concurrent updates reconcile.
//!
//! A [`ResolvingStore`] is replica-side storage whose merge behaviour is
//! chosen by [`ResolutionPolicy`]: last-writer-wins over an
//! [`kvstore::MvStore`], dotted-version-vector siblings over a
//! [`kvstore::SiblingStore`], or CRDT join over [`crdt::PnCounter`]
//! state in a [`CounterStore`] (wired to `crates/crdt`;
//! `tests/crdt_semilattice.rs` cross-checks the store's merges against
//! direct CRDT merges). The store also knows what a peer lacks for
//! anti-entropy ([`ResolvingStore::digest`] /
//! [`ResolvingStore::missing_at_remote`]) so propagation policies stay
//! resolution-agnostic: LWW and sibling stores compare per-key digests,
//! counter stores ship the counters changed after the peer's watermark
//! into their change sequence ([`CounterStore::changed_since`]).
//!
//! Digest comparison is one ordered pass. Both sides' digests are
//! key-sorted, so [`ResolvingStore::missing_at_remote`] merge-joins the
//! local keys against the remote digest instead of building a map of
//! it. An [`LwwStore`] keeps its digest ready-made: a flat key-sorted
//! list of each key's latest stamp beside the [`kvstore::MvStore`],
//! updated by every adopted version. A digest round still costs
//! O(keys held): a watermark delta like the counters' would ship
//! different items, and every shipped LWW item moves the receiver's
//! Lamport clock.

use clocks::{LamportClock, LamportTimestamp, VersionVector};
use crdt::PnCounter;
use kvstore::siblings::{joint_context, Sibling};
use kvstore::{Key, MvStore, SiblingStore, Value};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A position in a [`CounterStore`]'s change sequence. Every change to
/// a key (a local increment or a merge that inflated it) takes the next
/// number; 0 means "before any change". `u32` keeps the gossip messages
/// that carry watermarks at their size.
pub type ChangeSeq = u32;

/// How conflicts resolve (the resolution axis of a
/// [`super::Composition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionPolicy {
    /// Last-writer-wins on `(Lamport counter, replica)` stamps.
    LwwRegister,
    /// Concurrent writes survive as dotted-version-vector siblings the
    /// client must reconcile (the Dynamo model).
    VersionVectorSiblings,
    /// Values are state-based CRDTs merged by join (PN-counters here);
    /// concurrent updates commute, nothing is lost.
    CrdtMerge,
}

/// Conflict-resolution policy of the eventual protocol — the legacy
/// client-facing name for [`ResolutionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictMode {
    /// Last-writer-wins on `(Lamport counter, replica)` stamps.
    Lww,
    /// Keep concurrent siblings (dotted version vectors).
    Siblings,
    /// Values are PN-counters; a write of `v` means "increment by v".
    Counter,
}

impl ConflictMode {
    /// The kernel resolution policy this mode names.
    pub fn policy(self) -> ResolutionPolicy {
        match self {
            ConflictMode::Lww => ResolutionPolicy::LwwRegister,
            ConflictMode::Siblings => ResolutionPolicy::VersionVectorSiblings,
            ConflictMode::Counter => ResolutionPolicy::CrdtMerge,
        }
    }
}

impl ResolutionPolicy {
    /// The legacy [`ConflictMode`] naming this policy.
    pub fn conflict_mode(self) -> ConflictMode {
        match self {
            ResolutionPolicy::LwwRegister => ConflictMode::Lww,
            ResolutionPolicy::VersionVectorSiblings => ConflictMode::Siblings,
            ResolutionPolicy::CrdtMerge => ConflictMode::Counter,
        }
    }
}

/// One replicated data item in flight.
#[derive(Debug, Clone)]
pub enum Item {
    /// An LWW version.
    Lww {
        /// Key.
        key: Key,
        /// Unique write id.
        value: u64,
        /// LWW stamp.
        ts: LamportTimestamp,
        /// Origin write time (µs).
        written_at: u64,
    },
    /// A DVV sibling.
    Sib {
        /// Key.
        key: Key,
        /// The sibling (value + dotted version vector).
        sibling: Sibling,
    },
    /// Full CRDT counter state for a key.
    Counter {
        /// Key.
        key: Key,
        /// Counter state.
        state: PnCounter,
    },
}

/// LWW and sibling-mode gossip digests, paired.
pub type Digests = (Vec<(Key, LamportTimestamp)>, Vec<(Key, VersionVector)>);

/// What a local read returned, in wire shape.
#[derive(Debug, Clone)]
pub struct ReadView {
    /// Observed values (unique write ids, sibling values, or the counter
    /// sum); empty if the key is absent.
    pub values: Vec<u64>,
    /// Max stamp across returned versions (LWW/sibling policies).
    pub stamp: Option<(u64, u64)>,
    /// Origin write time of the newest returned version (µs).
    pub version_ts: Option<u64>,
    /// Causal context (sibling policy; empty otherwise).
    pub ctx: VersionVector,
}

/// The durable/observable side effect of a local write, for the caller
/// to log and record (the store itself stays event-free so it can be
/// shared across protocols with different durability policies).
#[derive(Debug, Clone)]
pub enum WriteEffect {
    /// An LWW version was adopted: log it to the WAL.
    Adopted {
        /// Key.
        key: Key,
        /// Stored value.
        value: Value,
        /// LWW stamp.
        ts: LamportTimestamp,
        /// Origin write time (µs).
        written_at: u64,
    },
    /// The write landed next to concurrent siblings.
    SiblingConflict {
        /// Key.
        key: Key,
        /// Sibling count after the write.
        siblings: u64,
    },
    /// The client's context covered every sibling: conflict resolved.
    SiblingResolved {
        /// Key.
        key: Key,
    },
    /// Nothing to log or record (counter inflation, superseded LWW).
    None,
}

/// The outcome of a local client write.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// Stamp the replica assigned (what the client's session observes).
    pub stamp: (u64, u64),
    /// Items to propagate to peers.
    pub items: Vec<Item>,
    /// Durable/observable side effect for the caller.
    pub effect: WriteEffect,
}

/// The outcome of applying remote items.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Items that changed local state.
    pub changed: usize,
    /// Keys left with concurrent siblings (detected conflicts), with
    /// the sibling count.
    pub conflicts: Vec<(Key, u64)>,
    /// LWW versions adopted (for the caller's WAL).
    pub adopted: Vec<(Key, Value, LamportTimestamp, u64)>,
}

/// PN-counters per key, each stamped with the [`ChangeSeq`] of its last
/// change, plus the keys in stamp order — so delta anti-entropy can ship
/// exactly the counters changed after a peer's watermark.
#[derive(Debug, Default)]
pub struct CounterStore {
    /// Counter state and last-change stamp per key.
    counters: BTreeMap<Key, (PnCounter, ChangeSeq)>,
    /// Every key under its current stamp: the change order.
    by_seq: BTreeMap<ChangeSeq, Key>,
    /// The last stamp handed out. It survives [`CounterStore::reset`],
    /// so a peer's watermark into this sequence stays a valid lower
    /// bound after an amnesia wipe: everything held afterwards is
    /// stamped above it.
    seq: ChangeSeq,
}

impl CounterStore {
    /// The last stamp handed out (what a peer that has merged
    /// everything this store holds may record as its watermark).
    pub fn seq(&self) -> ChangeSeq {
        self.seq
    }

    /// Whether the store holds no key.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Counter value for `key`.
    pub fn value(&self, key: Key) -> Option<i64> {
        self.counters.get(&key).map(|(c, _)| c.value())
    }

    /// Every counter, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &PnCounter)> + '_ {
        self.counters.iter().map(|(&k, (c, _))| (k, c))
    }

    /// The counters changed after `since`, in change order: the delta a
    /// peer whose watermark is `since` lacks. Costs O(items returned ·
    /// log keys); unchanged keys are never visited.
    pub fn changed_since(&self, since: ChangeSeq) -> Vec<Item> {
        self.by_seq
            .range((Bound::Excluded(since), Bound::Unbounded))
            .map(|(_, &key)| {
                let (state, _) = self.counters.get(&key).expect("every indexed key is stored");
                Item::Counter { key, state: state.clone() }
            })
            .collect()
    }

    /// Every counter, in key order: what full-state gossip shipped (the
    /// oracle delta gossip is checked against).
    #[cfg(test)]
    pub(crate) fn full_state(&self) -> Vec<Item> {
        self.iter().map(|(key, c)| Item::Counter { key, state: c.clone() }).collect()
    }

    /// Add `n` to `actor`'s component of `key`; returns the new state.
    fn increment(&mut self, key: Key, actor: u64, n: u64) -> PnCounter {
        let next = self.next_seq();
        let (c, stamp) = self.counters.entry(key).or_default();
        c.increment(actor, n);
        let state = c.clone();
        let old = std::mem::replace(stamp, next);
        self.restamp(key, old, next);
        state
    }

    /// Join `state` into `key`'s counter; returns whether it changed
    /// (and was stamped).
    fn merge(&mut self, key: Key, state: PnCounter) -> bool {
        use std::collections::btree_map::Entry;
        let next = self.next_seq();
        let old = match self.counters.entry(key) {
            Entry::Vacant(e) => {
                e.insert((state, next));
                0
            }
            Entry::Occupied(mut e) => {
                let (c, stamp) = e.get_mut();
                if !c.merge_changed(&state) {
                    return false;
                }
                std::mem::replace(stamp, next)
            }
        };
        self.restamp(key, old, next);
        true
    }

    fn next_seq(&self) -> ChangeSeq {
        self.seq.checked_add(1).expect("counter change sequence exhausted")
    }

    /// Move `key` from stamp `old` (0: unstamped) to `new` in the index.
    fn restamp(&mut self, key: Key, old: ChangeSeq, new: ChangeSeq) {
        self.seq = new;
        self.by_seq.remove(&old);
        self.by_seq.insert(new, key);
    }

    /// Drop every counter (volatile-state amnesia), keeping the sequence.
    fn reset(&mut self) {
        self.counters.clear();
        self.by_seq.clear();
    }
}

/// An [`MvStore`] plus its anti-entropy digest: each key's latest stamp,
/// in key order. The digest is exactly `scan(..)`'s stamps, kept up to
/// date by [`LwwStore::put`], so a gossip round reads it instead of
/// walking every version chain.
#[derive(Debug, Default)]
pub struct LwwStore {
    store: MvStore,
    /// `(key, latest stamp)` for every key, ascending by key.
    latest: Vec<(Key, LamportTimestamp)>,
}

impl LwwStore {
    /// The version store.
    pub fn store(&self) -> &MvStore {
        &self.store
    }

    /// Each key's latest stamp, ascending by key.
    pub fn digest(&self) -> &[(Key, LamportTimestamp)] {
        &self.latest
    }

    /// Insert a version (see [`MvStore::put`]); returns whether it was
    /// new. A new version older than the key's latest leaves the digest
    /// as it was.
    pub fn put(&mut self, key: Key, value: Value, ts: LamportTimestamp, written_at: u64) -> bool {
        if !self.store.put(key, value, ts, written_at) {
            return false;
        }
        match self.latest.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.latest[i].1 = self.latest[i].1.max(ts),
            Err(i) => self.latest.insert(i, (key, ts)),
        }
        true
    }

    /// Items for every key whose latest version is newer here than in
    /// `remote` (a key-sorted digest), or absent there, in key order.
    fn newer_than(&self, remote: &[(Key, LamportTimestamp)]) -> Vec<Item> {
        let mut remote = DigestCursor::new(remote);
        let mut items = Vec::new();
        for &(key, ts) in &self.latest {
            if remote.seek(key).is_none_or(|&theirs| ts > theirs) {
                let v = self.store.get(key).expect("every digest key is stored");
                items.push(Item::Lww {
                    key,
                    value: v.value.as_u64().unwrap_or(0),
                    ts: v.ts,
                    written_at: v.written_at,
                });
            }
        }
        items
    }
}

/// A remote digest walked alongside local keys visited in ascending
/// order: the merge join that compares two key-sorted digests in one
/// pass.
struct DigestCursor<'a, V> {
    rest: &'a [(Key, V)],
}

impl<'a, V> DigestCursor<'a, V> {
    fn new(digest: &'a [(Key, V)]) -> Self {
        debug_assert!(digest.windows(2).all(|w| w[0].0 < w[1].0), "digest not key-sorted");
        DigestCursor { rest: digest }
    }

    /// The remote entry for `key`, skipping the smaller keys before it.
    /// Keys must be asked for in ascending order.
    fn seek(&mut self, key: Key) -> Option<&'a V> {
        while let [(k, _), tail @ ..] = self.rest {
            if *k >= key {
                break;
            }
            self.rest = tail;
        }
        match self.rest {
            [(k, v), ..] if *k == key => Some(v),
            _ => None,
        }
    }
}

impl From<MvStore> for LwwStore {
    /// Wrap a store rebuilt elsewhere (WAL replay), deriving its digest.
    fn from(store: MvStore) -> Self {
        let latest = store.scan(..).map(|(k, v)| (k, v.ts)).collect();
        LwwStore { store, latest }
    }
}

/// Replica-side storage with pluggable conflict resolution.
#[derive(Debug)]
pub enum ResolvingStore {
    /// Last-writer-wins register per key.
    Lww(LwwStore),
    /// Dotted-version-vector sibling sets.
    Sib(SiblingStore),
    /// PN-counter per key, merged as a CRDT.
    Crdt(CounterStore),
}

impl ResolvingStore {
    /// An empty store under `policy`. For siblings, the dot-minting
    /// actor id is patched on first use ([`ResolvingStore::ensure_actor`]);
    /// the `u64::MAX` placeholder is safe because `SiblingStore::new`
    /// only fixes that id.
    pub fn new(policy: ResolutionPolicy) -> Self {
        match policy {
            ResolutionPolicy::LwwRegister => ResolvingStore::Lww(LwwStore::default()),
            ResolutionPolicy::VersionVectorSiblings => {
                ResolvingStore::Sib(SiblingStore::new(u64::MAX))
            }
            ResolutionPolicy::CrdtMerge => ResolvingStore::Crdt(CounterStore::default()),
        }
    }

    /// The policy this store resolves under.
    pub fn policy(&self) -> ResolutionPolicy {
        match self {
            ResolvingStore::Lww(_) => ResolutionPolicy::LwwRegister,
            ResolvingStore::Sib(_) => ResolutionPolicy::VersionVectorSiblings,
            ResolvingStore::Crdt(_) => ResolutionPolicy::CrdtMerge,
        }
    }

    /// Reset to empty (volatile-state amnesia). A counter store keeps
    /// its change sequence (see [`CounterStore::seq`]).
    pub fn reset(&mut self) {
        match self {
            ResolvingStore::Crdt(c) => c.reset(),
            _ => *self = ResolvingStore::new(self.policy()),
        }
    }

    /// Fix the sibling store's dot-minting id to this node before its
    /// first write (no-op for other policies or once keys exist).
    pub fn ensure_actor(&mut self, me: NodeId) {
        if let ResolvingStore::Sib(s) = self {
            if s.key_count() == 0 {
                *s = SiblingStore::new(me.0 as u64);
            }
        }
    }

    /// Read access to the LWW store (experiments check convergence).
    pub fn lww(&self) -> Option<&MvStore> {
        match self {
            ResolvingStore::Lww(s) => Some(s.store()),
            _ => None,
        }
    }

    /// Read access to the sibling store.
    pub fn siblings(&self) -> Option<&SiblingStore> {
        match self {
            ResolvingStore::Sib(s) => Some(s),
            _ => None,
        }
    }

    /// Read access to the counter store (CRDT policy).
    pub fn counters(&self) -> Option<&CounterStore> {
        match self {
            ResolvingStore::Crdt(c) => Some(c),
            _ => None,
        }
    }

    /// Counter value for `key` (CRDT policy).
    pub fn counter_value(&self, key: Key) -> Option<i64> {
        self.counters().and_then(|c| c.value(key))
    }

    /// The counter store's change sequence position; 0 under the other
    /// policies, which gossip by digest instead.
    pub fn change_seq(&self) -> ChangeSeq {
        self.counters().map_or(0, CounterStore::seq)
    }

    /// Serve a local read.
    pub fn read(&self, key: Key) -> ReadView {
        match self {
            ResolvingStore::Lww(s) => match s.store().get(key) {
                Some(v) => ReadView {
                    values: v.value.as_u64().into_iter().collect(),
                    stamp: Some((v.ts.counter, v.ts.actor)),
                    version_ts: Some(v.written_at),
                    ctx: VersionVector::new(),
                },
                None => ReadView {
                    values: vec![],
                    stamp: None,
                    version_ts: None,
                    ctx: VersionVector::new(),
                },
            },
            ResolvingStore::Sib(s) => {
                let r = s.read(key);
                let newest = s.siblings(key).iter().map(|x| x.written_at).max();
                ReadView {
                    values: r.values.iter().filter_map(|v| v.as_u64()).collect(),
                    stamp: Some((r.context.total(), 0)),
                    version_ts: newest,
                    ctx: r.context,
                }
            }
            ResolvingStore::Crdt(c) => {
                let v = c.value(key).unwrap_or(0);
                ReadView {
                    values: vec![v as u64],
                    stamp: None,
                    version_ts: None,
                    ctx: VersionVector::new(),
                }
            }
        }
    }

    /// Apply a local client write at `me`, stamping with `clock`.
    ///
    /// `observed` is the session's piggybacked stamp floor (MW/WFR
    /// ordering under LWW), `client_ctx` its causal context (siblings).
    #[allow(clippy::too_many_arguments)]
    pub fn write_local(
        &mut self,
        me: NodeId,
        key: Key,
        value: u64,
        observed: (u64, u64),
        client_ctx: &VersionVector,
        now_us: u64,
        clock: &mut LamportClock,
    ) -> WriteOutcome {
        self.ensure_actor(me);
        match self {
            ResolvingStore::Lww(s) => {
                // Piggybacked session stamp keeps MW/WFR ordering: tick
                // past everything the session has observed.
                clock.observe(LamportTimestamp::new(observed.0, observed.1), me.0 as u64);
                let ts = clock.tick(me.0 as u64);
                let v = Value::from_u64(value);
                let effect = if s.put(key, v.clone(), ts, now_us) {
                    WriteEffect::Adopted { key, value: v, ts, written_at: now_us }
                } else {
                    WriteEffect::None
                };
                WriteOutcome {
                    stamp: (ts.counter, ts.actor),
                    items: vec![Item::Lww { key, value, ts, written_at: now_us }],
                    effect,
                }
            }
            ResolvingStore::Sib(s) => {
                let before = s.siblings(key).len();
                s.write(key, Value::from_u64(value), client_ctx, now_us);
                let after = s.siblings(key).len();
                let effect = if after > 1 {
                    WriteEffect::SiblingConflict { key, siblings: after as u64 }
                } else if before > 1 {
                    WriteEffect::SiblingResolved { key }
                } else {
                    WriteEffect::None
                };
                let sib = s.siblings(key).last().expect("just wrote").clone();
                WriteOutcome {
                    stamp: (s.read(key).context.total(), 0),
                    items: vec![Item::Sib { key, sibling: sib }],
                    effect,
                }
            }
            ResolvingStore::Crdt(c) => WriteOutcome {
                stamp: (0, 0),
                items: vec![Item::Counter { key, state: c.increment(key, me.0 as u64, value) }],
                effect: WriteEffect::None,
            },
        }
    }

    /// Apply replicated items, resolving by policy. LWW adoptions are
    /// returned for the caller's WAL; conflict keys for its events.
    // A guard with a side effect (clippy's collapse suggestion) would be
    // worse than the nested `if`.
    #[allow(clippy::collapsible_match)]
    pub fn apply(&mut self, items: Vec<Item>, clock: &mut LamportClock) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        for item in items {
            match (&mut *self, item) {
                (ResolvingStore::Lww(s), Item::Lww { key, value, ts, written_at }) => {
                    // Keep the Lamport clock ahead of everything stored.
                    clock.observe(ts, 0);
                    let v = Value::from_u64(value);
                    if s.put(key, v.clone(), ts, written_at) {
                        out.adopted.push((key, v, ts, written_at));
                        out.changed += 1;
                    }
                }
                (ResolvingStore::Sib(s), Item::Sib { key, sibling }) => {
                    if s.apply_remote(key, sibling) {
                        out.changed += 1;
                        let n = s.siblings(key).len();
                        if n > 1 {
                            out.conflicts.push((key, n as u64));
                        }
                    }
                }
                (ResolvingStore::Crdt(c), Item::Counter { key, state }) => {
                    if c.merge(key, state) {
                        out.changed += 1;
                    }
                }
                // Policy mismatch: a deployment bug; drop the item.
                _ => {}
            }
        }
        out
    }

    /// This store's anti-entropy digest, ascending by key.
    pub fn digest(&self) -> Digests {
        match self {
            ResolvingStore::Lww(s) => (s.digest().to_vec(), Vec::new()),
            ResolvingStore::Sib(s) => {
                (Vec::new(), s.iter().map(|(k, sibs)| (k, joint_context(sibs))).collect())
            }
            // Counters need no digest: the peer sends its watermark into
            // this store's change sequence instead.
            ResolvingStore::Crdt(_) => (Vec::new(), Vec::new()),
        }
    }

    /// Items this store has that the remote lacks, in key order: judged
    /// by the remote digests (key-sorted, as [`ResolvingStore::digest`]
    /// builds them) under LWW and siblings, and under CRDT merge by
    /// `since`, the remote's watermark into this store's change sequence
    /// (the other policies ignore it). Digests are merge-joined against
    /// the local keys in one ordered pass.
    pub fn missing_at_remote(
        &self,
        digest: &[(Key, LamportTimestamp)],
        vv_digest: &[(Key, VersionVector)],
        since: ChangeSeq,
    ) -> Vec<Item> {
        match self {
            ResolvingStore::Lww(s) => s.newer_than(digest),
            ResolvingStore::Sib(s) => {
                let mut remote = DigestCursor::new(vv_digest);
                let mut items = Vec::new();
                for (key, sibs) in s.iter() {
                    let seen = remote.seek(key);
                    for sib in sibs {
                        if !seen.is_some_and(|vv| sib.dvv.covered_by(vv)) {
                            items.push(Item::Sib { key, sibling: sib.clone() });
                        }
                    }
                }
                items
            }
            ResolvingStore::Crdt(c) => c.changed_since(since),
        }
    }

    /// The map-based comparison [`ResolvingStore::missing_at_remote`]
    /// replaced: the oracle its merge-join is tested against.
    #[cfg(test)]
    fn missing_at_remote_oracle(
        &self,
        digest: &[(Key, LamportTimestamp)],
        vv_digest: &[(Key, VersionVector)],
    ) -> Vec<Item> {
        match self {
            ResolvingStore::Lww(s) => {
                let remote: BTreeMap<Key, LamportTimestamp> = digest.iter().copied().collect();
                s.store()
                    .scan(..)
                    .filter(|(k, v)| remote.get(k).map(|&ts| v.ts > ts).unwrap_or(true))
                    .map(|(k, v)| Item::Lww {
                        key: k,
                        value: v.value.as_u64().unwrap_or(0),
                        ts: v.ts,
                        written_at: v.written_at,
                    })
                    .collect()
            }
            ResolvingStore::Sib(s) => {
                let remote: BTreeMap<Key, &VersionVector> =
                    vv_digest.iter().map(|(k, vv)| (*k, vv)).collect();
                let mut items = Vec::new();
                for k in s.keys().collect::<Vec<_>>() {
                    for sib in s.siblings(k) {
                        let unseen =
                            remote.get(&k).map(|vv| !sib.dvv.covered_by(vv)).unwrap_or(true);
                        if unseen {
                            items.push(Item::Sib { key: k, sibling: sib.clone() });
                        }
                    }
                }
                items
            }
            ResolvingStore::Crdt(_) => unreachable!("counters gossip by watermark"),
        }
    }

    /// Per-key version fingerprints for divergence probing
    /// ([`simnet::Actor::key_versions`]).
    pub fn key_versions(&self) -> Vec<(u64, u64)> {
        match self {
            // Unique write ids identify LWW versions directly.
            ResolvingStore::Lww(s) => {
                s.store().scan(..).map(|(k, v)| (k, v.value.as_u64().unwrap_or(0))).collect()
            }
            // Sibling sets are fingerprinted order-independently (XOR of
            // values + count): replicas holding different sets diverge.
            ResolvingStore::Sib(s) => s
                .keys()
                .map(|k| {
                    let sibs = s.siblings(k);
                    let fp = sibs
                        .iter()
                        .filter_map(|x| x.value.as_u64())
                        .fold(sibs.len() as u64, |acc, v| acc ^ v);
                    (k, fp)
                })
                .collect(),
            // A counter's "version" is its current value.
            ResolvingStore::Crdt(c) => c.iter().map(|(k, c)| (k, c.value() as u64)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::CvRdt;

    #[test]
    fn policy_roundtrips_through_conflict_mode() {
        for p in [
            ResolutionPolicy::LwwRegister,
            ResolutionPolicy::VersionVectorSiblings,
            ResolutionPolicy::CrdtMerge,
        ] {
            assert_eq!(p.conflict_mode().policy(), p);
        }
    }

    #[test]
    fn crdt_apply_merges_like_the_crdt_crate() {
        // The store's counter merge must agree with a direct
        // `crdt::PnCounter` merge of the same states.
        let mut a = PnCounter::default();
        a.increment(1, 5);
        let mut b = PnCounter::default();
        b.increment(2, 7);
        let mut store = ResolvingStore::new(ResolutionPolicy::CrdtMerge);
        let mut clock = LamportClock::new();
        store.apply(vec![Item::Counter { key: 9, state: a.clone() }], &mut clock);
        store.apply(vec![Item::Counter { key: 9, state: b.clone() }], &mut clock);
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(store.counter_value(9), Some(direct.value()));
    }

    fn keys(items: &[Item]) -> Vec<Key> {
        items
            .iter()
            .map(|i| match i {
                Item::Counter { key, .. } => *key,
                other => panic!("not a counter item: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn counter_store_ships_changes_after_a_watermark_in_change_order() {
        let mut c = CounterStore::default();
        c.increment(1, 0, 5);
        c.increment(2, 0, 1);
        c.increment(3, 0, 1);
        assert_eq!(c.seq(), 3);
        let mark = c.seq();
        c.increment(1, 0, 2);
        assert_eq!(keys(&c.changed_since(mark)), vec![1], "only the re-changed key");
        assert_eq!(keys(&c.changed_since(0)), vec![2, 3, 1], "a key moves to its latest stamp");

        // A merge that inflates stamps the key; one that does not, does not.
        let mut remote = PnCounter::default();
        remote.increment(9, 4);
        assert!(c.merge(2, remote.clone()));
        assert!(!c.merge(2, remote));
        assert!(!c.merge(3, PnCounter::default()));
        assert_eq!(keys(&c.changed_since(mark)), vec![1, 2]);
        assert_eq!(c.seq(), 5);
    }

    #[test]
    fn counter_store_reset_keeps_its_change_sequence() {
        let mut store = ResolvingStore::new(ResolutionPolicy::CrdtMerge);
        let mut clock = LamportClock::new();
        let vv = VersionVector::new();
        for key in 0..4 {
            store.write_local(NodeId(1), key, 1, (0, 0), &vv, 0, &mut clock);
        }
        let mark = store.change_seq();
        store.reset();
        assert!(store.counters().unwrap().is_empty());
        assert_eq!(store.change_seq(), mark, "a peer's watermark stays a lower bound");
        store.write_local(NodeId(1), 7, 1, (0, 0), &vv, 0, &mut clock);
        assert_eq!(keys(&store.missing_at_remote(&[], &[], mark)), vec![7]);
    }

    fn ts(counter: u64, actor: u64) -> LamportTimestamp {
        LamportTimestamp::new(counter, actor)
    }

    /// The flat digest must be exactly the store's latest stamps.
    fn assert_digest_matches_scan(s: &LwwStore) {
        let scanned: Vec<_> = s.store().scan(..).map(|(k, v)| (k, v.ts)).collect();
        assert_eq!(s.digest(), scanned.as_slice());
    }

    #[test]
    fn lww_digest_tracks_every_put_and_a_wal_replay() {
        let mut s = LwwStore::default();
        let mut wal = kvstore::Wal::new();
        // New keys out of order, a newer version, an older-than-latest
        // version, and a duplicate stamp.
        for (key, stamp) in [(5, ts(2, 0)), (1, ts(1, 1)), (9, ts(4, 2)), (5, ts(6, 1))]
            .into_iter()
            .chain([(5, ts(3, 2)), (1, ts(1, 1)), (9, ts(4, 1))])
        {
            let v = Value::from_u64(stamp.counter * 10 + stamp.actor);
            if s.put(key, v.clone(), stamp, 0) {
                wal.append(key, v, stamp, 0);
            }
            assert_digest_matches_scan(&s);
        }
        assert_eq!(s.digest(), &[(1, ts(1, 1)), (5, ts(6, 1)), (9, ts(4, 2))]);
        assert_eq!(s.store().versions(5).len(), 3, "the older version is kept in the chain");

        // Amnesia: the store is rebuilt from the WAL and wrapped again,
        // then keeps taking writes.
        let mut replayed = LwwStore::from(wal.recover(None));
        assert_digest_matches_scan(&replayed);
        assert_eq!(replayed.digest(), s.digest());
        assert!(replayed.put(3, Value::from_u64(1), ts(7, 0), 0));
        assert!(replayed.put(9, Value::from_u64(2), ts(1, 0), 0));
        assert_digest_matches_scan(&replayed);
    }

    #[test]
    fn lww_write_then_read() {
        let mut store = ResolvingStore::new(ResolutionPolicy::LwwRegister);
        let mut clock = LamportClock::new();
        let out =
            store.write_local(NodeId(0), 3, 42, (0, 0), &VersionVector::new(), 10, &mut clock);
        assert!(matches!(out.effect, WriteEffect::Adopted { key: 3, .. }));
        let view = store.read(3);
        assert_eq!(view.values, vec![42]);
        assert_eq!(view.stamp, Some(out.stamp));
    }
}

/// The merge-join digest comparisons against the map-based oracle they
/// replaced: same items, same order, on random stores and digests.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::collection::{btree_map, vec};
    use proptest::prelude::*;

    /// Items compared by their debug form: every field, in order.
    fn show(items: &[Item]) -> Vec<String> {
        items.iter().map(|i| format!("{i:?}")).collect()
    }

    fn stamp() -> impl Strategy<Value = LamportTimestamp> {
        (1u64..6, 0u64..3).prop_map(|(c, a)| LamportTimestamp::new(c, a))
    }

    /// A sibling-mode context over a few actors.
    fn context() -> impl Strategy<Value = VersionVector> {
        vec((0u64..3, 0u64..5), 0..3).prop_map(VersionVector::from_pairs)
    }

    proptest! {
        /// Small key and stamp ranges give absent keys, equal stamps,
        /// older-than-latest puts and remote-only keys; empty stores and
        /// digests come up too. `copy` seeds the remote with some of the
        /// local digest, so equal latest stamps are common.
        #[test]
        fn lww_merge_join_matches_the_map_oracle(
            puts in vec((0u64..12, stamp(), 0u64..100), 0..40),
            remote in btree_map(0u64..16, stamp(), 0..12),
            copy in vec(any::<bool>(), 12),
        ) {
            let mut store = ResolvingStore::new(ResolutionPolicy::LwwRegister);
            let mut clock = LamportClock::new();
            let items = puts
                .iter()
                .map(|&(key, ts, value)| Item::Lww { key, value, ts, written_at: value })
                .collect();
            store.apply(items, &mut clock);
            let mut remote = remote;
            let (local, _) = store.digest();
            for (&(key, ts), _) in local.iter().zip(&copy).filter(|(_, &c)| c) {
                remote.insert(key, ts);
            }
            let remote: Vec<_> = remote.into_iter().collect();
            prop_assert_eq!(
                show(&store.missing_at_remote(&remote, &[], 0)),
                show(&store.missing_at_remote_oracle(&remote, &[]))
            );
        }

        /// Three replicas write (blind or with their read context) and
        /// exchange siblings; replica 0's missing items are compared
        /// against replica 1's real digest and against a random one.
        #[test]
        fn sibling_merge_join_matches_the_map_oracle(
            ops in vec((0usize..3, 0u64..6, any::<bool>(), 0usize..3), 0..30),
            random in btree_map(0u64..8, context(), 0..6),
        ) {
            let mut stores: Vec<SiblingStore> = (0..3).map(SiblingStore::new).collect();
            for (i, &(at, key, read_first, copy_to)) in ops.iter().enumerate() {
                let ctx = if read_first {
                    stores[at].read(key).context
                } else {
                    VersionVector::new()
                };
                stores[at].write(key, Value::from_u64(i as u64), &ctx, 0);
                if copy_to != at {
                    let sib = stores[at].siblings(key).last().expect("just wrote").clone();
                    stores[copy_to].apply_remote(key, sib);
                }
            }
            let mut stores = stores.into_iter().map(ResolvingStore::Sib);
            let (local, peer) = (stores.next().unwrap(), stores.next().unwrap());
            let (_, peer_digest) = peer.digest();
            let random: Vec<_> = random.into_iter().collect();
            for remote in [peer_digest, random, Vec::new()] {
                prop_assert_eq!(
                    show(&local.missing_at_remote(&[], &remote, 0)),
                    show(&local.missing_at_remote_oracle(&[], &remote))
                );
            }
        }
    }

    #[test]
    fn sibling_digest_is_the_read_context() {
        let mut s = SiblingStore::new(1);
        s.write(4, Value::from_u64(1), &VersionVector::new(), 0);
        s.write(4, Value::from_u64(2), &VersionVector::new(), 0);
        let ctx = s.read(4).context;
        s.write(2, Value::from_u64(3), &ctx, 0);
        let expected: Vec<_> = s.keys().map(|k| (k, s.read(k).context)).collect();
        let (_, digest) = ResolvingStore::Sib(s).digest();
        assert_eq!(digest, expected);
    }
}
