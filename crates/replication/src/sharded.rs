//! Ring-sharded quorum deployments.
//!
//! The classic [`crate::quorum`] layer places every key on the *same* N
//! home replicas (nodes `0..n`), which is faithful to the tutorial's
//! single-shard analysis but cannot say anything about cluster-scale
//! effects: membership churn, rebalancing cost, or how sloppy-quorum
//! availability behaves when spares are *other data-carrying nodes*
//! rather than dedicated hint parks. This module composes the [`Ring`]
//! consistent-hashing layer with [`QuorumNode`] to model a Dynamo-style
//! cluster:
//!
//! - every physical node owns the keys whose hash walk reaches it first,
//! - each key's preference list is its first `n` distinct owners,
//! - sloppy quorums fall through to the *next* distinct nodes on the
//!   walk (per-key spares) instead of a fixed spare pool, and
//! - membership changes rebalance only the keys whose preference list
//!   actually changed (the consistent-hashing guarantee).
//!
//! See `docs/RING.md` for the layout, hint lifecycle, and churn model.

use crate::quorum::{QuorumConfig, QuorumNode};
use simnet::NodeId;

pub use crate::kernel::ring::Ring;

/// Configuration for a ring-sharded quorum cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Per-key quorum parameters. `quorum.n` is the preference-list
    /// size; `quorum.spares` is how many ring successors past the
    /// preference list a sloppy write may fall through to.
    pub quorum: QuorumConfig,
    /// Number of physical nodes in the cluster.
    pub nodes: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
}

impl ShardedConfig {
    /// A sharded cluster with the given quorum parameters.
    ///
    /// Panics if the cluster is smaller than the preference list or if
    /// `vnodes` is zero.
    pub fn new(quorum: QuorumConfig, nodes: usize, vnodes: usize) -> Self {
        let cfg = ShardedConfig { quorum, nodes, vnodes };
        cfg.validate();
        cfg
    }

    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert!(
            self.nodes >= self.quorum.n,
            "ring cluster must have at least as many nodes ({}) as the preference list ({})",
            self.nodes,
            self.quorum.n
        );
        assert!(
            self.nodes <= u32::MAX as usize,
            "ring cluster of {} nodes exceeds compact u32 NodeId addressing (max {})",
            self.nodes,
            u32::MAX
        );
        assert!(self.vnodes >= 1, "ring needs at least one virtual node per physical node");
    }

    /// The initial ring over nodes `0..nodes`.
    pub fn ring(&self) -> Ring {
        Ring::new(self.quorum.n, self.vnodes, (0..self.nodes as u32).map(NodeId))
    }

    /// Build one [`QuorumNode`] per physical node, all sharing the
    /// initial ring view.
    pub fn build_nodes(&self) -> Vec<QuorumNode> {
        let ring = self.ring();
        (0..self.nodes).map(|_| QuorumNode::with_ring(self.quorum, ring.clone())).collect()
    }

    /// Human-readable label, e.g. `ring(20x16,R2W2+2)`.
    pub fn label(&self) -> String {
        let q = &self.quorum;
        let sloppy = if q.sloppy { format!("+{}", q.spares) } else { String::new() };
        format!("ring({}x{},R{}W{}{})", self.nodes, self.vnodes, q.r, q.w, sloppy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{ClientCore, ScriptOp};

    #[test]
    fn config_accepts_node_count_at_u32_boundary() {
        // Construction must not panic: u32::MAX nodes are addressable
        // with compact ids. (Only validates the config; no cluster of
        // this size is built.)
        let cfg = ShardedConfig {
            quorum: QuorumConfig::majority(3),
            nodes: u32::MAX as usize,
            vnodes: 8,
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds compact u32 NodeId addressing")]
    fn config_rejects_node_count_above_u32() {
        let cfg = ShardedConfig {
            quorum: QuorumConfig::majority(3),
            nodes: u32::MAX as usize + 1,
            vnodes: 8,
        };
        cfg.validate();
    }
    use crate::quorum::{Msg, QuorumClient};
    use kvstore::Key;
    use obs::Counter;
    use simnet::{optrace, Duration, FaultSchedule, LatencyModel, OpKind, Sim, SimConfig, SimTime};

    fn build(
        cfg: ShardedConfig,
        clients: Vec<QuorumClient>,
        seed: u64,
        faults: FaultSchedule,
        recorder: obs::Recorder,
    ) -> Sim<Msg> {
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Constant(Duration::from_millis(5)))
                .faults(faults)
                .recorder(recorder),
        );
        for node in cfg.build_nodes() {
            sim.add_node(Box::new(node));
        }
        for c in clients {
            sim.add_node(Box::new(c));
        }
        sim
    }

    fn script(ops: &[(OpKind, Key)]) -> Vec<ScriptOp> {
        ops.iter().map(|&(kind, key)| ScriptOp { gap_us: 2_000, kind, key }).collect()
    }

    #[test]
    fn ring_write_lands_on_owners_and_read_finds_it() {
        let cfg = ShardedConfig::new(QuorumConfig::majority(3), 8, 16);
        let trace = optrace::shared_trace();
        let keys: Vec<Key> = (0..10).collect();
        let writer = QuorumClient::new(
            1,
            script(&keys.iter().map(|&k| (OpKind::Write, k)).collect::<Vec<_>>()),
            trace.clone(),
            cfg.nodes,
            None,
        );
        let reader = QuorumClient::new(
            2,
            keys.iter()
                .map(|&k| ScriptOp { gap_us: 2_000, kind: OpKind::Read, key: k })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|mut op| {
                    op.gap_us = 30_000;
                    op
                })
                .collect(),
            trace.clone(),
            cfg.nodes,
            None,
        );
        let mut sim =
            build(cfg, vec![writer, reader], 7, FaultSchedule::none(), obs::Recorder::disabled());
        sim.run_until(SimTime::from_secs(2));

        // Every read observes the prior write for its key.
        let t = trace.borrow();
        for (i, _) in keys.iter().enumerate() {
            let read = t.records().iter().filter(|r| r.kind == OpKind::Read).nth(i).unwrap();
            assert!(read.ok, "ring read {i} failed");
            assert_eq!(read.value_read, vec![ClientCore::unique_value(1, i as u64 + 1)]);
        }

        // And the stored versions live exactly on the ring owners.
        let ring = cfg.ring();
        for (node, key, _) in sim.key_versions() {
            if node.index() < cfg.nodes {
                assert!(
                    ring.is_owner(key, node),
                    "node {} stores key {key} it does not own",
                    node.0
                );
            }
        }
    }

    #[test]
    fn ring_sloppy_quorum_hints_under_partition_and_drains_on_heal() {
        // Partition two of the key's three owners away so the write
        // quorum (W=2) cannot be met from homes alone; the sloppy write
        // must park hints on ring spares, then drain them after the heal.
        let cfg = ShardedConfig::new(QuorumConfig::sloppy_majority(3, 2), 6, 8);
        let key: Key = 3;
        let owners = cfg.ring().owners(key);
        let cut = owners[0];
        let faults = FaultSchedule::none().partition(
            vec![cut, owners[2]],
            SimTime::from_millis(5),
            SimTime::from_secs(4),
        );
        let trace = optrace::shared_trace();
        let coordinator = owners[1];
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, key)]),
            trace.clone(),
            cfg.nodes,
            Some(coordinator),
        );
        let recorder = obs::Recorder::enabled();
        let mut sim = build(cfg, vec![writer], 5, faults, recorder.clone());
        sim.run_until(SimTime::from_secs(8));

        let t = trace.borrow();
        let write = t.records().iter().find(|r| r.kind == OpKind::Write).unwrap();
        assert!(write.ok, "sloppy write should succeed despite a partitioned owner");

        drop(sim);
        let metrics = recorder.report();
        assert!(metrics.counter(Counter::HintsStored) >= 1, "no hint was parked on a spare");
        assert_eq!(
            metrics.counter(Counter::HintsStored),
            metrics.counter(Counter::HintsDrained),
            "every hint should drain home after the heal"
        );

        // The partitioned owner ends up holding the value.
        // (key_versions was consumed by drop; re-run to inspect.)
        let mut sim2 = build(
            cfg,
            vec![QuorumClient::new(
                1,
                script(&[(OpKind::Write, key)]),
                optrace::shared_trace(),
                cfg.nodes,
                Some(coordinator),
            )],
            5,
            FaultSchedule::none().partition(
                vec![cut, owners[2]],
                SimTime::from_millis(5),
                SimTime::from_secs(4),
            ),
            obs::Recorder::disabled(),
        );
        sim2.run_until(SimTime::from_secs(8));
        assert!(
            sim2.key_versions().iter().any(|&(n, k, _)| n == cut && k == key),
            "hinted write never reached its home replica"
        );
    }

    #[test]
    fn membership_leave_rebalances_keys_to_new_owners() {
        let cfg = ShardedConfig::new(QuorumConfig::majority(3), 6, 8);
        let key: Key = 11;
        let old_ring = cfg.ring();
        let owners = old_ring.owners(key);
        let leaver = owners[0];
        let mut new_ring = old_ring.clone();
        new_ring.leave(leaver);
        let gained: Vec<_> =
            new_ring.owners(key).into_iter().filter(|n| !owners.contains(n)).collect();
        assert!(!gained.is_empty(), "pick a key whose ownership actually moves");

        let trace = optrace::shared_trace();
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, key)]),
            trace.clone(),
            cfg.nodes,
            Some(owners[1]),
        );
        let faults = FaultSchedule::none().membership(SimTime::from_millis(500), leaver, false);
        let recorder = obs::Recorder::enabled();
        let mut sim = build(cfg, vec![writer], 9, faults, recorder.clone());
        sim.run_until(SimTime::from_secs(3));

        // The new owner received the key via a rebalance push.
        for target in &gained {
            assert!(
                sim.key_versions().iter().any(|&(n, k, _)| n == *target && k == key),
                "new owner {} never received rebalanced key {key}",
                target.0
            );
        }
        drop(sim);
        assert!(
            recorder.report().counter(Counter::RebalancedKeys) >= 1,
            "rebalanced_keys counter should record the push"
        );
    }
}
