//! Delta counter gossip checked against its full-state oracle.
//!
//! Two simulations run side by side from one seed: in one the replicas
//! gossip counter deltas behind [`Watermarks`], in the other they ship
//! full counter state (`EventualReplica::full_state`), as gossip did
//! before watermarks. Every replica sits behind a [`Chaos`] wrapper that
//! drops, duplicates, holds back and reorders replication and gossip
//! messages with its own seeded RNG, and the fault schedule crashes
//! replicas, fail-pause and with amnesia.
//!
//! After every step both runs must hold identical counters at every
//! replica. The one exception is a response asked for before its
//! receiver's store was wiped: its delta leaves out what the receiver
//! held before the wipe, which full state re-ships, so once such a
//! response arrives the runs may part and only convergence is required.
//! Every run must converge once the last fault has healed and the chaos
//! has stopped.

use super::*;
use simnet::{FaultSchedule, LatencyModel, Sim, SimConfig, SimRng};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

type Shared = Rc<RefCell<EventualReplica>>;

const REPLICAS: usize = 3;
const KEYS: u64 = 6;
/// Faults end and the chaos stops here.
const CALM_MS: u64 = 1_000;
/// Late enough for sessions slowed by client timeouts at crashed
/// replicas to finish, and for gossip to settle after them.
const HORIZON_MS: u64 = 4_000;

/// A replica behind a lossy, duplicating, reordering network edge.
struct Chaos {
    replica: Shared,
    rng: SimRng,
    /// Messages held back, delivered behind later traffic (or twice).
    held: Vec<(NodeId, Msg)>,
    /// Set when a gossip response or push arrives that was asked for
    /// before this replica's store was wiped.
    crossed: Rc<Cell<bool>>,
}

impl Chaos {
    fn deliver(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let mut r = self.replica.borrow_mut();
        if let Msg::SyncResp { since, .. } | Msg::SyncPush { since, .. } = &msg {
            if *since > r.seen.get(from) {
                self.crossed.set(true);
            }
        }
        r.on_message(ctx, from, msg);
    }
}

impl Actor<Msg> for Chaos {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.replica.borrow_mut().on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, id: u64, tag: u64) {
        self.replica.borrow_mut().on_timer(ctx, id, tag);
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>, amnesia: bool) {
        self.replica.borrow_mut().on_recover(ctx, amnesia);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let replication = matches!(
            msg,
            Msg::Replicate { .. }
                | Msg::SyncReq { .. }
                | Msg::SyncResp { .. }
                | Msg::SyncPush { .. }
        );
        if ctx.now() >= SimTime::from_millis(CALM_MS) {
            for (f, m) in std::mem::take(&mut self.held) {
                self.deliver(ctx, f, m);
            }
            return self.deliver(ctx, from, msg);
        }
        if !replication {
            return self.deliver(ctx, from, msg);
        }
        match self.rng.below(10) {
            0 => {}
            1 | 2 => self.held.push((from, msg)),
            3 => {
                self.held.push((from, msg.clone()));
                self.deliver(ctx, from, msg);
            }
            _ => self.deliver(ctx, from, msg),
        }
        if !self.held.is_empty() && self.rng.chance(0.3) {
            let i = self.rng.below(self.held.len() as u64) as usize;
            let (f, m) = self.held.swap_remove(i);
            self.deliver(ctx, f, m);
        }
    }
}

/// One to three crashes of random replicas before [`CALM_MS`], each
/// fail-pause or amnesia; some shorter than a round trip, so responses
/// can be in flight across them. Also returns whether any is amnesia.
fn faults(seed: u64) -> (FaultSchedule, bool) {
    let mut rng = SimRng::new(seed ^ 0xfa17);
    let (mut f, mut amnesia) = (FaultSchedule::none(), false);
    for i in 0..1 + rng.below(3) {
        let node = NodeId(rng.below(REPLICAS as u64) as u32);
        let at = SimTime::from_millis(50 + 300 * i + rng.below(100));
        let until = at + Duration::from_millis(2 + rng.below(120));
        if rng.chance(0.6) {
            f = f.crash_amnesia(node, at, until);
            amnesia = true;
        } else {
            f = f.crash(node, at, until);
        }
    }
    (f, amnesia)
}

/// A deployment of `cfg` with chaos edges and incrementing clients;
/// returns the sim, shared handles to its replicas and the crossed flag.
fn deploy(
    cfg: &EventualConfig,
    seed: u64,
    full_state: bool,
) -> (Sim<Msg>, Vec<Shared>, Rc<Cell<bool>>) {
    let mut sim = Sim::new(
        SimConfig::default()
            .seed(seed)
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(15),
            })
            .faults(faults(seed).0),
    );
    let crossed = Rc::new(Cell::new(false));
    let mut replicas = Vec::new();
    for i in 0..REPLICAS {
        let mut r = EventualReplica::new(cfg.clone());
        r.full_state = full_state;
        let r = Rc::new(RefCell::new(r));
        replicas.push(r.clone());
        sim.add_node(Box::new(Chaos {
            replica: r,
            rng: SimRng::new(seed.wrapping_mul(31) + i as u64),
            held: Vec::new(),
            crossed: crossed.clone(),
        }));
    }
    let trace = simnet::optrace::shared_trace();
    let mut rng = SimRng::new(seed ^ 0xc11e);
    for s in 0..REPLICAS as u64 {
        let script = (0..40)
            .map(|_| ScriptOp {
                gap_us: 5_000 + rng.below(20_000),
                kind: if rng.chance(0.8) { OpKind::Write } else { OpKind::Read },
                key: rng.below(KEYS),
            })
            .collect();
        sim.add_node(Box::new(EventualClient::new(
            s + 1,
            script,
            trace.clone(),
            REPLICAS,
            TargetPolicy::Sticky(NodeId(s as u32)),
            Guarantees::none(),
            ConflictMode::Counter,
        )));
    }
    (sim, replicas, crossed)
}

fn same_counters(a: &EventualReplica, b: &EventualReplica) -> bool {
    let (a, b) = (a.store.counters().expect("counter store"), b.store.counters().unwrap());
    a.iter().eq(b.iter())
}

fn converged(replicas: &[Shared]) -> bool {
    let first = replicas[0].borrow();
    !first.store.counters().unwrap().is_empty()
        && replicas[1..].iter().all(|r| same_counters(&first, &r.borrow()))
}

/// Runs `seeds` delta/oracle pairs under `cfg`; returns how many stayed
/// identical to the oracle to the horizon, in all and among the runs
/// with an amnesia crash.
fn check(cfg: &EventualConfig, seeds: std::ops::Range<u64>) -> (u64, u64) {
    let horizon = SimTime::from_millis(HORIZON_MS);
    let (mut exact, mut exact_amnesia) = (0, 0);
    for seed in seeds {
        let (mut delta, d, crossed) = deploy(cfg, seed, false);
        let (mut oracle, o, _) = deploy(cfg, seed, true);
        while delta.now() < horizon {
            assert!(delta.step() && oracle.step());
            assert_eq!(delta.now(), oracle.now(), "seed {seed}: runs parted");
            if crossed.get() {
                break;
            }
            for i in 0..REPLICAS {
                assert!(
                    same_counters(&d[i].borrow(), &o[i].borrow()),
                    "seed {seed}: replica {i} differs from its oracle at {:?}",
                    delta.now()
                );
            }
        }
        if !crossed.get() {
            exact += 1;
            exact_amnesia += u64::from(faults(seed).1);
        }
        delta.run_until(horizon);
        oracle.run_until(horizon);
        assert!(converged(&d), "seed {seed}: delta replicas did not converge");
        assert!(converged(&o), "seed {seed}: oracle replicas did not converge");
    }
    (exact, exact_amnesia)
}

/// Durable counters (the `mm+gossip+crdt` composition): no store is
/// ever wiped, so every run matches its oracle step for step.
#[test]
fn fsynced_delta_gossip_matches_full_state_after_every_step() {
    let cfg = EventualConfig {
        replicas: REPLICAS,
        eager: false,
        gossip: Some(GossipConfig { interval: Duration::from_millis(25), fanout: 2 }),
        mode: ConflictMode::Counter,
        eager_acks: 0,
        durability: DurabilityPolicy::FsyncedState,
    };
    assert_eq!(check(&cfg, 0..30).0, 30);
}

/// Volatile counters (the legacy counter mode, eager broadcast plus
/// gossip): amnesia wipes stores. Runs match their oracle until a
/// response crosses its receiver's wipe. The schedules must produce
/// runs that cross one and runs that stay exact through a wipe.
#[test]
fn volatile_delta_gossip_matches_full_state_until_a_wipe_is_crossed() {
    let cfg = EventualConfig {
        gossip: Some(GossipConfig { interval: Duration::from_millis(10), fanout: 2 }),
        mode: ConflictMode::Counter,
        ..EventualConfig::default_lww(REPLICAS)
    };
    let (exact, exact_amnesia) = check(&cfg, 0..30);
    assert!(exact_amnesia >= 3, "only {exact_amnesia} runs stayed exact through a wipe");
    assert!(exact < 30, "no run crossed a wipe; the schedules miss that case");
}
