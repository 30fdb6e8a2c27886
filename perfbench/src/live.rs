//! The `live_cluster` workload: `NodeHost<DupScheme>`s on deterministic
//! virtual time, with every frame round-tripped through the TCP codec.
//!
//! The cluster driver mirrors `dup_live::LoopbackCluster` (1 ms transit,
//! 5 ms ticks, every live host advanced on every tick), but its net is the
//! benchmark's own [`CodecNet`]: a frame is encoded with `write_frame` when
//! sent and decoded with `read_frame` when delivered, so the JSON codec
//! TCP uses is on the measured path without sockets.
//!
//! One rep is [`PASSES`] passes, each over every non-root node in its own
//! seed-shuffled order.
//! For each victim: wait until it has been up at least [`MIN_UPTIME`]
//! plus a seed-chosen gap, kill it, keep it down for a seed-chosen time
//! past the failure detector's `dead_after`, restart it with a bumped
//! incarnation, and poll `oracle_check` every [`POLL`] until the
//! convergence bound. The restart is an operation: it fails when the
//! cluster is not oracle-clean at the bound. Its rejoin time is the first
//! poll that finds the victim subscribed again and the cluster clean. A failed restart leaves the
//! cluster broken, so the next victim starts from a freshly booted
//! cluster instead of inheriting the failure.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use dup_core::{DupMsg, DupScheme};
use dup_live::{oracle_check, read_frame, write_frame, Frame, FrameNet, LiveConfig, NodeHost};
use dup_overlay::{regular_search_tree, NodeId};
use dup_proto::{Msg, MsgClass};
use dup_sim::{stream_rng, SimDuration, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;
use serde_json::{json, Value};

use crate::trace::Tracer;
use crate::{Layers, Rep, Workload};

/// Cluster size and shape: a complete tree of the paper's degree bound.
/// The shape is fixed so that the seed moves only the restart schedule,
/// not the per-query hop counts of a 16-node tree.
const NODES: usize = 16;
const DEGREE: usize = 4;
/// Virtual uptime a victim has before it is killed.
const MIN_UPTIME: f64 = 10.0;
/// Passes over the victims per rep: more restarts per rep average out how
/// the seed's orders happen to interleave the failing cases.
const PASSES: usize = 3;
/// Oracle polling interval after a restart (virtual seconds).
const POLL: f64 = 0.1;
/// Frame transit delay and driver tick, as in `LoopbackCluster`.
const TRANSIT: f64 = 0.001;
const TICK: f64 = 0.005;

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// What the net saw, by frame kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct NetStats {
    sent: u64,
    bytes: u64,
    heartbeats: u64,
    /// `Deliver` frames by `MsgClass` (request, reply, push, control).
    by_class: [u64; 4],
    tracked: u64,
    retransmits: u64,
    /// Tracked deliveries to a receiver that already had that sender's
    /// sequence number: what its dedup window must suppress.
    duplicates: u64,
    /// Frames addressed to a killed process (lost, as on a dead socket).
    lost: u64,
    decode_errors: u64,
}

/// The benchmark's frame net: a virtual-time queue of encoded frames.
struct CodecNet<'t> {
    now: SimTime,
    queue: VecDeque<(SimTime, NodeId, Vec<u8>)>,
    /// Incarnation of every node's current process.
    incarnation: Vec<u64>,
    /// Tracked `(sender, incarnation, seq)` already put on the wire.
    sent_seqs: HashSet<(NodeId, u64, u64)>,
    /// Tracked `(receiver, sender, seq)` already delivered.
    seen_seqs: HashSet<(NodeId, NodeId, u64)>,
    stats: NetStats,
    tr: &'t mut Tracer,
}

fn class_index(class: MsgClass) -> usize {
    match class {
        MsgClass::Request => 0,
        MsgClass::Reply => 1,
        MsgClass::Push => 2,
        MsgClass::Control => 3,
    }
}

impl FrameNet<DupMsg> for CodecNet<'_> {
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame<DupMsg>) -> bool {
        let s = &mut self.stats;
        s.sent += 1;
        match &frame {
            Frame::Heartbeat { .. } => s.heartbeats += 1,
            Frame::Deliver { class, msg, .. } => {
                s.by_class[class_index(*class)] += 1;
                if let Msg::Tracked { seq, .. } = msg {
                    s.tracked += 1;
                    let key = (from, self.incarnation[from.index()], *seq);
                    if !self.sent_seqs.insert(key) {
                        s.retransmits += 1;
                    }
                }
            }
            _ => {}
        }
        self.tr.enter_hot("live.codec");
        let mut buf = Vec::with_capacity(128);
        write_frame(&mut buf, &frame).expect("writing to memory cannot fail");
        self.tr.exit();
        self.stats.bytes += buf.len() as u64;
        self.queue.push_back((self.now + secs(TRANSIT), to, buf));
        true
    }
}

/// One booted cluster and its net.
struct Cluster {
    cfg: LiveConfig,
    hosts: Vec<Option<NodeHost<DupScheme>>>,
    /// Virtual time each node's current process started.
    up_since: Vec<SimTime>,
    /// Queries issued by processes already killed.
    queries_retired: u64,
    steps: u64,
}

impl Cluster {
    fn boot(cfg: &LiveConfig, net: &mut CodecNet<'_>) -> Self {
        net.now = SimTime::ZERO;
        net.queue.clear();
        net.incarnation.iter_mut().for_each(|i| *i = 1);
        net.sent_seqs.clear();
        net.seen_seqs.clear();
        let mut hosts = Vec::with_capacity(cfg.n());
        for i in 0..cfg.n() {
            let mut host = NodeHost::new(
                NodeId::from_index(i),
                1,
                cfg.clone(),
                DupScheme::new(),
                SimTime::ZERO,
            );
            host.start(SimTime::ZERO, net);
            hosts.push(Some(host));
        }
        Cluster {
            cfg: cfg.clone(),
            hosts,
            up_since: vec![SimTime::ZERO; cfg.n()],
            queries_retired: 0,
            steps: 0,
        }
    }

    /// Advances virtual time to `until`, delivering due frames and running
    /// every live host on each tick.
    fn run_until(&mut self, until: SimTime, net: &mut CodecNet<'_>) {
        while net.now < until {
            net.now += secs(TICK);
            let now = net.now;
            while net.queue.front().is_some_and(|(at, _, _)| *at <= now) {
                let (_, to, buf) = net.queue.pop_front().expect("front exists");
                let Some(host) = self.hosts[to.index()].as_mut() else {
                    net.stats.lost += 1;
                    continue;
                };
                net.tr.enter_hot("live.codec");
                let frame = read_frame::<_, DupMsg>(&mut buf.as_slice());
                net.tr.exit();
                let frame = match frame {
                    Ok(f) => f,
                    Err(_) => {
                        net.stats.decode_errors += 1;
                        continue;
                    }
                };
                if let Frame::Deliver {
                    from,
                    msg: Msg::Tracked { seq, .. },
                    ..
                } = &frame
                {
                    if !net.seen_seqs.insert((to, *from, *seq)) {
                        net.stats.duplicates += 1;
                    }
                }
                self.steps += 1;
                net.tr.enter_hot("live.on_frame");
                host.on_frame(now, frame, net);
                net.tr.exit();
            }
            for host in self.hosts.iter_mut().flatten() {
                self.steps += 1;
                net.tr.enter_hot("live.advance");
                host.advance(now, net);
                net.tr.exit();
            }
        }
    }

    fn kill(&mut self, node: NodeId) {
        let host = self.hosts[node.index()].take().expect("victim is alive");
        self.queries_retired += host.snapshot().queries_issued;
    }

    fn restart(&mut self, node: NodeId, net: &mut CodecNet<'_>) {
        let i = node.index();
        net.incarnation[i] += 1;
        let mut host = NodeHost::new(
            node,
            net.incarnation[i],
            self.cfg.clone(),
            DupScheme::new(),
            net.now,
        );
        host.start(net.now, net);
        self.hosts[i] = Some(host);
        self.up_since[i] = net.now;
    }

    /// The oracle verdict on the whole cluster, and whether `node` is
    /// subscribed again.
    fn oracle(&self, node: NodeId, tr: &mut Tracer) -> (Result<(), String>, bool) {
        tr.enter_hot("core.oracle");
        let snaps: Vec<_> = self.hosts.iter().flatten().map(|h| h.snapshot()).collect();
        let verdict = oracle_check(&snaps);
        tr.exit();
        let subscribed = snaps.iter().any(|s| s.node == node && s.subscribed);
        (verdict, subscribed)
    }

    fn queries(&self) -> u64 {
        self.queries_retired
            + self
                .hosts
                .iter()
                .flatten()
                .map(|h| h.snapshot().queries_issued)
                .sum::<u64>()
    }
}

/// One restart's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Restart {
    victim: NodeId,
    /// Virtual seconds from the restart to the first poll that finds the
    /// victim subscribed again and the cluster oracle-clean.
    clean_after: Option<f64>,
    /// Oracle-clean at the convergence bound.
    ok: bool,
}

/// Everything one pass produced.
#[derive(Debug, Clone, Default, PartialEq)]
struct Pass {
    restarts: Vec<Restart>,
    stats: NetStats,
    queries: u64,
    boots: u64,
    steps: u64,
}

impl Pass {
    /// The passes of one rep as one.
    fn merge(passes: &[Pass]) -> Pass {
        let mut all = Pass::default();
        for p in passes {
            all.restarts.extend_from_slice(&p.restarts);
            let (a, b) = (&mut all.stats, &p.stats);
            a.sent += b.sent;
            a.bytes += b.bytes;
            a.heartbeats += b.heartbeats;
            for (x, y) in a.by_class.iter_mut().zip(b.by_class) {
                *x += y;
            }
            a.tracked += b.tracked;
            a.retransmits += b.retransmits;
            a.duplicates += b.duplicates;
            a.lost += b.lost;
            a.decode_errors += b.decode_errors;
            all.queries += p.queries;
            all.boots += p.boots;
            all.steps += p.steps;
        }
        all
    }
}

pub struct LiveCluster {
    seed: u64,
    cfg: LiveConfig,
    root_children: usize,
    reference: Option<Pass>,
    last: Pass,
    failures: Vec<String>,
    correct: bool,
}

impl LiveCluster {
    pub fn new(seed: u64) -> Self {
        let tree = regular_search_tree(NODES, DEGREE);
        let parents: Vec<Option<NodeId>> = (0..NODES)
            .map(|i| tree.parent(NodeId::from_index(i)))
            .collect();
        let root_children = tree.children(tree.root()).len();
        LiveCluster {
            seed,
            cfg: LiveConfig::smoke(parents),
            root_children,
            reference: None,
            last: Pass::default(),
            failures: Vec::new(),
            correct: true,
        }
    }

    /// Runs pass `index`; returns it with its host set-up (boot) and run
    /// nanoseconds, oracle checks excluded from both.
    fn pass(&mut self, index: usize, tr: &mut Tracer) -> (Pass, u64, u64) {
        let mut rng = stream_rng(self.seed, &format!("live-victims/{index}"));
        let mut victims: Vec<NodeId> = (1..NODES).map(NodeId::from_index).collect();
        victims.shuffle(&mut rng);
        let bound = self.cfg.convergence_bound().as_secs_f64();
        let mut net = CodecNet {
            now: SimTime::ZERO,
            queue: VecDeque::new(),
            incarnation: vec![1; NODES],
            sent_seqs: HashSet::new(),
            seen_seqs: HashSet::new(),
            stats: NetStats::default(),
            tr,
        };
        let mut pass = Pass::default();
        let mut life: Option<Cluster> = None;
        let (mut setup_ns, mut run_ns, mut oracle_ns) = (0, 0, 0);
        let mut t_run = Instant::now();
        for victim in victims {
            let gap = rng.gen_range(0.5..1.5);
            let down = rng.gen_range(1.5..2.5);
            let mut cluster = match life.take() {
                Some(c) => c,
                None => {
                    run_ns += t_run.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    net.tr.enter("live.boot");
                    let c = Cluster::boot(&self.cfg, &mut net);
                    net.tr.exit();
                    setup_ns += t0.elapsed().as_nanos() as u64;
                    pass.boots += 1;
                    t_run = Instant::now();
                    c
                }
            };
            net.tr.enter("live.run");
            let earliest = cluster.up_since[victim.index()] + secs(MIN_UPTIME);
            let kill_at = earliest.max(net.now) + secs(gap);
            cluster.run_until(kill_at, &mut net);
            cluster.kill(victim);
            cluster.run_until(net.now + secs(down), &mut net);
            cluster.restart(victim, &mut net);
            let restarted = net.now;
            let mut clean_after = None;
            let mut ok = false;
            let polls = (bound / POLL).round() as usize;
            for k in 1..=polls {
                cluster.run_until(restarted + secs(POLL * k as f64), &mut net);
                let last = k == polls;
                if clean_after.is_some() && !last {
                    continue;
                }
                let t0 = Instant::now();
                let (verdict, subscribed) = cluster.oracle(victim, net.tr);
                oracle_ns += t0.elapsed().as_nanos() as u64;
                if verdict.is_ok() && subscribed && clean_after.is_none() {
                    clean_after = Some((net.now - restarted).as_secs_f64());
                }
                if last {
                    match verdict {
                        Ok(()) => ok = true,
                        Err(e) => self.failures.push(format!(
                            "seed {}: restart of node {victim} (parent {}) not oracle-clean \
                             {bound} s after the restart: {e}",
                            self.seed,
                            self.cfg.parents[victim.index()].map_or(-1, |p| i64::from(p.0))
                        )),
                    }
                }
            }
            net.tr.exit();
            pass.restarts.push(Restart {
                victim,
                clean_after,
                ok,
            });
            if ok {
                life = Some(cluster);
            } else {
                pass.queries += cluster.queries();
                pass.steps += cluster.steps;
            }
        }
        if let Some(cluster) = life {
            pass.queries += cluster.queries();
            pass.steps += cluster.steps;
        }
        run_ns += t_run.elapsed().as_nanos() as u64;
        pass.stats = net.stats;
        let run_ns = run_ns.saturating_sub(oracle_ns);
        (pass, setup_ns, run_ns)
    }
}

impl Workload for LiveCluster {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let (mut setup_ns, mut run_ns) = (0, 0);
        let mut passes = Vec::with_capacity(PASSES);
        for i in 0..PASSES {
            let (pass, setup, run) = self.pass(i, tr);
            setup_ns += setup;
            run_ns += run;
            passes.push(pass);
        }
        let pass = Pass::merge(&passes);
        tr.enter("bench.check");
        if pass.stats.decode_errors > 0 {
            self.correct = false;
            self.failures.push(format!(
                "{} frames failed to decode",
                pass.stats.decode_errors
            ));
        }
        // Virtual time makes every pass identical; a difference is a
        // determinism bug, not noise.
        if *self.reference.get_or_insert_with(|| pass.clone()) != pass {
            self.correct = false;
            self.failures
                .push("a pass did not repeat the first pass exactly".to_string());
        }
        tr.exit();
        let failed = pass.restarts.iter().filter(|r| !r.ok).count() as u64;
        let rep = Rep {
            setup_ns,
            run_ns,
            events: pass.steps,
            messages: pass.stats.sent,
            ops: pass.restarts.len() as u64,
            failed,
        };
        self.last = pass;
        rep
    }

    fn dup_hops(&self) -> (f64, f64) {
        let p = &self.last;
        let q = p.queries.max(1) as f64;
        let hops: u64 = p.stats.by_class.iter().sum();
        (p.stats.by_class[0] as f64 / q, hops as f64 / q)
    }

    fn layers(&self, tr: &Tracer, traced: &[Rep], out: &mut Layers) {
        let p = &self.last;
        let s = &p.stats;
        let reps = traced.len().max(1) as f64;
        out.set("live.frames", s.sent as f64);
        out.set(
            "live.heartbeat_share",
            s.heartbeats as f64 / s.sent.max(1) as f64,
        );
        let on_frame = tr.layer("live.on_frame");
        let advance = tr.layer("live.advance");
        let codec = tr.layer("live.codec");
        let frames = (s.sent * traced.len() as u64).max(1) as f64;
        out.set(
            "live.host_ns_per_frame",
            (on_frame.self_ns + advance.self_ns) as f64 / frames,
        );
        out.set("live.on_frame_s", on_frame.self_ns as f64 / 1e9 / reps);
        out.set("live.advance_s", advance.self_ns as f64 / 1e9 / reps);
        out.set("live.queries_issued", p.queries as f64);
        out.set("live.codec_ns_per_frame", codec.total_ns as f64 / frames);
        out.set(
            "live.frame_bytes_mean",
            s.bytes as f64 / s.sent.max(1) as f64,
        );
        out.set("reliable.retransmits", s.retransmits as f64);
        out.set("reliable.duplicates_suppressed", s.duplicates as f64);
        if s.tracked > 0 {
            let first_sends = s.tracked - s.retransmits;
            out.set(
                "reliable.useful_ratio",
                first_sends as f64 / s.tracked as f64,
            );
        }
        out.set("faults.drops", s.lost as f64);
        out.set("proto.request_hops", s.by_class[0] as f64);
        out.set("proto.reply_hops", s.by_class[1] as f64);
        out.set("core.push_hops", s.by_class[2] as f64);
        out.set("core.control_hops", s.by_class[3] as f64);
        let oracle = tr.layer("core.oracle");
        if oracle.calls > 0 {
            out.set(
                "core.oracle_s",
                oracle.total_ns as f64 / 1e9 / oracle.calls as f64,
            );
        }
        let mut times: Vec<f64> = p
            .restarts
            .iter()
            .map(|r| match (r.ok, r.clean_after) {
                (true, Some(t)) => t,
                // A failed rejoin is a miss: it counts as the whole bound.
                _ => self.cfg.convergence_bound().as_secs_f64(),
            })
            .collect();
        out.set("rejoin_s", crate::median(&mut times));
    }

    fn sizes(&self) -> Value {
        json!({
            "nodes": NODES,
            "root_children": self.root_children,
            "restarts_per_rep": PASSES * (NODES - 1),
            "min_uptime_secs": MIN_UPTIME,
            "convergence_bound_secs": self.cfg.convergence_bound().as_secs_f64(),
            "boots_per_rep": self.last.boots,
            "frames_per_rep": self.last.stats.sent,
            "bytes_per_rep": self.last.stats.bytes,
            "restarts_failed_per_rep": self.last.restarts.iter().filter(|r| !r.ok).count(),
            "rejoin_s_of_clean_restarts": {
                let mut t: Vec<f64> = self
                    .last
                    .restarts
                    .iter()
                    .filter(|r| r.ok)
                    .filter_map(|r| r.clean_after)
                    .collect();
                crate::median(&mut t)
            },
        })
    }

    fn failures(&self) -> &[String] {
        &self.failures
    }

    fn correct(&self) -> bool {
        self.correct
    }
}
