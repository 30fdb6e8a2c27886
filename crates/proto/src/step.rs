//! The per-node protocol step: what one node does when a protocol event
//! reaches it, shared by every host that runs a [`Scheme`].
//!
//! The paper's query path is defined once here — a request climbs the
//! search tree to the first node holding a valid copy, and the reply
//! path-caches the record on its way back down — together with message
//! dispatch (requests, replies, scheme messages, reliability-layer
//! tracked messages and acks), retransmit timers, interest decay checks,
//! and the authority's publish sequence. The simulation [`Runner`], the
//! live node host, the protocol test bench and the dissemination topic
//! host all call into [`Step`]; each keeps only its own drivers (arrival
//! sampling, churn, heartbeats, drain loops, …).
//!
//! [`Runner`]: crate::Runner

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};

use crate::index::IndexRecord;
use crate::interest::InterestPolicy;
use crate::ledger::MsgClass;
use crate::probe::ProbeEvent;
use crate::reliable::RetryAction;
use crate::scheme::{resend_msg, send_msg, Ctx, Ev, EvSink, Msg, Scheme, World};
use crate::trace::SpanInfo;

/// Recycled `Vec<NodeId>` path buffers (`visited`/`remaining`/`riders`),
/// so steady-state query routing allocates nothing: a request's buffers
/// return to the pool when its reply completes (or the message is lost to
/// a departed node), keeping their capacity for the next query.
#[derive(Debug, Default)]
pub struct PathPool {
    bufs: Vec<Vec<NodeId>>,
}

impl PathPool {
    /// Buffers retained across queries; beyond this they are dropped. Two
    /// buffers (visited + riders) are live per in-flight query, so this
    /// covers hundreds of concurrent queries before the pool saturates.
    const MAX_POOLED: usize = 1024;

    #[inline]
    fn take(&mut self) -> Vec<NodeId> {
        self.bufs.pop().unwrap_or_default()
    }

    #[inline]
    fn put(&mut self, mut buf: Vec<NodeId>) {
        if self.bufs.len() < Self::MAX_POOLED {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

/// One node's protocol step over a host's state: the shared world, the
/// scheme, the path-buffer pool, and the event sink the host drives.
pub struct Step<'a, S: Scheme> {
    /// Shared protocol state.
    pub world: &'a mut World,
    /// The consistency scheme.
    pub scheme: &'a mut S,
    /// Recycled query-path buffers.
    pub pool: &'a mut PathPool,
    /// The host's event sink: timers stay local, deliveries go wherever
    /// the host's transport routes them.
    pub eng: &'a mut dyn EvSink<S::Msg>,
}

impl<S: Scheme> Step<'_, S> {
    /// The scheme and a context for one of its hooks.
    fn hook(&mut self) -> (&mut S, Ctx<'_, S::Msg>) {
        let ctx = Ctx {
            world: &mut *self.world,
            engine: &mut *self.eng,
        };
        (&mut *self.scheme, ctx)
    }

    /// Runs one protocol event: a message delivery, a retransmit timer, or
    /// an interest decay check.
    ///
    /// # Panics
    ///
    /// Panics on a driver event (queries, refreshes, churn, samples, lease
    /// ticks, …): hosts schedule and handle those themselves.
    pub fn handle(&mut self, ev: Ev<S::Msg>) {
        match ev {
            Ev::Deliver {
                from,
                to,
                class,
                cause,
                msg,
            } => self.deliver(from, to, class, cause, msg),
            Ev::Retry {
                from,
                to,
                class,
                seq,
                attempt,
                cause,
                msg,
            } => self.retry(from, to, class, seq, attempt, cause, msg),
            Ev::InterestCheck { node } => self.interest_check(node),
            other => unreachable!("driver event {other:?} reached the protocol step"),
        }
    }

    fn deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        cause: SpanInfo,
        msg: Msg<S::Msg>,
    ) {
        self.world.trace.note_delivered();
        if !self.world.tree.is_alive(to) {
            // Message addressed to a departed node is lost; reclaim its
            // path buffers.
            match msg {
                Msg::Request {
                    visited, riders, ..
                } => {
                    self.pool.put(visited);
                    self.pool.put(riders);
                }
                Msg::Reply { remaining, .. } => self.pool.put(remaining),
                Msg::Scheme(_) | Msg::Tracked { .. } | Msg::Ack { .. } => {}
            }
            return;
        }
        // Sends made while handling this delivery become its causal
        // children.
        self.world.trace.enter(cause);
        let now = self.eng.now();
        self.world.probe.emit(now, || ProbeEvent::MsgDelivered {
            from,
            to,
            class,
            span: cause.span,
        });
        match msg {
            Msg::Request {
                origin,
                visited,
                issued_at,
                riders,
            } => self.on_request(from, to, origin, visited, issued_at, riders),
            Msg::Reply {
                record,
                remaining,
                issued_at,
            } => self.on_reply(to, record, remaining, issued_at),
            Msg::Scheme(m) => {
                let (scheme, mut ctx) = self.hook();
                scheme.on_scheme_msg(&mut ctx, from, to, m);
            }
            Msg::Tracked { seq, inner } => {
                // Ack every physical arrival: a duplicate's ack re-covers a
                // possibly lost earlier ack. Acks ride the Control class as
                // plain (untracked) traffic.
                send_msg(
                    self.world,
                    self.eng,
                    to,
                    from,
                    MsgClass::Control,
                    Msg::Ack { seq },
                );
                if self.world.reliable.on_tracked_delivery(from, seq) {
                    let (scheme, mut ctx) = self.hook();
                    scheme.on_scheme_msg(&mut ctx, from, to, inner);
                } else {
                    self.world
                        .probe
                        .emit(now, || ProbeEvent::DupSuppressed { from, to, seq });
                }
            }
            Msg::Ack { seq } => {
                if let Some(timer) = self.world.reliable.on_ack(seq) {
                    self.eng.cancel(timer);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // one retransmit timer's full context, used once
    fn retry(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        seq: u64,
        attempt: u32,
        cause: SpanInfo,
        msg: S::Msg,
    ) {
        if !self.world.tree.is_alive(from) {
            // The sender departed; its unacked state dies with it.
            self.world.reliable.forget(seq);
            return;
        }
        let action = self.world.reliable.on_retry_fire(seq, attempt);
        if action == RetryAction::Settled {
            return;
        }
        self.world
            .probe
            .emit(self.eng.now(), || ProbeEvent::Retransmit {
                from,
                to,
                class,
                seq,
                attempt,
            });
        if let RetryAction::ResendAndRearm(delay) = action {
            let timer = self.eng.schedule_after(
                SimDuration::from_secs_f64(delay),
                Ev::Retry {
                    from,
                    to,
                    class,
                    seq,
                    attempt: attempt + 1,
                    cause,
                    msg: msg.clone(),
                },
            );
            self.world.reliable.retimer(seq, timer);
        }
        // The retransmit reuses the original causal span, so the trace
        // collector books it as another delivery of the same logical
        // message.
        resend_msg(
            self.world,
            self.eng,
            from,
            to,
            class,
            cause,
            Msg::Tracked { seq, inner: msg },
        );
    }

    fn interest_check(&mut self, node: NodeId) {
        if !self.world.tree.is_alive(node) {
            return;
        }
        let outcome = self.world.interest.run_check(node, self.eng.now());
        if let Some(at) = outcome.reschedule_at {
            self.eng.schedule(at, Ev::InterestCheck { node });
        }
        if outcome.lapsed {
            if self.world.probe.enabled() {
                self.world.trace.begin_maintenance();
            }
            let (scheme, mut ctx) = self.hook();
            scheme.on_interest_lost(&mut ctx, node);
        }
    }

    /// The authority's refresh: closes the interest epoch (under
    /// [`InterestPolicy::Epoch`], quiet nodes lapse *before* the new
    /// version is pushed, so just-lapsed nodes unsubscribe first), then
    /// mints and publishes the next version. Returns the new record.
    pub fn refresh(&mut self) -> IndexRecord {
        if self.world.interest.policy() == InterestPolicy::Epoch {
            if self.world.probe.enabled() {
                // Lapse traffic forms its own maintenance trace, not part
                // of the update about to publish.
                self.world.trace.begin_maintenance();
            }
            let lapsed = self.world.interest.roll_epoch();
            for node in lapsed {
                if self.world.tree.is_alive(node) {
                    let (scheme, mut ctx) = self.hook();
                    scheme.on_interest_lost(&mut ctx, node);
                }
            }
        }
        let record = self.world.authority.refresh(self.eng.now());
        self.publish(record);
        record
    }

    /// Publishes `record` from the authority: roots the update's
    /// propagation trace, then hands the record to the scheme to push.
    pub fn publish(&mut self, record: IndexRecord) {
        if self.world.probe.enabled() {
            // Every push the scheme now sends joins this trace. Under trace
            // sampling, unsampled versions get no root span — and no
            // UpdatePublished event, so collectors never see a trace they
            // cannot follow edge-for-edge.
            let span = self.world.trace.begin_update(record.version.0);
            if span.is_traced() {
                let node = self.world.tree.root();
                let version = record.version.0;
                self.world
                    .probe
                    .emit(self.eng.now(), || ProbeEvent::UpdatePublished {
                        node,
                        version,
                    });
            }
        }
        let (scheme, mut ctx) = self.hook();
        scheme.on_refresh(&mut ctx, record);
    }

    /// The scheme's periodic soft-state lease tick.
    pub fn lease_tick(&mut self) {
        if self.world.probe.enabled() {
            // Lease renewals and repairs form maintenance traces.
            self.world.trace.begin_maintenance();
        }
        let (scheme, mut ctx) = self.hook();
        scheme.on_lease_tick(&mut ctx);
    }

    /// A query issued locally at `node`: served from its own cache or sent
    /// up the search tree.
    pub fn begin_query(&mut self, node: NodeId) {
        if self.world.probe.enabled() {
            self.world.trace.begin_query();
        }
        let now = self.eng.now();
        let served = self.world.serving_record(node, now);
        self.world
            .probe
            .emit(now, || ProbeEvent::QueryIssued { origin: node });
        self.note_expiry_if_observed(now, node, served.is_some());
        let mut riders = self.pool.take();
        self.observe_query(node, None, &mut riders, served.is_none());
        if let Some(record) = served {
            self.pool.put(riders);
            let stale = record.is_stale_versus(self.world.authority.current().version);
            self.world.metrics.record_query_served(0, stale);
            self.world.metrics.record_query_completed(0.0);
            self.world.probe.emit(now, || ProbeEvent::QueryServed {
                origin: node,
                server: node,
                hops: 0,
                stale,
            });
        } else {
            let parent = self
                .world
                .tree
                .parent(node)
                .expect("the authority always serves its own queries");
            let mut visited = self.pool.take();
            visited.push(node);
            send_msg(
                self.world,
                self.eng,
                node,
                parent,
                MsgClass::Request,
                Msg::Request {
                    origin: node,
                    visited,
                    issued_at: now,
                    riders,
                },
            );
        }
    }

    /// Emits [`ProbeEvent::CacheExpire`] when `node` consulted its cache and
    /// found only an expired copy. Expiry is lazy — there is no per-slot
    /// timer — so the probe reports it at the moment it is *observed*, which
    /// is also when it affects the protocol.
    fn note_expiry_if_observed(&mut self, now: SimTime, node: NodeId, served: bool) {
        if !served && self.world.probe.enabled() && self.world.cache.raw(node).is_some() {
            self.world
                .probe
                .emit(now, || ProbeEvent::CacheExpire { node });
        }
    }

    /// Interest bookkeeping + scheme hook for a query observed at `node`.
    /// `riders` is the request's piggyback payload (fresh at the origin) and
    /// `forwarding` tells the scheme whether the request continues upstream.
    fn observe_query(
        &mut self,
        node: NodeId,
        prev: Option<NodeId>,
        riders: &mut Vec<NodeId>,
        forwarding: bool,
    ) {
        let obs = self.world.interest.observe(node, self.eng.now());
        if let Some(at) = obs.schedule_check_at {
            self.eng.schedule(at, Ev::InterestCheck { node });
        }
        let (scheme, mut ctx) = self.hook();
        scheme.on_query_step(&mut ctx, node, prev, riders, forwarding);
    }

    /// A request arrives at `to` from its child `from`.
    fn on_request(
        &mut self,
        from: NodeId,
        to: NodeId,
        origin: NodeId,
        mut visited: Vec<NodeId>,
        issued_at: SimTime,
        mut riders: Vec<NodeId>,
    ) {
        let now = self.eng.now();
        let served = self.world.serving_record(to, now);
        self.note_expiry_if_observed(now, to, served.is_some());
        self.observe_query(to, Some(from), &mut riders, served.is_none());
        if let Some(record) = served {
            self.pool.put(riders);
            let stale = record.is_stale_versus(self.world.authority.current().version);
            let hops = visited.len() as u32;
            self.world.metrics.record_query_served(hops, stale);
            self.world.probe.emit(now, || ProbeEvent::QueryServed {
                origin,
                server: to,
                hops,
                stale,
            });
            let target = visited.pop().expect("request visited at least the origin");
            send_msg(
                self.world,
                self.eng,
                to,
                target,
                MsgClass::Reply,
                Msg::Reply {
                    record,
                    remaining: visited,
                    issued_at,
                },
            );
        } else {
            let parent = self
                .world
                .tree
                .parent(to)
                .expect("the authority always has a serving record");
            visited.push(to);
            send_msg(
                self.world,
                self.eng,
                to,
                parent,
                MsgClass::Request,
                Msg::Request {
                    origin,
                    visited,
                    issued_at,
                    riders,
                },
            );
        }
    }

    /// A reply arrives at `to`: path-cache the record and forward toward the
    /// origin, skipping nodes that departed while the reply was in flight.
    fn on_reply(
        &mut self,
        to: NodeId,
        record: IndexRecord,
        mut remaining: Vec<NodeId>,
        issued_at: SimTime,
    ) {
        if self.world.cache.install(to, record) {
            let now = self.eng.now();
            let version = record.version.0;
            self.world
                .probe
                .emit(now, || ProbeEvent::CacheInsert { node: to, version });
        }
        if remaining.is_empty() {
            self.pool.put(remaining);
            let elapsed = self.eng.now().saturating_since(issued_at);
            self.world
                .metrics
                .record_query_completed(elapsed.as_secs_f64());
            return;
        }
        while let Some(target) = remaining.pop() {
            if self.world.tree.is_alive(target) {
                send_msg(
                    self.world,
                    self.eng,
                    to,
                    target,
                    MsgClass::Reply,
                    Msg::Reply {
                        record,
                        remaining,
                        issued_at,
                    },
                );
                return;
            }
        }
        // Every remaining path node (including the origin) departed.
        self.pool.put(remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReliabilityConfig;
    use crate::probe::{CaptureProbe, ProbeSink};
    use crate::reliable::ReliableState;
    use crate::scheme::tests::world;
    use dup_sim::Engine;

    /// Counts scheme-message dispatches.
    #[derive(Default)]
    struct Counting(u32);

    impl Scheme for Counting {
        type Msg = u32;

        fn name(&self) -> &'static str {
            "COUNTING"
        }

        fn on_scheme_msg(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: NodeId, _: u32) {
            self.0 += 1;
        }
    }

    fn arm_reliability(world: &mut World) {
        let cfg = ReliabilityConfig {
            enabled: true,
            ..ReliabilityConfig::default()
        };
        world.reliable = ReliableState::from_config(cfg, 1);
    }

    fn deliver(from: u32, to: u32, msg: Msg<u32>) -> Ev<u32> {
        Ev::Deliver {
            from: NodeId(from),
            to: NodeId(to),
            class: MsgClass::Control,
            cause: SpanInfo::NONE,
            msg,
        }
    }

    #[test]
    fn delivery_to_a_departed_node_reclaims_buffers_and_dispatches_nothing() {
        let mut world = world();
        world.tree.remove_splice(NodeId(3));
        let record = world.authority.current();
        let (mut scheme, mut pool) = (Counting::default(), PathPool::default());
        let mut engine: Engine<Ev<u32>> = Engine::new();
        let mut step = Step {
            world: &mut world,
            scheme: &mut scheme,
            pool: &mut pool,
            eng: &mut engine,
        };
        let path = || vec![NodeId(3)];
        step.handle(deliver(
            0,
            3,
            Msg::Request {
                origin: NodeId(3),
                visited: path(),
                issued_at: SimTime::ZERO,
                riders: path(),
            },
        ));
        step.handle(deliver(
            0,
            3,
            Msg::Reply {
                record,
                remaining: path(),
                issued_at: SimTime::ZERO,
            },
        ));
        step.handle(deliver(0, 3, Msg::Scheme(7)));
        assert_eq!(pool.bufs.len(), 3, "visited, riders and remaining");
        assert!(pool.bufs.iter().all(|b| b.is_empty() && b.capacity() > 0));
        assert_eq!(scheme.0, 0);
        assert_eq!(engine.pending(), 0, "a lost delivery sends nothing");
    }

    #[test]
    fn duplicate_tracked_arrival_is_acked_again_but_dispatched_once() {
        let capture = CaptureProbe::new();
        let mut world = world();
        arm_reliability(&mut world);
        world.probe = ProbeSink::attach(capture.clone());
        let (mut scheme, mut pool) = (Counting::default(), PathPool::default());
        let mut engine: Engine<Ev<u32>> = Engine::new();
        let mut step = Step {
            world: &mut world,
            scheme: &mut scheme,
            pool: &mut pool,
            eng: &mut engine,
        };
        let seq = 1u64 << 32;
        step.handle(deliver(1, 0, Msg::Tracked { seq, inner: 7 }));
        step.handle(deliver(1, 0, Msg::Tracked { seq, inner: 7 }));
        assert_eq!(scheme.0, 1);
        let mut acks = 0;
        engine.run(|_, ev| match ev {
            Ev::Deliver {
                msg: Msg::Ack { seq: s },
                to: NodeId(1),
                ..
            } if s == seq => acks += 1,
            other => panic!("unexpected event {other:?}"),
        });
        assert_eq!(acks, 2, "every physical arrival is acked");
        assert_eq!(
            capture.count(|e| matches!(e, ProbeEvent::DupSuppressed { seq: s, .. } if *s == seq)),
            1
        );
    }

    #[test]
    fn retry_from_a_departed_sender_forgets_its_seq_and_sends_nothing() {
        let mut world = world();
        arm_reliability(&mut world);
        let mut engine: Engine<Ev<u32>> = Engine::new();
        send_msg(
            &mut world,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Push,
            Msg::Scheme(7),
        );
        world.tree.remove_splice(NodeId(1));
        let (mut scheme, mut pool) = (Counting::default(), PathPool::default());
        let mut retries = 0;
        engine.run(|eng, ev| match ev {
            // The original send's arrival; only its retry is under test.
            Ev::Deliver { .. } => {}
            ev => {
                retries += 1;
                let mut step = Step {
                    world: &mut world,
                    scheme: &mut scheme,
                    pool: &mut pool,
                    eng,
                };
                step.handle(ev);
            }
        });
        assert_eq!(retries, 1, "the retry chain ends at the first timer");
        assert_eq!(world.reliable.pending_count(), 0);
        assert_eq!(world.reliable.stats().retransmits, 0);
        assert_eq!(world.metrics.ledger().hops(MsgClass::Push), 1);
    }
}
