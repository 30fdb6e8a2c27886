//! Protocol-level test bench.
//!
//! Drives a [`Scheme`] directly against a [`World`] and an event engine —
//! no workload, no query routing — so unit and property tests can exercise
//! subscription dynamics, pushes, and churn repair step by step and then
//! audit the quiescent state. Examples also use it to demonstrate the raw
//! protocol API.

use dup_overlay::{NodeId, SearchTree};
use dup_proto::scheme::{AppliedChurn, Ctx, Ev, FaultState, FifoClocks, Scheme, World};
use dup_proto::{
    AuthorityClock, CacheStore, IndexRecord, InterestTracker, Metrics, PathPool, ProbeSink,
    ReliableState, Step, TraceCtx,
};
use dup_sim::{Engine, SenderStreams, SimDuration, SimTime};
use dup_workload::HopLatency;

/// A self-contained harness around one scheme instance.
pub struct TestBench<S: Scheme> {
    /// Shared protocol state.
    pub world: World,
    /// The event engine carrying in-flight messages.
    pub engine: Engine<Ev<S::Msg>>,
    /// The scheme under test.
    pub scheme: S,
    pool: PathPool,
}

impl<S: Scheme> TestBench<S> {
    /// Builds a bench over `tree` with interest threshold `c` and the
    /// paper's TTL/push-lead/hop-latency defaults.
    pub fn new(tree: SearchTree, scheme: S, threshold_c: u32) -> Self {
        TestBench::with_probe(tree, scheme, threshold_c, ProbeSink::disabled())
    }

    /// Like [`TestBench::new`] with a probe observing the bench's protocol
    /// traffic — e.g. a [`dup_proto::CaptureProbe`] for step-by-step trace
    /// assertions (see the `figure2_walkthrough` example).
    pub fn with_probe(tree: SearchTree, scheme: S, threshold_c: u32, probe: ProbeSink) -> Self {
        let ttl = SimDuration::from_mins(60);
        let mut metrics = Metrics::new(100);
        metrics.start_recording();
        let world = World {
            cache: CacheStore::new(tree.capacity()),
            authority: AuthorityClock::new(SimTime::ZERO, ttl, SimDuration::from_mins(1)),
            interest: InterestTracker::new(ttl, threshold_c, tree.capacity()),
            metrics,
            hop_latency: HopLatency::paper_default(),
            latency_rng: SenderStreams::new(0xBE7C, "testkit-latency"),
            fifo: FifoClocks::with_capacity(tree.capacity()),
            probe,
            faults: FaultState::disabled(),
            reliable: ReliableState::disabled(),
            trace: TraceCtx::new(),
            tree,
        };
        TestBench {
            world,
            engine: Engine::new(),
            scheme,
            pool: PathPool::default(),
        }
    }

    /// Runs a scheme hook with a properly wired context.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut S, &mut Ctx<'_, S::Msg>) -> R) -> R {
        let mut ctx = Ctx {
            world: &mut self.world,
            engine: &mut self.engine,
        };
        f(&mut self.scheme, &mut ctx)
    }

    /// Makes `node` satisfy the interest policy (threshold + 1 observations
    /// now) and fires the query hook with no request to piggyback on, so
    /// the subscription goes out explicitly — keeping the unit tests'
    /// message accounting aligned with Figure 3's explicit flows.
    pub fn make_interested(&mut self, node: NodeId) {
        let now = self.engine.now();
        for _ in 0..=self.world.interest.threshold() {
            self.world.interest.observe(node, now);
        }
        if self.world.probe.enabled() {
            self.world.trace.begin_maintenance();
        }
        let mut riders = Vec::new();
        self.with_ctx(|s, ctx| s.on_query_step(ctx, node, None, &mut riders, false));
    }

    /// Clears `node`'s interest window and fires the lapse hook, as the
    /// interest-decay check would after a quiet TTL.
    pub fn drop_interest(&mut self, node: NodeId) {
        self.world.interest.clear(node);
        if self.world.probe.enabled() {
            self.world.trace.begin_maintenance();
        }
        self.with_ctx(|s, ctx| s.on_interest_lost(ctx, node));
    }

    /// Publishes the next index version at its scheduled instant and lets
    /// the scheme push it.
    pub fn refresh(&mut self) -> IndexRecord {
        let due = self
            .world
            .authority
            .next_refresh_at()
            .max(self.engine.now());
        self.engine.schedule(due, Ev::Refresh);
        self.drain();
        self.world.authority.current()
    }

    /// Delivers every in-flight message (and any cascades) to quiescence.
    pub fn drain(&mut self) {
        let TestBench {
            world,
            engine,
            scheme,
            pool,
        } = self;
        engine.run(|eng, ev| {
            let mut step = Step {
                world: &mut *world,
                scheme: &mut *scheme,
                pool: &mut *pool,
                eng,
            };
            match ev {
                Ev::Refresh => {
                    let record = step.world.authority.refresh(step.eng.now());
                    step.publish(record);
                }
                ev => step.handle(ev),
            }
        });
    }

    /// Applies a graceful leave (`graceful = true`) or silent failure of
    /// `node`, mirroring the runner's churn application, and fires the
    /// scheme's repair hook. Messages are left in flight; call
    /// [`TestBench::drain`] to settle.
    pub fn remove(&mut self, node: NodeId, graceful: bool) -> AppliedChurn {
        let root_changed = node == self.world.tree.root();
        let (replacement, adopted_children) = if root_changed {
            let children = self.world.tree.children(node).to_vec();
            let fresh = self.world.tree.replace_with_fresh(node);
            self.world.cache.ensure_slot(fresh);
            self.world.interest.ensure_slot(fresh);
            (fresh, children)
        } else {
            let children = self.world.tree.children(node).to_vec();
            let parent = self.world.tree.remove_splice(node);
            (parent, children)
        };
        self.world.cache.evict(node);
        self.world.interest.clear(node);
        let change = AppliedChurn {
            removed: Some(node),
            graceful,
            replacement: Some(replacement),
            adopted_children,
            joined: if root_changed {
                Some(replacement)
            } else {
                None
            },
            join_below: None,
            root_changed,
        };
        if self.world.probe.enabled() {
            self.world.trace.begin_maintenance();
        }
        self.with_ctx(|s, ctx| s.on_churn(ctx, &change));
        change
    }

    /// Splices a fresh node into the edge `parent → child` and fires the
    /// scheme's hook. Returns the new node.
    pub fn join_between(&mut self, parent: NodeId, child: NodeId) -> NodeId {
        let joined = self.world.tree.insert_between(parent, child);
        self.world.cache.ensure_slot(joined);
        self.world.interest.ensure_slot(joined);
        let change = AppliedChurn {
            removed: None,
            graceful: true,
            replacement: None,
            adopted_children: Vec::new(),
            joined: Some(joined),
            join_below: Some(child),
            root_changed: false,
        };
        if self.world.probe.enabled() {
            self.world.trace.begin_maintenance();
        }
        self.with_ctx(|s, ctx| s.on_churn(ctx, &change));
        joined
    }

    /// Attaches a fresh leaf under `parent` and fires the scheme's hook.
    pub fn join_leaf(&mut self, parent: NodeId) -> NodeId {
        let joined = self.world.tree.add_leaf(parent);
        self.world.cache.ensure_slot(joined);
        self.world.interest.ensure_slot(joined);
        let change = AppliedChurn {
            removed: None,
            graceful: true,
            replacement: None,
            adopted_children: Vec::new(),
            joined: Some(joined),
            join_below: None,
            root_changed: false,
        };
        if self.world.probe.enabled() {
            self.world.trace.begin_maintenance();
        }
        self.with_ctx(|s, ctx| s.on_churn(ctx, &change));
        joined
    }

    /// Total control-message hops charged so far.
    pub fn control_hops(&self) -> u64 {
        self.world
            .metrics
            .ledger()
            .hops(dup_proto::MsgClass::Control)
    }

    /// Total push hops charged so far.
    pub fn push_hops(&self) -> u64 {
        self.world.metrics.ledger().hops(dup_proto::MsgClass::Push)
    }
}

/// The paper's Figure 1/2 example tree, with ids shifted down by one
/// (`N1 = NodeId(0)` … `N8 = NodeId(7)`).
pub fn paper_example_tree() -> SearchTree {
    let n = |i: u32| Some(NodeId(i));
    SearchTree::from_parents(&[
        None, // N1 (root)
        n(0), // N2 <- N1
        n(1), // N3 <- N2
        n(2), // N4 <- N3
        n(2), // N5 <- N3
        n(4), // N6 <- N5
        n(5), // N7 <- N6
        n(5), // N8 <- N6
    ])
}
