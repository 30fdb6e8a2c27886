//! The benchmark-owned probe: counts every `ProbeEvent` by kind and, when
//! it wraps another probe, times that probe's `record` calls.
//!
//! The simulator owns the probe for the length of a run, so the counts
//! live in a shared slot that the probe publishes to on `flush` (the
//! runner flushes when it finalizes the report) and again when it is
//! dropped (which catches the settle phase of `run_settled`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dup_proto::ProbeEvent;
use dup_sim::{Probe, SimTime};

/// Event kinds in reporting order.
pub const KINDS: [&str; 22] = [
    "QueryIssued",
    "QueryServed",
    "MsgSent",
    "MsgDelivered",
    "CacheInsert",
    "UpdatePublished",
    "CacheExpire",
    "Subscribe",
    "Unsubscribe",
    "Substitute",
    "ChurnJoin",
    "ChurnLeave",
    "FaultDrop",
    "FaultDuplicate",
    "FaultDelay",
    "Retransmit",
    "DupSuppressed",
    "LeaseExpired",
    "OrphanRepair",
    "LeaseFallback",
    "Sample",
    "Other",
];

/// One wrapped `record` call in this many is clocked; the estimate is
/// scaled up by the stride so timing costs little more than the count.
const TIME_EVERY: u64 = 8;

#[allow(unreachable_patterns)]
fn kind(event: &ProbeEvent) -> usize {
    match event {
        ProbeEvent::QueryIssued { .. } => 0,
        ProbeEvent::QueryServed { .. } => 1,
        ProbeEvent::MsgSent { .. } => 2,
        ProbeEvent::MsgDelivered { .. } => 3,
        ProbeEvent::CacheInsert { .. } => 4,
        ProbeEvent::UpdatePublished { .. } => 5,
        ProbeEvent::CacheExpire { .. } => 6,
        ProbeEvent::Subscribe { .. } => 7,
        ProbeEvent::Unsubscribe { .. } => 8,
        ProbeEvent::Substitute { .. } => 9,
        ProbeEvent::ChurnJoin { .. } => 10,
        ProbeEvent::ChurnLeave { .. } => 11,
        ProbeEvent::FaultDrop { .. } => 12,
        ProbeEvent::FaultDuplicate { .. } => 13,
        ProbeEvent::FaultDelay { .. } => 14,
        ProbeEvent::Retransmit { .. } => 15,
        ProbeEvent::DupSuppressed { .. } => 16,
        ProbeEvent::LeaseExpired { .. } => 17,
        ProbeEvent::OrphanRepair { .. } => 18,
        ProbeEvent::LeaseFallback { .. } => 19,
        ProbeEvent::Sample(_) => 20,
        _ => 21,
    }
}

/// What one run's probe saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    pub by_kind: [u64; KINDS.len()],
    /// Calls into the wrapped probe.
    pub inner_calls: u64,
    /// Clocked calls and their summed duration.
    pub timed_calls: u64,
    pub timed_ns: u64,
}

impl ProbeCounts {
    pub fn get(&self, name: &str) -> u64 {
        KINDS
            .iter()
            .position(|k| *k == name)
            .map_or(0, |i| self.by_kind[i])
    }

    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Estimated nanoseconds spent in the wrapped probe's `record`.
    pub fn inner_ns(&self) -> u64 {
        if self.timed_calls == 0 {
            return 0;
        }
        (self.timed_ns as f64 / self.timed_calls as f64 * self.inner_calls as f64) as u64
    }
}

/// Counts events by kind, optionally forwarding each to `inner`.
pub struct CountingProbe {
    inner: Option<Box<dyn Probe<ProbeEvent> + Send>>,
    local: ProbeCounts,
    shared: Arc<Mutex<ProbeCounts>>,
}

impl CountingProbe {
    /// Returns the probe and the handle its counts publish to.
    pub fn new(
        inner: Option<Box<dyn Probe<ProbeEvent> + Send>>,
    ) -> (Self, Arc<Mutex<ProbeCounts>>) {
        let shared = Arc::new(Mutex::new(ProbeCounts::default()));
        let probe = CountingProbe {
            inner,
            local: ProbeCounts::default(),
            shared: shared.clone(),
        };
        (probe, shared)
    }

    fn publish(&self) {
        *self.shared.lock().expect("probe counts poisoned") = self.local;
    }
}

impl Probe<ProbeEvent> for CountingProbe {
    fn record(&mut self, at: SimTime, event: &ProbeEvent) {
        self.local.by_kind[kind(event)] += 1;
        if let Some(inner) = &mut self.inner {
            if self.local.inner_calls.is_multiple_of(TIME_EVERY) {
                let t0 = Instant::now();
                inner.record(at, event);
                self.local.timed_ns += t0.elapsed().as_nanos() as u64;
                self.local.timed_calls += 1;
            } else {
                inner.record(at, event);
            }
            self.local.inner_calls += 1;
        }
    }

    fn flush(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.flush();
        }
        self.publish();
    }
}

impl Drop for CountingProbe {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.shared.lock() {
            *slot = self.local;
        }
    }
}
