//! Timing wrappers around the serving crate's policy traits: the traced
//! run's spans at the `serve.policy` and `serve.fleet` boundaries, recorded
//! from outside the program.
//!
//! Each wrapper delegates every trait method to the policy it wraps, so a
//! traced simulation makes the same decisions as an untraced one; it only
//! counts calls and the time they took. `SchedulePolicy` is `Send + Sync`
//! and engine clones share one policy's counters, hence the atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zipserv_serve::fleet::{ReplicaSnapshot, RoutePolicy};
use zipserv_serve::policy::{PreemptionMode, QueuedRequest, RunningRequest, SchedulePolicy};
use zipserv_serve::scheduler::Request;
use zipserv_serve::PrefixVictim;

/// A call count and the nanoseconds the calls took.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    /// Runs `f`, counting the call and its duration.
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: they publish no other data.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Time spent in the calls so far, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Spans of a scheduling policy: admission picks and preemption victims.
#[derive(Debug, Default)]
pub struct PolicySpans {
    /// `SchedulePolicy::select`.
    pub select: Span,
    /// `SchedulePolicy::victim`.
    pub victim: Span,
}

/// A [`SchedulePolicy`] that times `select` and `victim`.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn SchedulePolicy>,
    spans: Arc<PolicySpans>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: Box<dyn SchedulePolicy>, spans: Arc<PolicySpans>) -> Self {
        TimedPolicy { inner, spans }
    }
}

impl SchedulePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(
        &self,
        queued: &[QueuedRequest],
        running: &[RunningRequest],
        now: f64,
    ) -> Option<usize> {
        self.spans
            .select
            .time(|| self.inner.select(queued, running, now))
    }

    fn victim(
        &self,
        candidate: &QueuedRequest,
        running: &[RunningRequest],
        now: f64,
    ) -> Option<usize> {
        self.spans
            .victim
            .time(|| self.inner.victim(candidate, running, now))
    }

    fn preemption_mode(&self) -> PreemptionMode {
        self.inner.preemption_mode()
    }

    fn prefix_victim(&self) -> PrefixVictim {
        self.inner.prefix_victim()
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(TimedPolicy {
            inner: self.inner.clone_box(),
            spans: Arc::clone(&self.spans),
        })
    }
}

/// A [`RoutePolicy`] that times `route`.
#[derive(Debug)]
pub struct TimedRoute {
    inner: Box<dyn RoutePolicy>,
    span: Arc<Span>,
}

impl TimedRoute {
    /// Wraps `inner`, recording into `span`.
    pub fn new(inner: Box<dyn RoutePolicy>, span: Arc<Span>) -> Self {
        TimedRoute { inner, span }
    }
}

impl RoutePolicy for TimedRoute {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let inner = &mut self.inner;
        self.span.time(|| inner.route(req, replicas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipserv_serve::fleet::PowerOfTwoChoices;
    use zipserv_serve::policy::{PreemptiveSjf, Priority};

    #[test]
    fn schedule_wrapper_delegates_and_counts() {
        let spans = Arc::new(PolicySpans::default());
        let inner = PreemptiveSjf::default();
        let timed = TimedPolicy::new(Box::new(inner), Arc::clone(&spans));
        assert_eq!(timed.name(), inner.name());
        assert_eq!(timed.preemption_mode(), inner.preemption_mode());
        assert_eq!(timed.prefix_victim(), inner.prefix_victim());
        let queued = [
            QueuedRequest::fresh(Request::new(1, 0.0, 64, 40)),
            QueuedRequest::fresh(Request::new(2, 0.1, 64, 8)),
        ];
        assert_eq!(
            timed.select(&queued, &[], 1.0),
            inner.select(&queued, &[], 1.0)
        );
        assert_eq!(
            timed.victim(&queued[1], &[], 1.0),
            inner.victim(&queued[1], &[], 1.0)
        );
        // Clones share the counters: the engine clones its policy.
        let clone = timed.clone_box();
        assert_eq!(clone.name(), inner.name());
        let _ = clone.select(&queued, &[], 1.0);
        assert_eq!(spans.select.calls(), 2);
        assert_eq!(spans.victim.calls(), 1);
        assert!(spans.select.ms() >= 0.0);
        let priority = TimedPolicy::new(Box::new(Priority::default()), spans);
        assert_eq!(priority.name(), Priority::default().name());
    }

    #[test]
    fn route_wrapper_delegates_and_counts() {
        let span = Arc::new(Span::default());
        let mut plain = PowerOfTwoChoices::new(3);
        let mut timed = TimedRoute::new(Box::new(PowerOfTwoChoices::new(3)), Arc::clone(&span));
        assert_eq!(timed.name(), plain.name());
        let snap = |in_flight| ReplicaSnapshot {
            in_flight,
            pressure: vec![0.1],
            draining: false,
        };
        let replicas = [snap(3), snap(1), snap(2), snap(0)];
        for id in 0..20 {
            let req = Request::new(id, id as f64, 16, 4);
            assert_eq!(timed.route(&req, &replicas), plain.route(&req, &replicas));
        }
        assert_eq!(span.calls(), 20);
    }
}
