//! The external-event feed: where online arrivals and capacity changes come
//! from.
//!
//! Algorithm 2 acts at time zero and at every completion; online, the engine
//! also acts at two kinds of external event, job releases and capacity
//! changes. Both reach a run through one [`EventFeed`], whoever produces
//! them:
//!
//! * the batch setting builds the feed from a pre-generated [`Scenario`]
//!   ([`EventFeed::from_scenario`], or [`EventFeed::resume_at`] for a run
//!   resumed from a checkpoint);
//! * the live setting pushes events between drive calls
//!   ([`EventFeed::release`], [`EventFeed::capacity`]), as `mrls-serve` does
//!   when it stamps a round's admitted submissions with one virtual time.
//!
//! Each kind is kept in its own time-ordered queue, so within one instant
//! releases come before capacity changes (the order the engine applies).

use crate::engine::EPS;
use crate::scenario::Scenario;
use std::collections::VecDeque;

/// One external event fed into the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceEvent {
    /// Job `job` becomes known to the scheduler.
    Release {
        /// Virtual time of the release.
        time: f64,
        /// The released job.
        job: usize,
    },
    /// Resource `resource` changes to an absolute new capacity.
    Capacity {
        /// Virtual time of the change.
        time: f64,
        /// Affected resource type.
        resource: usize,
        /// The new capacity.
        capacity: u64,
    },
}

/// The pending external events of a run, consumed by the engine in time
/// order: releases and capacity changes, each in a time-ordered queue.
#[derive(Debug, Clone, Default)]
pub struct EventFeed {
    releases: VecDeque<(f64, usize)>,
    capacities: VecDeque<(f64, usize, u64)>,
}

impl EventFeed {
    /// An empty feed, for events pushed while the run is live.
    pub fn new() -> Self {
        EventFeed::default()
    }

    /// The feed of a [`Scenario`] for an `n`-job instance. Jobs with release
    /// time `<= 0` are *not* fed — they are released before the run starts
    /// (see [`Scenario::release_time`]).
    pub fn from_scenario(scenario: &Scenario, n: usize) -> Self {
        let mut releases: Vec<(f64, usize)> = (0..n)
            .map(|j| (scenario.release_time(j), j))
            .filter(|&(t, _)| t > 0.0)
            .collect();
        releases.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut capacities: Vec<(f64, usize, u64)> = scenario
            .capacity_changes
            .iter()
            .map(|c| (c.time, c.resource, c.capacity))
            .collect();
        capacities.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        EventFeed {
            releases: releases.into(),
            capacities: capacities.into(),
        }
    }

    /// The scenario's feed for a run resumed at virtual time `now`: events
    /// the checkpointed run already consumed (time `<= now`, within the
    /// engine's grouping tolerance) are dropped.
    pub fn resume_at(scenario: &Scenario, n: usize, now: f64) -> Self {
        let mut feed = EventFeed::from_scenario(scenario, n);
        feed.pop_until(now + EPS);
        feed
    }

    /// Feeds a job release at virtual time `time`. Releases must be pushed
    /// in nondecreasing time order.
    pub fn release(&mut self, time: f64, job: usize) {
        debug_assert!(
            self.releases.back().is_none_or(|r| r.0 <= time),
            "fed out of order"
        );
        self.releases.push_back((time, job));
    }

    /// Feeds an absolute capacity change at virtual time `time`. Changes
    /// must be pushed in nondecreasing time order.
    pub fn capacity(&mut self, time: f64, resource: usize, capacity: u64) {
        debug_assert!(
            self.capacities.back().is_none_or(|c| c.0 <= time),
            "fed out of order"
        );
        self.capacities.push_back((time, resource, capacity));
    }

    /// The time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<f64> {
        let r = self.releases.front().map(|r| r.0);
        let c = self.capacities.front().map(|c| c.0);
        r.into_iter().chain(c).reduce(f64::min)
    }

    /// `true` iff no event is pending.
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty() && self.capacities.is_empty()
    }

    /// Removes and returns every pending event with time `<= t`: releases
    /// first, then capacity changes, each in time order.
    pub fn pop_until(&mut self, t: f64) -> Vec<SourceEvent> {
        let mut out = Vec::new();
        while let Some(&(time, job)) = self.releases.front().filter(|r| r.0 <= t) {
            self.releases.pop_front();
            out.push(SourceEvent::Release { time, job });
        }
        while let Some(&(time, resource, capacity)) = self.capacities.front().filter(|c| c.0 <= t) {
            self.capacities.pop_front();
            out.push(SourceEvent::Capacity {
                time,
                resource,
                capacity,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_source_orders_and_groups_events() {
        let scenario = Scenario::offline()
            .with_release_times(vec![0.0, 2.0, 1.0])
            .with_capacity_changes(vec![(1.0, 0, 2), (3.0, 0, 4)]);
        let mut feed = EventFeed::from_scenario(&scenario, 3);
        assert_eq!(feed.next_time(), Some(1.0));
        // Releases come before capacity changes at the same instant.
        let batch = feed.pop_until(1.0);
        assert_eq!(
            batch,
            vec![
                SourceEvent::Release { time: 1.0, job: 2 },
                SourceEvent::Capacity {
                    time: 1.0,
                    resource: 0,
                    capacity: 2
                },
            ]
        );
        assert_eq!(feed.next_time(), Some(2.0));
        assert_eq!(feed.pop_until(10.0).len(), 2);
        assert_eq!(feed.next_time(), None);
    }

    #[test]
    fn scenario_source_resumes_past_consumed_events() {
        let scenario = Scenario::offline()
            .with_release_times(vec![1.0, 2.0])
            .with_capacity_changes(vec![(1.5, 0, 2)]);
        let mut feed = EventFeed::resume_at(&scenario, 2, 1.5);
        assert_eq!(feed.next_time(), Some(2.0));
        assert_eq!(
            feed.pop_until(2.0),
            vec![SourceEvent::Release { time: 2.0, job: 1 }]
        );
    }

    #[test]
    fn feeder_stamps_rounds_in_engine_order() {
        let mut feed = EventFeed::new();
        // A round pushes its capacity changes and releases at one stamp; the
        // engine still sees releases first.
        feed.capacity(1.0, 0, 2);
        feed.release(1.0, 0);
        assert_eq!(
            feed.pop_until(1.0),
            vec![
                SourceEvent::Release { time: 1.0, job: 0 },
                SourceEvent::Capacity {
                    time: 1.0,
                    resource: 0,
                    capacity: 2
                },
            ]
        );
        assert!(feed.is_empty());
        // A later round through the same feed.
        feed.release(2.0, 1);
        assert_eq!(feed.next_time(), Some(2.0));
    }

    #[test]
    fn channel_source_buffers_pushed_events() {
        let mut feed = EventFeed::new();
        assert_eq!(feed.next_time(), None);
        feed.release(0.5, 0);
        feed.capacity(0.5, 0, 3);
        feed.release(2.0, 1);
        assert_eq!(feed.next_time(), Some(0.5));
        assert_eq!(feed.pop_until(1.0).len(), 2);
        assert_eq!(feed.next_time(), Some(2.0));
        // Later pushes surface on the next pop.
        feed.release(2.0, 2);
        assert_eq!(feed.pop_until(2.0).len(), 2);
        assert_eq!(feed.next_time(), None);
    }
}
