//! The round **flight recorder**: a bounded ring of per-round summaries kept
//! by the service core, queryable over the protocol
//! ([`RequestBody::QueryFlightRecorder`]) and dumped to stderr when a round
//! blows its wall-clock tick budget — the black box you read *after* a round
//! went sideways, without having had verbose logging on.
//!
//! Every field except `wall_us`/`over_tick` is a count or a virtual time:
//! deterministic in the submission order, so the differential harness can
//! compare the recorder's [`RoundDigest`] projection between the incremental
//! core and the naive reference byte for byte. The two wall-clock fields are
//! measurement, excluded from the digest and from every byte-identity
//! guarantee — which is also why flight data is *not* part of
//! [`ServiceCore::status`] snapshots.
//!
//! [`RequestBody::QueryFlightRecorder`]: crate::protocol::RequestBody::QueryFlightRecorder
//! [`ServiceCore::status`]: crate::ServiceCore::status

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How many rounds the flight recorder retains (oldest evicted first).
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// One round's summary, written by the service core as the round ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (1-based; the drain that completes a world reuses the
    /// last round's index with `drain` set).
    pub round: u64,
    /// Whether this execution drove the engine to completion (a drain)
    /// rather than pausing at the round's stamp.
    pub drain: bool,
    /// Virtual time of the engine when the round paused or completed.
    pub virtual_time: f64,
    /// Jobs admitted into this round's batch.
    pub admitted_jobs: u64,
    /// Capacity changes applied by this round.
    pub capacity_changes: u64,
    /// Pending jobs (re-)planned this round.
    pub plan_planned: u64,
    /// Plan entries whose placement changed and was re-applied.
    pub plan_updates: u64,
    /// Plan entries kept bit-identical by the diff.
    pub plan_kept: u64,
    /// Plans that failed this round and fell back: the round's increments
    /// of `serve.plan.fallbacks` and `sim.policy.reschedule_fallbacks`.
    /// Absent from records written before the field existed (reads 0).
    #[serde(default)]
    pub plan_fallbacks: u64,
    /// Jobs that started during this round's drive.
    pub started: u64,
    /// Jobs that completed during this round's drive.
    pub completed: u64,
    /// Failed attempts (injected faults) during this round's drive.
    pub failed: u64,
    /// Jobs quarantined (retry budget exhausted or cascade-abandoned)
    /// during this round's drive.
    pub quarantined: u64,
    /// Engine events harvested into the ledger after the drive.
    pub events_harvested: u64,
    /// Jobs still pending (admitted, not started) when the round ended.
    pub pending_after: u64,
    /// Wall-clock duration of the round. **Nondeterministic** — excluded
    /// from the digest and every byte-identity comparison.
    pub wall_us: u64,
    /// Whether `wall_us` exceeded the configured tick interpreted as a
    /// wall-clock budget (`tick` seconds). **Nondeterministic.**
    pub over_tick: bool,
}

impl RoundRecord {
    /// A zeroed record for the given round, filled in as the round runs.
    pub fn new(round: u64, drain: bool) -> Self {
        RoundRecord {
            round,
            drain,
            virtual_time: 0.0,
            admitted_jobs: 0,
            capacity_changes: 0,
            plan_planned: 0,
            plan_updates: 0,
            plan_kept: 0,
            plan_fallbacks: 0,
            started: 0,
            completed: 0,
            failed: 0,
            quarantined: 0,
            events_harvested: 0,
            pending_after: 0,
            wall_us: 0,
            over_tick: false,
        }
    }

    /// The deterministic projection of this record: every field that is a
    /// count or a virtual time, none that is a wall-clock reading. The
    /// differential harness compares digests between the incremental core
    /// and the naive reference.
    pub fn digest(&self) -> RoundDigest {
        RoundDigest {
            round: self.round,
            drain: self.drain,
            virtual_time: self.virtual_time,
            admitted_jobs: self.admitted_jobs,
            capacity_changes: self.capacity_changes,
            started: self.started,
            completed: self.completed,
            failed: self.failed,
            quarantined: self.quarantined,
            events_harvested: self.events_harvested,
            pending_after: self.pending_after,
        }
    }
}

/// The deterministic subset of a [`RoundRecord`] that both service cores can
/// produce independently. Plan-diff counters are deliberately absent: the
/// naive reference rebuilds the full plan every round and has no diff. So
/// is `plan_fallbacks`, which the reference does not record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundDigest {
    /// Round index.
    pub round: u64,
    /// Whether the round drove the engine to completion.
    pub drain: bool,
    /// Virtual time when the round ended.
    pub virtual_time: f64,
    /// Jobs admitted into the round's batch.
    pub admitted_jobs: u64,
    /// Capacity changes applied by the round.
    pub capacity_changes: u64,
    /// Jobs started during the round.
    pub started: u64,
    /// Jobs completed during the round.
    pub completed: u64,
    /// Failed attempts during the round.
    pub failed: u64,
    /// Jobs quarantined during the round.
    pub quarantined: u64,
    /// Engine events processed by the round.
    pub events_harvested: u64,
    /// Jobs still pending when the round ended.
    pub pending_after: u64,
}

/// A bounded ring of the most recent [`RoundRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<RoundRecord>,
    capacity: usize,
    total: u64,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` rounds.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(FLIGHT_RECORDER_CAPACITY)),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Rebuilds a default-capacity recorder from checkpointed state (the
    /// durability layer's recovery path): the retained ring in order, and the
    /// lifetime total including rounds the ring had already evicted.
    pub fn restore(records: Vec<RoundRecord>, total: u64) -> Self {
        let mut fr = FlightRecorder::default();
        for r in records {
            fr.push(r);
        }
        fr.total = total;
        fr
    }

    /// Appends one record, evicting the oldest when full.
    pub fn push(&mut self, record: RoundRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
        self.total += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<RoundRecord> {
        self.ring.iter().cloned().collect()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records ever pushed (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FLIGHT_RECORDER_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64) -> RoundRecord {
        let mut r = RoundRecord::new(round, false);
        r.virtual_time = round as f64;
        r.admitted_jobs = 1;
        r.wall_us = 17; // never part of the digest
        r
    }

    #[test]
    fn ring_evicts_oldest_and_counts_everything() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for round in 1..=5 {
            fr.push(record(round));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total_recorded(), 5);
        let rounds: Vec<u64> = fr.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![3, 4, 5], "oldest first, oldest evicted");
    }

    #[test]
    fn digest_drops_the_wall_clock_fields() {
        let mut a = record(7);
        let mut b = record(7);
        a.wall_us = 1;
        a.over_tick = true;
        b.wall_us = 999_999;
        b.over_tick = false;
        assert_eq!(a.digest(), b.digest(), "digests ignore wall-clock noise");
    }

    #[test]
    fn records_roundtrip_through_json() {
        let mut r = record(2);
        r.plan_fallbacks = 3;
        let json = serde_json::to_string(&r).unwrap();
        let back: RoundRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // A record written before `plan_fallbacks` existed still loads.
        let old = json.replace(",\"plan_fallbacks\":3", "");
        assert!(!old.contains("plan_fallbacks"), "{old}");
        let back: RoundRecord = serde_json::from_str(&old).unwrap();
        assert_eq!(back.plan_fallbacks, 0);
        assert_eq!(back.digest(), r.digest());
        let d: RoundDigest =
            serde_json::from_str(&serde_json::to_string(&r.digest()).unwrap()).unwrap();
        assert_eq!(d, r.digest());
    }
}
