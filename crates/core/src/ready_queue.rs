//! A persistent, priority-ordered ready queue for Algorithm 2, with an
//! exact per-type requirement index.
//!
//! The list scheduler keeps its ready jobs ordered by `(priority key, job
//! index)`. Historically that order was recreated by re-sorting the whole
//! queue at every event — O(r log r) per event even when a single job became
//! ready. [`ReadyQueue`] maintains the order *persistently*: priority keys
//! are fixed for a given allocation decision, so a newly ready job is
//! binary-inserted in O(log r) (plus one memmove), and a placement pass
//! removes every started job with a single in-place compaction sweep instead
//! of one O(r) `Vec::remove` per start.
//!
//! The queue also carries an **exact requirement index**: a per-type segment
//! tree over the requests of queued jobs, keyed by their priority rank in a
//! fixed *universe* (every job that may ever enter this queue). Because the
//! queue order is the rank order restricted to queued jobs, the suffix
//! minimum from the rank of the next unvisited job is the exact per-type
//! minimum request over the rest of the queue. A placement sweep stops the
//! moment availability drops below that minimum in *any* type — from that
//! point no remaining job can fit, so the skipped suffix is provably
//! start-free and the early exit is bit-exact against an exhaustive scan.
//! Unlike the stale-sound floor this replaces, the bound is always the true
//! minimum: insertions set a leaf, starts clear one — no full-sweep resets,
//! no conservative "unknown" states.
//!
//! The index is engineered to cost ~nothing where it cannot help:
//!
//! * **Cached ranks.** The queue stores each job's universe rank next to its
//!   id (`ranks` parallels `jobs`), so ordering operations compare plain
//!   integers and the sweep never looks a rank up mid-flight. The rank map
//!   itself is O(1) for dense universes (the offline scheduler's `0..n`)
//!   and one binary search otherwise — paid once per insertion.
//! * **Lazy leaves.** `set`/`clear` write the leaf and note it dirty;
//!   internal nodes are refreshed only when a tree *read* is imminent, by
//!   bubbling each dirty leaf with an early exit as soon as an ancestor's
//!   minima stop changing. A deep-chain run whose queue never outgrows a
//!   handful of jobs never queries the tree, so it never pays a bubble.
//! * **Small-queue bypass.** Sweeps over at most `SMALL` unvisited jobs
//!   skip the index and just visit them — the exit would cost more than the
//!   visits it saves. Exits remain exact: they only ever fire when an
//!   exhaustive scan would find nothing more, so the placement output is
//!   byte-identical either way.
//!
//! Keys live with the caller (an indexed `&[f64]`, one entry per job) and
//! are passed to every ordering operation; the queue stores job indices and
//! their ranks. If the caller's keys or allocations change (a reschedule
//! adopting a new plan), [`ReadyQueue::resort`] restores the order invariant
//! and re-ranks the index for the new keys and requests.
//!
//! Ordering uses the exact comparator the scheduler always sorted with —
//! [`f64::partial_cmp`] falling back to `Equal`, ties broken by job index —
//! so the maintained order is bit-identical to a full re-sort.

use crate::resource_state::ResourceState;
use crate::EPS;
use mrls_model::Allocation;
use std::cmp::Ordering;

/// The queue order: key first (incomparable values treated as equal — the
/// comparator [`crate::ListScheduler`] has always used), job index second.
pub(crate) fn key_order(a: usize, b: usize, keys: &[f64]) -> Ordering {
    keys[a]
        .partial_cmp(&keys[b])
        .unwrap_or(Ordering::Equal)
        .then(a.cmp(&b))
}

/// Sweeps over at most this many unvisited jobs skip the requirement index:
/// visiting them directly is cheaper than proving them start-free.
const SMALL: usize = 16;

/// Dirty-leaf backlog bound: exceeding it flushes eagerly so the pending
/// list stays O(1) memory even on runs that never read the tree.
const MAX_PENDING: usize = 1024;

/// Per-type segment tree over the requests of queued jobs, addressed by
/// priority rank within a fixed universe. Leaves of non-queued jobs hold
/// `+∞`, so suffix minima range exactly over what is still queued.
#[derive(Debug, Clone, Default)]
struct SuffixMinIndex {
    d: usize,
    /// Universe job ids, ascending — the binary-search key for rank lookup.
    by_id: Vec<usize>,
    /// `rank_of[k]` = priority rank of `by_id[k]`.
    rank_of: Vec<usize>,
    /// `ranked[r]` = the job at priority rank `r` (inverse of `rank_of`).
    ranked: Vec<usize>,
    /// `true` iff the universe ids are contiguous, making rank lookup O(1).
    dense: bool,
    /// Number of leaves (power of two, ≥ universe size).
    size: usize,
    /// Node-major min tree: node `k` owns `tree[k*d .. (k+1)*d]`.
    tree: Vec<f64>,
    /// Leaves whose values changed since the internal nodes were last
    /// refreshed. Flushed (bubbled up, early-exiting) before any tree read.
    pending: Vec<usize>,
}

impl SuffixMinIndex {
    fn build(universe: &[usize], keys: &[f64], d: usize) -> Self {
        mrls_obs::counter_add("core.ready_queue.index_builds", 1);
        let mut ranked = universe.to_vec();
        ranked.sort_by(|&a, &b| key_order(a, b, keys));
        let mut by_id = universe.to_vec();
        by_id.sort_unstable();
        let dense = by_id
            .last()
            .zip(by_id.first())
            .is_some_and(|(&hi, &lo)| hi - lo + 1 == by_id.len());
        let mut rank_of = vec![0usize; by_id.len()];
        for (rank, &job) in ranked.iter().enumerate() {
            let k = by_id
                .binary_search(&job)
                .expect("universe ids must be unique");
            rank_of[k] = rank;
        }
        let size = universe.len().next_power_of_two().max(1);
        SuffixMinIndex {
            d,
            by_id,
            rank_of,
            ranked,
            dense,
            size,
            tree: vec![f64::INFINITY; 2 * size * d],
            pending: Vec::new(),
        }
    }

    fn rank(&self, job: usize) -> usize {
        if self.dense {
            return self.rank_of[job - self.by_id[0]];
        }
        let k = self
            .by_id
            .binary_search(&job)
            .expect("job outside the queue universe");
        self.rank_of[k]
    }

    /// Refreshes the ancestors of `node`, stopping as soon as a level's
    /// minima come out unchanged (nothing above can change either).
    fn bubble_up(&mut self, mut node: usize) {
        while node > 1 {
            node /= 2;
            let mut changed = false;
            for i in 0..self.d {
                let l = self.tree[(2 * node) * self.d + i];
                let r = self.tree[(2 * node + 1) * self.d + i];
                let m = l.min(r);
                if self.tree[node * self.d + i].to_bits() != m.to_bits() {
                    self.tree[node * self.d + i] = m;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Brings every internal node up to date with the leaves. Amortized:
    /// each dirty leaf bubbles with the early exit, so a batch costs the
    /// number of nodes that actually change, not `pending × log`.
    fn flush(&mut self) {
        while let Some(leaf) = self.pending.pop() {
            self.bubble_up(leaf);
        }
    }

    fn note_dirty(&mut self, leaf: usize) {
        self.pending.push(leaf);
        if self.pending.len() >= MAX_PENDING {
            self.flush();
        }
    }

    /// Marks the job at `rank` queued with request `req`.
    fn set(&mut self, rank: usize, req: &Allocation) {
        let leaf = self.size + rank;
        for i in 0..self.d {
            self.tree[leaf * self.d + i] = req[i] as f64;
        }
        self.note_dirty(leaf);
    }

    /// Marks the job at `rank` no longer queued.
    fn clear(&mut self, rank: usize) {
        let leaf = self.size + rank;
        for i in 0..self.d {
            self.tree[leaf * self.d + i] = f64::INFINITY;
        }
        self.note_dirty(leaf);
    }

    /// `true` iff the minimum request over **all** queued jobs proves none
    /// fits `resources` — the root of the tree, read in O(d). Callers must
    /// [`SuffixMinIndex::flush`] first.
    fn root_blocks(&self, resources: &ResourceState) -> bool {
        debug_assert!(self.pending.is_empty(), "tree read before flush");
        (0..self.d).any(|i| self.tree[self.d + i] > resources.available(i) + EPS)
    }

    /// `true` iff the suffix minimum over ranks `>= from` proves that no
    /// queued job at those ranks fits `resources`: some resource type has
    /// less available (beyond the shared fit tolerance) than every such job
    /// requests. Exact — the minima are over precisely the queued jobs.
    /// Callers must [`SuffixMinIndex::flush`] first.
    fn suffix_blocks(&self, from: usize, resources: &ResourceState, qmin: &mut Vec<f64>) -> bool {
        debug_assert!(self.pending.is_empty(), "tree read before flush");
        qmin.clear();
        qmin.resize(self.d, f64::INFINITY);
        let mut lo = self.size + from;
        let mut hi = 2 * self.size;
        while lo < hi {
            if lo & 1 == 1 {
                for (i, q) in qmin.iter_mut().enumerate() {
                    *q = q.min(self.tree[lo * self.d + i]);
                }
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                for (i, q) in qmin.iter_mut().enumerate() {
                    *q = q.min(self.tree[hi * self.d + i]);
                }
            }
            lo /= 2;
            hi /= 2;
        }
        (0..self.d).any(|i| qmin[i] > resources.available(i) + EPS)
    }
}

/// Ready jobs ordered by `(keys[job], job)`, maintained incrementally, with
/// an exact per-type requirement index for provably start-free sweep exits.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    /// Queued jobs live at `jobs[head..]`; `[0..head)` is a dead prefix
    /// left by sweeps that started the front of the queue (see `head`).
    jobs: Vec<usize>,
    /// `ranks[k]` = universe priority rank of `jobs[k]`; strictly ascending
    /// over the live region (the queue order **is** the rank order
    /// restricted to queued jobs).
    ranks: Vec<usize>,
    /// Start of the live region. A sweep that exits early after starting
    /// the head of the queue advances this instead of sliding the (long)
    /// unvisited tail left — the dominant wide-queue case costs O(starts),
    /// not O(queue). The dead prefix is reclaimed once it outgrows the
    /// live region, so memory stays O(live) amortized.
    head: usize,
    index: SuffixMinIndex,
    /// Scratch for suffix-minimum queries — reused so the per-event hot
    /// path allocates nothing.
    scratch: Vec<f64>,
}

impl ReadyQueue {
    /// An empty queue over an empty universe (nothing may be inserted).
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Builds a queue over `universe` — every job that may ever be inserted
    /// into it (all jobs for an offline run, the live frontier for a policy)
    /// — with `ready` initially queued. The universe fixes the priority
    /// ranks the requirement index is addressed by; `decision` supplies the
    /// per-job requests. Bulk-built: the initial ready set is sorted once
    /// (by rank — plain integers) instead of binary-inserted one at a time.
    pub fn with_universe(
        universe: &[usize],
        ready: Vec<usize>,
        keys: &[f64],
        decision: &[Allocation],
    ) -> Self {
        let d = universe.first().map_or(0, |&j| decision[j].dim());
        let index = SuffixMinIndex::build(universe, keys, d);
        let mut ranks: Vec<usize> = ready.iter().map(|&j| index.rank(j)).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let jobs: Vec<usize> = ranks.iter().map(|&r| index.ranked[r]).collect();
        let mut q = ReadyQueue {
            jobs,
            ranks,
            head: 0,
            index,
            scratch: Vec::new(),
        };
        for k in 0..q.jobs.len() {
            let job = q.jobs[k];
            q.index.set(q.ranks[k], &decision[job]);
        }
        q
    }

    /// The universe the queue was built over, ascending.
    pub fn universe(&self) -> &[usize] {
        &self.index.by_id
    }

    /// Number of ready jobs.
    pub fn len(&self) -> usize {
        self.jobs.len() - self.head
    }

    /// `true` iff no job is ready.
    pub fn is_empty(&self) -> bool {
        self.head == self.jobs.len()
    }

    /// The ready jobs in priority order.
    pub fn as_slice(&self) -> &[usize] {
        &self.jobs[self.head..]
    }

    /// Reclaims the dead prefix once it outgrows the live region, keeping
    /// memory O(live) while charging each element at most one extra move.
    fn maybe_compact(&mut self) {
        if self.head > self.jobs.len() - self.head {
            mrls_obs::counter_add("core.ready_queue.compactions", 1);
            self.jobs.copy_within(self.head.., 0);
            self.ranks.copy_within(self.head.., 0);
            let live = self.jobs.len() - self.head;
            self.jobs.truncate(live);
            self.ranks.truncate(live);
            self.head = 0;
        }
    }

    /// Inserts `job` (requesting `req`) at its ordered position in O(log r)
    /// integer comparisons (one memmove) and sets its leaf in the
    /// requirement index. Inserting a job that is already queued is a no-op,
    /// so a duplicate world event cannot double-queue it. `job` must belong
    /// to the universe the queue was built over.
    pub fn insert(&mut self, job: usize, keys: &[f64], req: &Allocation) {
        let rank = self.index.rank(job);
        match self.ranks[self.head..].binary_search(&rank) {
            Ok(_) => {}
            Err(pos) => {
                // Rank order is the key order restricted to the universe
                // (ranks come from sorting the universe by exactly this
                // comparator), so positioning by rank is positioning by key.
                debug_assert_eq!(
                    pos,
                    self.jobs[self.head..]
                        .partition_point(|&q| key_order(q, job, keys) == Ordering::Less),
                    "rank order diverged from key order (stale keys? resort first)"
                );
                if pos == 0 && self.head > 0 {
                    // A new front-of-queue job reuses the dead prefix slot.
                    self.head -= 1;
                    self.jobs[self.head] = job;
                    self.ranks[self.head] = rank;
                } else {
                    self.jobs.insert(self.head + pos, job);
                    self.ranks.insert(self.head + pos, rank);
                }
                self.index.set(rank, req);
            }
        }
    }

    /// Restores the order invariant after the caller's keys (and possibly
    /// allocations) changed: re-ranks the universe for the new keys,
    /// re-sorts the queue, and rebuilds the index leaves from the new
    /// requests.
    pub fn resort(&mut self, keys: &[f64], decision: &[Allocation]) {
        let universe = self.index.by_id.clone();
        self.index = SuffixMinIndex::build(&universe, keys, self.index.d);
        self.ranks = self.jobs[self.head..]
            .iter()
            .map(|&j| self.index.rank(j))
            .collect();
        self.ranks.sort_unstable();
        self.jobs = self.ranks.iter().map(|&r| self.index.ranked[r]).collect();
        self.head = 0;
        for k in 0..self.jobs.len() {
            let job = self.jobs[k];
            self.index.set(self.ranks[k], &decision[job]);
        }
    }

    /// One placement sweep of Algorithm 2 over this queue: visits jobs in
    /// priority order, starts (acquires and removes) every one that fits
    /// the availability left by the starts before it, and returns them in
    /// start order. Survivors keep their relative order via a single
    /// in-place compaction — no per-removal shifting.
    ///
    /// The sweep short-circuits — before visiting anything, and after every
    /// acquisition — as soon as the requirement index proves the unvisited
    /// remainder start-free: the suffix minimum from the next unvisited
    /// job's rank is the exact per-type minimum request over it (the queue
    /// order is the rank order, already-visited survivors sit at smaller
    /// ranks, and started jobs' leaves are cleared as they start). The exit
    /// fires exactly when an exhaustive scan would find nothing more, so
    /// the sweep is bit-identical to one by construction. Unvisited
    /// remainders of at most `SMALL` jobs are visited outright — cheaper
    /// than the proof, and trivially the same result.
    pub fn drain_fitting(
        &mut self,
        decision: &[Allocation],
        resources: &mut ResourceState,
    ) -> Vec<usize> {
        let lo = self.head;
        let n = self.jobs.len();
        if n == lo {
            return Vec::new();
        }
        if n - lo > SMALL {
            self.index.flush();
            if self.index.root_blocks(resources) {
                mrls_obs::counter_add("core.ready_queue.root_exits", 1);
                return Vec::new();
            }
        } else {
            mrls_obs::counter_add("core.ready_queue.index_bypass", 1);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut started = Vec::new();
        let (mut read, mut write) = (lo, lo);
        while read < n {
            let j = self.jobs[read];
            let r = self.ranks[read];
            read += 1;
            if resources.fits(&decision[j]) {
                resources.acquire(&decision[j]);
                self.index.clear(r);
                started.push(j);
                if n - read > SMALL {
                    self.index.flush();
                    if self
                        .index
                        .suffix_blocks(self.ranks[read], resources, &mut scratch)
                    {
                        // Early exit with a long untouched tail: slide the
                        // (short) survivor prefix right, up against the
                        // tail, and advance `head` over the gap the started
                        // jobs left — O(survivors), never O(tail).
                        let gap = read - write;
                        self.jobs.copy_within(lo..write, lo + gap);
                        self.ranks.copy_within(lo..write, lo + gap);
                        self.head = lo + gap;
                        self.scratch = scratch;
                        if mrls_obs::enabled() {
                            mrls_obs::counter_add("core.ready_queue.early_exits", 1);
                            mrls_obs::counter_add(
                                "core.ready_queue.jobs_visited",
                                (read - lo) as u64,
                            );
                            mrls_obs::counter_add(
                                "core.ready_queue.jobs_started",
                                started.len() as u64,
                            );
                        }
                        return started;
                    }
                }
            } else {
                self.jobs[write] = j;
                self.ranks[write] = r;
                write += 1;
            }
        }
        self.jobs.truncate(write);
        self.ranks.truncate(write);
        self.maybe_compact();
        self.scratch = scratch;
        if mrls_obs::enabled() {
            mrls_obs::counter_add("core.ready_queue.jobs_visited", (n - lo) as u64);
            mrls_obs::counter_add("core.ready_queue.jobs_started", started.len() as u64);
        }
        started
    }

    /// `true` iff the requirement index proves no queued job fits
    /// `resources` right now.
    pub fn none_fits(&mut self, resources: &ResourceState) -> bool {
        if self.is_empty() {
            return true;
        }
        self.index.flush();
        self.index.root_blocks(resources)
    }

    /// A full sweep (no early exit) with a caller-supplied start predicate:
    /// it never reads the requirement index, which lets the tests interleave
    /// lazy leaf updates with index reads. Started jobs are removed (and
    /// their index leaves cleared) by the same compaction as
    /// [`ReadyQueue::drain_fitting`].
    #[cfg(test)]
    fn drain_fitting_with(&mut self, mut start: impl FnMut(usize) -> bool) -> Vec<usize> {
        let mut started = Vec::new();
        let n = self.jobs.len();
        let (mut read, mut write) = (self.head, self.head);
        while read < n {
            let j = self.jobs[read];
            let r = self.ranks[read];
            read += 1;
            if start(j) {
                self.index.clear(r);
                started.push(j);
            } else {
                self.jobs[write] = j;
                self.ranks[write] = r;
                write += 1;
            }
        }
        self.jobs.truncate(write);
        self.ranks.truncate(write);
        self.maybe_compact();
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_allocs(n: usize) -> Vec<Allocation> {
        (0..n).map(|_| Allocation::new(vec![1])).collect()
    }

    fn queue_over(universe: &[usize], keys: &[f64], decision: &[Allocation]) -> ReadyQueue {
        ReadyQueue::with_universe(universe, universe.to_vec(), keys, decision)
    }

    #[test]
    fn with_universe_orders_by_key_then_index() {
        let keys = [3.0, 1.0, 2.0, 1.0];
        let q = queue_over(&[0, 1, 2, 3], &keys, &unit_allocs(4));
        assert_eq!(q.as_slice(), &[1, 3, 2, 0]);
    }

    #[test]
    fn binary_insertion_at_equal_keys_lands_in_index_order() {
        // Jobs 5, 1, 3 share a key; whatever the insertion order, the queue
        // must read 1, 3, 5 — the tie-break the offline sort produces.
        let keys = [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 9.0];
        let decision = unit_allocs(7);
        let mut q = ReadyQueue::with_universe(&[0, 1, 2, 3, 4, 5, 6], vec![], &keys, &decision);
        for j in [5, 6, 1, 3] {
            q.insert(j, &keys, &decision[j]);
        }
        assert_eq!(q.as_slice(), &[1, 3, 5, 6]);
        // A smaller key still goes first; an equal-key smaller index slots
        // between its peers.
        q.insert(0, &keys, &decision[0]);
        q.insert(2, &keys, &decision[2]);
        assert_eq!(q.as_slice(), &[0, 2, 1, 3, 5, 6]);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let keys = [1.0, 1.0];
        let decision = unit_allocs(2);
        let mut q = ReadyQueue::with_universe(&[0, 1], vec![], &keys, &decision);
        q.insert(1, &keys, &decision[1]);
        q.insert(1, &keys, &decision[1]);
        q.insert(0, &keys, &decision[0]);
        assert_eq!(q.as_slice(), &[0, 1]);
    }

    #[test]
    fn duplicate_initial_ready_set_is_deduplicated() {
        let keys = [1.0, 2.0];
        let decision = unit_allocs(2);
        let q = ReadyQueue::with_universe(&[0, 1], vec![1, 0, 1, 0], &keys, &decision);
        assert_eq!(q.as_slice(), &[0, 1]);
    }

    #[test]
    fn negative_zero_keys_compare_equal_to_positive_zero() {
        // partial_cmp(-0.0, 0.0) is Equal, so the tie-break must fall to the
        // job index — pinning the comparator the offline sort always used
        // (total_cmp would order -0.0 first and change schedules).
        let keys = [0.0, -0.0];
        let decision = unit_allocs(2);
        let mut q = ReadyQueue::with_universe(&[0, 1], vec![], &keys, &decision);
        q.insert(1, &keys, &decision[1]);
        q.insert(0, &keys, &decision[0]);
        assert_eq!(q.as_slice(), &[0, 1]);
    }

    #[test]
    fn sparse_universe_rank_lookup_falls_back_to_search() {
        // Non-contiguous universe ids exercise the binary-search rank path
        // (a policy's live frontier is rarely dense).
        let mut keys = vec![0.0; 20];
        keys[3] = 2.0;
        keys[9] = 0.5;
        keys[17] = 1.0;
        let decision = unit_allocs(20);
        let mut q = ReadyQueue::with_universe(&[3, 9, 17], vec![], &keys, &decision);
        for j in [3, 17, 9] {
            q.insert(j, &keys, &decision[j]);
        }
        assert_eq!(q.as_slice(), &[9, 17, 3]);
    }

    #[test]
    fn drain_fitting_starts_in_priority_order_and_compacts() {
        // Capacity 3; jobs 0..5 with requests 2,2,1,1,3 and FIFO keys: job 0
        // starts (1 left), job 1 (2) does not fit, job 2 (1) backfills,
        // job 3 and 4 do not fit.
        let keys = [0.0, 1.0, 2.0, 3.0, 4.0];
        let decision: Vec<Allocation> = [2u64, 2, 1, 1, 3]
            .iter()
            .map(|&u| Allocation::new(vec![u]))
            .collect();
        let mut resources = ResourceState::from_capacities(&[3]);
        let mut q = queue_over(&[0, 1, 2, 3, 4], &keys, &decision);
        let started = q.drain_fitting(&decision, &mut resources);
        assert_eq!(started, vec![0, 2]);
        assert_eq!(q.as_slice(), &[1, 3, 4]);
        // The index knows the queue minimum exactly (job 3 requests 1);
        // with nothing available the next sweep exits without visiting.
        assert!((resources.available(0) - 0.0).abs() < 1e-12);
        assert!(q.none_fits(&resources));
        assert!(q.drain_fitting(&decision, &mut resources).is_empty());
    }

    #[test]
    fn early_exit_preserves_untouched_tail() {
        // Unit jobs on capacity 1: each sweep starts exactly one job and the
        // exact suffix minimum stops it immediately after the acquisition;
        // the tail must survive in order. Sized past the small-queue bypass
        // so the indexed exit path actually runs.
        let n = SMALL + 4;
        let keys: Vec<f64> = (0..n).map(|j| j as f64).collect();
        let decision = unit_allocs(n);
        let universe: Vec<usize> = (0..n).collect();
        let mut resources = ResourceState::from_capacities(&[1]);
        let mut q = queue_over(&universe, &keys, &decision);
        assert_eq!(q.drain_fitting(&decision, &mut resources), vec![0]);
        assert_eq!(q.as_slice(), &universe[1..]);
        // Release one unit: exactly one more starts per sweep, tail intact.
        resources.release(&decision[0]);
        assert_eq!(q.drain_fitting(&decision, &mut resources), vec![1]);
        assert_eq!(q.as_slice(), &universe[2..]);
    }

    #[test]
    fn first_sweep_exits_exactly_without_any_prior_sweep() {
        // Regression for the stale-sound floor this index replaced: a fresh
        // queue used to start with an *unknown* floor, so the very first
        // sweep on a saturated machine visited every job before learning
        // nothing fits. The exact index proves it from the first query on.
        let keys = [0.0, 1.0, 2.0];
        let decision: Vec<Allocation> = [4u64, 2, 3]
            .iter()
            .map(|&u| Allocation::new(vec![u]))
            .collect();
        let mut resources = ResourceState::from_capacities(&[4]);
        resources.acquire(&Allocation::new(vec![3]));
        let mut q = queue_over(&[0, 1, 2], &keys, &decision);
        // Available 1, queue minimum 2: provably start-free with no sweep
        // ever having run.
        assert!(q.none_fits(&resources));
        assert!(q.drain_fitting(&decision, &mut resources).is_empty());
        assert_eq!(q.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn exit_bound_tracks_removals_immediately() {
        // The previously-weak case: after the cheap job leaves the queue,
        // the stale floor kept its old (now too low) minimum until a full
        // sweep happened to run. The exact index raises the bound the
        // instant the job starts: with 1 unit free and only requests >= 2
        // left, the sweep after the start is skipped outright.
        let keys = [0.0, 1.0, 2.0];
        let decision: Vec<Allocation> = [1u64, 2, 3]
            .iter()
            .map(|&u| Allocation::new(vec![u]))
            .collect();
        let mut resources = ResourceState::from_capacities(&[2]);
        let mut q = queue_over(&[0, 1, 2], &keys, &decision);
        assert_eq!(q.drain_fitting(&decision, &mut resources), vec![0]);
        assert!((resources.available(0) - 1.0).abs() < 1e-12);
        // Queue minimum is now 2 (jobs 1 and 2), available 1: exact exit.
        assert!(q.none_fits(&resources));
    }

    #[test]
    fn large_queue_exit_matches_exhaustive_scan() {
        // Past the small-queue bypass: head requests the whole machine, the
        // tail all request 2; with 1 unit free the root proves the sweep
        // start-free without visiting any of the `n` jobs.
        let n = 4 * SMALL;
        let keys: Vec<f64> = (0..n).map(|j| j as f64).collect();
        let decision: Vec<Allocation> = (0..n)
            .map(|j| Allocation::new(vec![if j == 0 { 8 } else { 2 }]))
            .collect();
        let universe: Vec<usize> = (0..n).collect();
        let mut resources = ResourceState::from_capacities(&[8]);
        resources.acquire(&Allocation::new(vec![7]));
        let mut q = queue_over(&universe, &keys, &decision);
        assert!(q.none_fits(&resources));
        assert!(q.drain_fitting(&decision, &mut resources).is_empty());
        assert_eq!(q.len(), n);
        // One more unit lets exactly one tail job start (2 free, requests
        // of 2): the suffix minimum stops the sweep right after it.
        resources.release(&Allocation::new(vec![1]));
        let started = q.drain_fitting(&decision, &mut resources);
        assert_eq!(started, vec![1]);
        assert_eq!(q.len(), n - 1);
    }

    #[test]
    fn resort_reranks_index_for_new_keys() {
        let mut keys = vec![0.0, 1.0, 2.0];
        let decision = unit_allocs(3);
        let mut resources = ResourceState::from_capacities(&[1]);
        let mut q = queue_over(&[0, 1, 2], &keys, &decision);
        assert_eq!(q.drain_fitting(&decision, &mut resources), vec![0]);
        keys.reverse();
        q.resort(&keys, &decision);
        assert_eq!(q.as_slice(), &[2, 1]);
        // The re-ranked index still proves the saturated machine start-free
        // and recovers the right job when capacity returns.
        assert!(q.drain_fitting(&decision, &mut resources).is_empty());
        resources.release(&decision[0]);
        assert_eq!(q.drain_fitting(&decision, &mut resources), vec![2]);
    }

    #[test]
    fn zero_component_requests_keep_the_exit_sound() {
        // Job 1 requests nothing of type 0; after a capacity drop makes
        // type 0 negative, nothing fits (0 > -1 + eps) and the index exit
        // must agree with the exhaustive scan.
        let keys = [0.0, 1.0];
        let decision = vec![Allocation::new(vec![2, 1]), Allocation::new(vec![0, 1])];
        let mut resources = ResourceState::from_capacities(&[2, 2]);
        let mut q = queue_over(&[0, 1], &keys, &decision);
        resources.shift_capacity(0, -3.0);
        assert!(q.drain_fitting(&decision, &mut resources).is_empty());
        assert_eq!(q.as_slice(), &[0, 1]);
        // Type 1 alone recovers job 1 (its type-0 request is zero).
        resources.shift_capacity(0, 1.0);
        assert_eq!(q.drain_fitting(&decision, &mut resources), vec![1]);
    }

    #[test]
    fn drain_fitting_with_visits_every_job() {
        let keys = [0.0, 1.0, 2.0, 3.0];
        let decision = unit_allocs(4);
        let mut q = queue_over(&[0, 1, 2, 3], &keys, &decision);
        // Start the even-indexed jobs regardless of resources: the custom
        // sweep must visit all and keep the odd tail in order.
        let started = q.drain_fitting_with(|j| j % 2 == 0);
        assert_eq!(started, vec![0, 2]);
        assert_eq!(q.as_slice(), &[1, 3]);
    }

    #[test]
    fn lazy_leaves_flush_before_every_tree_read() {
        // Interleave inserts, starts via the custom sweep (which never reads
        // the tree), and `none_fits` probes (which must see exact minima
        // despite the laziness).
        let n = 2 * SMALL;
        let keys: Vec<f64> = (0..n).map(|j| j as f64).collect();
        let decision: Vec<Allocation> = (0..n)
            .map(|j| Allocation::new(vec![(j % 3 + 1) as u64]))
            .collect();
        let universe: Vec<usize> = (0..n).collect();
        let mut q = ReadyQueue::with_universe(&universe, vec![], &keys, &decision);
        let resources = ResourceState::from_capacities(&[2]);
        for (j, req) in decision.iter().enumerate() {
            q.insert(j, &keys, req);
        }
        // Requests cycle 1,2,3: minimum is 1, so 2 units cannot be blocked.
        assert!(!q.none_fits(&resources));
        // Remove every job requesting <= 2; only the 3s remain.
        let started = q.drain_fitting_with(|j| decision[j][0] <= 2);
        assert_eq!(started.len(), (0..n).filter(|j| j % 3 < 2).count());
        assert!(q.none_fits(&resources), "only requests of 3 are left");
    }
}
