//! Single-flight deduplication of in-flight work: stream recordings and
//! cell replays.
//!
//! The trace store already collapses recordings *across* runs: a published
//! entry serves every later campaign. What it cannot collapse is the window
//! *during* a run — two campaigns probing the same missing key both plan a
//! `Record` task and both pay the full application run, and two campaigns
//! sweeping the same policies over the same stream both pay every replay.
//! At fleet scale (the campaign service, many clients sharing one store)
//! that window is exactly where the duplicated work lives.
//!
//! A [`FlightRegistry`] closes it with one mechanism over two maps. A
//! *flight* is one keyed piece of work with callers interested in its
//! result: the first to claim it **leads** and produces the value, everyone
//! else **follows** and takes the leader's value when it lands. If a leader
//! unwinds, the flight goes back to idle and the next follower to look
//! claims it — a crash never strands the others. A flight lives exactly as
//! long as some caller is enlisted in it (RAII, released on unwind too), so
//! the registry is empty whenever nothing is running: it is not a cache, and
//! has no eviction, persistence or size knob.
//!
//! * **Streams**, keyed by [`TraceStoreKey`] (`FlightRegistry::obtain`,
//!   which only campaigns call, so a shared recording always carries its
//!   key's scale's hierarchy): layered over [`TraceStore::probe`]/
//!   [`TraceStore::publish`](crate::trace_store::TraceStore::publish)
//!   semantics. The leader runs the real obtain (store load, else record +
//!   publish); followers block until it lands and attach to the leader's
//!   [`Arc<RecordedRun>`] — sharing the recording without copying the trace
//!   and without touching the store. Interest lasts for the `obtain` call,
//!   so once every concurrent caller has returned, later campaigns go back
//!   to the store (and hit the published entry).
//! * **Cells**, keyed by stream key + LLC policy — everything that
//!   determines a replay's [`HierarchyStats`], since the key's scale fixes
//!   the LLC a campaign replays under. Every campaign enlists its whole grid
//!   when it plans and releases it when it returns. Its scheduler never
//!   blocks on a cell replaying elsewhere: it leaves a waker with the
//!   flight, runs its other tasks and collects the landed statistics at a
//!   later task boundary. A landed result stays
//!   until the last campaign that enlisted the cell returns. Only the
//!   policy-dependent statistics are shared; every follower assembles its
//!   `RunResult` over its own stream's application output.
//!
//! Every campaign runs through a registry: the one shared with
//! [`Campaign::with_single_flight`](crate::campaign::Campaign::with_single_flight)
//! (the campaign service hands its one registry to every client campaign),
//! or a private one for a single run, which dedups only the run's own twin
//! cells (a policy its grid names twice). There is no uncoordinated path.
//!
//! [`TraceStore::probe`]: crate::trace_store::TraceStore::probe

use crate::experiment::RecordedRun;
use crate::policy::PolicyKind;
use crate::trace_store::TraceStoreKey;
use grasp_cachesim::stats::HierarchyStats;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How one obtain call was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlightServed {
    /// This caller recorded the stream itself (it led the flight and the
    /// store missed). Exactly one caller per key reports this while the
    /// flight is shared.
    Recorded,
    /// The trace store served the stream; nothing was recorded.
    StoreHit,
    /// Another in-flight caller's recording was shared: this caller waited
    /// on the leader and attached to its [`Arc<RecordedRun>`].
    Attached,
}

/// Called once when a flight its owner left it with lands or aborts, with
/// no registry lock held. Must not panic (an aborting leader calls it while
/// unwinding).
pub(crate) type Wake = Arc<dyn Fn() + Send + Sync>;

/// One flight: followers park on `resolved` (or leave a [`Wake`]) until the
/// leader moves the phase away from `Pending`.
struct FlightSlot<V> {
    state: Mutex<SlotState<V>>,
    resolved: Condvar,
}

struct SlotState<V> {
    phase: Phase<V>,
    /// Followers that did not block; rung and forgotten when the flight
    /// resolves.
    watchers: Vec<Wake>,
}

enum Phase<V> {
    /// Nobody is producing the value: never claimed, or the leader unwound.
    Idle,
    Pending,
    Landed(V),
}

/// What [`FlightSlot::claim`] found.
pub(crate) enum Claim<'a, V> {
    /// The flight was idle: the caller leads it now.
    Lead(Lead<'a, V>),
    /// The flight has landed; this is the leader's value.
    Landed(V),
    /// Another caller is leading the flight right now.
    InFlight,
}

impl<V> FlightSlot<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState {
                phase: Phase::Idle,
                watchers: Vec::new(),
            }),
            resolved: Condvar::new(),
        }
    }

    /// The state is a phase and a list, each valid after any single
    /// assignment, so a poisoned lock (which `Lead`'s drop must survive)
    /// still guards consistent data.
    fn lock(&self) -> MutexGuard<'_, SlotState<V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn in_flight(&self) -> bool {
        matches!(self.lock().phase, Phase::Pending)
    }

    /// Blocks while another caller leads the flight.
    fn wait(&self) {
        let mut state = self.lock();
        while matches!(state.phase, Phase::Pending) {
            state = self
                .resolved
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ends the leader's turn and wakes every follower, parked or not.
    fn resolve(&self, phase: Phase<V>) {
        let watchers = {
            let mut state = self.lock();
            state.phase = phase;
            std::mem::take(&mut state.watchers)
        };
        self.resolved.notify_all();
        for wake in watchers {
            wake();
        }
    }
}

impl<V: Clone> FlightSlot<V> {
    /// Leads an idle flight, takes a landed one's value, or — the flight
    /// being led elsewhere — leaves `watcher` to be rung when it resolves.
    fn claim(&self, watcher: Option<&Wake>) -> Claim<'_, V> {
        let mut state = self.lock();
        match &state.phase {
            Phase::Idle => {
                state.phase = Phase::Pending;
                Claim::Lead(Lead {
                    slot: self,
                    landed: false,
                })
            }
            Phase::Landed(value) => Claim::Landed(value.clone()),
            Phase::Pending => {
                state.watchers.extend(watcher.cloned());
                Claim::InFlight
            }
        }
    }
}

/// The leader's hold on a flight: [`Lead::land`] hands the value to the
/// followers; dropping it any other way — the leader unwound — returns the
/// flight to idle, so the first follower to claim it again leads.
pub(crate) struct Lead<'a, V> {
    slot: &'a FlightSlot<V>,
    landed: bool,
}

impl<V> Lead<'_, V> {
    /// Lands the flight: every follower, present and future, gets `value`.
    pub(crate) fn land(mut self, value: V) {
        self.landed = true;
        self.slot.resolve(Phase::Landed(value));
    }
}

impl<V> Drop for Lead<'_, V> {
    fn drop(&mut self) {
        if !self.landed {
            self.slot.resolve(Phase::Idle);
        }
    }
}

/// Why the flight map's lock can be `expect`ed: nothing under it can panic.
const NEVER_POISONED: &str = "flight map never poisoned: only map edits run under its lock";

/// The flights some caller is currently enlisted in, by key.
struct Flights<K, V> {
    enlisted: Mutex<HashMap<K, Enlisted<V>>>,
}

struct Enlisted<V> {
    interested: usize,
    slot: Arc<FlightSlot<V>>,
}

impl<K, V> Default for Flights<K, V> {
    fn default() -> Self {
        Self {
            enlisted: Mutex::default(),
        }
    }
}

impl<K, V> std::fmt::Debug for Flights<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flights").finish_non_exhaustive()
    }
}

impl<K: Copy + Eq + Hash, V> Flights<K, V> {
    /// Registers the caller's interest in `keys` (creating idle flights for
    /// the ones nobody else holds) until the returned guard drops.
    fn enlist(&self, keys: impl IntoIterator<Item = K>) -> Interest<'_, K, V> {
        let mut enlisted = self.enlisted.lock().expect(NEVER_POISONED);
        let slots = keys
            .into_iter()
            .map(|key| {
                let entry = enlisted.entry(key).or_insert_with(|| Enlisted {
                    interested: 0,
                    slot: Arc::new(FlightSlot::new()),
                });
                entry.interested += 1;
                (key, Arc::clone(&entry.slot))
            })
            .collect();
        Interest {
            flights: self,
            slots,
        }
    }

    fn len(&self) -> usize {
        self.enlisted.lock().expect(NEVER_POISONED).len()
    }
}

/// One caller's enlistment in a set of flights, in the order it named them.
/// Dropping it releases them; a flight nobody is enlisted in any more is
/// forgotten together with its landed value.
struct Interest<'a, K: Eq + Hash, V> {
    flights: &'a Flights<K, V>,
    slots: Vec<(K, Arc<FlightSlot<V>>)>,
}

impl<K: Eq + Hash, V> Interest<'_, K, V> {
    /// The flight of the `index`-th key the caller enlisted.
    fn slot(&self, index: usize) -> &FlightSlot<V> {
        &self.slots[index].1
    }
}

impl<K: Eq + Hash, V> Drop for Interest<'_, K, V> {
    fn drop(&mut self) {
        let Ok(mut enlisted) = self.flights.enlisted.lock() else {
            return;
        };
        for (key, _) in &self.slots {
            if let Some(entry) = enlisted.get_mut(key) {
                entry.interested -= 1;
                if entry.interested == 0 {
                    enlisted.remove(key);
                }
            }
        }
    }
}

/// What determines one cell's replay statistics: the stream (whose scale
/// fixes the LLC geometry), and the LLC policy replayed over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CellKey {
    pub(crate) stream: TraceStoreKey,
    pub(crate) policy: PolicyKind,
}

/// Counters of how a registry's flights were served (see
/// [`FlightRegistry::stats`]). `recorded` and `cells_replayed` count work
/// actually executed — the numbers the single-flight guarantee bounds at
/// one per unique key among overlapping campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightStats {
    /// Flights this registry's leaders actually recorded.
    pub recorded: u64,
    /// Flights a leader resolved straight from the trace store.
    pub store_hits: u64,
    /// Obtain calls served by attaching to another caller's in-flight
    /// recording (the deduplicated work).
    pub attached: u64,
    /// Cell replays this registry's leaders executed.
    pub cells_replayed: u64,
    /// Cells served with another campaign's replay statistics (the
    /// deduplicated replays).
    pub cells_shared: u64,
    /// Cells some running campaign is enlisted in right now — replaying,
    /// landed and retained, or not yet reached. Zero whenever no campaign
    /// is running.
    pub cells_inflight: u64,
}

/// An in-flight registry deduplicating concurrent recordings by
/// [`TraceStoreKey`] and concurrent replays by stream key + policy. Share
/// one instance (behind an `Arc`) across every campaign that should
/// coordinate — the campaign service hands the same registry to all client
/// campaigns via
/// [`Campaign::with_single_flight`](crate::campaign::Campaign::with_single_flight).
#[derive(Debug, Default)]
pub struct FlightRegistry {
    streams: Flights<TraceStoreKey, Arc<RecordedRun>>,
    cells: Flights<CellKey, HierarchyStats>,
    recorded: AtomicU64,
    store_hits: AtomicU64,
    attached: AtomicU64,
    cells_replayed: AtomicU64,
    cells_shared: AtomicU64,
}

impl FlightRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the registry's service counters.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            attached: self.attached.load(Ordering::Relaxed),
            cells_replayed: self.cells_replayed.load(Ordering::Relaxed),
            cells_shared: self.cells_shared.load(Ordering::Relaxed),
            cells_inflight: self.cells.len() as u64,
        }
    }

    /// Obtains the stream for `key`, deduplicating against every concurrent
    /// call with the same key. `produce` is the uncoordinated obtain (store
    /// load, else record + publish) returning the recording and whether the
    /// store served it; it runs on **at most one** caller per key at a time
    /// — everyone else blocks and attaches to the winner's recording.
    pub(crate) fn obtain(
        &self,
        key: TraceStoreKey,
        produce: impl FnOnce() -> (RecordedRun, bool),
    ) -> (Arc<RecordedRun>, FlightServed) {
        let interest = self.streams.enlist([key]);
        let slot = interest.slot(0);
        let mut produce = Some(produce);
        loop {
            match slot.claim(None) {
                Claim::Lead(lead) => {
                    let (recorded, store_hit) =
                        (produce.take().expect("a caller leads at most once"))();
                    let recorded = Arc::new(recorded);
                    lead.land(Arc::clone(&recorded));
                    let served = if store_hit {
                        self.store_hits.fetch_add(1, Ordering::Relaxed);
                        FlightServed::StoreHit
                    } else {
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        FlightServed::Recorded
                    };
                    return (recorded, served);
                }
                Claim::Landed(recorded) => {
                    self.attached.fetch_add(1, Ordering::Relaxed);
                    return (recorded, FlightServed::Attached);
                }
                // Woken by a landing or by the leader unwinding: claim
                // again, and in the second case lead.
                Claim::InFlight => slot.wait(),
            }
        }
    }

    /// Enlists a campaign in the replays of its grid, one key per cell in
    /// grid order, for as long as the returned guard lives.
    pub(crate) fn enlist_cells(&self, keys: impl IntoIterator<Item = CellKey>) -> CellInterest<'_> {
        CellInterest {
            registry: self,
            interest: self.cells.enlist(keys),
        }
    }
}

/// A running campaign's enlistment in its cells' replays (see
/// [`FlightRegistry::enlist_cells`]); cells are named by grid index.
pub(crate) struct CellInterest<'a> {
    registry: &'a FlightRegistry,
    interest: Interest<'a, CellKey, HierarchyStats>,
}

impl CellInterest<'_> {
    /// Claims one cell's replay without blocking. When another campaign is
    /// replaying it, `wake` is rung once that replay lands or aborts.
    pub(crate) fn claim(&self, cell: usize, wake: &Wake) -> Claim<'_, HierarchyStats> {
        let claim = self.interest.slot(cell).claim(Some(wake));
        if matches!(claim, Claim::Landed(_)) {
            self.registry.cells_shared.fetch_add(1, Ordering::Relaxed);
        }
        claim
    }

    /// Lands the replay this campaign led.
    pub(crate) fn land(&self, lead: Lead<'_, HierarchyStats>, stats: HierarchyStats) {
        self.registry.cells_replayed.fetch_add(1, Ordering::Relaxed);
        lead.land(stats);
    }

    /// Whether another campaign is replaying the cell right now.
    pub(crate) fn in_flight(&self, cell: usize) -> bool {
        self.interest.slot(cell).in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetKind, Scale};
    use crate::experiment::Experiment;
    use grasp_analytics::apps::AppKind;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn test_key(config_hash: u64) -> TraceStoreKey {
        let hierarchy = Scale::Tiny.hierarchy();
        let experiment = Experiment::new(
            DatasetKind::Twitter.build(Scale::Tiny).graph,
            AppKind::PageRank,
        );
        let mut key = TraceStoreKey::new(
            DatasetKind::Twitter,
            Scale::Tiny,
            grasp_reorder::TechniqueKind::Dbg,
            AppKind::PageRank,
            &hierarchy,
            experiment.app_config(),
        );
        key.config_hash = config_hash;
        key
    }

    fn record_tiny() -> RecordedRun {
        Experiment::new(
            DatasetKind::Twitter.build(Scale::Tiny).graph,
            AppKind::PageRank,
        )
        .with_hierarchy(Scale::Tiny.hierarchy())
        .record()
    }

    #[test]
    fn concurrent_same_key_obtains_record_once() {
        let registry = FlightRegistry::new();
        let produced = AtomicUsize::new(0);
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let (recorded, _) = registry.obtain(test_key(7), || {
                        produced.fetch_add(1, Ordering::Relaxed);
                        // A real recording takes long enough that siblings
                        // reliably pile onto the same flight.
                        (record_tiny(), false)
                    });
                    assert!(!recorded.trace().is_empty());
                });
            }
        });
        let stats = registry.stats();
        assert_eq!(
            stats.recorded + stats.attached,
            threads,
            "every obtain is served exactly once"
        );
        assert_eq!(
            produced.load(Ordering::Relaxed) as u64,
            stats.recorded,
            "produce runs once per recording"
        );
        // All entries drain once the callers have returned.
        assert_eq!(registry.streams.len(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let registry = FlightRegistry::new();
        let (a, served_a) = registry.obtain(test_key(1), || (record_tiny(), false));
        let (b, served_b) = registry.obtain(test_key(2), || (record_tiny(), true));
        assert_eq!(served_a, FlightServed::Recorded);
        assert_eq!(served_b, FlightServed::StoreHit);
        assert!(!Arc::ptr_eq(&a, &b));
        let stats = registry.stats();
        assert_eq!(stats.recorded, 1);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.attached, 0);
    }

    #[test]
    fn waiters_share_the_leaders_arc() {
        let registry = Arc::new(FlightRegistry::new());
        let results: Vec<Arc<RecordedRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let registry = Arc::clone(&registry);
                    scope.spawn(move || registry.obtain(test_key(9), || (record_tiny(), false)).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Replays through shared and freshly recorded runs agree bit for bit.
        let reference = results[0].replay(PolicyKind::Rrip);
        for recorded in &results[1..] {
            let replayed = recorded.replay(PolicyKind::Rrip);
            assert_eq!(reference.stats, replayed.stats);
        }
    }

    #[test]
    fn aborted_leader_hands_the_flight_to_a_waiter() {
        let registry = Arc::new(FlightRegistry::new());
        let key = test_key(3);
        // Leader panics mid-produce; the waiter must take over and succeed.
        let barrier = Arc::new(Barrier::new(2));
        let leader_registry = Arc::clone(&registry);
        let leader_barrier = Arc::clone(&barrier);
        let leader = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                leader_registry.obtain(key, || {
                    leader_barrier.wait(); // waiter is parked (or about to be)
                    panic!("recording failed");
                })
            }));
            assert!(result.is_err());
        });
        // Detached, so a waiter the abort failed to release fails the test
        // on the timeout instead of hanging it on a join.
        let (served, waiter) = mpsc::channel();
        let waiter_registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            barrier.wait();
            served.send(waiter_registry.obtain(key, || (record_tiny(), false)))
        });
        leader.join().unwrap();
        let (recorded, served) = waiter.recv_timeout(STRANDED).expect("never stranded");
        assert!(!recorded.trace().is_empty());
        // The waiter either retried as the new leader or (if it arrived
        // after the abort) led from the start.
        assert_eq!(served, FlightServed::Recorded);
        assert_eq!(registry.streams.len(), 0);
    }

    fn cell_key(policy: PolicyKind) -> CellKey {
        CellKey {
            stream: test_key(5),
            policy,
        }
    }

    fn stats_with_misses(misses: u64) -> HierarchyStats {
        let mut stats = HierarchyStats::default();
        stats.llc.misses = misses;
        stats
    }

    /// A waker for a test thread, and the receiver it rings. Followers wait
    /// with a timeout, so a flight that never resolves fails the test
    /// instead of hanging it.
    fn doorbell() -> (Wake, mpsc::Receiver<()>) {
        let (ring, rung) = mpsc::channel();
        let ring = Mutex::new(ring);
        let wake: Wake = Arc::new(move || {
            ring.lock().expect("the bell does not panic").send(()).ok();
        });
        (wake, rung)
    }

    const STRANDED: Duration = Duration::from_secs(30);

    #[test]
    fn concurrent_claims_on_one_cell_replay_once() {
        let registry = FlightRegistry::new();
        let produced = AtomicUsize::new(0);
        let threads = 6;
        // Everyone is enlisted before anyone claims and until everyone is
        // served: the overlap a landed result is retained across.
        let enlisted = Barrier::new(threads);
        let served = Barrier::new(threads);
        let results: Vec<HierarchyStats> = std::thread::scope(|scope| {
            let followers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let interest = registry.enlist_cells([cell_key(PolicyKind::Grasp)]);
                        let (wake, rung) = doorbell();
                        enlisted.wait();
                        let stats = loop {
                            match interest.claim(0, &wake) {
                                Claim::Lead(lead) => {
                                    produced.fetch_add(1, Ordering::SeqCst);
                                    let stats = stats_with_misses(42);
                                    interest.land(lead, stats.clone());
                                    break stats;
                                }
                                Claim::Landed(stats) => break stats,
                                Claim::InFlight => rung.recv_timeout(STRANDED).expect("woken"),
                            }
                        };
                        served.wait();
                        stats
                    })
                })
                .collect();
            followers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(produced.load(Ordering::SeqCst), 1, "one replay per cell");
        assert!(results.iter().all(|stats| *stats == stats_with_misses(42)));
        let stats = registry.stats();
        assert_eq!(stats.cells_replayed, 1);
        assert_eq!(stats.cells_shared, threads as u64 - 1);
        assert_eq!(stats.cells_inflight, 0);
    }

    #[test]
    fn aborted_cell_leader_hands_the_replay_to_a_follower() {
        let registry = FlightRegistry::new();
        let key = cell_key(PolicyKind::Rrip);
        // The leader holds the cell until both followers have left their
        // wakers with it, then unwinds.
        let watching = Barrier::new(3);
        let produced = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let leader_interest = registry.enlist_cells([key]);
            let (unused, _) = doorbell();
            let Claim::Lead(lead) = leader_interest.claim(0, &unused) else {
                panic!("the first claim leads");
            };
            let followers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let interest = registry.enlist_cells([key]);
                        let (wake, rung) = doorbell();
                        assert!(matches!(interest.claim(0, &wake), Claim::InFlight));
                        assert!(interest.in_flight(0));
                        watching.wait();
                        loop {
                            rung.recv_timeout(STRANDED)
                                .expect("an unwinding leader wakes its followers");
                            match interest.claim(0, &wake) {
                                Claim::Lead(lead) => {
                                    produced.fetch_add(1, Ordering::SeqCst);
                                    interest.land(lead, stats_with_misses(7));
                                    return stats_with_misses(7);
                                }
                                Claim::Landed(stats) => return stats,
                                Claim::InFlight => {}
                            }
                        }
                    })
                })
                .collect();
            watching.wait();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _lead = lead;
                panic!("replay failed");
            }));
            assert!(unwound.is_err());
            for follower in followers {
                assert_eq!(follower.join().unwrap(), stats_with_misses(7));
            }
        });
        assert_eq!(produced.load(Ordering::SeqCst), 1, "one follower took over");
        assert_eq!(registry.stats().cells_replayed, 1);
        assert_eq!(registry.stats().cells_shared, 1);
        assert_eq!(registry.cells.len(), 0);
    }

    #[test]
    fn a_landed_cell_lives_exactly_as_long_as_someone_is_enlisted() {
        let registry = FlightRegistry::new();
        let keys = [cell_key(PolicyKind::Lru), cell_key(PolicyKind::Grasp)];
        let (wake, _rung) = doorbell();
        let first = registry.enlist_cells(keys);
        let second = registry.enlist_cells([keys[1]]);
        assert_eq!(registry.stats().cells_inflight, 2);
        for cell in 0..2 {
            let Claim::Lead(lead) = first.claim(cell, &wake) else {
                panic!("an idle cell is led by its first claimant");
            };
            first.land(lead, stats_with_misses(cell as u64));
        }
        // The leader returns: the cell only it wanted goes with it, the one
        // the other campaign still wants stays.
        drop(first);
        assert_eq!(registry.stats().cells_inflight, 1);
        assert!(matches!(
            second.claim(0, &wake),
            Claim::Landed(stats) if stats == stats_with_misses(1)
        ));
        drop(second);
        assert_eq!(registry.cells.len(), 0, "no retention beyond interest");
        // Not a cache: the next campaign to want the cell replays it.
        let later = registry.enlist_cells([keys[1]]);
        assert!(matches!(later.claim(0, &wake), Claim::Lead(_)));
    }
}
