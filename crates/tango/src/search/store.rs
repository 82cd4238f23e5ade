//! The snapshot store: every saved search state of both searches — the
//! static DFS's backtracking frames and the MDFS's work and PG nodes —
//! lives here, behind plain `Copy` handles.
//!
//! The paper's §3.2 names *Save*/*Restore* as the dominant analysis
//! cost. A save moves a copy-on-write [`MachineState::snapshot`] into
//! the store (O(globals + chunk table); heap chunks are shared with the
//! live state and deep-copied lazily on first write), a restore copies
//! it back out the same way, and the last reference *takes* the state
//! without any copy.
//!
//! The store has one shard per searching thread, and each shard is
//! owned by one worker: its own mutex guarding its own slot slab,
//! intern chains, LRU queue with its own logical clock, and spill tier.
//! A worker's saves go into its own shard, so N MDFS workers do not
//! share a lock except when one restores a node it stole from another.
//! The DFS and a one-worker MDFS get one shard (its spill segments sit
//! at the spill-directory root); N workers get N shards (segments under
//! `shard{i:02}/`).
//!
//! Memory pressure changes the save path. Without a byte budget and a
//! spill tier nothing can ever be evicted, so a save skips hashing,
//! interning and the LRU entirely. Under a budget each save is keyed by
//! a fast content hash of (control state, globals, heap) — trace
//! cursors excluded — and an identical snapshot already resident in
//! the saving worker's shard is *interned* (one slot, one charge)
//! instead of stored twice.
//!
//! Residency: with a spill tier, each shard holds at most its share of
//! the `--max-mem` budget (`budget / shards`). An operation that brings
//! bytes into a shard's RAM (a save, a fault-in) evicts that shard's
//! coldest slots under the same lock until the shard fits its share.
//! Re-evicting a slot whose snapshot is already on disk is write-free
//! (the segment record is immutable), and a write failure poisons the
//! store instead of returning an error mid-save: the snapshot stays
//! resident, eviction stops, and the search degrades to
//! `Inconclusive(SpillFailure)` at its next governance check.
//!
//! The global `resident`/`spilled` gauges and their high-water marks
//! are atomics, readable lock-free by any worker (the memory-budget
//! check) and by the coordinator (heartbeats). A shard publishes its
//! net change to them only once it has settled, so the gauges only ever
//! hold sums of settled shards and the resident peak never exceeds the
//! budget.

use super::spill::{SpillCounters, SpillError, SpillTicket, SpillTier};
use crate::options::AnalysisOptions;
use crate::stats::SearchStats;
use estelle_runtime::{FxHasher, MachineState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hasher for the intern map and the DFS visited set. Their keys are
/// already well-mixed 64-bit content hashes; re-hashing them with
/// SipHash would cost more than the map operation itself.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Content hash of a machine state (control + globals + heap) — the
/// interning and spill-record key. The heap side feeds the hasher from
/// cached per-chunk digests, so hashing is O(chunks), not O(cells).
fn state_key(state: &MachineState) -> u64 {
    let mut h = FxHasher::default();
    state.control.hash(&mut h);
    state.globals.hash(&mut h);
    state.heap.hash(&mut h);
    h.finish()
}

/// Reference to one stored snapshot. Plain `Send + Sync` data — nodes
/// carry handles across worker threads; the states stay in the store.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StoreHandle {
    shard: u32,
    slot: u32,
    /// Size of the referenced snapshot. Every handle to a shared slot
    /// reports the full size (the slot is charged once; `save` returns
    /// whether this handle was a dedup hit).
    pub(crate) state_bytes: usize,
}

struct SlotEntry {
    /// Content key (also the spill record key); 0 on the pressure-free
    /// path, where nothing is hashed.
    key: u64,
    /// Resident snapshot; `None` while evicted to the shard's tier.
    state: Option<MachineState>,
    /// Claim check once the snapshot has ever been written to disk.
    ticket: Option<SpillTicket>,
    /// Bytes of the snapshot itself — what moves between gauges.
    bytes: usize,
    /// Handles outstanding; the slot is freed when this reaches 0.
    refs: u32,
    /// Last-touch stamp from the shard's logical clock; older LRU queue
    /// entries for the slot are stale and skipped.
    stamp: u64,
}

struct Shard {
    slots: Vec<Option<SlotEntry>>,
    free: Vec<u32>,
    /// Content-key intern chains: key → slot indices.
    interned: HashMap<u64, Vec<u32>, FxBuildHasher>,
    /// Cold-first eviction queue of `(slot, stamp)`.
    lru: VecDeque<(u32, u64)>,
    tier: Option<SpillTier>,
    /// This shard's logical LRU clock.
    clock: u64,
    /// Bytes of this shard's snapshots in RAM and on disk.
    resident: usize,
    spilled: usize,
}

impl Shard {
    fn new(tier: Option<SpillTier>) -> Self {
        Shard {
            slots: Vec::new(),
            free: Vec::new(),
            interned: HashMap::default(),
            lru: VecDeque::new(),
            tier,
            clock: 0,
            resident: 0,
            spilled: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn gauges(&self) -> (usize, usize) {
        (self.resident, self.spilled)
    }

    fn slot(&self, idx: u32) -> &SlotEntry {
        self.slots[idx as usize]
            .as_ref()
            .expect("live handle references a live slot")
    }

    fn slot_mut(&mut self, idx: u32) -> &mut SlotEntry {
        self.slots[idx as usize]
            .as_mut()
            .expect("live handle references a live slot")
    }

    fn insert(&mut self, entry: SlotEntry) -> u32 {
        self.resident += entry.bytes;
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Free a slot whose last reference went, unlinking it from its
    /// intern chain and uncharging its bytes wherever they live.
    fn remove(&mut self, idx: u32) -> SlotEntry {
        let entry = self.slots[idx as usize]
            .take()
            .expect("live handle references a live slot");
        self.free.push(idx);
        if let Some(chain) = self.interned.get_mut(&entry.key) {
            chain.retain(|&i| i != idx);
            if chain.is_empty() {
                self.interned.remove(&entry.key);
            }
        }
        if entry.state.is_some() {
            self.resident -= entry.bytes;
        } else {
            self.spilled -= entry.bytes;
        }
        entry
    }

    /// Fault the slot's snapshot back in from the shard tier if it is
    /// currently evicted; returns whether a fault-in happened (the
    /// caller then settles the shard before dropping the lock).
    fn fault_in(&mut self, idx: u32) -> Result<bool, SpillError> {
        if self.slot(idx).state.is_some() {
            return Ok(false);
        }
        let ticket = self
            .slot(idx)
            .ticket
            .expect("an evicted slot always holds a spill ticket");
        let tier = self
            .tier
            .as_mut()
            .expect("evicted slots only exist with a spill tier");
        let state = tier.read_state(&ticket)?;
        let entry = self.slot_mut(idx);
        entry.state = Some(state);
        let bytes = entry.bytes;
        self.resident += bytes;
        self.spilled -= bytes;
        Ok(true)
    }

    /// Evict this shard's coldest resident slots until its residency
    /// fits `share`. Running out of evictable slots degrades gracefully
    /// (the tier's contract is degradation, never a stop); a write
    /// failure keeps the snapshot resident and is returned.
    fn evict_to(&mut self, share: usize) -> Result<(), SpillError> {
        while self.resident > share {
            // Drop stale queue entries: the front must be the slot's
            // current stamp and still resident.
            let Some(&(idx, stamp)) = self.lru.front() else {
                return Ok(());
            };
            self.lru.pop_front();
            let Some(entry) = self.slots[idx as usize].as_mut() else {
                continue;
            };
            if entry.stamp != stamp || entry.state.is_none() {
                continue;
            }
            let tier = self.tier.as_mut().expect("a budget share implies a tier");
            let state = entry.state.take().expect("checked resident");
            if entry.ticket.is_none() {
                match tier.write_state(entry.key, &state) {
                    Ok(t) => entry.ticket = Some(t),
                    Err(e) => {
                        entry.state = Some(state);
                        return Err(e);
                    }
                }
            }
            tier.counters_mut().evictions += 1;
            self.resident -= entry.bytes;
            self.spilled += entry.bytes;
        }
        Ok(())
    }
}

/// Move `gauge` by a shard's net change `from → to` in one atomic step;
/// returns the gauge's new value.
fn shift(gauge: &AtomicUsize, from: usize, to: usize) -> usize {
    if to >= from {
        gauge.fetch_add(to - from, Ordering::Relaxed) + (to - from)
    } else {
        gauge.fetch_sub(from - to, Ordering::Relaxed) - (from - to)
    }
}

/// The sharded snapshot store. All methods take `&self`; per-shard
/// mutexes plus atomics make it `Sync`.
pub(crate) struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    /// Each shard's share of the byte budget, enforced by eviction —
    /// set only when a spill tier exists to evict to.
    share: Option<usize>,
    /// No budget and no tier ⇒ memory pressure is impossible: slots can
    /// never be evicted, so the content hash, the intern chains and the
    /// LRU queue buy nothing. This flag selects a plain slot-slab path
    /// that skips all three.
    fast: bool,
    resident: AtomicUsize,
    spilled: AtomicUsize,
    peak_resident: AtomicUsize,
    peak_spilled: AtomicUsize,
    intern_hits: AtomicU64,
    /// Set on the first unrecoverable spill write fault; checked
    /// lock-free by the searches at their governance point.
    poisoned: AtomicBool,
    fault: Mutex<Option<SpillError>>,
}

impl ShardedStore {
    /// Build the store for a search run by `threads` threads: one shard
    /// per thread, each with `budget / threads` of the byte budget. An
    /// unusable spill directory is reported as the earliest degradation
    /// point.
    pub(crate) fn build(
        options: &AnalysisOptions,
        deadline: Option<Instant>,
        threads: usize,
    ) -> Result<Self, SpillError> {
        let count = threads.max(1);
        let budget = options.limits.max_state_bytes;
        let mut shards = Vec::with_capacity(count);
        let mut spill_enabled = false;
        for i in 0..count {
            let subdir = (count > 1).then(|| format!("shard{:02}", i));
            let tier = options
                .spill
                .build_tier(budget, subdir.as_deref())?
                .map(|mut t| {
                    if let Some(d) = deadline {
                        t.set_deadline(d);
                    }
                    spill_enabled = true;
                    t
                });
            shards.push(Mutex::new(Shard::new(tier)));
        }
        Ok(ShardedStore {
            shards,
            share: budget.filter(|_| spill_enabled).map(|b| b / count),
            fast: budget.is_none() && !spill_enabled,
            resident: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            peak_spilled: AtomicUsize::new(0),
            intern_hits: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            fault: Mutex::new(None),
        })
    }

    /// Whether memory pressure degrades to disk (the shard tiers built).
    pub(crate) fn spill_enabled(&self) -> bool {
        self.share.is_some()
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard].lock().expect("store shard lock")
    }

    /// After an operation that brought bytes into a shard's RAM: evict
    /// the shard back under its share (a write failure poisons the
    /// store and stops eviction).
    fn settle(&self, shard: &mut Shard) {
        let Some(share) = self.share else { return };
        if self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        if let Err(e) = shard.evict_to(share) {
            self.fault.lock().expect("store fault lock").get_or_insert(e);
            self.poisoned.store(true, Ordering::Release);
        }
    }

    /// Publish a settled shard's net gauge change since `before` to the
    /// global gauges (still under the shard lock, so a concurrent
    /// uncharge of the same bytes can never land first) and note the
    /// high-water marks.
    fn publish(&self, shard: &Shard, before: (usize, usize)) {
        let (resident, spilled) = shard.gauges();
        let now = shift(&self.resident, before.0, resident);
        if resident > before.0 {
            self.peak_resident.fetch_max(now, Ordering::Relaxed);
        }
        let now = shift(&self.spilled, before.1, spilled);
        if spilled > before.1 {
            self.peak_spilled.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// *Save* a snapshot into worker `owner`'s shard; returns its handle
    /// and whether it was interned into an already-resident identical
    /// slot of that shard. Only the pressure path interns; spilled
    /// candidates never match, so a dedup check costs no disk read.
    pub(crate) fn save(&self, owner: usize, state: MachineState) -> (StoreHandle, bool) {
        let key = if self.fast { 0 } else { state_key(&state) };
        let mut shard = self.lock(owner);
        let before = shard.gauges();
        let stamp = shard.tick();
        let handle = |slot, state_bytes| StoreHandle {
            shard: owner as u32,
            slot,
            state_bytes,
        };
        if !self.fast {
            let hit = shard.interned.get(&key).and_then(|chain| {
                chain.iter().copied().find(|&idx| {
                    shard.slot(idx).state.as_ref().is_some_and(|st| *st == state)
                })
            });
            if let Some(idx) = hit {
                let entry = shard.slot_mut(idx);
                entry.refs += 1;
                entry.stamp = stamp;
                let bytes = entry.bytes;
                shard.lru.push_back((idx, stamp));
                self.intern_hits.fetch_add(1, Ordering::Relaxed);
                return (handle(idx, bytes), true);
            }
        }
        let bytes = state.approx_bytes();
        let idx = shard.insert(SlotEntry {
            key,
            state: Some(state),
            ticket: None,
            bytes,
            refs: 1,
            stamp,
        });
        if !self.fast {
            shard.interned.entry(key).or_default().push(idx);
            shard.lru.push_back((idx, stamp));
            self.settle(&mut shard);
        }
        self.publish(&shard, before);
        (handle(idx, bytes), false)
    }

    /// *Restore* a copy of the stored snapshot without consuming the
    /// handle, faulting it back in from the shard's tier first when
    /// evicted. The copy is COW: O(globals + chunk table).
    pub(crate) fn materialize(&self, h: StoreHandle) -> Result<MachineState, SpillError> {
        let mut shard = self.lock(h.shard as usize);
        if self.fast {
            let st = shard.slot(h.slot).state.as_ref();
            return Ok(st.expect("fast-path slots are always resident").snapshot());
        }
        let before = shard.gauges();
        let faulted = shard.fault_in(h.slot)?;
        let stamp = shard.tick();
        let entry = shard.slot_mut(h.slot);
        entry.stamp = stamp;
        let copy = entry.state.as_ref().expect("faulted in above").snapshot();
        shard.lru.push_back((h.slot, stamp));
        if faulted {
            self.settle(&mut shard);
            self.publish(&shard, before);
        }
        Ok(copy)
    }

    /// *Restore* consuming the handle: with the last reference the
    /// state moves out without any copy (a spilled one is read straight
    /// from its segment); a slot other handles still share is copied.
    pub(crate) fn take(&self, h: StoreHandle) -> Result<MachineState, SpillError> {
        let mut shard = self.lock(h.shard as usize);
        if shard.slot(h.slot).refs > 1 {
            drop(shard);
            let copy = self.materialize(h);
            self.release(h);
            return copy;
        }
        let before = shard.gauges();
        let entry = shard.remove(h.slot);
        self.publish(&shard, before);
        match entry.state {
            Some(state) => Ok(state),
            None => {
                let ticket = entry.ticket.expect("an evicted slot holds a ticket");
                let tier = shard.tier.as_mut().expect("evicted slots imply a tier");
                tier.read_state(&ticket)
            }
        }
    }

    /// Add one reference to a stored snapshot (a second handle).
    pub(crate) fn retain(&self, h: StoreHandle) {
        self.lock(h.shard as usize).slot_mut(h.slot).refs += 1;
    }

    /// Drop one reference; the slot (and its bytes, wherever they
    /// live) is freed with the last reference.
    pub(crate) fn release(&self, h: StoreHandle) {
        let mut shard = self.lock(h.shard as usize);
        let entry = shard.slot_mut(h.slot);
        entry.refs -= 1;
        if entry.refs > 0 {
            return;
        }
        let before = shard.gauges();
        shard.remove(h.slot);
        self.publish(&shard, before);
    }

    /// Whether an unrecoverable spill fault has occurred (lock-free).
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The poisoning spill fault, if one occurred.
    pub(crate) fn take_fault(&self) -> Option<SpillError> {
        self.fault.lock().expect("store fault lock").take()
    }

    /// Point-in-time RAM gauge (lock-free).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Point-in-time disk gauge (lock-free).
    pub(crate) fn spilled_bytes(&self) -> usize {
        self.spilled.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_resident_bytes(&self) -> usize {
        self.peak_resident.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_spilled_bytes(&self) -> usize {
        self.peak_spilled.load(Ordering::Relaxed)
    }

    pub(crate) fn intern_hits(&self) -> u64 {
        self.intern_hits.load(Ordering::Relaxed)
    }

    /// Spill counters summed across every shard tier.
    pub(crate) fn spill_counters(&self) -> SpillCounters {
        let mut total = SpillCounters::default();
        for i in 0..self.shards.len() {
            if let Some(t) = self.lock(i).tier.as_ref() {
                let c = t.counters();
                total.writes += c.writes;
                total.reads += c.reads;
                total.retries += c.retries;
                total.evictions += c.evictions;
                total.giveups += c.giveups;
            }
        }
        total
    }

    /// Degradation warnings accumulated by the shard tiers (reopen
    /// warnings such as torn crash tails).
    pub(crate) fn take_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            if let Some(t) = self.lock(i).tier.as_mut() {
                out.extend(t.take_warnings());
            }
        }
        out
    }
}

/// Counter values a resumed run carries in from its stats; the store is
/// rebuilt per run, so its own counters are added on top to keep the
/// cross-resume totals cumulative. Zero for a fresh run.
#[derive(Clone, Copy, Default)]
pub(crate) struct CarryBase {
    spill_writes: u64,
    spill_reads: u64,
    spill_retries: u64,
    spill_evictions: u64,
    spill_giveups: u64,
    intern_hits: u64,
    peak_snapshot_bytes: usize,
    peak_spilled_bytes: usize,
}

impl CarryBase {
    pub(crate) fn of(stats: &SearchStats) -> Self {
        CarryBase {
            spill_writes: stats.spill_writes,
            spill_reads: stats.spill_reads,
            spill_retries: stats.spill_retries,
            spill_evictions: stats.spill_evictions,
            spill_giveups: stats.spill_giveups,
            intern_hits: stats.intern_hits,
            peak_snapshot_bytes: stats.peak_snapshot_bytes,
            peak_spilled_bytes: stats.peak_spilled_bytes,
        }
    }
}

/// Mirror the store's gauges and counters into the run's stats, on top
/// of the resumed-in `base`. The spill counters take a lock per shard,
/// so they are only read when a tier exists.
pub(crate) fn stamp_store(stats: &mut SearchStats, base: &CarryBase, store: &ShardedStore) {
    stats.snapshot_bytes = store.resident_bytes();
    stats.peak_snapshot_bytes = base.peak_snapshot_bytes.max(store.peak_resident_bytes());
    stats.intern_hits = base.intern_hits + store.intern_hits();
    if !store.spill_enabled() {
        return;
    }
    let c = store.spill_counters();
    stats.spill_writes = base.spill_writes + c.writes;
    stats.spill_reads = base.spill_reads + c.reads;
    stats.spill_retries = base.spill_retries + c.retries;
    stats.spill_evictions = base.spill_evictions + c.evictions;
    stats.spill_giveups = base.spill_giveups + c.giveups;
    stats.spilled_bytes = store.spilled_bytes();
    stats.peak_spilled_bytes = base.peak_spilled_bytes.max(store.peak_spilled_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::spill::{SpillFaultPlan, SpillMode};
    use estelle_runtime::{Machine, Value};

    const SPEC: &str = r#"
        specification s;
        module M process; end;
        body MB for M;
            var n : integer;
            state S;
            initialize to S begin n := 0 end;
        end;
        end.
    "#;

    fn state_with(n: i64) -> MachineState {
        let m = Machine::from_source(SPEC).unwrap();
        let mut st = m.initial_state().unwrap();
        st.globals[0] = Value::Int(n);
        st.heap.alloc(Value::Int(7));
        st
    }

    fn options(budget: Option<usize>, dir: Option<std::path::PathBuf>) -> AnalysisOptions {
        let mut o = AnalysisOptions::default();
        o.limits.max_state_bytes = budget;
        if let Some(d) = dir {
            o.spill.mode = SpillMode::On;
            o.spill.dir = Some(d);
        }
        o
    }

    fn store(threads: usize, budget: Option<usize>, dir: Option<std::path::PathBuf>) -> ShardedStore {
        ShardedStore::build(&options(budget, dir), None, threads).expect("store builds")
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tango-sharded-store-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn identical_states_intern_under_memory_pressure() {
        // A budget engages the pressure path; without one the store
        // skips interning entirely (see the next test).
        let st = store(4, Some(usize::MAX), None);
        let (a, hit_a) = st.save(0, state_with(7));
        let after_first = st.resident_bytes();
        let (b, hit_b) = st.save(0, state_with(7));
        let (c, hit_c) = st.save(0, state_with(8));
        assert!(!hit_a && !hit_c);
        assert!(hit_b, "identical content must share a slot");
        assert_eq!(st.intern_hits(), 1);
        assert_eq!(b.state_bytes, a.state_bytes);
        st.release(c);
        assert_eq!(st.resident_bytes(), after_first, "a dedup hit charges nothing");
        st.release(b);
        assert_eq!(
            st.resident_bytes(),
            after_first,
            "shared slot stays charged while a reference remains"
        );
        st.release(a);
        assert_eq!(st.resident_bytes(), 0);
    }

    #[test]
    fn pressure_free_store_never_interns_but_keeps_the_gauges() {
        // No budget, no tier: the fast slab path. Identical states get
        // distinct slots, round-trip intact, and accounting balances.
        let st = store(1, None, None);
        let (a, hit_a) = st.save(0, state_with(7));
        let (b, hit_b) = st.save(0, state_with(7));
        assert!(!hit_a && !hit_b, "pressure-free saves never dedup");
        assert_eq!(st.intern_hits(), 0);
        let both = a.state_bytes + b.state_bytes;
        assert_eq!(st.resident_bytes(), both);
        assert_eq!(st.materialize(a).unwrap().globals[0], Value::Int(7));
        assert_eq!(st.materialize(b).unwrap().globals[0], Value::Int(7));
        st.release(a);
        assert_eq!(st.resident_bytes(), b.state_bytes);
        st.release(b);
        assert_eq!(st.resident_bytes(), 0);
        assert_eq!(st.peak_resident_bytes(), both);
    }

    #[test]
    fn take_moves_the_state_out_without_a_copy() {
        let st = store(1, None, None);
        let original = state_with(3);
        let (h, _) = st.save(0, original.snapshot());
        assert_eq!(st.take(h).unwrap(), original);
        assert_eq!(st.resident_bytes(), 0, "take frees the slot");
    }

    #[test]
    fn take_of_a_shared_slot_copies_and_keeps_the_other_reference() {
        let st = store(1, None, None);
        let (h, _) = st.save(0, state_with(4));
        st.retain(h);
        assert_eq!(st.take(h).unwrap().globals[0], Value::Int(4));
        assert_eq!(st.resident_bytes(), h.state_bytes, "one reference remains");
        assert_eq!(st.take(h).unwrap().globals[0], Value::Int(4));
        assert_eq!(st.resident_bytes(), 0);
    }

    #[test]
    fn one_thread_spills_at_the_directory_root_many_under_shards() {
        for (threads, nested) in [(1, false), (2, true)] {
            let dir = tmpdir(&format!("layout-{}", threads));
            let st = store(threads, Some(1), Some(dir.clone()));
            let (h, _) = st.save(0, state_with(5));
            assert_eq!(st.take(h).unwrap().globals[0], Value::Int(5));
            let at_root = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".seg"));
            assert_eq!(at_root, !nested, "threads={}", threads);
            assert_eq!(dir.join("shard00").exists(), nested, "threads={}", threads);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn budget_pressure_evicts_to_disk_and_faults_back_in() {
        let dir = tmpdir("evict");
        let one = state_with(0).approx_bytes();
        // Budget below two snapshots: saving eight forces eviction.
        let budget = one * 2;
        let st = store(1, Some(budget), Some(dir.clone()));
        let handles: Vec<_> = (0..8).map(|n| st.save(0, state_with(n)).0).collect();
        assert!(st.spilled_bytes() > 0);
        assert!(st.spill_counters().evictions > 0);
        // Every snapshot — resident or spilled — restores intact. After
        // one pass every slot has been on disk, so a second pass re-evicts
        // without writing anything.
        let mut writes = Vec::new();
        for _ in 0..2 {
            for (n, &h) in handles.iter().enumerate() {
                assert_eq!(st.materialize(h).unwrap().globals[0], Value::Int(n as i64));
            }
            writes.push(st.spill_counters().writes);
        }
        assert!(st.spill_counters().reads > 0);
        assert_eq!(writes[0], writes[1]);
        assert!(
            st.peak_resident_bytes() <= budget,
            "eviction holds RAM at the budget ({} > {})",
            st.peak_resident_bytes(),
            budget
        );
        // Taking and releasing everything returns both gauges to zero.
        for (i, h) in handles.into_iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(st.take(h).unwrap().globals[0], Value::Int(i as i64));
            } else {
                st.release(h);
            }
        }
        assert_eq!(st.resident_bytes(), 0);
        assert_eq!(st.spilled_bytes(), 0);
        assert!(st.peak_spilled_bytes() > 0);
        assert!(!st.is_poisoned());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_stays_in_the_saving_workers_shard_and_takes_its_coldest_slot() {
        let dir = tmpdir("owner");
        let one = state_with(0).approx_bytes();
        // Two workers, each with a share of three snapshots.
        let st = store(2, Some(6 * one), Some(dir.clone()));
        // Worker 1's slots are saved first and never touched again: the
        // oldest in the store, but not worker 0's to evict.
        let theirs: Vec<_> = (10..13).map(|n| st.save(1, state_with(n)).0).collect();
        let ours: Vec<_> = (0..3).map(|n| st.save(0, state_with(n)).0).collect();
        for &h in &ours[1..] {
            let _ = st.materialize(h).unwrap();
        }
        assert_eq!(st.spill_counters().evictions, 0, "both shards fit their share");
        let (_, _) = st.save(0, state_with(3));
        assert_eq!(st.spill_counters().evictions, 1);
        let reads = |st: &ShardedStore| st.spill_counters().reads;
        for &h in theirs.iter().chain(&ours[1..]) {
            let _ = st.materialize(h).unwrap();
        }
        assert_eq!(reads(&st), 0, "only worker 0's coldest slot was evicted");
        assert_eq!(st.materialize(ours[0]).unwrap().globals[0], Value::Int(0));
        assert_eq!(reads(&st), 1, "worker 0's untouched slot faults back in");
        assert!(st.peak_resident_bytes() <= 6 * one);
        assert!(!dir.join("shard01").read_dir().unwrap().any(|e| {
            e.unwrap().metadata().unwrap().len() > 12
        }), "worker 1's tier never received a record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn release_of_spilled_slot_clears_the_disk_gauge() {
        let dir = tmpdir("release-spilled");
        let st = store(1, Some(1), Some(dir.clone()));
        let (h, _) = st.save(0, state_with(9));
        assert!(st.spilled_bytes() > 0);
        st.release(h);
        assert_eq!(st.spilled_bytes(), 0);
        assert_eq!(st.resident_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peaks_track_high_water_marks() {
        let st = store(1, None, None);
        let (a, _) = st.save(0, state_with(1));
        let (b, _) = st.save(0, state_with(2));
        let peak = st.peak_resident_bytes();
        assert_eq!(peak, st.resident_bytes());
        st.release(a);
        st.release(b);
        assert_eq!(st.resident_bytes(), 0);
        assert_eq!(st.peak_resident_bytes(), peak, "peak survives releases");
    }

    #[test]
    fn write_failure_poisons_the_store_and_keeps_the_state() {
        let dir = tmpdir("poison");
        let mut o = options(Some(1), Some(dir.clone()));
        o.spill.fault_plan = Some(SpillFaultPlan {
            hard_writes_after: Some(0),
            ..SpillFaultPlan::default()
        });
        let st = ShardedStore::build(&o, None, 1).expect("store builds");
        let (h, _) = st.save(0, state_with(3));
        assert!(st.is_poisoned(), "dead disk must poison");
        let fault = st.take_fault().expect("fault recorded");
        assert!(fault.to_string().contains("disk full"), "{}", fault);
        // The snapshot never left RAM; the search can still checkpoint.
        assert_eq!(st.materialize(h).unwrap().globals[0], Value::Int(3));
        assert!(st.resident_bytes() > 0);
        // A poisoned store stops evicting instead of retrying the disk.
        let (_, _) = st.save(0, state_with(4));
        assert_eq!(st.resident_bytes(), 2 * h.state_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn content_key_separates_states_and_ignores_sharing() {
        let st = state_with(0);
        let mut other = st.clone();
        other.globals[0] = Value::Int(1);
        assert_ne!(state_key(&st), state_key(&other));
        assert_eq!(state_key(&st), state_key(&st.snapshot()));
    }
}
