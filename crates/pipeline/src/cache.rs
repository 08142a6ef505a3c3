//! The shared in-memory result cache, keyed by measure.
//!
//! Workers deposit `(s, L(s))` pairs as they finish; the master reads the
//! complete cache to perform the final inversions.  The cache also answers "has
//! this point already been computed *for this measure*?" so that a checkpoint
//! restore (or overlapping time grids across successive queries) skips
//! redundant work — the paper caches results "both in memory and on disk so
//! that all computation is checkpointed", and caches them "both within and
//! across successive queries".
//!
//! Values are organised in *shards*: one [`TransformValues`] per **transform
//! key**.  Measures that evaluate the same underlying transform (say, the
//! density and the CDF of the same passage) can share a key and therefore share
//! evaluations; unrelated measures get distinct keys so their values never
//! collide even when their `s`-points coincide.
//!
//! ## Bounded operation
//!
//! One-shot runs build a cache, use it, and drop it, so the unbounded default
//! is fine there.  The always-on query server ([`crate::server`]) keeps one
//! cache alive across every request it ever answers, so it opts into a byte
//! limit (`ResultCache::with_byte_limit`): each shard's footprint is
//! approximated from its entry count and key length, and when an insert pushes
//! the total past the limit, whole shards are evicted least-recently-used
//! first (shard granularity — a transform's values are only useful together).
//! The most recently touched shard is never evicted, so a single request whose
//! working set exceeds the limit still completes; the limit should nonetheless
//! be sized well above the largest expected per-request working set.

use crate::unpoisoned;
use smp_core::query::MeasureReport;
use smp_laplace::MeasureKind;
use smp_laplace::{InversionMethod, TransformValues};
use smp_numeric::Complex64;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Approximate heap bytes per cached `(s, L(s))` entry: two `Complex64`s plus
/// ordered-map node overhead.  The figure is deliberately conservative (an
/// overestimate keeps a limited cache *under* its limit).
pub(crate) const APPROX_BYTES_PER_ENTRY: usize = 64;

/// Answers a [`ResultCache`] remembers.  An answer is a few floats, so the
/// memo is sized by what keeps its linear scan trivial, like the server's
/// routing memo, not by the cache's byte limit.
const ANSWER_MEMO_SLOTS: usize = 256;

/// What an answer reads of the transform: a measure with a fixed plan (a
/// curve on its grid, a moment on its stencil), or a quantile search for
/// the probabilities with these bits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AnswerKind {
    Planned(MeasureKind),
    Quantile(Vec<u64>),
}

/// Everything an answer depends on: the engine that found it (the server
/// builds each with fixed settings, so its name pins them), what it reads,
/// the bits of the grid it reads it on (a curve's `t`-points, a quantile
/// search's initial horizon, nothing for a moment, whose stencil is fixed
/// by its order), the method that plans the grid, and the transform it
/// reads.  Fields compare in declaration order, the cheap ones first.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AnswerKey {
    pub(crate) engine: &'static str,
    pub(crate) kind: AnswerKind,
    pub(crate) grid: Vec<u64>,
    pub(crate) method: InversionMethod,
    pub(crate) transform: String,
}

/// A thread-safe, measure-keyed collection of [`TransformValues`] shards,
/// optionally bounded by an approximate byte limit with least-recently-used
/// shard eviction, and the query server's memo of the answers it gave.
#[derive(Debug)]
pub struct ResultCache {
    shards: RwLock<BTreeMap<String, TransformValues>>,
    /// Approximate byte ceiling; `None` (the default) grows without bound.
    limit_bytes: Option<usize>,
    /// Recency stamps per shard key, advanced by the logical clock below on
    /// every touch (insert or lookup).  Kept outside the shard lock so read
    /// paths can bump recency without taking the write lock on the data.
    stamps: Mutex<BTreeMap<String, u64>>,
    clock: AtomicU64,
    /// Every answer a served engine gave — curve, moment or quantile, on
    /// any engine — as the report a repeat replies with.
    answers: LruMemo<AnswerKey, MeasureReport>,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache {
            shards: RwLock::default(),
            limit_bytes: None,
            stamps: Mutex::default(),
            clock: AtomicU64::default(),
            answers: LruMemo::new(ANSWER_MEMO_SLOTS),
        }
    }
}

impl ResultCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Creates an empty cache that evicts least-recently-used shards once its
    /// approximate footprint exceeds `limit_bytes`: entry counts and key
    /// lengths, allocator slack not measured.
    pub(crate) fn with_byte_limit(limit_bytes: usize) -> Self {
        ResultCache {
            limit_bytes: Some(limit_bytes),
            ..ResultCache::default()
        }
    }

    /// Creates a cache from a full measure-keyed restore
    /// (see `checkpoint::load_checkpoint_by_measure`).
    pub(crate) fn from_shards(shards: BTreeMap<String, TransformValues>) -> Self {
        ResultCache {
            shards: RwLock::new(shards),
            ..ResultCache::default()
        }
    }

    /// Advances the logical clock and stamps `key` as the most recently used
    /// shard.
    fn touch(&self, key: &str) {
        // Relaxed is fine: the clock only needs to be monotonic, not ordered
        // with respect to the data it stamps.
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut stamps = unpoisoned(self.stamps.lock());
        match stamps.get_mut(key) {
            Some(stamp) => *stamp = now,
            None => {
                stamps.insert(key.to_string(), now);
            }
        }
    }

    /// Approximate footprint of one shard.
    fn shard_bytes(key: &str, shard: &TransformValues) -> usize {
        key.len() + shard.len() * APPROX_BYTES_PER_ENTRY
    }

    /// Approximate total footprint of every shard, in bytes.
    #[cfg(test)]
    fn approx_bytes(&self) -> usize {
        unpoisoned(self.shards.read())
            .iter()
            .map(|(key, shard)| ResultCache::shard_bytes(key, shard))
            .sum()
    }

    /// Evicts least-recently-used shards until the footprint fits the limit.
    /// The most recently touched shard is exempt, so one oversized working set
    /// degrades to "no cross-request reuse" instead of failing its own run.
    fn enforce_limit(&self) {
        let Some(limit) = self.limit_bytes else {
            return;
        };
        let mut shards = unpoisoned(self.shards.write());
        let mut total: usize = shards
            .iter()
            .map(|(key, shard)| ResultCache::shard_bytes(key, shard))
            .sum();
        while total > limit && shards.len() > 1 {
            // Victim: the live shard with the oldest stamp, ties broken by key
            // order (both maps iterate in key order, so the choice is
            // deterministic).  A shard without a stamp sorts oldest; the shard
            // carrying the newest stamp is exempt.
            let victim = {
                let stamps = unpoisoned(self.stamps.lock());
                let newest = shards
                    .keys()
                    .map(|key| stamps.get(key).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                shards
                    .keys()
                    .map(|key| (stamps.get(key).copied().unwrap_or(0), key))
                    .filter(|(stamp, _)| *stamp < newest)
                    .min()
                    .map(|(_, key)| key.clone())
            };
            let Some(victim) = victim else {
                break; // every shard shares the newest stamp; nothing safe to drop
            };
            if let Some(shard) = shards.remove(&victim) {
                total = total.saturating_sub(ResultCache::shard_bytes(&victim, &shard));
            }
            unpoisoned(self.stamps.lock()).remove(&victim);
        }
    }

    /// Stores a computed value under a transform key.
    pub fn insert(&self, key: &str, s: Complex64, value: Complex64) {
        {
            let mut shards = unpoisoned(self.shards.write());
            match shards.get_mut(key) {
                Some(shard) => shard.insert(s, value),
                None => {
                    let mut shard = TransformValues::new();
                    shard.insert(s, value);
                    shards.insert(key.to_string(), shard);
                }
            }
        }
        self.touch(key);
        self.enforce_limit();
    }

    /// Looks up a previously computed value for a transform key.
    pub fn get(&self, key: &str, s: Complex64) -> Option<Complex64> {
        let value = unpoisoned(self.shards.read())
            .get(key)
            .and_then(|shard| shard.get(s));
        if value.is_some() {
            self.touch(key);
        }
        value
    }

    /// True when the point has already been computed for the transform key.
    pub fn contains(&self, key: &str, s: Complex64) -> bool {
        let hit = unpoisoned(self.shards.read())
            .get(key)
            .is_some_and(|shard| shard.contains(s));
        if hit {
            self.touch(key);
        }
        hit
    }

    /// Total number of stored values across all shards.
    pub fn len(&self) -> usize {
        unpoisoned(self.shards.read())
            .values()
            .map(TransformValues::len)
            .sum()
    }

    /// Number of values stored for one transform key.
    #[cfg(test)]
    fn shard_len(&self, key: &str) -> usize {
        unpoisoned(self.shards.read())
            .get(key)
            .map_or(0, TransformValues::len)
    }

    /// True when no values are stored at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The transform keys that currently have a shard (sorted, for
    /// deterministic reporting).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = unpoisoned(self.shards.read()).keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Takes a consistent snapshot of one transform key's values covering
    /// `points` (a point not cached is absent; empty when the key has no
    /// shard).  Copying the whole shard is one bulk build, about a tenth of
    /// the per-entry cost of picking points out one by one (≈5 ns against
    /// ≈65 ns), so only a plan that is a small part of its shard is picked —
    /// a mean's two stencil points do not pay for the tens of thousands a
    /// quantile search left under the same key.
    pub(crate) fn snapshot(&self, key: &str, points: &[Complex64]) -> TransformValues {
        let snapshot = match unpoisoned(self.shards.read()).get(key) {
            Some(shard) if shard.len() > 8 * points.len() => {
                let mut picked = TransformValues::new();
                for &s in points {
                    if let Some(value) = shard.get(s) {
                        picked.insert(s, value);
                    }
                }
                picked
            }
            Some(shard) => shard.clone(),
            None => TransformValues::new(),
        };
        if !snapshot.is_empty() {
            self.touch(key);
        }
        snapshot
    }

    /// The report remembered under `key`, if any, stamped most recently
    /// used.
    pub(crate) fn remembered(&self, key: &AnswerKey) -> Option<MeasureReport> {
        self.answers.get(key)
    }

    /// Remembers `report` under `key`, unless a report is there already.
    pub(crate) fn remember(&self, key: AnswerKey, report: MeasureReport) {
        let Ok(_) = self
            .answers
            .get_or_insert_with(key, || Ok::<_, Infallible>(report));
    }

    /// Answers currently remembered.
    #[cfg(test)]
    pub(crate) fn remembered_answers(&self) -> usize {
        self.answers.len()
    }

    /// Forgets every remembered answer, so the next solve of each runs over
    /// the cached values.
    #[cfg(test)]
    pub(crate) fn forget_answers(&self) {
        unpoisoned(self.answers.slots.lock()).slots.clear();
    }
}

/// A bounded, thread-safe least-recently-used memo — the one cache behind
/// [`crate::transform::ModelCache`], `crate::engine::PhaseChainCache`,
/// the query server's `--engine auto` routing memo and the answers a
/// [`ResultCache`] remembers.
///
/// Recency is a logical clock stamped on every lookup, so the resident set
/// after any sequence of operations is deterministic.  Values are handed out
/// as clones; the heavy ones are `Arc`s, so every holder shares one
/// allocation.
pub struct LruMemo<K, V> {
    capacity: usize,
    slots: Mutex<LruSlots<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The clock and the resident `(key, stamp, value)` slots, behind the lock.
struct LruSlots<K, V> {
    clock: u64,
    slots: Vec<(K, u64, V)>,
}

impl<K: PartialEq, V: Clone> LruSlots<K, V> {
    /// Finds `key` and restamps it most recently used.
    fn touch(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        let slot = self.slots.iter_mut().find(|slot| slot.0 == *key)?;
        slot.1 = self.clock;
        Some(slot.2.clone())
    }
}

impl<K: PartialEq, V: Clone> LruMemo<K, V> {
    /// Creates a memo holding at most `capacity` values (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruMemo {
            capacity: capacity.max(1),
            slots: Mutex::new(LruSlots {
                clock: 0,
                slots: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value under `key` if it is resident, restamped most recently used
    /// and counted as a hit; an absent key counts nothing, so a lookup that
    /// goes on to build counts its miss there.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let found = unpoisoned(self.slots.lock()).touch(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found)
    }

    /// Returns the value under `key`, building (and keeping) it on a miss;
    /// the boolean is `true` when it was served without building.  A failed
    /// build is returned as is and nothing is kept.
    ///
    /// `build` runs outside the lock, so misses on different keys do not
    /// serialize.  Two concurrent misses on the *same* key may both build;
    /// the second then defers to the first, so only one value is retained.
    pub(crate) fn get_or_insert_with<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let found = unpoisoned(self.slots.lock()).touch(&key);
        if let Some(value) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((value, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = build()?;
        let mut memo = unpoisoned(self.slots.lock());
        if let Some(first) = memo.touch(&key) {
            return Ok((first, false));
        }
        let stamp = memo.clock;
        memo.slots.push((key, stamp, built.clone()));
        if memo.slots.len() > self.capacity {
            let slots = &mut memo.slots;
            if let Some(oldest) = (0..slots.len()).min_by_key(|&i| slots[i].1) {
                slots.swap_remove(oldest);
            }
        }
        Ok((built, false))
    }

    /// The value under `key` if it is resident — a look that neither builds,
    /// counts nor restamps, so the memo's counters and its next eviction
    /// are as if the look never happened.
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        let memo = unpoisoned(self.slots.lock());
        let slot = memo.slots.iter().find(|slot| slot.0 == *key)?;
        Some(slot.2.clone())
    }

    /// Lookups served without building.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that paid for a build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Values currently resident.
    pub fn len(&self) -> usize {
        unpoisoned(self.slots.lock()).slots.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: PartialEq, V: Clone> std::fmt::Debug for LruMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruMemo")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_contains() {
        let cache = ResultCache::new();
        let s = Complex64::new(1.5, -2.0);
        assert!(cache.is_empty());
        assert!(!cache.contains("m", s));
        cache.insert("m", s, Complex64::I);
        assert_eq!(cache.get("m", s), Some(Complex64::I));
        assert!(cache.contains("m", s));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shards_are_isolated_by_key() {
        let cache = ResultCache::new();
        let s = Complex64::new(0.5, 3.0);
        cache.insert("density", s, Complex64::ONE);
        // The same s-point under another key is a distinct entry.
        assert!(!cache.contains("transient", s));
        cache.insert("transient", s, Complex64::I);
        assert_eq!(cache.get("density", s), Some(Complex64::ONE));
        assert_eq!(cache.get("transient", s), Some(Complex64::I));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.shard_len("density"), 1);
        assert_eq!(cache.shard_len("never-used"), 0);
        assert_eq!(
            cache.keys(),
            vec!["density".to_string(), "transient".to_string()]
        );
    }

    #[test]
    fn snapshot_is_independent() {
        let cache = ResultCache::new();
        cache.insert("m", Complex64::ONE, Complex64::ONE);
        let points = [Complex64::ONE, Complex64::I];
        let snap = cache.snapshot("m", &points);
        cache.insert("m", Complex64::I, Complex64::I);
        assert_eq!(snap.len(), 1);
        assert_eq!(cache.shard_len("m"), 2);
        assert!(cache.snapshot("missing", &points).is_empty());
        // A plan that is a small part of its shard is picked out of it.
        for k in 2..20 {
            cache.insert("m", Complex64::real(f64::from(k)), Complex64::ONE);
        }
        let picked = cache.snapshot("m", &[Complex64::I, Complex64::real(99.0)]);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked.get(Complex64::I), Some(Complex64::I));
    }

    #[test]
    fn seeded_from_measure_keyed_shards() {
        let mut shards = BTreeMap::new();
        let mut a = TransformValues::new();
        a.insert(Complex64::ONE, Complex64::I);
        shards.insert("a".to_string(), a);
        let mut b = TransformValues::new();
        b.insert(Complex64::I, Complex64::ONE);
        shards.insert("b".to_string(), b);
        let cache = ResultCache::from_shards(shards);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains("a", Complex64::ONE));
        assert!(cache.contains("b", Complex64::I));
    }

    #[test]
    fn concurrent_inserts_all_visible() {
        let cache = ResultCache::new();
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let cache = &cache;
                scope.spawn(move || {
                    let key = format!("measure-{}", worker % 2);
                    for k in 0..100 {
                        let s = Complex64::new(worker as f64, k as f64);
                        cache.insert(&key, s, Complex64::real(k as f64));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
        assert_eq!(
            cache.get("measure-1", Complex64::new(3.0, 42.0)),
            Some(Complex64::real(42.0))
        );
    }

    #[test]
    fn a_cache_whose_lock_holder_panicked_stays_usable() {
        // A request thread that dies under the shard write lock poisons it;
        // the server's next requests still read, insert and evict.
        let cache = ResultCache::with_byte_limit(10 * APPROX_BYTES_PER_ENTRY);
        fill(&cache, "before", 4);
        let died = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = cache.shards.write();
                panic!("request dies holding the shard lock");
            });
            holder.join().is_err()
        });
        assert!(died && cache.shards.is_poisoned());
        assert!(cache.contains("before", Complex64::new(3.0, 1.0)));
        fill(&cache, "after", 8);
        assert_eq!(cache.keys(), ["after"], "the older shard was evicted");
    }

    /// Fills one shard with `n` entries at distinct s-points.
    fn fill(cache: &ResultCache, key: &str, n: usize) {
        for k in 0..n {
            cache.insert(key, Complex64::new(k as f64, 1.0), Complex64::ONE);
        }
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ResultCache::new();
        for shard in 0..16 {
            fill(&cache, &format!("m{shard}"), 100);
        }
        assert_eq!(cache.len(), 1600);
        assert_eq!(cache.keys().len(), 16);
    }

    #[test]
    fn approx_bytes_tracks_entries_and_keys() {
        let cache = ResultCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        fill(&cache, "abcd", 10);
        assert_eq!(cache.approx_bytes(), 4 + 10 * APPROX_BYTES_PER_ENTRY);
        fill(&cache, "xy", 5);
        assert_eq!(cache.approx_bytes(), 4 + 2 + 15 * APPROX_BYTES_PER_ENTRY);
    }

    #[test]
    fn byte_limit_evicts_least_recently_used_shard_first() {
        // Room for about two 10-entry shards.
        let cache = ResultCache::with_byte_limit(2 * 10 * APPROX_BYTES_PER_ENTRY + 64);
        fill(&cache, "oldest", 10);
        fill(&cache, "middle", 10);
        // Touch "oldest" so "middle" becomes the LRU victim.
        assert!(cache.contains("oldest", Complex64::new(0.0, 1.0)));
        fill(&cache, "newest", 10);
        assert_eq!(cache.keys(), ["newest", "oldest"], "one shard evicted");
        assert_eq!(cache.shard_len("middle"), 0, "LRU shard evicted");
        assert_eq!(cache.shard_len("oldest"), 10, "recently read shard kept");
        assert_eq!(cache.shard_len("newest"), 10, "incoming shard kept");
        assert!(cache.approx_bytes() <= 2 * 10 * APPROX_BYTES_PER_ENTRY + 64);
    }

    #[test]
    fn most_recent_shard_survives_even_when_over_limit() {
        // A limit smaller than a single shard: the active shard must not be
        // evicted out from under its own run.
        let cache = ResultCache::with_byte_limit(APPROX_BYTES_PER_ENTRY);
        fill(&cache, "working-set", 50);
        assert_eq!(cache.shard_len("working-set"), 50);
        // A second shard displaces the first the moment it becomes the most
        // recent one.
        fill(&cache, "next", 50);
        assert_eq!(cache.shard_len("next"), 50);
        assert_eq!(cache.shard_len("working-set"), 0);
        assert_eq!(cache.keys(), ["next"]);
    }

    #[test]
    fn eviction_is_deterministic_under_stamp_ties() {
        // Three shards inserted in order, then a limit breach: victims are
        // chosen oldest-stamp-first (ties by key order), so repeated runs
        // evict identically.
        let cache = ResultCache::with_byte_limit(10 * APPROX_BYTES_PER_ENTRY);
        fill(&cache, "a", 4);
        fill(&cache, "b", 4);
        fill(&cache, "c", 8); // pushes the total over the limit
        assert_eq!(cache.shard_len("a"), 0);
        assert_eq!(cache.shard_len("b"), 0);
        assert_eq!(cache.shard_len("c"), 8);
        assert_eq!(cache.keys(), ["c"]);
    }
}
