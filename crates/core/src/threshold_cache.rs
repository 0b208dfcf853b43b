//! Bounded-LRU cache of partitioning decisions, keyed by input fingerprint.
//!
//! The cache holds one **tier** per decision type — scalar
//! [`SamplingEstimate`]s and k-way [`PartitionOutcome`]s. Each tier is the
//! same generation-stamped pair of LRU maps over the same bounded budget:
//!
//! * **exact** — [`CacheKey`] (fingerprint [`ExactKey`] + estimator
//!   [`ConfigKey`]) → the full decision. A hit is served as a clone,
//!   **bitwise-identical** to what the cold path would compute, because
//!   equal exact keys certify interchangeable inputs under an identical
//!   estimator configuration.
//! * **near** — a similarity key → the last decision inserted for that
//!   input class. Estimates key on the fingerprint [`NearKey`] + strategy
//!   kind ([`NearCacheKey`]), partitions on the [`NearKey`] + device
//!   topology ([`PartitionNearKey`]). A hit does *not* skip the pipeline:
//!   the decision's split (or cut vector) warm-starts `Strategy::Analytic`,
//!   which measurably reduces `grad_probes`, and its probe count is the
//!   baseline the savings are credited against.
//!
//! Both tiers share the LRU tick, the drift generation and the shadow
//! stride counter. Hit/miss/probe-savings counters are lock-free atomics,
//! flushed to the `nbwp-trace` metrics registry by
//! [`ThresholdCache::flush_metrics`] (reset-on-flush, so repeated flushes
//! never double-count).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use nbwp_sim::DeviceSet;
use nbwp_trace::Recorder;

use crate::estimator::SamplingEstimate;
use crate::fingerprint::{ExactKey, NearKey};
use crate::framework::SampleSpec;
use crate::search::{PartitionOutcome, Strategy};

/// Default entry budget per map. Decisions are tiny (a few hundred bytes),
/// so this comfortably covers a serving mix while bounding memory.
pub const DEFAULT_CAPACITY: usize = 256;

/// Bound on retained shadow-regret observations. Older observations are
/// overwritten ring-style once the buffer is full; the running count keeps
/// going.
pub const SHADOW_REGRET_CAPACITY: usize = 4096;

/// Estimator-configuration component of a cache key: everything besides the
/// input that determines the estimate (strategy + parameters, sample spec,
/// seed, repeat count). Two runs with equal [`ExactKey`] and equal
/// `ConfigKey` are the same computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    strategy_disc: u8,
    strategy_bits: u64,
    factor_bits: u64,
    seed: u64,
    repeats: usize,
    /// Partition arity (device count) the estimate targets. A k=2 and a
    /// k=4 run over the same input are different computations and must
    /// never alias.
    arity: u8,
    /// [`DeviceSet::digest`] of the topology, so two distinct sets of the
    /// same arity (say, different link speeds) key separately too.
    devices_digest: u64,
}

/// Stable discriminant for a [`Strategy`] (parameters excluded).
fn strategy_disc(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Exhaustive { .. } => 0,
        Strategy::CoarseToFine => 1,
        Strategy::RaceThenFine => 2,
        Strategy::GradientDescent { .. } => 3,
        Strategy::Analytic { .. } => 4,
    }
}

impl ConfigKey {
    /// Builds the key for one estimator configuration over a device
    /// topology. The key carries the partition arity and the set's digest,
    /// so estimates for different topologies — even of equal arity — can
    /// never alias.
    #[must_use]
    pub fn with_devices(
        strategy: Strategy,
        spec: SampleSpec,
        seed: u64,
        repeats: usize,
        set: &DeviceSet,
    ) -> ConfigKey {
        let strategy_bits = match strategy {
            Strategy::Exhaustive { step } | Strategy::Analytic { step } => {
                step.unwrap_or(f64::NAN).to_bits()
            }
            Strategy::GradientDescent { max_evals } => max_evals as u64,
            Strategy::CoarseToFine | Strategy::RaceThenFine => 0,
        };
        ConfigKey {
            strategy_disc: strategy_disc(strategy),
            strategy_bits,
            factor_bits: spec.factor.to_bits(),
            seed,
            repeats,
            arity: u8::try_from(set.len()).expect("device sets are tiny"),
            devices_digest: set.digest(),
        }
    }
}

/// Exact-identity cache key: input fingerprint identity + configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint exact key of the input.
    pub input: ExactKey,
    /// Estimator configuration.
    pub config: ConfigKey,
}

/// Similarity key of the estimate tier: quantized fingerprint class +
/// strategy kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NearCacheKey {
    /// Quantized fingerprint class of the input.
    pub input: NearKey,
    /// Strategy discriminant (warm starts only transfer within a strategy).
    pub strategy_disc: u8,
}

impl NearCacheKey {
    /// Builds the near key for one input class + strategy.
    #[must_use]
    pub fn of(input: NearKey, strategy: Strategy) -> NearCacheKey {
        NearCacheKey {
            input,
            strategy_disc: strategy_disc(strategy),
        }
    }
}

/// Similarity key of the partition tier: quantized fingerprint class + the
/// topology identity. Warm cut vectors only transfer between requests for
/// the *same* device set — a k=4 vector cannot seed a k=8 descent, and two
/// k=4 topologies with different link speeds have different optima.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionNearKey {
    /// Quantized fingerprint class of the input.
    pub input: NearKey,
    /// Partition arity (device count).
    pub arity: u8,
    /// [`DeviceSet::digest`] of the topology.
    pub devices_digest: u64,
}

impl PartitionNearKey {
    /// Builds the near key for one input class + topology.
    #[must_use]
    pub fn of(input: NearKey, set: &DeviceSet) -> PartitionNearKey {
        PartitionNearKey {
            input,
            arity: u8::try_from(set.len()).expect("device sets are tiny"),
            devices_digest: set.digest(),
        }
    }
}

/// An exact entry with the drift generation it was computed at.
struct Stamped<D> {
    decision: D,
    generation: u64,
}

/// One decision type's exact and near maps; every value carries its LRU
/// tick.
pub(crate) struct Tier<N, D> {
    exact: HashMap<CacheKey, (Stamped<D>, u64)>,
    near: HashMap<N, (D, u64)>,
}

impl<N, D> Default for Tier<N, D> {
    fn default() -> Self {
        Tier {
            exact: HashMap::new(),
            near: HashMap::new(),
        }
    }
}

/// One tier's hit and miss counters.
#[derive(Default)]
pub(crate) struct TierCounts {
    exact_hits: AtomicU64,
    near_hits: AtomicU64,
    misses: AtomicU64,
}

/// A decision type the cache stores: names its tier's near key and selects
/// its tier and counters.
pub(crate) trait Cached: Clone {
    /// The tier's similarity key.
    type Near: Copy + Eq + Hash;
    /// This type's maps.
    fn tier(inner: &mut CacheInner) -> &mut Tier<Self::Near, Self>;
    /// This type's counters.
    fn counts(cache: &ThresholdCache) -> &TierCounts;
}

impl Cached for SamplingEstimate {
    type Near = NearCacheKey;
    fn tier(inner: &mut CacheInner) -> &mut Tier<NearCacheKey, Self> {
        &mut inner.estimates
    }
    fn counts(cache: &ThresholdCache) -> &TierCounts {
        &cache.estimate_counts
    }
}

impl Cached for PartitionOutcome {
    type Near = PartitionNearKey;
    fn tier(inner: &mut CacheInner) -> &mut Tier<PartitionNearKey, Self> {
        &mut inner.partitions
    }
    fn counts(cache: &ThresholdCache) -> &TierCounts {
        &cache.partition_counts
    }
}

pub(crate) struct CacheInner {
    capacity: usize,
    tick: u64,
    /// Monotone drift epoch: bumped by [`ThresholdCache::advance_generation`]
    /// whenever a workload delta lands. Exact entries stamped with an older
    /// generation are invalid — generations only grow, so a stale entry can
    /// never become fresh again.
    generation: u64,
    estimates: Tier<NearCacheKey, SamplingEstimate>,
    partitions: Tier<PartitionNearKey, PartitionOutcome>,
}

impl CacheInner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Evicts the least-recently-used entry when inserting a fresh key into a
/// full map. O(len) scan — fine at the small bounded capacities used here
/// (same policy as `EvalCache`).
fn insert_lru<K: Copy + Eq + Hash, V>(
    map: &mut HashMap<K, (V, u64)>,
    capacity: usize,
    key: K,
    value: V,
    tick: u64,
) {
    if map.len() >= capacity && !map.contains_key(&key) {
        if let Some(oldest) = map.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| *k) {
            map.remove(&oldest);
        }
    }
    map.insert(key, (value, tick));
}

/// Aggregate counter snapshot (see [`ThresholdCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key hits served bitwise-identically from cache.
    pub exact_hits: u64,
    /// Near-key hits that warm-started an analytic search.
    pub near_hits: u64,
    /// Requests that ran the full cold path.
    pub misses: u64,
    /// Decisions inserted.
    pub insertions: u64,
    /// `grad_probes` avoided by warm starts (cold − warm, summed).
    pub probes_saved: u64,
    /// Warm hits that were shadow-priced against the cold path.
    pub shadow_runs: u64,
    /// Drift servings where the patched curve kept the cached threshold.
    pub patched_hits: u64,
    /// Drift servings where the warm hill-descent nudged the threshold.
    pub patched_nudges: u64,
    /// Drift servings that crossed over to a full rebuild + cold search.
    pub patched_rebuilds: u64,
    /// Exact entries dropped by a generation advance (lazily, on lookup).
    pub stale_evictions: u64,
    /// K-way exact hits: cached partitions served bitwise-identically.
    pub kway_exact_hits: u64,
    /// K-way near hits: warm cut vectors that seeded a single-seed descent.
    pub kway_near_hits: u64,
    /// K-way requests that ran the full cold multi-seed search.
    pub kway_misses: u64,
}

/// Bounded-LRU decision cache shared across estimator runs. Thread-safe:
/// the maps sit behind a mutex (critical sections are O(1) amortized) and
/// the counters are lock-free atomics, so `run_batch` workers hit it
/// concurrently without serializing their actual work.
pub struct ThresholdCache {
    inner: Mutex<CacheInner>,
    estimate_counts: TierCounts,
    partition_counts: TierCounts,
    insertions: AtomicU64,
    probes_saved: AtomicU64,
    shadow_runs: AtomicU64,
    shadow_tick: AtomicU64,
    patched_hits: AtomicU64,
    patched_nudges: AtomicU64,
    patched_rebuilds: AtomicU64,
    stale_evictions: AtomicU64,
    regrets: Mutex<Vec<f64>>,
}

impl Default for ThresholdCache {
    fn default() -> Self {
        ThresholdCache::new(DEFAULT_CAPACITY)
    }
}

impl ThresholdCache {
    /// Creates a cache holding at most `capacity` entries per map
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> ThresholdCache {
        ThresholdCache {
            inner: Mutex::new(CacheInner {
                capacity: capacity.max(1),
                tick: 0,
                generation: 0,
                estimates: Tier::default(),
                partitions: Tier::default(),
            }),
            estimate_counts: TierCounts::default(),
            partition_counts: TierCounts::default(),
            insertions: AtomicU64::new(0),
            probes_saved: AtomicU64::new(0),
            shadow_runs: AtomicU64::new(0),
            shadow_tick: AtomicU64::new(0),
            patched_hits: AtomicU64::new(0),
            patched_nudges: AtomicU64::new(0),
            patched_rebuilds: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            regrets: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("threshold cache poisoned")
    }

    /// Current drift generation (0 until the first delta lands).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Advances the drift generation, returning the new value. Exact
    /// entries stamped with an older generation become permanently invalid
    /// (dropped lazily on their next lookup); near-key warm hints survive —
    /// they are advisory starting points, not served results, so a slightly
    /// stale hint still saves probes while the pipeline recomputes the
    /// decision on the patched curves.
    pub fn advance_generation(&self) -> u64 {
        let mut inner = self.lock();
        inner.generation += 1;
        inner.generation
    }

    /// Exact-key lookup in `D`'s tier. A hit refreshes recency and returns
    /// a clone of the cached decision — bitwise-identical to the cold-path
    /// result. Entries stamped with an older drift generation than the
    /// cache's current one are dropped here instead of served (monotone
    /// invalidation).
    pub(crate) fn lookup<D: Cached>(&self, key: &CacheKey) -> Option<D> {
        let mut inner = self.lock();
        let tick = inner.touch();
        let generation = inner.generation;
        let exact = &mut D::tier(&mut inner).exact;
        let (stamped, t) = exact.get_mut(key)?;
        if stamped.generation < generation {
            exact.remove(key);
            drop(inner);
            self.stale_evictions.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        *t = tick;
        let decision = stamped.decision.clone();
        drop(inner);
        D::counts(self).exact_hits.fetch_add(1, Ordering::Relaxed);
        Some(decision)
    }

    /// Near-key lookup in `D`'s tier. A hit refreshes recency and returns
    /// the last decision inserted for the input class — a warm start, not a
    /// result to serve.
    pub(crate) fn lookup_near<D: Cached>(&self, key: &D::Near) -> Option<D> {
        let mut inner = self.lock();
        let tick = inner.touch();
        let (decision, t) = D::tier(&mut inner).near.get_mut(key)?;
        *t = tick;
        let decision = decision.clone();
        drop(inner);
        D::counts(self).near_hits.fetch_add(1, Ordering::Relaxed);
        Some(decision)
    }

    /// Inserts a freshly computed decision under both of its tier's keys,
    /// stamped with the current drift generation.
    pub(crate) fn store<D: Cached>(&self, key: CacheKey, near: D::Near, decision: &D) {
        let mut inner = self.lock();
        let tick = inner.touch();
        let (capacity, generation) = (inner.capacity, inner.generation);
        let tier = D::tier(&mut inner);
        let stamped = Stamped {
            decision: decision.clone(),
            generation,
        };
        insert_lru(&mut tier.exact, capacity, key, stamped, tick);
        insert_lru(&mut tier.near, capacity, near, decision.clone(), tick);
        drop(inner);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a request for a `D` missed the exact map.
    pub(crate) fn record_miss<D: Cached>(&self) {
        D::counts(self).misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Exact-key lookup in the estimate tier (see the module docs).
    #[must_use]
    pub fn get_exact(&self, key: &CacheKey) -> Option<SamplingEstimate> {
        self.lookup(key)
    }

    /// Near-key lookup in the estimate tier: the last estimate inserted for
    /// the input class. Its `sample_threshold` is the warm start for
    /// `Strategy::Analytic`, its `grad_probes` the cold baseline.
    #[must_use]
    pub fn get_near(&self, key: &NearCacheKey) -> Option<SamplingEstimate> {
        self.lookup_near(key)
    }

    /// Inserts a freshly computed estimate under both keys, stamped with
    /// the current drift generation.
    pub fn insert(&self, key: CacheKey, near: NearCacheKey, est: &SamplingEstimate) {
        self.store(key, near, est);
    }

    /// Records `grad_probes` avoided by a warm start.
    pub fn record_probes_saved(&self, saved: u64) {
        self.probes_saved.fetch_add(saved, Ordering::Relaxed);
    }

    /// Deterministic stride gate for the shadow-regret sampler: advances
    /// the shadow tick and reports whether this warm hit should also run
    /// the cold path. A `rate` of `r` samples every `round(1/r)`-th warm
    /// hit, starting with the first (so even short streams produce at least
    /// one observation); `rate ≤ 0` never samples, `rate ≥ 1` always does.
    #[must_use]
    pub fn shadow_due(&self, rate: f64) -> bool {
        if rate <= 0.0 || rate.is_nan() {
            return false;
        }
        if rate >= 1.0 {
            self.shadow_tick.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let stride = (1.0 / rate).round().max(1.0) as u64;
        let tick = self.shadow_tick.fetch_add(1, Ordering::Relaxed);
        tick.is_multiple_of(stride)
    }

    /// Records one observed shadow regret (percent, warm over cold minus
    /// one). Retains at most [`SHADOW_REGRET_CAPACITY`] observations,
    /// overwriting the oldest ring-style.
    pub fn record_shadow(&self, regret_pct: f64) {
        let count = self.shadow_runs.fetch_add(1, Ordering::Relaxed);
        let mut regrets = self.regrets.lock().expect("shadow regrets poisoned");
        if regrets.len() < SHADOW_REGRET_CAPACITY {
            regrets.push(regret_pct);
        } else {
            regrets[(count as usize) % SHADOW_REGRET_CAPACITY] = regret_pct;
        }
    }

    /// Clones the retained shadow-regret observations (recording order up
    /// to [`SHADOW_REGRET_CAPACITY`], ring-overwritten past it).
    #[must_use]
    pub fn shadow_regrets(&self) -> Vec<f64> {
        self.regrets
            .lock()
            .expect("shadow regrets poisoned")
            .clone()
    }

    /// Records how a drift serving resolved (see [`CacheStats`]).
    pub fn record_patched_hit(&self) {
        self.patched_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a drift serving whose warm hill-descent moved the threshold.
    pub fn record_patched_nudge(&self) {
        self.patched_nudges.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a drift serving that crossed over to a full rebuild.
    pub fn record_patched_rebuild(&self) {
        self.patched_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values (no reset).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.read_counters(AtomicU64::load)
    }

    /// Reads every counter through `read` (a plain load, or a
    /// swap-with-zero for the reset-on-flush read).
    fn read_counters(&self, read: impl Fn(&AtomicU64, Ordering) -> u64) -> CacheStats {
        let r = |c: &AtomicU64| read(c, Ordering::Relaxed);
        let (est, part) = (&self.estimate_counts, &self.partition_counts);
        CacheStats {
            exact_hits: r(&est.exact_hits),
            near_hits: r(&est.near_hits),
            misses: r(&est.misses),
            insertions: r(&self.insertions),
            probes_saved: r(&self.probes_saved),
            shadow_runs: r(&self.shadow_runs),
            patched_hits: r(&self.patched_hits),
            patched_nudges: r(&self.patched_nudges),
            patched_rebuilds: r(&self.patched_rebuilds),
            stale_evictions: r(&self.stale_evictions),
            kway_exact_hits: r(&part.exact_hits),
            kway_near_hits: r(&part.near_hits),
            kway_misses: r(&part.misses),
        }
    }

    /// Number of exact entries currently held, across both tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.estimates.exact.len() + inner.partitions.exact.len()
    }

    /// Whether neither tier holds an exact entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes the counters to the metrics registry and resets them, so a
    /// later flush only reports activity since this one. Counter names:
    /// `threshold_cache.hit`, `threshold_cache.near_hit`,
    /// `threshold_cache.miss`, `threshold_cache.insert`,
    /// `threshold_cache.probes_saved`, `threshold_cache.shadow_runs`,
    /// `threshold_cache.patched_hit`, `threshold_cache.patched_nudge`,
    /// `threshold_cache.patched_rebuild`, `threshold_cache.stale_evictions`,
    /// `threshold_cache.kway_hit`, `threshold_cache.kway_near_hit`,
    /// `threshold_cache.kway_miss`; retained shadow-regret observations
    /// drain into the `threshold_cache.regret_pct` histogram.
    pub fn flush_metrics(&self, rec: &Recorder) {
        let s = self.read_counters(|c, order| c.swap(0, order));
        for (name, value) in [
            ("threshold_cache.hit", s.exact_hits),
            ("threshold_cache.near_hit", s.near_hits),
            ("threshold_cache.miss", s.misses),
            ("threshold_cache.insert", s.insertions),
            ("threshold_cache.probes_saved", s.probes_saved),
            ("threshold_cache.shadow_runs", s.shadow_runs),
            ("threshold_cache.patched_hit", s.patched_hits),
            ("threshold_cache.patched_nudge", s.patched_nudges),
            ("threshold_cache.patched_rebuild", s.patched_rebuilds),
            ("threshold_cache.stale_evictions", s.stale_evictions),
            ("threshold_cache.kway_hit", s.kway_exact_hits),
            ("threshold_cache.kway_near_hit", s.kway_near_hits),
            ("threshold_cache.kway_miss", s.kway_misses),
        ] {
            rec.counter_add(name, value);
        }
        let drained: Vec<f64> = {
            let mut regrets = self.regrets.lock().expect("shadow regrets poisoned");
            std::mem::take(&mut *regrets)
        };
        for regret in drained {
            rec.histogram_record("threshold_cache.regret_pct", regret);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::DensityClass;
    use nbwp_sim::SimTime;

    fn exact(digest: u64) -> ExactKey {
        ExactKey {
            kind: "test",
            n: 100,
            m: 500,
            digest,
        }
    }

    fn near(cv_q: i64) -> NearKey {
        NearKey {
            kind: "test",
            log2_n: 7,
            log2_m: 9,
            cv_q,
            density: DensityClass::Moderate,
        }
    }

    fn key(digest: u64) -> CacheKey {
        CacheKey {
            input: exact(digest),
            config: ConfigKey::with_devices(
                Strategy::CoarseToFine,
                SampleSpec::default(),
                7,
                1,
                DeviceSet::cpu_gpu_static(),
            ),
        }
    }

    fn est(threshold: f64) -> SamplingEstimate {
        SamplingEstimate {
            threshold,
            sample_threshold: threshold / 2.0,
            overhead: SimTime::from_millis(1.0),
            evaluations: 9,
            sample_size: 10,
            grad_probes: 5,
        }
    }

    fn partition_out(cuts: Vec<f64>) -> PartitionOutcome {
        let fractions = vec![1.0 / (cuts.len() + 1) as f64; cuts.len() + 1];
        PartitionOutcome {
            cuts,
            fractions,
            partition: None,
            total: SimTime::from_millis(3.0),
            probes: 120,
            sweeps: 4,
            scalar: None,
        }
    }

    fn kway_key(digest: u64, set: &DeviceSet) -> CacheKey {
        CacheKey {
            input: exact(digest),
            config: ConfigKey::with_devices(
                Strategy::Analytic { step: None },
                SampleSpec::default(),
                7,
                1,
                set,
            ),
        }
    }

    #[test]
    fn partition_roundtrip_is_bitwise_and_keys_by_topology() {
        let cache = ThresholdCache::new(8);
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let k8 = DeviceSet::quad_cpu_quad_gpu();
        let out = partition_out(vec![10.0, 30.0, 55.0]);
        assert!(cache
            .lookup::<PartitionOutcome>(&kway_key(1, &k4))
            .is_none());
        cache.store(kway_key(1, &k4), PartitionNearKey::of(near(4), &k4), &out);
        assert_eq!(cache.lookup(&kway_key(1, &k4)), Some(out.clone()));
        // Same input under a different topology never aliases.
        assert!(cache
            .lookup::<PartitionOutcome>(&kway_key(1, &k8))
            .is_none());
        let s = cache.stats();
        assert_eq!((s.kway_exact_hits, s.insertions), (1, 1));
    }

    #[test]
    fn partition_hint_transfers_within_topology_only() {
        let cache = ThresholdCache::new(8);
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let k8 = DeviceSet::quad_cpu_quad_gpu();
        let out = partition_out(vec![12.5, 25.0, 62.5]);
        cache.store(kway_key(1, &k4), PartitionNearKey::of(near(4), &k4), &out);
        let hint: PartitionOutcome = cache
            .lookup_near(&PartitionNearKey::of(near(4), &k4))
            .expect("near hit");
        assert_eq!(hint.cuts, out.cuts);
        assert_eq!(hint.probes, 120);
        // A k=8 request for the same input class misses.
        assert!(cache
            .lookup_near::<PartitionOutcome>(&PartitionNearKey::of(near(4), &k8))
            .is_none());
        cache.record_miss::<PartitionOutcome>();
        let s = cache.stats();
        assert_eq!((s.kway_near_hits, s.kway_misses), (1, 1));
        let rec = Recorder::new();
        cache.flush_metrics(&rec);
        let m = rec.finish().metrics;
        assert_eq!(m.counter("threshold_cache.kway_near_hit"), Some(1));
        assert_eq!(m.counter("threshold_cache.kway_miss"), Some(1));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn partition_entries_invalidate_on_generation_advance() {
        let cache = ThresholdCache::new(8);
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let nk = PartitionNearKey::of(near(4), &k4);
        cache.store(kway_key(1, &k4), nk, &partition_out(vec![10.0, 30.0, 55.0]));
        cache.advance_generation();
        // The served partition is stale; the advisory cut vector survives.
        assert!(cache
            .lookup::<PartitionOutcome>(&kway_key(1, &k4))
            .is_none());
        assert!(cache.lookup_near::<PartitionOutcome>(&nk).is_some());
        assert_eq!(cache.stats().stale_evictions, 1);
    }

    #[test]
    fn exact_roundtrip_is_bitwise() {
        let cache = ThresholdCache::new(8);
        assert!(cache.get_exact(&key(1)).is_none());
        let e = est(42.0);
        cache.insert(
            key(1),
            NearCacheKey::of(near(4), Strategy::CoarseToFine),
            &e,
        );
        assert_eq!(cache.get_exact(&key(1)), Some(e));
        assert!(cache.get_exact(&key(2)).is_none());
        let s = cache.stats();
        assert_eq!((s.exact_hits, s.insertions), (1, 1));
    }

    #[test]
    fn near_hit_returns_hint() {
        let cache = ThresholdCache::new(8);
        let nk = NearCacheKey::of(near(4), Strategy::Analytic { step: None });
        cache.insert(key(1), nk, &est(42.0));
        let hint = cache.get_near(&nk).expect("near hit");
        assert_eq!(hint.sample_threshold, 21.0);
        assert_eq!(hint.grad_probes, 5);
        // Different strategy kind → different near key.
        assert!(cache
            .get_near(&NearCacheKey::of(near(4), Strategy::CoarseToFine))
            .is_none());
    }

    #[test]
    fn lru_evicts_oldest_exact_entry() {
        let cache = ThresholdCache::new(2);
        let nk = NearCacheKey::of(near(0), Strategy::CoarseToFine);
        cache.insert(key(1), nk, &est(1.0));
        cache.insert(key(2), nk, &est(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get_exact(&key(1)).is_some());
        cache.insert(key(3), nk, &est(3.0));
        assert!(cache.get_exact(&key(1)).is_some());
        assert!(cache.get_exact(&key(2)).is_none());
        assert!(cache.get_exact(&key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn len_counts_the_exact_entries_of_both_tiers() {
        // Regression: a cache that has served only partitions is not empty.
        let cache = ThresholdCache::new(8);
        assert!(cache.is_empty());
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let out = partition_out(vec![10.0, 30.0, 55.0]);
        cache.store(kway_key(1, &k4), PartitionNearKey::of(near(4), &k4), &out);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        let nk = NearCacheKey::of(near(4), Strategy::CoarseToFine);
        cache.insert(key(1), nk, &est(1.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn generation_advance_invalidates_exact_entries_monotonically() {
        let cache = ThresholdCache::new(8);
        let nk = NearCacheKey::of(near(4), Strategy::Analytic { step: None });
        cache.insert(key(1), nk, &est(42.0));
        assert_eq!(cache.generation(), 0);
        assert!(cache.get_exact(&key(1)).is_some());

        // A delta lands: the stale exact entry is dropped on lookup, but
        // the advisory near-key hint survives as a warm start.
        assert_eq!(cache.advance_generation(), 1);
        assert!(cache.get_exact(&key(1)).is_none());
        assert!(cache.get_exact(&key(1)).is_none()); // stays gone
        assert!(cache.get_near(&nk).is_some());
        assert_eq!(cache.stats().stale_evictions, 1);

        // Re-inserting stamps the current generation; a further advance
        // invalidates again — staleness is monotone, never reversible.
        cache.insert(key(1), nk, &est(43.0));
        assert!(cache.get_exact(&key(1)).is_some());
        cache.advance_generation();
        cache.advance_generation();
        assert!(cache.get_exact(&key(1)).is_none());
        assert_eq!(cache.stats().stale_evictions, 2);
    }

    #[test]
    fn patched_counters_flush_as_metrics() {
        let cache = ThresholdCache::new(4);
        cache.record_patched_hit();
        cache.record_patched_hit();
        cache.record_patched_nudge();
        cache.record_patched_rebuild();
        let s = cache.stats();
        assert_eq!(
            (s.patched_hits, s.patched_nudges, s.patched_rebuilds),
            (2, 1, 1)
        );
        let rec = Recorder::new();
        cache.flush_metrics(&rec);
        assert_eq!(cache.stats(), CacheStats::default());
        let m = rec.finish().metrics;
        assert_eq!(m.counter("threshold_cache.patched_hit"), Some(2));
        assert_eq!(m.counter("threshold_cache.patched_nudge"), Some(1));
        assert_eq!(m.counter("threshold_cache.patched_rebuild"), Some(1));
    }

    #[test]
    fn config_key_separates_configurations() {
        let spec = SampleSpec::default();
        let pair = DeviceSet::cpu_gpu_static();
        let k = |s, spec, seed, reps| ConfigKey::with_devices(s, spec, seed, reps, pair);
        let base = k(Strategy::CoarseToFine, spec, 7, 1);
        assert_eq!(base, k(Strategy::CoarseToFine, spec, 7, 1));
        assert_ne!(base, k(Strategy::CoarseToFine, spec, 8, 1));
        assert_ne!(base, k(Strategy::CoarseToFine, spec, 7, 3));
        assert_ne!(base, k(Strategy::RaceThenFine, spec, 7, 1));
        assert_ne!(
            k(Strategy::Analytic { step: None }, spec, 7, 1),
            k(Strategy::Analytic { step: Some(1.0) }, spec, 7, 1)
        );
        assert_ne!(
            base,
            k(Strategy::CoarseToFine, SampleSpec { factor: 2.0 }, 7, 1)
        );
    }

    #[test]
    fn config_key_separates_device_topologies() {
        // Regression: the key must carry partition arity AND the set digest,
        // so k=2 and k>2 estimates (or two different k=4 topologies) can
        // never alias in the exact map.
        let spec = SampleSpec::default();
        let s = Strategy::Analytic { step: None };
        let pair = ConfigKey::with_devices(s, spec, 7, 1, DeviceSet::cpu_gpu_static());
        let dual = ConfigKey::with_devices(s, spec, 7, 1, &DeviceSet::dual_cpu_dual_gpu());
        let quad = ConfigKey::with_devices(s, spec, 7, 1, &DeviceSet::quad_cpu_quad_gpu());
        assert_ne!(pair, dual);
        assert_ne!(pair, quad);
        assert_ne!(dual, quad);
    }

    #[test]
    fn flush_resets_counters() {
        let cache = ThresholdCache::new(4);
        cache.record_miss::<SamplingEstimate>();
        cache.record_probes_saved(12);
        cache.record_shadow(2.5);
        let rec = Recorder::new();
        cache.flush_metrics(&rec);
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.shadow_regrets().is_empty());
        let m = rec.finish().metrics;
        assert_eq!(m.counter("threshold_cache.shadow_runs"), Some(1));
        let h = m
            .histogram("threshold_cache.regret_pct")
            .expect("regret histogram");
        assert_eq!((h.count, h.min, h.max), (1, 2.5, 2.5));
        let again = Recorder::new();
        cache.flush_metrics(&again);
        // Second flush reports nothing new.
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(
            again
                .finish()
                .metrics
                .counter("threshold_cache.shadow_runs"),
            Some(0)
        );
    }

    #[test]
    fn shadow_gate_follows_the_sampling_stride() {
        let cache = ThresholdCache::new(4);
        let due: Vec<bool> = (0..8).map(|_| cache.shadow_due(0.25)).collect();
        assert_eq!(due, [true, false, false, false, true, false, false, false]);
        let never = ThresholdCache::new(4);
        assert!((0..8).all(|_| !never.shadow_due(0.0)));
        assert!((0..8).all(|_| !never.shadow_due(-1.0)));
        let always = ThresholdCache::new(4);
        assert!((0..8).all(|_| always.shadow_due(1.0)));
    }

    #[test]
    fn shadow_regrets_are_bounded_ring_style() {
        let cache = ThresholdCache::new(4);
        for i in 0..(SHADOW_REGRET_CAPACITY + 10) {
            cache.record_shadow(i as f64);
        }
        let regrets = cache.shadow_regrets();
        assert_eq!(regrets.len(), SHADOW_REGRET_CAPACITY);
        // The newest observations overwrote the oldest slots.
        assert_eq!(regrets[0], SHADOW_REGRET_CAPACITY as f64);
        assert_eq!(regrets[9], (SHADOW_REGRET_CAPACITY + 9) as f64);
        assert_eq!(regrets[10], 10.0);
        assert_eq!(
            cache.stats().shadow_runs,
            (SHADOW_REGRET_CAPACITY + 10) as u64
        );
    }
}
