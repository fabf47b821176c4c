//! Sync-phase plan cache.
//!
//! Plan search is the expensive step of serving: a scatter-and-gather
//! search evaluates every local subset at every candidate release time.
//! But under a [`NoQueues`] planning context the search's verdict depends
//! on the query only through its footprint and cost profile, and on time
//! only through *where the submit instant falls between synchronizations*.
//! Within one inter-sync window each candidate's information value, as a
//! function of the submit time `s`, is `K · r^s` with exactly three
//! possible growth classes:
//!
//! * **immediate, some local replicas** — CL is constant, SL grows with
//!   `s` (the replicas age): `r = 1 − λ_SL`;
//! * **immediate, all-remote** — CL and SL are both constant:  `r = 1`;
//! * **delayed to a future sync `τ`** — SL is constant, CL shrinks as the
//!   submit instant approaches `τ`: `r = (1 − λ_CL)⁻¹`.
//!
//! Ordering *within* a class is therefore submit-invariant across the
//! window, so caching the per-class champion (at most three candidates)
//! and re-evaluating those champions at the live submit time reproduces
//! the full search's optimum **exactly** — this is verified against
//! [`ScatterGatherSearch`] by a property test. The champion enumeration
//! must only be careful to consider every sync point that could win for
//! *any* submit instant in the window: a delayed candidate at `τ` beats
//! the always-available all-remote fallback `F` only if
//! `(1 − λ_CL)^(τ − s) > F/BV`, and `s < τ₁` throughout the window, so
//! sync points up to `τ₁ + maxCL(F/BV)` suffice (bounded by a fixed cap
//! when `λ_CL = 0`).
//!
//! The cache key captures everything else the verdict depends on: the
//! footprint, the cost profile, the discount rates and the per-table
//! last-sync times (which *define* the window — any completed sync
//! changes the key, so entries for old windows can never be hit again).
//! Invalidation driven by [`SyncEvent`]s is thus garbage collection, not
//! correctness: it evicts entries whose window has closed.
//!
//! The cache assumes a fixed catalog and a cost model that depends on
//! the query only through its footprint and cost profile; do not share
//! one cache across differently configured engines. Business value is
//! deliberately *not* in the key — it scales every candidate's IV
//! equally and never changes the argmax.
//!
//! # Hot path
//!
//! Both paths score on the allocation-free [`SubsetArena`] kernel, the
//! one the search itself uses. A miss builds the arena once (one cost
//! estimate and one site set per local subset), scores every (subset,
//! release) pair with [`SubsetArena::score`], races the classes with
//! [`is_better_score`] and materializes only the overall winner. The
//! entry keeps the champions as a compacted arena
//! ([`SubsetArena::retain_masks`]) plus the delayed champion's release,
//! so a hit rescores 1–3 champions and materializes one plan. Scores are
//! bit-identical to [`evaluate_plan`] (both run the same kernel), which a
//! differential property test checks against the boxed enumeration.
//!
//! [`NoQueues`]: ivdss_core::plan::NoQueues
//! [`ScatterGatherSearch`]: ivdss_core::search::ScatterGatherSearch
//! [`evaluate_plan`]: ivdss_core::plan::evaluate_plan

use std::collections::{BTreeMap, HashMap};

use ivdss_catalog::ids::TableId;
use ivdss_core::plan::{CandidateScore, PlanContext, PlanEvaluation, QueryRequest, SubsetArena};
use ivdss_core::search::{is_better_score, replicated_footprint, DEFAULT_MAX_SYNC_POINTS};
use ivdss_replication::events::SyncEvent;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

/// Sentinel for "this replica has never completed a sync".
const NEVER_SYNCED: u64 = u64::MAX;

/// Everything a cached planning verdict depends on (except business
/// value, which cannot change the argmax).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// Sorted query footprint.
    footprint: Vec<TableId>,
    /// `(weight, selectivity)` bit patterns of the cost profile.
    profile: (u64, u64),
    /// `(λ_CL, λ_SL)` bit patterns.
    rates: (u64, u64),
    /// Bit pattern of each replicated footprint table's last sync time
    /// at submission (sorted by table), identifying the inter-sync
    /// window.
    sync_phase: Vec<u64>,
}

impl PlanCacheKey {
    /// Builds the key for `request` under `ctx` at its submission time.
    #[must_use]
    pub fn for_request(ctx: &PlanContext<'_>, request: &QueryRequest) -> Self {
        let mut footprint: Vec<TableId> = request.query.tables().to_vec();
        footprint.sort_unstable();
        footprint.dedup();
        let sync_phase = footprint
            .iter()
            .filter(|&&t| ctx.timelines.has_replica(t))
            .map(|&t| {
                ctx.timelines
                    .last_sync(t, request.submitted_at)
                    .map_or(NEVER_SYNCED, |at| at.value().to_bits())
            })
            .collect();
        PlanCacheKey {
            footprint,
            profile: (
                request.query.weight().to_bits(),
                request.query.selectivity().to_bits(),
            ),
            rates: (ctx.rates.cl.rate().to_bits(), ctx.rates.sl.rate().to_bits()),
            sync_phase,
        }
    }

    /// The last sync the key recorded for the `idx`-th replicated
    /// footprint table, `None` if that replica had never synced.
    fn seen_sync(&self, idx: usize) -> Option<SimTime> {
        let bits = self.sync_phase[idx];
        (bits != NEVER_SYNCED).then(|| SimTime::new(f64::from_bits(bits)))
    }
}

/// Whether a lookup was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Champions were re-evaluated at the live submit time.
    Hit,
    /// The entry was populated by a fresh champion enumeration.
    Miss,
}

/// The per-growth-class champions of one (footprint, sync-phase) key.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Insertion sequence number: this entry's key in
    /// `PlanCache::insertion_order`.
    seq: u64,
    /// The 1–3 champions' local tables, sites and cost estimates:
    /// champion `i` is mask `i` of this compacted arena, and its
    /// replicated footprint is aligned with the key's sync phase.
    champions: SubsetArena,
    /// The release of the delayed-class champion, which is the last
    /// champion when present: the absolute sync point `τ` (valid for
    /// every submit instant in the entry's window, which `τ` strictly
    /// follows). Every other champion is released at the submit time.
    delayed: Option<SimTime>,
}

impl CacheEntry {
    /// Rescores the champions at `request`'s submit time and
    /// materializes the winner.
    fn rescore(&self, ctx: &PlanContext<'_>, request: &QueryRequest) -> PlanEvaluation {
        let submit = request.submitted_at;
        let last = self.champions.len() - 1;
        let mut best = None;
        for champion in 0..=last {
            let execute_at = match self.delayed {
                Some(at) if champion == last => at.max(submit),
                _ => submit,
            };
            let score = self.champions.score(ctx, request, execute_at, champion);
            race(&mut best, score, champion);
        }
        let (score, champion) = best.expect("an entry holds at least the all-remote champion");
        self.champions.evaluation(request, champion, score)
    }
}

/// Keeps `(score, mask)` in `slot` if it beats the incumbent, ranking
/// exactly as the search does.
fn race(slot: &mut Option<(CandidateScore, usize)>, score: CandidateScore, mask: usize) {
    if is_better_score(&score, slot.as_ref().map(|(incumbent, _)| incumbent)) {
        *slot = Some((score, mask));
    }
}

/// A bounded plan cache keyed by (footprint, cost profile, discount
/// rates, per-table sync phase), with FIFO eviction at capacity and
/// sync-event-driven garbage collection.
///
/// # Examples
///
/// A repeated lookup in the same sync window is a hit and returns the
/// exact search answer:
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
/// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
/// use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
/// use ivdss_core::planner::{IvqpPlanner, Planner};
/// use ivdss_core::value::DiscountRates;
/// use ivdss_costmodel::model::StylizedCostModel;
/// use ivdss_costmodel::query::{QueryId, QuerySpec};
/// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
/// use ivdss_serve::cache::{CacheOutcome, PlanCache};
/// use ivdss_simkernel::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = synthetic_catalog(&SyntheticConfig {
///     tables: 3, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
/// })?;
/// let mut plan = ReplicationPlan::new();
/// plan.add(TableId::new(0), ReplicaSpec::new(6.0));
/// let catalog = base.with_replication(plan)?;
/// let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
/// let model = StylizedCostModel::paper_fig4();
/// let ctx = PlanContext {
///     catalog: &catalog,
///     timelines: &timelines,
///     model: &model,
///     rates: DiscountRates::new(0.01, 0.05),
///     queues: &NoQueues,
/// };
/// let request = QueryRequest::new(
///     QuerySpec::new(QueryId::new(7), vec![TableId::new(0), TableId::new(1)]),
///     SimTime::new(2.0),
/// );
///
/// let mut cache = PlanCache::new(64);
/// let (first, outcome) = cache.plan(&ctx, &request);
/// assert_eq!(outcome, CacheOutcome::Miss);
/// let (second, outcome) = cache.plan(&ctx, &request);
/// assert_eq!(outcome, CacheOutcome::Hit);
/// // A hit is exactly the scatter-and-gather answer, not an approximation.
/// assert_eq!(second, first);
/// assert_eq!(second, IvqpPlanner::new().select_plan(&ctx, &request)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlanCache {
    entries: HashMap<PlanCacheKey, CacheEntry>,
    /// Live keys by insertion sequence number, oldest first: the FIFO
    /// eviction order. Evicting an entry removes its key by number, so
    /// garbage collection never rehashes the surviving keys.
    insertion_order: BTreeMap<u64, PlanCacheKey>,
    next_seq: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PlanCache {
            entries: HashMap::new(),
            insertion_order: BTreeMap::new(),
            next_seq: 0,
            capacity,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from cached champions.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh enumeration.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by synchronization events.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Selects the IV-optimal plan for `request`, from cached champions
    /// when the (footprint, sync-phase) entry exists, populating it
    /// otherwise.
    ///
    /// The planning context must use [`NoQueues`] (or any queue
    /// estimator whose answer is state-independent); the cacheability
    /// argument in the module docs does not hold for live queues.
    ///
    /// [`NoQueues`]: ivdss_core::plan::NoQueues
    pub fn plan(
        &mut self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
    ) -> (PlanEvaluation, CacheOutcome) {
        let key = PlanCacheKey::for_request(ctx, request);
        if let Some(entry) = self.entries.get(&key) {
            self.hits += 1;
            return (entry.rescore(ctx, request), CacheOutcome::Hit);
        }

        let (best, mut entry) = Self::populate(ctx, request);
        self.misses += 1;
        while self.entries.len() >= self.capacity {
            match self.insertion_order.pop_first() {
                Some((_, oldest)) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        entry.seq = self.next_seq;
        self.next_seq += 1;
        self.insertion_order.insert(entry.seq, key.clone());
        self.entries.insert(key, entry);
        (best, CacheOutcome::Miss)
    }

    /// Enumerates the per-class champions for `request` and returns the
    /// overall best plus the cache entry.
    fn populate(ctx: &PlanContext<'_>, request: &QueryRequest) -> (PlanEvaluation, CacheEntry) {
        let submit = request.submitted_at;
        let replicated = replicated_footprint(ctx, request);
        let arena = SubsetArena::build(ctx, request, &replicated);

        // Class "immediate all-remote" (mask 0): always feasible,
        // constant IV across the window; also the fallback that bounds
        // how far delaying can pay off.
        let all_remote = arena.score(ctx, request, submit, 0);

        // Class "immediate with local replicas".
        let mut immediate_local = None;
        for mask in 1..arena.len() {
            race(
                &mut immediate_local,
                arena.score(ctx, request, submit, mask),
                mask,
            );
        }

        // Class "delayed to a future sync": enumerate sync points far
        // enough that no candidate which could win for *any* submit
        // instant in the window is missed (see module docs).
        let mut delayed = None;
        if !replicated.is_empty() {
            let fallback_ratio =
                all_remote.information_value.value() / request.business_value.value();
            let mut horizon: Option<SimTime> = None;
            let mut cursor = submit;
            let mut visited = 0usize;
            while let Some((_, sync_at)) = ctx.timelines.next_sync_among(&replicated, cursor) {
                if visited == 0 && fallback_ratio > 0.0 {
                    horizon = ctx
                        .rates
                        .cl
                        .max_latency_for_factor(fallback_ratio.min(1.0))
                        .map(|slack| sync_at + slack);
                }
                if let Some(h) = horizon {
                    if sync_at > h {
                        break;
                    }
                }
                visited += 1;
                if visited > DEFAULT_MAX_SYNC_POINTS {
                    break;
                }
                for mask in 1..arena.len() {
                    race(&mut delayed, arena.score(ctx, request, sync_at, mask), mask);
                }
                cursor = sync_at;
            }
        }

        let mut masks = vec![0];
        let mut best = Some((all_remote, 0));
        if let Some((score, mask)) = immediate_local {
            masks.push(mask);
            race(&mut best, score, mask);
        }
        if let Some((score, mask)) = delayed {
            masks.push(mask);
            race(&mut best, score, mask);
        }
        let (score, mask) = best.expect("seeded with the all-remote plan");
        (
            arena.evaluation(request, mask, score),
            CacheEntry {
                seq: 0, // assigned on insertion
                champions: arena.retain_masks(&masks),
                delayed: delayed.map(|(score, _)| score.execute_at),
            },
        )
    }

    /// Evicts every entry whose replicated footprint includes `table` and
    /// returns how many entries were dropped. Used when `table`'s
    /// timeline is *revised* (a scheduled sync slipped or dropped): the
    /// entry's delayed champions may reference the revised sync point, so
    /// unlike ordinary sync-event GC the eviction is a correctness
    /// matter, not just garbage collection.
    pub fn invalidate_table(&mut self, table: TableId) -> usize {
        self.evict_where(|_, entry| entry.champions.replicated().contains(&table))
    }

    /// Counts entries whose recorded sync phase disagrees with
    /// `timelines` at `now` — entries a lookup *could not hit* (the key
    /// embeds the phase) but that invalidation should have collected.
    /// The chaos suite asserts this is zero after every tick; it is an
    /// observability probe, not part of the serving path.
    #[must_use]
    pub fn stale_entries(&self, timelines: &SyncTimelines, now: SimTime) -> usize {
        self.entries
            .iter()
            .filter(|(key, entry)| {
                entry
                    .champions
                    .replicated()
                    .iter()
                    .enumerate()
                    .any(|(idx, &t)| timelines.last_sync(t, now) != key.seen_sync(idx))
            })
            .count()
    }

    /// Evicts every entry invalidated by the given synchronization
    /// events (an entry is stale once any table of its replicated
    /// footprint completed a sync after the entry's recorded phase) and
    /// returns how many entries were dropped.
    pub fn apply_sync_events(&mut self, events: &[SyncEvent]) -> usize {
        if events.is_empty() || self.entries.is_empty() {
            return 0;
        }
        self.evict_where(|key, entry| {
            events.iter().any(|event| {
                entry
                    .champions
                    .replicated()
                    .iter()
                    .position(|&t| t == event.table)
                    .is_some_and(|idx| key.seen_sync(idx).is_none_or(|seen| seen < event.at))
            })
        })
    }

    /// Evicts every entry `is_stale` selects, counts them as
    /// invalidations and returns how many were dropped. Only the evicted
    /// keys leave the FIFO order (removed by sequence number, without
    /// hashing), so the survivors keep their order and a tick that evicts
    /// nothing costs one pass over the entries.
    fn evict_where(
        &mut self,
        mut is_stale: impl FnMut(&PlanCacheKey, &CacheEntry) -> bool,
    ) -> usize {
        let before = self.entries.len();
        let order = &mut self.insertion_order;
        self.entries.retain(|key, entry| {
            let stale = is_stale(key, entry);
            if stale {
                order.remove(&entry.seq);
            }
            !stale
        });
        let evicted = before - self.entries.len();
        self.invalidations += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_core::plan::NoQueues;
    use ivdss_core::value::DiscountRates;
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::schedule::Schedule;
    use proptest::prelude::*;

    /// The live keys as the FIFO order lists them, oldest first.
    fn order(cache: &PlanCache) -> Vec<PlanCacheKey> {
        cache.insertion_order.values().cloned().collect()
    }

    /// Whether `event` closes the sync window `key` was built in, read
    /// from the key alone so the model stays independent of the entries.
    fn closes_window(key: &PlanCacheKey, timelines: &SyncTimelines, event: &SyncEvent) -> bool {
        key.footprint
            .iter()
            .filter(|&&t| timelines.has_replica(t))
            .zip(&key.sync_phase)
            .any(|(&t, &seen)| {
                t == event.table
                    && (seen == NEVER_SYNCED || f64::from_bits(seen) < event.at.value())
            })
    }

    proptest! {
        /// Random interleavings of lookups, sync-event GC and table
        /// invalidation keep `insertion_order` equal to a FIFO model: it
        /// holds exactly the live keys, each once, oldest first, and a
        /// miss at capacity evicts the oldest surviving entry.
        #[test]
        fn insertion_order_tracks_live_keys_fifo(
            ops in prop::collection::vec((0u8..4, 1u32..32, 0.0..60.0f64), 1..120)
        ) {
            let catalog = synthetic_catalog(&SyntheticConfig {
                tables: 5,
                sites: 2,
                replicated_tables: 0,
                seed: 23,
                ..SyntheticConfig::default()
            })
            .unwrap();
            let mut timelines = SyncTimelines::new();
            for (t, period) in [(0u32, 7.0), (1, 11.0), (2, 13.0)] {
                timelines.insert(TableId::new(t), Schedule::periodic(period, 5.0));
            }
            let model = StylizedCostModel::paper_fig4();
            let ctx = PlanContext {
                catalog: &catalog,
                timelines: &timelines,
                model: &model,
                rates: DiscountRates::new(0.01, 0.05),
                queues: &NoQueues,
            };

            let mut cache = PlanCache::new(4);
            let mut fifo: Vec<PlanCacheKey> = Vec::new();
            for (op, bits, at) in ops {
                let at = SimTime::new(at);
                let table = TableId::new(bits % 5);
                match op {
                    // Lookups are twice as likely as either GC path.
                    0 | 1 => {
                        let tables =
                            (0..5).filter(|t| bits & (1 << t) != 0).map(TableId::new).collect();
                        let request =
                            QueryRequest::new(QuerySpec::new(QueryId::new(0), tables), at);
                        let key = PlanCacheKey::for_request(&ctx, &request);
                        let live = fifo.contains(&key);
                        let (_, outcome) = cache.plan(&ctx, &request);
                        prop_assert_eq!(outcome == CacheOutcome::Hit, live);
                        if !live {
                            if fifo.len() == 4 {
                                let oldest = fifo.remove(0);
                                prop_assert!(!cache.entries.contains_key(&oldest));
                            }
                            fifo.push(key);
                        }
                    }
                    2 => {
                        let event = SyncEvent { at, table };
                        let before = fifo.len();
                        fifo.retain(|key| !closes_window(key, &timelines, &event));
                        prop_assert_eq!(cache.apply_sync_events(&[event]), before - fifo.len());
                    }
                    _ => {
                        let before = fifo.len();
                        fifo.retain(|key| {
                            !(key.footprint.contains(&table) && timelines.has_replica(table))
                        });
                        prop_assert_eq!(cache.invalidate_table(table), before - fifo.len());
                    }
                }
                prop_assert_eq!(order(&cache), fifo.clone());
                prop_assert_eq!(cache.len(), fifo.len());
                for key in &fifo {
                    prop_assert!(cache.entries.contains_key(key));
                }
            }
        }
    }
}
