//! Property tests for the serving subsystem: cache exactness against the
//! full scatter-and-gather search and against the boxed champion
//! enumeration.

use std::collections::BTreeSet;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{evaluate_plan, NoQueues, PlanContext, PlanEvaluation, QueryRequest};
use ivdss_core::search::{
    is_better, local_subsets, replicated_footprint, ScatterGatherSearch, SearchOpts,
    DEFAULT_MAX_SYNC_POINTS,
};
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::schedule::Schedule;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_serve::cache::{CacheOutcome, PlanCache};
use ivdss_simkernel::time::SimTime;
use proptest::prelude::*;

/// Five tables over two sites; tables 0–2 replicated with the given
/// periodic schedules (period, phase), so sync phases are fully
/// randomizable.
fn fixture(schedules: &[(f64, f64)]) -> (Catalog, SyncTimelines) {
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 5,
        sites: 2,
        replicated_tables: 0,
        seed: 23,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut timelines = SyncTimelines::new();
    for (i, &(period, phase)) in schedules.iter().enumerate() {
        timelines.insert(TableId::new(i as u32), Schedule::periodic(period, phase));
    }
    (catalog, timelines)
}

fn footprint(with_t3: bool, with_t4: bool) -> Vec<TableId> {
    let mut tables = vec![TableId::new(0), TableId::new(1), TableId::new(2)];
    if with_t3 {
        tables.push(TableId::new(3));
    }
    if with_t4 {
        tables.push(TableId::new(4));
    }
    tables
}

proptest! {
    /// The headline cache property: a *hit* returns a plan whose IV is
    /// identical to a fresh scatter-and-gather search at the live submit
    /// time, across randomized sync periods, phases, footprints, rates
    /// and submit offsets. (The entry is populated at one instant of the
    /// inter-sync window and hit at a different one.)
    #[test]
    fn cache_hit_iv_matches_fresh_search(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        p2 in 1.0..20.0f64,
        ph0 in 0.0..1.0f64,
        ph1 in 0.0..1.0f64,
        ph2 in 0.0..1.0f64,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64,
        populate_at in 0.0..50.0f64,
        offset in 0.0..0.999f64,
        with_t3 in any::<bool>(),
        with_t4 in any::<bool>(),
        bv in 0.1..10.0f64
    ) {
        let (catalog, timelines) =
            fixture(&[(p0, ph0 * p0), (p1, ph1 * p1), (p2, ph2 * p2)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let tables = footprint(with_t3, with_t4);
        let replicated = [TableId::new(0), TableId::new(1), TableId::new(2)];

        let s1 = SimTime::new(populate_at);
        // A second submit instant in the same inter-sync window: strictly
        // before the next sync of any footprint table.
        let (_, next_sync) = timelines.next_sync_among(&replicated, s1).unwrap();
        let s2 = SimTime::new(
            populate_at + offset * (next_sync.value() - populate_at),
        );

        let mut cache = PlanCache::new(16);
        let req1 = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), tables.clone()),
            s1,
        );
        let (eval1, outcome1) = cache.plan(&ctx, &req1);
        prop_assert_eq!(outcome1, CacheOutcome::Miss);
        let fresh1 = ScatterGatherSearch::new().search(&ctx, &req1, SearchOpts::default()).unwrap();
        prop_assert!(
            (eval1.information_value.value() - fresh1.best.information_value.value()).abs()
                <= 1e-12 * fresh1.best.information_value.value().max(1.0),
            "miss path: cache {} vs search {}",
            eval1.information_value.value(),
            fresh1.best.information_value.value()
        );

        // Different id and business value must not matter: neither is in
        // the key, and BV scales every candidate equally.
        let req2 = QueryRequest::new(
            QuerySpec::new(QueryId::new(1), tables),
            s2,
        )
        .with_business_value(BusinessValue::new(bv));
        let (eval2, outcome2) = cache.plan(&ctx, &req2);
        prop_assert_eq!(outcome2, CacheOutcome::Hit);
        let fresh2 = ScatterGatherSearch::new().search(&ctx, &req2, SearchOpts::default()).unwrap();
        prop_assert!(
            (eval2.information_value.value() - fresh2.best.information_value.value()).abs()
                <= 1e-12 * fresh2.best.information_value.value().max(1.0),
            "hit path at s2={} (window [{}, {})): cache {} vs search {}",
            s2.value(),
            populate_at,
            next_sync.value(),
            eval2.information_value.value(),
            fresh2.best.information_value.value()
        );
    }

    /// Queries whose footprint has no replicated table still plan
    /// through the cache (all-remote champion only) and match the fresh
    /// search.
    #[test]
    fn cache_handles_unreplicated_footprints(
        submit in 0.0..100.0f64,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64
    ) {
        let (catalog, timelines) = fixture(&[(5.0, 0.0)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let mut cache = PlanCache::new(4);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![TableId::new(3), TableId::new(4)]),
            SimTime::new(submit),
        );
        let (eval, _) = cache.plan(&ctx, &req);
        let fresh = ScatterGatherSearch::new().search(&ctx, &req, SearchOpts::default()).unwrap();
        prop_assert!(
            (eval.information_value.value() - fresh.best.information_value.value()).abs() <= 1e-12
        );
        // And the second lookup is a hit (no sync phase in the key).
        let (_, outcome) = cache.plan(&ctx, &req);
        prop_assert_eq!(outcome, CacheOutcome::Hit);
    }
}

/// A cached champion of the reference enumeration: its release policy
/// (`None` = at submission) and local replica set.
type RefChampion = (Option<SimTime>, BTreeSet<TableId>);

/// The boxed champion enumeration the cache ran before it scored on the
/// `SubsetArena` kernel: `evaluate_plan` over every `local_subsets` set,
/// raced with `is_better`, over the same sync-point horizon and
/// `DEFAULT_MAX_SYNC_POINTS` cap. Returns the miss answer and the
/// per-class champions.
fn reference_populate(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
) -> (PlanEvaluation, Vec<RefChampion>) {
    let submit = request.submitted_at;
    let replicated = replicated_footprint(ctx, request);
    let subsets = local_subsets(&replicated);
    let eval = |at: SimTime, local: &BTreeSet<TableId>| {
        evaluate_plan(ctx, request, at, local).expect("valid candidate")
    };
    let race = |slot: &mut Option<PlanEvaluation>, candidate: PlanEvaluation| {
        if is_better(&candidate, slot.as_ref()) {
            *slot = Some(candidate);
        }
    };

    let all_remote = eval(submit, &subsets[0]);
    let mut immediate_local = None;
    for local in &subsets[1..] {
        race(&mut immediate_local, eval(submit, local));
    }
    let mut delayed = None;
    if !replicated.is_empty() {
        let fallback_ratio = all_remote.information_value.value() / request.business_value.value();
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
            if horizon.is_some_and(|h| sync_at > h) {
                break;
            }
            visited += 1;
            if visited > DEFAULT_MAX_SYNC_POINTS {
                break;
            }
            for local in &subsets[1..] {
                race(&mut delayed, eval(sync_at, local));
            }
            cursor = sync_at;
        }
    }

    let mut champions = vec![(None, BTreeSet::new())];
    let mut best = Some(all_remote);
    if let Some(e) = immediate_local {
        champions.push((None, e.local_tables.clone()));
        race(&mut best, e);
    }
    if let Some(e) = delayed {
        champions.push((Some(e.execute_at), e.local_tables.clone()));
        race(&mut best, e);
    }
    (best.expect("seeded"), champions)
}

/// The boxed hit path: re-evaluate every reference champion at the live
/// submit time and keep the best.
fn reference_hit(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    champions: &[RefChampion],
) -> PlanEvaluation {
    let submit = request.submitted_at;
    let mut best: Option<PlanEvaluation> = None;
    for (release, local) in champions {
        let at = release.map_or(submit, |r| r.max(submit));
        let candidate = evaluate_plan(ctx, request, at, local).expect("valid candidate");
        if is_better(&candidate, best.as_ref()) {
            best = Some(candidate);
        }
    }
    best.expect("at least the all-remote champion")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The arena-backed cache is bit-exact against the boxed champion
    /// enumeration: the whole `PlanEvaluation` is equal, on the miss and
    /// on hits at other instants of the same sync window. Footprints
    /// carry 0–6 replicated tables plus unreplicated ones, timelines are
    /// periodic or stochastic, and λ_CL may be 0, where no CL horizon
    /// exists and only the sync-point cap stops the enumeration.
    #[test]
    fn arena_cache_is_bit_exact_against_boxed_enumeration(
        periods in prop::collection::vec((1.0..15.0f64, 0.0..1.0f64), 6),
        stochastic in any::<bool>(),
        seed in any::<u64>(),
        mask in 0u32..256,
        lcl_zero in 0u8..4,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64,
        submit in 0.0..100.0f64,
        offsets in prop::collection::vec(0.0..0.999f64, 3),
        bv in 0.1..10.0f64
    ) {
        let catalog = synthetic_catalog(&SyntheticConfig {
            tables: 8,
            sites: 3,
            replicated_tables: 0,
            seed: 31,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut timelines = SyncTimelines::new();
        for (i, &(period, phase)) in periods.iter().enumerate() {
            let schedule = if stochastic {
                Schedule::exponential_trace(period, SimTime::new(400.0), seed ^ i as u64)
            } else {
                Schedule::periodic(period, phase * period)
            };
            timelines.insert(TableId::new(i as u32), schedule);
        }
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(if lcl_zero == 0 { 0.0 } else { lcl }, lsl),
            queues: &NoQueues,
        };
        // Bits 0–5 pick replicated tables, bits 6–7 the unreplicated 6
        // and 7; an empty pick falls back to table 7 alone.
        let mut tables: Vec<TableId> =
            (0..8).filter(|t| mask & (1 << t) != 0).map(TableId::new).collect();
        if tables.is_empty() {
            tables.push(TableId::new(7));
        }
        let replicated: Vec<TableId> =
            tables.iter().copied().filter(|&t| timelines.has_replica(t)).collect();

        let mut cache = PlanCache::new(8);
        let miss = QueryRequest::new(QuerySpec::new(QueryId::new(0), tables.clone()), SimTime::new(submit));
        let (eval, outcome) = cache.plan(&ctx, &miss);
        prop_assert_eq!(outcome, CacheOutcome::Miss);
        let (expected, champions) = reference_populate(&ctx, &miss);
        prop_assert_eq!(&eval, &expected);

        let window_end = timelines
            .next_sync_among(&replicated, miss.submitted_at)
            .map_or(submit + 50.0, |(_, at)| at.value());
        for (i, offset) in offsets.into_iter().enumerate() {
            let at = SimTime::new(submit + offset * (window_end - submit));
            let hit = QueryRequest::new(QuerySpec::new(QueryId::new(1 + i as u64), tables.clone()), at)
                .with_business_value(BusinessValue::new(bv));
            let (eval, outcome) = cache.plan(&ctx, &hit);
            prop_assert_eq!(outcome, CacheOutcome::Hit);
            prop_assert_eq!(eval, reference_hit(&ctx, &hit, &champions));
        }
    }
}
