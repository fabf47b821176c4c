//! Property tests for the serving subsystem: cache exactness against the
//! full scatter-and-gather search, and admission/shedding invariants.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::search::{ScatterGatherSearch, SearchOpts};
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
        let (eval1, outcome1) = cache.plan(&ctx, &req1).unwrap();
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
        let (eval2, outcome2) = cache.plan(&ctx, &req2).unwrap();
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
        let (eval, _) = cache.plan(&ctx, &req).unwrap();
        let fresh = ScatterGatherSearch::new().search(&ctx, &req, SearchOpts::default()).unwrap();
        prop_assert!(
            (eval.information_value.value() - fresh.best.information_value.value()).abs() <= 1e-12
        );
        // And the second lookup is a hit (no sync phase in the key).
        let (_, outcome) = cache.plan(&ctx, &req).unwrap();
        prop_assert_eq!(outcome, CacheOutcome::Hit);
    }
}
