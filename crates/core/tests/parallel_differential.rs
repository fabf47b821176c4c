//! Differential test: the search on a pool, with and without a
//! [`PhaseMemo`] and a [`ReplanCache`], vs. the plain sequential
//! scatter-and-gather search, over seeded workloads on both nominal and
//! fault-revised synchronization timelines. Every workload runs on
//! pools of 1, 2 and 4 threads, each with the memo off and on, each
//! once without a repair cache and three times with one (cold, then
//! twice warm).
//!
//! Two regimes, with different guarantees:
//!
//! * **No memo** — the [`SearchOutcome`] must be *bit identical* to the
//!   sequential search: same plan, same IV, same `plans_explored`,
//!   `sync_points_visited`, and `boundary`. The pool only changes who
//!   evaluates a candidate, and the repair cache only skips the scoring
//!   of a candidate, never which candidates are evaluated or how ties
//!   break.
//! * **[`PhaseMemo`]** — the chosen plan, the final boundary, and the
//!   sync points visited must still match exactly; only
//!   `plans_explored` may shrink (memo hits skip dominated masks).
//!
//! In both regimes a recording tracer renders the same bytes with the
//! warm repair cache as without it.
//!
//! The faulted half runs on [`FaultPlan::degraded_timelines`]: slipped
//! and dropped syncs yield irregular finite traces, which exercise the
//! memo's offset keying away from the easy periodic case.

use std::sync::Arc;

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::memo::PhaseMemo;
use ivdss_core::parallel::PlannerPool;
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::repair::ReplanCache;
use ivdss_core::search::{ScatterGatherSearch, SearchOpts, SearchOutcome};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_obs::{Trace, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;

const SEEDS: u64 = 50;
const HORIZON: f64 = 400.0;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// A 5-table catalog with 3 replicated tables on seed-varied periods —
/// large enough that the scatter wave has 8 subset combinations and the
/// gather walks a non-trivial frontier.
fn fixture(seed: u64) -> (ivdss_catalog::catalog::Catalog, SyncTimelines) {
    let seeds = SeedFactory::new(seed);
    let mut periods = UniformStream::new(2.0, 15.0, seeds.seed_for("periods"));
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 5,
        sites: 3,
        replicated_tables: 0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("differential catalog configuration is valid");
    let mut plan = ReplicationPlan::new();
    for i in 0..3 {
        plan.add(t(i), ReplicaSpec::new(periods.next_sample()));
    }
    let catalog = base.with_replication(plan).expect("replication is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

fn assert_same_plan(a: &SearchOutcome, b: &SearchOutcome, label: &str) {
    assert_eq!(
        a.best.information_value, b.best.information_value,
        "{label}: information value diverged"
    );
    assert_eq!(
        a.best.local_tables, b.best.local_tables,
        "{label}: local subset diverged"
    );
    assert_eq!(
        a.best.execute_at, b.best.execute_at,
        "{label}: release time diverged"
    );
    assert_eq!(a.best.finish, b.best.finish, "{label}: finish diverged");
}

#[test]
fn parallel_planner_matches_sequential_over_seeded_workloads() {
    let search = ScatterGatherSearch::new();
    let model = StylizedCostModel::paper_fig4();
    let mut workloads = 0u64;
    let mut degraded_differs = 0u64;
    let mut memo_savings = 0u64;
    let mut repair_reuses = 0u64;

    for seed in 0..SEEDS {
        let seeds = SeedFactory::new(seed ^ 0xA11E);
        let (catalog, nominal) = fixture(seed);
        let faults = FaultPlan::generate(
            &FaultConfig {
                slip_probability: 0.35,
                drop_probability: 0.1,
                slip_delay: (0.5, 6.0),
                horizon: SimTime::new(HORIZON),
                ..FaultConfig::default()
            },
            &nominal,
            catalog.site_count(),
            seeds.seed_for("faults"),
        );
        let degraded = faults.degraded_timelines(&nominal);
        if degraded != nominal {
            degraded_differs += 1;
        }

        let mut rate = UniformStream::new(0.005, 0.25, seeds.seed_for("rates"));
        let mut submit = UniformStream::new(0.0, 60.0, seeds.seed_for("submit"));
        let rates = DiscountRates::new(rate.next_sample(), rate.next_sample());
        let footprints: [&[TableId]; 2] = [&[t(0), t(1), t(2), t(3), t(4)], &[t(0), t(1), t(2)]];

        for timelines in [&nominal, &degraded] {
            let ctx = PlanContext {
                catalog: &catalog,
                timelines,
                model: &model,
                rates,
                queues: &NoQueues,
            };
            // One memo per (seed, timeline): requests at matching phase
            // offsets reuse each other's frontiers.
            let memo = PhaseMemo::new();
            for (i, tables) in footprints.into_iter().enumerate() {
                let request = QueryRequest::new(
                    QuerySpec::new(QueryId::new(i as u64), tables.to_vec()),
                    SimTime::new(submit.next_sample()),
                );
                let label = format!("seed {seed} footprint {i}");
                let sequential = search
                    .search(&ctx, &request, SearchOpts::default())
                    .expect("sequential search is feasible");

                for threads in [1usize, 2, 4] {
                    let pool = PlannerPool::new(threads);
                    for memo in [None, Some(&memo)] {
                        let label = format!("{label} threads {threads} memo {}", memo.is_some());
                        let opts = || SearchOpts {
                            pool: Some(&pool),
                            memo,
                            ..SearchOpts::default()
                        };
                        // A fresh repair cache per combination: one cold
                        // call, then two on the warm cache.
                        let cache = ReplanCache::new();
                        let repaired = || SearchOpts {
                            repair: Some(&cache),
                            ..opts()
                        };
                        let mut outcomes = vec![search
                            .search(&ctx, &request, opts())
                            .expect("pooled search is feasible")];
                        for _ in 0..3 {
                            outcomes.push(
                                search
                                    .search(&ctx, &request, repaired())
                                    .expect("repaired search is feasible"),
                            );
                        }
                        for (round, outcome) in outcomes.iter().enumerate() {
                            let label = format!("{label} round {round}");
                            if memo.is_none() {
                                // No memo: the whole outcome is
                                // bit-identical, counters included.
                                assert_eq!(*outcome, sequential, "{label}: outcome diverged");
                                continue;
                            }
                            // Memoized: same plan, boundary, and visit
                            // count; only the explored-plan counter may
                            // shrink.
                            assert_same_plan(outcome, &sequential, &label);
                            assert_eq!(
                                outcome.boundary, sequential.boundary,
                                "{label}: memoized boundary diverged"
                            );
                            assert_eq!(
                                outcome.sync_points_visited, sequential.sync_points_visited,
                                "{label}: memoized visit count diverged"
                            );
                            assert!(
                                outcome.plans_explored <= sequential.plans_explored,
                                "{label}: memo explored more plans than sequential"
                            );
                            if outcome.plans_explored < sequential.plans_explored {
                                memo_savings += 1;
                            }
                        }

                        // Repair sits below the events: on the warm cache
                        // (and, with a memo, the memo the calls above
                        // warmed) the recorded trace is byte-identical
                        // with and without it.
                        let traced = |repair: Option<&ReplanCache>| {
                            let trace = Arc::new(Trace::new());
                            let tracer = Tracer::recording(Arc::clone(&trace));
                            search
                                .search(
                                    &ctx,
                                    &request,
                                    SearchOpts {
                                        repair,
                                        tracer: Some(&tracer),
                                        ..opts()
                                    },
                                )
                                .expect("traced search is feasible");
                            trace.render()
                        };
                        assert_eq!(
                            traced(Some(&cache)),
                            traced(None),
                            "{label}: repair changed the trace bytes"
                        );
                        let stats = cache.stats();
                        repair_reuses += stats.hits + stats.outcome_hits;
                    }
                }
                workloads += 1;
            }
        }
    }

    assert!(
        workloads >= 200,
        "the band must cover at least 200 workloads, got {workloads}"
    );
    assert!(
        degraded_differs > SEEDS * 3 / 4,
        "most seeds should actually degrade the timelines, got {degraded_differs}/{SEEDS}"
    );
    assert!(
        memo_savings > 0,
        "the memo never pruned anything across the whole band"
    );
    assert!(
        repair_reuses > 0,
        "the warm repair cache never answered across the whole band"
    );
}
