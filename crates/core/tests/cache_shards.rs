//! Public-surface behaviour of the LRU-evicting artifact store: one
//! configuration can fill a stage's whole cap, eviction never changes
//! results, counters survive eviction, cross-client attribution flows
//! through [`ScenarioSession`], and the shared read/write path stays
//! safe and correct under seeded multi-threaded request streams with
//! pathologically tiny caps.

mod common;

use common::expected_entries;
use proptest::prelude::*;
use tdc_core::service::{EvalRequest, EvalResponse, ScenarioSession};
use tdc_core::sweep::{DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ChipDesign, DieSpec, ModelContext, Workload};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_units::{Throughput, TimeSpan};

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];

fn mono(gates: f64) -> ChipDesign {
    ChipDesign::monolithic_2d(
        DieSpec::builder("d", ProcessNode::N7)
            .gate_count(gates)
            .build()
            .unwrap(),
    )
}

fn context(region: GridRegion) -> ModelContext {
    ModelContext::builder().use_region(region).build()
}

fn mission(hours: f64) -> Workload {
    Workload::fixed(
        "mission",
        Throughput::from_tops(150.0),
        TimeSpan::from_hours(hours),
    )
}

fn plan() -> SweepPlan {
    DesignSweep::new(12.0e9)
        .nodes(vec![ProcessNode::N7, ProcessNode::N5])
        .plan()
        .unwrap()
}

/// A tiny deterministic LCG for the thread-stress streams.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 16
}

/// The cap bounds memory, never results: a sweep space wide enough to
/// overflow a cap of 2 entries per stage must still produce the direct
/// oracle's entries, cold and warm.
#[test]
fn tiny_caps_never_change_sweep_entries() {
    let plan = plan();
    let tiny = SweepExecutor::default().artifact_cap(2);
    for (round, region) in REGIONS.iter().enumerate() {
        let workload = mission(4_000.0 + 2_000.0 * round as f64);
        let model = CarbonModel::new(context(*region));
        let expect = expected_entries(&model, &plan, &workload);
        let cold = tiny.execute(&model, &plan, &workload).unwrap();
        let warm = tiny.execute(&model, &plan, &workload).unwrap();
        assert_eq!(expect, cold.entries(), "cold under eviction");
        assert_eq!(expect, warm.entries(), "warm under eviction");
    }
    assert!(
        tiny.cache().stats().evictions > 0,
        "the tiny cap never evicted — the space no longer stresses it"
    );
}

/// The cap-and-drop footgun this PR removes: evicting entries must
/// not reset the cumulative hit/miss accounting.
#[test]
fn counters_survive_eviction_through_the_session_surface() {
    let session = ScenarioSession::with_artifact_cap(2);
    let mut lookups_after_first = 0;
    for i in 0..24 {
        let evaluated = session
            .evaluate(&EvalRequest::Run {
                context: ModelContext::default(),
                design: mono(6.0e9 + 0.5e9 * f64::from(i)),
                workload: Some(mission(5_000.0)),
            })
            .unwrap();
        if i == 0 {
            let s = evaluated.stats.stages;
            lookups_after_first = s.hits() + s.misses();
        }
    }
    let cache_stats = session.executor().cache().stats();
    assert!(cache_stats.evictions > 0, "24 geometries at cap 2 evict");
    let stages = session.stats().stages;
    assert!(
        stages.hits() + stages.misses() > lookups_after_first * 20,
        "cumulative counters shrank under eviction: {stages:?}"
    );
    // The store itself stayed bounded while the counters kept growing.
    assert!(
        cache_stats.entries < 24,
        "cap 2 left {} entries resident",
        cache_stats.entries
    );
}

/// `evaluate_as` attributes warmth between registered clients: client
/// B hitting artifacts client A inserted shows up in `client_hits`,
/// and same-client warmth does not.
#[test]
fn evaluate_as_attributes_cross_client_hits() {
    let session = ScenarioSession::default();
    let a = session.register_client();
    let b = session.register_client();
    assert_ne!(a, b, "client ids are unique");
    assert_eq!(session.stats().clients, 2);

    let design = mono(9.0e9);
    let request = |region, hours| EvalRequest::Run {
        context: context(region),
        design: design.clone(),
        workload: Some(mission(hours)),
    };
    let cold = session
        .evaluate_as(a, &request(GridRegion::WorldAverage, 5_000.0))
        .unwrap();
    assert_eq!(cold.stats.stages.client_hits(), 0, "cold request");

    // Same client, shared geometry: warm, but not *cross-client* warm.
    let same = session
        .evaluate_as(a, &request(GridRegion::France, 5_000.0))
        .unwrap();
    assert!(same.stats.stages.cross_hits() > 0);
    assert_eq!(
        same.stats.stages.client_hits(),
        0,
        "client A hitting its own artifacts is not cross-client reuse"
    );

    // Different client, shared geometry: every embodied-chain hit came
    // from client A's artifacts.
    let cross = session
        .evaluate_as(b, &request(GridRegion::CoalHeavy, 7_000.0))
        .unwrap();
    let stages = cross.stats.stages;
    assert_eq!(stages.embodied.misses, 0);
    assert!(stages.client_hits() > 0, "{stages:?}");
    assert_eq!(
        stages.client_hits(),
        stages.cross_hits(),
        "all warmth of this request came from the other client"
    );

    // The anonymous `evaluate` path (client 0) also counts as another
    // client relative to A and B.
    let anon = session
        .evaluate(&request(GridRegion::Renewable, 9_000.0))
        .unwrap();
    assert!(anon.stats.stages.client_hits() > 0);
}

/// The cap is per stage, and one configuration may fill all of it: a
/// 23-design plan under a cap of 64 keeps every artifact of every
/// stage and evicts nothing.
#[test]
fn one_configuration_fills_the_whole_cap() {
    let plan = DesignSweep::new(8.0e9)
        .nodes(vec![ProcessNode::N7])
        .tier_counts(vec![2, 3, 4])
        .plan()
        .unwrap();
    assert_eq!(plan.len(), 23);
    let executor = SweepExecutor::default().artifact_cap(64);
    executor
        .execute(
            &CarbonModel::new(ModelContext::default()),
            &plan,
            &mission(5_000.0),
        )
        .unwrap();
    let stats = executor.cache().stats();
    assert_eq!(stats.evictions, 0, "{stats:?}");
    assert_eq!(stats.entries, 5 * plan.len(), "{stats:?}");
}

/// `publish_obs` copies a cache's stats into the global `cache.*`
/// gauges: the occupancy and hits of a roomy store, and the evictions
/// of a tiny-cap one. Each gauge is read right after its publish, and
/// nothing else in this binary publishes.
#[test]
fn publish_obs_mirrors_cache_stats_into_obs_gauges() {
    use tdc_obs::metrics::{CACHE_ENTRIES, CACHE_EVICTIONS, CACHE_HITS};
    let gauge = |v: u64| i64::try_from(v).unwrap();
    let run_configurations = |executor: &SweepExecutor| {
        let plan = plan();
        for region in REGIONS {
            for k in 0..6 {
                let workload = mission(3_000.0 + 500.0 * f64::from(k));
                executor
                    .execute(&CarbonModel::new(context(region)), &plan, &workload)
                    .unwrap();
            }
        }
    };

    let executor = SweepExecutor::default();
    run_configurations(&executor);
    let stats = executor.cache().stats();
    assert_eq!(stats.evictions, 0, "the uncapped store never evicts");
    executor.cache().publish_obs();
    assert_eq!(CACHE_ENTRIES.get(), gauge(stats.entries as u64));
    assert_eq!(CACHE_HITS.get(), gauge(stats.stages.hits()));
    assert_eq!(CACHE_EVICTIONS.get(), 0);

    let tiny = SweepExecutor::default().artifact_cap(2);
    run_configurations(&tiny);
    let stats = tiny.cache().stats();
    assert!(
        stats.evictions > 0,
        "cap 2 under 24 configurations must evict"
    );
    tiny.cache().publish_obs();
    assert_eq!(CACHE_EVICTIONS.get(), gauge(stats.evictions));
    assert_eq!(CACHE_ENTRIES.get(), gauge(stats.entries as u64));
}

/// Seeded thread-stress on the shared read/write path through the
/// public session surface: concurrent registered clients, a tiny cap
/// forcing constant eviction, and every response checked against a
/// fresh single-threaded evaluation. No panics, no wrong answers.
#[test]
fn concurrent_clients_with_tiny_caps_answer_fresh_process_values() {
    const THREADS: u64 = 4;
    const REQUESTS: u64 = 30;
    let session = ScenarioSession::with_artifact_cap(3);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            scope.spawn(move || {
                let client = session.register_client();
                let mut state = 0x5eed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..REQUESTS {
                    let r = lcg(&mut state);
                    // 6 shared geometries x 4 regions x 3 lifetimes:
                    // plenty of overlap between clients, plenty of
                    // distinct keys to churn a cap-3 store.
                    let design = mono(6.0e9 + 1.0e9 * (r % 6) as f64);
                    let region = REGIONS[(r / 8) as usize % REGIONS.len()];
                    let hours = 4_000.0 + 2_000.0 * ((r / 64) % 3) as f64;
                    let evaluated = session
                        .evaluate_as(
                            client,
                            &EvalRequest::Run {
                                context: context(region),
                                design: design.clone(),
                                workload: Some(mission(hours)),
                            },
                        )
                        .unwrap();
                    let fresh = CarbonModel::new(context(region))
                        .lifecycle(&design, &mission(hours))
                        .unwrap();
                    assert_eq!(
                        evaluated.response,
                        EvalResponse::Lifecycle(fresh),
                        "a shared store changed a response"
                    );
                }
            });
        }
    });
    let stats = session.stats();
    assert_eq!(stats.requests, THREADS * REQUESTS);
    assert_eq!(stats.clients, THREADS);
    assert!(
        stats.stages.client_hits() > 0,
        "overlapping client streams never shared an artifact: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Eviction transparency on randomized streams: any request order,
    /// any tiny cap — session responses equal a fresh process, and
    /// sweeps equal the direct oracle.
    #[test]
    fn randomized_streams_under_tiny_caps_equal_fresh_responses(
        cap in 1usize..6,
        picks in proptest::collection::vec(0usize..5, 4..10),
        region_picks in proptest::collection::vec(0usize..REGIONS.len(), 4..10),
    ) {
        let session = ScenarioSession::with_artifact_cap(cap);
        let plan = plan();
        for (i, pick) in picks.iter().enumerate() {
            let region = REGIONS[region_picks[i % region_picks.len()]];
            #[allow(clippy::cast_precision_loss)]
            let workload = mission(3_500.0 + 1_000.0 * i as f64);
            if *pick == 4 {
                let got = session
                    .evaluate(&EvalRequest::Sweep {
                        context: context(region),
                        plan: plan.clone(),
                        workload: workload.clone(),
                    })
                    .expect("plan designs evaluate");
                let EvalResponse::Sweep(result) = got.response else {
                    return Err(TestCaseError::fail("sweep answered non-sweep"));
                };
                let fresh = expected_entries(&CarbonModel::new(context(region)), &plan, &workload);
                prop_assert_eq!(result.entries(), fresh.as_slice());
            } else {
                #[allow(clippy::cast_precision_loss)]
                let design = mono(7.0e9 + 1.0e9 * *pick as f64);
                let got = session
                    .evaluate(&EvalRequest::Run {
                        context: context(region),
                        design: design.clone(),
                        workload: Some(workload.clone()),
                    })
                    .expect("evaluates");
                let fresh = CarbonModel::new(context(region))
                    .lifecycle(&design, &workload)
                    .expect("evaluates");
                prop_assert_eq!(got.response, EvalResponse::Lifecycle(fresh));
            }
        }
    }
}
