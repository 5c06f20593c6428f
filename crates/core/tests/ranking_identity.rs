//! Seeded identity test of the carbon-only batch ranking path.
//!
//! `execute_batched_ranking` prices the operational stage as a bare
//! carbon figure: it never builds, stores or shares an
//! `OperationalReport`. Over seeded random plans (duplicated axis
//! entries, oversized drops, designs with and without a measured
//! efficiency), workloads (multi-phase, trace-backed, 2.5D designs
//! stretched by the bandwidth limit) and configuration streams with a
//! new request epoch (from one of three clients) per call, every call
//! must:
//!
//! * rank every point with a total bit-identical to the direct
//!   `CarbonModel::lifecycle` oracle;
//! * report the same `SweepStats` as a twin executor running
//!   `execute` on the same stream, on plans without duplicate
//!   designs;
//! * on plans with duplicate designs, count each duplicate as an
//!   operational miss: no report is ever stored for a later duplicate
//!   to hit, where the twin's duplicates hit the report its first
//!   occurrence stored.
//!
//! The generator is a local SplitMix64 stream (the vendored proptest
//! has no tuple strategies), so every case is reproducible from its
//! seed.

mod common;

use common::expected_entries;
use std::collections::BTreeSet;
use std::sync::Arc;
use tdc_core::sweep::{
    BatchRanking, DesignSweep, EvalCache, SweepEntry, SweepExecutor, SweepPlan, SweepStats,
};
use tdc_core::{CarbonModel, ModelContext, Workload, WorkloadPhase};
use tdc_integration::IntegrationTechnology;
use tdc_technode::{GridRegion, ProcessNode};
use tdc_traces::synth::{self, SynthKind};
use tdc_traces::TraceProfile;
use tdc_units::{Efficiency, Throughput, TimeSpan};

const CASES: u64 = 80;
const CALLS_PER_CASE: usize = 6;

/// SplitMix64: a tiny, fully deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("fits")
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    /// Between `lo` and `hi` distinct entries of `items`, in random
    /// order.
    fn distinct<T: Copy>(&mut self, items: &[T], lo: usize, hi: usize) -> Vec<T> {
        let n = lo + self.below(hi - lo + 1);
        let mut pool = items.to_vec();
        (0..n.min(pool.len()))
            .map(|_| pool.swap_remove(self.below(pool.len())))
            .collect()
    }
}

/// A random plan. Every third case repeats an axis entry, so the plan
/// holds duplicate designs; huge gate budgets on old nodes make some
/// dies outgrow the wafer.
fn random_plan(rng: &mut Rng, case: u64) -> SweepPlan {
    let oversized = rng.chance(4);
    let gates = if oversized {
        rng.range(50.0e9, 70.0e9)
    } else {
        rng.range(4.0e9, 40.0e9)
    };
    let mut nodes = rng.distinct(&ProcessNode::ALL, 1, 2);
    if oversized && !nodes.contains(&ProcessNode::N28) {
        nodes.push(ProcessNode::N28);
    }
    let mut options = vec![None];
    options.extend(IntegrationTechnology::ALL.map(Some));
    let mut technologies = rng.distinct(&options, 2, 5);
    let mut tiers = rng.distinct(&[2, 3, 4], 1, 2);
    if case % 3 == 0 {
        match rng.below(3) {
            0 => nodes.push(nodes[0]),
            1 => technologies.push(technologies[0]),
            _ => tiers.push(tiers[0]),
        }
    }
    let mut sweep = DesignSweep::new(gates)
        .nodes(nodes)
        .technologies(technologies)
        .tier_counts(tiers);
    // Without a measured efficiency the power-model branch prices
    // every die.
    if rng.chance(2) {
        sweep = sweep.efficiency(Efficiency::from_tops_per_watt(rng.range(1.0, 6.0)));
    }
    sweep.plan().expect("generated plans enumerate")
}

/// A random operational configuration: use region plus a single- or
/// multi-phase workload, priced from a scalar utilization or a trace,
/// sometimes moving enough bytes per op to stretch 2.5D designs.
fn random_config(rng: &mut Rng, traces: &[Arc<TraceProfile>]) -> (CarbonModel, Workload) {
    let region = GridRegion::ALL[rng.below(GridRegion::ALL.len())];
    let model = CarbonModel::new(ModelContext::builder().use_region(region).build());
    let phases: Vec<WorkloadPhase> = (0..=rng.below(3))
        .map(|k| WorkloadPhase {
            name: format!("phase{k}"),
            throughput: Throughput::from_tops(rng.range(20.0, 400.0)),
            duration: TimeSpan::from_hours(rng.range(500.0, 40_000.0)),
        })
        .collect();
    let mut workload = Workload::new(phases);
    if rng.chance(2) {
        workload = workload.with_bytes_per_op(rng.range(1.0, 50.0));
    }
    workload = if rng.chance(3) {
        workload.with_trace(Arc::clone(&traces[rng.below(traces.len())]))
    } else {
        workload.with_average_utilization(rng.range(0.05, 1.0))
    };
    (model, workload)
}

/// How many of the ranked plan indices are a second (or later)
/// occurrence of a design.
fn duplicates(plan: &SweepPlan, ranked_indices: &[usize]) -> usize {
    let mut seen = BTreeSet::new();
    let mut sorted = ranked_indices.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .filter(|&&i| !seen.insert(EvalCache::key_for(plan.points()[i].design())))
        .count()
}

#[test]
fn ranking_totals_match_fresh_serial_execute_and_stats_match_the_twin() {
    let traces: Vec<Arc<TraceProfile>> = (0..3)
        .map(|k| {
            let kind = if k % 2 == 0 {
                SynthKind::Diurnal
            } else {
                SynthKind::DriveCycle
            };
            Arc::new(synth::profile(kind, 2_000, 17 + k, k < 2))
        })
        .collect();
    let (mut calls, mut differed, mut dup_calls, mut unique_calls) = (0, 0, 0, 0);
    let mut covered = Coverage::default();
    for case in 0..CASES {
        let mut rng = Rng(0x5EED_0000 + case);
        let plan = random_plan(&mut rng, case);
        let ranking = SweepExecutor::default();
        let twin = SweepExecutor::default();
        let pool: Vec<(CarbonModel, Workload)> = (0..2 + rng.below(3))
            .map(|_| random_config(&mut rng, &traces))
            .collect();
        let mut visited = BTreeSet::new();
        let mut out = BatchRanking::new();
        for call in 0..CALLS_PER_CASE {
            let pick = rng.below(pool.len());
            let (model, workload) = &pool[pick];
            let ctx = format!("case {case} call {call}");
            // Each call is a new request epoch from one of three
            // clients, so warm hits are attributed across requests and
            // clients on both executors.
            let client = rng.next() % 3;
            ranking.cache().begin_request(client);
            twin.cache().begin_request(client);

            let fresh = expected_entries(model, &plan, workload);
            ranking
                .execute_batched_ranking(model, &plan, workload, &mut out)
                .unwrap_or_else(|e| panic!("{ctx}: ranking failed: {e}"));
            let twin_stats = twin
                .execute(model, &plan, workload)
                .unwrap_or_else(|e| panic!("{ctx}: twin failed: {e}"))
                .stats();

            assert_eq!(out.ranked().len(), fresh.len(), "{ctx}");
            for (ranked, entry) in out.ranked().iter().zip(&fresh) {
                assert_eq!(
                    ranked.total_kg.to_bits(),
                    entry.report.total().kg().to_bits(),
                    "{ctx}: point {}",
                    ranked.index
                );
                assert_eq!(plan.points()[ranked.index].design(), &entry.design, "{ctx}");
            }

            let stats = out.stats();
            covered.record(&plan, workload, &fresh, &stats);
            let indices: Vec<usize> = out.ranked().iter().map(|p| p.index).collect();
            let dups = duplicates(&plan, &indices);
            let warm = !visited.insert(pick);
            calls += 1;
            if stats != twin_stats {
                differed += 1;
                assert!(dups > 0, "{ctx}: stats differ on a plan without duplicates");
            }
            assert_common_stats(&stats, &twin_stats, &ctx);
            let op = stats.stages.operational;
            let evaluated = stats.evaluated as u64;
            if warm {
                // Both executors answer from resident columns.
                assert_eq!(stats, twin_stats, "{ctx}: warm call");
                assert_eq!((op.hits, op.misses), (evaluated, 0), "{ctx}");
            } else {
                // Every ranked point is re-priced, each duplicate
                // included: nothing stores a report for it to hit.
                dup_calls += usize::from(dups > 0);
                unique_calls += usize::from(dups == 0);
                assert_eq!((op.hits, op.misses), (0, evaluated), "{ctx}");
                // The twin's duplicates hit the report their first
                // occurrence stored.
                let extra = op.misses - twin_stats.stages.operational.misses;
                assert_eq!(extra, dups as u64, "{ctx}");
            }
        }
    }
    assert!(
        covered.all(),
        "the generator must reach every input class: {covered:?}"
    );
    assert!(dup_calls > 0, "no re-priced call had duplicate designs");
    assert!(unique_calls > 0, "no re-priced call had distinct designs");
    assert!(
        differed > 0 && differed <= dup_calls,
        "{differed} of {calls} calls differed from the twin, {dup_calls} re-priced duplicates"
    );
}

/// Which input classes the generated stream actually reached.
#[derive(Debug, Default)]
struct Coverage {
    stretched: bool,
    dropped: bool,
    traced: bool,
    multi_phase: bool,
    power_model: bool,
}

impl Coverage {
    fn record(
        &mut self,
        plan: &SweepPlan,
        workload: &Workload,
        fresh: &[SweepEntry],
        stats: &SweepStats,
    ) {
        self.stretched |= fresh
            .iter()
            .any(|e| e.report.operational.runtime_stretch > 1.0);
        self.dropped |= stats.dropped > 0;
        self.traced |= workload.trace().is_some();
        self.multi_phase |= workload.phases().len() > 1;
        self.power_model |= plan
            .designs()
            .any(|d| d.dies().iter().any(|die| die.efficiency().is_none()));
    }

    fn all(&self) -> bool {
        self.stretched && self.dropped && self.traced && self.multi_phase && self.power_model
    }
}

/// The fields a ranking call shares with its twin on any plan:
/// points, outcomes, and as many operational lookups (duplicates move
/// some from hits to misses). Other stage counters may differ on plans
/// with duplicates: a duplicate priced by the ranking also resolves
/// its physical and power artifacts.
fn assert_common_stats(stats: &SweepStats, twin: &SweepStats, ctx: &str) {
    assert_eq!(
        (stats.points, stats.evaluated, stats.dropped),
        (twin.points, twin.evaluated, twin.dropped),
        "{ctx}"
    );
    let (op, twin_op) = (stats.stages.operational, twin.stages.operational);
    assert_eq!(op.hits + op.misses, twin_op.hits + twin_op.misses, "{ctx}");
    assert!(op.misses >= twin_op.misses, "{ctx}");
}
