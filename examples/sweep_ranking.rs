//! Design-space ranking: price the full (node × technology × tier)
//! space, rank it by life-cycle carbon, and answer a re-execution from
//! the memoized stage artifacts.
//!
//! ```text
//! cargo run --example sweep_ranking
//! ```

use threed_carbon::prelude::*;

fn main() -> Result<(), ModelError> {
    let model = CarbonModel::new(ModelContext::default());
    let workload = Workload::fixed(
        "inference",
        Throughput::from_tops(254.0),
        TimeSpan::from_years(10.0) * (1.3 / 24.0),
    )
    .with_average_utilization(0.15);

    // 17 G gates (Orin-class) across every node, every technology, and
    // three tier counts.
    let sweep = DesignSweep::new(17.0e9)
        .efficiency(Efficiency::from_tops_per_watt(2.74))
        .tier_counts(vec![2, 3, 4]);
    let plan = sweep.plan()?;
    println!("plan: {} points", plan.len());

    let executor = SweepExecutor::default();
    let result = executor.execute(&model, &plan, &workload)?;
    let stats = result.stats();
    println!(
        "evaluated {} ({} dropped as unbuildable)\n",
        stats.evaluated, stats.dropped
    );

    println!("top 10 by life-cycle carbon:");
    for (rank, entry) in result.entries().iter().take(10).enumerate() {
        println!(
            "  {:>2}. {:<16} {:>8.2} kg  ({})",
            rank + 1,
            entry.label,
            entry.report.total().kg(),
            if entry.is_viable() {
                "viable"
            } else {
                "bandwidth-limited"
            },
        );
    }

    // Re-executing the same plan is answered entirely from the cache.
    let again = executor.execute(&model, &plan, &workload)?;
    println!(
        "\nre-execution: {}/{} cache hits, identical ranking: {}",
        again.stats().cache_hits,
        plan.len(),
        again.entries() == result.entries(),
    );

    // And the builder's one-call path produces the same entries, bit
    // for bit.
    let run = sweep.run(&model, &workload)?;
    assert_eq!(run.as_slice(), result.entries());
    println!("builder path matches: {}", !run.is_empty());
    Ok(())
}
