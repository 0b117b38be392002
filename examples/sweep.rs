//! Parallel configuration sweep through the planning service.
//!
//! Fans an 8-point grid (2 models × 2 GPU counts × 2 batch sizes) across a
//! 4-worker [`PlanService`], prints the ranked report and the best plan per
//! model, then re-runs the same grid warm to demonstrate the sharded plan
//! cache: 100% hits, byte-identical summaries.
//!
//! ```sh
//! cargo run --release --example sweep
//! ```

use diffusionpipe::prelude::*;
use std::time::Instant;

fn main() {
    let grid = SweepSpec::new(PlanSpec::zoo("sd", ClusterSpec::single_node(4), 64))
        .with_models(vec![
            ModelRef::Zoo("sd".into()),
            ModelRef::Zoo("dit".into()),
        ])
        .with_clusters(vec![ClusterAxis::GpuCount(4), ClusterAxis::GpuCount(8)])
        .with_batches(vec![64, 128]);
    let service = PlanService::new(ServiceConfig::with_workers(4));
    println!(
        "sweeping {} grid points with {} workers...\n",
        grid.len(),
        service.worker_count()
    );

    let t0 = Instant::now();
    let cold = service.sweep(&grid).expect("static grid resolves");
    let cold_s = t0.elapsed().as_secs_f64();
    print!("{}", cold.render_text());
    println!(
        "\ncold sweep: {:.2}s ({:.1} plans/s)",
        cold_s,
        grid.len() as f64 / cold_s.max(1e-9)
    );

    println!("\nbest plan per model:");
    for p in cold.best_per_model() {
        let plan = p.outcome.as_ref().expect("best_per_model is feasible");
        println!("  {:<28} {}", p.coords(), plan.summary());
    }

    let t1 = Instant::now();
    let warm = service.sweep(&grid).expect("static grid resolves");
    let warm_s = t1.elapsed().as_secs_f64();
    let identical =
        cold.points
            .iter()
            .zip(&warm.points)
            .all(|(c, w)| match (&c.outcome, &w.outcome) {
                (Ok(cp), Ok(wp)) => cp.summary() == wp.summary(),
                (Err(ce), Err(we)) => ce == we,
                _ => false,
            });
    let stats = service.cache_stats();
    println!(
        "\nwarm re-run: {:.3}s, {:.0}% cache hits, byte-identical: {}",
        warm_s,
        warm.cache_hit_rate() * 100.0,
        if identical { "yes" } else { "NO" }
    );
    println!(
        "cache: {} entries, {} hits / {} lookups",
        stats.entries,
        stats.hits,
        stats.hits + stats.misses
    );
    assert!(identical, "warm plans must be byte-identical to cold plans");
    assert_eq!(warm.cache_hit_rate(), 1.0, "warm re-run must be 100% hits");
}
