//! Integration tests for the planning service: cache-hit identity,
//! single-flight deduplication, and parallel-vs-sequential sweep agreement.

use diffusionpipe_core::PlannerOptions;
use dpipe_cluster::ClusterSpec;
use dpipe_model::{zoo, ModelSpec};
use dpipe_serve::{
    ClusterAxis, ModelRef, PlanRequest, PlanService, PlanSpec, ServiceConfig, SweepReport,
    SweepSpec,
};
use dpipe_spec::cluster_for_gpus;
use std::sync::Arc;

/// Inline models × GPU counts × batches over a default template.
fn grid(models: Vec<ModelSpec>, gpus: Vec<usize>, batches: Vec<u32>) -> SweepSpec {
    let template = PlanSpec::new(models[0].clone(), cluster_for_gpus(gpus[0]), batches[0]);
    SweepSpec::new(template)
        .with_models(models.into_iter().map(ModelRef::Inline).collect())
        .with_clusters(gpus.into_iter().map(ClusterAxis::GpuCount).collect())
        .with_batches(batches)
}

fn sd_request(batch: u32) -> PlanRequest {
    PlanRequest::new(
        zoo::stable_diffusion_v2_1(),
        ClusterSpec::single_node(8),
        batch,
    )
}

#[test]
fn cache_hit_plans_are_byte_identical_to_cold_plans() {
    let service = PlanService::new(ServiceConfig {
        workers: 2,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let cold = service.plan_one(sd_request(128));
    let warm = service.plan_one(sd_request(128));
    assert!(!cold.cache_hit);
    assert!(warm.cache_hit);
    assert_eq!(cold.fingerprint, warm.fingerprint);

    let (cold_plan, warm_plan) = (cold.outcome.unwrap(), warm.outcome.unwrap());
    // Not merely equal: the hit returns the very same allocation.
    assert!(Arc::ptr_eq(&cold_plan, &warm_plan));
    assert_eq!(cold_plan.summary(), warm_plan.summary());
    assert_eq!(cold_plan.fingerprint(), warm_plan.fingerprint());

    // And the cold plan is the plan made without any service around.
    assert_eq!(*cold_plan, sd_request(128).plan().unwrap());
}

#[test]
fn identical_requests_in_one_batch_plan_once() {
    let service = PlanService::new(ServiceConfig {
        workers: 4,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let responses = service.plan_batch(vec![sd_request(96); 8]);
    assert_eq!(responses.len(), 8);
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "identical requests must plan exactly once");
    assert_eq!(stats.hits, 7);
    assert_eq!(stats.entries, 1);
    let summaries: Vec<String> = responses
        .iter()
        .map(|r| r.outcome.as_ref().unwrap().summary())
        .collect();
    assert!(summaries.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn cached_lookup_resolves_to_the_matching_request() {
    let service = PlanService::new(ServiceConfig {
        workers: 2,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let a = service.plan_one(sd_request(64));
    let b = service.plan_one(PlanRequest::new(
        zoo::dit_xl_2(),
        ClusterSpec::single_node(4),
        64,
    ));
    assert_ne!(a.fingerprint, b.fingerprint);
    let cached_a = service.cached(a.fingerprint).unwrap().unwrap();
    let cached_b = service.cached(b.fingerprint).unwrap().unwrap();
    assert!(Arc::ptr_eq(&cached_a, &a.outcome.unwrap()));
    assert!(Arc::ptr_eq(&cached_b, &b.outcome.unwrap()));
    assert_ne!(cached_a.summary(), cached_b.summary());
    assert_eq!(service.cached(a.fingerprint ^ b.fingerprint), None);
}

#[test]
fn degenerate_requests_fail_cleanly_without_killing_the_pool() {
    use diffusionpipe_core::PlanError;
    let service = PlanService::new(ServiceConfig {
        workers: 2,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    // Zero devices and zero batch used to panic the planner inside a
    // worker, which shrank the pool and panicked the batch caller.
    let no_gpus = PlanRequest::new(
        zoo::stable_diffusion_v2_1(),
        ClusterSpec::single_node(0),
        64,
    );
    let no_batch = sd_request(0);
    let responses = service.plan_batch(vec![no_gpus, no_batch, sd_request(64)]);
    assert!(matches!(
        responses[0].outcome,
        Err(PlanError::InvalidRequest(_))
    ));
    assert!(matches!(
        responses[1].outcome,
        Err(PlanError::InvalidRequest(_))
    ));
    // The pool survives and still plans valid requests.
    assert!(responses[2].outcome.is_ok());
    assert!(service.plan_one(sd_request(64)).cache_hit);
}

#[test]
fn parallel_sweep_matches_sequential_ranking_exactly() {
    let grid = grid(
        vec![zoo::stable_diffusion_v2_1(), zoo::dit_xl_2()],
        vec![4, 8],
        vec![64, 128],
    );
    assert_eq!(grid.len(), 8);
    let sequential = SweepReport::sequential(&grid).unwrap();

    let service = PlanService::new(ServiceConfig {
        workers: 4,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let parallel = service.sweep(&grid).unwrap();

    assert_eq!(parallel.points.len(), sequential.points.len());
    for (p, s) in parallel.points.iter().zip(&sequential.points) {
        assert_eq!(p.coords(), s.coords(), "ranking order diverged");
        assert_eq!(p.fingerprint, s.fingerprint);
        match (&p.outcome, &s.outcome) {
            (Ok(pp), Ok(sp)) => assert_eq!(pp.summary(), sp.summary()),
            (Err(pe), Err(se)) => assert_eq!(pe, se),
            _ => panic!("feasibility diverged at {}", p.coords()),
        }
    }
    assert_eq!(
        parallel.best().unwrap().coords(),
        sequential.best().unwrap().coords()
    );
}

#[test]
fn warm_sweep_rerun_is_all_cache_hits_and_byte_identical() {
    let grid = grid(
        vec![zoo::stable_diffusion_v2_1()],
        vec![4, 8],
        vec![64, 128],
    );
    let service = PlanService::new(ServiceConfig {
        workers: 4,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let cold = service.sweep(&grid).unwrap();
    let warm = service.sweep(&grid).unwrap();
    assert_eq!(warm.cache_hit_rate(), 1.0, "warm re-run must be 100% hits");
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert_eq!(c.coords(), w.coords());
        assert_eq!(
            c.outcome.as_ref().unwrap().summary(),
            w.outcome.as_ref().unwrap().summary()
        );
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, grid.len() as u64);
    assert_eq!(stats.hits, grid.len() as u64);
}

#[test]
fn sweep_reports_infeasible_points_without_poisoning_the_ranking() {
    // A giant batch on a tiny cluster can still be feasible; an invalid
    // model cannot. Mix one broken model into the grid.
    let mut broken = zoo::stable_diffusion_v2_1();
    broken.name = "broken".to_owned();
    broken.components.retain(|c| !c.is_trainable());
    let grid = grid(vec![zoo::dit_xl_2(), broken], vec![8], vec![64]);
    let service = PlanService::new(ServiceConfig {
        workers: 2,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    let report = service.sweep(&grid).unwrap();
    assert_eq!(report.points.len(), 2);
    assert!(report.points[0].outcome.is_ok());
    assert!(report.points[1].outcome.is_err());
    assert_eq!(report.best().unwrap().model, "dit-xl-2");
    assert_eq!(report.best_per_model().len(), 1);
    let text = report.render_text();
    assert!(text.contains("invalid model"));
}

#[test]
fn sweep_respects_planner_options() {
    let mut grid = grid(vec![zoo::stable_diffusion_v2_1()], vec![8], vec![256]);
    let service = PlanService::new(ServiceConfig {
        workers: 2,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    let filled = service.sweep(&grid).unwrap();
    grid.template.options = PlannerOptions {
        bubble_filling: false,
        partial_batch: false,
    };
    let unfilled = service.sweep(&grid).unwrap();
    // Different knobs are different cache keys and different outcomes.
    assert_ne!(filled.points[0].fingerprint, unfilled.points[0].fingerprint);
    assert!(
        filled.points[0].throughput().unwrap() > unfilled.points[0].throughput().unwrap(),
        "bubble filling must win"
    );
}
