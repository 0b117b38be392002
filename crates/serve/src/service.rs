//! The multi-threaded planning service.
//!
//! A fixed pool of worker threads consumes [`PlanRequest`]s from one MPMC
//! queue, [`dpipe_sync::Bounded`], with no capacity bound of its own: the
//! HTTP frontend caps plans in flight before they reach it. Each reply
//! goes back on the caller's own `mpsc` channel. Each worker resolves a
//! request through the shared [`ShardedCache`]: the first request for a
//! fingerprint plans it, concurrent identical requests wait on the
//! single-flight slot, and later requests are pure cache hits returning the
//! very same `Arc<Plan>` — byte-identical to the cold result by
//! construction.

use crate::cache::{CacheStats, ShardedCache};
use crate::request::PlanRequest;
use diffusionpipe_core::{simulate_plan, FaultSpec, Plan, PlanError, SimulationOutcome};
use dpipe_sync::Bounded;
use dpipe_trace::{Span, SpanId, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What one request resolved to: a shared plan or a planning error.
/// Deterministic errors are cached too (a misconfigured request storm plans
/// exactly once); transient [`PlanError::Internal`] outcomes are delivered
/// but never retained (see [`PlanError::is_deterministic`]).
pub type PlanOutcome = Result<Arc<Plan>, PlanError>;

/// Sizing knobs for [`PlanService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the pool (minimum 1).
    pub workers: usize,
    /// Shards in the plan cache (minimum 1).
    pub cache_shards: usize,
    /// Total finished entries the plan cache may hold across all shards;
    /// past it the least-recently-used entry is evicted. `usize::MAX`
    /// disables the bound. The default (4096) keeps a networked service's
    /// memory bounded under a stream of unique specs.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_shards: 16,
            cache_capacity: 4096,
        }
    }
}

impl ServiceConfig {
    /// A config with `workers` threads and the default shard count.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }
}

/// The service's answer to one submitted request.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// Submission index, for reordering out-of-order completions.
    pub index: usize,
    /// The request's content fingerprint (the cache key).
    pub fingerprint: u64,
    /// The request's human-readable label.
    pub label: String,
    /// The plan, or why planning failed.
    pub outcome: PlanOutcome,
    /// True when this response was served from the cache (including waiting
    /// on an in-flight identical request) rather than planned here.
    pub cache_hit: bool,
}

/// The service's answer to one simulation: the replay outcome, the plan
/// it replayed (when planning succeeded), and whether that plan came from
/// the cache.
#[derive(Debug)]
pub struct SimulateResponse {
    /// The fault-injected replay (and degraded re-plan), or why it failed.
    pub outcome: Result<SimulationOutcome, PlanError>,
    /// The plan that was (or would have been) replayed.
    pub plan: Option<Arc<Plan>>,
    /// Whether the simulated plan was a cache hit.
    pub cache_hit: bool,
}

/// Where a submitted request's spans should go: the tracer (shared with
/// whoever is assembling the request's trace — e.g. the HTTP frontend) and
/// the span to parent the service's work under. Cheap to clone (the tracer
/// is an `Arc` handle).
#[derive(Debug, Clone)]
pub struct TraceCtx {
    pub tracer: Tracer,
    pub parent: Option<SpanId>,
}

struct Job {
    index: usize,
    request: PlanRequest,
    /// Intra-plan search threads for this job (`Planner::with_parallelism`).
    parallelism: usize,
    /// Span destination for this job's service/planner work, if traced.
    trace: Option<TraceCtx>,
    reply: Sender<PlanResponse>,
}

/// Best-effort extraction of a contained panic's message (panics carry
/// `&str` or `String` payloads in practice).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Answers one job. A panic anywhere in it becomes an uncached
/// [`PlanError::Internal`] answer: a dead worker would shrink the pool,
/// and once the last one died, queued jobs (and their callers) would
/// wait for ever.
fn answer(cache: &ShardedCache<PlanOutcome>, job: &Job) -> PlanResponse {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| resolve(cache, job))).unwrap_or_else(
        |payload| PlanResponse {
            index: job.index,
            fingerprint: job.request.fingerprint(),
            label: job.request.label(),
            outcome: Err(PlanError::Internal(format!(
                "planning worker panicked: {}",
                panic_message(payload.as_ref())
            ))),
            cache_hit: false,
        },
    )
}

/// Resolves one job through the cache, planning it on a miss.
fn resolve(cache: &ShardedCache<PlanOutcome>, job: &Job) -> PlanResponse {
    let fingerprint = job.request.fingerprint();
    let label = job.request.label();
    let trace = &job.trace;
    let mut service_span = match trace {
        Some(t) => t.tracer.child_span("plan_service", t.parent),
        None => Span::none(),
    };
    let service_span_id = service_span.id();
    let lookup_started = Instant::now();
    let (outcome, resolution) = cache.get_or_compute_observed(
        fingerprint,
        || {
            let mut execute_span = match trace {
                Some(t) => t.tracer.child_span("plan_execute", service_span_id),
                None => Span::none(),
            };
            let execute_id = execute_span.id();
            let tracer = trace.as_ref().map(|t| t.tracer.clone()).unwrap_or_default();
            // Contained here as well as in `answer`: a planner panic
            // becomes an outcome that `retain` declines to cache and
            // that the cache counts as a miss.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.request
                    .plan_traced(job.parallelism, &tracer, execute_id)
                    .map(Arc::new)
            }))
            .unwrap_or_else(|payload| {
                Err(PlanError::Internal(format!(
                    "planner panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
            execute_span.set("ok", outcome.is_ok());
            outcome
        },
        // Plans and deterministic verdicts are worth keeping; a contained
        // panic is transient and must not poison its fingerprint forever.
        |outcome| {
            outcome
                .as_ref()
                .map_or_else(PlanError::is_deterministic, |_| true)
        },
    );
    let cache_hit = resolution.hit;
    if let Some(t) = trace {
        // The single-flight wait happened inside the lookup; synthesize
        // its span after the fact.
        if let Some(waited) = resolution.waited {
            t.tracer.record_between(
                "single_flight_wait",
                service_span_id,
                lookup_started,
                lookup_started + waited,
            );
        }
        service_span.set("cache", if cache_hit { "hit" } else { "miss" });
        service_span.set("evictions", resolution.evictions);
        service_span.set("fingerprint", format!("{fingerprint:016x}"));
        service_span.set("label", label.as_str());
    }
    service_span.finish();
    PlanResponse {
        index: job.index,
        fingerprint,
        label,
        outcome,
        cache_hit,
    }
}

/// A worker pool + sharded plan cache serving [`PlanRequest`]s.
///
/// Dropping the service closes the queue and joins every worker once the
/// jobs already queued are answered.
pub struct PlanService {
    queue: Arc<Bounded<Job>>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<ShardedCache<PlanOutcome>>,
    /// Jobs submitted but not yet answered (queued + being planned).
    pending: Arc<AtomicUsize>,
}

impl PlanService {
    /// Starts the worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        let queue: Arc<Bounded<Job>> = Arc::new(Bounded::new(usize::MAX));
        let cache = Arc::new(ShardedCache::with_capacity(
            config.cache_shards,
            config.cache_capacity,
        ));
        let pending = Arc::new(AtomicUsize::new(0));
        let spawned: std::io::Result<Vec<JoinHandle<()>>> = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let pending = Arc::clone(&pending);
                std::thread::Builder::new()
                    .name(format!("dpipe-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let response = answer(&cache, &job);
                            // Decrement *before* replying: a caller that sees
                            // its answer must never still see itself counted
                            // in the backlog gauge.
                            pending.fetch_sub(1, Ordering::Relaxed);
                            // A dropped reply receiver just means the caller
                            // stopped listening; the plan is cached either way.
                            let _ = job.reply.send(response);
                        }
                    })
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS thread exhaustion at startup; PlanService::new stays infallible by design"
        )]
        let workers = spawned.expect("failed to spawn planning worker");
        PlanService {
            queue,
            workers,
            cache,
            pending,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted but not yet answered (queued plus being planned) —
    /// the admission-control gauge a networked frontend sheds load on.
    pub fn queue_depth(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Enqueues one request; its [`PlanResponse`] (tagged `index`) is sent
    /// on `reply` when a worker finishes it. `parallelism` sizes the
    /// planner's intra-plan config search for this job, and `trace` is the
    /// span destination described at [`PlanService::plan_one_traced`].
    fn submit(
        &self,
        index: usize,
        request: PlanRequest,
        parallelism: usize,
        trace: Option<TraceCtx>,
        reply: Sender<PlanResponse>,
    ) {
        let job = Job {
            index,
            request,
            parallelism: parallelism.max(1),
            trace,
            reply,
        };
        self.pending.fetch_add(1, Ordering::Relaxed);
        // The unbounded queue refuses a job only once closed, which happens
        // only in `Drop`. The job's reply sender drops with it, so the
        // caller's missing-reply fallback answers for it.
        if self.queue.try_push(job).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Plans a batch of requests across the pool, blocking until all are
    /// done. Each plan searches on one thread: parallelism across requests
    /// beats parallelism within one. Responses come back in submission
    /// order. A request that panics anywhere in its job, or that a
    /// closed queue refused, comes back with a [`PlanError::Internal`]
    /// outcome instead of panicking the caller.
    pub fn plan_batch(&self, requests: Vec<PlanRequest>) -> Vec<PlanResponse> {
        self.plan_batch_inner(requests, 1, None)
    }

    fn plan_batch_inner(
        &self,
        requests: Vec<PlanRequest>,
        parallelism: usize,
        trace: Option<TraceCtx>,
    ) -> Vec<PlanResponse> {
        let (tx, rx) = mpsc::channel();
        let n = requests.len();
        let mut responses: Vec<PlanResponse> = Vec::with_capacity(n);
        for (index, request) in requests.into_iter().enumerate() {
            self.submit(index, request, parallelism, trace.clone(), tx.clone());
        }
        drop(tx);
        // The reply channel closes once every submitted job is answered or
        // dropped unanswered; both end this loop without a panic.
        while responses.len() < n {
            match rx.recv() {
                Ok(response) => responses.push(response),
                Err(_) => break,
            }
        }
        // Any index still missing was refused by a closed queue (workers
        // answer even a job that panics): answer it as an internal error
        // rather than hanging or panicking the caller.
        let mut seen = vec![false; n];
        for r in &responses {
            if r.index < n {
                seen[r.index] = true;
            }
        }
        for (index, seen) in seen.into_iter().enumerate() {
            if !seen {
                responses.push(PlanResponse {
                    index,
                    fingerprint: 0,
                    label: String::new(),
                    outcome: Err(PlanError::Internal(
                        "the planning service dropped the request".to_owned(),
                    )),
                    cache_hit: false,
                });
            }
        }
        responses.sort_by_key(|r| r.index);
        responses
    }

    /// Plans one request, blocking until done. A single request would
    /// leave the rest of the pool idle, so its config search fans across
    /// as many threads as the pool has workers — `dpipe plan` saturates
    /// cores even for one request, and (by planner determinism) returns
    /// exactly the plan a sequential search would.
    pub fn plan_one(&self, request: PlanRequest) -> PlanResponse {
        self.plan_one_traced(request, self.worker_count(), None)
    }

    /// Plans one request with an explicit intra-plan parallelism and an
    /// optional span destination: the worker records a `plan_service` span
    /// (cache outcome, single-flight wait, evictions) and, on a miss, the
    /// planner's own phase spans under it. A networked frontend passes 1:
    /// under concurrent load the pool is saturated across requests, and
    /// fanning each plan's config search out as well would only add
    /// contention.
    pub fn plan_one_traced(
        &self,
        request: PlanRequest,
        parallelism: usize,
        trace: Option<TraceCtx>,
    ) -> PlanResponse {
        let mut responses = self.plan_batch_inner(vec![request], parallelism, trace);
        debug_assert_eq!(responses.len(), 1);
        responses.pop().unwrap_or_else(|| PlanResponse {
            index: 0,
            fingerprint: 0,
            label: String::new(),
            outcome: Err(PlanError::Internal(
                "service produced no response".to_owned(),
            )),
            cache_hit: false,
        })
    }

    /// Plans `request` through the cache, then replays the plan under
    /// `faults`. When the fault spec drops machines, the degraded re-plan
    /// is routed back through this service — a repeated simulation of the
    /// same drop re-plans exactly once, and concurrent identical
    /// simulations share the single-flight slot.
    pub fn simulate_traced(
        &self,
        request: &PlanRequest,
        faults: &FaultSpec,
        parallelism: usize,
        trace: Option<TraceCtx>,
    ) -> SimulateResponse {
        let planned = self.plan_one_traced(request.clone(), parallelism, trace.clone());
        let plan = match planned.outcome {
            Ok(plan) => plan,
            Err(e) => {
                return SimulateResponse {
                    outcome: Err(e),
                    plan: None,
                    cache_hit: planned.cache_hit,
                }
            }
        };
        let (tracer, parent) = match &trace {
            Some(ctx) => (ctx.tracer.clone(), ctx.parent),
            None => (Tracer::off(), None),
        };
        let outcome = simulate_plan(request.spec(), &plan, faults, &tracer, parent, |degraded| {
            let degraded_request = PlanRequest::from_spec(degraded.clone())
                .map_err(|e| PlanError::InvalidRequest(e.to_string()))?;
            let response = self.plan_one_traced(degraded_request, parallelism, trace.clone());
            response.outcome.map(|p| (*p).clone())
        });
        SimulateResponse {
            outcome,
            plan: Some(plan),
            cache_hit: planned.cache_hit,
        }
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cached outcome for a fingerprint, if planning finished for it.
    pub fn cached(&self, fingerprint: u64) -> Option<PlanOutcome> {
        self.cache.get(fingerprint)
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        // Workers drain the jobs already queued, then see the closed queue.
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_cluster::ClusterSpec;
    use dpipe_model::zoo;

    fn request(batch: u32) -> PlanRequest {
        PlanRequest::new(
            zoo::stable_diffusion_v2_1(),
            ClusterSpec::single_node(8),
            batch,
        )
    }

    #[test]
    fn plan_one_matches_sequential_planning() {
        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        let response = service.plan_one(request(64));
        assert!(!response.cache_hit);
        let served = response.outcome.unwrap();
        let sequential = request(64).plan().unwrap();
        assert_eq!(served.summary(), sequential.summary());
    }

    #[test]
    fn responses_come_back_in_submission_order() {
        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        let batches = [96u32, 64, 128, 64];
        let responses = service.plan_batch(batches.iter().map(|&b| request(b)).collect());
        assert_eq!(responses.len(), batches.len());
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.label.ends_with(&format!("/b{}", batches[i])));
        }
        // The duplicate batch-64 request is a hit for whichever finished
        // second.
        assert_eq!(responses.iter().filter(|r| r.cache_hit).count(), 1);
        assert_eq!(service.cache_stats().misses, 3);
    }

    #[test]
    fn planning_errors_are_cached_outcomes() {
        let service = PlanService::new(ServiceConfig {
            workers: 1,
            cache_shards: 1,
            ..ServiceConfig::default()
        });
        let mut broken_model = zoo::stable_diffusion_v2_1();
        broken_model.components.retain(|c| !c.is_trainable());
        let bad = PlanRequest::new(broken_model, ClusterSpec::single_node(8), 64);
        let cold = service.plan_one(bad.clone());
        assert!(matches!(cold.outcome, Err(PlanError::InvalidModel(_))));
        assert!(!cold.cache_hit);
        let warm = service.plan_one(bad);
        assert!(matches!(warm.outcome, Err(PlanError::InvalidModel(_))));
        assert!(warm.cache_hit);
    }

    #[test]
    fn queue_depth_returns_to_zero() {
        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        assert_eq!(service.queue_depth(), 0);
        let _ = service.plan_one(request(64));
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn cache_capacity_bounds_resident_plans() {
        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 1,
            cache_capacity: 2,
        });
        for batch in [32u32, 64, 96, 128] {
            let _ = service.plan_one(request(batch));
        }
        let stats = service.cache_stats();
        assert!(stats.entries <= 2, "entries: {}", stats.entries);
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
    }

    #[test]
    fn traced_requests_record_service_and_planner_spans() {
        use dpipe_trace::AttrValue;
        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        let tracer = Tracer::new();
        let ctx = || {
            Some(TraceCtx {
                tracer: tracer.clone(),
                parent: None,
            })
        };
        let cold = service.plan_one_traced(request(64), 1, ctx());
        assert!(cold.outcome.is_ok() && !cold.cache_hit);
        let trace = tracer.take();
        let svc = trace.find("plan_service").expect("service span");
        assert!(
            matches!(svc.attr("cache"), Some(AttrValue::Str(s)) if s == "miss"),
            "{svc:?}"
        );
        let exec = trace.find("plan_execute").expect("execute span");
        assert_eq!(exec.parent, Some(svc.id));
        let plan_span = trace.find("plan").expect("planner root span");
        assert_eq!(plan_span.parent, Some(exec.id));
        // A warm repeat is a pure cache hit: a service span, no execution.
        let warm = service.plan_one_traced(request(64), 1, ctx());
        assert!(warm.cache_hit);
        let trace = tracer.take();
        let svc = trace.find("plan_service").expect("service span");
        assert!(
            matches!(svc.attr("cache"), Some(AttrValue::Str(s)) if s == "hit"),
            "{svc:?}"
        );
        assert!(trace.find("plan_execute").is_none());
        // Untraced submissions record nothing.
        let _ = service.plan_one(request(96));
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn a_panic_anywhere_in_a_job_is_answered() {
        use dpipe_sync::LockRecoverTagged;
        let cache = ShardedCache::with_capacity(1, usize::MAX);
        let (reply, _rx) = mpsc::channel();
        let job = Job {
            index: 3,
            request: request(64),
            parallelism: 1,
            trace: None,
            reply,
        };
        // With a tagged lock held, the cache's own acquisition nests,
        // which the witness refuses in debug builds: a panic outside the
        // planner's own containment.
        let held = std::sync::Mutex::new(());
        let _guard = held.lock_recover_tagged("servetest::Held::lock");
        let response = answer(&cache, &job);
        assert_eq!(response.index, 3);
        assert_eq!(response.fingerprint, job.request.fingerprint());
        if cfg!(debug_assertions) {
            assert!(
                matches!(&response.outcome, Err(PlanError::Internal(m))
                    if m.starts_with("planning worker panicked: lock witness: acquiring `serve::Shard::map`")),
                "{:?}",
                response.outcome.as_ref().err()
            );
            assert!(!response.cache_hit);
        } else {
            assert!(response.outcome.is_ok());
        }
    }

    #[test]
    fn drop_answers_queued_jobs() {
        let service = PlanService::new(ServiceConfig {
            workers: 1,
            cache_shards: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for (index, batch) in [32u32, 64, 96, 128].into_iter().enumerate() {
            service.submit(index, request(batch), 1, None, tx.clone());
        }
        drop(tx);
        // Dropping the service closes the queue while most jobs still wait
        // behind the one worker; each must still be planned and answered.
        drop(service);
        let answered: Vec<PlanResponse> = rx.iter().collect();
        assert_eq!(answered.len(), 4);
        assert!(answered.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn drop_joins_idle_workers_quickly() {
        let service = PlanService::new(ServiceConfig {
            workers: 4,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        drop(service); // must not hang
    }
}
