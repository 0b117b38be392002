//! The end-to-end planning workflow.

#![expect(
    clippy::disallowed_methods,
    reason = "PlanStats times the search; the timings never enter a plan document"
)]

use crate::error::PlanError;
use crate::plan::{BackbonePartition, Plan, PreprocessingReport};
use dpipe_cluster::{ClassMap, ClusterSpec, DataParallelLayout};
use dpipe_fill::{FillConfig, Filler};
use dpipe_model::{ComponentId, MemoryModel, ModelSpec};
use dpipe_partition::{
    enumerate_configs, layer_work, CostModel, DpStats, HyperParams, PartitionConfig, Partitioner,
    SearchSpace, BOUND_MARGIN,
};
use dpipe_profile::{CostPrefix, DeviceModel, ProfileDb, Profiler, ProfilingReport};
use dpipe_schedule::{ScheduleBuilder, ScheduleKind};
use dpipe_sim::{CombinedIteration, IterationTiming};
use dpipe_spec::PlanSpec;
use dpipe_trace::{Span, SpanId, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub use dpipe_spec::PlannerOptions;

/// Counters describing one planning call (returned by
/// [`Planner::plan_with_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Hyper-parameter configurations enumerated.
    pub configs: usize,
    /// Evaluated configurations that produced a complete, memory-feasible
    /// candidate (configs skipped by a bound are not counted).
    pub feasible: usize,
    /// Partition-DP counters summed over every configuration.
    pub dp: DpStats,
    /// Configurations whose bubble-filling pass was skipped because their
    /// post-schedule throughput upper bound could not beat the best plan
    /// found so far. A performance counter: the exact value depends on
    /// evaluation order, so it may vary across parallel runs (the selected
    /// plan never does).
    pub fill_skipped: usize,
    /// Configurations skipped before partitioning because an upper bound
    /// on their throughput, from per-layer work alone, was strictly below
    /// the best plan found so far. Order-dependent like `fill_skipped`.
    pub bound_skipped: usize,
    /// Partition DPs run (one per configuration that reached the DP).
    pub partitions_run: usize,
    /// Pipeline schedules built and simulated.
    pub schedules_built: usize,
    /// Bubble-filling passes run.
    pub fills_run: usize,
    /// Worker threads the config search actually used.
    pub parallelism: usize,
}

/// One evaluated configuration (internal).
struct ConfigOutcome {
    index: usize,
    plan: Option<Plan>,
    partition_seconds: f64,
    fill_seconds: f64,
    stats: DpStats,
    fill_skipped: bool,
    partitioned: bool,
    scheduled: bool,
    filled: bool,
}

/// Per-worker reduction state (internal).
#[derive(Default)]
struct WorkerResult {
    best: Option<(usize, Plan)>,
    feasible: usize,
    partition_seconds: f64,
    fill_seconds: f64,
    stats: DpStats,
    fill_skipped: usize,
    bound_skipped: usize,
    partitions_run: usize,
    schedules_built: usize,
    fills_run: usize,
}

impl WorkerResult {
    /// Throughput of the best plan so far (the incumbent), or −∞.
    fn incumbent(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::NEG_INFINITY, |(_, b)| b.throughput)
    }

    /// Keeps `plan` if it beats the best so far in the selection's total
    /// order: higher throughput, ties broken by the smaller config index.
    /// Configs arrive in any index order.
    fn offer(&mut self, index: usize, plan: Plan) {
        let replace = self.best.as_ref().is_none_or(|(bi, bp)| {
            plan.throughput > bp.throughput || (plan.throughput == bp.throughput && index < *bi)
        });
        if replace {
            self.best = Some((index, plan));
        }
    }

    /// Folds one config outcome in.
    fn absorb(&mut self, outcome: ConfigOutcome) {
        self.partition_seconds += outcome.partition_seconds;
        self.fill_seconds += outcome.fill_seconds;
        self.stats.merge(&outcome.stats);
        self.fill_skipped += usize::from(outcome.fill_skipped);
        self.partitions_run += usize::from(outcome.partitioned);
        self.schedules_built += usize::from(outcome.scheduled);
        self.fills_run += usize::from(outcome.filled);
        if let Some(plan) = outcome.plan {
            self.feasible += 1;
            self.offer(outcome.index, plan);
        }
    }

    /// Evaluates the config at `index` unless its throughput bound is
    /// strictly below this worker's incumbent.
    fn visit(&mut self, index: usize, bound: f64, evaluate: &impl Fn(usize, f64) -> ConfigOutcome) {
        let incumbent = self.incumbent();
        if bound < incumbent {
            self.bound_skipped += 1;
        } else {
            self.absorb(evaluate(index, incumbent));
        }
    }

    /// Merges another worker's reduction, preserving the same total order
    /// (max throughput, ties broken by the smaller config index).
    fn merge(&mut self, other: WorkerResult) {
        self.feasible += other.feasible;
        self.partition_seconds += other.partition_seconds;
        self.fill_seconds += other.fill_seconds;
        self.stats.merge(&other.stats);
        self.fill_skipped += other.fill_skipped;
        self.bound_skipped += other.bound_skipped;
        self.partitions_run += other.partitions_run;
        self.schedules_built += other.schedules_built;
        self.fills_run += other.fills_run;
        if let Some((index, plan)) = other.best {
            self.offer(index, plan);
        }
    }
}

/// What one planning call's config search shares, read-only, across
/// workers: the enumerated configs, the cost model (per-class profiles,
/// class map and communication model) and cost tables, each config's
/// throughput bound and the visit order.
struct Search<'p> {
    global_batch: u32,
    backbones: Vec<ComponentId>,
    configs: Vec<HyperParams>,
    cost: CostModel,
    prefixes: Vec<Vec<CostPrefix>>,
    bounds: Vec<f64>,
    order: Vec<usize>,
    fill_cfg: FillConfig,
    mm: MemoryModel<'p>,
}

/// An upper bound on the cluster throughput config `hp` can reach, from the
/// per-layer rows of the shared cost tables (`prefixes[backbone][class]`);
/// `+∞` when the bound degenerates. See [`Planner::evaluate_config`] for
/// the bound and why it is safe.
fn throughput_bound(
    hp: &HyperParams,
    global_batch: u32,
    world: usize,
    prefixes: &[Vec<CostPrefix>],
    sc_prob: f64,
) -> f64 {
    let micro = hp.group_batch(global_batch, world) / hp.num_micro_batches as f64;
    let batch = micro / (hp.group_size / hp.num_stages) as f64;
    let (mut work, mut chain) = (0.0f64, 0.0f64);
    for class_prefixes in prefixes {
        let views: Vec<_> = class_prefixes.iter().map(|p| p.batch_view(batch)).collect();
        let layers = class_prefixes.first().map_or(0, CostPrefix::num_layers);
        work += layer_work(&views, layers, sc_prob).iter().sum::<f64>();
        chain = chain.max(layer_work(&views, layers, 0.0).iter().sum());
    }
    let m = hp.num_micro_batches as f64;
    let min_compute_end = (m * work / hp.num_stages as f64).max(chain) * (1.0 - BOUND_MARGIN);
    if !(min_compute_end > 0.0 && min_compute_end.is_finite()) {
        return f64::INFINITY;
    }
    let group_batch = m * micro * prefixes.len() as f64;
    let bound =
        (world / hp.group_size) as f64 * group_batch / min_compute_end * (1.0 + BOUND_MARGIN);
    if bound.is_nan() {
        f64::INFINITY
    } else {
        bound
    }
}

/// The DiffusionPipe planner. See the crate docs for the workflow.
///
/// Heterogeneous clusters ([`ClusterSpec::machine_classes`]) are planned
/// end to end: one profile database per device class, stage costs looked up
/// against the class of the devices each stage lands on, per-stage device
/// memory limits, class-scaled intra-node collectives, and a bubble-filling
/// tail timed on the slowest class (the data-parallel frozen part waits for
/// it). Homogeneous clusters take the exact same code path with a single
/// class, bit-identical to the pre-heterogeneity planner.
#[derive(Debug)]
pub struct Planner {
    model: ModelSpec,
    cluster: ClusterSpec,
    search: SearchSpace,
    options: PlannerOptions,
    fill_cfg: FillConfig,
    schedule: ScheduleKind,
    parallelism: usize,
    record_backed: bool,
    tracer: Tracer,
    trace_parent: Option<SpanId>,
}

impl Planner {
    /// Creates a planner for `model` on `cluster` with every other input
    /// at its [`PlanSpec::new`] default and a one-worker search.
    ///
    /// Every other input that can change the selected plan (ablation
    /// options, search bounds, fill settings, schedule family,
    /// record-backed profiling) is set only on a [`PlanSpec`]; plan it with
    /// [`Planner::from_spec`] or [`Planner::plan_spec`].
    pub fn new(model: ModelSpec, cluster: ClusterSpec) -> Self {
        Planner {
            model,
            cluster,
            search: SearchSpace::default(),
            options: PlannerOptions::default(),
            fill_cfg: FillConfig::default(),
            schedule: ScheduleKind::Fifo1F1B,
            parallelism: 1,
            record_backed: false,
            tracer: Tracer::off(),
            trace_parent: None,
        }
    }

    /// Builds a planner from a declarative [`PlanSpec`], the one place the
    /// planner's inputs are set: resolves the model reference and copies
    /// every other field. Only the run-local knobs below (worker count,
    /// tracer, trace parent) can be changed afterwards, and none of them
    /// changes the selected plan.
    ///
    /// The spec's `global_batch` is carried by the spec itself; call
    /// [`Planner::plan_spec`] for the one-shot form, or
    /// `from_spec(&spec)?.plan(spec.global_batch)` explicitly.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidRequest`] for an unsupported `schema_version`
    /// or an unresolvable zoo reference. An invalid inline model is
    /// [`PlanError::InvalidModel`] from [`Planner::plan`], and degenerate
    /// batches and class assignments are `InvalidRequest` from there too.
    pub fn from_spec(spec: &PlanSpec) -> Result<Self, PlanError> {
        if spec.schema_version != dpipe_spec::SCHEMA_VERSION {
            return Err(PlanError::InvalidRequest(
                dpipe_spec::SpecError::UnsupportedVersion(u64::from(spec.schema_version))
                    .to_string(),
            ));
        }
        // Resolution failure is an invalid *request*; an inline model that
        // fails structural validation stays an InvalidModel error from
        // plan().
        let model = spec
            .model
            .resolve()
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?;
        Ok(Planner {
            search: spec.search,
            options: spec.options,
            fill_cfg: spec.fill.clone(),
            schedule: spec.schedule,
            parallelism: spec.effective_parallelism().max(1),
            record_backed: spec.record_backed,
            ..Planner::new(model, spec.cluster.clone())
        })
    }

    /// Plans a declarative [`PlanSpec`] end to end (the batch comes from
    /// the spec).
    ///
    /// # Errors
    ///
    /// See [`Planner::from_spec`] and [`PlanError`].
    pub fn plan_spec(spec: &PlanSpec) -> Result<Plan, PlanError> {
        Planner::from_spec(spec)?.plan(spec.global_batch)
    }

    /// Fans the per-configuration search of one plan call across `workers`
    /// threads (1 = sequential, the default). The result is identical for
    /// any worker count: candidates are ranked by simulated throughput with
    /// exact ties broken by enumeration order, a total order.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Records planning phases into `tracer` (default: [`Tracer::off`],
    /// which makes every span site a no-op). Tracing is observation only —
    /// the selected plan is byte-identical with any tracer attached; the
    /// golden equivalence suite runs the fast path under an enabled tracer
    /// to pin that down.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Parents this planner's root `plan` span under an existing span
    /// (e.g. a serving-layer request span), so one trace follows a request
    /// from the HTTP accept down into the partition DP.
    pub fn with_trace_parent(mut self, parent: Option<SpanId>) -> Self {
        self.trace_parent = parent;
        self
    }

    /// Profiles one database per device class (analytic or record-backed)
    /// into the plan's cost model, plus the profiling report of the
    /// reference pass.
    fn profile_cost_model(
        &self,
        global_batch: u32,
    ) -> Result<(CostModel, ProfilingReport), PlanError> {
        let world = self.cluster.world_size();
        let compute_scales = self.cluster.class_map().compute_scales();
        let (dbs, report) = if self.record_backed {
            let mut dbs = Vec::with_capacity(compute_scales.len());
            let mut report = None;
            for &scale in &compute_scales {
                let device = if scale == 1.0 {
                    DeviceModel::a100_like()
                } else {
                    DeviceModel::a100_like().scaled(scale)
                };
                let profiler = Profiler::new(device).with_world_size(world);
                let (db, r) = profiler.profile_records(&self.model, global_batch)?;
                if report.is_none() {
                    report = Some(r);
                }
                dbs.push(db);
            }
            let report = report.ok_or_else(|| {
                PlanError::InvalidRequest("cluster resolves to zero device classes".to_owned())
            })?;
            (dbs, report)
        } else {
            let profiler = Profiler::new(DeviceModel::a100_like()).with_world_size(world);
            profiler.profile_classes(&self.model, global_batch, &compute_scales)
        };
        Ok((CostModel::new(dbs, &self.cluster), report))
    }

    /// Runs the full workflow for a global batch size, returning the best
    /// plan by simulated cluster throughput.
    ///
    /// For cascaded models, `global_batch` is the per-backbone batch (the
    /// paper trains all backbones of a CDM at the same batch size).
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan(&self, global_batch: u32) -> Result<Plan, PlanError> {
        self.plan_with_stats(global_batch).map(|(plan, _)| plan)
    }

    /// [`Planner::plan`] plus search counters: configs enumerated and
    /// feasible, DP candidates evaluated and pruned, threads used.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan_with_stats(&self, global_batch: u32) -> Result<(Plan, PlanStats), PlanError> {
        let mut root = self.tracer.child_span("plan", self.trace_parent);
        root.set("model", self.model.name.as_str());
        root.set("world_size", self.cluster.world_size());
        root.set("global_batch", global_batch);
        let root_id = root.id();
        let (search, profile_report) = self.prepare_search(global_batch, root_id)?;
        let (configs, bounds, order) = (&search.configs, &search.bounds, &search.order);

        let mut search_span = self.tracer.child_span("config_search", root_id);
        let search_id = search_span.id();
        // `best_so_far` is this worker's best throughput: a config whose
        // post-schedule upper bound cannot beat it skips the filling pass.
        let evaluate = |index: usize, best_so_far: f64| -> ConfigOutcome {
            self.evaluate_config(&search, index, best_so_far, search_id)
        };

        let workers = self.parallelism.max(1).min(configs.len().max(1));
        let mut result = WorkerResult::default();
        if workers <= 1 {
            for &index in order {
                result.visit(index, bounds[index], &evaluate);
            }
        } else {
            // Workers take configs from the one ordered list: worker `w`
            // starts at entry `w`, then all share a cursor past the first
            // `workers` entries. Each skips against its own incumbent, so
            // every worker evaluates at least its first config even when
            // another drains the skippable rest before it is scheduled.
            let cursor = AtomicUsize::new(workers);
            let (cursor, evaluate) = (&cursor, &evaluate);
            let partials = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|first| {
                        scope.spawn(move || {
                            let mut local = WorkerResult::default();
                            let mut next = first;
                            while let Some(&index) = order.get(next) {
                                local.visit(index, bounds[index], evaluate);
                                next = cursor.fetch_add(1, Ordering::Relaxed);
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(partial) => partial,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect::<Vec<_>>()
            });
            for partial in partials {
                result.merge(partial);
            }
        }
        search_span.set("workers", workers);
        search_span.set("feasible", result.feasible);
        search_span.set("fill_skipped", result.fill_skipped);
        search_span.set("bound_skipped", result.bound_skipped);
        search_span.set("partitions_run", result.partitions_run);
        search_span.set("schedules_built", result.schedules_built);
        search_span.set("fills_run", result.fills_run);
        search_span.set("dp_candidates", result.stats.candidates);
        search_span.set("dp_pruned", result.stats.pruned);
        search_span.finish();

        let mut select_span = self.tracer.child_span("select", root_id);
        let stats = PlanStats {
            configs: configs.len(),
            feasible: result.feasible,
            dp: result.stats,
            fill_skipped: result.fill_skipped,
            bound_skipped: result.bound_skipped,
            partitions_run: result.partitions_run,
            schedules_built: result.schedules_built,
            fills_run: result.fills_run,
            parallelism: workers,
        };
        let (best_index, mut plan) = result.best.ok_or(PlanError::NoFeasibleConfig)?;
        // The same inputs `evaluate_config` merged, so the same bits.
        plan.bubble_ratio =
            CombinedIteration::new(&plan.schedule, &plan.bubbles, &plan.fill).bubble_ratio();
        plan.preprocessing = PreprocessingReport {
            profiling_seconds: profile_report.wall_time_seconds,
            partition_seconds: result.partition_seconds,
            fill_seconds: result.fill_seconds,
        };
        select_span.set("best_config", best_index);
        select_span.set("throughput", plan.throughput);
        select_span.finish();
        root.set("configs", configs.len());
        root.finish();
        Ok((plan, stats))
    }

    /// Validates the request and builds everything the config search
    /// shares, recording the `validate`, `profile`, `enumerate_configs`
    /// and `cost_prefixes` spans under `root`.
    fn prepare_search(
        &self,
        global_batch: u32,
        root: Option<SpanId>,
    ) -> Result<(Search<'_>, ProfilingReport), PlanError> {
        let mut validate_span = self.tracer.child_span("validate", root);
        self.model
            .validate()
            .map_err(|e| PlanError::InvalidModel(e.to_string()))?;
        self.cluster
            .validate_classes()
            .map_err(PlanError::InvalidRequest)?;
        let backbones: Vec<_> = self.model.backbones().map(|(id, _)| id).collect();
        if backbones.len() > 2 {
            return Err(PlanError::TooManyBackbones(backbones.len()));
        }
        validate_span.set("backbones", backbones.len());
        validate_span.finish();

        // Step 1: profile once per device class (simulated wall time
        // reported). Homogeneous clusters resolve to a single class.
        let mut profile_span = self.tracer.child_span("profile", root);
        let (cost, profile_report) = self.profile_cost_model(global_batch)?;
        profile_span.set("classes", cost.num_classes());
        profile_span.set("simulated_wall_s", profile_report.wall_time_seconds);
        profile_span.finish();

        let mut enumerate_span = self.tracer.child_span("enumerate_configs", root);
        let min_layers = backbones
            .iter()
            .map(|&b| self.model.component(b).num_layers())
            .min()
            .ok_or_else(|| PlanError::InvalidRequest("model has no backbone component".into()))?;
        let configs = enumerate_configs(&self.cluster, global_batch, min_layers, &self.search)
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?;
        enumerate_span.set("configs", configs.len());
        enumerate_span.finish();

        let mut fill_cfg = self.fill_cfg.clone();
        fill_cfg.partial_batch &= self.options.partial_batch;
        let world = self.cluster.world_size();

        // One CostPrefix per (backbone, device class), shared (read-only)
        // by every config of this call: rows for every local batch the
        // uniform DPs query, built from the class's own database.
        let prefix_span = self.tracer.child_span("cost_prefixes", root);
        let prefixes: Vec<Vec<CostPrefix>> = backbones
            .iter()
            .map(|&bb| {
                (0..cost.num_classes())
                    .map(|class| {
                        let class_db = cost.db_for(class);
                        let mut prefix = CostPrefix::new(class_db, bb);
                        for hp in &configs {
                            let cfg = PartitionConfig::new(
                                hp.num_stages,
                                hp.num_micro_batches,
                                hp.group_batch(global_batch, world),
                            );
                            let r = hp.group_size / hp.num_stages;
                            prefix.ensure_batch(class_db, cfg.micro_batch() / r as f64);
                        }
                        prefix
                    })
                    .collect()
            })
            .collect();
        // Each config's throughput bound (see `evaluate_config`), and the
        // visit order: best bound first, ties in enumeration order.
        let sc_prob = self
            .model
            .self_conditioning
            .map_or(0.0, |sc| sc.probability);
        let bounds: Vec<f64> = configs
            .iter()
            .map(|hp| throughput_bound(hp, global_batch, world, &prefixes, sc_prob))
            .collect();
        let mut order: Vec<usize> = (0..configs.len()).collect();
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
        prefix_span.finish();

        let search = Search {
            global_batch,
            backbones,
            configs,
            cost,
            prefixes,
            bounds,
            order,
            fill_cfg,
            mm: MemoryModel::new(&self.model),
        };
        Ok((search, profile_report))
    }

    /// Evaluates one (S, M, D) configuration end to end: partition,
    /// schedule, fill, memory check, throughput. Pure with respect to the
    /// shared inputs, so configs can be evaluated on any thread.
    ///
    /// The search calls this only for configs whose *config bound* is not
    /// strictly below the best throughput found so far, visiting configs by
    /// descending bound (ties in enumeration order). With `b = micro / r`
    /// the local batch, `f_l`, `b_l` layer `l`'s forward and backward time
    /// at `b`, `sc` the self-conditioning probability (0 when off), and each
    /// layer term minimised over device classes
    /// ([`dpipe_partition::layer_work`]):
    ///
    /// * `W = Σ_backbones Σ_l (f_l·(1 + sc) + b_l)`,
    ///   `C = max_backbone Σ_l (f_l + b_l)`;
    /// * `LB = max(M·W/S, C)·(1 − 1e-9)`;
    /// * `UB = (world/D)·(M·micro·#backbones)/LB·(1 + 1e-9)`.
    ///
    /// `UB` bounds the config's throughput: the list scheduler runs one op
    /// at a time per slot, and the S slots together run every micro-batch's
    /// forward, self-conditioning forward and backward of every stage, so
    /// some slot is busy for at least `M·W/S` and `compute_end ≥ M·W/S`;
    /// micro-batch 0's forward-then-backward chain crosses every stage, so
    /// `compute_end ≥ C`; and throughput is
    /// `dp_groups · group_batch / iteration_time` with
    /// `iteration_time ≥ compute_end`. A skipped config therefore could
    /// not have beaten the incumbent, and selection keeps its total order
    /// (throughput, then smallest index) whatever the visit order. The
    /// margins cover the different summation order; a zero or non-finite
    /// `LB` gives `UB = +∞`, which never skips.
    ///
    /// `best_so_far` also short-circuits the filling pass: filling only
    /// ever *adds* time beyond the backbone schedule, so
    /// `group_batch / max(compute_end, sync_end)` (with the same margin)
    /// bounds the group throughput from above and a config strictly below
    /// the best known throughput can be abandoned without changing the
    /// selection.
    fn evaluate_config(
        &self,
        search: &Search<'_>,
        index: usize,
        best_so_far: f64,
        search_span: Option<SpanId>,
    ) -> ConfigOutcome {
        let hp = search.configs[index];
        let mut span = self.tracer.child_span("config", search_span);
        span.set("index", index);
        span.set("stages", hp.num_stages);
        span.set("micro_batches", hp.num_micro_batches);
        span.set("group_size", hp.group_size);
        let outcome = self.evaluate_config_inner(search, index, best_so_far, &mut span);
        // DpStats for *this* config folded in as attributes (summed stats
        // land on the `config_search` span and in `PlanStats`).
        span.set("dp_candidates", outcome.stats.candidates);
        span.set("dp_pruned", outcome.stats.pruned);
        span.set("fill_skipped", outcome.fill_skipped);
        span.set("feasible", outcome.plan.is_some());
        if let Some(plan) = &outcome.plan {
            span.set("throughput", plan.throughput);
        }
        outcome
    }

    /// The body of [`Planner::evaluate_config`]; `span` is the config's
    /// trace span, used only to parent the partition/schedule/fill child
    /// spans (a no-op span when tracing is off).
    fn evaluate_config_inner(
        &self,
        search: &Search<'_>,
        index: usize,
        best_so_far: f64,
        span: &mut Span,
    ) -> ConfigOutcome {
        let hp = search.configs[index];
        let (cost, backbones, prefixes) = (&search.cost, &search.backbones, &search.prefixes);
        let fill_cfg = &search.fill_cfg;
        let mut outcome = ConfigOutcome {
            index,
            plan: None,
            partition_seconds: 0.0,
            fill_seconds: 0.0,
            stats: DpStats::default(),
            fill_skipped: false,
            partitioned: false,
            scheduled: false,
            filled: false,
        };
        let world = self.cluster.world_size();
        let Some(layout) = DataParallelLayout::new(&self.cluster, hp.group_size) else {
            return outcome;
        };
        let cfg = PartitionConfig::new(
            hp.num_stages,
            hp.num_micro_batches,
            hp.group_batch(search.global_batch, world),
        );
        let part = Partitioner::new(cost, &layout);

        let t0 = Instant::now();
        let partition_span = self.tracer.child_span("partition", span.id());
        outcome.partitioned = true;
        let partition = if backbones.len() == 1 {
            match part.partition_single_with(backbones[0], &cfg, &prefixes[0], &mut outcome.stats) {
                Ok(p) => BackbonePartition::Single(p),
                Err(_) => return outcome,
            }
        } else {
            match part.partition_bidirectional_with(
                backbones[0],
                backbones[1],
                &cfg,
                &prefixes[0],
                &prefixes[1],
                &mut outcome.stats,
            ) {
                Ok(p) => BackbonePartition::Bidirectional(p),
                Err(_) => return outcome,
            }
        };
        partition_span.finish();
        outcome.partition_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let schedule_span = self.tracer.child_span("schedule", span.id());
        outcome.scheduled = true;
        let builder = ScheduleBuilder::new(part.cost());
        let schedule = match &partition {
            BackbonePartition::Single(p) => builder.build_single(p, self.schedule),
            BackbonePartition::Bidirectional(p) => builder.build_bidirectional(p),
        };
        schedule_span.finish();
        let Ok(schedule) = schedule else {
            return outcome;
        };

        let dp_groups = world / hp.group_size;
        let makespan = schedule.compute_end().max(schedule.sync_end());
        if makespan > 0.0 {
            let throughput_ub =
                dp_groups as f64 * schedule.group_batch / makespan * (1.0 + BOUND_MARGIN);
            if throughput_ub < best_so_far {
                // Fill-skip upper-bound cut: the span attribute lands on the
                // config span via the wrapper.
                outcome.fill_skipped = true;
                return outcome;
            }
        }

        let mut fill_span = self.tracer.child_span("fill", span.id());
        outcome.filled = true;
        let bubbles = schedule.bubbles(fill_cfg.min_bubble_seconds);
        // The frozen part runs data-parallel on every device; its tail is
        // gated by the slowest device class.
        let filler = Filler::new(
            cost.db_for(cost.class_map().slowest_class()),
            fill_cfg.clone(),
        );
        let fill = if self.options.bubble_filling {
            match filler.fill(&bubbles, schedule.group_batch, hp.group_size) {
                Ok(f) => f,
                Err(_) => return outcome,
            }
        } else {
            // Ablation: nothing filled; the frozen part is a pure tail.
            match filler.fill(&[], schedule.group_batch, hp.group_size) {
                Ok(f) => f,
                Err(_) => return outcome,
            }
        };
        let timing = IterationTiming::new(&schedule, &fill);
        fill_span.set("bubbles", bubbles.len());
        fill_span.finish();
        outcome.fill_seconds = t1.elapsed().as_secs_f64();

        let Some(peak) = self.check_memory(&search.mm, &partition, &layout, cost.class_map())
        else {
            return outcome;
        };
        let throughput = timing.cluster_throughput(dp_groups);
        outcome.plan = Some(Plan {
            hyper: hp,
            partition,
            schedule,
            bubbles,
            fill,
            iteration_time: timing.iteration_time(),
            throughput,
            // A candidate carries no meaningful ratio: selection reads only
            // throughput and index, so `plan_with_stats` computes the ratio
            // for the selected plan alone.
            bubble_ratio: f64::NAN,
            peak_memory_bytes: peak,
            preprocessing: PreprocessingReport::default(),
        });
        outcome
    }

    /// The pre-optimisation planning loop, kept as ground truth: a
    /// sequential walk over every configuration using the naive reference
    /// DPs ([`Partitioner::partition_single_reference`]) with per-candidate
    /// `ProfileDb` walks, no shared cost tables, no branch-and-bound and no
    /// fill short-circuiting.
    ///
    /// [`Planner::plan`] must return a byte-identical plan; the golden
    /// equivalence suite and the benchmark's `plan_cold` oracle assert
    /// exactly that.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan_reference(&self, global_batch: u32) -> Result<Plan, PlanError> {
        self.model
            .validate()
            .map_err(|e| PlanError::InvalidModel(e.to_string()))?;
        self.cluster
            .validate_classes()
            .map_err(PlanError::InvalidRequest)?;
        let backbones: Vec<_> = self.model.backbones().map(|(id, _)| id).collect();
        if backbones.len() > 2 {
            return Err(PlanError::TooManyBackbones(backbones.len()));
        }
        let (cost, profile_report) = self.profile_cost_model(global_batch)?;
        let min_layers = backbones
            .iter()
            .map(|&b| self.model.component(b).num_layers())
            .min()
            .ok_or_else(|| PlanError::InvalidRequest("model has no backbone component".into()))?;
        let configs = enumerate_configs(&self.cluster, global_batch, min_layers, &self.search)
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?;

        let mut fill_cfg = self.fill_cfg.clone();
        fill_cfg.partial_batch &= self.options.partial_batch;
        let world = self.cluster.world_size();
        let mm = MemoryModel::new(&self.model);

        let mut best: Option<Plan> = None;
        let mut partition_seconds = 0.0;
        let mut fill_seconds = 0.0;
        for hp in configs {
            let Some(layout) = DataParallelLayout::new(&self.cluster, hp.group_size) else {
                continue;
            };
            let cfg = PartitionConfig::new(
                hp.num_stages,
                hp.num_micro_batches,
                hp.group_batch(global_batch, world),
            );
            let part = Partitioner::new(&cost, &layout);
            let t0 = Instant::now();
            let partition = if backbones.len() == 1 {
                match part.partition_single_reference(backbones[0], &cfg) {
                    Ok(p) => BackbonePartition::Single(p),
                    Err(_) => continue,
                }
            } else {
                match part.partition_bidirectional_reference(backbones[0], backbones[1], &cfg) {
                    Ok(p) => BackbonePartition::Bidirectional(p),
                    Err(_) => continue,
                }
            };
            partition_seconds += t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let builder = ScheduleBuilder::new(part.cost());
            let schedule = match &partition {
                BackbonePartition::Single(p) => builder.build_single(p, self.schedule),
                BackbonePartition::Bidirectional(p) => builder.build_bidirectional(p),
            };
            let Ok(schedule) = schedule else { continue };
            let bubbles = schedule.bubbles(fill_cfg.min_bubble_seconds);
            let filler = Filler::new(
                cost.db_for(cost.class_map().slowest_class()),
                fill_cfg.clone(),
            );
            let fill = if self.options.bubble_filling {
                match filler.fill(&bubbles, schedule.group_batch, hp.group_size) {
                    Ok(f) => f,
                    Err(_) => continue,
                }
            } else {
                match filler.fill(&[], schedule.group_batch, hp.group_size) {
                    Ok(f) => f,
                    Err(_) => continue,
                }
            };
            let combined = CombinedIteration::new(&schedule, &bubbles, &fill);
            fill_seconds += t1.elapsed().as_secs_f64();

            let Some(peak) = self.check_memory(&mm, &partition, &layout, cost.class_map()) else {
                continue;
            };
            let dp_groups = world / hp.group_size;
            let throughput = combined.cluster_throughput(dp_groups);
            let plan = Plan {
                hyper: hp,
                partition,
                schedule,
                bubbles,
                fill,
                iteration_time: combined.iteration_time(),
                throughput,
                bubble_ratio: combined.bubble_ratio(),
                peak_memory_bytes: peak,
                preprocessing: PreprocessingReport::default(),
            };
            let better = best.as_ref().is_none_or(|b| plan.throughput > b.throughput);
            if better {
                best = Some(plan);
            }
        }
        let mut plan = best.ok_or(PlanError::NoFeasibleConfig)?;
        plan.preprocessing = PreprocessingReport {
            profiling_seconds: profile_report.wall_time_seconds,
            partition_seconds,
            fill_seconds,
        };
        Ok(plan)
    }

    /// Convenience accessor for the profile database used during planning,
    /// for callers that want to inspect layer times afterwards.
    pub fn profile(&self, global_batch: u32) -> ProfileDb {
        Profiler::new(DeviceModel::a100_like())
            .with_world_size(self.cluster.world_size())
            .profile(&self.model, global_batch)
            .0
    }

    /// Memory feasibility under per-class device memory limits. Returns the
    /// reported peak (max per-stage peak; bidirectional plans sum the two
    /// pipelines' peaks, as each device holds one stage of each backbone)
    /// when every stage fits the tightest memory budget among its devices,
    /// `None` otherwise. On homogeneous clusters every budget equals
    /// `device_memory_bytes`, reproducing the original single-limit check
    /// decision for decision.
    fn check_memory(
        &self,
        mm: &MemoryModel<'_>,
        partition: &BackbonePartition,
        layout: &DataParallelLayout,
        class_map: &ClassMap,
    ) -> Option<u64> {
        let stage_limit = |st: &dpipe_partition::StagePlan| -> u64 {
            class_map.min_memory(layout.groups.iter().flat_map(|g| st.devices_in_group(g)))
        };
        let stage_peak = |p: &dpipe_partition::PartitionPlan, s: usize| -> u64 {
            let st = &p.stages[s];
            let in_flight = p.num_micro_batches.min(p.stages.len() - s).max(1);
            mm.pipeline_stage_peak(
                st.component,
                st.layers.clone(),
                st.local_batch(p.micro_batch),
                in_flight,
            )
        };
        match partition {
            BackbonePartition::Single(p) => {
                let mut peak = 0u64;
                for s in 0..p.stages.len() {
                    let this = stage_peak(p, s);
                    if this > stage_limit(&p.stages[s]) {
                        return None;
                    }
                    peak = peak.max(this);
                }
                Some(peak)
            }
            // Bidirectional: each device holds one stage of each backbone;
            // the (conservative) budget is the tightest memory among all
            // chain devices, checked against the two pipelines' peak sum.
            BackbonePartition::Bidirectional(p) => {
                let peaks = |plan: &dpipe_partition::PartitionPlan| -> u64 {
                    (0..plan.stages.len())
                        .map(|s| stage_peak(plan, s))
                        .max()
                        .unwrap_or(0)
                };
                let total = peaks(&p.down) + peaks(&p.up);
                let limit = class_map
                    .min_memory(layout.groups.iter().flat_map(|g| g.devices.iter().copied()));
                if total > limit {
                    None
                } else {
                    Some(total)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;

    /// A single-node SD spec with the given ablation switches.
    fn sd_spec(batch: u32, bubble_filling: bool, partial_batch: bool) -> PlanSpec {
        PlanSpec::zoo("sd", ClusterSpec::single_node(8), batch)
            .with_parallelism(1)
            .with_options(PlannerOptions {
                bubble_filling,
                partial_batch,
            })
    }

    #[test]
    fn sd_plan_beats_no_fill_ablation() {
        let full = Planner::plan_spec(&sd_spec(256, true, true)).unwrap();
        let no_fill = Planner::plan_spec(&sd_spec(256, false, false)).unwrap();
        assert!(
            full.throughput > no_fill.throughput,
            "full {} !> no_fill {}",
            full.throughput,
            no_fill.throughput
        );
    }

    /// A self-conditioning probability of 0.0 costs nothing: the schedule
    /// runs every self-conditioning forward for zero time, as the
    /// partitioner charges it, so the plan keeps a vanishing probability's
    /// throughput.
    #[test]
    fn zero_self_conditioning_probability_is_scheduled_free() {
        let plan_at = |probability: f64| {
            let mut model = zoo::stable_diffusion_v2_1();
            model.self_conditioning = Some(dpipe_model::SelfConditioning { probability });
            Planner::new(model, ClusterSpec::single_node(8))
                .plan(256)
                .unwrap()
        };
        let (zero, tiny) = (plan_at(0.0), plan_at(1e-12));
        let sc_forwards: Vec<_> = zero
            .schedule
            .ops
            .iter()
            .filter(|o| o.op.kind == dpipe_schedule::OpKind::SelfCondForward)
            .collect();
        assert!(!sc_forwards.is_empty());
        for o in sc_forwards {
            assert_eq!((o.op.duration, o.end - o.start), (0.0, 0.0), "{o:?}");
        }
        let rel = (zero.throughput - tiny.throughput).abs() / tiny.throughput;
        assert!(
            rel < 1e-9,
            "probability 0.0 gives {} samples/s, 1e-12 gives {}",
            zero.throughput,
            tiny.throughput
        );
    }

    #[test]
    fn partial_batch_ablation_is_between() {
        let full = Planner::plan_spec(&sd_spec(384, true, true)).unwrap();
        let no_partial = Planner::plan_spec(&sd_spec(384, true, false)).unwrap();
        let no_fill = Planner::plan_spec(&sd_spec(384, false, false)).unwrap();
        assert!(full.throughput >= no_partial.throughput);
        assert!(no_partial.throughput >= 0.98 * no_fill.throughput);
    }

    /// `fill.partial_batch: false` turns partial-batch layers off as
    /// `options.partial_batch: false` does: the planner allows them only
    /// when both switches do.
    #[test]
    fn either_partial_batch_switch_turns_partial_layers_off() {
        let spec =
            || PlanSpec::zoo("controlnet", ClusterSpec::single_node(8), 256).with_parallelism(1);
        let full = Planner::plan_spec(&spec()).unwrap();
        let options_off = Planner::plan_spec(&spec().with_options(PlannerOptions {
            bubble_filling: true,
            partial_batch: false,
        }))
        .unwrap();
        let fill_off = Planner::plan_spec(
            &spec().with_fill_config(dpipe_fill::FillConfig::default().without_partial_batch()),
        )
        .unwrap();
        assert_ne!(full.summary(), options_off.summary());
        assert_eq!(fill_off.summary(), options_off.summary());
    }

    #[test]
    fn cdm_uses_bidirectional_partition() {
        let model = zoo::cdm_lsun();
        let cluster = ClusterSpec::single_node(8);
        let plan = Planner::new(model, cluster).plan(256).unwrap();
        assert!(matches!(
            plan.partition,
            BackbonePartition::Bidirectional(_)
        ));
        assert!(plan.throughput > 0.0);
    }

    #[test]
    fn plan_reports_preprocessing_costs() {
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let plan = Planner::new(model, cluster).plan(64).unwrap();
        // §6.4: partitioning ~0.5 s, filling < 1 s, profiling tens of
        // seconds (simulated). Wall times here just need to be sane.
        assert!(plan.preprocessing.profiling_seconds > 0.0);
        assert!(plan.preprocessing.partition_seconds < 30.0);
        assert!(plan.preprocessing.fill_seconds < 30.0);
    }

    #[test]
    fn residual_bubbles_are_small() {
        // Fig. 14: DiffusionPipe's bubble ratio < 5%.
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let plan = Planner::new(model, cluster).plan(256).unwrap();
        assert!(plan.bubble_ratio < 0.08, "ratio {}", plan.bubble_ratio);
    }

    #[test]
    fn invalid_model_rejected() {
        let mut model = zoo::stable_diffusion_v2_1();
        model.components.retain(|c| !c.is_trainable());
        let err = Planner::new(model, ClusterSpec::single_node(8))
            .plan(64)
            .unwrap_err();
        assert!(matches!(err, PlanError::InvalidModel(_)));
    }

    #[test]
    fn degenerate_search_space_is_invalid_request() {
        let spec =
            PlanSpec::zoo("sd", ClusterSpec::single_node(8), 64).with_search_space(SearchSpace {
                max_stages: 0,
                max_micro_batches: 8,
            });
        let err = Planner::plan_spec(&spec).unwrap_err();
        assert!(matches!(err, PlanError::InvalidRequest(_)), "{err:?}");
    }

    #[test]
    fn parallel_plan_is_identical_for_any_worker_count() {
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let sequential = Planner::new(model.clone(), cluster.clone())
            .plan(256)
            .unwrap();
        for workers in [2usize, 4, 16] {
            let parallel = Planner::new(model.clone(), cluster.clone())
                .with_parallelism(workers)
                .plan(256)
                .unwrap();
            assert_eq!(
                parallel.summary(),
                sequential.summary(),
                "workers {workers}"
            );
            assert_eq!(parallel.partition, sequential.partition);
        }
    }

    #[test]
    fn fast_plan_matches_reference_bit_for_bit() {
        for model in [zoo::stable_diffusion_v2_1(), zoo::cdm_lsun()] {
            let cluster = ClusterSpec::single_node(8);
            let planner = Planner::new(model, cluster).with_parallelism(2);
            let fast = planner.plan(128).unwrap();
            let reference = planner.plan_reference(128).unwrap();
            assert_eq!(fast.summary(), reference.summary());
            assert_eq!(fast.partition, reference.partition);
            assert_eq!(fast.fill, reference.fill);
        }
    }

    #[test]
    fn from_spec_reproduces_the_builder_path_byte_for_byte() {
        let cluster = ClusterSpec::single_node(8);
        for spec in [
            PlanSpec::zoo("sd", cluster.clone(), 256),
            PlanSpec::new(zoo::stable_diffusion_v2_1(), cluster.clone(), 256),
        ] {
            let via_spec = Planner::plan_spec(&spec).unwrap();
            let direct = Planner::new(zoo::stable_diffusion_v2_1(), cluster.clone())
                .plan(256)
                .unwrap();
            assert_eq!(via_spec.summary(), direct.summary());
            assert_eq!(via_spec.partition, direct.partition);
            assert_eq!(via_spec.fill, direct.fill);
        }
    }

    #[test]
    fn from_spec_rejects_unknown_models_and_versions() {
        let unknown = PlanSpec::zoo("warpdrive", ClusterSpec::single_node(8), 64);
        let err = Planner::from_spec(&unknown).unwrap_err();
        assert!(
            matches!(&err, PlanError::InvalidRequest(m) if m.contains("warpdrive")),
            "{err:?}"
        );
        let mut future = PlanSpec::zoo("sd", ClusterSpec::single_node(8), 64);
        future.schema_version = 99;
        let err = Planner::from_spec(&future).unwrap_err();
        assert!(
            matches!(&err, PlanError::InvalidRequest(m) if m.contains("schema_version")),
            "{err:?}"
        );
        // An invalid *inline* model still surfaces from plan(), as it does
        // from `Planner::new(..).plan()`.
        let mut broken = zoo::stable_diffusion_v2_1();
        broken.components.retain(|c| !c.is_trainable());
        let spec = PlanSpec::new(broken, ClusterSpec::single_node(8), 64);
        let err = Planner::plan_spec(&spec).unwrap_err();
        assert!(matches!(err, PlanError::InvalidModel(_)), "{err:?}");
    }

    #[test]
    fn spec_schedule_kind_is_honoured_and_fast_path_stays_equivalent() {
        let spec = PlanSpec::zoo("sd", ClusterSpec::single_node(8), 128)
            .with_schedule(ScheduleKind::GPipe)
            .with_parallelism(2);
        let planner = Planner::from_spec(&spec).unwrap();
        let gpipe = planner.plan(128).unwrap();
        let reference = planner.plan_reference(128).unwrap();
        assert_eq!(gpipe.summary(), reference.summary());
        assert_eq!(gpipe.partition, reference.partition);
        // GPipe schedules differently than 1F1B for the same inputs.
        let fifo = Planner::plan_spec(&spec.clone().with_schedule(ScheduleKind::Fifo1F1B)).unwrap();
        assert!(gpipe.throughput > 0.0 && fifo.throughput > 0.0);
    }

    /// The config bound never undercuts what a config achieves: every
    /// feasible config of the benchmark's specs (the golden shapes and the
    /// mixed fleet), evaluated in full, lands at or below its bound.
    #[test]
    fn config_bound_covers_every_feasible_config() {
        let mut specs: Vec<PlanSpec> = Vec::new();
        for name in zoo::NAMES {
            for gpus in [8, 16, 64] {
                for batch in [64, 256] {
                    specs.push(PlanSpec::zoo(
                        name,
                        dpipe_spec::cluster_for_gpus(gpus),
                        batch,
                    ));
                }
            }
        }
        specs.push(
            PlanSpec::from_json(include_str!(
                "../../../examples/specs/sd_mixed_a100_h100_b256.json"
            ))
            .unwrap(),
        );
        let mut checked = 0;
        for spec in specs {
            let planner = Planner::from_spec(&spec).unwrap();
            let (search, _) = planner.prepare_search(spec.global_batch, None).unwrap();
            for (index, bound) in search.bounds.iter().enumerate() {
                let outcome = planner.evaluate_config(&search, index, f64::NEG_INFINITY, None);
                if let Some(plan) = outcome.plan {
                    assert!(
                        *bound >= plan.throughput,
                        "{} config {:?}: bound {bound} < throughput {}",
                        spec.label(),
                        search.configs[index],
                        plan.throughput
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 400, "only {checked} feasible configs checked");
    }

    #[test]
    fn stats_report_search_effort() {
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let (plan, stats) = Planner::new(model, cluster)
            .with_parallelism(2)
            .plan_with_stats(256)
            .unwrap();
        assert!(plan.throughput > 0.0);
        assert!(stats.configs > 0);
        assert!(stats.feasible > 0 && stats.feasible <= stats.configs);
        assert!(stats.dp.candidates > 0);
        assert!(stats.dp.pruned <= stats.dp.candidates);
        assert_eq!(stats.parallelism, 2);
    }
}
