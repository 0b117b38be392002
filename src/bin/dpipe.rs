//! `dpipe` — command-line front end for the DiffusionPipe planner.
//!
//! ```text
//! dpipe plan --model sd --machines 1 --gpus 8 --batch 256 [--no-fill] [--no-partial] [--timeline]
//! dpipe plan --spec examples/specs/sd_8gpu_b256.json
//! dpipe plan --model sd --batch 256 --emit-spec | dpipe plan --spec -
//! dpipe models
//! dpipe baselines --model controlnet --machines 4 --batch 1024
//! dpipe serve --requests plans.txt --workers 4
//! dpipe sweep --models sd,dit --gpus 4,8 --batches 128,256 --workers 4
//! dpipe sweep --spec sweep.json
//! ```
//!
//! Every `plan`/`sweep` run is reproducible as data: `--emit-spec` prints
//! the fully-resolved declarative spec (`PlanSpec`/`SweepSpec` JSON) for
//! any flag combination, and `--spec <file|->` executes such a document.

use diffusionpipe::baselines::{ddp, gpipe, spp, zero3};
use diffusionpipe::core::{
    lower_plan, render_sim_timeline, simulate_plan, BackbonePartition, FaultSpec, PlanError,
    Planner, PlannerOptions,
};
use diffusionpipe::partition::SearchSpace;
use diffusionpipe::prelude::*;
use diffusionpipe::schedule::render_timeline;
use diffusionpipe::serve::json::{plan_json, JsonValue};
use diffusionpipe::spec::{ClusterAxis, ModelRef, PlanSpec, SweepSpec};
use std::collections::HashMap;
use std::io::Read as _;
use std::process::ExitCode;

const USAGE: &str = "\
dpipe — DiffusionPipe planner (MLSys 2024 reproduction)

USAGE:
  dpipe models
      List the model zoo.
  dpipe plan --model <name> [--machines N|SPEC] [--gpus-per-machine N]
             [--batch N] [--workers N] [--no-fill] [--no-partial]
             [--timeline] [--instructions] [--json] [--emit-spec]
             [--trace FILE] [--trace-tree]
  dpipe plan --spec <file|-> [--batch N] [--workers N] [--no-fill]
             [--no-partial] [--timeline] [--instructions] [--json]
             [--emit-spec] [--trace FILE] [--trace-tree]
      Plan training and print the chosen configuration. The per-config
      search fans across --workers threads (default: all cores); the plan
      is identical for any worker count. --machines takes a count (all
      machines A100-class) or a mixed-fleet spec like `a100:4,h100:4`
      (classes: a100, h100, a10g). --spec executes a declarative PlanSpec
      JSON document ('-' reads stdin); run-local knobs (--batch, --workers,
      --no-fill, --no-partial) override the document, while
      --model/--machines with --spec are rejected. --emit-spec prints the
      resolved spec instead of planning, so any flag combination
      round-trips through `--emit-spec | dpipe plan --spec -`.
      --trace FILE records every planner phase (validate, profile,
      enumerate, per-config partition DP, schedule, fill, select) as a
      Chrome trace-event JSON file — open it in Perfetto or
      chrome://tracing. --trace-tree prints the same spans as an indented
      tree on stderr (plan output stays on stdout).
  dpipe baselines --model <name> [--machines N|SPEC] [--gpus-per-machine N]
             [--batch N]
      Compare DiffusionPipe against DDP / ZeRO-3 / GPipe / SPP.
  dpipe simulate --spec <file|-> [--faults <file|->] [--timeline] [--json]
             [--workers N] [--trace FILE] [--trace-tree]
      Plan the spec, then replay the plan instruction-by-instruction under
      a fault spec (stragglers, degraded links, node drops) through the
      discrete-event simulator. With no --faults the replay is fault-free
      and must match the planner's predicted iteration time. The fault
      spec is seeded JSON: the same spec + faults always produce the same
      report, byte for byte. Node drops additionally re-plan on the
      surviving cluster and print the stage migration diff. --timeline
      renders the degraded per-slot Gantt chart; --json prints the exact
      `POST /simulate` response document.
  dpipe serve --requests <file|-> [--workers N] [--json]
      Batch-serve planning requests through the worker pool + plan cache.
      One request per line: model=<name> [machines=N|SPEC] [gpus=N]
      [batch=N] [fill=on|off] [partial=on|off]; '#' starts a comment.
      '-' reads stdin.
  dpipe serve --listen <addr> [--workers N] [--conn-workers N] [--queue N]
             [--max-in-flight N] [--max-body BYTES] [--read-timeout-ms MS]
             [--rate N] [--burst N] [--cache-capacity N]
             [--trace-dir DIR] [--trace-sample N]
      Serve the planner over HTTP/1.1 (std::net, no external deps) until
      `POST /shutdown` (graceful drain). Endpoints: POST /plan (PlanSpec
      JSON in, the exact `dpipe plan --json --spec` document out),
      POST /simulate ({\"spec\": PlanSpec, \"faults\": FaultSpec} in, the
      exact `dpipe simulate --json` document out), POST /sweep (SweepSpec
      JSON), GET /metrics, GET /healthz. A full
      connection queue or plan backlog sheds load as 503; bodies over
      --max-body get 413; --rate enables per-client token-bucket limiting
      (429). `--listen 127.0.0.1:0` picks an ephemeral port and prints it.
      --trace-dir writes one Chrome trace-event file per request (accept →
      queue wait → parse → cache/plan → write); --trace-sample N keeps
      every Nth request (default 1 = all). GET /metrics?format=prometheus
      serves the counters in Prometheus text exposition format.
  dpipe sweep --models <a,b,..> [--gpus <n,..>] [--machines <spec;..>]
             [--batches <n,..>] [--workers N] [--best] [--json]
             [--no-fill] [--no-partial] [--emit-spec]
  dpipe sweep --spec <file|-> [--workers N] [--best] [--json] [--emit-spec]
      Fan a cartesian configuration grid across the worker pool and print
      the ranked report. The cluster axis combines --gpus counts with
      --machines mixed-fleet specs (';'-separated, e.g.
      `a100:4,h100:4;a10g:8`). --spec executes a declarative SweepSpec
      JSON document; --emit-spec prints the resolved sweep spec.

Models: sd, controlnet, cdm-lsun, cdm-imagenet, dit, sdxl, imagen
";

fn model_by_name(name: &str) -> Option<ModelSpec> {
    zoo::by_name(name)
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(name.to_owned(), argv[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(name.to_owned());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { flags, switches }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Builds a cluster from a machine spec: a bare count (`4`, homogeneous
/// A100-class) or a per-class list (`a100:4,h100:4`).
fn cluster_from_spec(spec: &str, gpus: usize) -> Result<ClusterSpec, String> {
    if let Ok(machines) = spec.parse::<usize>() {
        return Ok(ClusterSpec {
            devices_per_machine: gpus,
            ..ClusterSpec::p4de(machines.max(1))
        });
    }
    let classes = DeviceClass::parse_machine_spec(spec)?;
    Ok(ClusterSpec {
        devices_per_machine: gpus,
        machine_classes: classes.clone(),
        ..ClusterSpec::p4de(classes.len())
    })
}

fn cluster_from(args: &Args) -> Result<ClusterSpec, String> {
    let gpus: usize = args.get("gpus-per-machine", 8);
    let spec = args.flags.get("machines").map_or("1", String::as_str);
    cluster_from_spec(spec, gpus).map_err(|e| format!("--machines: {e}"))
}

fn cmd_models() -> ExitCode {
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "name", "backbones", "train params", "frozen params", "frozen L"
    );
    for name in zoo::NAMES {
        // dpipe-analyze: allow(no-panic) -- iterating zoo::NAMES, each of which model_by_name resolves by construction
        let m = model_by_name(name).expect("known name");
        println!(
            "{:<14} {:>10} {:>11.2}B {:>11.2}B {:>10}",
            name,
            m.backbones().count(),
            m.trainable_param_count() as f64 / 1e9,
            m.frozen_param_count() as f64 / 1e9,
            m.num_frozen_layers()
        );
    }
    ExitCode::SUCCESS
}

/// Reads a `--spec` source: a file path or `-` for stdin.
fn read_spec_source(source: &str) -> Result<String, String> {
    if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin failed: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("reading {source} failed: {e}"))
    }
}

/// Resolves the flags of one `dpipe plan` invocation into the declarative
/// spec it is equivalent to — the single path both planning and
/// `--emit-spec` go through, so what gets emitted is exactly what runs.
fn spec_from_plan_args(args: &Args) -> Result<PlanSpec, String> {
    if let Some(source) = args.flags.get("spec") {
        // The document is authoritative for the planning inputs; flags that
        // would silently contradict it are rejected, while run-local knobs
        // (--workers, --batch, the ablation switches) override it — and
        // --emit-spec shows exactly what the merge resolved to.
        for conflicting in ["model", "machines", "gpus-per-machine"] {
            if args.flags.contains_key(conflicting) {
                return Err(format!(
                    "--{conflicting} cannot be combined with --spec; edit the spec \
                     file (or regenerate it with --emit-spec)"
                ));
            }
        }
        let mut spec =
            PlanSpec::from_json(&read_spec_source(source)?).map_err(|e| e.to_string())?;
        if let Some(workers) = args.flags.get("workers") {
            spec.parallelism = workers
                .parse()
                .map_err(|_| format!("bad --workers `{workers}`"))?;
        }
        if let Some(batch) = args.flags.get("batch") {
            spec.global_batch = batch
                .parse()
                .map_err(|_| format!("bad --batch `{batch}`"))?;
        }
        if args.has("no-fill") {
            spec.options.bubble_filling = false;
        }
        if args.has("no-partial") {
            spec.options.partial_batch = false;
        }
        return Ok(spec);
    }
    let model_name = args
        .flags
        .get("model")
        .ok_or("unknown or missing --model; run `dpipe models`")?;
    if model_by_name(model_name).is_none() {
        return Err(format!("unknown model `{model_name}`; run `dpipe models`"));
    }
    let cluster = cluster_from(args)?;
    let batch: u32 = args.get("batch", 32 * cluster.world_size() as u32);
    Ok(PlanSpec::zoo(model_name.clone(), cluster, batch)
        .with_options(PlannerOptions {
            bubble_filling: !args.has("no-fill"),
            partial_batch: !args.has("no-partial"),
        })
        // 0 = "all cores", the CLI default, kept symbolic so an emitted
        // spec reproduces on any machine.
        .with_parallelism(args.get("workers", 0)))
}

fn cmd_plan(args: &Args) -> ExitCode {
    let spec = match spec_from_plan_args(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.has("emit-spec") {
        println!("{}", spec.to_json());
        return ExitCode::SUCCESS;
    }
    let request = match PlanRequest::from_spec(spec.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let batch = request.global_batch();
    let cluster = request.cluster().clone();
    // `--trace FILE` / `--trace-tree` attach a collector to the planner;
    // without them the tracer is off and planning runs exactly as before
    // (plans are byte-identical either way).
    let trace_file = args.flags.get("trace").cloned();
    let trace_tree = args.has("trace-tree");
    let tracer = if trace_file.is_some() || trace_tree {
        diffusionpipe::trace::Tracer::new()
    } else {
        diffusionpipe::trace::Tracer::off()
    };
    let plan = match request.plan_traced(spec.effective_parallelism(), &tracer, None) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if tracer.is_enabled() {
        let trace = tracer.take();
        if let Some(path) = trace_file {
            if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
                eprintln!("writing trace to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} spans to {path} (open in Perfetto or chrome://tracing)",
                trace.len()
            );
        }
        if trace_tree {
            eprint!("{}", trace.render_tree());
        }
    }
    if args.has("json") {
        // One shared document with `POST /plan` over HTTP, so the two
        // paths stay byte-identical (see `dpipe_serve::json`).
        let doc = diffusionpipe::serve::json::plan_response_doc(&spec, &request, &plan);
        println!("{doc}");
        return ExitCode::SUCCESS;
    }
    println!("plan for batch {batch} on {} GPUs:", cluster.world_size());
    println!("  {}", plan.summary());
    match &plan.partition {
        BackbonePartition::Single(p) => {
            for (i, s) in p.stages.iter().enumerate() {
                println!(
                    "  stage {i}: layers {:?} x{} (offsets {:?})",
                    s.layers, s.replication, s.device_offsets
                );
            }
        }
        BackbonePartition::Bidirectional(bi) => {
            println!(
                "  down: {:?}",
                bi.down
                    .stages
                    .iter()
                    .map(|s| s.layers.clone())
                    .collect::<Vec<_>>()
            );
            println!(
                "  up  : {:?}",
                bi.up
                    .stages
                    .iter()
                    .map(|s| s.layers.clone())
                    .collect::<Vec<_>>()
            );
        }
    }
    println!(
        "  fill: {:.0} ms in bubbles / {:.0} ms tail / ratio {:.0}%",
        plan.fill.filled_time() * 1e3,
        plan.fill.leftover_time * 1e3,
        plan.fill.fill_ratio() * 100.0
    );
    if args.has("timeline") && plan.hyper.num_stages > 1 {
        println!("\n{}", render_timeline(&plan.schedule, 100));
    }
    if args.has("instructions") {
        for (slot, prog) in lower_plan(&plan).streams.iter().enumerate() {
            println!("\ndevice slot {slot} ({} instructions):", prog.len());
            for instr in prog.iter().take(12) {
                println!("  {instr:?}");
            }
            if prog.len() > 12 {
                println!("  ... {} more", prog.len() - 12);
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_baselines(args: &Args) -> ExitCode {
    let Some(model) = args.flags.get("model").and_then(|n| model_by_name(n)) else {
        eprintln!("unknown or missing --model; run `dpipe models`");
        return ExitCode::FAILURE;
    };
    let cluster = match cluster_from(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let batch: u32 = args.get("batch", 32 * cluster.world_size() as u32);
    let plan = Planner::new(model.clone(), cluster.clone()).plan(batch);
    let db = Profiler::new(DeviceModel::a100_like())
        .with_world_size(cluster.world_size())
        .profile(&model, batch)
        .0;
    println!("{:<16} {:>12} {:>10}", "system", "samples/s", "bubbles");
    if let Ok(p) = &plan {
        println!(
            "{:<16} {:>12.1} {:>9.1}%",
            "diffusionpipe",
            p.throughput,
            p.bubble_ratio * 100.0
        );
    }
    if let Some((bb, _)) = model.backbones().next().map(|(id, c)| (id, c.name.clone())) {
        if let Ok(r) = spp(&db, &cluster, bb, batch, &SearchSpace::default()) {
            println!(
                "{:<16} {:>12.1} {:>9.1}%",
                r.name,
                r.throughput,
                r.bubble_ratio * 100.0
            );
        }
        if let Ok(r) = gpipe(&db, &cluster, bb, batch, 2, 4) {
            println!(
                "{:<16} {:>12.1} {:>9.1}%",
                r.name,
                r.throughput,
                r.bubble_ratio * 100.0
            );
        }
    }
    let r = ddp(&db, &cluster, batch);
    println!(
        "{:<16} {:>12.1} {:>9.1}%",
        r.name,
        r.throughput,
        r.bubble_ratio * 100.0
    );
    let r = zero3(&db, &cluster, batch);
    println!(
        "{:<16} {:>12.1} {:>9.1}%",
        r.name,
        r.throughput,
        r.bubble_ratio * 100.0
    );
    ExitCode::SUCCESS
}

/// `dpipe simulate`: plan a spec, replay it under a fault spec through the
/// discrete-event simulator, and report the degraded timeline plus (on
/// node drops) the re-plan on the surviving cluster.
fn cmd_simulate(args: &Args) -> ExitCode {
    let Some(source) = args.flags.get("spec") else {
        eprintln!("missing --spec <file|-> (emit one with `dpipe plan ... --emit-spec`)");
        return ExitCode::FAILURE;
    };
    let mut spec = match read_spec_source(source)
        .and_then(|t| PlanSpec::from_json(&t).map_err(|e| e.to_string()))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(workers) = args.flags.get("workers") {
        let Ok(parallelism) = workers.parse() else {
            eprintln!("bad --workers `{workers}`");
            return ExitCode::FAILURE;
        };
        spec.parallelism = parallelism;
    }
    let faults = match args.flags.get("faults") {
        Some(src) => match read_spec_source(src)
            .and_then(|t| FaultSpec::from_json(&t).map_err(|e| e.to_string()))
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => FaultSpec::none(),
    };
    let request = match PlanRequest::from_spec(spec.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_file = args.flags.get("trace").cloned();
    let trace_tree = args.has("trace-tree");
    let tracer = if trace_file.is_some() || trace_tree {
        diffusionpipe::trace::Tracer::new()
    } else {
        diffusionpipe::trace::Tracer::off()
    };
    let parallelism = spec.effective_parallelism();
    let plan = match request.plan_traced(parallelism, &tracer, None) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match simulate_plan(&spec, &plan, &faults, &tracer, None, |degraded| {
        PlanRequest::from_spec(degraded.clone())
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?
            .plan_traced(parallelism, &tracer, None)
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if tracer.is_enabled() {
        let trace = tracer.take();
        if let Some(path) = trace_file {
            if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
                eprintln!("writing trace to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} spans to {path} (open in Perfetto or chrome://tracing)",
                trace.len()
            );
        }
        if trace_tree {
            eprint!("{}", trace.render_tree());
        }
    }
    if args.has("json") {
        // One shared document with `POST /simulate` over HTTP, so the two
        // surfaces stay byte-identical (see `dpipe_serve::json`).
        let doc =
            diffusionpipe::serve::json::simulate_response_doc(&spec, &request, &faults, &outcome);
        println!("{doc}");
        return ExitCode::SUCCESS;
    }
    let r = &outcome.report;
    println!(
        "simulated {} on {} GPUs ({} machines, {} DP groups):",
        request.model().name,
        r.world_size,
        r.num_machines,
        r.dp_groups
    );
    println!(
        "  predicted iteration {:.2} ms, fault-free replay {:.2} ms",
        r.predicted_iteration * 1e3,
        r.simulated_iteration * 1e3
    );
    if faults.is_empty() {
        println!("  no faults injected");
    } else {
        println!(
            "  faults (seed {}): {} straggler(s), {} link fault(s), {} node drop(s)",
            faults.seed,
            faults.stragglers.len(),
            faults.links.len(),
            faults.node_drops.len()
        );
    }
    match (r.degraded_iteration, r.degraded_throughput) {
        (Some(iteration), Some(throughput)) => println!(
            "  degraded iteration {:.2} ms, {:.1} samples/s ({:+.1}% vs baseline {:.1})",
            iteration * 1e3,
            throughput,
            r.throughput_delta.unwrap_or(0.0) * 100.0,
            r.baseline_throughput
        ),
        _ => println!(
            "  iteration did not complete: {} device(s) dropped, {} stranded \
             ({}/{} instructions ran, makespan {:.2} ms)",
            r.dropped_devices.len(),
            r.stranded_devices.len(),
            r.completed_instructions,
            r.total_instructions,
            r.makespan * 1e3
        ),
    }
    if let Some(rp) = &outcome.replan {
        println!(
            "  re-plan on {} surviving devices ({} machines): {} stage(s) moved, \
             {} layer(s) reassigned, {} device(s) retired",
            rp.surviving_world,
            rp.surviving_machines,
            rp.diff.stages_moved,
            rp.diff.layers_reassigned,
            rp.diff.devices_retired.len()
        );
        println!(
            "  recovered throughput {:.1} samples/s ({:.0}% of baseline)",
            rp.recovered_throughput,
            rp.recovery_ratio * 100.0
        );
    }
    if args.has("timeline") {
        println!("\n{}", render_sim_timeline(&outcome));
    }
    ExitCode::SUCCESS
}

/// Parses one `serve` request line: whitespace-separated `key=value` tokens
/// (`model=` mandatory; `machines` — a count or an `a100:4,h100:4`-style
/// class spec — `gpus`, `batch`, `fill`, `partial` optional).
fn parse_request_line(line: &str) -> Result<PlanRequest, String> {
    let mut model: Option<ModelSpec> = None;
    let mut machines = "1".to_owned();
    let mut gpus = 8usize;
    let mut batch: Option<u32> = None;
    let mut options = PlannerOptions::default();
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{token}`"))?;
        match key {
            "model" => {
                model =
                    Some(model_by_name(value).ok_or_else(|| format!("unknown model `{value}`"))?);
            }
            "machines" => machines = value.to_owned(),
            "gpus" => gpus = value.parse().map_err(|_| format!("bad gpus `{value}`"))?,
            "batch" => batch = Some(value.parse().map_err(|_| format!("bad batch `{value}`"))?),
            "fill" => options.bubble_filling = parse_switch(value)?,
            "partial" => options.partial_batch = parse_switch(value)?,
            _ => return Err(format!("unknown key `{key}`")),
        }
    }
    let model = model.ok_or_else(|| "missing model=<name>".to_owned())?;
    let cluster = cluster_from_spec(&machines, gpus).map_err(|e| format!("machines: {e}"))?;
    let batch = batch.unwrap_or(32 * cluster.world_size() as u32);
    Ok(PlanRequest::new(model, cluster, batch).with_options(options))
}

fn parse_switch(value: &str) -> Result<bool, String> {
    match value {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        _ => Err(format!("expected on/off, got `{value}`")),
    }
}

/// `dpipe serve --listen`: the HTTP frontend, running until a
/// `POST /shutdown` drains it.
fn cmd_serve_http(args: &Args, listen: &str) -> ExitCode {
    let defaults = diffusionpipe::http::ServerConfig::default();
    let rate: f64 = args.get("rate", 0.0);
    let config = diffusionpipe::http::ServerConfig {
        addr: listen.to_owned(),
        conn_workers: args.get("conn-workers", defaults.conn_workers),
        queue_capacity: args.get("queue", defaults.queue_capacity),
        max_in_flight_plans: args.get("max-in-flight", defaults.max_in_flight_plans),
        limits: diffusionpipe::http::Limits {
            max_body_bytes: args.get("max-body", defaults.limits.max_body_bytes),
            read_timeout: std::time::Duration::from_millis(args.get("read-timeout-ms", 10_000)),
            ..defaults.limits
        },
        rate_per_s: rate,
        rate_burst: args.get("burst", (2.0 * rate).max(1.0)),
        trace_dir: args.flags.get("trace-dir").map(std::path::PathBuf::from),
        trace_sample: args.get("trace-sample", defaults.trace_sample),
        failpoint: None,
        service: ServiceConfig {
            workers: args.get("workers", ServiceConfig::default().workers),
            cache_capacity: args.get("cache-capacity", ServiceConfig::default().cache_capacity),
            ..ServiceConfig::default()
        },
    };
    if let Some(dir) = &config.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("creating trace dir {} failed: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let server = match diffusionpipe::http::HttpServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("binding {listen} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on http://{}", server.local_addr());
    // The CI smoke test backgrounds this process and greps the line above
    // from a redirected (block-buffered) stdout — flush it out now.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.run_until_shutdown();
    println!("drained; bye");
    ExitCode::SUCCESS
}

fn cmd_serve(args: &Args) -> ExitCode {
    if let Some(listen) = args.flags.get("listen") {
        return cmd_serve_http(args, &listen.clone());
    }
    let Some(source) = args.flags.get("requests") else {
        eprintln!("missing --requests <file|-> (or --listen <addr> for HTTP)");
        return ExitCode::FAILURE;
    };
    let text = if source == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("reading stdin failed: {e}");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(source) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("reading {source} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut requests = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_request_line(line) {
            Ok(r) => requests.push(r),
            Err(e) => {
                eprintln!("line {}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if requests.is_empty() {
        eprintln!("no requests in {source}");
        return ExitCode::FAILURE;
    }
    let workers: usize = args.get("workers", ServiceConfig::default().workers);
    let service = PlanService::new(ServiceConfig::with_workers(workers));
    let start = std::time::Instant::now();
    let responses = service.plan_batch(requests);
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.cache_stats();
    if args.has("json") {
        let items = responses
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("request".to_owned(), JsonValue::Str(r.label.clone())),
                    (
                        "fingerprint".to_owned(),
                        JsonValue::Str(format!("{:016x}", r.fingerprint)),
                    ),
                    ("cache_hit".to_owned(), JsonValue::Bool(r.cache_hit)),
                ];
                match &r.outcome {
                    Ok(plan) => fields.push(("plan".to_owned(), plan_json(plan))),
                    Err(e) => fields.push(("error".to_owned(), JsonValue::Str(e.to_string()))),
                }
                JsonValue::Object(fields)
            })
            .collect();
        let doc = JsonValue::Object(vec![
            ("workers".to_owned(), JsonValue::UInt(workers as u64)),
            ("elapsed_s".to_owned(), JsonValue::Num(elapsed)),
            ("cache_hits".to_owned(), JsonValue::UInt(stats.hits)),
            ("cache_misses".to_owned(), JsonValue::UInt(stats.misses)),
            ("responses".to_owned(), JsonValue::Array(items)),
        ]);
        println!("{doc}");
        return ExitCode::SUCCESS;
    }
    for r in &responses {
        match &r.outcome {
            Ok(plan) => println!(
                "{:<36} {} {}",
                r.label,
                if r.cache_hit { "[hit] " } else { "[plan]" },
                plan.summary()
            ),
            Err(e) => println!("{:<36} [fail] {e}", r.label),
        }
    }
    println!(
        "\n{} requests in {:.2}s with {} workers ({:.1} plans/s, cache {}/{} hits)",
        responses.len(),
        elapsed,
        workers,
        responses.len() as f64 / elapsed.max(1e-9),
        stats.hits,
        stats.hits + stats.misses,
    );
    ExitCode::SUCCESS
}

/// Parses `a,b,c` into typed values.
fn parse_list<T: std::str::FromStr>(raw: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad value `{s}`")))
        .collect()
}

/// Resolves the flags of one `dpipe sweep` invocation into the declarative
/// sweep spec it is equivalent to (shared by execution and `--emit-spec`).
fn sweep_spec_from_args(args: &Args) -> Result<SweepSpec, String> {
    if let Some(source) = args.flags.get("spec") {
        return SweepSpec::from_json(&read_spec_source(source)?).map_err(|e| e.to_string());
    }
    let model_names = args
        .flags
        .get("models")
        .ok_or("missing --models <a,b,..>; run `dpipe models`")?;
    let mut models = Vec::new();
    for name in model_names.split(',').filter(|s| !s.is_empty()) {
        if model_by_name(name).is_none() {
            return Err(format!("unknown model `{name}`; run `dpipe models`"));
        }
        models.push(ModelRef::Zoo(name.to_owned()));
    }
    // The 8-GPU default applies only when no cluster axis is given at all:
    // a sweep asked to cover mixed fleets via --machines must not silently
    // grow an extra homogeneous point.
    let gpus_default = if args.flags.contains_key("machines") {
        ""
    } else {
        "8"
    };
    let mut clusters: Vec<ClusterAxis> =
        parse_list::<usize>(args.flags.get("gpus").map_or(gpus_default, String::as_str))
            .map_err(|e| format!("--gpus: {e}"))?
            .into_iter()
            .map(ClusterAxis::GpuCount)
            .collect();
    // Mixed-fleet axis points: ';'-separated machine specs, each validated
    // here so typos fail before any planning starts.
    if let Some(machine_specs) = args.flags.get("machines") {
        for spec in machine_specs.split(';').filter(|s| !s.is_empty()) {
            DeviceClass::parse_machine_spec(spec).map_err(|e| format!("--machines: {e}"))?;
            clusters.push(ClusterAxis::MachineClasses(spec.to_owned()));
        }
    }
    let batches = parse_list::<u32>(args.flags.get("batches").map_or("128,256", String::as_str))
        .map_err(|e| format!("--batches: {e}"))?;
    let template_model = models
        .first()
        .cloned()
        .unwrap_or_else(|| ModelRef::Zoo("sd".to_owned()));
    let template_cluster = clusters
        .first()
        .map(|c| c.resolve().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or_else(|| SweepGrid::cluster_for(8));
    let template = PlanSpec::new(
        template_model,
        template_cluster,
        batches.first().copied().unwrap_or(64),
    )
    .with_options(PlannerOptions {
        bubble_filling: !args.has("no-fill"),
        partial_batch: !args.has("no-partial"),
    });
    Ok(SweepSpec::new(template)
        .with_models(models)
        .with_clusters(clusters)
        .with_batches(batches))
}

fn cmd_sweep(args: &Args) -> ExitCode {
    let sweep = match sweep_spec_from_args(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.has("emit-spec") {
        println!("{}", sweep.to_json());
        return ExitCode::SUCCESS;
    }
    let grid = SweepGrid::from_spec(sweep);
    if grid.is_empty() {
        eprintln!("empty sweep grid");
        return ExitCode::FAILURE;
    }
    let workers: usize = args.get("workers", ServiceConfig::default().workers);
    let service = PlanService::new(ServiceConfig::with_workers(workers));
    let start = std::time::Instant::now();
    let report = match grid.run(&service) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    if args.has("json") {
        println!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    if args.has("best") {
        for p in report.best_per_model() {
            // dpipe-analyze: allow(no-panic) -- best_per_model only yields entries whose outcome is a feasible plan
            let plan = p.outcome.as_ref().expect("best_per_model is feasible");
            println!("{:<36} {}", p.coords(), plan.summary());
        }
    } else {
        print!("{}", report.render_text());
    }
    println!(
        "\n{} grid points in {:.2}s with {} workers ({:.1} plans/s)",
        report.points.len(),
        elapsed,
        workers,
        report.points.len() as f64 / elapsed.max(1e-9),
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    match cmd.as_str() {
        "models" => cmd_models(),
        "plan" => cmd_plan(&args),
        "baselines" => cmd_baselines(&args),
        "simulate" => cmd_simulate(&args),
        "serve" => cmd_serve(&args),
        "sweep" => cmd_sweep(&args),
        _ => {
            print!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
