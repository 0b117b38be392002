//! `dpipe` — command-line front end for the DiffusionPipe planner.
//!
//! ```text
//! dpipe plan --model sd --machines 1 --gpus-per-machine 8 --batch 256 [--no-fill] [--no-partial] [--timeline]
//! dpipe plan --spec examples/specs/sd_8gpu_b256.json
//! dpipe plan --model sd --batch 256 --emit-spec | dpipe plan --spec -
//! dpipe models
//! dpipe baselines --model controlnet --machines 4 --batch 1024
//! dpipe simulate --spec examples/specs/sd_64gpu_b256.json --faults examples/specs/faults_nodedrop.json
//! dpipe serve --listen 127.0.0.1:8080 --workers 4
//! dpipe sweep --models sd,dit --gpus 4,8 --batches 128,256 --workers 4
//! dpipe sweep --spec sweep.json
//! ```
//!
//! Every `plan`/`sweep` run is reproducible as data: `--emit-spec` prints
//! the fully-resolved declarative spec (`PlanSpec`/`SweepSpec` JSON) for
//! any flag combination, and `--spec <file|->` executes such a document.
//! Each subcommand accepts only the flags its usage lists: an unknown or
//! repeated flag, a flag without its value, a stray argument or an
//! unparsable value exits 1 before anything is planned.

use diffusionpipe::baselines::{ddp, gpipe, spp, zero3};
use diffusionpipe::core::{
    lower_plan, render_sim_timeline, simulate_plan, BackbonePartition, FaultSpec, PlanError,
    Planner, PlannerOptions,
};
use diffusionpipe::partition::SearchSpace;
use diffusionpipe::prelude::*;
use diffusionpipe::schedule::render_timeline;
use diffusionpipe::serve::json::{plan_response_doc, simulate_response_doc};
use diffusionpipe::spec::{cluster_for_gpus, ClusterAxis, ModelRef, PlanSpec, SweepSpec};
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
      --model/--machines/--gpus-per-machine with --spec are rejected.
      --emit-spec prints the resolved spec instead of planning, so any flag
      combination round-trips through `--emit-spec | dpipe plan --spec -`.
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
  dpipe serve --listen <addr> [--workers N] [--conn-workers N] [--queue N]
             [--max-in-flight N] [--max-body BYTES] [--read-timeout-ms MS]
             [--rate N] [--burst N] [--cache-capacity N]
             [--trace-dir DIR] [--trace-sample N]
      Serve the planner over HTTP/1.1 (std::net, no external deps) until
      `POST /shutdown` (graceful drain). Endpoints: POST /plan (PlanSpec
      JSON in, the exact `dpipe plan --json --spec` document out),
      POST /simulate ({\"spec\": PlanSpec, \"faults\": FaultSpec} in, the
      exact `dpipe simulate --json` document out), POST /sweep (SweepSpec
      JSON in, the exact `dpipe sweep --json --spec` document out),
      GET /metrics, GET /healthz. A full
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

Each subcommand accepts only the flags listed for it: an unknown or
repeated flag, a flag without its value, a stray argument or an
unparsable value exits 1 and names the flag.

Models: sd, controlnet, cdm-lsun, cdm-imagenet, dit, sdxl, imagen
";

/// The flags one subcommand accepts: those that take a value, and the
/// switches that do not.
struct Flags {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

const MODELS: Flags = Flags {
    values: &[],
    switches: &[],
};
const PLAN: Flags = Flags {
    values: &[
        "model",
        "machines",
        "gpus-per-machine",
        "batch",
        "workers",
        "spec",
        "trace",
    ],
    switches: &[
        "no-fill",
        "no-partial",
        "timeline",
        "instructions",
        "json",
        "emit-spec",
        "trace-tree",
    ],
};
const BASELINES: Flags = Flags {
    values: &["model", "machines", "gpus-per-machine", "batch"],
    switches: &[],
};
const SIMULATE: Flags = Flags {
    values: &["spec", "faults", "workers", "trace"],
    switches: &["timeline", "json", "trace-tree"],
};
const SERVE: Flags = Flags {
    values: &[
        "listen",
        "workers",
        "conn-workers",
        "queue",
        "max-in-flight",
        "max-body",
        "read-timeout-ms",
        "rate",
        "burst",
        "cache-capacity",
        "trace-dir",
        "trace-sample",
    ],
    switches: &[],
};
const SWEEP: Flags = Flags {
    values: &["models", "gpus", "machines", "batches", "workers", "spec"],
    switches: &["best", "json", "no-fill", "no-partial", "emit-spec"],
};

/// A subcommand: runs on its decoded flags; the error is for stderr.
type Run = fn(&Args) -> Result<(), String>;

/// One subcommand's flags, decoded against its [`Flags`].
struct Args {
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Decodes `argv` against the flags `dpipe {cmd}` accepts. An unknown
    /// or repeated flag, a flag without its value and a stray argument are
    /// errors that name it.
    fn parse(cmd: &str, argv: &[String], flags: &Flags) -> Result<Self, String> {
        let mut args = Args {
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}` for `dpipe {cmd}`"))?;
            if let Some(&flag) = flags.values.iter().find(|&&f| f == name) {
                let value = argv
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{flag} needs a value"))?;
                if args.values.insert(flag, value.clone()).is_some() {
                    return Err(format!("--{flag} given twice"));
                }
            } else if let Some(&flag) = flags.switches.iter().find(|&&f| f == name) {
                if args.has(flag) {
                    return Err(format!("--{flag} given twice"));
                }
                args.switches.push(flag);
            } else {
                return Err(format!(
                    "unknown flag `{arg}` for `dpipe {cmd}`; run `dpipe` for usage"
                ));
            }
        }
        Ok(args)
    }

    /// A value flag's raw value, if given.
    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A value flag parsed as `T`, or `default` when it is absent.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad --{name} `{v}`"))
        })
    }

    /// Whether a switch was given.
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Rejects `flags` next to `--spec`: the document is authoritative for
    /// them, so they would be silently ignored.
    fn reject_with_spec(&self, flags: &[&str]) -> Result<(), String> {
        match flags
            .iter()
            .find(|&&f| self.value(f).is_some() || self.has(f))
        {
            Some(f) => Err(format!(
                "--{f} cannot be combined with --spec; edit the spec \
                 file (or regenerate it with --emit-spec)"
            )),
            None => Ok(()),
        }
    }
}

fn model_by_name(name: &str) -> Option<ModelSpec> {
    zoo::by_name(name)
}

/// Builds the cluster of `--machines` (a bare count, homogeneous
/// A100-class, or a per-class list like `a100:4,h100:4`) and
/// `--gpus-per-machine`.
fn cluster_from(args: &Args) -> Result<ClusterSpec, String> {
    let gpus: usize = args.parsed("gpus-per-machine", 8)?;
    let spec = args.value("machines").unwrap_or("1");
    if let Ok(machines) = spec.parse::<usize>() {
        return Ok(ClusterSpec {
            devices_per_machine: gpus,
            ..ClusterSpec::p4de(machines.max(1))
        });
    }
    let classes = DeviceClass::parse_machine_spec(spec).map_err(|e| format!("--machines: {e}"))?;
    Ok(ClusterSpec {
        devices_per_machine: gpus,
        machine_classes: classes.clone(),
        ..ClusterSpec::p4de(classes.len())
    })
}

fn cmd_models(_: &Args) -> Result<(), String> {
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "name", "backbones", "train params", "frozen params", "frozen L"
    );
    for name in zoo::NAMES {
        #[expect(
            clippy::expect_used,
            reason = "iterating zoo::NAMES, each of which model_by_name resolves by construction"
        )]
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
    Ok(())
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

/// A collecting tracer when `--trace FILE` or `--trace-tree` asks for one,
/// otherwise the no-op tracer (plans are byte-identical either way).
fn tracer_for(args: &Args) -> Tracer {
    if args.value("trace").is_some() || args.has("trace-tree") {
        Tracer::new()
    } else {
        Tracer::off()
    }
}

/// Writes what `tracer` collected to `--trace FILE` as Chrome trace JSON
/// and, with `--trace-tree`, as an indented tree on stderr.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    if !tracer.is_enabled() {
        return Ok(());
    }
    let trace = tracer.take();
    if let Some(path) = args.value("trace") {
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| format!("writing trace to {path} failed: {e}"))?;
        eprintln!(
            "wrote {} spans to {path} (open in Perfetto or chrome://tracing)",
            trace.len()
        );
    }
    if args.has("trace-tree") {
        eprint!("{}", trace.render_tree());
    }
    Ok(())
}

/// Resolves the flags of one `dpipe plan` invocation into the declarative
/// spec it is equivalent to — the single path both planning and
/// `--emit-spec` go through, so what gets emitted is exactly what runs.
fn spec_from_plan_args(args: &Args) -> Result<PlanSpec, String> {
    if let Some(source) = args.value("spec") {
        // The document is authoritative for the planning inputs, while
        // run-local knobs (--workers, --batch, the ablation switches)
        // override it — and --emit-spec shows exactly what the merge
        // resolved to.
        args.reject_with_spec(&["model", "machines", "gpus-per-machine"])?;
        let mut spec =
            PlanSpec::from_json(&read_spec_source(source)?).map_err(|e| e.to_string())?;
        spec.parallelism = args.parsed("workers", spec.parallelism)?;
        spec.global_batch = args.parsed("batch", spec.global_batch)?;
        if args.has("no-fill") {
            spec.options.bubble_filling = false;
        }
        if args.has("no-partial") {
            spec.options.partial_batch = false;
        }
        return Ok(spec);
    }
    let model_name = args
        .value("model")
        .ok_or("unknown or missing --model; run `dpipe models`")?;
    if model_by_name(model_name).is_none() {
        return Err(format!("unknown model `{model_name}`; run `dpipe models`"));
    }
    let cluster = cluster_from(args)?;
    let batch: u32 = args.parsed("batch", 32 * cluster.world_size() as u32)?;
    Ok(PlanSpec::zoo(model_name, cluster, batch)
        .with_options(PlannerOptions {
            bubble_filling: !args.has("no-fill"),
            partial_batch: !args.has("no-partial"),
        })
        // 0 = "all cores", the CLI default, kept symbolic so an emitted
        // spec reproduces on any machine.
        .with_parallelism(args.parsed("workers", 0)?))
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let spec = spec_from_plan_args(args)?;
    if args.has("emit-spec") {
        println!("{}", spec.to_json());
        return Ok(());
    }
    let request = PlanRequest::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let tracer = tracer_for(args);
    let plan = request
        .plan_traced(spec.effective_parallelism(), &tracer, None)
        .map_err(|e| format!("planning failed: {e}"))?;
    write_trace(args, &tracer)?;
    if args.has("json") {
        // One shared document with `POST /plan` over HTTP, so the two
        // paths stay byte-identical (see `dpipe_serve::json`).
        println!("{}", plan_response_doc(&spec, &request, &plan));
        return Ok(());
    }
    println!(
        "plan for batch {} on {} GPUs:",
        request.global_batch(),
        request.cluster().world_size()
    );
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
    Ok(())
}

fn cmd_baselines(args: &Args) -> Result<(), String> {
    let model = args
        .value("model")
        .and_then(model_by_name)
        .ok_or("unknown or missing --model; run `dpipe models`")?;
    let cluster = cluster_from(args)?;
    let batch: u32 = args.parsed("batch", 32 * cluster.world_size() as u32)?;
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
    let mut reports = Vec::new();
    if let Some((bb, _)) = model.backbones().next() {
        reports.extend(spp(&db, &cluster, bb, batch, &SearchSpace::default()).ok());
        reports.extend(gpipe(&db, &cluster, bb, batch, 2, 4).ok());
    }
    reports.push(ddp(&db, &cluster, batch));
    reports.push(zero3(&db, &cluster, batch));
    for r in reports {
        println!(
            "{:<16} {:>12.1} {:>9.1}%",
            r.name,
            r.throughput,
            r.bubble_ratio * 100.0
        );
    }
    Ok(())
}

/// `dpipe simulate`: plan a spec, replay it under a fault spec through the
/// discrete-event simulator, and report the degraded timeline plus (on
/// node drops) the re-plan on the surviving cluster.
fn cmd_simulate(args: &Args) -> Result<(), String> {
    let source = args
        .value("spec")
        .ok_or("missing --spec <file|-> (emit one with `dpipe plan ... --emit-spec`)")?;
    let mut spec = PlanSpec::from_json(&read_spec_source(source)?).map_err(|e| e.to_string())?;
    spec.parallelism = args.parsed("workers", spec.parallelism)?;
    let faults = match args.value("faults") {
        Some(src) => FaultSpec::from_json(&read_spec_source(src)?).map_err(|e| e.to_string())?,
        None => FaultSpec::none(),
    };
    let request = PlanRequest::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let tracer = tracer_for(args);
    let parallelism = spec.effective_parallelism();
    let plan = request
        .plan_traced(parallelism, &tracer, None)
        .map_err(|e| format!("planning failed: {e}"))?;
    let outcome = simulate_plan(&spec, &plan, &faults, &tracer, None, |degraded| {
        PlanRequest::from_spec(degraded.clone())
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?
            .plan_traced(parallelism, &tracer, None)
    })
    .map_err(|e| format!("simulation failed: {e}"))?;
    write_trace(args, &tracer)?;
    if args.has("json") {
        // One shared document with `POST /simulate` over HTTP, so the two
        // surfaces stay byte-identical (see `dpipe_serve::json`).
        println!(
            "{}",
            simulate_response_doc(&spec, &request, &faults, &outcome)
        );
        return Ok(());
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
    Ok(())
}

/// `dpipe serve --listen`: the HTTP frontend, running until a
/// `POST /shutdown` drains it.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let listen = args
        .value("listen")
        .ok_or_else(|| format!("missing --listen <addr>\n\n{USAGE}"))?;
    let defaults = ServerConfig::default();
    let service = ServiceConfig::default();
    let rate: f64 = args.parsed("rate", 0.0)?;
    let config = ServerConfig {
        addr: listen.to_owned(),
        conn_workers: args.parsed("conn-workers", defaults.conn_workers)?,
        queue_capacity: args.parsed("queue", defaults.queue_capacity)?,
        max_in_flight_plans: args.parsed("max-in-flight", defaults.max_in_flight_plans)?,
        limits: diffusionpipe::http::Limits {
            max_body_bytes: args.parsed("max-body", defaults.limits.max_body_bytes)?,
            read_timeout: std::time::Duration::from_millis(args.parsed("read-timeout-ms", 10_000)?),
            ..defaults.limits
        },
        rate_per_s: rate,
        rate_burst: args.parsed("burst", (2.0 * rate).max(1.0))?,
        trace_dir: args.value("trace-dir").map(std::path::PathBuf::from),
        trace_sample: args.parsed("trace-sample", defaults.trace_sample)?,
        failpoint: None,
        service: ServiceConfig {
            workers: args.parsed("workers", service.workers)?,
            cache_capacity: args.parsed("cache-capacity", service.cache_capacity)?,
            ..service
        },
    };
    if let Some(dir) = &config.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating trace dir {} failed: {e}", dir.display()))?;
    }
    let server = HttpServer::start(config).map_err(|e| format!("binding {listen} failed: {e}"))?;
    println!("listening on http://{}", server.local_addr());
    // The CI smoke test backgrounds this process and greps the line above
    // from a redirected (block-buffered) stdout — flush it out now.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.run_until_shutdown();
    println!("drained; bye");
    Ok(())
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
    if let Some(source) = args.value("spec") {
        args.reject_with_spec(&[
            "models",
            "gpus",
            "machines",
            "batches",
            "no-fill",
            "no-partial",
        ])?;
        return SweepSpec::from_json(&read_spec_source(source)?).map_err(|e| e.to_string());
    }
    let model_names = args
        .value("models")
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
    let gpus_default = if args.value("machines").is_some() {
        ""
    } else {
        "8"
    };
    let mut clusters: Vec<ClusterAxis> =
        parse_list::<usize>(args.value("gpus").unwrap_or(gpus_default))
            .map_err(|e| format!("--gpus: {e}"))?
            .into_iter()
            .map(ClusterAxis::GpuCount)
            .collect();
    // Mixed-fleet axis points: ';'-separated machine specs, each validated
    // here so typos fail before any planning starts.
    if let Some(machine_specs) = args.value("machines") {
        for spec in machine_specs.split(';').filter(|s| !s.is_empty()) {
            DeviceClass::parse_machine_spec(spec).map_err(|e| format!("--machines: {e}"))?;
            clusters.push(ClusterAxis::MachineClasses(spec.to_owned()));
        }
    }
    let batches = parse_list::<u32>(args.value("batches").unwrap_or("128,256"))
        .map_err(|e| format!("--batches: {e}"))?;
    let template_model = models
        .first()
        .cloned()
        .unwrap_or_else(|| ModelRef::Zoo("sd".to_owned()));
    let template_cluster = clusters
        .first()
        .map(|c| c.resolve().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or_else(|| cluster_for_gpus(8));
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

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let sweep = sweep_spec_from_args(args)?;
    let workers: usize = args.parsed("workers", ServiceConfig::default().workers)?;
    if args.has("emit-spec") {
        println!("{}", sweep.to_json());
        return Ok(());
    }
    if sweep.is_empty() {
        return Err("empty sweep grid".to_owned());
    }
    let service = PlanService::new(ServiceConfig::with_workers(workers));
    let start = std::time::Instant::now();
    let report = service.sweep(&sweep).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    if args.has("json") {
        println!("{}", report.to_json());
        return Ok(());
    }
    if args.has("best") {
        for p in report.best_per_model() {
            #[expect(
                clippy::expect_used,
                reason = "best_per_model only yields entries whose outcome is a feasible plan"
            )]
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
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (flags, run): (&Flags, Run) = match cmd.as_str() {
        "models" => (&MODELS, cmd_models),
        "plan" => (&PLAN, cmd_plan),
        "baselines" => (&BASELINES, cmd_baselines),
        "simulate" => (&SIMULATE, cmd_simulate),
        "serve" => (&SERVE, cmd_serve),
        "sweep" => (&SWEEP, cmd_sweep),
        _ => {
            print!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match Args::parse(cmd, &argv[1..], flags).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
