//! End-to-end contracts for the fault-injecting simulator: the `dpipe
//! simulate` document is deterministic byte-for-byte, the HTTP endpoint
//! serves exactly that document, and a node drop yields a re-plan whose
//! migration diff really is a constructive edit script.

use diffusionpipe::core::{
    lower_plan, simulate_plan, stage_layouts, FaultSpec, PlanError, Planner,
};
use diffusionpipe::http::{HttpClient, HttpServer, ServerConfig};
use diffusionpipe::serve::json::simulate_response_doc;
use diffusionpipe::serve::{PlanRequest, PlanService, ServiceConfig};
use diffusionpipe::spec::PlanSpec;
use diffusionpipe::trace::Tracer;

const SPEC_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs");

fn load_spec(name: &str) -> PlanSpec {
    let text = std::fs::read_to_string(format!("{SPEC_DIR}/{name}")).expect("committed spec");
    PlanSpec::from_json(&text).expect("spec parses")
}

fn load_faults(name: &str) -> FaultSpec {
    let text = std::fs::read_to_string(format!("{SPEC_DIR}/{name}")).expect("committed faults");
    FaultSpec::from_json(&text).expect("fault spec parses")
}

/// The document `dpipe simulate --json` prints for a spec + fault pair,
/// built exactly the way the CLI builds it.
fn cli_document(spec: &PlanSpec, faults: &FaultSpec) -> String {
    let tracer = Tracer::off();
    let request = PlanRequest::from_spec(spec.clone()).expect("request");
    let workers = spec.effective_parallelism();
    let plan = request.plan_traced(workers, &tracer, None).expect("plan");
    let outcome = simulate_plan(spec, &plan, faults, &tracer, None, |degraded| {
        PlanRequest::from_spec(degraded.clone())
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?
            .plan_traced(workers, &tracer, None)
    })
    .expect("simulate");
    format!(
        "{}\n",
        simulate_response_doc(spec, &request, faults, &outcome)
    )
}

/// Drops the server-only trailing `"timing"` object an HTTP response
/// carries on top of the shared document.
fn strip_timing(body: &str) -> String {
    let cut = body.rfind(",\"timing\":").expect("timing field present");
    format!("{}}}\n", &body[..cut])
}

#[test]
fn simulate_json_is_byte_identical_for_same_spec_and_seed() {
    let spec = load_spec("sd_8gpu_b256.json");
    let faults = load_faults("faults_straggler.json");
    let first = cli_document(&spec, &faults);
    let second = cli_document(&spec, &faults);
    assert_eq!(
        first, second,
        "same spec + seed must render byte-identically"
    );
    // The service path (single-flight cache, shared workers) must agree
    // with the direct path to the last byte, or CLI and server answers
    // would drift apart.
    let service = PlanService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let request = PlanRequest::from_spec(spec.clone()).expect("request");
    let response = service.simulate_traced(&request, &faults, 1, None);
    let outcome = response.outcome.expect("service simulate");
    let doc = format!(
        "{}\n",
        simulate_response_doc(&spec, &request, &faults, &outcome)
    );
    assert_eq!(first, doc, "service and direct documents must match");
}

#[test]
fn http_simulate_is_byte_identical_to_the_cli_document() {
    let spec = load_spec("sd_8gpu_b256.json");
    let faults = load_faults("faults_straggler.json");
    let expected = cli_document(&spec, &faults);
    let server = HttpServer::start(ServerConfig::default()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let body = format!(
        "{{\"spec\":{},\"faults\":{}}}",
        spec.to_json(),
        faults.to_json()
    );
    for _ in 0..2 {
        let response = client
            .request("POST", "/simulate", body.as_bytes())
            .expect("request");
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(strip_timing(&response.text()), expected);
    }
}

#[test]
fn node_drop_replans_and_the_migration_diff_round_trips() {
    let spec = load_spec("sd_64gpu_b256.json");
    let faults = load_faults("faults_nodedrop.json");
    let tracer = Tracer::off();
    let request = PlanRequest::from_spec(spec.clone()).expect("request");
    let workers = spec.effective_parallelism();
    let plan = request.plan_traced(workers, &tracer, None).expect("plan");
    let outcome = simulate_plan(&spec, &plan, &faults, &tracer, None, |degraded| {
        PlanRequest::from_spec(degraded.clone())
            .map_err(|e| PlanError::InvalidRequest(e.to_string()))?
            .plan_traced(workers, &tracer, None)
    })
    .expect("simulate");

    assert!(
        !outcome.report.dropped_devices.is_empty(),
        "the node drop must strand devices"
    );
    let replan = outcome.replan.as_ref().expect("node drop must re-plan");
    assert!(replan.surviving_world < spec.cluster.world_size());
    assert!(
        replan.recovered_throughput > 0.0,
        "the degraded cluster must still train"
    );

    // The diff is constructive: applying it to the failed plan's layout
    // reproduces the re-plan's layout exactly.
    let old = stage_layouts(&plan);
    let new = stage_layouts(&replan.plan);
    assert_eq!(
        replan.diff.apply(&old),
        new,
        "MigrationDiff::apply(old) must equal the re-planned layout"
    );
    // And every retired device really belonged to the dropped machine.
    for device in &replan.diff.devices_retired {
        assert!(
            outcome.report.dropped_devices.contains(device),
            "retired device {device} was never dropped"
        );
    }
}

/// `dpipe plan --instructions` prints the lowering the simulator replays:
/// every slot header carries that slot's stream length, and a zero-fault
/// replay executes exactly those streams once per data-parallel group.
#[test]
fn plan_instructions_print_the_replayed_lowering() {
    for name in ["sd_8gpu_b256.json", "sd_64gpu_b256.json"] {
        let spec_path = format!("{SPEC_DIR}/{name}");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dpipe"))
            .args([
                "plan",
                "--spec",
                &spec_path,
                "--workers",
                "1",
                "--instructions",
            ])
            .output()
            .expect("run dpipe");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let headers: Vec<(usize, usize)> = stdout
            .lines()
            .filter_map(|line| {
                let (slot, count) = line.strip_prefix("device slot ")?.split_once(" (")?;
                let count = count.strip_suffix(" instructions):")?;
                Some((slot.parse().ok()?, count.parse().ok()?))
            })
            .collect();

        let spec = load_spec(name);
        let plan = Planner::plan_spec(&spec).expect("plan");
        let lowered = lower_plan(&plan);
        assert_eq!(
            headers.len(),
            lowered.streams.len(),
            "{name}: one header per slot in\n{stdout}"
        );
        for (slot, count) in headers {
            assert_eq!(count, lowered.streams[slot].len(), "{name}: slot {slot}");
        }

        let outcome = simulate_plan(
            &spec,
            &plan,
            &FaultSpec::none(),
            &Tracer::off(),
            None,
            Planner::plan_spec,
        )
        .expect("simulate");
        let per_group: usize = lowered.streams.iter().map(Vec::len).sum();
        assert_eq!(
            outcome.report.total_instructions,
            outcome.report.dp_groups * per_group,
            "{name}"
        );
    }
}
