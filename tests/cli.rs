//! The `dpipe` binary end to end: every subcommand accepts only its own
//! flags and fails loudly on anything else, and the command lines CI runs
//! keep working.

use diffusionpipe::http::HttpClient;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Output, Stdio};

/// `dpipe` with a whitespace-separated command line, run from the
/// repository root.
fn dpipe_cmd(line: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpipe"));
    cmd.args(line.split_whitespace())
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// Runs `dpipe_cmd(line)` with `stdin` piped in.
fn dpipe(line: &str, stdin: &str) -> Output {
    let mut child = dpipe_cmd(line)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dpipe starts");
    // A command that exits before reading its stdin closes the pipe; that
    // is not this test's concern.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("dpipe runs")
}

/// Runs `dpipe` and returns its stdout, failing the test unless it exits 0.
fn stdout_of(line: &str, stdin: &str) -> String {
    let out = dpipe(line, stdin);
    assert!(
        out.status.success(),
        "`dpipe {line}` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn bad_command_lines_exit_1_name_the_flag_and_plan_nothing() {
    let cases = [
        // `--gpus` is a sweep flag; plan takes --gpus-per-machine.
        ("plan --model sd --batch 256 --gpus 64", "--gpus"),
        ("plan --model sd --bogus-flag 3", "--bogus-flag"),
        ("plan --model sd --batch abc", "--batch"),
        ("plan --model sd --workers x", "--workers"),
        ("plan --model sd --batch", "--batch"),
        ("plan --model sd --batch --json", "--batch"),
        ("plan --model sd 256", "`256`"),
        ("plan --model sd --json --json", "--json"),
        (
            "plan --spec examples/specs/sd_8gpu_b256.json --gpus-per-machine 4",
            "--gpus-per-machine",
        ),
        ("sweep --models sd --gpus 8 --batches 64 --typo 1", "--typo"),
        (
            "sweep --spec examples/specs/sweep_mixed.json --no-fill",
            "--no-fill",
        ),
        ("sweep --models sd --workers two", "--workers"),
        (
            "simulate --spec examples/specs/sd_8gpu_b256.json --fautls x",
            "--fautls",
        ),
        ("baselines --model sd --batch -1", "--batch"),
        ("models --json", "--json"),
        // Batches go through `dpipe sweep` or `POST /plan`.
        ("serve --requests -", "--requests"),
        ("serve --listen 127.0.0.1:0 --rate fast", "--rate"),
        ("serve", "--listen"),
    ];
    for (line, flag) in cases {
        let out = dpipe(line, "model=sd gpus=8 batch=64\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`dpipe {line}`: {stderr}");
        assert!(
            stderr.contains(flag),
            "`dpipe {line}` must name {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "`dpipe {line}` printed to stdout");
    }
}

#[test]
fn ci_plan_and_sweep_command_lines_succeed() {
    let cases = [
        (
            "sweep --models sd,dit --gpus 8 --batches 64,128 --workers 2",
            "4 grid points",
        ),
        (
            "sweep --models sd --gpus 8 --batches 64 --json",
            "{\"points\":1,",
        ),
        (
            "plan --model sd --machines a100:1,h100:1 --batch 256",
            "plan for batch 256 on 16 GPUs:",
        ),
        (
            "plan --spec examples/specs/sd_8gpu_b256.json",
            "plan for batch 256 on 8 GPUs:",
        ),
        (
            "plan --spec examples/specs/sd_mixed_a100_h100_b256.json --json",
            "\"fingerprint\":",
        ),
        (
            "sweep --spec examples/specs/sweep_mixed.json --workers 2",
            "4 grid points",
        ),
    ];
    for (line, expected) in cases {
        let out = stdout_of(line, "");
        assert!(out.contains(expected), "`dpipe {line}`: {out}");
    }
}

#[test]
fn emitted_specs_round_trip_through_spec_stdin() {
    let spec = stdout_of("plan --model sdxl --machines 2 --batch 256 --emit-spec", "");
    let out = stdout_of("plan --spec -", &spec);
    assert!(out.starts_with("plan for batch 256 on 16 GPUs:"), "{out}");
    let sweep = stdout_of(
        "sweep --models sd --gpus 8 --machines a100:1,h100:1 --batches 64 --emit-spec",
        "",
    );
    let out = stdout_of("sweep --spec - --workers 2", &sweep);
    assert!(out.contains("2 grid points"), "{out}");
}

#[test]
fn ci_trace_and_simulate_command_lines_succeed() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_plan_trace.json");
    let out = dpipe_cmd("plan --spec examples/specs/sdxl_64gpu_b256.json --trace")
        .arg(&trace)
        .output()
        .expect("dpipe runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.contains("\"name\":\"config_search\""), "{text}");

    let straggler = "simulate --spec examples/specs/sd_8gpu_b256.json \
                     --faults examples/specs/faults_straggler.json --json";
    assert_eq!(stdout_of(straggler, ""), stdout_of(straggler, ""));
    let nodedrop = "simulate --spec examples/specs/sd_64gpu_b256.json \
                    --faults examples/specs/faults_nodedrop.json";
    let out = stdout_of(&format!("{nodedrop} --json"), "");
    assert!(out.contains("\"replan\":{"), "{out}");
    assert!(
        out.contains("\"devices_retired\":[56,57,58,59,60,61,62,63]"),
        "{out}"
    );
    let out = stdout_of(&format!("{nodedrop} --timeline"), "");
    assert!(out.contains("re-plan on 56 surviving devices"), "{out}");
}

/// A `dpipe serve` child that is killed if the test fails before it exits.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_listen_answers_plan_and_drains_on_shutdown() {
    let mut server = Server(
        dpipe_cmd("serve --listen 127.0.0.1:0 --workers 1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("dpipe serve starts"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .parse()
        .expect("socket address");
    let mut client = HttpClient::connect(addr).expect("connects");
    let spec = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/sd_8gpu_b256.json"
    ))
    .expect("committed spec");
    let plan = client.request("POST", "/plan", &spec).expect("POST /plan");
    assert_eq!(plan.status, 200, "{}", plan.text());
    // The golden plan id of sd@8gpu/b256 (tests/goldens/plan_summaries.txt).
    assert!(plan.text().contains("\"id\":\"0bcdf3981ff558e8\""));
    let shutdown = client.request("POST", "/shutdown", b"").expect("shutdown");
    assert_eq!(shutdown.status, 200);
    // Drain waits for open keep-alive connections; close ours.
    drop(client);
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "serve exited with {status}");
}
