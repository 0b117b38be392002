//! Planning purely from data: load a committed `PlanSpec` JSON file,
//! validate it, plan it, and show the canonical round trip that makes any
//! run reproducible (`spec -> json -> spec` is identity, byte-stably).
//!
//! ```sh
//! cargo run --release --example plan_from_spec
//! ```

use diffusionpipe::prelude::*;

fn main() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/sd_mixed_a100_h100_b256.json"
    );
    let text = std::fs::read_to_string(path).expect("committed spec file");
    let spec = PlanSpec::from_json(&text).expect("spec parses");
    spec.validate().expect("spec validates");
    println!("loaded {}: {}", path, spec.label());

    // The canonical encoding is byte-stable: parse -> re-encode -> parse
    // reproduces the same spec and the same fingerprint.
    let reencoded = spec.to_json();
    let back = PlanSpec::from_json(&reencoded).expect("canonical form parses");
    assert_eq!(back, spec);
    assert_eq!(
        back.fingerprint().unwrap(),
        spec.fingerprint().unwrap(),
        "fingerprint must survive the round trip"
    );
    println!(
        "round trip ok, fingerprint {:016x}",
        spec.fingerprint().unwrap()
    );

    // One call plans the whole document.
    let plan = Planner::plan_spec(&spec).expect("plan");
    println!("{}", plan.summary());
}
