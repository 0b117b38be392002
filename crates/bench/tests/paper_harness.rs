//! Paper-harness golden: what the ten table and figure binaries print.
//!
//! Runs every binary of this package and compares their stdout, in name
//! order, with `tests/goldens/paper_harness.txt` at the workspace root, so
//! a change to any simulated number shows up as a diff of that file. The
//! only wall-clock output, `preprocessing`'s partition and fill seconds,
//! is masked digit by digit. Regenerate deliberately with
//! `DPIPE_UPDATE_GOLDENS=1`.

use std::process::Command;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/paper_harness.txt"
);

/// Every binary under `src/bin/`, in name order.
const BINARIES: [(&str, &str); 10] = [
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ("fig14", env!("CARGO_BIN_EXE_fig14")),
    ("fig15", env!("CARGO_BIN_EXE_fig15")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("preprocessing", env!("CARGO_BIN_EXE_preprocessing")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
];

/// Masks the last two fields of a `preprocessing` data row (model, gpus,
/// batch, profiling, partition, fill): the partition and fill milliseconds
/// are measured wall time. Each becomes one `#`, right-aligned in the
/// field's width, so a value masks alike whatever its digit count. Other
/// lines pass through unchanged.
fn mask_wall_clock(line: &str) -> String {
    let line = line.trim_end();
    let fields: Vec<&str> = line.split_whitespace().collect();
    let is_row = fields.len() == 6 && fields[1..].iter().all(|f| f.parse::<f64>().is_ok());
    if !is_row {
        return line.to_owned();
    }
    let mut end = line.len();
    let mut masked = String::new();
    for _ in 0..2 {
        let token = line[..end].rfind(' ').map_or(0, |i| i + 1);
        let field = line[..token].trim_end().len();
        masked.insert_str(0, &format!("{:>width$}", "#", width = end - field));
        end = field;
    }
    format!("{}{masked}", &line[..end])
}

#[test]
fn paper_harness_output_matches_committed_file() {
    let mut rendered = String::new();
    for (name, path) in BINARIES {
        let out = Command::new(path)
            .output()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("harness prints UTF-8");
        rendered.push_str(&format!("== {name} ==\n"));
        for line in stdout.lines() {
            let line = if name == "preprocessing" {
                mask_wall_clock(line)
            } else {
                line.to_owned()
            };
            rendered.push_str(&line);
            rendered.push('\n');
        }
    }

    if std::env::var("DPIPE_UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write paper-harness golden");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed paper-harness golden present; regenerate with DPIPE_UPDATE_GOLDENS=1");
    for (i, (got, want)) in rendered.lines().zip(committed.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "paper harness output drifted at golden line {}",
            i + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        committed.lines().count(),
        "paper harness line count drifted"
    );
}

#[test]
fn wall_clock_mask_covers_only_preprocessing_rows() {
    let masked = "sd-v2.1            16    512                6.8                #            #";
    assert_eq!(
        mask_wall_clock(
            "sd-v2.1            16    512                6.8            0.204        0.299"
        ),
        masked
    );
    // A value with more digits masks alike.
    assert_eq!(
        mask_wall_clock(
            "sd-v2.1            16    512                6.8         1234.567       12.012"
        ),
        masked
    );
    let header = "model            gpus  batch  profiling (sim s)   partition (ms)    fill (ms)";
    assert_eq!(mask_wall_clock(header), header);
    assert_eq!(mask_wall_clock(""), "");
}
