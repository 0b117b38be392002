//! Shared helpers for the table/figure harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§6) and prints paper-vs-measured numbers. Planner
//! and server speed is measured by the standalone `perfbench/` package.

use dpipe_cluster::ClusterSpec;
use dpipe_model::ModelSpec;
use dpipe_profile::{DeviceModel, ProfileDb, Profiler};

/// Profiles `model` for `batch` on `cluster` with the default device model.
pub fn profile(model: &ModelSpec, cluster: &ClusterSpec, batch: u32) -> ProfileDb {
    Profiler::new(DeviceModel::a100_like())
        .with_world_size(cluster.world_size())
        .profile(model, batch)
        .0
}

/// Formats a throughput cell, marking OOM.
pub fn cell(throughput: f64, oom: bool) -> String {
    if oom {
        "OOM".to_owned()
    } else {
        format!("{throughput:.1}")
    }
}

/// Prints a markdown-style header row.
pub fn header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(13 * cols.len()));
}

/// Prints a row of preformatted cells.
pub fn row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", row.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats() {
        assert_eq!(cell(12.345, false), "12.3");
        assert_eq!(cell(12.3, true), "OOM");
    }
}
