//! Test configuration, deterministic RNG, and failure reporting.

use std::path::PathBuf;

/// Per-test configuration, mirroring the fields of proptest's
/// `ProptestConfig` that the workspace uses.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
    /// Directory where failing case numbers are recorded, if any.
    pub failure_persistence: Option<PathBuf>,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            failure_persistence: Some(PathBuf::from("proptest-regressions")),
        }
    }
}

impl ProptestConfig {
    /// Default configuration with a pinned case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// A failed or rejected test case. Failures abort the test; rejections
/// (from `prop_assume!` or [`TestCaseError::reject`]) discard the case,
/// and a test whose every case is rejected is reported as vacuous.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case's inputs did not satisfy an assumption; it is discarded
    /// rather than counted as a pass or failure.
    Reject(String),
}

impl TestCaseError {
    /// A case that failed an assertion.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A case whose inputs should be discarded, not judged.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }

    /// Whether this error discards the case instead of failing the test.
    pub fn is_rejection(&self) -> bool {
        matches!(self, TestCaseError::Reject(_))
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(msg) => f.write_str(msg),
            TestCaseError::Reject(msg) => write!(f, "rejected: {msg}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Result type of one property-test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic RNG (splitmix64) seeded from the test's name, so every
/// run — locally and in CI — draws the identical case sequence.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for a named test, honouring a `PROPTEST_RNG_SEED` override.
    pub fn for_test(name: &str) -> Self {
        TestRng {
            state: Self::seed_for(name),
        }
    }

    /// The seed [`TestRng::for_test`] uses for `name`.
    pub fn seed_for(name: &str) -> u64 {
        let base = std::env::var("PROPTEST_RNG_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        // FNV-1a over the test name, mixed with the base seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Records a failing case number under the configured persistence
/// directory. Best-effort: IO errors are ignored so reporting never masks
/// the underlying test failure.
pub fn persist_failure(config: &ProptestConfig, test_name: &str, case: u32) {
    let Some(dir) = &config.failure_persistence else {
        return;
    };
    let file = test_name.replace("::", "-");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!("{file}.txt")),
        format!(
            "# proptest shim failure record\ntest = {test_name}\ncase = {case}\nseed = {}\n",
            TestRng::seed_for(test_name)
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_test_but_are_stable() {
        assert_eq!(TestRng::seed_for("a::b"), TestRng::seed_for("a::b"));
        assert_ne!(TestRng::seed_for("a::b"), TestRng::seed_for("a::c"));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = TestRng::for_test("next_f64_in_unit_interval");
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
