//! Allocation golden: how many heap allocations a cold plan makes, and how
//! many bytes they request, counted exactly instead of timed.
//!
//! Runs the `plan_cold` benchmark's op on each of its specs (every golden
//! shape of `tests/goldens/plan_summaries.txt` plus the committed mixed
//! A100/H100 fleet) at parallelism 1, under a counting global allocator:
//! `decode` parses the spec document and builds the planner, `plan` runs
//! the search, and `render` writes the response document. Each spec gets
//! one line of `allocations/bytes` per phase, then a total line, and the
//! lines must equal `tests/goldens/alloc_counters.txt`, so a change to
//! allocation shows up as a diff of that file. Regenerate deliberately
//! with `DPIPE_UPDATE_GOLDENS=1`; a toolchain bump may move the counts.
//!
//! Counts are kept per thread, so the test harness's own threads never mix
//! in, and this binary holds a single test. A reallocation counts as one
//! allocation of its new size.

use diffusionpipe::core::Planner;
use diffusionpipe::serve::json::plan_response_doc;
use diffusionpipe::serve::PlanRequest;
use diffusionpipe::spec::PlanSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

const GOLDEN_PATH: &str = "tests/goldens/alloc_counters.txt";

/// Allocations and bytes requested.
#[derive(Clone, Copy, Default)]
struct Counts {
    allocs: u64,
    bytes: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates.
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0 }) };
}

fn record(size: usize) {
    // A thread being torn down has no counter left; its allocations are
    // not any phase's.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocs += 1;
        n.bytes += size as u64;
        c.set(n);
    });
}

/// The system allocator, counting on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` only updates a thread-local
// counter and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    let spent = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
    };
    (out, spent)
}

fn counter_line(label: &str, [decode, plan, render]: &[Counts; 3]) -> String {
    format!(
        "{label}\tdecode={}/{} plan={}/{} render={}/{}",
        decode.allocs, decode.bytes, plan.allocs, plan.bytes, render.allocs, render.bytes
    )
}

#[test]
fn alloc_counters_match_committed_file() {
    let mut lines = Vec::new();
    let mut total = [Counts::default(); 3];
    for (label, spec) in common::plan_cold_cases() {
        let json = spec.with_parallelism(1).to_json();
        let ((spec, planner), decode) = counted(|| {
            let spec = PlanSpec::from_json(&json).expect("spec document decodes");
            let planner = Planner::from_spec(&spec).expect("spec resolves");
            (spec, planner)
        });
        let (plan, plan_counts) = counted(|| {
            planner
                .plan_with_stats(spec.global_batch)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .0
        });
        let (bytes, render) = counted(|| {
            let request = PlanRequest::from_spec(spec.clone()).expect("spec resolves");
            format!("{}\n", plan_response_doc(&spec, &request, &plan)).into_bytes()
        });
        assert!(!bytes.is_empty());
        let counts = [decode, plan_counts, render];
        for (sum, phase) in total.iter_mut().zip(counts) {
            sum.add(phase);
        }
        lines.push(counter_line(&label, &counts));
    }
    lines.push(counter_line(
        &format!("total ({} specs)", lines.len()),
        &total,
    ));
    let rendered = format!("{}\n", lines.join("\n"));

    if std::env::var("DPIPE_UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write allocation golden");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed allocation counts present; regenerate with DPIPE_UPDATE_GOLDENS=1");
    let committed_lines: Vec<&str> = committed.lines().collect();
    assert_eq!(committed_lines.len(), lines.len(), "spec count drifted");
    for (got, want) in lines.iter().zip(committed_lines) {
        assert_eq!(got, want, "allocations drifted from the committed counts");
    }
}
