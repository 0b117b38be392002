//! Backbone partitioning via dynamic programming (paper §4).
//!
//! Implements the unified partitioning algorithm of DiffusionPipe:
//!
//! * **Single backbone** (§4.1): minimises the critical-path upper bound
//!   `T_max = T0 (M + 2S − 2) + T0^{S−C}` (Eqn. 1) over all ways of cutting
//!   the backbone's layer chain into `S` stages (Eqns. 2–9).
//! * **Multiple backbones** (§4.2): bidirectional (Chimera-style) pipelining
//!   of two backbones over the same device chain (Eqns. 10–16).
//!
//! Both DPs replicate every stage over `r = D / S` devices, the paper's
//! evaluation setting (footnote 2 of §4.1): stage `s` sits on chain
//! offsets `(s − 1)·r..s·r`, so its input link, sync shape and device
//! class depend on its level alone.
//! * **Self-conditioning** (§4.3): the extra forward pass inflates the
//!   per-stage bound (Eqn. 17) and adds the feedback transfer `T_F`
//!   (Eqn. 18); the optimiser scores the expectation over the
//!   self-conditioning probability.
//!
//! Because `T_max` is a weighted sum of two maxima (`W` and `Y`) that cannot
//! be minimised independently, the DP keeps a small *Pareto front* of
//! `(W, Y)` pairs per state instead of a single scalar, guaranteeing the
//! optimum of Eqn. (2) is never pruned.
//!
//! # One cost model per plan
//!
//! A [`CostModel`] holds what every config of a plan shares: one profile
//! database per device class, the cluster's class map and its
//! communication model. It is built once per plan. Each config borrows it
//! through a [`StageCost`] for its data-parallel layout, which resolves
//! only the layout's per-offset device classes. The DPs cost candidate
//! stages through that [`StageCost`], and the schedule takes its
//! per-stage times from [`StageCost::stage_times`], so the bound and the
//! simulated pipeline read the same stage quantities. A device class
//! without its own database is timed on database 0
//! ([`CostModel::db_for`]).
//!
//! # Fast-path layout (parent-pointer DP)
//!
//! The production DPs are engineered around these ideas; the naive
//! originals are preserved verbatim as
//! [`Partitioner::partition_single_reference`] /
//! [`Partitioner::partition_bidirectional_reference`] and the equivalence
//! is asserted bit-for-bit by the golden suite:
//!
//! * **O(1) cost queries.** All interval sums (forward/backward time,
//!   gradient bytes, boundary activation bytes) are answered from a
//!   precomputed [`dpipe_profile::CostPrefix`] whose triangular tables
//!   reproduce the naive left-to-right summation exactly, so the fast path
//!   rounds identically. Gradient-sync all-reduce costs use a
//!   `SyncShape` (device count, machines spanned, slowest intra-link
//!   scale) resolved once per level instead of materialising device
//!   lists. On heterogeneous
//!   clusters there is one table set per device class and each stage is
//!   looked up against the effective class of its devices.
//! * **Parent pointers instead of payload clones.** A DP state is an index
//!   into a flat table — the number of layers placed for the single DP
//!   (`L + 1` states per level), the cell `(down_layers, up_layers)` for
//!   the bidirectional one — and each Pareto point stores only
//!   `(W, Y, prev_state, prev_point)` (32 bytes, `Copy`). Fronts are
//!   contiguous spans in one arena per level, built destination-major so
//!   construction never interleaves. Backtracking reconstructs every
//!   stage's layer range from state-index deltas and its device offsets
//!   from its level; nothing is cloned per candidate.
//! * **Branch-and-bound pruning.** Before the DP runs, an even layer
//!   split is costed as a complete feasible solution; any
//!   candidate whose partial `coeff·W + Y` already exceeds that bound (or
//!   the tightened bound once complete solutions appear) is discarded.
//!   Because `W` and `Y` only grow along a chain and the final selection
//!   minimises exactly `coeff·W + Y`, pruning provably never changes the
//!   selected partition — a property the test-suite asserts against the
//!   unpruned reference. [`DpStats`] reports candidate and prune counts.
//! * **Lookahead.** The unplaced layers still need the remaining stages,
//!   and each stage's `T0` covers its layers' least work, so the final
//!   `W` is at least `R` = remaining work / remaining stages, and a
//!   candidate is pruned when `coeff·max(W, R) + Y` exceeds the bound
//!   (whole destinations and predecessor fronts are skipped by the same
//!   test). The argument above still holds: `R` is the same for every
//!   point of one state, so a point dominated by a pruned point is pruned
//!   too, and `R` never decreases along a path (`max(T0_x, R') ≥ R` for
//!   any next stage `x`), so a pruned point's descendants would be pruned
//!   as well. `R` sums work in a different order from the stage terms, so
//!   it carries a `1 − 1e-9` margin: without it a perfectly balanced
//!   optimum could be pruned by one ulp.
//! * **No unread work.** Both DPs build only what the backtrack or the
//!   bound can read, keeping every floating-point expression and the
//!   candidate order, so plans stay bit-identical:
//!   - *The last level builds only the final state* (`L`, or
//!     `(L_down, L_up)`): the backtrack reads nothing else and the bound
//!     tightens only there, so its front comes from the same candidates,
//!     in the same order, under the same bound. Only [`DpStats`] changes.
//!   - *Bidirectional level tables hold the level's read set.* Level `s`
//!     of `S` reads down intervals `i..i2` with
//!     `s − 1 ≤ i < i2 ≤ L_down − (S − s)` (only `i2 = L_down` at the last
//!     level), and likewise for up. Two buffers allocated once per DP are
//!     refilled with exactly those entries; the rest are stale from an
//!     earlier level, whose link, sync shape and class may differ, and are
//!     never read.
//!   - *Bidirectional predecessors are walked by rows.* Each level keeps
//!     its non-empty states in state order, as rows of equal `i`; a
//!     destination `(i2, j2)` walks the rows with `i < i2` and, within
//!     one, the `j < j2`, so candidates arrive in the full walk's `(i, j)`
//!     order.
//!   - *A bidirectional row is skipped whole* when
//!     `coeff·max(T0_down, R) + gap_down > bound`. Each pair's `t0` and
//!     `gap` are at least the down stage's, and `max`, IEEE `×` and `+` by
//!     the positive `coeff` are monotone, so every pair of that row would
//!     fail its own test. The test keeps `>`: `≥` would drop a tied
//!     optimum.
//!
//! # Example
//!
//! ```
//! use dpipe_cluster::{ClusterSpec, DataParallelLayout};
//! use dpipe_model::zoo;
//! use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
//! use dpipe_profile::{DeviceModel, Profiler};
//!
//! let model = zoo::stable_diffusion_v2_1();
//! let cluster = ClusterSpec::single_node(8);
//! let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
//! // Once per plan: one profile database per device class.
//! let cost = CostModel::new(vec![db], &cluster);
//! // Once per config: the data-parallel layout of its group size.
//! let layout = DataParallelLayout::new(&cluster, 8).unwrap();
//! let part = Partitioner::new(&cost, &layout);
//! let backbone = model.backbones().next().unwrap().0;
//! let plan = part
//!     .partition_single(backbone, &PartitionConfig::new(4, 4, 64.0))
//!     .unwrap();
//! assert_eq!(plan.stages.len(), 4);
//! ```

mod bidirectional;
mod config;
mod dp;
mod error;
mod pareto;
mod plan;
mod reference;
mod search;
mod single;
mod stage_cost;
mod stage_times;

pub use bidirectional::BidirectionalPlan;
pub use config::PartitionConfig;
pub use dp::{layer_work, DpStats, BOUND_MARGIN};
pub use error::PartitionError;
pub use plan::{PartitionPlan, StagePlan};
pub use search::{enumerate_configs, HyperParams, SearchSpace, SearchSpaceError};
pub use single::Partitioner;
pub use stage_cost::{CostModel, StageCost, StageTerms};
pub use stage_times::StageTimes;
