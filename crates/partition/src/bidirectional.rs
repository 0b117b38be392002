//! Bidirectional (two-backbone) partitioning DP (paper §4.2, Eqns. 10–16).
//!
//! Fast path: states live on a flat `(down_layers, up_layers)` grid per
//! level and stage terms come from the shared [`CostPrefix`] tables. Down's
//! remaining layers after `i` are placed are `i..`; up's after `j` are
//! `0..L_up − j` (its reversed mapping), so an up stage `j..j2` holds
//! layers `L_up − j2..L_up − j`.
//!
//! The DP prices and walks only what can still win:
//!
//! * **The cost splits, so the optimum is known first.** A level's pair
//!   costs `(max(T0_d, T0_u), max(gap_d, gap_u))`, and `max` is exact, so a
//!   down partition `P` and an up partition `Q` end at
//!   `(max(W_P, W_Q), max(Y_P, Y_Q))`, from the same floats the joint DP
//!   maxes. Before the joint DP, a backward pass over each backbone's own
//!   level terms builds the Pareto front `F` of its complete partitions,
//!   and `t* = min over a ∈ F_down, b ∈ F_up of
//!   coeff·max(a.w, b.w) + max(a.y, b.y)` is bit-identical to the joint
//!   DP's final `coeff·W + Y` (IEEE `×` by the positive `coeff` and `+`
//!   are monotone, so a dominated partition never costs less). The
//!   backward pass keeps only points of cost at most the even split's,
//!   which the optimum's halves meet.
//! * **Seeded at `t*`.** The joint DP's bound starts at `t*` and never
//!   tightens: no complete candidate costs less. A candidate that `t*`
//!   prunes and the even-split seed kept has a lower bound above `t*`, so
//!   it cannot reach the optimum, and any point it would have evicted or
//!   rejected has a lower bound at least as large and is pruned too. Each
//!   state's front is therefore the old front restricted to points whose
//!   lower bound is at most `t*`, in the same order, and the final front's
//!   first minimum is the same point.
//! * **Suffix lookahead.** The same backward pass gives, per backbone and
//!   per (level, layers placed), the least max-`T0` and, separately, the
//!   least max-gap over all completions (`min` and `max` of the DP's own
//!   terms, so no margin). A point `(w, y)` is pruned when
//!   `coeff·max(w, W_d, W_u) + max(y, Y_d, Y_u) > bound`. Along a path the
//!   test never decreases, because the suffix before a stage `x` is at
//!   most `max(T0_x, suffix after x)`, which is what keeps the pruned DP
//!   exact (see [`crate::dp`]); on the optimum's path it is at most
//!   `coeff·W + Y`, so the optimum is never pruned. A destination whose
//!   suffix terms alone lose is skipped, and a whole predecessor front
//!   when its pair's terms do.
//! * **The interval band.** A stage whose class-minimum work already
//!   loses ([`crate::dp::outside_band`]) fails every test above whatever
//!   its other terms, so no pass prices it, and a completion through it
//!   would lose anyway, so the suffix terms leave it out. The joint walk
//!   skips the rows and columns outside `t*`'s band before reading their
//!   terms.
//! * **One term table per level geometry.** Levels with the same input
//!   link, sync shape and device class price every stage alike, so each
//!   backbone keeps one table per distinct geometry, holding only the
//!   stages inside the even split's band, and the backward pass prices an
//!   entry the first time a level reads it. Level `s` of `S` reads stages
//!   from `i ≥ s − 1` to `i2 ≤ L − (S − s)`, and at the last level only
//!   those with `i2 = L`; the joint DP reads a subset of what the backward
//!   pass read at the same level (`t*`'s band lies inside the even
//!   split's), so it prices nothing.
//! * **The last level builds only the final state.** The backtrack reads
//!   only `state(L_down, L_up)`.
//! * **Predecessors are walked by rows.** Each level keeps its non-empty
//!   states in state order, grouped into rows of equal `i`. A destination
//!   `(i2, j2)` walks the rows with `i < i2`, and within a row the
//!   `j < j2`. Candidates arrive in the `(i, j)` order of a nested walk
//!   over every predecessor, so front order and tie-breaking are those of
//!   the full walk.
//! * **Rows that cannot pass are skipped whole.** Every pair of a row has
//!   `t0 ≥ T0_down` and `gap ≥ gap_down`, so when
//!   `coeff·max(T0_down, W) + max(gap_down, Y) > bound` every pair of the
//!   row fails the pair test too. Every test keeps `>`: with `≥` a row
//!   holding a tied optimum would be dropped.
//!
//! Bit-identical to [`Partitioner::partition_bidirectional_reference`].

use crate::config::PartitionConfig;
use crate::dp::{layer_work, outside_band, suffix_sums, DpStats, FrontArena, FrontPoint};
use crate::error::PartitionError;
use crate::plan::{PartitionPlan, StagePlan};
use crate::single::Partitioner;
use crate::stage_cost::{LevelGeometry, StageTerms};
use dpipe_model::ComponentId;
use dpipe_profile::{BatchCosts, CostPrefix};
use std::ops::Range;

/// Result of bidirectional partitioning: one plan per backbone sharing the
/// same device chain. The *down* backbone pipelines from chain offset 0 to
/// the end; the *up* backbone pipelines in the reverse direction, so up's
/// stage 0 occupies the chain's last devices (paper Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct BidirectionalPlan {
    /// Partition of the down-pipelined backbone (stage 0 at chain start).
    pub down: PartitionPlan,
    /// Partition of the up-pipelined backbone (stage 0 at chain end; its
    /// `device_offsets` are chain offsets, so stage 0's offsets are the
    /// largest).
    pub up: PartitionPlan,
    /// Combined bound `T^max_CDM` (Eqn. 12), seconds.
    pub t_max: f64,
}

/// Bandwidth-contention factor for two pipelines sharing links (paper §4.2
/// "we reasonably enlarge the communication time by a factor of 2").
const BIDIR_COMM_SCALE: f64 = 2.0;

/// The constants of one two-backbone DP.
#[derive(Debug, Clone, Copy)]
struct BiConfig {
    stages: usize,
    /// Uniform replication `r = D / S`.
    replication: usize,
    /// `M_CDM + 2S − 2` (Eqn. 12).
    coeff: f64,
    sc_prob: f64,
}

/// One backbone of a two-backbone DP in its own state mapping: `i` layers
/// placed, stages `i..i2`.
struct Side<'p> {
    /// One resolved cost view per device class at the DP's local batch.
    costs: Vec<BatchCosts<'p>>,
    /// [`suffix_sums`] of the class-minimum work of the layers still
    /// unplaced, by layers placed.
    rem: Vec<f64>,
    layers: usize,
    /// The up backbone: its layers are placed from the last one down.
    reversed: bool,
}

impl Side<'_> {
    /// The backbone layers of stage `i..i2`.
    fn layer_range(&self, i: usize, i2: usize) -> Range<usize> {
        if self.reversed {
            (self.layers - i2)..(self.layers - i)
        } else {
            i..i2
        }
    }

    /// The states a level-`s` stage can start from: every earlier level
    /// placed at least one layer, and every later one still gets one.
    fn starts(&self, s: usize, c: &BiConfig) -> Range<usize> {
        (s - 1)..(self.layers - (c.stages - s))
    }

    /// The ends of the level-`s` stages from `i` that the level can read
    /// and that lie inside `bound`'s band. The work grows with the end, so
    /// they are a prefix of the readable ends.
    fn band_ends(&self, s: usize, i: usize, c: &BiConfig, bound: f64) -> Range<usize> {
        let hi = self.layers - (c.stages - s);
        let lo = if s == c.stages { self.layers } else { i + 1 };
        let inside =
            self.rem[lo..=hi].partition_point(|&to| !outside_band(c.coeff, self.rem[i], to, bound));
        lo..lo + inside
    }

    /// Whether stage `i..to` lies outside `bound`'s band.
    fn outside(&self, i: usize, to: usize, c: &BiConfig, bound: f64) -> bool {
        outside_band(c.coeff, self.rem[i], self.rem[to], bound)
    }
}

/// One backbone's stage terms inside the even split's band, one table per
/// distinct level geometry (see the module docs).
struct Terms {
    /// Row `i` of a table holds the stages `i..i2` inside the band, for
    /// `i2` from `i + 1` up, starting at `row_start[i]`.
    row_start: Vec<usize>,
    /// Entries per table.
    len: usize,
    /// Table `t` is `terms[t·len..(t + 1)·len]`; an entry is valid once
    /// its flag in `priced` is set.
    terms: Vec<StageTerms>,
    priced: Vec<bool>,
}

impl Terms {
    /// Empty tables, `tables` of them, for the stages of `side` inside
    /// `bound`'s band.
    fn new(side: &Side<'_>, c: &BiConfig, bound: f64, tables: usize) -> Self {
        let mut row_start = Vec::with_capacity(side.layers);
        let mut len = 0;
        for i in 0..side.layers {
            row_start.push(len);
            len += side.rem[i + 1..]
                .partition_point(|&to| !outside_band(c.coeff, side.rem[i], to, bound));
        }
        let zero = StageTerms {
            t0: 0.0,
            sync_gap: 0.0,
        };
        Terms {
            row_start,
            len,
            terms: vec![zero; tables * len],
            priced: vec![false; tables * len],
        }
    }

    fn index(&self, table: usize, i: usize, i2: usize) -> usize {
        table * self.len + self.row_start[i] + (i2 - i - 1)
    }

    /// The terms of stage `i..i2` in `table`, which a level of its
    /// geometry has already read through [`Terms::get_or_price`].
    fn get(&self, table: usize, i: usize, i2: usize) -> StageTerms {
        self.terms[self.index(table, i, i2)]
    }

    /// The terms of stage `i..i2` in `table`, priced by `price` the first
    /// time a level of its geometry reads them.
    fn get_or_price(
        &mut self,
        table: usize,
        i: usize,
        i2: usize,
        price: impl FnOnce() -> StageTerms,
    ) -> StageTerms {
        let k = self.index(table, i, i2);
        if !self.priced[k] {
            self.terms[k] = price();
            self.priced[k] = true;
        }
        self.terms[k]
    }
}

/// One backbone's completions, from a backward pass over its level terms.
struct Tails {
    layers: usize,
    /// At `s·(L + 1) + i`: the least max-`T0` and the least max-gap over
    /// the completions of the state with `i` layers placed after level `s`,
    /// through stages inside the band; infinite where there is none.
    suffix: Vec<(f64, f64)>,
    /// The fronts of those completions from the states after the level
    /// folded in last (`next`), and the level being folded in (`cur`).
    next: FrontArena,
    cur: FrontArena,
}

impl Tails {
    /// The tails of a backbone of `layers` layers over `stages` levels,
    /// before any level is folded in: only the final state completes.
    fn new(layers: usize, stages: usize) -> Self {
        let mut suffix = vec![(f64::INFINITY, f64::INFINITY); (stages + 1) * (layers + 1)];
        suffix[stages * (layers + 1) + layers] = (0.0, 0.0);
        // Room for a few points per state: the two arenas are reused for
        // every level, so they seldom grow.
        let mut next = FrontArena::with_capacity(layers + 1, 4 * (layers + 1));
        let seg = next.begin_state();
        next.insert(seg, 0.0, 0.0, 0, 0);
        next.end_state(layers, seg);
        Tails {
            layers,
            suffix,
            next,
            cur: FrontArena::with_capacity(layers + 1, 4 * (layers + 1)),
        }
    }

    /// The suffix terms `(W, Y)` of the state with `i` layers placed after
    /// level `s`.
    fn suffix(&self, s: usize, i: usize) -> (f64, f64) {
        self.suffix[s * (self.layers + 1) + i]
    }

    /// Folds level `s` in, from its stages `i..i2` inside `bound`'s band,
    /// priced by `price(i, i2)`. A completion costing more than `bound` on
    /// its own cannot be half of the optimum, so the fronts drop it.
    fn fold_level(
        &mut self,
        side: &Side<'_>,
        s: usize,
        c: &BiConfig,
        bound: f64,
        mut price: impl FnMut(usize, usize) -> StageTerms,
    ) {
        let l = self.layers;
        self.cur.clear();
        for i in side.starts(s, c) {
            let mut best = (f64::INFINITY, f64::INFINITY);
            let seg = self.cur.begin_state();
            for i2 in side.band_ends(s, i, c, bound) {
                let terms = price(i, i2);
                let (w, y) = self.suffix[s * (l + 1) + i2];
                best = (
                    best.0.min(terms.t0.max(w)),
                    best.1.min(terms.sync_gap.max(y)),
                );
                for p in self.next.front(i2) {
                    let (nw, ny) = (p.w.max(terms.t0), p.y.max(terms.sync_gap));
                    if c.coeff * nw + ny <= bound {
                        self.cur.insert(seg, nw, ny, 0, 0);
                    }
                }
            }
            self.cur.end_state(i, seg);
            self.suffix[(s - 1) * (l + 1) + i] = best;
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// The front of complete partitions, once every level is folded in.
    fn complete(&self) -> &[FrontPoint] {
        self.next.front(0)
    }
}

/// `t*`: the least `coeff·max(a.w, b.w) + max(a.y, b.y)` over a complete
/// down partition `a` and a complete up partition `b`.
fn exact_seed(down: &[FrontPoint], up: &[FrontPoint], coeff: f64) -> f64 {
    down.iter()
        .flat_map(|a| up.iter().map(move |b| coeff * a.w.max(b.w) + a.y.max(b.y)))
        .fold(f64::INFINITY, f64::min)
}

/// What the backward pass hands the joint DP.
struct Seeded {
    /// The term table of each level's geometry, at `s − 1`.
    table: Vec<usize>,
    down: (Terms, Tails),
    up: (Terms, Tails),
    /// `t*`, the optimum's exact cost.
    seed: f64,
}

impl<'a> Partitioner<'a> {
    /// Validates a bidirectional request, returning `(L_down, L_up, r)`.
    pub(crate) fn validate_bidirectional(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<(usize, usize, usize), PartitionError> {
        let l_down = self.backbone_layers(down)?;
        let l_up = self.backbone_layers(up)?;
        let r = self.replication(cfg, l_down.min(l_up))?;
        Ok((l_down, l_up, r))
    }

    /// Partitions two backbones for bidirectional pipelining over the same
    /// device chain, minimising the Eqn. (12) bound with `M_CDM = 2M`
    /// (both pipelines contribute `M` paired forward/backward slots in the
    /// stable phase).
    ///
    /// Replication is uniform, as in the single-backbone DP: level `s` of
    /// both pipelines sits on chain offsets `(s − 1)·r..s·r`, `r = D / S`
    /// (see [`PartitionConfig`]).
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition_bidirectional(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<BidirectionalPlan, PartitionError> {
        self.validate_bidirectional(down, up, cfg)?;
        let prefixes_down = self.build_prefixes(down, cfg);
        let prefixes_up = self.build_prefixes(up, cfg);
        let mut stats = DpStats::default();
        self.partition_bidirectional_with(down, up, cfg, &prefixes_down, &prefixes_up, &mut stats)
    }

    /// The two sides and constants of one bidirectional DP, refusing a
    /// request [`Partitioner::partition_bidirectional_with`] refuses.
    fn bidirectional_sides<'p>(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
        prefixes_down: &'p [CostPrefix],
        prefixes_up: &'p [CostPrefix],
    ) -> Result<(Side<'p>, Side<'p>, BiConfig), PartitionError> {
        let (l_down, l_up, r) = self.validate_bidirectional(down, up, cfg)?;
        self.check_tables(prefixes_down)?;
        self.check_tables(prefixes_up)?;
        let sc_prob = self.self_cond_prob();
        let c = BiConfig {
            stages: cfg.num_stages,
            replication: r,
            coeff: (2 * cfg.num_micro_batches) as f64 + 2.0 * cfg.num_stages as f64 - 2.0,
            sc_prob,
        };
        // Resolved cost views — one row lookup per (backbone, class) for
        // the whole DP (uniform replication means a single local batch).
        let batch = cfg.micro_batch() / r as f64;
        let side = |prefixes: &'p [CostPrefix], layers: usize, reversed: bool| {
            let costs: Vec<_> = prefixes.iter().map(|p| p.batch_view(batch)).collect();
            let work = layer_work(&costs, layers, sc_prob).into_iter();
            let rem = if reversed {
                suffix_sums(work.rev())
            } else {
                suffix_sums(work)
            };
            Side {
                costs,
                rem,
                layers,
                reversed,
            }
        };
        Ok((
            side(prefixes_down, l_down, false),
            side(prefixes_up, l_up, true),
            c,
        ))
    }

    /// Stage `i..i2` of `side` priced at a level of geometry `g`.
    fn bidirectional_terms(
        &self,
        side: &Side<'_>,
        g: &LevelGeometry,
        c: &BiConfig,
        i: usize,
        i2: usize,
    ) -> StageTerms {
        self.cost().stage_terms_prefixed(
            &side.costs[g.class],
            side.layer_range(i, i2),
            g.link,
            c.sc_prob,
            BIDIR_COMM_SCALE,
            g.shape,
        )
    }

    /// The backward pass: each backbone's term tables and [`Tails`] over
    /// the stages inside the even split's band, and the exact seed `t*`.
    fn bidirectional_seed(
        &self,
        down: &Side<'_>,
        up: &Side<'_>,
        c: &BiConfig,
        stats: &mut DpStats,
    ) -> Seeded {
        // Levels of equal geometry share a term table.
        let mut geometries: Vec<LevelGeometry> = Vec::new();
        let table: Vec<usize> = (1..=c.stages)
            .map(|s| {
                let g = self.cost().level(s, c.replication);
                geometries.iter().position(|&h| h == g).unwrap_or_else(|| {
                    geometries.push(g);
                    geometries.len() - 1
                })
            })
            .collect();

        // The even split of both backbones is a complete feasible
        // solution, so `t*` is at most its cost.
        let mut w_h = 0.0f64;
        let mut y_h = 0.0f64;
        for k in 1..=c.stages {
            let g = &geometries[table[k - 1]];
            let even = |side: &Side<'_>| {
                let (i, i2) = ((k - 1) * side.layers / c.stages, k * side.layers / c.stages);
                self.bidirectional_terms(side, g, c, i, i2)
            };
            let (d, u) = (even(down), even(up));
            stats.priced += 2;
            w_h = w_h.max(d.t0.max(u.t0));
            y_h = y_h.max(d.sync_gap.max(u.sync_gap));
        }
        let even_split = c.coeff * w_h + y_h;

        let mut halves = [down, up].map(|side| {
            (
                Terms::new(side, c, even_split, geometries.len()),
                Tails::new(side.layers, c.stages),
            )
        });
        for s in (1..=c.stages).rev() {
            let t = table[s - 1];
            let g = &geometries[t];
            for (side, (terms, tails)) in [down, up].into_iter().zip(halves.iter_mut()) {
                tails.fold_level(side, s, c, even_split, |i, i2| {
                    terms.get_or_price(t, i, i2, || {
                        stats.priced += 1;
                        self.bidirectional_terms(side, g, c, i, i2)
                    })
                });
            }
        }
        let [down, up] = halves;
        // The even split's halves are in the fronts, so `t*` is at most its
        // cost; the `min` only keeps the joint DP inside the tables' band
        // should a non-finite term empty a front.
        let seed = exact_seed(down.1.complete(), up.1.complete(), c.coeff).min(even_split);
        Seeded {
            table,
            down,
            up,
            seed,
        }
    }

    /// [`Partitioner::partition_bidirectional`] against caller-supplied
    /// per-class [`CostPrefix`] tables (index = device-class index, exactly
    /// one table per class of the cost model), accumulating DP counters
    /// into `stats`.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    ///
    /// # Panics
    ///
    /// Panics if a prefix lacks the row for `micro_batch / r` (see
    /// [`CostPrefix::ensure_batch`]).
    pub fn partition_bidirectional_with(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
        prefixes_down: &[CostPrefix],
        prefixes_up: &[CostPrefix],
        stats: &mut DpStats,
    ) -> Result<BidirectionalPlan, PartitionError> {
        let (down_side, up_side, c) =
            self.bidirectional_sides(down, up, cfg, prefixes_down, prefixes_up)?;
        let (l_down, l_up, r) = (down_side.layers, up_side.layers, c.replication);
        let (s_total, coeff) = (c.stages, c.coeff);
        // The bound starts at the optimum's exact cost and never tightens:
        // no complete candidate costs less.
        let Seeded {
            table,
            down: (down_terms, down_tails),
            up: (up_terms, up_tails),
            seed: bound,
        } = self.bidirectional_seed(&down_side, &up_side, &c, stats);

        let state = |i: usize, j: usize| i * (l_up + 1) + j;
        let num_states = (l_down + 1) * (l_up + 1);
        let final_state = state(l_down, l_up);
        let mut levels: Vec<FrontArena> = Vec::with_capacity(s_total + 1);
        let mut seed = FrontArena::new(num_states);
        let seg = seed.begin_state();
        seed.insert(seg, 0.0, 0.0, 0, 0);
        seed.end_state(state(0, 0), seg);
        levels.push(seed);
        // The previous level's non-empty states in state-index order, as
        // rows of equal `i`: row `(i, start, end)` holds the states
        // `(i, j)` for `j` in `cols[start..end]`, ascending. Walking the
        // rows in order visits states in the (i, j) order of a nested walk
        // over every predecessor.
        let mut rows: Vec<(usize, usize, usize)> = vec![(0, 0, 1)];
        let mut cols: Vec<usize> = vec![0];
        let (mut cur_rows, mut cur_cols) = (Vec::new(), Vec::new());

        for s in 1..=s_total {
            let left = s_total - s;
            // The backtrack reads only the final state, so the last level
            // builds nothing else.
            let last = left == 0;
            // The backward pass priced every stage this level reads.
            let t = table[s - 1];
            let mut cur = FrontArena::new(num_states);
            cur_rows.clear();
            cur_cols.clear();
            let prev = &levels[s - 1];
            let (i2_lo, j2_lo) = if last { (l_down, l_up) } else { (s, s) };
            for i2 in i2_lo..=(l_down - left) {
                // Rows whose down stage lies outside the band come first;
                // the row test would skip each of them.
                let first_row =
                    rows.partition_point(|&(i, _, _)| down_side.outside(i, i2, &c, bound));
                let (w_d, y_d) = down_tails.suffix(s, i2);
                for j2 in j2_lo..=(l_up - left) {
                    // Every candidate into this state costs at least its
                    // suffix terms; skip the destination when they lose.
                    let (w_u, y_u) = up_tails.suffix(s, j2);
                    let (ahead_w, ahead_y) = (w_d.max(w_u), y_d.max(y_u));
                    if coeff * ahead_w + ahead_y > bound {
                        continue;
                    }
                    let dest = state(i2, j2);
                    let seg = cur.begin_state();
                    for &(i, start, end) in &rows[first_row..] {
                        if i >= i2 {
                            break;
                        }
                        let d_terms = down_terms.get(t, i, i2);
                        // Every pair in this row has `t0 ≥ d_terms.t0` and
                        // `gap ≥ d_terms.sync_gap`, so each costs at least
                        // this: the pair test below would skip them all.
                        if coeff * d_terms.t0.max(ahead_w) + d_terms.sync_gap.max(ahead_y) > bound {
                            continue;
                        }
                        let row = &cols[start..end];
                        let first_col = row.partition_point(|&j| up_side.outside(j, j2, &c, bound));
                        for &j in &row[first_col..] {
                            if j >= j2 {
                                break;
                            }
                            let u_terms = up_terms.get(t, j, j2);
                            let t0 = d_terms.t0.max(u_terms.t0);
                            let gap = d_terms.sync_gap.max(u_terms.sync_gap);
                            // Each point of this front costs at least this.
                            if coeff * t0.max(ahead_w) + gap.max(ahead_y) > bound {
                                continue;
                            }
                            let from = state(i, j);
                            for (pi, p) in prev.front(from).iter().enumerate() {
                                stats.candidates += 1;
                                let nw = p.w.max(t0);
                                let ny = p.y.max(gap);
                                if coeff * nw.max(ahead_w) + ny.max(ahead_y) > bound {
                                    stats.pruned += 1;
                                    continue;
                                }
                                cur.insert(seg, nw, ny, from as u32, pi as u32);
                            }
                        }
                    }
                    cur.end_state(dest, seg);
                    if !cur.front(dest).is_empty() {
                        match cur_rows.last_mut() {
                            Some((row_i, _, end)) if *row_i == i2 => *end += 1,
                            _ => cur_rows.push((i2, cur_cols.len(), cur_cols.len() + 1)),
                        }
                        cur_cols.push(j2);
                    }
                }
            }
            levels.push(cur);
            std::mem::swap(&mut rows, &mut cur_rows);
            std::mem::swap(&mut cols, &mut cur_cols);
        }
        let best_idx =
            levels[s_total]
                .best(final_state, coeff)
                .ok_or(PartitionError::TooManyStages {
                    stages: s_total,
                    layers: l_down.min(l_up),
                })?;
        let best_point = levels[s_total].front(final_state)[best_idx];
        let (w, y) = (best_point.w, best_point.y);

        // Parent-pointer backtrack; stage geometry is recovered from the
        // state-index deltas, up's layers through its reversed mapping.
        let mut down_stages: Vec<StagePlan> = Vec::new();
        let mut up_stages_chain: Vec<StagePlan> = Vec::new();
        let mut cur_state = final_state;
        let mut point = best_idx;
        for s in (1..=s_total).rev() {
            let p = levels[s].front(cur_state)[point];
            let (i2, j2) = (cur_state / (l_up + 1), cur_state % (l_up + 1));
            let prev_state = p.prev_state as usize;
            let (i, j) = (prev_state / (l_up + 1), prev_state % (l_up + 1));
            let offsets: Vec<usize> = ((s - 1) * r..s * r).collect();
            down_stages.push(StagePlan {
                component: down,
                layers: i..i2,
                replication: r,
                device_offsets: offsets.clone(),
            });
            up_stages_chain.push(StagePlan {
                component: up,
                layers: (l_up - j2)..(l_up - j),
                replication: r,
                device_offsets: offsets,
            });
            cur_state = prev_state;
            point = p.prev_point as usize;
        }
        down_stages.reverse();
        // up_stages_chain is currently in chain order from the deep end to
        // the front; in chain order from front it is reversed — but the up
        // *pipeline* order is from the chain end toward the front, which is
        // exactly the order we already have.
        let up_stages = up_stages_chain;

        let t_max = coeff * w + y;
        let mk_plan = |stages: Vec<StagePlan>| PartitionPlan {
            stages,
            num_micro_batches: cfg.num_micro_batches,
            micro_batch: cfg.micro_batch(),
            t0: w,
            t_sync_gap: y,
            t_max,
        };
        Ok(BidirectionalPlan {
            down: mk_plan(down_stages),
            up: mk_plan(up_stages),
            t_max,
        })
    }
}

#[cfg(test)]
impl Partitioner<'_> {
    /// The backward pass of [`Partitioner::partition_bidirectional`]
    /// alone: each backbone's tails and the exact seed `t*`.
    fn bidirectional_backward(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<(Tails, Tails, f64), PartitionError> {
        let prefixes_down = self.build_prefixes(down, cfg);
        let prefixes_up = self.build_prefixes(up, cfg);
        let (down_side, up_side, c) =
            self.bidirectional_sides(down, up, cfg, &prefixes_down, &prefixes_up)?;
        let seeded = self.bidirectional_seed(&down_side, &up_side, &c, &mut DpStats::default());
        Ok((seeded.down.1, seeded.up.1, seeded.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use dpipe_cluster::{ClusterSpec, DataParallelLayout};
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn setup() -> (dpipe_profile::ProfileDb, ClusterSpec) {
        let model = zoo::cdm_lsun();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 128);
        (db, ClusterSpec::single_node(8))
    }

    #[test]
    fn bidirectional_covers_both_backbones() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut backbones = db.model().backbones().map(|(id, _)| id);
        let b0 = backbones.next().unwrap();
        let b1 = backbones.next().unwrap();
        let plan = p
            .partition_bidirectional(b0, b1, &PartitionConfig::new(4, 4, 128.0))
            .unwrap();
        assert_eq!(plan.down.stages.len(), 4);
        assert_eq!(plan.up.stages.len(), 4);
        assert!(plan.down.covers(db.model().component(b0).num_layers()));
        // Up plan covers all layers too, but stage 0 holds the *last* chain
        // offsets. Verify coverage by sorting ranges.
        let mut ranges: Vec<_> = plan.up.stages.iter().map(|s| s.layers.clone()).collect();
        ranges.sort_by_key(|r| r.start);
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, db.model().component(b1).num_layers());
    }

    #[test]
    fn up_pipeline_stage0_sits_at_chain_start_offsets() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        let plan = p
            .partition_bidirectional(b0, b1, &PartitionConfig::new(2, 2, 64.0))
            .unwrap();
        // Down stage 0 at offsets [0..r); up stage 0 (its first pipeline
        // stage) holds up's FIRST layers and sits at the chain *end*.
        assert_eq!(plan.down.stages[0].device_offsets[0], 0);
        let up_first_layers = plan
            .up
            .stages
            .iter()
            .find(|s| s.layers.start == 0)
            .expect("some stage holds up layer 0");
        let max_offset = plan
            .up
            .stages
            .iter()
            .map(|s| s.device_offsets[0])
            .max()
            .unwrap();
        assert_eq!(up_first_layers.device_offsets[0], max_offset);
    }

    #[test]
    fn rejects_non_dividing_stages() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        assert!(matches!(
            p.partition_bidirectional(b0, b1, &PartitionConfig::new(3, 2, 64.0)),
            Err(PartitionError::NonUniformGroup { .. })
        ));
    }

    #[test]
    fn bound_beats_or_matches_sequential_estimate() {
        // Bidirectional shares devices; its bound should be far below the
        // sum of two standalone pipelines' bounds on half the devices each.
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        let cfg = PartitionConfig::new(4, 4, 128.0);
        let bi = p.partition_bidirectional(b0, b1, &cfg).unwrap();
        let solo0 = p.partition_single(b0, &cfg).unwrap();
        let solo1 = p.partition_single(b1, &cfg).unwrap();
        assert!(bi.t_max < solo0.t_max + solo1.t_max);
    }

    /// On the chosen path the suffix bounds — each backbone's least
    /// max-`T0` and least max-gap over its completions — never exceed the
    /// final `W` and `Y`, so they never prune the optimum.
    #[test]
    fn suffix_bounds_on_chosen_path_are_at_most_final_w_and_y() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let (b0, b1) = (bbs.next().unwrap(), bbs.next().unwrap());
        let l_up = db.model().component(b1).num_layers();
        for (s, m) in [(1usize, 2usize), (2, 1), (4, 4), (8, 2)] {
            let cfg = PartitionConfig::new(s, m, 128.0);
            let plan = p.partition_bidirectional(b0, b1, &cfg).unwrap();
            let (down, up, _) = p.bidirectional_backward(b0, b1, &cfg).unwrap();
            for placed in 0..=s {
                // Level `placed` placed down stage `placed - 1`; up's stage
                // at that level is up.stages[s - placed], which ends the up
                // layers still unplaced.
                let i = plan.down.stages[..placed]
                    .last()
                    .map_or(0, |st| st.layers.end);
                let j = if placed == 0 {
                    0
                } else {
                    l_up - plan.up.stages[s - placed].layers.start
                };
                let (w_d, y_d) = down.suffix(placed, i);
                let (w_u, y_u) = up.suffix(placed, j);
                let (w, y) = (w_d.max(w_u), y_d.max(y_u));
                assert!(placed == s || w > 0.0, "S={s} after {placed}: W={w}");
                assert!(
                    w <= plan.down.t0 && y <= plan.down.t_sync_gap,
                    "S={s} M={m} after {placed}: ({w}, {y}) > ({}, {})",
                    plan.down.t0,
                    plan.down.t_sync_gap
                );
            }
        }
    }

    /// The exact seed `t*` from the two backbones' fronts is the returned
    /// `t_max` bit for bit, on every config of both two-backbone zoo models
    /// on 8, 16 and 64 GPUs.
    #[test]
    fn exact_seed_is_the_returned_t_max() {
        use crate::{enumerate_configs, SearchSpace};
        let mut checked = 0;
        for model in [zoo::cdm_lsun(), zoo::cdm_imagenet()] {
            for gpus in [8usize, 16, 64] {
                let cluster = if gpus > 8 {
                    ClusterSpec::p4de(gpus / 8)
                } else {
                    ClusterSpec::single_node(gpus)
                };
                for global_batch in [64u32, 256] {
                    let (db, _) =
                        Profiler::new(DeviceModel::a100_like()).profile(&model, global_batch);
                    let cost = CostModel::new(vec![db.clone()], &cluster);
                    let mut bbs = db.model().backbones().map(|(id, c)| (id, c.num_layers()));
                    let ((b0, l0), (b1, l1)) = (bbs.next().unwrap(), bbs.next().unwrap());
                    let space = SearchSpace::default();
                    for hp in enumerate_configs(&cluster, global_batch, l0.min(l1), &space).unwrap()
                    {
                        let layout = DataParallelLayout::new(&cluster, hp.group_size).unwrap();
                        let p = Partitioner::for_stages(&cost, &layout, hp.num_stages);
                        let cfg = PartitionConfig::new(
                            hp.num_stages,
                            hp.num_micro_batches,
                            hp.group_batch(global_batch, cluster.world_size()),
                        );
                        let plan = p.partition_bidirectional(b0, b1, &cfg).unwrap();
                        let (_, _, seed) = p.bidirectional_backward(b0, b1, &cfg).unwrap();
                        assert_eq!(
                            seed.to_bits(),
                            plan.t_max.to_bits(),
                            "{} on {gpus} GPUs, b{global_batch}, {hp:?}: t* = {seed}, t_max = {}",
                            model.name,
                            plan.t_max
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked} configs");
    }

    /// Two equal-layer backbones on a divisible stage count: the optimum
    /// is perfectly balanced and must survive the lookahead.
    #[test]
    fn balanced_optimum_matches_reference() {
        let mut model = zoo::synthetic_model(12, 10.0, &[1.0], false);
        model
            .components
            .push(zoo::synthetic_backbone("bb2", 12, 10_000_000, 10.0));
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 48);
        let cluster = ClusterSpec::single_node(12);
        let layout = DataParallelLayout::new(&cluster, 12).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let (b0, b1) = (bbs.next().unwrap(), bbs.next().unwrap());
        for s in [1usize, 2, 3, 4, 6, 12] {
            for m in [1usize, 4] {
                let cfg = PartitionConfig::new(s, m, 48.0);
                let fast = p.partition_bidirectional(b0, b1, &cfg).unwrap();
                let reference = p.partition_bidirectional_reference(b0, b1, &cfg).unwrap();
                assert_eq!(fast, reference, "S={s} M={m}");
                let sizes: Vec<usize> = fast.down.stages.iter().map(|st| st.layers.len()).collect();
                assert_eq!(sizes, vec![12 / s; s], "S={s} M={m}");
            }
        }
    }

    #[test]
    fn matches_reference_bit_for_bit() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        for (s, m) in [(1usize, 2usize), (2, 1), (4, 4), (8, 2)] {
            let cfg = PartitionConfig::new(s, m, 128.0);
            let fast = p.partition_bidirectional(b0, b1, &cfg).unwrap();
            let reference = p.partition_bidirectional_reference(b0, b1, &cfg).unwrap();
            assert_eq!(fast, reference, "S={s} M={m}");
        }
    }

    /// Both DPs refuse fewer per-class cost tables than the fleet has
    /// device classes, rather than costing a class on another's table.
    #[test]
    fn dps_refuse_a_table_count_other_than_the_class_count() {
        use dpipe_cluster::DeviceClass;
        let model = zoo::cdm_lsun();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 128);
        let cluster = ClusterSpec::mixed(&[
            (DeviceClass::a100(), 1),
            (DeviceClass::h100(), 1),
            (DeviceClass::a10g(), 1),
        ]);
        let layout = DataParallelLayout::new(&cluster, cluster.world_size()).unwrap();
        let cost = CostModel::new(vec![db.clone(); 3], &cluster);
        assert_eq!(cost.num_classes(), 3);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let (b0, b1) = (bbs.next().unwrap(), bbs.next().unwrap());
        let cfg = PartitionConfig::new(3, 4, 128.0);
        let two = |comp: ComponentId| -> Vec<CostPrefix> {
            let mut tables = p.build_prefixes(comp, &cfg);
            tables.truncate(2);
            tables
        };
        let want = PartitionError::CostTableCount {
            tables: 2,
            classes: 3,
        };
        let mut stats = DpStats::default();
        assert_eq!(
            p.partition_single_with(b0, &cfg, &two(b0), &mut stats),
            Err(want.clone())
        );
        assert_eq!(
            p.partition_bidirectional_with(b0, b1, &cfg, &two(b0), &two(b1), &mut stats),
            Err(want.clone())
        );
        let message = want.to_string();
        assert!(message.contains('2') && message.contains('3'), "{message}");
    }
}
