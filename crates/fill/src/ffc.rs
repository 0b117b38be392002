//! Algorithm 2 — FFC: full-batch layer bubble-filling candidates.
//!
//! [`for_each_candidate`] is the filler's enumeration: one recursion over
//! one round's [`RoundPrices`] yields every candidate together with its
//! full-batch time. [`ffc_candidates`] and [`candidate_time`] are the
//! algorithm as written, kept for [`crate::Filler::fill_reference`].

use crate::state::FrozenState;
use dpipe_profile::ProfileDb;

/// One round's item prices for the ready components, computed once per
/// round: no candidate changes them.
#[derive(Debug, Default)]
pub(crate) struct RoundPrices {
    /// Per priced item, its bubble time (`layer_time + setup`) and the
    /// running sum from zero of its component's items through it.
    items: Vec<(f64, f64)>,
    /// Per ready component, the start of its items in `items`.
    starts: Vec<usize>,
}

impl RoundPrices {
    /// Prices each ready component's pending items, in order, up to and
    /// including the first whose running sum exceeds `bubble_time`:
    /// Algorithm 2 reads no further at any depth, where the time left is
    /// never more than `bubble_time`.
    pub(crate) fn price(
        &mut self,
        db: &ProfileDb,
        state: &FrozenState,
        ready: &[usize],
        bubble_time: f64,
        devices: usize,
        setup_cost: f64,
    ) {
        self.items.clear();
        self.starts.clear();
        for &idx in ready {
            self.starts.push(self.items.len());
            let pending = state.progress[idx].num_layers - state.progress[idx].next_layer;
            let mut t = 0.0;
            for offset in 0..pending {
                let lt = state.layer_time(db, idx, offset, devices) + setup_cost;
                self.items.push((lt, t + lt));
                if t + lt > bubble_time {
                    break;
                }
                t += lt;
            }
        }
    }

    /// The number of ready components priced.
    pub(crate) fn components(&self) -> usize {
        self.starts.len()
    }

    /// Component `comp`'s priced items, as `(time, running sum)`.
    pub(crate) fn items(&self, comp: usize) -> &[(f64, f64)] {
        let end = self
            .starts
            .get(comp + 1)
            .copied()
            .unwrap_or(self.items.len());
        &self.items[self.starts[comp]..end]
    }

    /// The bubble time of component `comp`'s item `offset` past its front.
    pub(crate) fn item(&self, comp: usize, offset: usize) -> f64 {
        self.items(comp)[offset].0
    }
}

/// Enumerates the candidates of Algorithm 2 in [`ffc_candidates`]' order
/// and hands each to `visit` as its layer counts (by ready position) and
/// its full-batch time.
///
/// The time is folded in [`candidate_time`]'s order — component by
/// component, adding each item to the total of the earlier components —
/// so it is the same float. Each component's `k0` still comes from its own
/// running sum from zero, as the algorithm has it. `counts` and `folds`
/// are scratch buffers, reused across calls.
pub(crate) fn for_each_candidate(
    prices: &RoundPrices,
    bubble_time: f64,
    counts: &mut Vec<usize>,
    folds: &mut Vec<f64>,
    visit: &mut impl FnMut(&[usize], f64),
) {
    counts.clear();
    counts.resize(prices.components(), 0);
    folds.clear();
    walk(prices, bubble_time, 0, 0.0, counts, folds, visit);
}

/// One level of [`for_each_candidate`]: component `comp`'s choices within
/// `time_left`, after earlier components that take `base` in total.
fn walk(
    prices: &RoundPrices,
    time_left: f64,
    comp: usize,
    base: f64,
    counts: &mut [usize],
    folds: &mut Vec<f64>,
    visit: &mut impl FnMut(&[usize], f64),
) {
    if comp == counts.len() {
        visit(counts, base);
        return;
    }
    let items = prices.items(comp);
    // Lines 2–5: the largest k0 whose cumulative time fits.
    let k0 = items
        .iter()
        .position(|&(_, cum)| cum > time_left)
        .unwrap_or(items.len());
    if comp == counts.len() - 1 {
        // Last component: only the maximal k0 candidate (lines 6–7).
        counts[comp] = k0;
        let time = items[..k0].iter().fold(base, |t, &(lt, _)| t + lt);
        visit(counts, time);
        counts[comp] = 0;
        return;
    }
    // The totals with `k` of this component's items, for `k` up to `k0`.
    let mark = folds.len();
    folds.push(base);
    let mut t = base;
    for &(lt, _) in &items[..k0] {
        t += lt;
        folds.push(t);
    }
    // Lines 9–13: try each k from k0 down to 0 and recurse.
    for k in (0..=k0).rev() {
        counts[comp] = k;
        let cum = if k == 0 { 0.0 } else { items[k - 1].1 };
        walk(
            prices,
            time_left - cum,
            comp + 1,
            folds[mark + k],
            counts,
            folds,
            visit,
        );
    }
    folds.truncate(mark);
    counts[comp] = 0;
}

/// One full-batch candidate: for each *ready* component (by position in the
/// ready list), how many layers starting at its front to execute in the
/// bubble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// Layer counts per ready component.
    pub counts: Vec<usize>,
}

/// Recursively enumerates the full-batch filling candidates of Algorithm 2.
///
/// `ready` holds indices into `state.order` for the currently ready
/// components; `bubble_time` is `T_B`; `devices` is the bubble's idle device
/// count `d`. Per the algorithm, component `i` contributes between 0 and
/// `k0` layers where `k0` is the largest prefix of its pending layers whose
/// cumulative time fits the remaining bubble time; the recursion then offers
/// the remainder to component `i+1`.
pub(crate) fn ffc_candidates(
    db: &ProfileDb,
    state: &FrozenState,
    ready: &[usize],
    bubble_time: f64,
    devices: usize,
    setup_cost: f64,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut counts = vec![0usize; ready.len()];
    recurse(
        db,
        state,
        ready,
        bubble_time,
        devices,
        setup_cost,
        0,
        &mut counts,
        &mut out,
    );
    out
}

#[expect(
    clippy::too_many_arguments,
    reason = "each level of the depth-first search threads the frozen state, its budget and the shared output buffers"
)]
fn recurse(
    db: &ProfileDb,
    state: &FrozenState,
    ready: &[usize],
    time_left: f64,
    devices: usize,
    setup_cost: f64,
    comp: usize,
    counts: &mut Vec<usize>,
    out: &mut Vec<Candidate>,
) {
    if comp == ready.len() {
        out.push(Candidate {
            counts: counts.clone(),
        });
        return;
    }
    let idx = ready[comp];
    let pending = state.progress[idx].num_layers - state.progress[idx].next_layer;
    // Lines 2–5: the largest k0 whose cumulative time fits.
    let mut cum = Vec::with_capacity(pending + 1);
    cum.push(0.0);
    let mut t = 0.0;
    for offset in 0..pending {
        let lt = state.layer_time(db, idx, offset, devices) + setup_cost;
        if t + lt > time_left {
            break;
        }
        t += lt;
        cum.push(t);
    }
    let k0 = cum.len() - 1;
    if comp == ready.len() - 1 {
        // Last component: only the maximal k0 candidate is useful
        // (line 6–7 of Algorithm 2).
        counts[comp] = k0;
        out.push(Candidate {
            counts: counts.clone(),
        });
        counts[comp] = 0;
        return;
    }
    // Lines 9–13: try each k from k0 down to 0 and recurse.
    for k in (0..=k0).rev() {
        counts[comp] = k;
        recurse(
            db,
            state,
            ready,
            time_left - cum[k],
            devices,
            setup_cost,
            comp + 1,
            counts,
            out,
        );
    }
    counts[comp] = 0;
}

/// Wall time a candidate occupies in the bubble (sum over its layers at the
/// bubble's device count), including per-item setup cost.
pub(crate) fn candidate_time(
    db: &ProfileDb,
    state: &FrozenState,
    ready: &[usize],
    candidate: &Candidate,
    devices: usize,
    setup_cost: f64,
) -> f64 {
    let mut t = 0.0;
    for (ci, &k) in candidate.counts.iter().enumerate() {
        let idx = ready[ci];
        for offset in 0..k {
            t += state.layer_time(db, idx, offset, devices) + setup_cost;
        }
    }
    t
}

#[cfg(test)]
impl Candidate {
    /// Total layers placed.
    pub(crate) fn total_layers(&self) -> usize {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn setup(batch: u32) -> (ProfileDb, FrozenState) {
        let model = zoo::stable_diffusion_v2_1();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, batch);
        let state = FrozenState::new(db.model(), batch as f64);
        (db, state)
    }

    #[test]
    fn zero_time_yields_empty_candidate_only() {
        let (db, state) = setup(64);
        let ready = state.ready(db.model());
        let cands = ffc_candidates(&db, &state, &ready, 0.0, 4, 0.0);
        assert!(cands.iter().all(|c| c.total_layers() == 0));
    }

    #[test]
    fn large_bubble_takes_everything() {
        let (db, state) = setup(64);
        let ready = state.ready(db.model());
        let cands = ffc_candidates(&db, &state, &ready, 1e9, 4, 0.0);
        let max = cands.iter().map(Candidate::total_layers).max().unwrap();
        let pending: usize = ready.iter().map(|&i| state.progress[i].num_layers).sum();
        assert_eq!(max, pending);
    }

    #[test]
    fn candidates_fit_bubble_time() {
        let (db, state) = setup(64);
        let ready = state.ready(db.model());
        let tb = 0.050; // 50 ms
        for c in ffc_candidates(&db, &state, &ready, tb, 4, 0.0) {
            let t = candidate_time(&db, &state, &ready, &c, 4, 0.0);
            assert!(t <= tb + 1e-9, "candidate {:?} takes {t}", c.counts);
        }
    }

    #[test]
    fn prefix_structure_respected() {
        // Layers are taken from the front only; a candidate can never skip
        // the extra-long VAE layer and take cheaper later ones.
        let (db, mut state) = setup(64);
        // Complete the text encoder so the VAE (with its 400 ms layer 0) is
        // the front of the ready list.
        let text_pos = state
            .order
            .iter()
            .position(|&c| db.model().component(c).name == "text_encoder")
            .unwrap();
        let n = state.progress[text_pos].num_layers;
        state.advance_full(text_pos, n);
        let ready = state.ready(db.model());
        assert_eq!(ready.len(), 1); // just the VAE
                                    // A 100 ms bubble on 1 device cannot fit VAE layer 0 (~400 ms), so
                                    // no layers can be placed at all.
        let cands = ffc_candidates(&db, &state, &ready, 0.100, 1, 0.0);
        assert!(cands.iter().all(|c| c.total_layers() == 0));
    }

    #[test]
    fn more_devices_fit_more_layers() {
        let (db, state) = setup(64);
        let ready = state.ready(db.model());
        let max_layers = |d: usize| {
            ffc_candidates(&db, &state, &ready, 0.020, d, 0.0)
                .iter()
                .map(Candidate::total_layers)
                .max()
                .unwrap()
        };
        assert!(max_layers(8) >= max_layers(1));
    }

    /// One recursion over a round's prices yields `ffc_candidates`'
    /// candidates in order, each with `candidate_time`'s full-batch time
    /// bit for bit, and prices the same items the candidates commit.
    #[test]
    fn one_recursion_matches_candidates_and_their_times() {
        let models = [
            zoo::stable_diffusion_v2_1(),
            zoo::controlnet_v1_0(),
            zoo::sdxl_base(),
            zoo::cdm_lsun(),
        ];
        let (mut prices, mut counts, mut folds) = (RoundPrices::default(), Vec::new(), Vec::new());
        let mut checked = 0;
        for model in models {
            let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
            let fresh = FrozenState::new(db.model(), 64.0);
            // A split front layer: offset 0 covers only its remaining samples.
            let mut split = fresh.clone();
            split.advance_partial(0, 16.0);
            for state in [fresh, split] {
                let ready = state.ready(db.model());
                for devices in [1, 3, 8] {
                    for tb in [0.0, 0.004, 0.03, 0.2, 1.5, 1e9] {
                        for setup in [0.0, 0.0002, 0.003] {
                            let want: Vec<(Vec<usize>, u64)> =
                                ffc_candidates(&db, &state, &ready, tb, devices, setup)
                                    .into_iter()
                                    .map(|c| {
                                        let t =
                                            candidate_time(&db, &state, &ready, &c, devices, setup);
                                        (c.counts, t.to_bits())
                                    })
                                    .collect();
                            prices.price(&db, &state, &ready, tb, devices, setup);
                            let mut got = Vec::new();
                            for_each_candidate(
                                &prices,
                                tb,
                                &mut counts,
                                &mut folds,
                                &mut |c, t| got.push((c.to_vec(), t.to_bits())),
                            );
                            assert_eq!(got, want, "{} d={devices} tb={tb}", model.name);
                            for (c, _) in &got {
                                for (ci, &k) in c.iter().enumerate() {
                                    for offset in 0..k {
                                        let lt = state.layer_time(&db, ready[ci], offset, devices);
                                        assert_eq!(prices.item(ci, offset), lt + setup);
                                    }
                                }
                            }
                            checked += got.len();
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked} candidates");
    }

    #[test]
    fn setup_cost_reduces_capacity() {
        let (db, state) = setup(64);
        let ready = state.ready(db.model());
        let free = ffc_candidates(&db, &state, &ready, 0.010, 8, 0.0)
            .iter()
            .map(Candidate::total_layers)
            .max()
            .unwrap();
        let costed = ffc_candidates(&db, &state, &ready, 0.010, 8, 0.0005)
            .iter()
            .map(Candidate::total_layers)
            .max()
            .unwrap();
        assert!(costed <= free);
    }
}
