//! Algorithm 2 — FFC: full-batch layer bubble-filling candidates.

use crate::state::FrozenState;
use dpipe_profile::ProfileDb;

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
