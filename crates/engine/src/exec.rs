//! Threaded pipeline execution: devices are threads, channels are the
//! interconnect.

use crate::data::SyntheticTask;
use crate::program::{EngineConfig, EngineInstr};
use crate::tensor::{mse_grad_scaled, Matrix, Mlp, OptimizerState};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Configuration inconsistent with the task (bad stage split, zero
    /// micro-batches, batch not divisible by groups, …).
    BadConfig(String),
    /// A device or coordinator thread failed mid-run (disconnected peer,
    /// protocol violation, or a contained panic). The run's partial
    /// results are discarded.
    Worker(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadConfig(msg) => write!(f, "bad engine config: {msg}"),
            EngineError::Worker(msg) => write!(f, "engine worker failed: {msg}"),
        }
    }
}

impl Error for EngineError {}

/// Why one device thread stopped. Mapped into [`EngineError::Worker`]
/// (with the device's group/stage coordinates) when the run is joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceError {
    /// A peer's end of a channel closed mid-iteration: that peer failed
    /// first; this device shuts down cleanly instead of cascading.
    Disconnected(&'static str),
    /// The instruction stream referenced wiring or in-flight state this
    /// device does not hold — a program/wiring construction bug.
    Protocol(&'static str),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Disconnected(what) => write!(f, "{what} channel disconnected"),
            DeviceError::Protocol(what) => write!(f, "protocol violation: expected {what}"),
        }
    }
}

/// Best-effort readable payload from a joined panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Global loss per iteration.
    pub losses: Vec<f32>,
    /// Final backbone parameters (group 0, stages concatenated in order).
    pub final_params: Vec<f32>,
}

/// The multi-threaded pipeline execution engine.
#[derive(Debug, Default)]
pub struct PipelineEngine;

/// Channels wiring one device.
struct Wiring {
    act_in: Option<Receiver<Matrix>>,
    act_out: Option<Sender<Matrix>>,
    grad_in: Option<Receiver<Matrix>>,
    grad_out: Option<Sender<Matrix>>,
    /// Self-conditioning feedback: last stage -> stage 0 (Fig. 10's Cf).
    feedback_in: Option<Receiver<Matrix>>,
    feedback_out: Option<Sender<Matrix>>,
    /// This device's gradients to its stage's all-reduce coordinator,
    /// and the sum back. Each (group, stage) has its own pair, held only
    /// by the device and the coordinator, so a failed device disconnects
    /// the coordinator and through it every surviving group. Always
    /// `Some` by construction; `Option` so a wiring bug surfaces as a
    /// typed protocol error on the device instead of a panic in `train`.
    reduce_tx: Option<Sender<Vec<f32>>>,
    reduced_rx: Option<Receiver<Vec<f32>>>,
    /// Loss reporting (last stage): (iteration, squared-error sum).
    loss_tx: Sender<(usize, f32)>,
}

impl PipelineEngine {
    /// Trains the task for `iterations` steps under the given pipeline/data
    /// parallel configuration, returning losses and final parameters.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] for inconsistent configurations.
    pub fn train(
        task: &SyntheticTask,
        cfg: &EngineConfig,
        iterations: usize,
    ) -> Result<TrainStats, EngineError> {
        let s_count = cfg.stage_layers.len();
        let g_count = cfg.dp_groups;
        if s_count == 0 || cfg.micro_batches == 0 || g_count == 0 {
            return Err(EngineError::BadConfig(
                "zero stages, micro-batches or groups".into(),
            ));
        }
        if !task.batch.is_multiple_of(g_count) {
            return Err(EngineError::BadConfig(format!(
                "batch {} not divisible by {} groups",
                task.batch, g_count
            )));
        }
        let blocks: usize = cfg.stage_layers.iter().sum();
        // Build per-group stage replicas (identical weights).
        let mut stages_per_group: Vec<Vec<Mlp>> = Vec::with_capacity(g_count);
        for _ in 0..g_count {
            let backbone = task.build_backbone(blocks);
            let raw_counts: Vec<usize> = cfg.stage_layers.iter().map(|&b| b * 2).collect();
            stages_per_group.push(backbone.split(&raw_counts));
        }
        let programs =
            crate::program::generate_program_sc(s_count, cfg.micro_batches, task.self_cond);

        // Wiring.
        let mut act_txs: HashMap<(usize, usize), Sender<Matrix>> = HashMap::new();
        let mut act_rxs: HashMap<(usize, usize), Receiver<Matrix>> = HashMap::new();
        let mut grad_txs: HashMap<(usize, usize), Sender<Matrix>> = HashMap::new();
        let mut grad_rxs: HashMap<(usize, usize), Receiver<Matrix>> = HashMap::new();
        let mut fb_txs: HashMap<usize, Sender<Matrix>> = HashMap::new();
        let mut fb_rxs: HashMap<usize, Receiver<Matrix>> = HashMap::new();
        for g in 0..g_count {
            for s in 0..s_count.saturating_sub(1) {
                let (tx, rx) = channel();
                act_txs.insert((g, s), tx);
                act_rxs.insert((g, s + 1), rx);
                let (tx, rx) = channel();
                grad_txs.insert((g, s + 1), tx);
                grad_rxs.insert((g, s), rx);
            }
            if task.self_cond && s_count > 1 {
                let (tx, rx) = channel();
                fb_txs.insert(g, tx);
                fb_rxs.insert(g, rx);
            }
        }
        // All-reduce coordinators, one per stage, with one channel pair
        // per group. The coordinators own their ends outright.
        let mut reduce_txs: HashMap<(usize, usize), Sender<Vec<f32>>> = HashMap::new();
        let mut reduced_rxs: HashMap<(usize, usize), Receiver<Vec<f32>>> = HashMap::new();
        let mut coordinators = Vec::with_capacity(s_count);
        for s in 0..s_count {
            let mut from_groups = Vec::with_capacity(g_count);
            let mut to_groups = Vec::with_capacity(g_count);
            for g in 0..g_count {
                let (tx, rx) = channel();
                reduce_txs.insert((g, s), tx);
                from_groups.push(rx);
                let (tx, rx) = channel();
                to_groups.push(tx);
                reduced_rxs.insert((g, s), rx);
            }
            coordinators.push((from_groups, to_groups));
        }
        let (loss_tx, loss_rx) = channel::<(usize, f32)>();

        let mut result_stages: Vec<Option<Mlp>> = Vec::new();
        let worker_error = std::thread::scope(|scope| {
            // Coordinator threads.
            for (from_groups, to_groups) in coordinators {
                scope.spawn(move || all_reduce(from_groups, to_groups, iterations));
            }

            // Device threads.
            let mut handles = Vec::new();
            for (g, group_stages) in stages_per_group.into_iter().enumerate() {
                for (s, stage) in group_stages.into_iter().enumerate() {
                    let wiring = Wiring {
                        act_in: act_rxs.remove(&(g, s)),
                        act_out: act_txs.remove(&(g, s)),
                        grad_in: grad_rxs.remove(&(g, s)),
                        grad_out: grad_txs.remove(&(g, s)),
                        feedback_in: if s == 0 { fb_rxs.remove(&g) } else { None },
                        feedback_out: if s == s_count - 1 {
                            fb_txs.remove(&g)
                        } else {
                            None
                        },
                        // Every (g, s) pair was inserted by the wiring
                        // loop above; a vacancy is a construction bug the
                        // device reports as a protocol error.
                        reduce_tx: reduce_txs.remove(&(g, s)),
                        reduced_rx: reduced_rxs.remove(&(g, s)),
                        loss_tx: loss_tx.clone(),
                    };
                    let program = programs[s].clone();
                    let frozen = if s == 0 {
                        Some(task.build_frozen())
                    } else {
                        None
                    };
                    let handle = scope.spawn(move || {
                        run_device(
                            task, cfg, g, s, s_count, stage, frozen, &program, wiring, iterations,
                        )
                    });
                    handles.push(((g, s), handle));
                }
            }
            drop(loss_tx);

            // Collect stages back (group 0 in stage order).
            let (mut collected, error) =
                fold_joins(handles.into_iter().map(|(at, h)| (at, h.join())));
            result_stages = (0..s_count).map(|s| collected.remove(&(0, s))).collect();
            error
        });
        if let Some(err) = worker_error {
            return Err(err);
        }

        // Aggregate losses.
        let elems = (task.batch * task.dim) as f32;
        let mut loss_acc = vec![0.0f32; iterations];
        for (iter, sq) in loss_rx.try_iter() {
            loss_acc[iter] += sq;
        }
        let losses = loss_acc.into_iter().map(|s| s / elems).collect();
        let mut final_params = Vec::new();
        for (s, stage) in result_stages.into_iter().enumerate() {
            match stage {
                Some(stage) => final_params.extend(stage.params()),
                None => {
                    return Err(EngineError::Worker(format!(
                        "stage {s} of group 0 returned no result"
                    )))
                }
            }
        }
        Ok(TrainStats {
            losses,
            final_params,
        })
    }
}

/// What joining a device thread returns.
type DeviceJoin = std::thread::Result<Result<Mlp, DeviceError>>;

/// Folds the device threads' join results, in join order, into the stages
/// that returned and the error `train` reports. A device's own error or a
/// panic is a root cause. A `Disconnected` error is usually a surviving
/// device noticing that a peer failed, so it is reported only when no
/// device failed for another reason.
fn fold_joins(
    joins: impl IntoIterator<Item = ((usize, usize), DeviceJoin)>,
) -> (HashMap<(usize, usize), Mlp>, Option<EngineError>) {
    let mut collected = HashMap::new();
    let mut cascade: Option<EngineError> = None;
    let mut cause: Option<EngineError> = None;
    for ((g, s), joined) in joins {
        let (first, message) = match joined {
            Ok(Ok(stage)) => {
                collected.insert((g, s), stage);
                continue;
            }
            Ok(Err(e @ DeviceError::Disconnected(_))) => (&mut cascade, format!(": {e}")),
            Ok(Err(e)) => (&mut cause, format!(": {e}")),
            Err(payload) => (
                &mut cause,
                format!(" panicked: {}", panic_message(payload.as_ref())),
            ),
        };
        first.get_or_insert_with(|| {
            EngineError::Worker(format!("device (group {g}, stage {s}){message}"))
        });
    }
    (collected, cause.or(cascade))
}

/// One stage's all-reduce: each iteration, receive every group's
/// gradients in group order, sum them, and send the sum back to every
/// group. Returns after `iterations` rounds, or as soon as a group's
/// channel closes (that device failed). Returning drops `to_groups`, so
/// the surviving groups see a disconnect instead of waiting for ever.
fn all_reduce(
    from_groups: Vec<Receiver<Vec<f32>>>,
    to_groups: Vec<Sender<Vec<f32>>>,
    iterations: usize,
) {
    for _ in 0..iterations {
        let mut sum: Option<Vec<f32>> = None;
        for rx in &from_groups {
            let Ok(grads) = rx.recv() else { return };
            sum = Some(match sum {
                None => grads,
                Some(mut acc) => {
                    for (a, g) in acc.iter_mut().zip(&grads) {
                        *a += g;
                    }
                    acc
                }
            });
        }
        let Some(sum) = sum else { return };
        for tx in &to_groups {
            // Best-effort fan-out: keep serving surviving groups even if
            // one receiver is gone.
            let _ = tx.send(sum.clone());
        }
    }
}

/// One simulated device: interprets its instruction stream for every
/// iteration, then returns its stage (with final weights). Any missing
/// wiring/state or disconnected peer stops the device with a typed
/// error instead of a panic, so one failure can't cascade.
#[expect(
    clippy::too_many_arguments,
    reason = "a device thread takes its whole setup by value: task, config, coordinates, stage, program and wiring"
)]
fn run_device(
    task: &SyntheticTask,
    cfg: &EngineConfig,
    group: usize,
    stage_idx: usize,
    num_stages: usize,
    mut stage: Mlp,
    frozen: Option<Mlp>,
    program: &[EngineInstr],
    wiring: Wiring,
    iterations: usize,
) -> Result<Mlp, DeviceError> {
    let shard_rows = task.batch / cfg.dp_groups;
    let global_elems = task.batch * task.dim;
    let mut optimizer = OptimizerState::new(cfg.effective_optimizer(), stage.params().len());
    let shard = |m: &Matrix| {
        let rows: Vec<f32> =
            m.data()[group * shard_rows * m.cols()..(group + 1) * shard_rows * m.cols()].to_vec();
        Matrix::from_vec(shard_rows, m.cols(), rows)
    };

    // Cross-iteration state: encoded inputs for the *current* iteration.
    let mut enc_next: Option<Matrix> = None;

    for iter in 0..iterations {
        stage.zero_grads();
        // Stage 0 prepares its micro-batch inputs from the frozen encoder
        // (prefetched last iteration, or computed now on iteration 0).
        let mut micro_inputs: Vec<Matrix> = Vec::new();
        if stage_idx == 0 {
            let frozen_net = frozen
                .as_ref()
                .ok_or(DeviceError::Protocol("stage 0 holds the frozen part"))?;
            let encoded = enc_next
                .take()
                .unwrap_or_else(|| frozen_net.forward_inference(&shard(&task.batch_for(iter).0)));
            micro_inputs = encoded.split_rows(cfg.micro_batches);
        }
        // Last stage prepares targets.
        let mut micro_targets: Vec<Matrix> = Vec::new();
        if stage_idx == num_stages - 1 {
            let (_, y) = task.batch_for(iter);
            micro_targets = shard(&y).split_rows(cfg.micro_batches);
        }

        // Per-micro-batch in-flight state.
        let mut inputs: HashMap<usize, Matrix> = HashMap::new(); // stage inputs
        let mut caches: HashMap<usize, Vec<Matrix>> = HashMap::new();
        let mut outputs: HashMap<usize, Matrix> = HashMap::new();
        let mut grads_out: HashMap<usize, Matrix> = HashMap::new(); // dL/d(stage output)
        let mut grads_in: HashMap<usize, Matrix> = HashMap::new(); // dL/d(stage input)
                                                                   // Self-conditioning outputs received back on stage 0.
        let mut sc_feedback: HashMap<usize, Matrix> = HashMap::new();

        for instr in program {
            match instr {
                EngineInstr::LoadMicroBatch { mb } => {
                    let enc = &micro_inputs[*mb];
                    // In the main phase (after RecvScFeedback) the pass is
                    // conditioned on the detached SC output.
                    let x = match sc_feedback.get(mb) {
                        Some(sc) => enc + &sc.scale(SyntheticTask::SC_MIX),
                        None => enc.clone(),
                    };
                    inputs.insert(*mb, x);
                }
                EngineInstr::RecvActivation { mb } => {
                    let m = wiring
                        .act_in
                        .as_ref()
                        .ok_or(DeviceError::Protocol("non-first stage has act_in"))?
                        .recv()
                        .map_err(|_| DeviceError::Disconnected("activation"))?;
                    inputs.insert(*mb, m);
                }
                EngineInstr::StageForward { mb } => {
                    let x = inputs
                        .get(mb)
                        .ok_or(DeviceError::Protocol("input present before forward"))?;
                    let (y, cache) = stage.forward_cached(x);
                    caches.insert(*mb, cache);
                    outputs.insert(*mb, y);
                }
                EngineInstr::SendActivation { mb } => {
                    let y = outputs
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("output present before send"))?;
                    wiring
                        .act_out
                        .as_ref()
                        .ok_or(DeviceError::Protocol("non-last stage has act_out"))?
                        .send(y)
                        .map_err(|_| DeviceError::Disconnected("activation"))?;
                }
                EngineInstr::ComputeLossGrad { mb } => {
                    let pred = outputs
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("prediction present"))?;
                    let target = &micro_targets[*mb];
                    let sq: f32 = pred
                        .data()
                        .iter()
                        .zip(target.data())
                        .map(|(p, t)| (p - t) * (p - t))
                        .sum();
                    wiring
                        .loss_tx
                        .send((iter, sq))
                        .map_err(|_| DeviceError::Disconnected("loss"))?;
                    grads_out.insert(*mb, mse_grad_scaled(&pred, target, global_elems));
                }
                EngineInstr::RecvGradient { mb } => {
                    let m = wiring
                        .grad_in
                        .as_ref()
                        .ok_or(DeviceError::Protocol("non-last stage has grad_in"))?
                        .recv()
                        .map_err(|_| DeviceError::Disconnected("gradient"))?;
                    grads_out.insert(*mb, m);
                }
                EngineInstr::StageBackward { mb } => {
                    let cache = caches
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("cache present before backward"))?;
                    let g = grads_out
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("output grad present"))?;
                    let gin = stage.backward_cached(&cache, &g);
                    grads_in.insert(*mb, gin);
                    inputs.remove(mb);
                }
                EngineInstr::SendGradient { mb } => {
                    let g = grads_in
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("input grad present"))?;
                    wiring
                        .grad_out
                        .as_ref()
                        .ok_or(DeviceError::Protocol("non-first stage has grad_out"))?
                        .send(g)
                        .map_err(|_| DeviceError::Disconnected("gradient"))?;
                }
                EngineInstr::AllReduceGrads => {
                    wiring
                        .reduce_tx
                        .as_ref()
                        .ok_or(DeviceError::Protocol("reduce channel wired"))?
                        .send(stage.grads())
                        .map_err(|_| DeviceError::Disconnected("reduce"))?;
                    let summed = wiring
                        .reduced_rx
                        .as_ref()
                        .ok_or(DeviceError::Protocol("reduced channel wired"))?
                        .recv()
                        .map_err(|_| DeviceError::Disconnected("reduced"))?;
                    stage.set_grads(&summed);
                }
                EngineInstr::OptimizerStep => {
                    optimizer.step(&mut stage);
                }
                EngineInstr::FrozenForwardNext => {
                    let frozen_net = frozen
                        .as_ref()
                        .ok_or(DeviceError::Protocol("stage 0 holds the frozen part"))?;
                    let (x_next, _) = task.batch_for(iter + 1);
                    enc_next = Some(frozen_net.forward_inference(&shard(&x_next)));
                }
                EngineInstr::ScForward { mb } => {
                    // Detached forward: no cache, no gradients.
                    let x = inputs
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("input present before sc forward"))?;
                    outputs.insert(*mb, stage.forward_inference(&x));
                }
                EngineInstr::SendScFeedback { mb } => {
                    let y = outputs
                        .remove(mb)
                        .ok_or(DeviceError::Protocol("sc output present"))?;
                    match &wiring.feedback_out {
                        Some(tx) => tx
                            .send(y)
                            .map_err(|_| DeviceError::Disconnected("feedback"))?,
                        // Single-stage pipelines keep the feedback local.
                        None => {
                            sc_feedback.insert(*mb, y);
                        }
                    }
                }
                EngineInstr::RecvScFeedback { mb } => {
                    if let Some(rx) = &wiring.feedback_in {
                        let fb = rx
                            .recv()
                            .map_err(|_| DeviceError::Disconnected("feedback"))?;
                        sc_feedback.insert(*mb, fb);
                    }
                    // else: single stage, already stored by SendScFeedback.
                }
            }
        }
    }
    Ok(stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceTrainer;

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn pipeline_matches_reference_two_stages() {
        let task = SyntheticTask::new(2, 8, 16, 42);
        let cfg = EngineConfig {
            stage_layers: vec![2, 2],
            micro_batches: 4,
            dp_groups: 1,
            lr: 0.05,
            optimizer: None,
        };
        let stats = PipelineEngine::train(&task, &cfg, 5).unwrap();
        let mut reference = ReferenceTrainer::new(&task, 4, 4, 0.05);
        let ref_losses = reference.train(&task, 5);
        for (a, b) in stats.losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-4, "loss {a} vs {b}");
        }
        let diff = max_diff(&stats.final_params, &reference.params());
        assert!(diff < 1e-4, "params diverged by {diff}");
    }

    #[test]
    fn pipeline_matches_reference_four_stages() {
        let task = SyntheticTask::new(1, 6, 8, 7);
        let cfg = EngineConfig {
            stage_layers: vec![1, 1, 1, 1],
            micro_batches: 2,
            dp_groups: 1,
            lr: 0.02,
            optimizer: None,
        };
        let stats = PipelineEngine::train(&task, &cfg, 4).unwrap();
        let mut reference = ReferenceTrainer::new(&task, 4, 2, 0.02);
        reference.train(&task, 4);
        let diff = max_diff(&stats.final_params, &reference.params());
        assert!(diff < 1e-4, "params diverged by {diff}");
    }

    #[test]
    fn data_parallel_groups_match_reference() {
        let task = SyntheticTask::new(1, 6, 16, 9);
        let cfg = EngineConfig {
            stage_layers: vec![1, 1],
            micro_batches: 2,
            dp_groups: 2,
            lr: 0.02,
            optimizer: None,
        };
        let stats = PipelineEngine::train(&task, &cfg, 4).unwrap();
        // Reference: full batch with 4 micro-batches (2 groups x 2 micros =
        // same partition of the batch).
        let mut reference = ReferenceTrainer::new(&task, 2, 4, 0.02);
        let ref_losses = reference.train(&task, 4);
        for (a, b) in stats.losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-3, "loss {a} vs {b}");
        }
        let diff = max_diff(&stats.final_params, &reference.params());
        assert!(diff < 1e-3, "params diverged by {diff}");
    }

    #[test]
    fn cross_iteration_prefetch_changes_nothing() {
        // The frozen encoder is deterministic, so prefetching its outputs
        // one iteration early must be invisible in the training trajectory;
        // this is the paper's §3.2 equivalence argument. Compare two runs:
        // stages=1 (prefetch exercised trivially) and the reference.
        let task = SyntheticTask::new(3, 8, 8, 5);
        let cfg = EngineConfig {
            stage_layers: vec![2],
            micro_batches: 2,
            dp_groups: 1,
            lr: 0.03,
            optimizer: None,
        };
        let stats = PipelineEngine::train(&task, &cfg, 6).unwrap();
        let mut reference = ReferenceTrainer::new(&task, 2, 2, 0.03);
        let ref_losses = reference.train(&task, 6);
        for (a, b) in stats.losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn losses_decrease_over_training() {
        let task = SyntheticTask::new(1, 8, 16, 3);
        let cfg = EngineConfig {
            stage_layers: vec![1, 1],
            micro_batches: 4,
            dp_groups: 1,
            lr: 1.0,
            optimizer: None,
        };
        let stats = PipelineEngine::train(&task, &cfg, 200).unwrap();
        let head: f32 = stats.losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = stats.losses[stats.losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < 0.5 * head, "head {head} tail {tail}");
    }

    #[test]
    fn self_conditioning_pipeline_matches_reference() {
        // The SC pass flows down the pipeline, its output feeds back to
        // stage 0, and the conditioned main pass must reproduce the
        // single-device double-forward exactly (Fig. 10 semantics).
        let task = SyntheticTask::new(1, 8, 16, 13).with_self_conditioning();
        let cfg = EngineConfig {
            stage_layers: vec![1, 1],
            micro_batches: 4,
            dp_groups: 1,
            lr: 0.05,
            optimizer: None,
        };
        let stats = PipelineEngine::train(&task, &cfg, 5).unwrap();
        let mut reference = ReferenceTrainer::new(&task, 2, 4, 0.05);
        let ref_losses = reference.train(&task, 5);
        for (a, b) in stats.losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-4, "loss {a} vs {b}");
        }
        let diff = max_diff(&stats.final_params, &reference.params());
        assert!(diff < 1e-4, "params diverged by {diff}");
    }

    #[test]
    fn self_conditioning_changes_the_trajectory() {
        // Sanity: SC is not a no-op.
        let plain = SyntheticTask::new(1, 8, 16, 13);
        let sc = SyntheticTask::new(1, 8, 16, 13).with_self_conditioning();
        let cfg = EngineConfig {
            stage_layers: vec![2],
            micro_batches: 2,
            dp_groups: 1,
            lr: 0.05,
            optimizer: None,
        };
        let a = PipelineEngine::train(&plain, &cfg, 3).unwrap();
        let b = PipelineEngine::train(&sc, &cfg, 3).unwrap();
        assert_ne!(a.final_params, b.final_params);
    }

    #[test]
    fn adam_pipeline_matches_adam_reference() {
        use crate::tensor::Optimizer;
        let task = SyntheticTask::new(1, 8, 16, 21);
        let cfg = EngineConfig {
            stage_layers: vec![2, 2],
            micro_batches: 4,
            dp_groups: 1,
            lr: 0.0,
            optimizer: Some(Optimizer::adam(0.01)),
        };
        let stats = PipelineEngine::train(&task, &cfg, 5).unwrap();
        let mut reference = ReferenceTrainer::with_optimizer(&task, 4, 4, Optimizer::adam(0.01));
        let ref_losses = reference.train(&task, 5);
        for (a, b) in stats.losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-4, "loss {a} vs {b}");
        }
        let diff = max_diff(&stats.final_params, &reference.params());
        assert!(diff < 1e-3, "params diverged by {diff}");
    }

    #[test]
    fn bad_configs_rejected() {
        let task = SyntheticTask::new(1, 4, 9, 1);
        let cfg = EngineConfig {
            stage_layers: vec![1],
            micro_batches: 1,
            dp_groups: 2, // 9 % 2 != 0
            lr: 0.1,
            optimizer: None,
        };
        assert!(matches!(
            PipelineEngine::train(&task, &cfg, 1),
            Err(EngineError::BadConfig(_))
        ));
        let cfg2 = EngineConfig {
            stage_layers: vec![],
            micro_batches: 1,
            dp_groups: 1,
            lr: 0.1,
            optimizer: None,
        };
        assert!(PipelineEngine::train(&task, &cfg2, 1).is_err());
    }

    /// A group whose device died before sending must end its stage's
    /// all-reduce, and the surviving group must see a disconnect rather
    /// than wait for a sum that never comes.
    #[test]
    fn all_reduce_returns_when_a_group_fails() {
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel::<Vec<f32>>();
        let (back0, reply0) = channel::<Vec<f32>>();
        let (back1, _reply1) = channel::<Vec<f32>>();
        tx0.send(vec![1.0, 2.0]).unwrap();
        drop(tx1);
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            all_reduce(vec![rx0, rx1], vec![back0, back1], 3);
            done_tx.send(()).ok();
        });
        let waited = done_rx.recv_timeout(std::time::Duration::from_secs(30));
        assert!(waited.is_ok(), "all-reduce kept waiting on a failed group");
        assert!(
            reply0.recv().is_err(),
            "surviving group must see a disconnect"
        );
        drop(tx0);
    }

    /// `train` names the device that failed, not a survivor whose channel
    /// closed because of it.
    #[test]
    fn fold_joins_prefers_the_root_cause_over_a_disconnect() {
        let joins = vec![
            ((0, 0), Ok(Err(DeviceError::Disconnected("reduced")))),
            ((1, 0), Ok(Err(DeviceError::Protocol("seeded failure")))),
        ];
        let (collected, error) = fold_joins(joins);
        assert!(collected.is_empty());
        let Some(EngineError::Worker(msg)) = error else {
            panic!("expected a worker error, got {error:?}");
        };
        assert!(
            msg.contains("group 1, stage 0") && msg.contains("seeded failure"),
            "{msg}"
        );
        // A disconnect alone is still reported.
        let (_, error) = fold_joins(vec![((0, 1), Ok(Err(DeviceError::Disconnected("act"))))]);
        assert_eq!(
            error,
            Some(EngineError::Worker(
                "device (group 0, stage 1): act channel disconnected".into()
            ))
        );
    }
}
