//! Pipeline instruction generation (paper Fig. 7, step 6).

/// Engine configuration for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Raw layers per pipeline stage (must sum to the backbone layer count;
    /// one device per stage per group).
    pub stage_layers: Vec<usize>,
    /// Number of micro-batches `M`.
    pub micro_batches: usize,
    /// Data-parallel pipeline groups.
    pub dp_groups: usize,
    /// SGD learning rate (used when `optimizer` is `None`).
    pub lr: f32,
    /// Optimiser override; `None` means SGD at `lr`.
    pub optimizer: Option<crate::tensor::Optimizer>,
}

impl EngineConfig {
    /// The effective optimiser for this run.
    pub(crate) fn effective_optimizer(&self) -> crate::tensor::Optimizer {
        self.optimizer
            .unwrap_or(crate::tensor::Optimizer::Sgd { lr: self.lr })
    }
}

/// One back-end pipeline instruction. Mirrors the paper's instruction set:
/// load micro-batch data, trainable stage forward/backward, non-trainable
/// stage forward, send/receive, synchronisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineInstr {
    /// Load micro-batch `mb` of the (already encoded) input onto the device.
    LoadMicroBatch {
        /// Micro-batch index.
        mb: usize,
    },
    /// Receive the forward activation of micro-batch `mb` from the previous
    /// stage.
    RecvActivation {
        /// Micro-batch index.
        mb: usize,
    },
    /// Run this stage's forward for micro-batch `mb`.
    StageForward {
        /// Micro-batch index.
        mb: usize,
    },
    /// Send the forward activation of `mb` to the next stage.
    SendActivation {
        /// Micro-batch index.
        mb: usize,
    },
    /// Compute the loss gradient for `mb` (last stage only).
    ComputeLossGrad {
        /// Micro-batch index.
        mb: usize,
    },
    /// Receive the output gradient of `mb` from the next stage.
    RecvGradient {
        /// Micro-batch index.
        mb: usize,
    },
    /// Run this stage's backward for micro-batch `mb`.
    StageBackward {
        /// Micro-batch index.
        mb: usize,
    },
    /// Send the input gradient of `mb` to the previous stage.
    SendGradient {
        /// Micro-batch index.
        mb: usize,
    },
    /// All-reduce this stage's gradients across data-parallel groups
    /// (pipeline flush `F` in the paper's figures).
    AllReduceGrads,
    /// Apply the optimiser step.
    OptimizerStep,
    /// Run the frozen (non-trainable) part forward for the *next*
    /// iteration's batch — cross-iteration bubble filling (§3.2). Only
    /// emitted on stage 0, whose warm-up/cool-down idle time hosts it.
    FrozenForwardNext,
    /// Self-conditioning forward (detached, no gradient caching) for `mb`.
    ScForward {
        /// Micro-batch index.
        mb: usize,
    },
    /// Send the SC pass output of `mb` back to stage 0 (the `Cf` feedback
    /// edge of Fig. 10). Last stage only.
    SendScFeedback {
        /// Micro-batch index.
        mb: usize,
    },
    /// Receive the SC output of `mb` and mix it into the main pass input.
    /// Stage 0 only.
    RecvScFeedback {
        /// Micro-batch index.
        mb: usize,
    },
}

/// Generates the per-stage instruction stream for one training iteration
/// using FIFO-1F1B ordering (warmup forwards, steady 1F1B, cooldown
/// backwards), ending with gradient sync and the optimiser step, plus the
/// cross-iteration frozen prefetch on stage 0.
pub fn generate_program(num_stages: usize, micro_batches: usize) -> Vec<Vec<EngineInstr>> {
    generate_program_sc(num_stages, micro_batches, false)
}

/// [`generate_program`] with optional self-conditioning: every micro-batch
/// first makes a detached forward pass through all stages; the last stage
/// feeds the output back to stage 0 (Fig. 10's `Cf`), which mixes it into
/// the main pass input.
pub(crate) fn generate_program_sc(
    num_stages: usize,
    micro_batches: usize,
    self_cond: bool,
) -> Vec<Vec<EngineInstr>> {
    let mut programs = Vec::with_capacity(num_stages);
    for s in 0..num_stages {
        let mut prog = Vec::new();
        if self_cond {
            // SC phase: pipeline every micro-batch forward (detached), the
            // last stage returning the output to stage 0.
            for mb in 0..micro_batches {
                if s == 0 {
                    prog.push(EngineInstr::LoadMicroBatch { mb });
                } else {
                    prog.push(EngineInstr::RecvActivation { mb });
                }
                prog.push(EngineInstr::ScForward { mb });
                if s < num_stages - 1 {
                    prog.push(EngineInstr::SendActivation { mb });
                } else {
                    prog.push(EngineInstr::SendScFeedback { mb });
                }
            }
            if s == 0 {
                for mb in 0..micro_batches {
                    prog.push(EngineInstr::RecvScFeedback { mb });
                }
            }
        }
        let warmup = micro_batches.min(num_stages - 1 - s);
        let fwd = |prog: &mut Vec<EngineInstr>, mb: usize| {
            if s == 0 {
                prog.push(EngineInstr::LoadMicroBatch { mb });
            } else {
                prog.push(EngineInstr::RecvActivation { mb });
            }
            prog.push(EngineInstr::StageForward { mb });
            if s < num_stages - 1 {
                prog.push(EngineInstr::SendActivation { mb });
            }
        };
        let bwd = |prog: &mut Vec<EngineInstr>, mb: usize| {
            if s == num_stages - 1 {
                prog.push(EngineInstr::ComputeLossGrad { mb });
            } else {
                prog.push(EngineInstr::RecvGradient { mb });
            }
            prog.push(EngineInstr::StageBackward { mb });
            if s > 0 {
                prog.push(EngineInstr::SendGradient { mb });
            }
        };
        for m in 0..warmup {
            fwd(&mut prog, m);
        }
        for k in 0..(micro_batches - warmup) {
            fwd(&mut prog, warmup + k);
            bwd(&mut prog, k);
        }
        for m in (micro_batches - warmup)..micro_batches {
            bwd(&mut prog, m);
        }
        prog.push(EngineInstr::AllReduceGrads);
        prog.push(EngineInstr::OptimizerStep);
        if s == 0 {
            // Cross-iteration: stage 0 prefetches the next iteration's
            // frozen outputs (in wall-clock terms this fills its cooldown
            // bubble; numerically it just runs ahead of time).
            prog.push(EngineInstr::FrozenForwardNext);
        }
        programs.push(prog);
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(prog: &[EngineInstr], pred: impl Fn(&EngineInstr) -> bool) -> usize {
        prog.iter().filter(|i| pred(i)).count()
    }

    #[test]
    fn every_stage_runs_every_micro_batch() {
        let progs = generate_program(4, 6);
        for prog in &progs {
            assert_eq!(
                count(prog, |i| matches!(i, EngineInstr::StageForward { .. })),
                6
            );
            assert_eq!(
                count(prog, |i| matches!(i, EngineInstr::StageBackward { .. })),
                6
            );
        }
    }

    #[test]
    fn sends_match_recvs_between_adjacent_stages() {
        let progs = generate_program(3, 4);
        let sends: Vec<usize> = progs
            .iter()
            .map(|p| count(p, |i| matches!(i, EngineInstr::SendActivation { .. })))
            .collect();
        let recvs: Vec<usize> = progs
            .iter()
            .map(|p| count(p, |i| matches!(i, EngineInstr::RecvActivation { .. })))
            .collect();
        assert_eq!(sends, vec![4, 4, 0]);
        assert_eq!(recvs, vec![0, 4, 4]);
        let gsends: Vec<usize> = progs
            .iter()
            .map(|p| count(p, |i| matches!(i, EngineInstr::SendGradient { .. })))
            .collect();
        assert_eq!(gsends, vec![0, 4, 4]);
    }

    #[test]
    fn warmup_depth_matches_1f1b() {
        let progs = generate_program(4, 8);
        // Stage 0: 3 forwards before its first backward.
        let first_bwd = progs[0]
            .iter()
            .position(|i| matches!(i, EngineInstr::StageBackward { .. }))
            .unwrap();
        let fwds_before = progs[0][..first_bwd]
            .iter()
            .filter(|i| matches!(i, EngineInstr::StageForward { .. }))
            .count();
        assert_eq!(fwds_before, 4); // 3 warmup + 1 steady-state forward
                                    // Last stage alternates from the start.
        let last = progs.last().unwrap();
        let first_bwd_last = last
            .iter()
            .position(|i| matches!(i, EngineInstr::StageBackward { .. }))
            .unwrap();
        let fwds_before_last = last[..first_bwd_last]
            .iter()
            .filter(|i| matches!(i, EngineInstr::StageForward { .. }))
            .count();
        assert_eq!(fwds_before_last, 1);
    }

    #[test]
    fn sync_step_and_prefetch_tail() {
        let progs = generate_program(2, 2);
        for (s, prog) in progs.iter().enumerate() {
            let n = prog.len();
            if s == 0 {
                assert_eq!(prog[n - 3], EngineInstr::AllReduceGrads);
                assert_eq!(prog[n - 2], EngineInstr::OptimizerStep);
                assert_eq!(prog[n - 1], EngineInstr::FrozenForwardNext);
            } else {
                assert_eq!(prog[n - 2], EngineInstr::AllReduceGrads);
                assert_eq!(prog[n - 1], EngineInstr::OptimizerStep);
            }
        }
    }

    #[test]
    fn single_stage_degenerates_to_gradient_accumulation() {
        let progs = generate_program(1, 3);
        assert_eq!(progs.len(), 1);
        let p = &progs[0];
        assert!(p.iter().all(|i| !matches!(
            i,
            EngineInstr::SendActivation { .. } | EngineInstr::RecvActivation { .. }
        )));
        assert_eq!(
            count(p, |i| matches!(i, EngineInstr::ComputeLossGrad { .. })),
            3
        );
    }
}
