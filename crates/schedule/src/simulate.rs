//! Deterministic list scheduler for pipeline operations.

use crate::op::Op;
use crate::schedule::ScheduledOp;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Each device executes its ops strictly in priority order, waiting if
    /// the head op's dependencies are not met (how a static instruction
    /// stream behaves — used for FIFO-1F1B and GPipe).
    StrictOrder,
    /// Each device runs the lowest-priority *ready* op (work-conserving —
    /// used for bidirectional pipelines where two static orders interleave).
    WorkConserving,
}

/// Simulates `ops` over `num_slots` devices.
///
/// Returns scheduled ops in the input order. Fails if the dependency graph
/// deadlocks under the chosen policy.
pub(crate) fn simulate(
    ops: &[Op],
    num_slots: usize,
    policy: Policy,
) -> Result<Vec<ScheduledOp>, Deadlock> {
    let n = ops.len();
    let mut end: Vec<Option<f64>> = vec![None; n];
    let mut start: Vec<f64> = vec![0.0; n];
    // Per-slot op indices sorted by priority.
    let mut per_slot: Vec<Vec<usize>> = vec![Vec::new(); num_slots];
    for (i, op) in ops.iter().enumerate() {
        assert!(op.slot < num_slots, "op slot out of range");
        per_slot[op.slot].push(i);
    }
    for list in &mut per_slot {
        list.sort_by_key(|&i| ops[i].priority);
    }
    let mut cursor = vec![0usize; num_slots]; // strict-order head pointer
    let mut done = vec![false; n];
    let mut device_free = vec![0.0f64; num_slots];
    let mut remaining = n;

    let ready_time = |i: usize, end: &[Option<f64>]| -> Option<f64> {
        let mut t: f64 = 0.0;
        for &(dep, delay) in &ops[i].deps {
            match end[dep.0] {
                Some(e) => t = t.max(e + delay),
                None => return None,
            }
        }
        Some(t)
    };

    while remaining > 0 {
        // Gather one candidate per slot.
        let mut best: Option<(f64, usize, usize)> = None; // (start, priority, op)
        for slot in 0..num_slots {
            let candidate = match policy {
                Policy::StrictOrder => {
                    let c = cursor[slot];
                    if c >= per_slot[slot].len() {
                        continue;
                    }
                    let i = per_slot[slot][c];
                    ready_time(i, &end).map(|rt| (i, rt))
                }
                Policy::WorkConserving => per_slot[slot]
                    .iter()
                    .filter(|&&i| !done[i])
                    .filter_map(|&i| ready_time(i, &end).map(|rt| (i, rt)))
                    .min_by(|a, b| {
                        let ka = (a.1.max(device_free[ops[a.0].slot]), ops[a.0].priority);
                        let kb = (b.1.max(device_free[ops[b.0].slot]), ops[b.0].priority);
                        ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
                    }),
            };
            if let Some((i, rt)) = candidate {
                let s = rt.max(device_free[slot]);
                let key = (s, ops[i].priority, i);
                if best.is_none_or(|(bs, bp, bi)| key < (bs, bp, bi)) {
                    best = Some(key);
                }
            }
        }
        let Some((s, _, i)) = best else {
            return Err(Deadlock { remaining });
        };
        let slot = ops[i].slot;
        start[i] = s;
        end[i] = Some(s + ops[i].duration);
        device_free[slot] = s + ops[i].duration;
        done[i] = true;
        if policy == Policy::StrictOrder {
            cursor[slot] += 1;
        }
        remaining -= 1;
    }

    Ok(ops
        .iter()
        .enumerate()
        .map(|(i, op)| ScheduledOp {
            op: op.clone(),
            start: start[i],
            #[expect(clippy::expect_used, reason = "the loop above only returns Ok once every op has an end time; stalls exit via NoProgress")]
            end: end[i].expect("all ops scheduled"),
        })
        .collect())
}

/// The scheduler made no progress: some ops' dependencies can never be met
/// under the chosen policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deadlock {
    /// Number of unscheduled ops at the point of deadlock.
    pub remaining: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpId, OpKind, PipelineDirection};

    fn op(slot: usize, priority: usize, duration: f64, deps: Vec<(OpId, f64)>) -> Op {
        Op {
            slot,
            stage: slot,
            direction: PipelineDirection::Down,
            micro_batch: 0,
            kind: OpKind::Forward,
            duration,
            deps,
            priority,
        }
    }

    #[test]
    fn chain_executes_sequentially() {
        let ops = vec![op(0, 0, 1.0, vec![]), op(1, 0, 1.0, vec![(OpId(0), 0.5)])];
        let s = simulate(&ops, 2, Policy::StrictOrder).unwrap();
        assert_eq!(s[0].start, 0.0);
        assert_eq!(s[1].start, 1.5);
        assert_eq!(s[1].end, 2.5);
    }

    #[test]
    fn device_serialises_ops() {
        let ops = vec![op(0, 0, 1.0, vec![]), op(0, 1, 2.0, vec![])];
        let s = simulate(&ops, 1, Policy::StrictOrder).unwrap();
        assert_eq!(s[1].start, 1.0);
    }

    #[test]
    fn strict_order_head_blocks() {
        // Head op waits on a dep; a later ready op must NOT run first.
        let ops = vec![
            op(0, 0, 5.0, vec![]),               // other device
            op(1, 0, 1.0, vec![(OpId(0), 0.0)]), // head, blocked until t=5
            op(1, 1, 1.0, vec![]),               // ready immediately but behind head
        ];
        let s = simulate(&ops, 2, Policy::StrictOrder).unwrap();
        assert_eq!(s[1].start, 5.0);
        assert_eq!(s[2].start, 6.0);
    }

    #[test]
    fn work_conserving_reorders() {
        let ops = vec![
            op(0, 0, 5.0, vec![]),
            op(1, 0, 1.0, vec![(OpId(0), 0.0)]),
            op(1, 1, 1.0, vec![]),
        ];
        let s = simulate(&ops, 2, Policy::WorkConserving).unwrap();
        assert_eq!(s[2].start, 0.0, "ready op runs first");
        assert_eq!(s[1].start, 5.0);
    }

    #[test]
    fn cyclic_deps_deadlock() {
        let ops = vec![
            op(0, 0, 1.0, vec![(OpId(1), 0.0)]),
            op(1, 0, 1.0, vec![(OpId(0), 0.0)]),
        ];
        let err = simulate(&ops, 2, Policy::StrictOrder).unwrap_err();
        assert_eq!(err.remaining, 2);
    }

    #[test]
    fn deterministic_tiebreak() {
        let ops = vec![op(0, 0, 1.0, vec![]), op(1, 0, 1.0, vec![])];
        let a = simulate(&ops, 2, Policy::StrictOrder).unwrap();
        let b = simulate(&ops, 2, Policy::StrictOrder).unwrap();
        assert_eq!(
            a.iter().map(|o| o.start).collect::<Vec<_>>(),
            b.iter().map(|o| o.start).collect::<Vec<_>>()
        );
    }
}
