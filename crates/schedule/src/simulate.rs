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
///
/// Each step starts, over all slots, the candidate with the least key
/// `(start, priority, index)`, where a slot's candidate starts at
/// `max(ready, free)`: `ready` folds `max(t, end + delay)` over the op's
/// dependencies from 0.0, and `free` is the slot's last end. A slot offers
/// its head op under [`Policy::StrictOrder`] once that op is ready, and
/// under [`Policy::WorkConserving`] its ready op with the least
/// `(max(ready, free), priority)`. An op's ready time is fixed when its last
/// dependency finishes, so it is computed once, from a reverse-dependency
/// count. A step is O(slots) under strict order and O(slots + ready ops)
/// when work-conserving, so `n` ops with `e` dependencies take
/// O(n·slots + e) and O(n·(slots + ready) + e).
pub(crate) fn simulate(
    ops: Vec<Op>,
    num_slots: usize,
    policy: Policy,
) -> Result<Vec<ScheduledOp>, Deadlock> {
    let n = ops.len();
    // Slot k owns `queue[first[k]..first[k + 1]]`: under strict order all
    // its ops in (priority, index) order, consumed from `head[k]`; when
    // work-conserving its ready ops in that order, in `first[k]..head[k]`.
    let mut first = vec![0usize; num_slots + 1];
    for op in &ops {
        assert!(op.slot < num_slots, "op slot out of range");
        first[op.slot + 1] += 1;
    }
    for k in 0..num_slots {
        first[k + 1] += first[k];
    }
    let mut head = first[..num_slots].to_vec();
    let mut queue = vec![0usize; n];
    // Reverse dependencies: op i's dependents are
    // `dependents[after[i]..after[i + 1]]`, in input order.
    let mut waiting = vec![0usize; n];
    let mut after = vec![0usize; n + 1];
    for (i, op) in ops.iter().enumerate() {
        waiting[i] = op.deps.len();
        for &(dep, _) in &op.deps {
            after[dep.0] += 1;
        }
    }
    for i in 1..=n {
        after[i] += after[i - 1];
    }
    let mut dependents = vec![0usize; after[n]];
    for (i, op) in ops.iter().enumerate().rev() {
        for &(dep, _) in &op.deps {
            after[dep.0] -= 1;
            dependents[after[dep.0]] = i;
        }
    }
    // Per op: (ready, start, end).
    let mut times = vec![(0.0f64, 0.0f64, 0.0f64); n];
    let by_priority = |a: usize, b: usize| (ops[a].priority, a) < (ops[b].priority, b);
    match policy {
        Policy::StrictOrder => {
            for (i, op) in ops.iter().enumerate() {
                queue[head[op.slot]] = i;
                head[op.slot] += 1;
            }
            for k in 0..num_slots {
                queue[first[k]..first[k + 1]].sort_unstable_by_key(|&i| (ops[i].priority, i));
            }
            head.copy_from_slice(&first[..num_slots]);
        }
        Policy::WorkConserving => {
            for i in (0..n).filter(|&i| waiting[i] == 0) {
                let k = ops[i].slot;
                insert_ready(&mut queue, first[k], &mut head[k], i, by_priority);
            }
        }
    }
    let mut device_free = vec![0.0f64; num_slots];
    let mut remaining = n;

    while remaining > 0 {
        // Gather one candidate per slot, as (queue position, op).
        let mut best: Option<(f64, usize, usize)> = None; // (start, priority, op)
        let mut best_at = 0;
        for slot in 0..num_slots {
            let candidate =
                match policy {
                    Policy::StrictOrder => {
                        let c = head[slot];
                        (c < first[slot + 1] && waiting[queue[c]] == 0).then(|| (c, queue[c]))
                    }
                    Policy::WorkConserving => (first[slot]..head[slot])
                        .map(|c| (c, queue[c]))
                        .min_by(|a, b| {
                            let ka = (times[a.1].0.max(device_free[slot]), ops[a.1].priority);
                            let kb = (times[b.1].0.max(device_free[slot]), ops[b.1].priority);
                            ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
                        }),
                };
            if let Some((c, i)) = candidate {
                let s = times[i].0.max(device_free[slot]);
                let key = (s, ops[i].priority, i);
                if best.is_none_or(|(bs, bp, bi)| key < (bs, bp, bi)) {
                    best = Some(key);
                    best_at = c;
                }
            }
        }
        let Some((s, _, i)) = best else {
            return Err(Deadlock { remaining });
        };
        let slot = ops[i].slot;
        let end = s + ops[i].duration;
        times[i].1 = s;
        times[i].2 = end;
        device_free[slot] = end;
        match policy {
            Policy::StrictOrder => head[slot] += 1,
            Policy::WorkConserving => {
                queue.copy_within(best_at + 1..head[slot], best_at);
                head[slot] -= 1;
            }
        }
        for &j in &dependents[after[i]..after[i + 1]] {
            waiting[j] -= 1;
            if waiting[j] == 0 {
                times[j].0 = ops[j]
                    .deps
                    .iter()
                    .fold(0.0, |t: f64, &(dep, delay)| t.max(times[dep.0].2 + delay));
                if policy == Policy::WorkConserving {
                    let k = ops[j].slot;
                    insert_ready(&mut queue, first[k], &mut head[k], j, by_priority);
                }
            }
        }
        remaining -= 1;
    }

    Ok(ops
        .into_iter()
        .zip(times)
        .map(|(op, (_, start, end))| ScheduledOp { op, start, end })
        .collect())
}

/// Inserts op `i` into the sorted run `queue[from..*to]`, keeping the
/// `before` order, and extends the run by one.
fn insert_ready(
    queue: &mut [usize],
    from: usize,
    to: &mut usize,
    i: usize,
    before: impl Fn(usize, usize) -> bool,
) {
    let mut at = *to;
    while at > from && before(i, queue[at - 1]) {
        queue[at] = queue[at - 1];
        at -= 1;
    }
    queue[at] = i;
    *to += 1;
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
    use crate::op::{Deps, OpId, OpKind, PipelineDirection};

    fn op(slot: usize, priority: usize, duration: f64, dep_list: Vec<(OpId, f64)>) -> Op {
        let mut deps = Deps::default();
        for dep in dep_list {
            deps.push(dep);
        }
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
        let s = simulate(ops, 2, Policy::StrictOrder).unwrap();
        assert_eq!(s[0].start, 0.0);
        assert_eq!(s[1].start, 1.5);
        assert_eq!(s[1].end, 2.5);
    }

    #[test]
    fn device_serialises_ops() {
        let ops = vec![op(0, 0, 1.0, vec![]), op(0, 1, 2.0, vec![])];
        let s = simulate(ops, 1, Policy::StrictOrder).unwrap();
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
        let s = simulate(ops, 2, Policy::StrictOrder).unwrap();
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
        let s = simulate(ops, 2, Policy::WorkConserving).unwrap();
        assert_eq!(s[2].start, 0.0, "ready op runs first");
        assert_eq!(s[1].start, 5.0);
    }

    #[test]
    fn cyclic_deps_deadlock() {
        let ops = vec![
            op(0, 0, 1.0, vec![(OpId(1), 0.0)]),
            op(1, 0, 1.0, vec![(OpId(0), 0.0)]),
        ];
        let err = simulate(ops, 2, Policy::StrictOrder).unwrap_err();
        assert_eq!(err.remaining, 2);
    }

    #[test]
    fn deterministic_tiebreak() {
        let ops = vec![op(0, 0, 1.0, vec![]), op(1, 0, 1.0, vec![])];
        let a = simulate(ops.clone(), 2, Policy::StrictOrder).unwrap();
        let b = simulate(ops, 2, Policy::StrictOrder).unwrap();
        assert_eq!(
            a.iter().map(|o| o.start).collect::<Vec<_>>(),
            b.iter().map(|o| o.start).collect::<Vec<_>>()
        );
    }
}
