//! ASCII rendering of pipeline timelines (the Fig. 2/3/10-style charts).

use crate::op::{OpKind, PipelineDirection};
use crate::schedule::PipelineSchedule;

/// Renders the schedule as one text row per chain slot, with forward cells
/// as the micro-batch digit, self-conditioning forwards as `s`, backwards
/// as letters (`a` = micro-batch 0), and idle time as `.`.
///
/// `width` is the number of character columns the iteration is scaled to.
pub fn render_timeline(schedule: &PipelineSchedule, width: usize) -> String {
    let end = schedule.iteration_time();
    if end <= 0.0 || width == 0 {
        return String::new();
    }
    let col = |t: f64| ((t / end) * width as f64).floor() as usize;
    let mut rows: Vec<Vec<char>> = vec![vec!['.'; width + 1]; schedule.num_slots];
    for op in &schedule.ops {
        let (c0, c1) = (col(op.start), col(op.end).max(col(op.start) + 1));
        let ch = match (op.op.kind, op.op.direction) {
            (OpKind::Forward, PipelineDirection::Down) => {
                char::from_digit((op.op.micro_batch % 10) as u32, 10).unwrap_or('?')
            }
            (OpKind::Forward, PipelineDirection::Up) => {
                // Up-pipeline forwards render as digits too but offset by
                // the micro-batch count is unknown here; use the same digit
                // with a marker row prefix instead.
                char::from_digit((op.op.micro_batch % 10) as u32, 10).unwrap_or('?')
            }
            (OpKind::SelfCondForward, _) => 's',
            (OpKind::Backward, _) => (b'a' + (op.op.micro_batch % 26) as u8) as char,
        };
        for cell in rows[op.op.slot].iter_mut().take(c1.min(width + 1)).skip(c0) {
            *cell = ch;
        }
    }
    // Mark sync spans with '=' where idle.
    for sync in &schedule.syncs {
        let (c0, c1) = (col(sync.start), col(sync.start + sync.duration));
        for cell in rows[sync.slot].iter_mut().take(c1.min(width + 1)).skip(c0) {
            if *cell == '.' {
                *cell = '=';
            }
        }
    }
    let mut out = String::new();
    for (slot, row) in rows.iter().enumerate() {
        out.push_str(&format!("slot {slot:>2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "         ({width} cols = {:.1} ms; digits=fwd, letters=bwd, s=self-cond, ==sync, .=idle)\n",
        end * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ScheduleBuilder, ScheduleKind};
    use dpipe_cluster::{ClusterSpec, DataParallelLayout};
    use dpipe_model::zoo;
    use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
    use dpipe_profile::{DeviceModel, Profiler};

    fn render(stages: usize, micro: usize) -> String {
        let model = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let cluster = ClusterSpec::single_node(stages);
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 32);
        let cost = CostModel::new(vec![db], &cluster);
        let layout = DataParallelLayout::new(&cluster, stages).unwrap();
        let bb = model.backbones().next().unwrap().0;
        let part = Partitioner::new(&cost, &layout);
        let plan = part
            .partition_single(bb, &PartitionConfig::new(stages, micro, 32.0))
            .unwrap();
        let sched = ScheduleBuilder::new(part.cost())
            .build_single(&plan, ScheduleKind::Fifo1F1B)
            .unwrap();
        render_timeline(&sched, 60)
    }

    #[test]
    fn renders_one_row_per_slot() {
        let s = render(4, 4);
        assert_eq!(s.lines().filter(|l| l.starts_with("slot")).count(), 4);
    }

    #[test]
    fn contains_forward_and_backward_glyphs() {
        let s = render(2, 2);
        assert!(s.contains('0') && s.contains('1'));
        assert!(s.contains('a') && s.contains('b'));
    }

    #[test]
    fn staircase_shape_visible() {
        // Later slots start idle (warm-up bubbles): row for the last slot
        // begins with dots.
        let s = render(4, 4);
        let last = s.lines().nth(3).unwrap();
        let after_bar = last.split('|').nth(1).unwrap();
        assert!(after_bar.starts_with('.'), "{last}");
    }

    #[test]
    fn empty_schedule_renders_empty() {
        let sched = PipelineSchedule {
            ops: vec![],
            syncs: vec![],
            num_slots: 0,
            slot_replication: vec![],
            micro_batch: 0.0,
            group_batch: 0.0,
        };
        assert!(render_timeline(&sched, 40).is_empty());
    }
}
