//! Property tests for the communication model and layouts.

use dpipe_cluster::{ClusterSpec, DataParallelLayout, DeviceId};
use proptest::prelude::*;

proptest! {
    // Pinned case count for a fast, deterministic CI run.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All-reduce time is monotone in payload size.
    #[test]
    fn allreduce_monotone_in_bytes(
        machines in 1usize..8,
        a in 0u64..(1 << 30),
        b in 0u64..(1 << 30),
    ) {
        let m = ClusterSpec::p4de(machines).comm_model();
        let devices: Vec<DeviceId> = (0..machines * 8).map(DeviceId).collect();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.allreduce_time(lo, &devices) <= m.allreduce_time(hi, &devices) + 1e-15);
    }

    /// All-reduce over more machines is never faster (same payload).
    #[test]
    fn allreduce_monotone_in_nodes(bytes in 1u64..(1 << 30)) {
        let cluster = ClusterSpec::p4de(8);
        let m = cluster.comm_model();
        let mut prev = 0.0;
        for machines in 1..=8usize {
            let devices: Vec<DeviceId> = (0..machines * 8).map(DeviceId).collect();
            let t = m.allreduce_time(bytes, &devices);
            prop_assert!(t + 1e-15 >= prev, "machines {machines}: {t} < {prev}");
            prev = t;
        }
    }

    /// p2p cost is symmetric and zero only for self-transfers.
    #[test]
    fn p2p_symmetric(machines in 1usize..5, x in 0usize..16, y in 0usize..16, bytes in 1u64..(1 << 24)) {
        let world = machines * 8;
        let (x, y) = (x % world, y % world);
        let m = ClusterSpec::p4de(machines).comm_model();
        let t_xy = m.p2p_time(bytes, DeviceId(x), DeviceId(y));
        let t_yx = m.p2p_time(bytes, DeviceId(y), DeviceId(x));
        prop_assert!((t_xy - t_yx).abs() < 1e-15);
        if x == y {
            prop_assert_eq!(t_xy, 0.0);
        } else {
            prop_assert!(t_xy > 0.0);
        }
    }

    /// Every valid layout partitions the world exactly, with contiguous
    /// groups and consistent group lookup.
    #[test]
    fn layouts_partition_the_world(machines in 1usize..5, group_pow in 0u32..7) {
        let cluster = ClusterSpec::p4de(machines);
        let world = cluster.world_size();
        let d = (1usize << group_pow).min(world);
        prop_assume!(world.is_multiple_of(d));
        let layout = DataParallelLayout::new(&cluster, d).unwrap();
        let mut seen = vec![false; world];
        for g in &layout.groups {
            prop_assert_eq!(g.size(), d);
            for (i, dev) in g.devices.iter().enumerate() {
                prop_assert!(!seen[dev.rank()]);
                seen[dev.rank()] = true;
                if i > 0 {
                    prop_assert_eq!(dev.rank(), g.devices[i - 1].rank() + 1);
                }
                prop_assert_eq!(layout.group_of(*dev).unwrap().index, g.index);
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Effective all-reduce rates read off a zero-byte and a 1 GiB
    /// transfer reproduce the raw time: t(bytes) ≈ latency + bytes /
    /// bandwidth, the α-β form of Eqn. (4).
    #[test]
    fn effective_rates_reconstruct_time(machines in 1usize..8, kib in 1u64..(1 << 20)) {
        let bytes = kib * 1024;
        let m = ClusterSpec::p4de(machines).comm_model();
        let devices: Vec<DeviceId> = (0..machines * 8).map(DeviceId).collect();
        let reference: u64 = 1 << 30;
        let latency = m.allreduce_time(0, &devices);
        let bandwidth =
            reference as f64 / (m.allreduce_time(reference, &devices) - latency).max(1e-12);
        let direct = m.allreduce_time(bytes, &devices);
        let reconstructed = latency + bytes as f64 / bandwidth;
        prop_assert!(
            (direct - reconstructed).abs() <= 1e-6 * direct.max(1e-9) + 1e-12,
            "direct {direct} vs reconstructed {reconstructed}"
        );
    }
}
