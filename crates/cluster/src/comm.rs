//! α–β communication cost model.

use crate::device::DeviceId;
use crate::topology::ClusterSpec;

/// Bandwidth/latency pair for one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Achievable bandwidth in bytes/second.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

impl LinkParams {
    /// Time to move `bytes` over this link once: `latency + bytes/bandwidth`.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Communication cost model over a [`ClusterSpec`].
///
/// Provides the `R_x` / `L_x` quantities of the paper's Table 4 for
/// point-to-point (`p2p`) transfers between pipeline stages and ring /
/// hierarchical all-reduce (`ar`) for gradient synchronisation.
///
/// Device classes scale the *intra-node* fabric: a machine whose class has
/// `link_scale != 1.0` multiplies the NVSwitch-class bandwidth by that
/// factor for p2p transfers within it and for the intra-node leg of
/// collectives it participates in (the slowest spanned machine governs a
/// collective). Inter-node links are a property of the network fabric, not
/// the GPU generation, and stay class-independent. Homogeneous clusters
/// scale by exactly 1.0, which is bit-identical to the unscaled model.
#[derive(Debug, Clone)]
pub struct CommModel {
    cluster: ClusterSpec,
    /// Cached per-machine intra-link scales (all 1.0 when homogeneous).
    machine_link_scales: Vec<f64>,
}

impl CommModel {
    /// Creates a model for the given cluster.
    pub(crate) fn new(cluster: ClusterSpec) -> Self {
        let machine_link_scales = cluster.machine_link_scales();
        CommModel {
            cluster,
            machine_link_scales,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Intra-node link scale of the machine hosting `d` (1.0 when the
    /// cluster is homogeneous or the rank is out of range).
    fn link_scale_of(&self, d: DeviceId) -> f64 {
        let machine = d.rank() / self.cluster.devices_per_machine.max(1);
        self.machine_link_scales
            .get(machine)
            .copied()
            .unwrap_or(1.0)
    }

    /// The slowest intra-node link scale among the machines spanned by the
    /// given devices (1.0 for an empty set).
    pub fn min_intra_link_scale(&self, devices: impl IntoIterator<Item = DeviceId>) -> f64 {
        let min = devices
            .into_iter()
            .map(|d| self.link_scale_of(d))
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            1.0
        }
    }

    /// Link parameters between two specific devices. Same-machine transfers
    /// run on that machine's (class-scaled) intra-node fabric.
    pub fn p2p_link(&self, a: DeviceId, b: DeviceId) -> LinkParams {
        if self.cluster.same_machine(a, b) {
            LinkParams {
                bandwidth: self.cluster.intra_link.bandwidth * self.link_scale_of(a),
                latency: self.cluster.intra_link.latency,
            }
        } else {
            self.cluster.inter_link
        }
    }

    /// Point-to-point transfer time of `bytes` between two devices.
    pub fn p2p_time(&self, bytes: u64, a: DeviceId, b: DeviceId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.p2p_link(a, b).transfer_time(bytes)
    }

    /// Effective inter-node collective bandwidth for a collective spanning
    /// `nodes` machines: the full EFA bandwidth within a rack pair, divided
    /// by the spine oversubscription beyond that.
    pub(crate) fn inter_collective_bandwidth(&self, nodes: usize) -> f64 {
        if nodes <= 2 {
            self.cluster.inter_link.bandwidth
        } else {
            self.cluster.inter_link.bandwidth / self.cluster.spine_oversubscription
        }
    }

    /// All-reduce time of `bytes` across the given devices, using a
    /// hierarchical (intra-node ring, then inter-node ring) schedule. The
    /// intra-node leg runs at the slowest spanned machine's class-scaled
    /// bandwidth (exactly the reference bandwidth when homogeneous).
    ///
    /// Degenerates to a plain intra-node ring when all devices share a
    /// machine and to zero for groups of one.
    pub fn allreduce_time(&self, bytes: u64, devices: &[DeviceId]) -> f64 {
        let g = devices.len();
        if g <= 1 {
            return 0.0;
        }
        let nodes = self.cluster.machines_spanned(devices.iter().copied());
        let intra_scale = self.min_intra_link_scale(devices.iter().copied());
        self.allreduce_time_shape(bytes, g, nodes, intra_scale)
    }

    /// [`CommModel::allreduce_time`] for a group whose *shape* — device
    /// count, machines spanned and the slowest spanned machine's
    /// intra-node link scale — is already known (the partitioning hot path
    /// caches it). The arithmetic is identical to
    /// [`CommModel::allreduce_time`] by construction.
    pub fn allreduce_time_shape(
        &self,
        bytes: u64,
        group: usize,
        nodes: usize,
        intra_scale: f64,
    ) -> f64 {
        let g = group;
        if g <= 1 {
            return 0.0;
        }
        let bytes_f = bytes as f64;
        // Intra-node ring over the local group.
        let local = g.div_ceil(nodes); // devices per node (ceil)
        let intra = if local > 1 {
            2.0 * (local as f64 - 1.0) / local as f64 * bytes_f
                / (self.cluster.intra_link.bandwidth * intra_scale)
                + 2.0 * (local as f64 - 1.0) * self.cluster.intra_link.latency
        } else {
            0.0
        };
        // Inter-node ring over node leaders.
        let inter = if nodes > 1 {
            let bw = self.inter_collective_bandwidth(nodes);
            2.0 * (nodes as f64 - 1.0) / nodes as f64 * bytes_f / bw
                + 2.0 * (nodes as f64 - 1.0) * self.cluster.inter_link.latency
        } else {
            0.0
        };
        intra + inter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(machines: usize) -> CommModel {
        ClusterSpec::p4de(machines).comm_model()
    }

    #[test]
    fn p2p_zero_for_self() {
        let m = model(1);
        assert_eq!(m.p2p_time(1 << 20, DeviceId(0), DeviceId(0)), 0.0);
    }

    #[test]
    fn p2p_inter_node_slower() {
        let m = model(2);
        let intra = m.p2p_time(1 << 30, DeviceId(0), DeviceId(1));
        let inter = m.p2p_time(1 << 30, DeviceId(0), DeviceId(8));
        assert!(inter > 3.0 * intra);
    }

    #[test]
    fn allreduce_single_device_is_free() {
        let m = model(1);
        assert_eq!(m.allreduce_time(1 << 30, &[DeviceId(0)]), 0.0);
    }

    #[test]
    fn allreduce_grows_with_group_size() {
        let m = model(8);
        let bytes = 3_550_000_000u64; // SD v2.1 gradient volume
        let g8: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let g16: Vec<DeviceId> = (0..16).map(DeviceId).collect();
        let g64: Vec<DeviceId> = (0..64).map(DeviceId).collect();
        let t8 = m.allreduce_time(bytes, &g8);
        let t16 = m.allreduce_time(bytes, &g16);
        let t64 = m.allreduce_time(bytes, &g64);
        assert!(t8 < t16 && t16 < t64);
        // Table 2 calibration: ~45 ms intra-node, ~500 ms at 64 GPUs.
        assert!((0.030..0.070).contains(&t8), "t8={t8}");
        assert!((0.40..0.65).contains(&t64), "t64={t64}");
    }

    #[test]
    fn allreduce_shape_form_is_bit_identical() {
        let m = model(4);
        for count in [1usize, 2, 8, 12, 24] {
            let devs: Vec<DeviceId> = (0..count).map(DeviceId).collect();
            let nodes = m.cluster().machines_spanned(devs.iter().copied());
            for bytes in [0u64, 1 << 16, 3_550_000_000] {
                assert_eq!(
                    m.allreduce_time(bytes, &devs),
                    m.allreduce_time_shape(bytes, count, nodes, 1.0),
                    "count={count} bytes={bytes}"
                );
            }
        }
    }

    #[test]
    fn spine_oversubscription_kicks_in_past_two_nodes() {
        let m = model(8);
        assert_eq!(m.inter_collective_bandwidth(2), 24.0e9);
        assert!(m.inter_collective_bandwidth(4) < 15.0e9);
    }

    #[test]
    fn slow_class_machines_slow_collectives_and_p2p() {
        use crate::class::DeviceClass;
        let homo = ClusterSpec::p4de(2).comm_model();
        let mixed =
            ClusterSpec::mixed(&[(DeviceClass::a100(), 1), (DeviceClass::a10g(), 1)]).comm_model();
        let devs: Vec<DeviceId> = (0..16).map(DeviceId).collect();
        let bytes = 1u64 << 30;
        // The a10g machine's PCIe-class fabric throttles the intra leg.
        assert!(mixed.allreduce_time(bytes, &devs) > homo.allreduce_time(bytes, &devs));
        assert_eq!(mixed.min_intra_link_scale(devs[..8].iter().copied()), 1.0);
        assert!(mixed.min_intra_link_scale(devs.iter().copied()) < 1.0);
        // p2p inside the a10g box is slower than inside the a100 box.
        let fast = mixed.p2p_time(bytes, DeviceId(0), DeviceId(1));
        let slow = mixed.p2p_time(bytes, DeviceId(8), DeviceId(9));
        assert!(slow > fast);
        // A fast-fabric class speeds collectives up.
        let h100 = ClusterSpec::mixed(&[(DeviceClass::h100(), 2)]).comm_model();
        let g16: Vec<DeviceId> = (0..16).map(DeviceId).collect();
        assert!(h100.allreduce_time(bytes, &g16) < homo.allreduce_time(bytes, &g16));
    }

    #[test]
    fn transfer_time_is_alpha_beta() {
        let l = LinkParams {
            bandwidth: 1e9,
            latency: 1e-6,
        };
        let t = l.transfer_time(1_000_000_000);
        assert!((t - 1.000001).abs() < 1e-9);
    }
}
