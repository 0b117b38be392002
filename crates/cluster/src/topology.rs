//! Cluster shape and hardware parameters.

use crate::class::{ClassMap, DeviceClass};
use crate::comm::{CommModel, LinkParams};
use crate::device::{DeviceId, MachineId};
use dpipe_stablehash::StableHasher;

/// Description of a GPU cluster — homogeneous by default, optionally with a
/// per-machine [`DeviceClass`] for mixed-generation fleets.
///
/// Calibrated defaults model the paper's testbed: AWS p4de.24xlarge machines
/// with 8× A100-80GB, 600 GB/s NVSwitch intra-node and 400 Gb/s EFA
/// inter-node. Effective (achievable) bandwidths are lower than the marketing
/// peaks; the defaults are fit so the DDP synchronisation shares of Table 2
/// (≈5% at 8 GPUs growing to ≈40% at 64 GPUs) are reproduced.
///
/// When [`machine_classes`](ClusterSpec::machine_classes) is empty (every
/// constructor's default) all machines are the implicit reference class —
/// compute scale 1.0, memory [`device_memory_bytes`](ClusterSpec::device_memory_bytes),
/// link scale 1.0 — and every cost query is bit-identical to the original
/// homogeneous model. A non-empty vector assigns one class per machine; see
/// [`ClusterSpec::mixed`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of machines (nodes).
    pub machines: usize,
    /// Devices (GPUs) per machine.
    pub devices_per_machine: usize,
    /// Intra-node link (NVSwitch-class) of the reference device class.
    pub intra_link: LinkParams,
    /// Inter-node link (EFA-class), full bandwidth within a rack pair.
    pub inter_link: LinkParams,
    /// Bandwidth divisor applied to inter-node collectives spanning more
    /// than two machines (spine oversubscription).
    pub spine_oversubscription: f64,
    /// Device memory in bytes (A100-80GB default) of the reference class.
    pub device_memory_bytes: u64,
    /// Optional per-machine device class. Empty = homogeneous reference
    /// class on every machine (the byte-identical legacy behaviour).
    pub machine_classes: Vec<DeviceClass>,
}

impl ClusterSpec {
    /// A p4de.24xlarge-like cluster with `machines` nodes of 8 GPUs.
    pub fn p4de(machines: usize) -> Self {
        ClusterSpec {
            machines,
            devices_per_machine: 8,
            intra_link: LinkParams {
                bandwidth: 140.0e9, // effective NVSwitch collective bandwidth
                latency: 8.0e-6,
            },
            inter_link: LinkParams {
                bandwidth: 24.0e9, // 400 Gb/s EFA, effective collective rate
                latency: 30.0e-6,
            },
            spine_oversubscription: 1.84,
            device_memory_bytes: 80 * (1 << 30),
            machine_classes: Vec::new(),
        }
    }

    /// A single-machine cluster with `devices` GPUs (useful for tests).
    pub fn single_node(devices: usize) -> Self {
        ClusterSpec {
            devices_per_machine: devices,
            ..ClusterSpec::p4de(1)
        }
    }

    /// A mixed-generation cluster: p4de-class links and node shape, with the
    /// given `(class, machine_count)` groups laid out in order. E.g.
    /// `mixed(&[(DeviceClass::a100(), 4), (DeviceClass::h100(), 4)])` is an
    /// 8-machine, 64-GPU fleet whose first 4 nodes are A100 boxes.
    pub fn mixed(groups: &[(DeviceClass, usize)]) -> Self {
        let machines: usize = groups.iter().map(|(_, n)| n).sum();
        let machine_classes = groups
            .iter()
            .flat_map(|(class, n)| std::iter::repeat_n(class.clone(), *n))
            .collect();
        ClusterSpec {
            machine_classes,
            ..ClusterSpec::p4de(machines.max(1))
        }
    }

    /// Assigns one [`DeviceClass`] per machine (the heterogeneous mode).
    /// The vector length should equal [`machines`](ClusterSpec::machines);
    /// planners reject mismatches via [`ClusterSpec::validate_classes`].
    pub fn with_machine_classes(mut self, classes: Vec<DeviceClass>) -> Self {
        self.machine_classes = classes;
        self
    }

    /// Checks the class assignment is usable: empty (homogeneous) or exactly
    /// one class per machine.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on a length mismatch.
    pub fn validate_classes(&self) -> Result<(), String> {
        if self.machine_classes.is_empty() || self.machine_classes.len() == self.machines {
            Ok(())
        } else {
            Err(format!(
                "cluster has {} machines but {} device classes",
                self.machines,
                self.machine_classes.len()
            ))
        }
    }

    /// The implicit class of every machine when no explicit classes are set:
    /// compute scale 1.0, the cluster's default memory, link scale 1.0.
    pub(crate) fn default_class(&self) -> DeviceClass {
        DeviceClass {
            name: "a100".to_owned(),
            compute_scale: 1.0,
            memory_bytes: self.device_memory_bytes,
            link_scale: 1.0,
        }
    }

    /// True when machines are not all the same device class.
    pub fn is_heterogeneous(&self) -> bool {
        self.machine_classes
            .windows(2)
            .any(|pair| pair[0] != pair[1])
    }

    /// The class of one machine (the default class when no classes are set
    /// or the machine index is out of the class vector's range).
    pub fn class_of_machine(&self, m: MachineId) -> DeviceClass {
        self.machine_classes
            .get(m.index())
            .cloned()
            .unwrap_or_else(|| self.default_class())
    }

    /// Resolves the per-machine class assignment into a [`ClassMap`]:
    /// distinct classes in first-appearance order plus each machine's class
    /// index. Homogeneous clusters resolve to a single class.
    pub fn class_map(&self) -> ClassMap {
        let mut classes: Vec<DeviceClass> = Vec::new();
        let mut machine_class = Vec::with_capacity(self.machines);
        for m in 0..self.machines {
            let class = self.class_of_machine(MachineId(m));
            let idx = match classes.iter().position(|c| *c == class) {
                Some(i) => i,
                None => {
                    classes.push(class);
                    classes.len() - 1
                }
            };
            machine_class.push(idx);
        }
        if classes.is_empty() {
            classes.push(self.default_class());
        }
        ClassMap {
            classes,
            machine_class,
            devices_per_machine: self.devices_per_machine,
        }
    }

    /// Per-machine intra-node link scales (1.0 everywhere when homogeneous).
    pub(crate) fn machine_link_scales(&self) -> Vec<f64> {
        (0..self.machines)
            .map(|m| self.class_of_machine(MachineId(m)).link_scale)
            .collect()
    }

    /// Total number of devices.
    pub fn world_size(&self) -> usize {
        self.machines * self.devices_per_machine
    }

    /// All device ids in rank order.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.world_size()).map(DeviceId)
    }

    /// Machine hosting a device.
    ///
    /// # Panics
    ///
    /// Panics if the device rank is out of range.
    pub(crate) fn machine_of(&self, d: DeviceId) -> MachineId {
        assert!(d.rank() < self.world_size(), "device {d} out of range");
        MachineId(d.rank() / self.devices_per_machine)
    }

    /// True if both devices are on the same machine.
    pub(crate) fn same_machine(&self, a: DeviceId, b: DeviceId) -> bool {
        self.machine_of(a) == self.machine_of(b)
    }

    /// Number of distinct machines spanned by the given devices.
    pub fn machines_spanned(&self, devices: &[DeviceId]) -> usize {
        let mut machines: Vec<usize> = devices
            .iter()
            .map(|&d| self.machine_of(d).index())
            .collect();
        machines.sort_unstable();
        machines.dedup();
        machines.len()
    }

    /// The surviving cluster after removing the given machines — the
    /// degraded-mode shape a planner re-plans on when nodes drop.
    ///
    /// Duplicate and out-of-range indices in `removed` are ignored. The
    /// per-machine [`DeviceClass`] assignment is carried over class-aware:
    /// each surviving machine keeps its own class, in surviving order, so a
    /// mixed fleet that loses an H100 box re-plans as the A100 boxes it
    /// still has. Removing every machine yields an empty (0-machine)
    /// cluster, which planners reject downstream.
    pub fn without_machines(&self, removed: &[MachineId]) -> Self {
        let survives = |m: usize| !removed.iter().any(|r| r.index() == m);
        let machine_classes = if self.machine_classes.is_empty() {
            Vec::new()
        } else {
            (0..self.machines)
                .filter(|&m| survives(m))
                .map(|m| self.class_of_machine(MachineId(m)))
                .collect()
        };
        ClusterSpec {
            machines: (0..self.machines).filter(|&m| survives(m)).count(),
            machine_classes,
            ..self.clone()
        }
    }

    /// The communication cost model for this topology.
    pub fn comm_model(&self) -> CommModel {
        CommModel::new(self.clone())
    }

    /// Stable 64-bit content fingerprint of the cluster shape and link
    /// parameters.
    ///
    /// Structurally identical clusters fingerprint identically across
    /// processes; any planning-relevant edit (shape, bandwidth, latency,
    /// memory) changes the digest. `dpipe_serve` keys its plan cache on this.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("dpipe_cluster::ClusterSpec");
        h.write_usize(self.machines);
        h.write_usize(self.devices_per_machine);
        for link in [&self.intra_link, &self.inter_link] {
            h.write_f64(link.bandwidth);
            h.write_f64(link.latency);
        }
        h.write_f64(self.spine_oversubscription);
        h.write_u64(self.device_memory_bytes);
        // Homogeneous clusters hash exactly as before the device-class
        // extension; any explicit class assignment extends the digest, so a
        // heterogeneous cluster can never collide with the homogeneous one
        // of the same shape.
        if !self.machine_classes.is_empty() {
            h.write_str("machine_classes");
            h.write_usize(self.machine_classes.len());
            for class in &self.machine_classes {
                h.write_str(&class.name);
                h.write_f64(class.compute_scale);
                h.write_u64(class.memory_bytes);
                h.write_f64(class.link_scale);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p4de_shape() {
        let c = ClusterSpec::p4de(8);
        assert_eq!(c.world_size(), 64);
        assert_eq!(c.machine_of(DeviceId(0)), MachineId(0));
        assert_eq!(c.machine_of(DeviceId(63)), MachineId(7));
        assert!(c.same_machine(DeviceId(0), DeviceId(7)));
        assert!(!c.same_machine(DeviceId(7), DeviceId(8)));
    }

    #[test]
    fn machines_spanned_counts_unique() {
        let c = ClusterSpec::p4de(4);
        let devs: Vec<DeviceId> = vec![DeviceId(0), DeviceId(1), DeviceId(8), DeviceId(9)];
        assert_eq!(c.machines_spanned(&devs), 2);
        assert_eq!(c.machines_spanned(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn machine_of_panics_out_of_range() {
        ClusterSpec::p4de(1).machine_of(DeviceId(8));
    }

    #[test]
    fn single_node_helper() {
        let c = ClusterSpec::single_node(4);
        assert_eq!(c.world_size(), 4);
        assert_eq!(c.machines, 1);
    }

    #[test]
    fn fingerprint_is_deterministic_and_shape_sensitive() {
        let c = ClusterSpec::p4de(2);
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        assert_ne!(c.fingerprint(), ClusterSpec::p4de(4).fingerprint());
        assert_ne!(
            ClusterSpec::single_node(8).fingerprint(),
            ClusterSpec::single_node(4).fingerprint()
        );
        let mut slow = ClusterSpec::p4de(2);
        slow.inter_link.bandwidth /= 2.0;
        assert_ne!(slow.fingerprint(), c.fingerprint());
    }

    #[test]
    fn mixed_cluster_shape_and_classes() {
        let c = ClusterSpec::mixed(&[(DeviceClass::a100(), 2), (DeviceClass::h100(), 2)]);
        assert_eq!(c.machines, 4);
        assert_eq!(c.world_size(), 32);
        assert!(c.is_heterogeneous());
        assert!(c.validate_classes().is_ok());
        assert_eq!(c.class_of_machine(MachineId(0)).name, "a100");
        assert_eq!(c.class_of_machine(MachineId(3)).name, "h100");
        let map = c.class_map();
        assert_eq!(map.num_classes(), 2);
        assert_eq!(map.machine_class, vec![0, 0, 1, 1]);
        assert_eq!(map.class_of_device(DeviceId(17)), 1);
    }

    #[test]
    fn homogeneous_class_map_is_single_class() {
        let c = ClusterSpec::p4de(2);
        assert!(!c.is_heterogeneous());
        let map = c.class_map();
        assert_eq!(map.num_classes(), 1);
        assert_eq!(map.compute_scales(), vec![1.0]);
        assert_eq!(map.min_memory([DeviceId(5)]), c.device_memory_bytes);
        assert_eq!(c.machine_link_scales(), vec![1.0, 1.0]);
    }

    #[test]
    fn class_mismatch_is_rejected() {
        let c = ClusterSpec::p4de(4).with_machine_classes(vec![DeviceClass::a100()]);
        assert!(c.validate_classes().is_err());
        // Non-panicking fallbacks: machines past the class vector resolve to
        // the default class.
        assert_eq!(c.class_of_machine(MachineId(3)).compute_scale, 1.0);
    }

    #[test]
    fn hetero_fingerprint_differs_homogeneous_unchanged() {
        let homo = ClusterSpec::p4de(2);
        let explicit = ClusterSpec::p4de(2).with_machine_classes(vec![DeviceClass::a100(); 2]);
        let mixed = ClusterSpec::p4de(2)
            .with_machine_classes(vec![DeviceClass::a100(), DeviceClass::h100()]);
        assert_ne!(homo.fingerprint(), mixed.fingerprint());
        assert_ne!(explicit.fingerprint(), mixed.fingerprint());
        // Classes hash in order, so swapping machines changes the digest.
        let swapped = ClusterSpec::p4de(2)
            .with_machine_classes(vec![DeviceClass::h100(), DeviceClass::a100()]);
        assert_ne!(mixed.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn device_memory_honours_classes() {
        let c = ClusterSpec::mixed(&[(DeviceClass::a100(), 1), (DeviceClass::a10g(), 1)]);
        let map = c.class_map();
        assert_eq!(map.min_memory([DeviceId(0)]), 80 * (1 << 30));
        assert_eq!(map.min_memory([DeviceId(8)]), 24 * (1 << 30));
        assert_eq!(map.slowest_class(), 1);
        assert_eq!(
            map.min_memory(c.devices().collect::<Vec<_>>()),
            24 * (1 << 30)
        );
    }

    #[test]
    fn without_machines_shrinks_and_keeps_classes() {
        // Homogeneous: shape shrinks, classes stay empty.
        let c = ClusterSpec::p4de(4).without_machines(&[MachineId(1), MachineId(3)]);
        assert_eq!(c.machines, 2);
        assert_eq!(c.world_size(), 16);
        assert!(c.machine_classes.is_empty());
        // Duplicates and out-of-range indices are ignored.
        let same =
            ClusterSpec::p4de(4).without_machines(&[MachineId(1), MachineId(1), MachineId(99)]);
        assert_eq!(same.machines, 3);
        // Class-aware: each survivor keeps its own class in order.
        let mixed = ClusterSpec::mixed(&[(DeviceClass::a100(), 2), (DeviceClass::h100(), 2)]);
        let survived = mixed.without_machines(&[MachineId(0), MachineId(3)]);
        assert_eq!(survived.machines, 2);
        assert_eq!(
            survived
                .machine_classes
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a100", "h100"]
        );
        // Removing everything leaves an empty cluster.
        let none = ClusterSpec::p4de(2).without_machines(&[MachineId(0), MachineId(1)]);
        assert_eq!(none.world_size(), 0);
    }

    #[test]
    fn devices_iterates_in_rank_order() {
        let c = ClusterSpec::single_node(3);
        let ranks: Vec<usize> = c.devices().map(|d| d.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
    }
}
