//! Device classes for heterogeneous (mixed-GPU) clusters.
//!
//! A [`DeviceClass`] describes one GPU generation relative to the reference
//! A100-class card the cost models are calibrated against: a compute scale
//! (relative sustained throughput), the device memory capacity, and an
//! intra-node interconnect scale (NVSwitch-class = 1.0, PCIe-class boxes
//! well below it). A [`crate::ClusterSpec`] optionally carries one class per
//! machine; when it carries none, every machine is the implicit reference
//! class and all cost arithmetic is bit-identical to the homogeneous model.

use crate::device::DeviceId;

/// One GPU generation / SKU family, parameterised relative to the reference
/// A100-class device (`compute_scale == 1.0`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceClass {
    /// Class name (`a100`, `h100`, `a10g`, ...), informational and hashed
    /// into cluster fingerprints.
    pub name: String,
    /// Sustained compute throughput relative to the reference class.
    pub compute_scale: f64,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// Intra-node collective bandwidth relative to the reference NVSwitch
    /// fabric (1.0). PCIe-only inference boxes sit far below 1.
    pub link_scale: f64,
}

impl DeviceClass {
    /// The reference A100-80GB-class device (scale 1.0 by definition).
    pub fn a100() -> Self {
        DeviceClass {
            name: "a100".to_owned(),
            compute_scale: 1.0,
            memory_bytes: 80 * (1 << 30),
            link_scale: 1.0,
        }
    }

    /// An H100-80GB-class device: ~2.2× the sustained mixed-workload
    /// throughput of an A100 and a faster (NVLink4-class) intra-node fabric.
    pub fn h100() -> Self {
        DeviceClass {
            name: "h100".to_owned(),
            compute_scale: 2.2,
            memory_bytes: 80 * (1 << 30),
            link_scale: 1.5,
        }
    }

    /// An A10G-class inference card: ~0.35× an A100, 24 GB, PCIe-only
    /// intra-node fabric.
    pub fn a10g() -> Self {
        DeviceClass {
            name: "a10g".to_owned(),
            compute_scale: 0.35,
            memory_bytes: 24 * (1 << 30),
            link_scale: 0.12,
        }
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "a100" => DeviceClass::a100(),
            "h100" => DeviceClass::h100(),
            "a10g" => DeviceClass::a10g(),
            _ => return None,
        })
    }

    /// Parses a machine spec like `a100:4,h100:4` into one class per
    /// machine (here: 8 machines). A bare `a100` means one machine.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown class names or malformed
    /// counts.
    pub fn parse_machine_spec(spec: &str) -> Result<Vec<DeviceClass>, String> {
        let mut machines = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, count) = match part.split_once(':') {
                Some((n, c)) => {
                    let count: usize = c
                        .parse()
                        .map_err(|_| format!("bad machine count `{c}` in `{part}`"))?;
                    (n, count)
                }
                None => (part, 1),
            };
            let class = DeviceClass::by_name(name)
                .ok_or_else(|| format!("unknown device class `{name}` (a100, h100, a10g)"))?;
            machines.extend(std::iter::repeat_n(class, count));
        }
        if machines.is_empty() {
            return Err("machine spec names no machines".to_owned());
        }
        Ok(machines)
    }
}

/// Resolved per-machine class assignment of one cluster: the distinct
/// classes (first-appearance order) and each machine's index into them.
///
/// Built once per planning pass with [`crate::ClusterSpec::class_map`];
/// homogeneous clusters resolve to a single class so per-class loops
/// degenerate to the legacy single-table code paths.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMap {
    /// Distinct device classes in first-appearance order.
    pub classes: Vec<DeviceClass>,
    /// Machine index → index into `classes`.
    pub machine_class: Vec<usize>,
    /// Devices per machine (for device → machine resolution).
    pub devices_per_machine: usize,
}

impl ClassMap {
    /// Number of distinct classes (≥ 1).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Relative compute scale of every distinct class, in class order.
    pub fn compute_scales(&self) -> Vec<f64> {
        self.classes.iter().map(|c| c.compute_scale).collect()
    }

    /// Class index of a device (0 for out-of-range ranks).
    pub fn class_of_device(&self, d: DeviceId) -> usize {
        let machine = d.rank() / self.devices_per_machine.max(1);
        self.machine_class.get(machine).copied().unwrap_or(0)
    }

    /// The class that governs a co-scheduled device set: replicas split the
    /// work evenly, so the *slowest* class (minimum compute scale, ties
    /// broken toward the smaller class index) bounds the set's speed.
    /// Returns class 0 for an empty set.
    pub fn effective_class(&self, devices: impl IntoIterator<Item = DeviceId>) -> usize {
        self.effective_of_indices(devices.into_iter().map(|d| self.class_of_device(d)))
    }

    /// [`ClassMap::effective_class`] over already-resolved class indices —
    /// the single home of the slowest-class selection rule (minimum compute
    /// scale, ties toward the smaller index; class 0 for an empty set).
    pub fn effective_of_indices(&self, indices: impl IntoIterator<Item = usize>) -> usize {
        let mut best: Option<usize> = None;
        for c in indices {
            let better = match best {
                None => true,
                Some(b) => {
                    let (sb, sc) = (self.classes[b].compute_scale, self.classes[c].compute_scale);
                    sc < sb || (sc == sb && c < b)
                }
            };
            if better {
                best = Some(c);
            }
        }
        best.unwrap_or(0)
    }

    /// The tightest device-memory budget over a device set (`u64::MAX` for
    /// an empty set, so empty stages never constrain).
    pub fn min_memory(&self, devices: impl IntoIterator<Item = DeviceId>) -> u64 {
        devices
            .into_iter()
            .map(|d| self.classes[self.class_of_device(d)].memory_bytes)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The class with the smallest compute scale (ties toward the smaller
    /// index) — the device the data-parallel frozen tail must wait for.
    pub fn slowest_class(&self) -> usize {
        let mut best = 0usize;
        for (i, c) in self.classes.iter().enumerate().skip(1) {
            if c.compute_scale < self.classes[best].compute_scale {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let a100 = DeviceClass::a100();
        assert_eq!(a100.compute_scale, 1.0);
        assert_eq!(a100.link_scale, 1.0);
        assert!(DeviceClass::h100().compute_scale > 1.0);
        let a10g = DeviceClass::a10g();
        assert!(a10g.compute_scale < 1.0);
        assert!(a10g.memory_bytes < a100.memory_bytes);
        assert_eq!(DeviceClass::by_name("h100"), Some(DeviceClass::h100()));
        assert_eq!(DeviceClass::by_name("tpu"), None);
    }

    #[test]
    fn parse_machine_spec_expands_counts() {
        let machines = DeviceClass::parse_machine_spec("a100:2,h100:1").unwrap();
        assert_eq!(machines.len(), 3);
        assert_eq!(machines[0].name, "a100");
        assert_eq!(machines[2].name, "h100");
        assert_eq!(DeviceClass::parse_machine_spec("a10g").unwrap().len(), 1);
        assert!(DeviceClass::parse_machine_spec("v100:2").is_err());
        assert!(DeviceClass::parse_machine_spec("a100:x").is_err());
        assert!(DeviceClass::parse_machine_spec("").is_err());
    }

    #[test]
    fn effective_class_picks_slowest() {
        let map = ClassMap {
            classes: vec![DeviceClass::h100(), DeviceClass::a100()],
            machine_class: vec![0, 1],
            devices_per_machine: 2,
        };
        // Devices 0-1 are h100, 2-3 a100.
        assert_eq!(map.class_of_device(DeviceId(0)), 0);
        assert_eq!(map.class_of_device(DeviceId(3)), 1);
        assert_eq!(map.effective_class([DeviceId(0), DeviceId(1)]), 0);
        assert_eq!(map.effective_class([DeviceId(0), DeviceId(2)]), 1);
        assert_eq!(map.effective_class([]), 0);
        assert_eq!(map.slowest_class(), 1);
    }

    #[test]
    fn min_memory_over_devices() {
        let map = ClassMap {
            classes: vec![DeviceClass::a100(), DeviceClass::a10g()],
            machine_class: vec![0, 1],
            devices_per_machine: 4,
        };
        assert_eq!(
            map.min_memory([DeviceId(0), DeviceId(4)]),
            DeviceClass::a10g().memory_bytes
        );
        assert_eq!(
            map.min_memory([DeviceId(1)]),
            DeviceClass::a100().memory_bytes
        );
        assert_eq!(map.min_memory([]), u64::MAX);
    }
}
