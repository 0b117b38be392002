//! Deterministic fault injection for the instruction-level simulator.
//!
//! A [`FaultSpec`] is the user-facing, JSON-round-trippable description of
//! what goes wrong: straggler devices (compute scaled ×k from a virtual
//! time), degraded or flaky links (communication scaled, transient loss
//! with a retransmit delay), and node drops. It is *seeded* and entirely
//! wall-clock-free: every stochastic choice (how many times a lossy link
//! retransmits a given message) is a pure hash of `(seed, endpoints, tag)`,
//! so the same spec always produces the same degraded timeline, byte for
//! byte — reruns and CI smokes diff clean.
//!
//! [`FaultPlan`] is the compiled form: the spec's machine- and
//! device-rank-level faults are lowered onto the instruction streams of one
//! simulation (streams are pipeline *slots*, which under replication hold
//! several devices in lockstep), ready for `InstructionSim::run_faulted`
//! to query per instruction.

use dpipe_spec::decode::{as_array, as_f64, as_u64, as_usize, f64_field, Fields};
use dpipe_spec::json::{parse, JsonValue};
use dpipe_spec::{SpecError, SCHEMA_VERSION};
use dpipe_stablehash::StableHasher;

/// A device whose compute slows down (or speeds up) from a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerFault {
    /// Global device rank.
    pub device: usize,
    /// Multiplier on compute durations (1.5 = 50% slower). Must be > 0.
    pub scale: f64,
    /// Virtual time (seconds) from which the scale applies; compute
    /// instructions *starting* at or after this are affected.
    pub from: f64,
}

/// A degraded or flaky link between two machines.
///
/// The pair is unordered: traffic in either direction between the two
/// machines is affected. `src_machine == dst_machine` degrades that
/// machine's intra-node links.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// One endpoint machine index.
    pub src_machine: usize,
    /// Other endpoint machine index.
    pub dst_machine: usize,
    /// Multiplier on transfer durations. Must be > 0.
    pub scale: f64,
    /// Per-attempt loss probability in `[0, 1)`; each loss costs one
    /// `retransmit` delay. Sampled deterministically from the spec seed.
    pub loss: f64,
    /// Seconds added per retransmit.
    pub retransmit: f64,
    /// Virtual time from which the fault applies.
    pub from: f64,
    /// Virtual time at which the fault clears (`None` = never).
    pub until: Option<f64>,
}

/// A machine that drops out of the cluster at a point in virtual time.
///
/// Devices on a dropped machine finish the instruction they are executing
/// but start nothing at or after `at`; peers blocked on them are reported
/// as *stranded* rather than deadlocked.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDropFault {
    /// Machine index.
    pub machine: usize,
    /// Virtual drop time in seconds.
    pub at: f64,
}

/// A seeded, reproducible description of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Schema version (shared with the plan-spec schema).
    pub schema_version: u32,
    /// Seed for all stochastic choices (retransmit sampling).
    pub seed: u64,
    /// Straggling devices.
    pub stragglers: Vec<StragglerFault>,
    /// Degraded/flaky links.
    pub links: Vec<LinkFault>,
    /// Node drops.
    pub node_drops: Vec<NodeDropFault>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The empty fault spec: simulation degenerates to the fault-free run.
    pub fn none() -> Self {
        FaultSpec {
            schema_version: SCHEMA_VERSION,
            seed: 0,
            stragglers: Vec::new(),
            links: Vec::new(),
            node_drops: Vec::new(),
        }
    }

    /// True when no fault is declared.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty() && self.links.is_empty() && self.node_drops.is_empty()
    }

    /// Validates every fault against the target cluster's shape.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidValue`] naming the offending field: device or
    /// machine indices out of range, non-positive or non-finite scales,
    /// loss outside `[0, 1)`, negative delays or times, or an `until` not
    /// after its `from`.
    pub fn validate(&self, world_size: usize, num_machines: usize) -> Result<(), SpecError> {
        for (i, s) in self.stragglers.iter().enumerate() {
            let at = |k: &str| format!("faults.stragglers[{i}].{k}");
            if s.device >= world_size {
                return Err(SpecError::invalid(
                    at("device"),
                    format!("device {} out of range (world size {world_size})", s.device),
                ));
            }
            check_scale(&at("scale"), s.scale)?;
            check_time(&at("from"), s.from)?;
        }
        for (i, l) in self.links.iter().enumerate() {
            let at = |k: &str| format!("faults.links[{i}].{k}");
            for (key, m) in [
                ("src_machine", l.src_machine),
                ("dst_machine", l.dst_machine),
            ] {
                if m >= num_machines {
                    return Err(SpecError::invalid(
                        at(key),
                        format!("machine {m} out of range (cluster has {num_machines})"),
                    ));
                }
            }
            check_scale(&at("scale"), l.scale)?;
            if !(0.0..1.0).contains(&l.loss) {
                return Err(SpecError::invalid(at("loss"), "must be in [0, 1)"));
            }
            check_time(&at("retransmit"), l.retransmit)?;
            check_time(&at("from"), l.from)?;
            if let Some(until) = l.until {
                check_time(&at("until"), until)?;
                if until <= l.from {
                    return Err(SpecError::invalid(at("until"), "must be after `from`"));
                }
            }
        }
        for (i, d) in self.node_drops.iter().enumerate() {
            let at = |k: &str| format!("faults.node_drops[{i}].{k}");
            if d.machine >= num_machines {
                return Err(SpecError::invalid(
                    at("machine"),
                    format!(
                        "machine {} out of range (cluster has {num_machines})",
                        d.machine
                    ),
                ));
            }
            check_time(&at("at"), d.at)?;
        }
        Ok(())
    }

    /// Machines dropped by this spec, sorted and deduplicated.
    pub fn dropped_machines(&self) -> Vec<usize> {
        let mut m: Vec<usize> = self.node_drops.iter().map(|d| d.machine).collect();
        m.sort_unstable();
        m.dedup();
        m
    }

    /// Stable content fingerprint (cache/diagnostic key).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("faultspec");
        h.write_u32(self.schema_version);
        h.write_u64(self.seed);
        h.write_usize(self.stragglers.len());
        for s in &self.stragglers {
            h.write_usize(s.device);
            h.write_f64(s.scale);
            h.write_f64(s.from);
        }
        h.write_usize(self.links.len());
        for l in &self.links {
            h.write_usize(l.src_machine);
            h.write_usize(l.dst_machine);
            h.write_f64(l.scale);
            h.write_f64(l.loss);
            h.write_f64(l.retransmit);
            h.write_f64(l.from);
            h.write_bool(l.until.is_some());
            h.write_f64(l.until.unwrap_or(0.0));
        }
        h.write_usize(self.node_drops.len());
        for d in &self.node_drops {
            h.write_usize(d.machine);
            h.write_f64(d.at);
        }
        h.finish()
    }

    /// Encodes to the JSON tree form.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".to_owned(),
                JsonValue::UInt(u64::from(self.schema_version)),
            ),
            ("seed".to_owned(), JsonValue::UInt(self.seed)),
            (
                "stragglers".to_owned(),
                JsonValue::Array(
                    self.stragglers
                        .iter()
                        .map(|s| {
                            JsonValue::Object(vec![
                                ("device".to_owned(), JsonValue::UInt(s.device as u64)),
                                ("scale".to_owned(), JsonValue::Num(s.scale)),
                                ("from".to_owned(), JsonValue::Num(s.from)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "links".to_owned(),
                JsonValue::Array(
                    self.links
                        .iter()
                        .map(|l| {
                            JsonValue::Object(vec![
                                (
                                    "src_machine".to_owned(),
                                    JsonValue::UInt(l.src_machine as u64),
                                ),
                                (
                                    "dst_machine".to_owned(),
                                    JsonValue::UInt(l.dst_machine as u64),
                                ),
                                ("scale".to_owned(), JsonValue::Num(l.scale)),
                                ("loss".to_owned(), JsonValue::Num(l.loss)),
                                ("retransmit".to_owned(), JsonValue::Num(l.retransmit)),
                                ("from".to_owned(), JsonValue::Num(l.from)),
                                (
                                    "until".to_owned(),
                                    l.until.map_or(JsonValue::Null, JsonValue::Num),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "node_drops".to_owned(),
                JsonValue::Array(
                    self.node_drops
                        .iter()
                        .map(|d| {
                            JsonValue::Object(vec![
                                ("machine".to_owned(), JsonValue::UInt(d.machine as u64)),
                                ("at".to_owned(), JsonValue::Num(d.at)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Encodes to a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Decodes from the JSON tree form.
    ///
    /// # Errors
    ///
    /// Typed [`SpecError`]s with dotted field paths: unsupported schema
    /// version, unknown or missing fields, type mismatches.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, SpecError> {
        let f = Fields::new(value, "")?;
        f.allow(&[
            "schema_version",
            "seed",
            "stragglers",
            "links",
            "node_drops",
        ])?;
        if let Some(v) = f.get("schema_version") {
            let version = as_u64(v, &f.path("schema_version"))?;
            if version != u64::from(SCHEMA_VERSION) {
                return Err(SpecError::UnsupportedVersion(version));
            }
        }
        let seed = match f.get("seed") {
            Some(v) => as_u64(v, &f.path("seed"))?,
            None => 0,
        };
        let mut spec = FaultSpec {
            schema_version: SCHEMA_VERSION,
            seed,
            ..FaultSpec::none()
        };
        if let Some(v) = f.get("stragglers") {
            for (i, item) in as_array(v, &f.path("stragglers"))?.iter().enumerate() {
                let base = format!("stragglers[{i}]");
                let sf = Fields::new(item, &base)?;
                sf.allow(&["device", "scale", "from"])?;
                spec.stragglers.push(StragglerFault {
                    device: as_usize(sf.require("device")?, &sf.path("device"))?,
                    scale: f64_field(&sf, "scale")?,
                    from: optional_f64(&sf, "from")?.unwrap_or(0.0),
                });
            }
        }
        if let Some(v) = f.get("links") {
            for (i, item) in as_array(v, &f.path("links"))?.iter().enumerate() {
                let base = format!("links[{i}]");
                let lf = Fields::new(item, &base)?;
                lf.allow(&[
                    "src_machine",
                    "dst_machine",
                    "scale",
                    "loss",
                    "retransmit",
                    "from",
                    "until",
                ])?;
                spec.links.push(LinkFault {
                    src_machine: as_usize(lf.require("src_machine")?, &lf.path("src_machine"))?,
                    dst_machine: as_usize(lf.require("dst_machine")?, &lf.path("dst_machine"))?,
                    scale: optional_f64(&lf, "scale")?.unwrap_or(1.0),
                    loss: optional_f64(&lf, "loss")?.unwrap_or(0.0),
                    retransmit: optional_f64(&lf, "retransmit")?.unwrap_or(0.0),
                    from: optional_f64(&lf, "from")?.unwrap_or(0.0),
                    until: optional_f64(&lf, "until")?,
                });
            }
        }
        if let Some(v) = f.get("node_drops") {
            for (i, item) in as_array(v, &f.path("node_drops"))?.iter().enumerate() {
                let base = format!("node_drops[{i}]");
                let df = Fields::new(item, &base)?;
                df.allow(&["machine", "at"])?;
                spec.node_drops.push(NodeDropFault {
                    machine: as_usize(df.require("machine")?, &df.path("machine"))?,
                    at: f64_field(&df, "at")?,
                });
            }
        }
        Ok(spec)
    }

    /// Decodes from a JSON string.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] on malformed JSON, otherwise as
    /// [`FaultSpec::from_json_value`].
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_json_value(&parse(text)?)
    }
}

fn check_scale(path: &str, scale: f64) -> Result<(), SpecError> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(SpecError::invalid(path, "must be a finite positive number"));
    }
    Ok(())
}

fn check_time(path: &str, t: f64) -> Result<(), SpecError> {
    if !t.is_finite() || t < 0.0 {
        return Err(SpecError::invalid(
            path,
            "must be a finite non-negative number",
        ));
    }
    Ok(())
}

fn optional_f64(fields: &Fields<'_>, key: &str) -> Result<Option<f64>, SpecError> {
    match fields.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => Ok(Some(as_f64(v, &fields.path(key))?)),
    }
}

/// Hard cap on retransmits of a single message, so a loss probability close
/// to 1 degrades the timeline instead of hanging it.
pub(crate) const MAX_RETRANSMITS: u32 = 16;

/// A [`FaultSpec`] compiled onto one simulation's instruction streams.
///
/// Streams are pipeline slots; under replication a slot holds several
/// devices executing in lockstep, so the slot's compute scale is the *max*
/// over its devices (the slowest replica gates the group) and the slot
/// drops at the *earliest* drop time among its devices' machines. Link
/// faults are matched on the machine pair of the communicating slots'
/// representative (first) devices.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Per-stream straggler schedule: `(from, scale)` entries per device.
    compute: Vec<Vec<Vec<(f64, f64)>>>,
    /// Per-stream drop time.
    drop_at: Vec<Option<f64>>,
    /// Representative machine per stream (for link matching).
    machine: Vec<usize>,
    /// Active link faults.
    links: Vec<LinkFault>,
    /// Spec seed mixed with the compile-time salt.
    seed: u64,
}

impl FaultPlan {
    /// The no-op plan: every query degenerates to the fault-free value,
    /// regardless of stream count.
    pub fn none() -> Self {
        FaultPlan {
            compute: Vec::new(),
            drop_at: Vec::new(),
            machine: Vec::new(),
            links: Vec::new(),
            seed: 0,
        }
    }

    /// Compiles `spec` onto instruction streams.
    ///
    /// `stream_devices[s]` lists the global device ranks executing stream
    /// `s` in lockstep; `machine_of[d]` maps a global device rank to its
    /// machine. `salt` domain-separates the retransmit sampling of
    /// independent simulations sharing one seed (e.g. per data-parallel
    /// group), keeping them deterministic but uncorrelated.
    pub fn compile(
        spec: &FaultSpec,
        stream_devices: &[Vec<usize>],
        machine_of: &[usize],
        salt: u64,
    ) -> Self {
        let compute = stream_devices
            .iter()
            .map(|devs| {
                devs.iter()
                    .map(|d| {
                        spec.stragglers
                            .iter()
                            .filter(|s| s.device == *d)
                            .map(|s| (s.from, s.scale))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let drop_at = stream_devices
            .iter()
            .map(|devs| {
                devs.iter()
                    .filter_map(|d| {
                        let m = machine_of.get(*d).copied()?;
                        spec.node_drops
                            .iter()
                            .filter(|drop| drop.machine == m)
                            .map(|drop| drop.at)
                            .reduce(f64::min)
                    })
                    .reduce(f64::min)
            })
            .collect();
        let machine = stream_devices
            .iter()
            .map(|devs| {
                devs.first()
                    .and_then(|d| machine_of.get(*d).copied())
                    .unwrap_or(0)
            })
            .collect();
        FaultPlan {
            compute,
            drop_at,
            machine,
            links: spec.links.clone(),
            seed: mix(spec.seed, &[0x6661756c74, salt]),
        }
    }

    /// Compute-duration multiplier for stream `s` at time `t`: max over the
    /// stream's lockstep devices of the product of their active stragglers.
    pub fn compute_scale(&self, s: usize, t: f64) -> f64 {
        match self.compute.get(s) {
            None => 1.0,
            Some(devs) => devs
                .iter()
                .map(|entries| {
                    entries
                        .iter()
                        .filter(|(from, _)| t >= *from - 1e-12)
                        .map(|(_, scale)| scale)
                        .product::<f64>()
                })
                .fold(1.0, f64::max),
        }
    }

    /// Time at which stream `s` stops starting instructions, if any.
    pub(crate) fn drop_at(&self, s: usize) -> Option<f64> {
        self.drop_at.get(s).copied().flatten()
    }

    /// Effective transfer duration for a send from stream `src` to stream
    /// `dst` starting at time `t` with fault-free duration `seconds`.
    /// `tag` feeds the deterministic retransmit sampling.
    pub(crate) fn transfer_seconds(
        &self,
        src: usize,
        dst: usize,
        t: f64,
        seconds: f64,
        tag: u64,
    ) -> f64 {
        if self.links.is_empty() {
            return seconds;
        }
        let (ma, mb) = (
            self.machine.get(src).copied().unwrap_or(0),
            self.machine.get(dst).copied().unwrap_or(0),
        );
        let mut total = seconds;
        for (i, l) in self.links.iter().enumerate() {
            let pair_matches = (l.src_machine == ma && l.dst_machine == mb)
                || (l.src_machine == mb && l.dst_machine == ma);
            let active = t >= l.from - 1e-12 && l.until.is_none_or(|u| t < u);
            if !pair_matches || !active {
                continue;
            }
            total *= l.scale;
            if l.loss > 0.0 && l.retransmit > 0.0 {
                let retries =
                    self.sample_retransmits(i as u64, src as u64, dst as u64, tag, l.loss);
                total += f64::from(retries) * l.retransmit;
            }
        }
        total
    }

    /// Geometric retransmit count for one message, capped at
    /// [`MAX_RETRANSMITS`]. Pure function of the seed and the message
    /// identity — no wall clock, no mutable PRNG state, no dependence on
    /// event pop order.
    fn sample_retransmits(&self, link: u64, src: u64, dst: u64, tag: u64, loss: f64) -> u32 {
        for attempt in 0..MAX_RETRANSMITS {
            let h = mix(self.seed, &[link, src, dst, tag, u64::from(attempt)]);
            if unit_f64(h) >= loss {
                return attempt;
            }
        }
        MAX_RETRANSMITS
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// SplitMix64 finaliser — a strong 64-bit avalanche.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `parts` into `seed` with SplitMix64 rounds.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut x = splitmix64(seed);
    for &p in parts {
        x = splitmix64(x ^ p);
    }
    x
}

/// Maps a hash to a uniform value in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> FaultSpec {
        FaultSpec {
            schema_version: SCHEMA_VERSION,
            seed: 42,
            stragglers: vec![StragglerFault {
                device: 3,
                scale: 1.8,
                from: 0.5,
            }],
            links: vec![LinkFault {
                src_machine: 0,
                dst_machine: 1,
                scale: 2.0,
                loss: 0.25,
                retransmit: 0.002,
                from: 0.0,
                until: Some(9.0),
            }],
            node_drops: vec![NodeDropFault {
                machine: 1,
                at: 1.25,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_identity_and_byte_stable() {
        let spec = sample_spec();
        let text = spec.to_json();
        let back = FaultSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn unknown_fields_and_bad_versions_rejected() {
        assert!(matches!(
            FaultSpec::from_json(r#"{"schema_version": 99}"#),
            Err(SpecError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            FaultSpec::from_json(r#"{"stragglerz": []}"#),
            Err(SpecError::UnknownField(_))
        ));
        assert!(matches!(
            FaultSpec::from_json(r#"{"stragglers": [{"device": 0, "scale": 2.0, "typo": 1}]}"#),
            Err(SpecError::UnknownField(_))
        ));
    }

    #[test]
    fn validate_checks_ranges() {
        let mut spec = sample_spec();
        assert!(spec.validate(8, 2).is_ok());
        assert!(spec.validate(3, 2).is_err()); // straggler device 3 out of range
        assert!(spec.validate(8, 1).is_err()); // machine 1 out of range
        spec.links[0].loss = 1.0;
        assert!(spec.validate(8, 2).is_err());
        spec.links[0].loss = 0.0;
        spec.stragglers[0].scale = 0.0;
        assert!(spec.validate(8, 2).is_err());
    }

    #[test]
    fn compile_applies_straggler_drop_and_link() {
        let spec = sample_spec();
        // Two streams: slot 0 = devices {0, 3} on machine 0, slot 1 =
        // device {4} on machine 1 (4 devices per machine).
        let plan = FaultPlan::compile(&spec, &[vec![0, 3], vec![4]], &[0, 0, 0, 0, 1, 1, 1, 1], 0);
        // Straggler on device 3 gates slot 0 from t=0.5.
        assert_eq!(plan.compute_scale(0, 0.0), 1.0);
        assert_eq!(plan.compute_scale(0, 0.5), 1.8);
        assert_eq!(plan.compute_scale(1, 2.0), 1.0);
        // Machine 1 drop maps to slot 1 only.
        assert_eq!(plan.drop_at(0), None);
        assert_eq!(plan.drop_at(1), Some(1.25));
        // Cross-machine link scale doubles transfers while active.
        let t = plan.transfer_seconds(0, 1, 0.0, 0.1, 7);
        assert!(t >= 0.2, "{t}");
        // After `until`, the link fault clears.
        assert_eq!(plan.transfer_seconds(0, 1, 9.5, 0.1, 7), 0.1);
        // Intra-slot traffic on machine 0 is unaffected.
        assert_eq!(plan.transfer_seconds(0, 0, 0.0, 0.1, 7), 0.1);
    }

    #[test]
    fn retransmits_are_deterministic_and_capped() {
        let spec = sample_spec();
        let plan = FaultPlan::compile(&spec, &[vec![0], vec![4]], &[0, 0, 0, 0, 1, 1, 1, 1], 0);
        let a = plan.transfer_seconds(0, 1, 0.0, 0.1, 99);
        let b = plan.transfer_seconds(0, 1, 0.0, 0.1, 99);
        assert_eq!(a, b);
        // A different salt decorrelates but stays deterministic.
        let salted = FaultPlan::compile(&spec, &[vec![0], vec![4]], &[0, 0, 0, 0, 1, 1, 1, 1], 1);
        assert_eq!(
            salted.transfer_seconds(0, 1, 0.0, 0.1, 99),
            salted.transfer_seconds(0, 1, 0.0, 0.1, 99)
        );
        // Near-certain loss is capped, never unbounded.
        let mut lossy = sample_spec();
        lossy.links[0].loss = 0.999_999;
        let plan = FaultPlan::compile(&lossy, &[vec![0], vec![4]], &[0, 0, 0, 0, 1, 1, 1, 1], 0);
        let t = plan.transfer_seconds(0, 1, 0.0, 0.1, 1);
        let cap = 0.1 * 2.0 + f64::from(MAX_RETRANSMITS) * 0.002;
        assert!(t <= cap + 1e-12, "{t} > {cap}");
    }

    #[test]
    fn none_plan_is_identity() {
        let plan = FaultPlan::none();
        assert_eq!(plan.compute_scale(5, 1.0), 1.0);
        assert_eq!(plan.drop_at(5), None);
        assert_eq!(plan.transfer_seconds(0, 1, 0.0, 0.25, 0), 0.25);
    }
}
