//! Seeded workload inputs. Everything the program receives is generated
//! here from the `--seed` argument and the committed goldens and example
//! specs, so the same seed always yields the same request bodies.

use diffusionpipe_core::FaultSpec;
use dpipe_cluster::ClusterSpec;
use dpipe_spec::json::JsonValue;
use dpipe_spec::PlanSpec;

/// `<label>\tOK\t<Plan::summary()>` for 7 zoo models × {8,16,64} GPUs ×
/// {64,256} global batch.
const GOLDENS: &str = include_str!("../../tests/goldens/plan_summaries.txt");
const MIXED_SPEC: &str = include_str!("../../examples/specs/sd_mixed_a100_h100_b256.json");
const FAULTS_STRAGGLER: &str = include_str!("../../examples/specs/faults_straggler.json");
const FAULTS_NODEDROP: &str = include_str!("../../examples/specs/faults_nodedrop.json");

/// Single-backbone zoo models the `serve_mix` cache misses draw from.
const MISS_MODELS: [&str; 5] = ["sd", "controlnet", "dit", "sdxl", "imagen"];
const MISS_GPUS: [usize; 3] = [8, 16, 64];
/// Miss batches lie strictly between the golden batches (64 and 256), so a
/// miss never shares a fingerprint with a working-set spec, and every
/// model fits in device memory at every batch in the range.
const MISS_BATCH_LO: u32 = 65;
const MISS_BATCHES: u64 = 191; // 65..=255

/// splitmix64: a tiny, well-mixed deterministic generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a, for short digests in the run record.
pub fn digest(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.as_ref() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cluster the golden suite plans each GPU count on.
pub fn cluster_for(gpus: usize) -> ClusterSpec {
    if gpus > 8 && gpus.is_multiple_of(8) {
        ClusterSpec::p4de(gpus / 8)
    } else {
        ClusterSpec::single_node(gpus)
    }
}

/// One plannable input: the JSON body the program receives, and the plan
/// summary it must produce (`None`: check against `Planner::plan_reference`).
#[derive(Clone)]
pub struct Case {
    pub label: String,
    pub gpus: usize,
    pub json: String,
    pub expected_summary: Option<String>,
}

fn zoo_json(model: &str, gpus: usize, batch: u32) -> String {
    PlanSpec::zoo(model, cluster_for(gpus), batch)
        .with_parallelism(1)
        .to_json()
}

/// The 42 golden shapes, in file order.
pub fn golden_cases() -> Result<Vec<Case>, String> {
    GOLDENS
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut fields = line.splitn(3, '\t');
            let (Some(label), Some("OK"), Some(summary)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!("unexpected golden line `{line}`"));
            };
            let parse = || -> Option<(String, usize, u32)> {
                let (model, rest) = label.split_once('@')?;
                let (gpus, batch) = rest.split_once("gpu/b")?;
                Some((model.to_owned(), gpus.parse().ok()?, batch.parse().ok()?))
            };
            let (model, gpus, batch) =
                parse().ok_or_else(|| format!("unparsable golden label `{label}`"))?;
            Ok(Case {
                label: label.to_owned(),
                gpus,
                json: zoo_json(&model, gpus, batch),
                expected_summary: Some(summary.to_owned()),
            })
        })
        .collect()
}

/// The committed mixed A100/H100 fleet spec, planned with one worker.
pub fn mixed_case() -> Result<Case, String> {
    let spec = PlanSpec::from_json(MIXED_SPEC).map_err(|e| format!("mixed spec: {e}"))?;
    Ok(Case {
        label: format!("{} (mixed a100/h100)", spec.label()),
        gpus: spec.cluster.world_size(),
        json: spec.with_parallelism(1).to_json(),
        expected_summary: None,
    })
}

/// `plan_cold`: every golden shape plus the mixed fleet, in seeded order.
pub fn plan_cold_cases(seed: u64) -> Result<Vec<Case>, String> {
    let mut cases = golden_cases()?;
    cases.push(mixed_case()?);
    Rng::new(seed).shuffle(&mut cases);
    Ok(cases)
}

/// The serving working set: the golden shapes on 8 and 64 GPUs (7 models ×
/// 2 GPU counts × 2 batches = 28 specs), so small and large plan documents
/// mix. Far below the server's 4096-entry cache.
pub fn working_set() -> Result<Vec<Case>, String> {
    Ok(golden_cases()?
        .into_iter()
        .filter(|c| c.gpus == 8 || c.gpus == 64)
        .collect())
}

/// A seeded visiting order over `n` items for connection `conn`.
pub fn order(seed: u64, conn: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed.wrapping_mul(31).wrapping_add(conn + 1)).shuffle(&mut idx);
    idx
}

/// How many distinct misses [`misses`] can produce.
pub const MISS_SPACE: usize = MISS_BATCHES as usize * MISS_MODELS.len() * MISS_GPUS.len();

/// The first `n` cache misses of a run: single-backbone zoo specs whose
/// (model, GPUs, batch) triples are all distinct. Consecutive misses cycle
/// through the GPU counts and then the models, so heavy 64-GPU plans are
/// spread evenly over the run whatever the seed; the seed picks where the
/// cycle starts and the batches. Neither depends on a connection count.
pub fn misses(seed: u64, n: usize) -> Vec<String> {
    let pairs = MISS_MODELS.len() * MISS_GPUS.len();
    let mut rng = Rng::new(seed ^ 0x6d69_7373);
    let start = rng.below(pairs as u64) as usize;
    let offset = rng.below(MISS_BATCHES);
    (0..n)
        .map(|k| {
            let (pair, round) = ((start + k) % pairs, (k / pairs) as u64);
            // Each pair sees a new round every `pairs` misses, and 97 is
            // coprime with 191, so a pair's batches never repeat.
            let batch =
                MISS_BATCH_LO + ((97 * round + offset + 41 * pair as u64) % MISS_BATCHES) as u32;
            zoo_json(
                MISS_MODELS[(pair / MISS_GPUS.len()) % MISS_MODELS.len()],
                MISS_GPUS[pair % MISS_GPUS.len()],
                batch,
            )
        })
        .collect()
}

/// A seeded walk of length `n` over `len` items that visits them in a
/// fixed stride from a seeded start, so any stretch of it samples the
/// whole list evenly.
pub fn strided(seed: u64, len: usize, n: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let stride = (len / 4..len)
        .find(|&s| s > 0 && gcd(s, len) == 1)
        .unwrap_or(1);
    let start = Rng::new(seed ^ 0x7369_6d73).below(len as u64) as usize;
    (0..n).map(|k| (start + k * stride) % len).collect()
}

/// The committed fault specs `/simulate` requests replay.
pub fn fault_specs() -> Result<[(&'static str, FaultSpec); 2], String> {
    let load = |name: &'static str, text: &str| {
        FaultSpec::from_json(text)
            .map(|f| (name, f))
            .map_err(|e| format!("{name}: {e}"))
    };
    Ok([
        load("straggler", FAULTS_STRAGGLER)?,
        load("nodedrop", FAULTS_NODEDROP)?,
    ])
}

/// One `/simulate` input: a working-set spec and a fault spec.
#[derive(Clone)]
pub struct SimCase {
    pub label: String,
    pub spec_json: String,
    pub faults: FaultSpec,
    pub body: String,
}

/// Every working-set spec with the straggler faults, and the multi-machine
/// (64-GPU) ones with the node drop too (it drops machine 7).
pub fn sim_cases(working_set: &[Case]) -> Result<Vec<SimCase>, String> {
    let faults = fault_specs()?;
    let mut out = Vec::new();
    for case in working_set {
        let spec = PlanSpec::from_json(&case.json).map_err(|e| e.to_string())?;
        for (name, fault) in &faults {
            if *name == "nodedrop" && case.gpus < 64 {
                continue;
            }
            let body = JsonValue::Object(vec![
                ("spec".to_owned(), spec.to_json_value()),
                ("faults".to_owned(), fault.to_json_value()),
            ]);
            out.push(SimCase {
                label: format!("{}+{name}", case.label),
                spec_json: case.json.clone(),
                faults: fault.clone(),
                body: body.to_string(),
            });
        }
    }
    Ok(out)
}
