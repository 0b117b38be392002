//! Property tests for request fingerprints and cache addressing.
//!
//! The plan cache is only sound if (a) fingerprints are a pure function of
//! request content, (b) distinct requests in the served configuration space
//! get distinct keys, and (c) a cache lookup never resolves to a value
//! stored under a different key.

use diffusionpipe_core::PlannerOptions;
use dpipe_cluster::ClusterSpec;
use dpipe_model::ModelSpec;
use dpipe_serve::{PlanRequest, PlanSpec, ShardedCache};
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;

const ZOO: [fn() -> ModelSpec; 7] = [
    dpipe_model::zoo::stable_diffusion_v2_1,
    dpipe_model::zoo::controlnet_v1_0,
    dpipe_model::zoo::cdm_lsun,
    dpipe_model::zoo::cdm_imagenet,
    dpipe_model::zoo::dit_xl_2,
    dpipe_model::zoo::sdxl_base,
    dpipe_model::zoo::imagen_base,
];

/// A point in the served configuration space, as plain data.
type Key = (usize, usize, usize, u32, bool, bool);

fn request_for((model_idx, machines, gpus, batch, fill, partial): Key) -> PlanRequest {
    let cluster = ClusterSpec {
        devices_per_machine: gpus,
        ..ClusterSpec::p4de(machines)
    };
    let spec = PlanSpec::new(ZOO[model_idx](), cluster, batch).with_options(PlannerOptions {
        bubble_filling: fill,
        partial_batch: partial,
    });
    PlanRequest::from_spec(spec).expect("inline models need no resolution")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fingerprints_are_deterministic_and_batch_sensitive(
        model_idx in 0usize..7,
        machines in 1usize..4,
        gpus in 1usize..9,
        batch in 1u32..2048,
        fill in any::<bool>(),
        partial in any::<bool>(),
    ) {
        let key = (model_idx, machines, gpus, batch, fill, partial);
        // Two independently constructed requests for the same content agree.
        prop_assert_eq!(request_for(key).fingerprint(), request_for(key).fingerprint());
        // Any single-knob change moves the key.
        let base = request_for(key).fingerprint();
        let bumped = (model_idx, machines, gpus, batch + 1, fill, partial);
        prop_assert_ne!(request_for(bumped).fingerprint(), base);
        let toggled = (model_idx, machines, gpus, batch, !fill, partial);
        prop_assert_ne!(request_for(toggled).fingerprint(), base);
    }

    #[test]
    fn cache_lookup_never_crosses_fingerprints(
        keys in collection::vec(
            (0usize..7, 1usize..3, 1usize..9, 1u32..512, any::<bool>(), any::<bool>()),
            1..24,
        ),
        shards in 1usize..9,
    ) {
        // Store each fingerprint under itself: if a lookup ever resolved to
        // an entry stored under a different key, the returned value would
        // disagree with the queried fingerprint.
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(shards, usize::MAX);
        let prints: Vec<u64> = keys.iter().map(|&k| request_for(k).fingerprint()).collect();
        for &fp in &prints {
            let (value, _) = cache.get_or_compute_observed(fp, || fp, |_| true);
            prop_assert_eq!(value, fp);
        }
        for &fp in &prints {
            prop_assert_eq!(cache.get(fp), Some(fp));
            // A key that was never inserted must read as absent, even when
            // it lands on a populated shard.
            let absent = fp ^ 1;
            if !prints.contains(&absent) {
                prop_assert_eq!(cache.get(absent), None);
            }
        }
    }
}

#[test]
fn spec_redesign_kept_the_pre_spec_cache_keys() {
    // Pinned digests of the fingerprint byte layout the serving layer has
    // used since PR 2 (homogeneous) and PR 4 (mixed classes). Warm caches
    // key on these, so the PlanSpec-derived fingerprint must reproduce
    // them forever; any drift here invalidates every deployed cache.
    use dpipe_cluster::DeviceClass;
    let sd_8gpu = PlanRequest::new(
        dpipe_model::zoo::stable_diffusion_v2_1(),
        ClusterSpec::single_node(8),
        256,
    );
    assert_eq!(sd_8gpu.fingerprint(), 0x40d3171c7735cf82);
    let dit_16gpu = PlanRequest::new(dpipe_model::zoo::dit_xl_2(), ClusterSpec::p4de(2), 128);
    assert_eq!(dit_16gpu.fingerprint(), 0xb457e20337ded2cd);
    let sd_mixed = PlanRequest::new(
        dpipe_model::zoo::stable_diffusion_v2_1(),
        ClusterSpec::mixed(&[(DeviceClass::a100(), 1), (DeviceClass::h100(), 1)]),
        256,
    );
    assert_eq!(sd_mixed.fingerprint(), 0x7e7aa9da2bd43a0a);
}

#[test]
fn fingerprints_are_collision_free_across_the_config_space() {
    // Exhaustive cartesian space: 7 models x 2 machine counts x 3 widths
    // x 4 batches x 4 option combinations = 672 distinct requests.
    let mut seen: BTreeMap<u64, Key> = BTreeMap::new();
    for model_idx in 0..ZOO.len() {
        for machines in [1usize, 2] {
            for gpus in [2usize, 4, 8] {
                for batch in [32u32, 64, 128, 256] {
                    for fill in [false, true] {
                        for partial in [false, true] {
                            let key = (model_idx, machines, gpus, batch, fill, partial);
                            let fp = request_for(key).fingerprint();
                            if let Some(other) = seen.insert(fp, key) {
                                panic!("collision: {key:?} and {other:?} share {fp:016x}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(seen.len(), 7 * 2 * 3 * 4 * 4);
}
