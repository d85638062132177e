//! Golden digests of the exported event streams. The constants were
//! recorded before `Event` carried static state names instead of owned
//! strings; every stream must stay byte-identical:
//!
//! - the `run_observed` JSONL of the E2 and E3 presets on all ten
//!   protocols, with `ObsSpec::new`'s default lock scheme;
//! - the concatenated bodies of every regenerated figure;
//! - the trace render and the JSONL of a lock-bit spill, which pins the
//!   spill's text line and its `note` JSONL line.

use mcs_bench::figures;
use mcs_bench::obsrun::{run_observed, ObsPreset, ObsSpec};
use mcs_cache::CacheConfig;
use mcs_core::{BitarDespain, ProtocolKind};
use mcs_model::{Addr, ProcId, ProcOp};
use mcs_obs::{JsonlSink, RunMeta, SharedBuf};
use mcs_sim::{System, SystemConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const OBSERVED_JSONL: [(&str, u64, u64); 10] = [
    ("classic-wt", 0x28f3_b688_e42d_4341, 0x802c_0b59_9fc3_12c9),
    ("goodman", 0x4529_ecca_315f_4dc3, 0xfd66_66c7_b9e0_7d5e),
    ("synapse", 0x7f22_4ee1_f8ed_2595, 0x6e82_fb95_6e22_669d),
    ("illinois", 0x3d8b_613d_5118_2995, 0x65b2_816a_cfc5_82b4),
    ("yen", 0x41d7_38a9_d10a_c215, 0x7134_e9fe_e814_ec36),
    ("berkeley", 0xe82c_47db_be4f_71be, 0x9a99_8069_9fea_57a8),
    ("dragon", 0xb35f_b3b4_6c44_566c, 0x8499_3931_dcd9_67e0),
    ("firefly", 0x33c3_2cd7_b592_0785, 0x3cb8_2507_fa08_9953),
    ("rudolph-segall", 0x0fe3_6e9f_8420_041f, 0x03e8_4e43_0ed1_e26e),
    ("bitar-despain", 0xe8ff_9bee_b1c5_f520, 0x8aa1_637b_ba88_34a3),
];

const FIGURE_BODIES: u64 = 0xb56d_e456_3498_1d33;
const SPILL_RENDER: u64 = 0x62be_2dad_b484_394f;
const SPILL_JSONL: u64 = 0x4e19_96d3_4279_72b3;

#[test]
fn observed_jsonl_streams_match_the_recorded_digests() {
    let mut got = Vec::new();
    for kind in ProtocolKind::ALL {
        let digest = |preset| {
            let mut spec = ObsSpec::new(kind);
            spec.preset = preset;
            spec.json_trace = true;
            let run = run_observed(&spec);
            assert!(run.error.is_none(), "{} {}: {:?}", kind.id(), preset.id(), run.error);
            fnv1a(run.jsonl.expect("trace requested").as_bytes())
        };
        got.push((kind.id(), digest(ObsPreset::E2), digest(ObsPreset::E3)));
    }
    assert_eq!(got, OBSERVED_JSONL);
}

#[test]
fn figure_bodies_match_the_recorded_digest() {
    let bodies: String = figures::all().into_iter().map(|f| f.body).collect();
    assert_eq!(fnv1a(bodies.as_bytes()), FIGURE_BODIES);
}

#[test]
fn lock_spill_trace_and_jsonl_match_the_recorded_digests() {
    // A one-frame cache: touching a second block purges the locked one,
    // and its lock bit spills to memory.
    let cache = CacheConfig::fully_associative(1, 4).unwrap();
    let cfg = SystemConfig::new(1).with_cache(cache).with_trace(true);
    let mut s = System::new(BitarDespain, cfg).unwrap();
    let buf = SharedBuf::new();
    s.add_sink(Box::new(JsonlSink::new(buf.clone(), &RunMeta::new().with_str("run", "spill"))));
    s.run_script(
        vec![(ProcId(0), ProcOp::lock_read(Addr(0))), (ProcId(0), ProcOp::read(Addr(16)))],
        10_000,
    )
    .unwrap();
    s.finish_sinks();
    let render = s.trace().render();
    let jsonl = buf.contents();
    assert!(render.contains("-- C0 spills lock bit for B0x0 to memory"), "{render}");
    assert!(jsonl.contains(r#""type":"note""#), "{jsonl}");
    assert_eq!((fnv1a(render.as_bytes()), fnv1a(jsonl.as_bytes())), (SPILL_RENDER, SPILL_JSONL));
}
