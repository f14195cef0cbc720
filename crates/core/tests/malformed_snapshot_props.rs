//! Malformed-input hardening of the CHSS snapshot reader:
//! [`ChopimSystem::resume`] fed truncated, bit-flipped, or random bytes
//! must return `Err`, never panic — including v2 images carrying live
//! fault/recovery state (completion status bytes, in-flight launch
//! records, per-op recovery fields).

use chopim_core::prelude::*;
use chopim_dram::codec::{fnv1a, CodecError};
use proptest::prelude::*;

fn cfg() -> ChopimConfig {
    ChopimConfig {
        mix: MixId::new(2),
        faults: FaultPlan::parse("seed=7,transient=90,drop=100,delay=80:64"),
        instr_timeout: 8_000,
        ..ChopimConfig::default()
    }
}

/// A v2 image with real in-flight state: the machine runs under an
/// active fault plan with launches in transit before capture.
fn good_image() -> Vec<u8> {
    let mut sys = ChopimSystem::new(cfg());
    let len = 1 << 12;
    let x = sys.runtime.vector(len, Sharing::Shared);
    let y = sys.runtime.vector(len, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; len]);
    let sess = sys.runtime.default_session();
    let _op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .opts(LaunchOpts {
            granularity_lines: Some(4),
            barrier_per_chunk: false,
        })
        .deadline(1_000_000)
        .submit();
    sys.run(4_003);
    sys.snapshot().expect("mid-flight capture")
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random bytes are never a resumable image.
    #[test]
    fn prop_resume_rejects_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(ChopimSystem::resume(cfg(), &bytes).is_err());
    }

    /// Truncating a good image anywhere must error.
    #[test]
    fn prop_resume_rejects_truncation(cut in 0usize..usize::MAX) {
        let good = good_image();
        let cut = cut % good.len();
        prop_assert!(
            ChopimSystem::resume(cfg(), &good[..cut]).is_err(),
            "truncation at {cut}/{} accepted",
            good.len()
        );
    }

    /// Flipping any single bit must error (container CRC covers the
    /// whole payload).
    #[test]
    fn prop_resume_rejects_bitflips(site in any::<u64>()) {
        let mut bad = good_image();
        let byte = (mix(site) as usize) % bad.len();
        let bit = (mix(site ^ 0x5eed) % 8) as u32;
        bad[byte] ^= 1 << bit;
        prop_assert!(
            ChopimSystem::resume(cfg(), &bad).is_err(),
            "bit {bit} of byte {byte}/{} flipped and still accepted",
            bad.len()
        );
    }
}

/// The uncorrupted image still resumes and runs (guards the corruption
/// properties against a vacuously-broken capture).
#[test]
fn well_formed_image_still_resumes() {
    let image = good_image();
    let mut sys = ChopimSystem::resume(cfg(), &image).expect("clean image resumes");
    sys.run(2_000);
}

/// A well-framed image from the previous format version (v3, which
/// still carried the per-shard cached horizon) is refused by version,
/// before any payload decoding. The trailer is re-computed so only the
/// version field differs from a current image.
#[test]
fn previous_version_image_is_refused() {
    let mut old = good_image();
    old[4..8].copy_from_slice(&3u32.to_le_bytes());
    let end = old.len() - 8;
    let sum = fnv1a(&old[..end]);
    old[end..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        ChopimSystem::resume(cfg(), &old),
        Err(CodecError::BadVersion(3))
    ));
}
