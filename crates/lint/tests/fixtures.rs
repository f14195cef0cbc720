//! Per-pass fixtures: each pass gets a minimal source that must fire
//! and a near-identical one that must stay clean, so a regression in
//! either direction (missed finding, false positive) fails here before
//! it reaches the real workspace.

use chopim_lint::Workspace;

fn findings_of(ws: &Workspace, pass: &str) -> Vec<String> {
    ws.run()
        .into_iter()
        .filter(|d| d.pass == pass)
        .map(|d| format!("{d}"))
        .collect()
}

// --- determinism -----------------------------------------------------

#[test]
fn determinism_flags_unordered_wallclock_and_float_order() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/probe.rs",
        "fn a() { let m: HashMap<u32, u32> = make(); }\n\
         fn b() { let t = Instant::now(); }\n\
         fn c(xs: &[f32]) { xs.sort_by(|p, q| p.partial_cmp(q).unwrap()); }\n\
         fn d(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n",
    )]);
    let found = findings_of(&ws, "determinism");
    assert_eq!(found.len(), 4, "{found:?}");
    assert!(found[0].contains("HashMap"));
    assert!(found[1].contains("Instant"));
    assert!(found[2].contains("partial_cmp"));
    assert!(found[3].contains("sum"));
}

#[test]
fn determinism_ignores_out_of_scope_tests_and_use_lines() {
    let ws = Workspace::from_sources(&[
        // chopim-exp is not a simulation crate: HashMap is fine there.
        (
            "crates/exp/src/probe.rs",
            "fn a() { let m: HashMap<u32, u32> = make(); }\n",
        ),
        // In scope, but only in a use line and inside #[cfg(test)].
        (
            "crates/core/src/probe.rs",
            "use std::collections::HashMap;\n\
             fn ok() { let m: BTreeMap<u32, u32> = make(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { let m: HashMap<u32, u32> = make(); let i = Instant::now(); }\n\
             }\n",
        ),
    ]);
    assert!(findings_of(&ws, "determinism").is_empty());
}

// --- snapshot completeness -------------------------------------------

const SNAPSHOT_GOOD: &str = "pub struct Meter { hits: u64, misses: u64 }\n\
     impl Meter {\n\
         #[cold]\n\
         pub fn snapshot(&self, w: &mut W) { w.varint(self.hits); w.varint(self.misses); }\n\
         #[cold]\n\
         pub fn resume(r: &mut R) -> Self { Meter { hits: r.varint(), misses: r.varint() } }\n\
     }\n";

#[test]
fn snapshot_complete_struct_is_clean() {
    let ws = Workspace::from_sources(&[("crates/core/src/meter.rs", SNAPSHOT_GOOD)]);
    assert!(findings_of(&ws, "snapshot").is_empty());
}

#[test]
fn snapshot_flags_field_missing_from_encode() {
    // Same struct, but the encode body forgot `misses`.
    let src = SNAPSHOT_GOOD.replace("w.varint(self.misses); ", "");
    let ws = Workspace::from_sources(&[("crates/core/src/meter.rs", &src)]);
    let found = findings_of(&ws, "snapshot");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("`misses`"), "{found:?}");
    assert!(found[0].contains("encode"), "{found:?}");
}

#[test]
fn snapshot_one_sided_signature_mention_does_not_cover() {
    // The config-input idiom: `resume(cfg: Config, ..)` consumes the
    // config, it does not serialize it — Config must stay uncovered.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/cfgin.rs",
        "pub struct Config { seed: u64, window: u64 }\n\
         pub struct Sys { tick: u64 }\n\
         impl Sys {\n\
             #[cold]\n\
             pub fn snapshot(&self, w: &mut W) { w.varint(self.tick); }\n\
             #[cold]\n\
             pub fn resume(cfg: Config, r: &mut R) -> Self { Sys { tick: r.varint() } }\n\
         }\n",
    )]);
    assert!(findings_of(&ws, "snapshot").is_empty());
}

// --- shard boundary --------------------------------------------------

#[test]
fn boundary_flags_front_end_types_in_shard_files() {
    let ws = Workspace::from_sources(&[("crates/core/src/shard.rs", "fn peek(rt: &Runtime) {}\n")]);
    let found = findings_of(&ws, "boundary");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("`Runtime` is front-end-owned"),
        "{found:?}"
    );
}

#[test]
fn boundary_flags_shard_internals_in_front_end_files() {
    let ws = Workspace::from_sources(&[("crates/core/src/system.rs", "fn poke(mc: &HostMc) {}\n")]);
    let found = findings_of(&ws, "boundary");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("`HostMc` is shard-owned"), "{found:?}");
}

#[test]
fn boundary_exempts_the_exchange_meeting_point() {
    // exchange.rs is the typed message layer: both vocabularies meet.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/exchange.rs",
        "fn route(rt: &Runtime, mc: &HostMc) {}\n",
    )]);
    assert!(findings_of(&ws, "boundary").is_empty());
}

const ARBITER_PROBE: &str = "fn pick(rt: &Runtime) -> usize { rt.arrays.len() }\n";

#[test]
fn boundary_flags_op_payloads_in_the_arbiter() {
    let ws = Workspace::from_sources(&[("crates/core/src/runtime/arbiter.rs", ARBITER_PROBE)]);
    let found = findings_of(&ws, "boundary");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("`arrays` is an op payload"), "{found:?}");
}

#[test]
fn boundary_lets_other_runtime_files_name_op_payloads() {
    // Same source one file over: the payload fence is the arbiter's alone.
    let ws = Workspace::from_sources(&[("crates/core/src/runtime/ops.rs", ARBITER_PROBE)]);
    assert!(findings_of(&ws, "boundary").is_empty());
}

// --- cold-path hygiene -----------------------------------------------

#[test]
fn coldpath_flags_codec_fns_without_cold() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/codecy.rs",
        "pub fn encode_state(w: &mut W) { w.byte(0); }\n\
         pub fn decode_state(r: &mut R) { r.byte(); }\n",
    )]);
    let found = findings_of(&ws, "coldpath");
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("encode_state"));
    assert!(found[1].contains("decode_state"));
}

#[test]
fn coldpath_accepts_cold_codecs_and_ignores_hot_fns() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/codecy.rs",
        "#[cold]\n\
         pub fn encode_state(w: &mut W) { w.byte(0); }\n\
         pub fn ready_at(now: u64) -> u64 { now + 1 }\n\
         pub fn set_default(v: u64) -> u64 { v }\n",
    )]);
    assert!(findings_of(&ws, "coldpath").is_empty());
}

// --- forbid(unsafe_code) ---------------------------------------------

#[test]
fn unsafe_pass_requires_forbid_on_crate_roots() {
    let ws = Workspace::from_sources(&[
        ("crates/foo/src/lib.rs", "pub fn x() {}\n"),
        (
            "crates/bar/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn y() {}\n",
        ),
        // Non-root files carry no obligation.
        ("crates/foo/src/inner.rs", "pub fn z() {}\n"),
    ]);
    let found = findings_of(&ws, "unsafe");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("crates/foo/src/lib.rs:1:"),
        "{found:?}"
    );
}
