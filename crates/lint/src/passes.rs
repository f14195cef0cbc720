//! The analysis passes.
//!
//! Each pass is a pure function from the scanned workspace to raw
//! findings; the driver in [`crate`] applies suppressions afterwards.
//! Pass scopes, boundary rules, and exemption lists are data at the top
//! of this module — the analyzer encodes the workspace's architecture,
//! so changing the architecture means changing these tables (reviewed
//! like any other invariant).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::scan::ScannedFile;
use crate::Diagnostic;

/// Crates whose `src/` trees feed `SimReport` and therefore carry the
/// determinism / snapshot / coldpath obligations.
const SIM_SCOPES: [&str; 4] = [
    "crates/core/src/",
    "crates/dram/src/",
    "crates/nda/src/",
    "crates/host/src/",
];

/// Shard-side files: nothing here may name a front-end-owned type or
/// module (PR 4's ownership split).
const SHARD_SIDE: [&str; 2] = ["crates/core/src/shard.rs", "crates/core/src/sched.rs"];

/// Front-end files: nothing here may name a shard-internal type.
const FRONT_SIDE: [&str; 2] = ["crates/core/src/system.rs", "crates/core/src/runtime.rs"];

/// Identifiers a shard-side file must not mention: front-end-owned
/// types plus the front-end module names themselves. Cross-boundary
/// traffic goes through the typed messages in `exchange.rs`
/// (which re-exports the shared vocabulary: `OpHandle`, handle codecs).
const FRONT_OWNED: [&str; 12] = [
    "Runtime",
    "Session",
    "ChopimSystem",
    "ChopimConfig",
    "OooCore",
    "OooCoreState",
    "MergeQueue",
    "Waitable",
    "StreamId",
    "SimReport",
    "runtime",
    "system",
];

/// Identifiers a front-end file must not mention: shard-internal
/// machinery (the front-end holds `ChannelShard`s as opaque units).
const SHARD_OWNED: [&str; 5] = [
    "HostMc",
    "NdaRankController",
    "NdaFsm",
    "NdaTickResult",
    "Issued",
];

/// Structs exempt from the snapshot-completeness field check: codec
/// transport types whose fields are cursor state, not machine state.
const SNAPSHOT_EXEMPT: [&str; 2] = ["ByteWriter", "ByteReader"];

fn in_sim_scope(path: &str) -> bool {
    SIM_SCOPES.iter().any(|s| path.starts_with(s))
}

fn push(diags: &mut Vec<Diagnostic>, file: &str, line: u32, pass: &'static str, msg: String) {
    diags.push(Diagnostic {
        file: file.to_string(),
        line,
        pass,
        msg,
    });
}

// --- determinism -----------------------------------------------------

/// Flag constructs whose behavior can differ between two runs of the
/// same binary on the same inputs: unordered-container iteration order,
/// wall-clock time, thread identity, pointer values, and
/// NaN-unstable / order-sensitive float folds.
pub fn determinism(files: &[ScannedFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files.iter().filter(|f| in_sim_scope(&f.path)) {
        let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
        for i in 0..f.toks.len() {
            let line = f.toks[i].line;
            if f.line_in_test(line) || f.tok_in_use(i) {
                continue;
            }
            let mut hit: Option<(&'static str, String)> = None;
            match &f.toks[i].tok {
                Tok::Ident(s) if s == "HashMap" || s == "HashSet" => {
                    hit = Some((
                        "unordered",
                        format!(
                            "`{s}` on a simulation path: iteration order is nondeterministic; \
                             use BTreeMap/BTreeSet or a sorted Vec, or allow with a reason \
                             explaining why iteration order cannot reach SimReport"
                        ),
                    ));
                }
                Tok::Ident(s) if s == "Instant" || s == "SystemTime" => {
                    hit = Some((
                        "wallclock",
                        format!("`{s}`: wall-clock time on a simulation path breaks replay"),
                    ));
                }
                Tok::Ident(s)
                    if s == "std"
                        && f.ident(i + 3) == Some("time")
                        && matches!(f.toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                        && matches!(f.toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) =>
                {
                    hit = Some((
                        "wallclock",
                        "`std::time` on a simulation path breaks replay".to_string(),
                    ));
                }
                Tok::Ident(s)
                    if s == "thread"
                        && f.ident(i + 3) == Some("current")
                        && matches!(f.toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                        && matches!(f.toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) =>
                {
                    hit = Some((
                        "threadid",
                        "`thread::current`: thread identity is schedule-dependent".to_string(),
                    ));
                }
                Tok::Ident(s) if s == "partial_cmp" => {
                    hit = Some((
                        "floatord",
                        "`partial_cmp` on a simulation path: NaN makes the order \
                         input-dependent; use `total_cmp` or integer keys"
                            .to_string(),
                    ));
                }
                Tok::Ident(s)
                    if (s == "sum" || s == "product")
                        && matches!(f.toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                        && matches!(f.toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                        && matches!(f.toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct('<')))
                        && matches!(f.ident(i + 4), Some("f32") | Some("f64")) =>
                {
                    hit = Some((
                        "floatacc",
                        format!(
                            "float `{s}` fold: accumulation order changes the result; \
                             fold in a fixed order or use integer accumulation"
                        ),
                    ));
                }
                Tok::Str(s) if s.contains("{:p}") => {
                    hit = Some((
                        "ptrfmt",
                        "pointer formatting (`{:p}`): addresses differ across runs (ASLR)"
                            .to_string(),
                    ));
                }
                _ => {}
            }
            if let Some((kind, msg)) = hit {
                if seen.insert((line, kind)) {
                    push(&mut diags, &f.path, line, "determinism", msg);
                }
            }
        }
    }
    diags
}

// --- snapshot completeness -------------------------------------------

/// Is this fn part of a codec path, and on which side?
fn codec_side(name: &str) -> Option<bool> {
    if name == "snapshot" {
        return Some(true);
    }
    if name == "resume" {
        return Some(false);
    }
    match name.split('_').next() {
        Some("encode") => Some(true),
        Some("decode") => Some(false),
        _ => None,
    }
}

/// Cross-check every snapshot-covered struct: each named field must be
/// mentioned in at least one encode body *and* one decode body.
///
/// A struct is covered when it owns a codec fn (impl self type), or
/// when codec fns on *both* sides name it in their signatures (the
/// free-fn codec idiom, `encode_meter(m: &TenantReport, ..)`). A
/// signature mention on one side only does not cover — that is the
/// config-input idiom (`resume(cfg: ChopimConfig, ..)` consumes the
/// config, it does not serialize it). The mention check runs against
/// the struct's own attributed codec bodies per side, falling back to
/// the pooled bodies of all codec fns for a side with no attributed fn
/// (a record encoded inline by its container's `encode_state`).
pub fn snapshot(files: &[ScannedFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Struct index over sim-scoped files.
    let mut structs: Vec<(usize, usize)> = Vec::new(); // (file, struct)
    for (fi, f) in files.iter().enumerate() {
        if !in_sim_scope(&f.path) {
            continue;
        }
        for (si, s) in f.structs.iter().enumerate() {
            if !s.in_test && !SNAPSHOT_EXEMPT.contains(&s.name.as_str()) {
                structs.push((fi, si));
            }
        }
    }
    let struct_names: BTreeSet<&str> = structs
        .iter()
        .map(|&(fi, si)| files[fi].structs[si].name.as_str())
        .collect();

    // Codec fns with their mentioned-ident sets.
    struct CodecFn<'a> {
        encode_side: bool,
        self_ty: Option<&'a str>,
        sig_idents: BTreeSet<&'a str>,
        body_idents: BTreeSet<&'a str>,
    }
    let mut codec_fns: Vec<CodecFn<'_>> = Vec::new();
    for f in files.iter().filter(|f| in_sim_scope(&f.path)) {
        for fun in &f.fns {
            if fun.in_test || fun.body.0 >= fun.body.1 {
                continue;
            }
            let Some(encode_side) = codec_side(&fun.name) else {
                continue;
            };
            let collect = |range: (usize, usize)| -> BTreeSet<&str> {
                f.toks[range.0..range.1]
                    .iter()
                    .filter_map(|t| match &t.tok {
                        Tok::Ident(s) => Some(s.as_str()),
                        _ => None,
                    })
                    .collect()
            };
            codec_fns.push(CodecFn {
                encode_side,
                self_ty: fun.self_ty.as_deref(),
                sig_idents: collect(fun.sig),
                body_idents: collect(fun.body),
            });
        }
    }

    // Pooled fallback sets.
    let pooled: [BTreeSet<&str>; 2] = {
        let mut enc = BTreeSet::new();
        let mut dec = BTreeSet::new();
        for c in &codec_fns {
            let set = if c.encode_side { &mut enc } else { &mut dec };
            set.extend(c.body_idents.iter().copied());
        }
        [enc, dec]
    };

    // Attribute codec fns to structs they name: by impl self type, and
    // by signature mention (free-fn codecs). Tracked separately so the
    // coverage rule can demand sig attribution on both sides.
    let mut self_attr: BTreeMap<&str, [Vec<usize>; 2]> = BTreeMap::new();
    let mut sig_attr: BTreeMap<&str, [Vec<usize>; 2]> = BTreeMap::new();
    for (ci, c) in codec_fns.iter().enumerate() {
        let side = usize::from(!c.encode_side);
        if let Some(ty) = c.self_ty {
            if struct_names.contains(ty) {
                self_attr.entry(ty).or_default()[side].push(ci);
            }
        }
        for id in c.sig_idents.iter() {
            if struct_names.contains(id) && c.self_ty != Some(id) {
                sig_attr.entry(id).or_default()[side].push(ci);
            }
        }
    }

    for &(fi, si) in &structs {
        let s = &files[fi].structs[si];
        let name = s.name.as_str();
        let self_a = self_attr.get(name);
        let sig_a = sig_attr.get(name);
        let covered = self_a.is_some_and(|a| !a[0].is_empty() || !a[1].is_empty())
            || sig_a.is_some_and(|a| !a[0].is_empty() && !a[1].is_empty());
        if !covered {
            continue; // not snapshot-covered
        }
        let attr: [Vec<usize>; 2] = [0, 1].map(|side| {
            let mut v: Vec<usize> = Vec::new();
            if let Some(a) = self_a {
                v.extend(&a[side]);
            }
            if let Some(a) = sig_a {
                v.extend(&a[side]);
            }
            v
        });
        for (field, line) in &s.fields {
            for (side, side_name) in [(0usize, "encode"), (1, "decode")] {
                let mentioned = if attr[side].is_empty() {
                    pooled[side].contains(field.as_str())
                } else {
                    attr[side]
                        .iter()
                        .any(|&ci| codec_fns[ci].body_idents.contains(field.as_str()))
                };
                if !mentioned {
                    push(
                        &mut diags,
                        &files[fi].path,
                        *line,
                        "snapshot",
                        format!(
                            "field `{field}` of snapshot-covered struct `{}` is not mentioned \
                             in any {side_name} body: serialize it (and bump the CHSS version) \
                             or allow with a reason explaining how resume rebuilds it",
                            s.name
                        ),
                    );
                }
            }
        }
    }
    diags
}

// --- shard boundary --------------------------------------------------

/// Enforce the front-end / shard ownership split: shard-side files must
/// not name front-end types or modules, front-end files must not name
/// shard-internal machinery. `exchange.rs` (the typed message layer) is
/// the one place both vocabularies may meet.
pub fn boundary(files: &[ScannedFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files {
        let (forbidden, other_side): (&[&str], &str) = if SHARD_SIDE.contains(&f.path.as_str()) {
            (&FRONT_OWNED, "front-end")
        } else if FRONT_SIDE.contains(&f.path.as_str()) {
            (&SHARD_OWNED, "shard")
        } else {
            continue;
        };
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        for i in 0..f.toks.len() {
            let line = f.toks[i].line;
            if f.line_in_test(line) {
                continue;
            }
            if let Tok::Ident(s) = &f.toks[i].tok {
                if forbidden.contains(&s.as_str()) && seen.insert((line, s.clone())) {
                    push(
                        &mut diags,
                        &f.path,
                        line,
                        "boundary",
                        format!(
                            "`{s}` is {other_side}-owned: cross-boundary traffic must go \
                             through the typed messages in exchange.rs, not direct naming"
                        ),
                    );
                }
            }
        }
    }
    diags
}

// --- cold-path hygiene -----------------------------------------------

/// Must this fn be `#[cold]`? Codec, snapshot, trace, and fault bodies
/// are never on the fast loop, but without `#[cold]` their code is laid
/// out inside it (PR 7 measured a 12% fast-loop loss from layout alone).
fn wants_cold(name: &str) -> bool {
    if name == "snapshot" || name == "resume" {
        return true;
    }
    if matches!(name.split('_').next(), Some("encode") | Some("decode")) {
        return true;
    }
    name.split('_')
        .any(|s| s == "snapshot" || s == "trace" || s == "fault" || s == "faults")
}

/// Flag cold-path fns (codec/snapshot/trace/fault) missing `#[cold]`.
pub fn coldpath(files: &[ScannedFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files.iter().filter(|f| in_sim_scope(&f.path)) {
        for fun in &f.fns {
            if fun.in_test || fun.body.0 >= fun.body.1 || fun.has_cold {
                continue;
            }
            if wants_cold(&fun.name) {
                push(
                    &mut diags,
                    &f.path,
                    fun.line,
                    "coldpath",
                    format!(
                        "cold-path fn `{}` lacks #[cold]: codec/snapshot/trace/fault bodies \
                         laid out in the fast loop cost throughput (12% measured in PR 7)",
                        fun.name
                    ),
                );
            }
        }
    }
    diags
}

// --- forbid(unsafe_code) ---------------------------------------------

/// Every workspace crate root must carry `#![forbid(unsafe_code)]` (the
/// only unsafe in the tree is the counting allocator in
/// `crates/core/tests/alloc_steady_state.rs`, a separate test crate).
pub fn forbid_unsafe(files: &[ScannedFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files {
        let is_root = f.path.starts_with("crates/")
            && (f.path.ends_with("/src/lib.rs") || f.path.ends_with("/src/main.rs"))
            && f.path.matches('/').count() == 3;
        if !is_root {
            continue;
        }
        let has = f.inner_attrs.iter().any(|s| s == "forbid")
            && f.inner_attrs.iter().any(|s| s == "unsafe_code");
        if !has {
            push(
                &mut diags,
                &f.path,
                1,
                "unsafe",
                "crate root lacks #![forbid(unsafe_code)]".to_string(),
            );
        }
    }
    diags
}
