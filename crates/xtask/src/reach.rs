//! Panic-reachability certification of the untrusted-input surface
//! (`cargo run -p xtask -- reach`).
//!
//! The artifact store and the `hicond serve` line protocol parse bytes
//! that may arrive from another machine: any reachable panic is a remote
//! crash of a long-lived service, and any attacker-sized allocation is a
//! memory-amplification vector. This pass makes "the decode/serve surface
//! cannot panic or over-allocate on any input" a CI-enforced invariant
//! rather than a proptest-supported hope:
//!
//! 1. A declared table of **untrusted entry points** ([`ENTRY_POINTS`]):
//!    container parsing, every `Decode` impl, the graph text readers, the
//!    cache read path, and the serve request handler. The pass fails when
//!    an entry no longer resolves to a workspace function, so the
//!    inventory cannot rot silently.
//! 2. An interprocedural **call graph** over [`crate::scanner`] function
//!    extents and call sites, resolved syntactically: path qualifiers map
//!    through `hicond_<unit>::` / `<unit>::` / `crate`; `Type::method`
//!    maps through the unit declaring `Type`
//!    ([`crate::scanner::declared_types`]); a single-uppercase-letter
//!    qualifier (`T::decode`) models generic trait dispatch and fans out
//!    to every unit defining the method; `self.method()` stays in-unit;
//!    other method calls fan out to defining units unless the name is a
//!    std collision ([`COMMON_STD_NAMES`]). Calls written inside closures
//!    attribute to the enclosing function (the closure runs on the same
//!    surface); dispatch *through* closure-typed parameters is not
//!    modeled — the decode surface does not use it.
//! 3. Four sink rules over every line of every *reachable* function:
//!    `reach-panic` (`unwrap`/`expect`/`panic!`/`assert!`/…; `debug_assert!`
//!    is compiled out of release service builds and exempt),
//!    `reach-index` (slice or array indexing `x[..]`), `reach-arith`
//!    (unchecked `+ - *` on a tainted length/offset-named operand), and
//!    `reach-alloc` (`with_capacity` / `.reserve(` / `vec![_; n]` sized
//!    by a tainted value without clamp evidence). Taint is the
//!    per-function parameter-derivation summary from [`crate::taint`].
//!
//! Two escape hatches, both rendered into the committed certificate
//! (`REACHABILITY.md`, staleness-checked exactly like `UNSAFETY.md`):
//! `// reach: allow(<rule>, <reason>)` accepts one sink line with a
//! bounds argument, and `// reach: trusted(<reason>)` cuts the outgoing
//! call edges of one line — an explicit, reviewable assertion that every
//! value crossing the call was validated first, which is what keeps
//! trusted compute (the solver numerics) out of the untrusted closure.
//! Residual findings are pinned in `reach.ratchet` (shared mechanics with
//! the other ratchets); the goal state, enforced in CI, is **zero**
//! unannotated findings.

use crate::lexer::{comment_context, has_allow, ScannedFile};
use crate::ratchet::Ratchet;
use crate::scanner::{
    call_sites_in, declared_types, enclosing_function, parse, receiver_token, Function, ParsedFile,
};
use crate::taint::{clamped_before, ident_tokens, taint_summary, TaintSummary};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Name of the reach ratchet file at the repo root.
pub const REACH_RATCHET_FILE: &str = "reach.ratchet";

/// Name of the generated certificate at the repo root.
pub const REACHABILITY_FILE: &str = "REACHABILITY.md";

/// All reach rules, in reporting order.
pub const REACH_RULES: [&str; 4] = ["reach-panic", "reach-index", "reach-arith", "reach-alloc"];

/// One declared untrusted entry point.
#[derive(Debug)]
pub struct EntryPoint {
    /// Owning unit (crate dir name, or `hicond` for the root package).
    pub unit: &'static str,
    /// Bare function name (same-named functions in the unit merge).
    pub func: &'static str,
    /// Why this function receives undecoded input.
    pub why: &'static str,
}

const fn entry(unit: &'static str, func: &'static str, why: &'static str) -> EntryPoint {
    EntryPoint { unit, func, why }
}

/// The certified inventory: every function that receives bytes or text
/// not yet validated by this workspace. Adding an input surface without
/// extending this table leaves it uncovered — reviewers look here first.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    entry(
        "artifact",
        "parse",
        "container bytes read from disk or a peer",
    ),
    entry(
        "artifact",
        "decode",
        "`Decode` impls for primitives and collections",
    ),
    entry(
        "artifact",
        "decode_exact",
        "top-level decode of an untrusted byte buffer",
    ),
    entry(
        "artifact",
        "decode_section",
        "tagged section decode inside a container",
    ),
    entry(
        "artifact",
        "load",
        "cache entry bytes from the store directory",
    ),
    entry(
        "artifact",
        "verify",
        "store-wide verification walk over on-disk entries",
    ),
    entry("graph", "read_edge_list", "edge-list text from the CLI"),
    entry("graph", "read_metis", "METIS text from the CLI"),
    entry("graph", "read_dimacs", "DIMACS text from the CLI"),
    entry("linalg", "decode", "matrix / factor artifact payloads"),
    entry("core", "decode", "hierarchy option payloads"),
    entry("precond", "decode", "preconditioner artifact payloads"),
    entry("precond", "decode_solver", "full solver artifact container"),
    entry("hicond", "respond", "one `hicond serve` request line"),
    entry(
        "hicond",
        "respond_batched",
        "one request line routed through the serve batch queue",
    ),
    entry(
        "hicond",
        "read_bounded_line",
        "raw bytes from a serve peer (stdin or TCP)",
    ),
];

/// Method names whose unqualified `.name(..)` form is overwhelmingly a
/// std-library call. Resolving these to same-named workspace functions
/// would fabricate edges (`.push(` on the decode surface is `Vec::push`,
/// not a builder method elsewhere in the workspace). Calls the
/// certificate must follow use `self.`, a path qualifier, or a
/// non-colliding name — the resolution rules in the module docs.
pub const COMMON_STD_NAMES: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_str",
    "ceil",
    "chain",
    "chunks",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "default",
    "drain",
    "entry",
    "ends_with",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "find",
    "first",
    "floor",
    "flush",
    "fold",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "metadata",
    "min",
    "next",
    "parse",
    "path",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "reserve",
    "resize",
    "retain",
    "rev",
    "reverse",
    "round",
    "skip",
    "sort",
    "sort_unstable",
    "split",
    "sqrt",
    "starts_with",
    "step_by",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "transpose",
    "trim",
    "truncate",
    "values",
    "windows",
    "with_capacity",
    "write",
    "zip",
];

/// Result of a reach run.
#[derive(Debug)]
pub struct ReachOutcome {
    /// Human-readable report (always printable).
    pub report: String,
    /// Number of (unit, rule) pairs whose count rose above the pin.
    pub regressions: usize,
    /// Number of (unit, rule) pairs now below their pin.
    pub improvements: usize,
    /// True when `REACHABILITY.md` on disk does not match the regenerated
    /// certificate (run with `--write-reachability` to refresh).
    pub certificate_stale: bool,
    /// Declared entry points that resolve to no workspace function.
    pub missing_entries: usize,
}

impl ReachOutcome {
    /// True when the reach pass should exit successfully.
    pub fn passed(&self) -> bool {
        self.regressions == 0 && !self.certificate_stale && self.missing_entries == 0
    }
}

/// One unannotated finding on the untrusted surface.
#[derive(Debug)]
struct Finding {
    unit: String,
    rel_path: String,
    line: usize,
    rule: &'static str,
    message: String,
}

/// One `reach: allow`-annotated sink (rendered into the certificate).
#[derive(Debug)]
struct AllowedSite {
    rel_path: String,
    line: usize,
    rule: &'static str,
    reason: String,
}

/// One `reach: trusted` call-edge cut (rendered into the certificate).
#[derive(Debug)]
struct TrustBoundary {
    rel_path: String,
    line: usize,
    reason: String,
}

/// A parsed workspace source file.
struct SourceFile {
    unit: String,
    rel_path: String,
    parsed: ParsedFile,
}

/// Everything one reach analysis produces; shared by the ratchet driver
/// and `--explain`.
struct Analysis {
    files: Vec<SourceFile>,
    /// Nodes reachable from the resolved entry points.
    reachable: BTreeSet<String>,
    /// BFS predecessor: node → (pred node, call rel_path, call line).
    pred: BTreeMap<String, (String, String, usize)>,
    /// `unit::func` entries that resolve to no function.
    missing_entries: Vec<String>,
    /// Reachable-node count per entry (by table order).
    entry_reach: Vec<usize>,
    findings: Vec<Finding>,
    allowed: Vec<AllowedSite>,
    boundaries: Vec<TrustBoundary>,
    /// Syntactic sink sites examined per rule (matched before allow).
    sinks_examined: BTreeMap<&'static str, usize>,
    /// Total function-group nodes in scope.
    node_count: usize,
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for e in entries {
        let e = e.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        paths.push(e.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan roots: `crates/*/src` plus the root package `src/`. Tests and
/// examples are out of scope (they are not the service surface), and
/// `vendor/` is out of scope (the decode path never calls into it — a
/// resolution that did would be a finding worth surfacing by name
/// collision anyway).
fn scan_roots(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut roots: Vec<(String, PathBuf)> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut subdirs: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("reading {}: {e}", crates.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        for sub in subdirs {
            let name = sub
                .file_name()
                .and_then(|f| f.to_str())
                .ok_or_else(|| format!("non-UTF-8 dir under {}", crates.display()))?
                .to_string();
            let src = sub.join("src");
            if src.is_dir() {
                roots.push((name, src));
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        roots.push(("hicond".to_string(), root_src));
    }
    Ok(roots)
}

fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    for (unit, dir) in scan_roots(root)? {
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        for file in files {
            let source = std::fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            let rel_path = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            out.push(SourceFile {
                unit: unit.clone(),
                rel_path,
                parsed: parse(&source),
            });
        }
    }
    Ok(out)
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True when the line's comment carries a `reach: trusted(..)` marker.
fn has_trusted(ctx: &str) -> bool {
    ctx.contains("reach: trusted(")
}

/// Reason text inside `reach: trusted(<reason>)`.
fn trusted_reason(ctx: &str) -> String {
    marker_reason(ctx, "reach: trusted(", "")
}

/// Reason text inside `reach: allow(<rule>, <reason>)`.
fn allow_reason(ctx: &str, rule: &str) -> String {
    marker_reason(ctx, "reach: allow(", rule)
}

fn marker_reason(ctx: &str, prefix: &str, rule: &str) -> String {
    let Some(pos) = ctx.find(prefix) else {
        return "(no reason given)".to_string();
    };
    let rest = ctx.get(pos + prefix.len()..).unwrap_or("");
    let rest = rest.strip_prefix(rule).unwrap_or(rest);
    let rest = rest.trim_start().trim_start_matches(',').trim_start();
    let upto = rest.find(')').unwrap_or(rest.len());
    let reason = rest.get(..upto).unwrap_or("").trim();
    if reason.is_empty() {
        "(no reason given)".to_string()
    } else {
        reason.to_string()
    }
}

// ---------------------------------------------------------------------
// Call-graph construction and resolution
// ---------------------------------------------------------------------

/// Node id for the `name` definitions in file `i`. Nodes are file-scoped
/// so that same-named functions in different files (every `new`, every
/// `decode`) stay distinct and a `Type::method` call lands only in the
/// file declaring `Type`.
fn node_id(files: &[SourceFile], i: usize, name: &str) -> String {
    format!("{}::{}@{}", files[i].unit, name, files[i].rel_path)
}

/// Resolves one call site to the set of files whose `name` definitions it
/// may dispatch to. See the module docs for the rule table; proximity
/// wins — same file, then same unit, then every definer.
#[allow(clippy::too_many_arguments)]
fn resolve_files(
    caller: usize,
    callee: &str,
    qualifier: Option<&str>,
    is_method: bool,
    receiver: &str,
    files: &[SourceFile],
    defined: &BTreeMap<String, BTreeSet<usize>>,
    type_files: &BTreeMap<String, BTreeSet<usize>>,
    units: &BTreeSet<String>,
) -> Vec<usize> {
    let Some(defs) = defined.get(callee) else {
        return Vec::new();
    };
    let unit = &files[caller].unit;
    let all = || defs.iter().copied().collect::<Vec<usize>>();
    let in_unit = |q: &str| {
        defs.iter()
            .copied()
            .filter(|&i| files[i].unit == q)
            .collect::<Vec<usize>>()
    };
    let same_file_else_unit = || {
        if defs.contains(&caller) {
            vec![caller]
        } else {
            in_unit(unit)
        }
    };
    match qualifier {
        Some("crate") => in_unit(unit),
        Some("self") | Some("Self") => same_file_else_unit(),
        Some(q) => {
            if units.contains(q) {
                in_unit(q)
            } else if let Some(stripped) = q.strip_prefix("hicond_") {
                if units.contains(stripped) {
                    in_unit(stripped)
                } else {
                    Vec::new()
                }
            } else if q.len() == 1 && q.chars().all(|c| c.is_ascii_uppercase()) {
                // Generic parameter: trait dispatch, any impl can run.
                all()
            } else if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                match type_files.get(q) {
                    Some(owners) => {
                        let hit: Vec<usize> = defs
                            .iter()
                            .copied()
                            .filter(|i| owners.contains(i))
                            .collect();
                        if !hit.is_empty() {
                            return hit;
                        }
                        // Trait default method or cross-file impl: stay
                        // inside the units that declare the type.
                        let owner_units: BTreeSet<&String> =
                            owners.iter().map(|&i| &files[i].unit).collect();
                        let unit_hit: Vec<usize> = defs
                            .iter()
                            .copied()
                            .filter(|&i| owner_units.contains(&files[i].unit))
                            .collect();
                        if !unit_hit.is_empty() {
                            unit_hit
                        } else {
                            all()
                        }
                    }
                    // `String::`, `Vec::`, … — a std type, external.
                    None => Vec::new(),
                }
            } else {
                // `std::`, `io::`, … — external.
                Vec::new()
            }
        }
        None if is_method => {
            if receiver == "self" {
                same_file_else_unit()
            } else if COMMON_STD_NAMES.contains(&callee) {
                Vec::new()
            } else {
                // A bare method call is most likely on a locally-defined
                // type: prefer the calling unit's definitions, fan out to
                // every definer only for genuinely imported methods.
                let s = in_unit(unit);
                if !s.is_empty() {
                    s
                } else {
                    all()
                }
            }
        }
        None => {
            // Unqualified free call: proximity wins; a use-imported
            // cross-unit function falls back to all definers.
            let s = same_file_else_unit();
            if !s.is_empty() {
                s
            } else {
                all()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sink rules
// ---------------------------------------------------------------------

const PANIC_SINKS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Finds `tok` in `code` requiring a non-identifier character before it
/// (so `assert!(` does not match inside `debug_assert!(`).
fn find_sink_token(code: &str, tok: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code.get(from..).and_then(|s| s.find(tok)) {
        let abs = from + pos;
        if abs == 0 || !is_ident_char(bytes[abs.saturating_sub(1)]) {
            return Some(abs);
        }
        from = abs + tok.len();
    }
    None
}

/// First panic-capable token on the line, if any.
fn panic_sink(code: &str) -> Option<&'static str> {
    PANIC_SINKS
        .iter()
        .find(|tok| find_sink_token(code, tok).is_some())
        .copied()
}

/// True when the line contains slice/array indexing `expr[..]`: a `[`
/// directly preceded by an identifier char, `)`, `]`, or `?`. Attribute
/// lines (`#[..]`) and macro brackets (`vec![`) do not match.
fn has_index_sink(code: &str) -> bool {
    if code.trim_start().starts_with("#[") {
        return false;
    }
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i.saturating_sub(1)];
        if is_ident_char(prev) || prev == b')' || prev == b']' || prev == b'?' {
            return true;
        }
    }
    false
}

/// Name fragments marking an identifier as a length/offset/size value.
const SIZEY_FRAGMENTS: &[&str] = &[
    "len", "size", "count", "offset", "cursor", "pos", "cap", "need", "total",
];

fn is_sizey(ident: &str) -> bool {
    let lower = ident.to_lowercase();
    SIZEY_FRAGMENTS.iter().any(|f| lower.contains(f))
}

/// Walks a dotted chain (`self.buf.len`) left from byte `end` (exclusive)
/// and returns (leaf ident, root ident).
fn dotted_chain_left(bytes: &[u8], end: usize) -> (String, String) {
    let mut seg_end = end;
    let mut leaf = String::new();
    let mut root = String::new();
    loop {
        let mut start = seg_end;
        while start > 0 && is_ident_char(bytes[start.saturating_sub(1)]) {
            start = start.saturating_sub(1);
        }
        let seg: String = bytes
            .get(start..seg_end)
            .unwrap_or(&[])
            .iter()
            .map(|&b| char::from(b))
            .collect();
        if seg.is_empty() {
            break;
        }
        if leaf.is_empty() {
            leaf = seg.clone();
        }
        root = seg;
        if start == 0 || bytes[start.saturating_sub(1)] != b'.' {
            break;
        }
        seg_end = start.saturating_sub(1);
    }
    (leaf, root)
}

/// Unchecked-arithmetic sink: a `+`, `-`, or `*` whose adjacent operand
/// is a tainted, length-named identifier, on a line with no checked /
/// saturating / clamping arithmetic.
fn arith_sink(code: &str, taint: &TaintSummary) -> Option<String> {
    for guard in ["checked_", "saturating_", "wrapping_", ".min(", ".clamp("] {
        if code.contains(guard) {
            return None;
        }
    }
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'+' && b != b'-' && b != b'*' {
            continue;
        }
        // `->`, `=>`-adjacent, unary context, `**` doc stars.
        if bytes.get(i + 1) == Some(&b'>') || (i > 0 && bytes[i.saturating_sub(1)] == b'<') {
            continue;
        }
        // Left operand: skip spaces, then require an identifier chain.
        let mut l = i;
        while l > 0 && bytes[l.saturating_sub(1)] == b' ' {
            l = l.saturating_sub(1);
        }
        let mut candidates: Vec<(String, String)> = Vec::new();
        if l > 0 && is_ident_char(bytes[l.saturating_sub(1)]) {
            candidates.push(dotted_chain_left(bytes, l));
        } else if l == i && b != b'-' {
            // No spacing and non-ident left for `+`/`*`: not a binary op
            // we can name; `-` may still be unary either way.
        }
        // Right operand: skip compound `=` and spaces, take the ident.
        let mut r = i + 1;
        if bytes.get(r) == Some(&b'=') {
            r += 1;
        }
        while bytes.get(r) == Some(&b' ') {
            r += 1;
        }
        let mut rend = r;
        while rend < bytes.len() && is_ident_char(bytes[rend]) {
            rend += 1;
        }
        if rend > r && !bytes[r].is_ascii_digit() {
            let ident: String = bytes
                .get(r..rend)
                .unwrap_or(&[])
                .iter()
                .map(|&b| char::from(b))
                .collect();
            candidates.push((ident.clone(), ident));
        }
        for (leaf, chain_root) in candidates {
            let operand_tainted = taint.is_tainted(&chain_root) || taint.is_tainted(&leaf);
            if operand_tainted && is_sizey(&leaf) {
                let op = char::from(b);
                return Some(format!(
                    "unchecked `{op}` on tainted length-like operand `{leaf}`"
                ));
            }
        }
    }
    None
}

/// Extracts the argument text of the first `pat` occurrence: balanced
/// parens for calls, the repeat-count arm for `vec![x; n]`.
fn sink_arg_text(code: &str, pat: &str) -> Option<String> {
    let pos = code.find(pat)?;
    let open_is_bracket = pat.ends_with('[');
    let (open, close) = if open_is_bracket {
        ('[', ']')
    } else {
        ('(', ')')
    };
    let rest = code.get(pos + pat.len()..)?;
    let mut depth = 1i32;
    let mut arg = String::new();
    for c in rest.chars() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        arg.push(c);
    }
    if open_is_bracket {
        // `vec![elem; n]` — the size expression after the top-level `;`.
        let cut = arg.rfind(';')?;
        return arg.get(cut + 1..).map(|s| s.to_string());
    }
    Some(arg)
}

/// Allocation-amplification sink: a capacity request sized by a tainted
/// identifier with no clamp evidence on the line or earlier in the
/// function.
fn alloc_sink(
    file: &ScannedFile,
    func: &Function,
    taint: &TaintSummary,
    idx: usize,
) -> Option<String> {
    let code = &file.lines[idx].code;
    for pat in ["with_capacity(", ".reserve(", "vec!["] {
        // A `fn with_capacity(n: usize)` declaration is not a call site.
        if let Some(pos) = code.find(pat) {
            if code
                .get(..pos)
                .is_some_and(|before| before.ends_with("fn "))
            {
                continue;
            }
        }
        let Some(arg) = sink_arg_text(code, pat) else {
            continue;
        };
        for ident in ident_tokens(&arg) {
            if !taint.is_tainted(&ident) {
                continue;
            }
            if clamped_before(file, func, &ident, idx) {
                continue;
            }
            return Some(format!(
                "capacity `{}` sized by tainted `{ident}` with no clamp evidence",
                pat.trim_end_matches(['(', '['])
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Analysis driver
// ---------------------------------------------------------------------

fn analyze_workspace(root: &Path, entries: &[EntryPoint]) -> Result<Analysis, String> {
    let files = collect_workspace(root)?;
    let units: BTreeSet<String> = files.iter().map(|f| f.unit.clone()).collect();

    // fn name → defining files; type name → declaring files.
    let mut defined: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut type_files: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (i, sf) in files.iter().enumerate() {
        for t in declared_types(&sf.parsed.scanned) {
            type_files.entry(t).or_default().insert(i);
        }
        for func in &sf.parsed.functions {
            if func.in_test_code {
                continue;
            }
            defined.entry(func.name.clone()).or_default().insert(i);
        }
    }

    // Edges + trust boundaries.
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut edge_site: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut boundaries: Vec<TrustBoundary> = Vec::new();
    let mut node_set: BTreeSet<String> = BTreeSet::new();
    for (fi, sf) in files.iter().enumerate() {
        let file = &sf.parsed.scanned;
        for func in &sf.parsed.functions {
            if func.in_test_code {
                continue;
            }
            let from = node_id(&files, fi, &func.name);
            node_set.insert(from.clone());
            let mut trusted_lines: BTreeMap<usize, bool> = BTreeMap::new();
            for site in call_sites_in(file, func) {
                let ctx_trusted = *trusted_lines.entry(site.line_idx).or_insert_with(|| {
                    let ctx = comment_context(file, site.line_idx);
                    if has_trusted(&ctx) {
                        boundaries.push(TrustBoundary {
                            rel_path: sf.rel_path.clone(),
                            line: file.lines[site.line_idx].number,
                            reason: trusted_reason(&ctx),
                        });
                        true
                    } else {
                        false
                    }
                });
                if ctx_trusted {
                    continue;
                }
                let receiver = if site.is_method && site.col > 0 {
                    receiver_token(&file.lines[site.line_idx].code, site.col.saturating_sub(1))
                        .to_string()
                } else {
                    String::new()
                };
                let targets = resolve_files(
                    fi,
                    &site.callee,
                    site.qualifier.as_deref(),
                    site.is_method,
                    &receiver,
                    &files,
                    &defined,
                    &type_files,
                    &units,
                );
                for ti in targets {
                    let to = node_id(&files, ti, &site.callee);
                    if to == from {
                        continue;
                    }
                    edges.entry(from.clone()).or_default().insert(to.clone());
                    edge_site
                        .entry((from.clone(), to))
                        .or_insert_with(|| (sf.rel_path.clone(), file.lines[site.line_idx].number));
                }
            }
        }
    }

    // Entry seeds: every file of the entry's unit defining the function.
    let entry_seeds = |e: &EntryPoint| -> Vec<String> {
        defined
            .get(e.func)
            .map(|set| {
                set.iter()
                    .copied()
                    .filter(|&i| files[i].unit == e.unit)
                    .map(|i| node_id(&files, i, e.func))
                    .collect()
            })
            .unwrap_or_default()
    };

    // BFS from the resolved entry points.
    let mut reachable: BTreeSet<String> = BTreeSet::new();
    let mut pred: BTreeMap<String, (String, String, usize)> = BTreeMap::new();
    let mut missing_entries: Vec<String> = Vec::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    for e in entries {
        let seeds = entry_seeds(e);
        if seeds.is_empty() {
            missing_entries.push(format!("{}::{}", e.unit, e.func));
            continue;
        }
        for node in seeds {
            if reachable.insert(node.clone()) {
                queue.push_back(node);
            }
        }
    }
    while let Some(cur) = queue.pop_front() {
        if let Some(tos) = edges.get(&cur) {
            for to in tos {
                if reachable.insert(to.clone()) {
                    if let Some((p, l)) = edge_site.get(&(cur.clone(), to.clone())) {
                        pred.insert(to.clone(), (cur.clone(), p.clone(), *l));
                    }
                    queue.push_back(to.clone());
                }
            }
        }
    }

    // Per-entry reachable counts (small graph; a BFS per entry is cheap).
    let mut entry_reach: Vec<usize> = Vec::new();
    for e in entries {
        let seeds = entry_seeds(e);
        if seeds.is_empty() {
            entry_reach.push(0);
            continue;
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut q: VecDeque<String> = VecDeque::new();
        for node in seeds {
            if seen.insert(node.clone()) {
                q.push_back(node);
            }
        }
        while let Some(cur) = q.pop_front() {
            if let Some(tos) = edges.get(&cur) {
                for to in tos {
                    if seen.insert(to.clone()) {
                        q.push_back(to.clone());
                    }
                }
            }
        }
        entry_reach.push(seen.len());
    }

    // Sink rules over reachable function bodies.
    let mut findings: Vec<Finding> = Vec::new();
    let mut allowed: Vec<AllowedSite> = Vec::new();
    let mut sinks_examined: BTreeMap<&'static str, usize> = BTreeMap::new();
    for rule in REACH_RULES {
        sinks_examined.insert(rule, 0);
    }
    for (fi, sf) in files.iter().enumerate() {
        let file = &sf.parsed.scanned;
        for func in &sf.parsed.functions {
            if func.in_test_code {
                continue;
            }
            let node = node_id(&files, fi, &func.name);
            if !reachable.contains(&node) {
                continue;
            }
            let taint = taint_summary(file, func);
            let body_end = func.end.min(file.lines.len());
            for idx in func.start..body_end {
                let line = &file.lines[idx];
                // Skip lines owned by a nested fn item (they get their
                // own Function entry) — the innermost function wins.
                if enclosing_function(&sf.parsed.functions, idx)
                    .is_some_and(|f| f.start != func.start)
                {
                    continue;
                }
                let mut hits: Vec<(&'static str, String)> = Vec::new();
                if let Some(tok) = panic_sink(&line.code) {
                    hits.push((
                        "reach-panic",
                        format!(
                            "`{}` reachable from the untrusted surface",
                            tok.trim_start_matches('.')
                        ),
                    ));
                }
                if has_index_sink(&line.code) {
                    hits.push((
                        "reach-index",
                        "slice/array indexing reachable from the untrusted surface".to_string(),
                    ));
                }
                if let Some(msg) = arith_sink(&line.code, &taint) {
                    hits.push(("reach-arith", msg));
                }
                if let Some(msg) = alloc_sink(file, func, &taint, idx) {
                    hits.push(("reach-alloc", msg));
                }
                if hits.is_empty() {
                    continue;
                }
                let ctx = comment_context(file, idx);
                for (rule, message) in hits {
                    if let Some(n) = sinks_examined.get_mut(rule) {
                        *n = n.saturating_add(1);
                    }
                    if has_allow(&ctx, rule) {
                        allowed.push(AllowedSite {
                            rel_path: sf.rel_path.clone(),
                            line: line.number,
                            rule,
                            reason: allow_reason(&ctx, rule),
                        });
                    } else {
                        findings.push(Finding {
                            unit: sf.unit.clone(),
                            rel_path: sf.rel_path.clone(),
                            line: line.number,
                            rule,
                            message,
                        });
                    }
                }
            }
        }
    }

    // Deterministic ordering for rendering and diffs.
    boundaries.sort_by(|a, b| (&a.rel_path, a.line).cmp(&(&b.rel_path, b.line)));
    boundaries.dedup_by(|a, b| a.rel_path == b.rel_path && a.line == b.line);
    allowed.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    findings.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));

    Ok(Analysis {
        node_count: node_set.len(),
        files,
        reachable,
        pred,
        missing_entries,
        entry_reach,
        findings,
        allowed,
        boundaries,
        sinks_examined,
    })
}

// ---------------------------------------------------------------------
// Certificate rendering
// ---------------------------------------------------------------------

fn render_certificate(a: &Analysis, entries: &[EntryPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Panic-reachability certificate");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Generated by `cargo run -p xtask -- reach --write-reachability`. Do not\n\
         edit by hand: `xtask reach` fails when this file is stale."
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Certified invariant: starting from the untrusted entry points below,\n\
         every reachable panic-capable operation is either removed or carries a\n\
         reviewed `reach: allow(rule, reason)` bounds argument, and every\n\
         input-sized allocation is clamped. Unannotated findings are pinned in\n\
         `reach.ratchet` (goal and current pin: zero); counts above the pin\n\
         fail CI."
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Untrusted entry points");
    let _ = writeln!(out);
    for (i, e) in entries.iter().enumerate() {
        let reach_n = a.entry_reach.get(i).copied().unwrap_or(0);
        let node = format!("{}::{}", e.unit, e.func);
        if a.missing_entries.contains(&node) {
            let _ = writeln!(
                out,
                "- `{node}` — {} — **MISSING** (no such function)",
                e.why
            );
        } else {
            let _ = writeln!(
                out,
                "- `{node}` — {} — reaches {reach_n} function group(s)",
                e.why
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Trust boundaries");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Call sites where validated data crosses into trusted compute\n\
         (`reach: trusted(reason)` cuts the outgoing call edges; the reason is\n\
         the validation argument):"
    );
    let _ = writeln!(out);
    if a.boundaries.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for b in &a.boundaries {
        let _ = writeln!(out, "- `{}:{}` — {}", b.rel_path, b.line, b.reason);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Accepted sinks");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Panic-capable operations on the surface annotated\n\
         `reach: allow(rule, reason)` with a bounds argument:"
    );
    let _ = writeln!(out);
    if a.allowed.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for s in &a.allowed {
        let _ = writeln!(
            out,
            "- `{}:{}` `{}` — {}",
            s.rel_path, s.line, s.rule, s.reason
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Summary");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "- {} function group(s) in scope, {} reachable from the untrusted surface",
        a.node_count,
        a.reachable.len()
    );
    let examined: Vec<String> = REACH_RULES
        .iter()
        .map(|r| {
            format!(
                "{} {}",
                a.sinks_examined.get(r).copied().unwrap_or(0),
                r.trim_start_matches("reach-")
            )
        })
        .collect();
    let _ = writeln!(out, "- sinks examined: {}", examined.join(", "));
    let _ = writeln!(
        out,
        "- accepted sinks: {}, trust boundaries: {}",
        a.allowed.len(),
        a.boundaries.len()
    );
    let _ = writeln!(
        out,
        "- unannotated findings: {} (pinned in `reach.ratchet`)",
        a.findings.len()
    );
    out
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// Runs the reach pass over the workspace at `root` against the declared
/// [`ENTRY_POINTS`].
///
/// With `write_ratchet`, measured counts become the new `reach.ratchet`
/// baseline; with `write_reachability`, the regenerated certificate is
/// written to `REACHABILITY.md`. Otherwise counts are compared against
/// the pins and the on-disk certificate must match the regenerated one.
pub fn run_reach(
    root: &Path,
    write_ratchet: bool,
    write_reachability: bool,
) -> Result<ReachOutcome, String> {
    run_reach_with(root, ENTRY_POINTS, write_ratchet, write_reachability)
}

/// [`run_reach`] with an explicit entry table (exposed for the unit
/// tests, which build throwaway workspaces with their own entries).
pub fn run_reach_with(
    root: &Path,
    entries: &[EntryPoint],
    write_ratchet: bool,
    write_reachability: bool,
) -> Result<ReachOutcome, String> {
    let a = analyze_workspace(root, entries)?;
    let mut report = String::new();

    for node in &a.missing_entries {
        let _ = writeln!(
            report,
            "MISSING ENTRY `{node}`: declared in the reach inventory but resolves to no \
             workspace function (update reach::ENTRY_POINTS)"
        );
    }

    let certificate = render_certificate(&a, entries);
    let certificate_path = root.join(REACHABILITY_FILE);
    let mut certificate_stale = false;
    if write_reachability {
        std::fs::write(&certificate_path, &certificate)
            .map_err(|e| format!("writing {}: {e}", certificate_path.display()))?;
        let _ = writeln!(report, "wrote {}", certificate_path.display());
    } else {
        let on_disk = std::fs::read_to_string(&certificate_path).unwrap_or_default();
        if on_disk != certificate {
            certificate_stale = true;
            let _ = writeln!(
                report,
                "STALE {}: regenerate with `cargo run -p xtask -- reach --write-reachability`",
                certificate_path.display()
            );
        }
    }

    // Ratchet mechanics (shared with audit/analyze).
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &a.findings {
        *counts
            .entry((f.unit.clone(), f.rule.to_string()))
            .or_insert(0) += 1;
    }
    let ratchet_path = root.join(REACH_RATCHET_FILE);
    let mut regressions = 0usize;
    let mut improvements = 0usize;

    if write_ratchet {
        let r = Ratchet::from_counts(&counts);
        std::fs::write(&ratchet_path, r.serialize_titled("reach", "finding"))
            .map_err(|e| format!("writing {}: {e}", ratchet_path.display()))?;
        let total: usize = counts.values().sum();
        let _ = writeln!(
            report,
            "reach: scanned {} files, pinned {total} finding(s) in {}",
            a.files.len(),
            ratchet_path.display()
        );
        return Ok(ReachOutcome {
            report,
            regressions: 0,
            improvements: 0,
            certificate_stale,
            missing_entries: a.missing_entries.len(),
        });
    }

    let pinned = Ratchet::load(&ratchet_path)?;
    let mut keys: BTreeSet<(String, String)> = counts.keys().cloned().collect();
    let units: BTreeSet<String> = a.files.iter().map(|f| f.unit.clone()).collect();
    for unit in &units {
        for rule in REACH_RULES {
            keys.insert((unit.clone(), rule.to_string()));
        }
    }
    for (unit, rule) in &keys {
        let found = counts
            .get(&(unit.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        let pin = pinned.pinned(unit, rule);
        if found > pin {
            regressions += 1;
            let _ = writeln!(
                report,
                "REGRESSION [{unit}/{rule}]: {found} finding(s) (ratchet pins {pin})"
            );
            for f in a
                .findings
                .iter()
                .filter(|f| f.unit == *unit && f.rule == *rule)
            {
                let _ = writeln!(
                    report,
                    "  {rule} {}:{} {} [explain: cargo run -p xtask -- reach --explain {}:{}]",
                    f.rel_path, f.line, f.message, f.rel_path, f.line
                );
            }
        } else if found < pin {
            improvements += 1;
            let _ = writeln!(
                report,
                "improved [{unit}/{rule}]: {found} finding(s) (ratchet pins {pin}) — \
                 run `cargo run -p xtask -- reach --write-ratchet` to lock in"
            );
        }
    }

    let total: usize = counts.values().sum();
    let _ = writeln!(
        report,
        "reach: scanned {} files, {} entry point(s), {} reachable function group(s), \
         {} accepted sink(s), {total} ratcheted finding(s), {regressions} regression(s), \
         {improvements} improvement(s)",
        a.files.len(),
        entries.len(),
        a.reachable.len(),
        a.allowed.len(),
    );

    Ok(ReachOutcome {
        report,
        regressions,
        improvements,
        certificate_stale,
        missing_entries: a.missing_entries.len(),
    })
}

/// Prints the entry-point-to-sink call chain for a finding id of the form
/// `[rule@]<rel_path>:<line>` (the form the regression report prints).
pub fn explain(root: &Path, id: &str) -> Result<String, String> {
    explain_with(root, ENTRY_POINTS, id)
}

/// [`explain`] with an explicit entry table (for the unit tests).
pub fn explain_with(root: &Path, entries: &[EntryPoint], id: &str) -> Result<String, String> {
    let spec = id.split('@').next_back().unwrap_or(id);
    let Some((path_part, line_part)) = spec.rsplit_once(':') else {
        return Err(format!("bad finding id `{id}` (want [rule@]path:line)"));
    };
    let line_no: usize = line_part
        .parse()
        .map_err(|_| format!("bad line number in `{id}`"))?;
    let a = analyze_workspace(root, entries)?;
    let Some(sf) = a
        .files
        .iter()
        .find(|f| f.rel_path == path_part || f.rel_path.ends_with(path_part))
    else {
        return Err(format!("no scanned file matches `{path_part}`"));
    };
    let idx = line_no.saturating_sub(1);
    let Some(func) = enclosing_function(&sf.parsed.functions, idx) else {
        return Err(format!(
            "{}:{line_no} is not inside a function body",
            sf.rel_path
        ));
    };
    let node = format!("{}::{}@{}", sf.unit, func.name, sf.rel_path);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "site {}:{line_no} — fn `{}` (node `{node}`)",
        sf.rel_path, func.name
    );
    for f in a
        .findings
        .iter()
        .filter(|f| f.rel_path == sf.rel_path && f.line == line_no)
    {
        let _ = writeln!(out, "  finding: {} — {}", f.rule, f.message);
    }
    for s in a
        .allowed
        .iter()
        .filter(|s| s.rel_path == sf.rel_path && s.line == line_no)
    {
        let _ = writeln!(out, "  accepted: {} — {}", s.rule, s.reason);
    }
    if !a.reachable.contains(&node) {
        let _ = writeln!(
            out,
            "  NOT reachable from any declared untrusted entry point"
        );
        return Ok(out);
    }
    // Walk predecessors back to an entry, then print forward.
    let mut chain: Vec<(String, Option<(String, usize)>)> = Vec::new();
    let mut cur = node;
    let mut hops = 0usize;
    while let Some((p, site_path, site_line)) = a.pred.get(&cur) {
        chain.push((cur.clone(), Some((site_path.clone(), *site_line))));
        cur = p.clone();
        hops = hops.saturating_add(1);
        if hops > a.reachable.len() {
            break; // defensive: predecessor maps cannot cycle, but cap anyway
        }
    }
    chain.push((cur, None));
    chain.reverse();
    for (i, (n, via)) in chain.iter().enumerate() {
        match via {
            None => {
                let why = entries
                    .iter()
                    .find(|e| n.starts_with(&format!("{}::{}@", e.unit, e.func)))
                    .map(|e| e.why)
                    .unwrap_or("(entry)");
                let _ = writeln!(out, "  entry `{n}` — {why}");
            }
            Some((p, l)) => {
                let indent = "  ".repeat(i.min(8));
                let _ = writeln!(out, "  {indent}-> `{n}` (call at {p}:{l})");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a throwaway mini-workspace under the system temp dir.
    struct TempWorkspace {
        root: PathBuf,
    }

    impl TempWorkspace {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("xtask-reach-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(root.join("crates/demo/src")).unwrap();
            Self { root }
        }

        fn write(&self, rel: &str, content: &str) {
            let path = self.root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
        }
    }

    impl Drop for TempWorkspace {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    const ENTRIES: &[EntryPoint] = &[entry("demo", "decode", "test bytes")];

    fn run(ws: &TempWorkspace) -> ReachOutcome {
        run_reach_with(&ws.root, ENTRIES, false, false).unwrap()
    }

    fn run_written(ws: &TempWorkspace) -> ReachOutcome {
        run_reach_with(&ws.root, ENTRIES, true, true).unwrap();
        run(ws)
    }

    #[test]
    fn panic_in_entry_point_flagged() {
        let ws = TempWorkspace::new("panic");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    b.first().copied().unwrap()\n}\n",
        );
        let out = run(&ws);
        assert!(!out.passed());
        assert!(out.report.contains("reach-panic"), "{}", out.report);
        assert!(out.report.contains("lib.rs:2"), "{}", out.report);
    }

    #[test]
    fn panic_behind_call_chain_flagged() {
        let ws = TempWorkspace::new("chain");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    helper(b)\n}\nfn helper(b: &[u8]) -> u8 {\n    b[0]\n}\n",
        );
        let out = run(&ws);
        assert!(out.report.contains("reach-index"), "{}", out.report);
        assert!(out.report.contains("lib.rs:5"), "{}", out.report);
    }

    #[test]
    fn unreachable_panic_not_flagged() {
        let ws = TempWorkspace::new("unreach");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> usize {\n    b.len()\n}\npub fn other() {\n    panic!(\"not on the surface\");\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
    }

    #[test]
    fn cross_unit_qualified_call_followed() {
        let ws = TempWorkspace::new("crossunit");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    hicond_util::pick(b)\n}\n",
        );
        ws.write(
            "crates/util/src/lib.rs",
            "pub fn pick(b: &[u8]) -> u8 {\n    b[1]\n}\n",
        );
        let out = run(&ws);
        assert!(
            out.report.contains("REGRESSION [util/reach-index]"),
            "{}",
            out.report
        );
    }

    #[test]
    fn generic_dispatch_fans_out() {
        let ws = TempWorkspace::new("generic");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    T::extract(b)\n}\n",
        );
        ws.write(
            "crates/util/src/lib.rs",
            "pub fn extract(b: &[u8]) -> u8 {\n    b[2]\n}\n",
        );
        let out = run(&ws);
        assert!(
            out.report.contains("REGRESSION [util/reach-index]"),
            "generic qualifier must fan out: {}",
            out.report
        );
    }

    #[test]
    fn common_std_method_not_followed() {
        let ws = TempWorkspace::new("stdname");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> usize {\n    let mut v = Vec::new();\n    v.push(b.len());\n    v.len()\n}\n",
        );
        ws.write(
            "crates/util/src/lib.rs",
            "pub struct B;\nimpl B {\n    pub fn push(&mut self, x: usize) {\n        panic!(\"{x}\");\n    }\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "`.push(` must stay std: {}", out.report);
    }

    #[test]
    fn trusted_marker_cuts_edges() {
        let ws = TempWorkspace::new("trusted");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    // reach: trusted(b validated non-empty above)\n    compute(b)\n}\nfn compute(b: &[u8]) -> u8 {\n    b[0]\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
        let md = std::fs::read_to_string(ws.root.join(REACHABILITY_FILE)).unwrap();
        assert!(md.contains("b validated non-empty above"), "{md}");
    }

    #[test]
    fn allow_marker_accepts_and_renders() {
        let ws = TempWorkspace::new("allow");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    // reach: allow(reach-index, first byte checked by caller contract)\n    b[0]\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
        let md = std::fs::read_to_string(ws.root.join(REACHABILITY_FILE)).unwrap();
        assert!(md.contains("first byte checked by caller contract"), "{md}");
        assert!(md.contains("reach-index"), "{md}");
    }

    #[test]
    fn alloc_without_clamp_flagged_with_clamp_passes() {
        let ws = TempWorkspace::new("alloc");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> Vec<u8> {\n    let len = b.len() * 256;\n    Vec::with_capacity(len)\n}\n",
        );
        let out = run(&ws);
        assert!(out.report.contains("reach-alloc"), "{}", out.report);
        ws.write(
            "crates/demo/src/lib.rs",
            "const MAX_HINT: usize = 1024;\npub fn decode(b: &[u8]) -> Vec<u8> {\n    let len = b.len().min(MAX_HINT);\n    Vec::with_capacity(len)\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
    }

    #[test]
    fn arith_on_tainted_length_flagged_checked_passes() {
        let ws = TempWorkspace::new("arith");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(count: usize) -> usize {\n    let table_len = count * 16;\n    table_len\n}\n",
        );
        let out = run(&ws);
        assert!(out.report.contains("reach-arith"), "{}", out.report);
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(count: usize) -> Option<usize> {\n    let table_len = count.checked_mul(16)?;\n    Some(table_len)\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
    }

    #[test]
    fn debug_assert_is_not_a_panic_sink() {
        let ws = TempWorkspace::new("dbgassert");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> usize {\n    debug_assert!(!b.is_empty());\n    b.len()\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
    }

    #[test]
    fn missing_entry_fails() {
        let ws = TempWorkspace::new("missingentry");
        ws.write("crates/demo/src/lib.rs", "pub fn other() {}\n");
        let out = run(&ws);
        assert!(!out.passed());
        assert_eq!(out.missing_entries, 1);
        assert!(out.report.contains("MISSING ENTRY"), "{}", out.report);
    }

    #[test]
    fn stale_certificate_fails() {
        let ws = TempWorkspace::new("stalecert");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> usize {\n    b.len()\n}\n",
        );
        run_reach_with(&ws.root, ENTRIES, true, true).unwrap();
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> usize {\n    // reach: allow(reach-index, never out of bounds in test)\n    b[0] as usize\n}\n",
        );
        let out = run(&ws);
        assert!(out.certificate_stale);
        assert!(!out.passed());
    }

    #[test]
    fn ratchet_pins_and_regresses() {
        let ws = TempWorkspace::new("ratchet");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    b[0]\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "pinned finding passes: {}", out.report);
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    b[0] + b[1]\n}\n",
        );
        let out = run_reach_with(&ws.root, ENTRIES, false, true).unwrap();
        // Still one line of indexing — no index regression — and the
        // certificate was refreshed; the pass stays green.
        assert!(out.passed(), "{}", out.report);
    }

    #[test]
    fn explain_prints_chain() {
        let ws = TempWorkspace::new("explain");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n    helper(b)\n}\nfn helper(b: &[u8]) -> u8 {\n    b[0]\n}\n",
        );
        let text = explain_with(&ws.root, ENTRIES, "crates/demo/src/lib.rs:5").unwrap();
        assert!(text.contains("entry `demo::decode@"), "{text}");
        assert!(text.contains("-> `demo::helper@"), "{text}");
        assert!(text.contains("finding: reach-index"), "{text}");
        let off = explain_with(&ws.root, ENTRIES, "crates/demo/src/lib.rs:1");
        assert!(off.is_ok());
    }

    #[test]
    fn test_code_out_of_scope() {
        let ws = TempWorkspace::new("testcode");
        ws.write(
            "crates/demo/src/lib.rs",
            "pub fn decode(b: &[u8]) -> usize {\n    b.len()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::decode(&[1]).to_string().parse::<usize>().unwrap();\n    }\n}\n",
        );
        let out = run_written(&ws);
        assert!(out.passed(), "{}", out.report);
    }
}
