//! The determinism taint pass: a fixed point over the call graph that
//! propagates three taint kinds — wall-clock, ambient-RNG, and
//! unordered-iteration — *backwards* from primitive sources to every
//! function that can reach one.
//!
//! Seeding reuses the same token heuristics as the intraprocedural
//! DET01–DET03 rules (including their allowlists, neutralizer windows,
//! and pragma suppressions: a source that is pragma'd with a reason does
//! not seed, so the whole chain is sanctioned at one documented point).
//! Propagation is a breadth-first worklist over reverse call edges, so
//! the recorded origin of each tainted function is a *shortest* chain —
//! that chain is replayed into rustc-style `= note:` lines on the
//! diagnostic.
//!
//! Findings are reported at the **boundary call site**: a non-test
//! function in a deterministic module (the reachability roots —
//! `sheriff-core`, `sheriff-transfer`, `dcn-sim`, the scenario runner)
//! calling a tainted function *outside* the deterministic modules.
//! Sources inside deterministic modules stay the intraprocedural rules'
//! business, so no site is reported twice; and a pragma on the boundary
//! line suppresses the interprocedural finding exactly like any other.

use crate::callgraph::CallGraph;
use crate::diagnostics::Diagnostic;
use crate::rules;
use crate::symbols::SymbolIndex;
use std::collections::{BTreeSet, VecDeque};

/// The three determinism taint kinds, each mapped onto its rule code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// Reaches `Instant::now` / `SystemTime::now` (DET01).
    WallClock,
    /// Reaches order-sensitive `HashMap`/`HashSet` iteration (DET02).
    UnorderedIter,
    /// Reaches `thread_rng` / `rand::random` (DET03).
    AmbientRng,
}

/// All kinds, in rule-code order.
pub const KINDS: [TaintKind; 3] = [
    TaintKind::WallClock,
    TaintKind::UnorderedIter,
    TaintKind::AmbientRng,
];

impl TaintKind {
    /// The rule code this kind reports under.
    pub fn rule(self) -> &'static str {
        match self {
            TaintKind::WallClock => "DET01",
            TaintKind::UnorderedIter => "DET02",
            TaintKind::AmbientRng => "DET03",
        }
    }

    fn slot(self) -> usize {
        match self {
            TaintKind::WallClock => 0,
            TaintKind::UnorderedIter => 1,
            TaintKind::AmbientRng => 2,
        }
    }

    fn reaches(self) -> &'static str {
        match self {
            TaintKind::WallClock => "an ambient wall-clock read",
            TaintKind::UnorderedIter => "iteration over a hash-ordered collection",
            TaintKind::AmbientRng => "ambient OS-seeded randomness",
        }
    }
}

/// How a function became tainted: directly, or through a call.
#[derive(Debug, Clone)]
enum Origin {
    /// The function's own body contains the primitive source.
    Source {
        line: u32,
        col: u32,
        /// Verb phrase, e.g. "reads the wall clock (`Instant::now()`)".
        what: String,
    },
    /// Tainted through edge `edge` (whose callee carries the taint on).
    Call { edge: usize },
}

/// Per-function taint state after the fixed point.
#[derive(Debug, Default)]
pub struct TaintMap {
    origin: Vec<[Option<Origin>; 3]>,
}

impl TaintMap {
    /// Whether function `id` can reach a source of `kind`.
    pub fn is_tainted(&self, id: usize, kind: TaintKind) -> bool {
        self.get(id, kind).is_some()
    }

    fn get(&self, id: usize, kind: TaintKind) -> Option<&Origin> {
        self.origin
            .get(id)
            .and_then(|o| o.get(kind.slot()))
            .and_then(Option::as_ref)
    }

    /// Record an origin if the slot is still empty; true when newly set.
    fn set(&mut self, id: usize, kind: TaintKind, origin: Origin) -> bool {
        match self.origin.get_mut(id).and_then(|o| o.get_mut(kind.slot())) {
            Some(slot @ None) => {
                *slot = Some(origin);
                true
            }
            _ => false,
        }
    }

    /// Total functions tainted by at least one kind.
    pub fn tainted_count(&self) -> usize {
        self.origin
            .iter()
            .filter(|o| o.iter().any(Option::is_some))
            .count()
    }
}

/// Run the fixed point: seed primitive sources, then propagate backwards
/// over reverse call edges (breadth-first, so origins form shortest
/// chains).
pub fn analyze(index: &SymbolIndex, graph: &CallGraph) -> TaintMap {
    let mut map = TaintMap {
        origin: vec![[None, None, None]; index.fns.len()],
    };
    let mut queue: VecDeque<(usize, TaintKind)> = VecDeque::new();

    for (fid, def) in index.fns.iter().enumerate() {
        if def.is_test {
            continue;
        }
        for (kind, line, col, what) in seed_sources(index.file_of(fid), def.body) {
            if map.set(fid, kind, Origin::Source { line, col, what }) {
                queue.push_back((fid, kind));
            }
        }
    }

    while let Some((g, kind)) = queue.pop_front() {
        for &ei in graph.callers_of.get(g).into_iter().flatten() {
            let f = graph.edge(ei).caller;
            if map.set(f, kind, Origin::Call { edge: ei }) {
                queue.push_back((f, kind));
            }
        }
    }
    map
}

/// Primitive sources inside one function body, pragma-suppressed sites
/// excluded (a documented allow sanctions the whole chain at one point).
fn seed_sources(
    file: &crate::symbols::SourceFile,
    body: (usize, usize),
) -> Vec<(TaintKind, u32, u32, String)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let names = rules::hash_typed_names(toks);
    for i in body.0..body.1 {
        let Some(t) = toks.get(i) else { break };
        if !rules::is_wall_clock_allowlisted(&file.path) {
            if let Some((a, b)) = rules::path_pair(toks, i) {
                if (a == "SystemTime" || a == "Instant")
                    && b == "now"
                    && !file.suppressions.covers("DET01", t.line)
                {
                    out.push((
                        TaintKind::WallClock,
                        t.line,
                        t.col,
                        format!("reads the wall clock (`{a}::now()`)"),
                    ));
                }
            }
        }
        if (t.is_ident("thread_rng") || rules::path_pair(toks, i) == Some(("rand", "random")))
            && !file.suppressions.covers("DET03", t.line)
        {
            out.push((
                TaintKind::AmbientRng,
                t.line,
                t.col,
                "draws from the OS-seeded RNG".to_string(),
            ));
        }
        if let Some(name) = rules::hash_iter_site(toks, i, &names) {
            if !file.suppressions.covers("DET02", t.line) {
                out.push((
                    TaintKind::UnorderedIter,
                    t.line,
                    t.col,
                    format!("iterates hash-ordered `{name}`"),
                ));
            }
        }
    }
    out
}

/// Emit the interprocedural DET01–DET03 findings: boundary call sites
/// from deterministic-module roots into tainted functions outside the
/// deterministic modules, with the full call chain as notes.
pub fn interprocedural_diagnostics(
    index: &SymbolIndex,
    graph: &CallGraph,
    taint: &TaintMap,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut reported: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for (fid, def) in index.fns.iter().enumerate() {
        if def.is_test {
            continue;
        }
        let fpath = &index.file_of(fid).path;
        if !rules::is_deterministic_module(fpath) {
            continue;
        }
        for &ei in graph.callees_of.get(fid).into_iter().flatten() {
            let edge = graph.edge(ei);
            let callee = edge.callee;
            let gpath = &index.file_of(callee).path;
            if rules::is_deterministic_module(gpath) {
                continue; // sources there are the intraprocedural rules' job
            }
            for kind in KINDS {
                if !taint.is_tainted(callee, kind) {
                    continue;
                }
                if !reported.insert((ei, kind.rule())) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: kind.rule(),
                    file: fpath.clone(),
                    line: edge.line,
                    col: edge.col,
                    message: format!(
                        "deterministic fn `{}` reaches {} via `{}`",
                        def.name,
                        kind.reaches(),
                        index.def(callee).name
                    ),
                    help: rules::det_help(kind.rule()),
                    notes: chain_notes(index, graph, taint, callee, kind),
                });
            }
        }
    }
    out
}

/// Replay the shortest chain from `start` to the primitive source as
/// human-readable note lines.
fn chain_notes(
    index: &SymbolIndex,
    graph: &CallGraph,
    taint: &TaintMap,
    start: usize,
    kind: TaintKind,
) -> Vec<String> {
    let mut notes = Vec::new();
    let mut cur = start;
    for _ in 0..32 {
        match taint.get(cur, kind) {
            Some(Origin::Call { edge }) => {
                let e = graph.edge(*edge);
                notes.push(format!(
                    "`{}` calls `{}` at {}:{}:{}",
                    index.def(cur).name,
                    index.def(e.callee).name,
                    index.file_of(cur).path,
                    e.line,
                    e.col
                ));
                cur = e.callee;
            }
            Some(Origin::Source { line, col, what }) => {
                notes.push(format!(
                    "`{}` {} at {}:{}:{}",
                    index.def(cur).name,
                    what,
                    index.file_of(cur).path,
                    line,
                    col
                ));
                return notes;
            }
            None => return notes,
        }
    }
    notes.push("… (chain truncated)".to_string());
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SourceFile;

    fn run(files: &[(&str, &str)]) -> (SymbolIndex, CallGraph, TaintMap) {
        let parsed = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let index = SymbolIndex::build(parsed);
        let graph = CallGraph::build(&index);
        let taint = analyze(&index, &graph);
        (index, graph, taint)
    }

    #[test]
    fn taint_propagates_across_two_hops_and_crates() {
        let (index, graph, taint) = run(&[
            (
                "crates/sheriff-core/src/lib.rs",
                "pub fn step() { middle(); }",
            ),
            (
                "crates/helper/src/lib.rs",
                "pub fn middle() { leaf(); }\n\
                 pub fn leaf() -> std::time::Instant { std::time::Instant::now() }\n",
            ),
        ]);
        let diags = interprocedural_diagnostics(&index, &graph, &taint);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.rule, "DET01");
        assert_eq!(d.file, "crates/sheriff-core/src/lib.rs");
        assert_eq!(d.notes.len(), 2, "middle → leaf, then the source");
        assert!(d.notes[0].contains("`middle` calls `leaf`"));
        assert!(d.notes[1].contains("reads the wall clock"));
    }

    #[test]
    fn pragma_at_the_source_sanctions_the_whole_chain() {
        let (index, graph, taint) = run(&[
            (
                "crates/sheriff-core/src/lib.rs",
                "pub fn step() { helper(); }",
            ),
            (
                "crates/helper/src/lib.rs",
                "pub fn helper() -> std::time::Instant {\n\
                     // sheriff-lint: allow(DET01, \"wall time never enters the digest\")\n\
                     std::time::Instant::now()\n\
                 }\n",
            ),
        ]);
        assert!(interprocedural_diagnostics(&index, &graph, &taint).is_empty());
    }

    #[test]
    fn test_gated_callers_never_report() {
        let (index, graph, taint) = run(&[
            (
                "crates/sheriff-core/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { helper(); }\n}\n",
            ),
            (
                "crates/helper/src/lib.rs",
                "pub fn helper() { let _ = std::time::Instant::now(); }",
            ),
        ]);
        assert!(interprocedural_diagnostics(&index, &graph, &taint).is_empty());
    }

    #[test]
    fn unordered_iteration_taints_with_neutralizer_respected() {
        let (index, graph, taint) = run(&[
            (
                "crates/dcn-sim/src/flows.rs",
                "pub fn route() { tally(); ranked(); }",
            ),
            (
                "crates/util/src/lib.rs",
                "use std::collections::HashMap;\n\
                 pub fn tally() { let m: HashMap<u32, u32> = HashMap::new();\n\
                     for (k, v) in m.iter() { let _ = (k, v); } }\n\
                 pub fn ranked() -> Vec<(u32, u32)> {\n\
                     let m: HashMap<u32, u32> = HashMap::new();\n\
                     let mut v: Vec<_> = m.iter().map(|(a, b)| (*a, *b)).collect();\n\
                     v.sort_by_key(|p| p.0);\n\
                     v\n\
                 }\n",
            ),
        ]);
        let diags = interprocedural_diagnostics(&index, &graph, &taint);
        assert_eq!(diags.len(), 1, "only the unsorted helper taints: {diags:?}");
        assert_eq!(diags[0].rule, "DET02");
        assert!(diags[0].message.contains("via `tally`"));
    }
}
