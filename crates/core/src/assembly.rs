//! Assembly of local partial matches into crossing matches.
//!
//! Three implementations:
//!
//! * [`assemble_lec`] — the LEC feature-based assembly of **Algorithm 3**:
//!   LPMs are grouped by LECSign (Definition 11), a group join graph is
//!   built, and a DFS join explores only adjacent groups. Every LPM and
//!   every intermediate is a flat state of the coordinator's shared
//!   layout (`crate::flat`) — fragment, masks, binding and a
//!   query-edge-indexed crossing-edge table in one run of words — and
//!   each DFS level's intermediates live in one arena, deduplicated by a
//!   slice hash confirmed by equality. The per-group join is a **hash
//!   join**: a group's members are indexed by a 64-bit hash of their
//!   binding projected onto the query vertices bound on both sides, and
//!   that index is built once per (group, bound mask, projection) and
//!   cached for the whole assembly. Every hit is re-verified by the full
//!   join condition, so a hash collision can never produce a wrong row.
//!   The group join graph comes from a `(query edge, data edge)` →
//!   groups posting map masked by disjoint LECSigns: a superset of the
//!   feature-level join graph, so the DFS meets every group it must.
//! * [`IncrementalJoin`] — the same states and join condition, fed one
//!   LPM at a time by the streaming pipeline.
//! * [`assemble_basic`] — the partitioning-based join of reference \[18\],
//!   used by the `gStoreD-Basic` variant in Fig. 9: no LECSign grouping;
//!   intermediates are joined against every LPM whose pivot-partition
//!   differs, which is the larger join space the paper improves on. Its
//!   pairwise join loop is kept verbatim — it *is* the baseline — but its
//!   dedup sinks use the same fast deterministic hasher.
//!
//! All return the deduplicated set of complete crossing-match bindings.

use fxhash::{FxHashMap, FxHashSet};
use gstored_rdf::{TermId, VertexId};
use gstored_store::LocalPartialMatch;

use crate::flat::{
    hash_words, merge, BitIter, EdgeIds, FlatSet, Layout, BOUND, FRAG, JOINED, SIGN,
};
use crate::lec::full_sign;

/// A complete match binding (one data vertex per query vertex).
pub type MatchBinding = Vec<VertexId>;

/// The \[18\] join condition on two assembly states (the checks of
/// [`LocalPartialMatch::joinable`]), followed by the merge into `out`.
/// Returns `false` when the pair does not join.
#[inline]
fn try_join(layout: &Layout, a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
    // Condition 1: never two raw LPMs of the same fragment (joined states
    // carry `JOINED`, so two of them never join each other); condition 4
    // (Theorem 5): disjoint internal cores; then the shared conditions.
    if a[FRAG] == b[FRAG] || a[SIGN] & b[SIGN] != 0 || !layout.agree(a, b) {
        return false;
    }
    merge(a, b, out);
    out[FRAG] = JOINED;
    true
}

/// A complete state's binding words as a match row.
fn row(binding: &[u64]) -> MatchBinding {
    binding.iter().map(|&w| TermId(w)).collect()
}

/// Hash of a state's binding projected onto the vertices of `common`.
#[inline]
fn key_hash(layout: &Layout, s: &[u64], common: u64) -> u64 {
    let binding = layout.binding(s);
    hash_words(BitIter(common).map(|v| binding[v]))
}

/// One LECSign group: its members, and the same members partitioned by
/// bound mask (the hash join's partitions; in practice a group has one,
/// but wire-supplied LPMs are not trusted to be that regular).
struct Group {
    sign: u64,
    members: Vec<u32>,
    by_mask: Vec<(u64, Vec<u32>)>,
}

/// A hash-join index over one group partition: members sorted by the
/// hash of their binding projected onto the join's common vertices, and
/// each hash's run.
struct JoinIndex {
    runs: FxHashMap<u64, (u32, u32)>,
    members: Vec<u32>,
}

impl JoinIndex {
    fn build(layout: &Layout, prepared: &FlatSet, members: &[u32], common: u64) -> JoinIndex {
        let mut keyed: Vec<(u64, u32)> = members
            .iter()
            .map(|&m| (key_hash(layout, prepared.get(m), common), m))
            .collect();
        keyed.sort_by_key(|&(h, _)| h);
        let mut runs = FxHashMap::default();
        let mut at = 0;
        for run in keyed.chunk_by(|x, y| x.0 == y.0) {
            runs.insert(run[0].0, (at, at + run.len() as u32));
            at += run.len() as u32;
        }
        JoinIndex {
            runs,
            members: keyed.into_iter().map(|(_, m)| m).collect(),
        }
    }

    fn probe(&self, hash: u64) -> &[u32] {
        match self.runs.get(&hash) {
            Some(&(lo, hi)) => &self.members[lo as usize..hi as usize],
            None => &[],
        }
    }
}

/// The state of one [`assemble_lec`] call.
struct LecAssembly {
    layout: Layout,
    /// One state per input LPM, in input order.
    prepared: FlatSet,
    groups: Vec<Group>,
    adj: Vec<Vec<usize>>,
    /// Hash-join indexes by (group, member bound mask, common mask).
    indexes: FxHashMap<(u32, u64, u64), JoinIndex>,
    /// Per DFS depth: that level's intermediates.
    levels: Vec<FlatSet>,
    /// Complete bindings (`nv` words each).
    found: FlatSet,
    full: u64,
    joined: Vec<u64>,
    masks: Vec<u64>,
}

/// The group join graph of Algorithm 3: groups `g` and `h` are adjacent
/// when their LECSigns are disjoint and some members of both map the same
/// query edge to the same crossing data edge. One sorted `(query edge,
/// data edge)` → groups posting list finds those pairs; the graph is a
/// superset of the feature-level join graph, whose extra pairs the hash
/// join's `try_join` rejects. A posting row is an [`EdgeIds`] id, read
/// straight off the states' edge tables.
fn group_adjacency(layout: &Layout, prepared: &FlatSet, groups: &[Group]) -> Vec<Vec<usize>> {
    let mut posted: Vec<(u32, u32)> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for &mi in &group.members {
            let s = prepared.get(mi);
            posted.extend(layout.edges(s).map(|qe| (layout.edge(s, qe), g as u32)));
        }
    }
    posted.sort_unstable();
    posted.dedup();
    let mut adj = vec![Vec::new(); groups.len()];
    for row in posted.chunk_by(|x, y| x.0 == y.0) {
        for (i, &(_, g)) in row.iter().enumerate() {
            for &(_, h) in &row[i + 1..] {
                if groups[g as usize].sign & groups[h as usize].sign == 0 {
                    adj[g as usize].push(h as usize);
                    adj[h as usize].push(g as usize);
                }
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Algorithm 3: LEC feature-based assembly.
///
/// `query_edges[qe] = (from_vertex, to_vertex)`; its length (or the
/// largest query edge any LPM maps, if larger) sizes the crossing-edge
/// tables.
#[allow(clippy::while_let_loop)] // the loop body mutates `alive`, not just the scrutinee
pub fn assemble_lec(
    lpms: &[LocalPartialMatch],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> Vec<MatchBinding> {
    if lpms.is_empty() {
        return Vec::new();
    }
    let n_edges = lpms
        .iter()
        .flat_map(|m| m.crossing.iter().map(|&(_, qe)| qe + 1))
        .max()
        .unwrap_or(0)
        .max(query_edges.len());
    // The bound/internal bitmasks (and LECSigns generally) are 64-bit;
    // the layout fails loudly beyond that, like the LPM enumerator does.
    let layout = Layout::new(n_query_vertices, n_edges);
    let mut ids = EdgeIds::default();
    let mut prepared = FlatSet::new(layout.width);
    let mut scratch = vec![0u64; layout.width];

    // Definition 11: group LPMs by LECSign — hash-mapped, no linear scan.
    let mut group_of_sign: FxHashMap<u64, usize> = FxHashMap::default();
    let mut groups: Vec<Group> = Vec::new();
    for (i, lpm) in lpms.iter().enumerate() {
        layout.encode_lpm(lpm, &mut ids, &mut scratch);
        prepared.push(&scratch);
        let g = *group_of_sign.entry(lpm.internal_mask).or_insert_with(|| {
            groups.push(Group {
                sign: lpm.internal_mask,
                members: Vec::new(),
                by_mask: Vec::new(),
            });
            groups.len() - 1
        });
        let group = &mut groups[g];
        group.members.push(i as u32);
        match group.by_mask.iter_mut().find(|(m, _)| *m == scratch[BOUND]) {
            Some((_, part)) => part.push(i as u32),
            None => group.by_mask.push((scratch[BOUND], vec![i as u32])),
        }
    }
    let adj = group_adjacency(&layout, &prepared, &groups);

    let n_groups = groups.len();
    let mut asm = LecAssembly {
        layout,
        prepared,
        groups,
        adj,
        indexes: FxHashMap::default(),
        levels: vec![FlatSet::new(layout.width)],
        found: FlatSet::new(n_query_vertices.max(1)),
        full: full_sign(n_query_vertices),
        joined: scratch,
        masks: Vec::new(),
    };
    let mut alive = vec![true; n_groups];
    let mut visited_set = vec![false; n_groups];
    loop {
        let Some(vmin) = (0..n_groups)
            .filter(|&v| alive[v])
            .min_by_key(|&v| asm.groups[v].members.len())
        else {
            break;
        };
        let seed = &mut asm.levels[0];
        seed.clear();
        for &mi in &asm.groups[vmin].members {
            seed.push(asm.prepared.get(mi));
        }
        visited_set[vmin] = true;
        com_par_join(&mut asm, &mut vec![vmin], &mut visited_set, 0, &alive);
        visited_set[vmin] = false;
        alive[vmin] = false;
        loop {
            let mut removed = false;
            for v in 0..n_groups {
                if alive[v] && !asm.adj[v].iter().any(|&u| alive[u]) {
                    alive[v] = false;
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
    }
    let mut out: Vec<MatchBinding> = asm.found.iter().map(row).collect();
    out.sort_unstable();
    out
}

/// The recursive `ComParJoin` of Algorithm 3 over `asm.levels[depth]`,
/// with the per-group pairwise loop replaced by [`hash_join`].
fn com_par_join(
    asm: &mut LecAssembly,
    visited: &mut Vec<usize>,
    visited_set: &mut [bool],
    depth: usize,
    alive: &[bool],
) {
    let mut frontier: Vec<usize> = visited
        .iter()
        .flat_map(|&v| asm.adj[v].iter().copied())
        .filter(|&u| alive[u] && !visited_set[u])
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    // Smallest-cardinality group first: joining against the group with
    // the fewest members keeps the intermediate sets small before the
    // bigger groups multiply them. The result set is order-independent
    // (pinned against the frozen insertion-order assembly by the
    // planner-equivalence proptests); only the work to reach it changes.
    // Index tiebreak keeps the walk deterministic.
    frontier.sort_by_key(|&u| (asm.groups[u].members.len(), u));

    for v in frontier {
        if hash_join(asm, depth, v) {
            visited.push(v);
            visited_set[v] = true;
            com_par_join(asm, visited, visited_set, depth + 1, alive);
            visited.pop();
            visited_set[v] = false;
        }
    }
}

/// Join every intermediate of level `depth` with group `v` into level
/// `depth + 1`, hash-joined on the shared-query-vertex binding: each
/// probe meets only the members whose projected binding hashes alike,
/// and `try_join` re-checks every condition. Complete results land in
/// `found`; incomplete ones are deduplicated into the next level.
/// Returns whether the next level is non-empty.
fn hash_join(asm: &mut LecAssembly, depth: usize, v: usize) -> bool {
    if asm.levels.len() < depth + 2 {
        asm.levels.push(FlatSet::new(asm.layout.width));
    }
    let LecAssembly {
        layout,
        prepared,
        groups,
        indexes,
        levels,
        found,
        full,
        joined,
        masks,
        ..
    } = asm;
    let (lower, upper) = levels.split_at_mut(depth + 1);
    let (current, next) = (&lower[depth], &mut upper[0]);
    next.clear();
    masks.clear();
    masks.extend(current.iter().map(|s| s[BOUND]));
    masks.sort_unstable();
    masks.dedup();
    for (mmask, members) in &groups[v].by_mask {
        for &cmask in masks.iter() {
            let common = mmask & cmask;
            let index = indexes
                .entry((v as u32, *mmask, common))
                .or_insert_with(|| JoinIndex::build(layout, prepared, members, common));
            for a in current.iter().filter(|a| a[BOUND] == cmask) {
                for &mi in index.probe(key_hash(layout, a, common)) {
                    if !try_join(layout, a, prepared.get(mi), joined) {
                        continue;
                    }
                    if joined[SIGN] != *full {
                        next.insert(joined);
                    } else if joined[BOUND] == *full {
                        found.insert(layout.binding(joined));
                    }
                }
            }
        }
    }
    next.len() > 0
}

/// Incremental (streaming) crossing-match assembly: the worklist join of
/// \[18\] restructured so LPMs can be **pushed one at a time**, with the
/// complete matches each push makes possible emitted immediately.
///
/// The invariant after every [`IncrementalJoin::push`]: the internal
/// store holds every joinable connected combination of the LPMs pushed so
/// far, and `found` holds every complete binding they form. A new LPM
/// therefore only needs to be joined (transitively) against the store —
/// any complete match is emitted by the push of its **last-arriving**
/// member. Two states that both contain the new LPM can never join each
/// other (their internal masks overlap), so each worklist state only ever
/// meets previously stored states; and a stored × stored pair was already
/// explored by an earlier push. This yields exactly the result set of
/// [`assemble_basic`] / [`assemble_lec`] over the same LPMs, in
/// arrival-driven order instead of after a full gather.
///
/// Used by the engine's streaming pipeline to join survivor chunks as
/// they arrive, so the coordinator's buffering is bounded by the join
/// frontier instead of the full survivor set.
#[derive(Debug)]
pub struct IncrementalJoin {
    layout: Layout,
    full: u64,
    /// Every pushed LPM plus every incomplete joined intermediate, as
    /// flat states. Only the intermediates are indexed: different DFS
    /// orders reach the same combination, which must be stored and
    /// explored once.
    states: FlatSet,
    /// Ids of the `(query edge, data edge)` pairs seen so far.
    ids: EdgeIds,
    /// Index over `states`: each bound `(query edge, data edge)` pair's
    /// id → the head of a chain in `postings` of the states binding it.
    /// Two states can only join if they share a crossing edge on the
    /// same query edge (condition 2), so the union of a state's chains
    /// is a complete candidate set — each push probes only states that
    /// share an edge with it instead of scanning the whole store.
    by_edge: Vec<u32>,
    /// `(state, next posting)` chain links.
    postings: Vec<(u32, u32)>,
    /// Every complete binding emitted so far (the dedup sink).
    found: FlatSet,
    candidates: Vec<u32>,
    joined: Vec<u64>,
}

const END: u32 = u32::MAX;

impl IncrementalJoin {
    /// A joiner for a query with `n_query_vertices` vertices and
    /// `n_query_edges` edges. Every pushed LPM must have been validated
    /// against the query (binding width, crossing `qe` range) — the
    /// engine's wire checks do this before pushing.
    pub fn new(n_query_vertices: usize, n_query_edges: usize) -> IncrementalJoin {
        let layout = Layout::new(n_query_vertices, n_query_edges);
        IncrementalJoin {
            layout,
            full: full_sign(n_query_vertices),
            states: FlatSet::new(layout.width),
            ids: EdgeIds::default(),
            by_edge: Vec::new(),
            postings: Vec::new(),
            found: FlatSet::new(n_query_vertices.max(1)),
            candidates: Vec::new(),
            joined: vec![0; layout.width],
        }
    }

    /// Push one LPM and return the complete crossing-match bindings that
    /// become derivable with it (each binding is emitted exactly once
    /// across the joiner's lifetime).
    pub fn push(&mut self, lpm: &LocalPartialMatch) -> Vec<MatchBinding> {
        let layout = self.layout;
        let mut newly = Vec::new();
        layout.encode_lpm(lpm, &mut self.ids, &mut self.joined);
        if self.joined[SIGN] == self.full {
            // A degenerate "partial" match that is already complete: emit
            // it; it can never join anything (full mask overlaps all).
            if self.joined[BOUND] == self.full && self.found.insert(layout.binding(&self.joined)).1
            {
                newly.push(row(layout.binding(&self.joined)));
            }
            return newly;
        }
        // Worklist of states containing the new LPM: the new LPM and the
        // intermediates appended after it. Each joins against the states
        // stored by earlier pushes (none of which contain it). Candidates
        // come from the edge index, sorted so they are probed in
        // insertion order — the exact sequence a full scan of the store
        // would try, minus the states `try_join` would reject for sharing
        // no edge.
        let start = self.states.push(&self.joined);
        let mut cur = start;
        while (cur as usize) < self.states.len() {
            self.candidates.clear();
            let s = self.states.get(cur);
            for qe in layout.edges(s) {
                let id = layout.edge(s, qe) as usize;
                let mut link = self.by_edge.get(id).copied().unwrap_or(END);
                while link != END {
                    let (state, next) = self.postings[link as usize];
                    self.candidates.push(state);
                    link = next;
                }
            }
            self.candidates.sort_unstable();
            self.candidates.dedup();
            for &si in &self.candidates {
                let joins = try_join(
                    &layout,
                    self.states.get(cur),
                    self.states.get(si),
                    &mut self.joined,
                );
                if !joins {
                    continue;
                }
                if self.joined[SIGN] != self.full {
                    self.states.insert(&self.joined);
                } else if self.joined[BOUND] == self.full
                    && self.found.insert(layout.binding(&self.joined)).1
                {
                    newly.push(row(layout.binding(&self.joined)));
                }
            }
            cur += 1;
        }
        self.by_edge.resize(self.ids.len(), END);
        for si in start..self.states.len() as u32 {
            let s = self.states.get(si);
            for qe in layout.edges(s) {
                let head = &mut self.by_edge[layout.edge(s, qe) as usize];
                self.postings.push((si, *head));
                *head = self.postings.len() as u32 - 1;
            }
        }
        newly
    }

    /// States currently buffered (pushed LPMs + incomplete
    /// intermediates): the coordinator-side memory footprint of the join
    /// frontier, reported by the streaming benchmarks.
    pub fn resident_states(&self) -> usize {
        self.states.len()
    }

    /// Complete bindings emitted so far.
    pub fn found_count(&self) -> usize {
        self.found.len()
    }
}

/// The partitioning-based join of \[18\] (the `gStoreD-Basic` baseline).
///
/// LPMs are partitioned by whether they internally match a **pivot** query
/// vertex (the variable vertex internally matched by the most LPMs — two
/// LPMs internally matching the pivot can never join). Intermediates then
/// join against every original LPM, left-associated, with no LECSign
/// grouping — the join space Algorithms 2/3 shrink.
pub fn assemble_basic(lpms: &[LocalPartialMatch], n_query_vertices: usize) -> Vec<MatchBinding> {
    if lpms.is_empty() {
        return Vec::new();
    }
    // Pivot choice per [18]: the query vertex internally matched most often.
    let pivot = (0..n_query_vertices)
        .max_by_key(|&v| lpms.iter().filter(|m| m.is_internal(v)).count())
        .expect("n_query_vertices > 0");

    let mut found: FxHashSet<MatchBinding> = FxHashSet::default();
    let mut seen: FxHashSet<(Vec<Option<VertexId>>, u64)> = FxHashSet::default();
    // Worklist of intermediates (starting from the originals).
    let mut work: Vec<LocalPartialMatch> = lpms.to_vec();
    let mut head = 0;
    while head < work.len() {
        let cur = work[head].clone();
        head += 1;
        for other in lpms {
            // Partition pruning from [18]: two LPMs that both internally
            // match the pivot are in the same partition and never join.
            if cur.is_internal(pivot) && other.is_internal(pivot) {
                continue;
            }
            if !cur.joinable(other) {
                continue;
            }
            let joined = cur.join(other);
            if joined.is_complete(n_query_vertices) {
                if let Some(binding) = joined.complete_binding() {
                    found.insert(binding);
                }
            } else if seen.insert((joined.binding.clone(), joined.internal_mask)) {
                work.push(joined);
            }
        }
    }
    let mut out: Vec<MatchBinding> = found.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::EdgeRef;
    use std::collections::HashSet;

    fn edge(f: u64, l: u64, t: u64) -> EdgeRef {
        EdgeRef {
            from: TermId(f),
            label: TermId(l),
            to: TermId(t),
        }
    }

    fn lpm(
        fragment: usize,
        binding: Vec<Option<u64>>,
        crossing: Vec<(EdgeRef, usize)>,
        internal: &[usize],
    ) -> LocalPartialMatch {
        let mut mask = 0u64;
        for &i in internal {
            mask |= 1 << i;
        }
        LocalPartialMatch {
            fragment,
            binding: binding.into_iter().map(|o| o.map(TermId)).collect(),
            crossing,
            internal_mask: mask,
        }
    }

    /// The paper's running example: Fig. 3's LPMs (after pruning PM2_3,
    /// Example 8) assemble into exactly the crossing matches of the data.
    /// Query vertices: v1..v5 = indexes 0..4; query edges e0: v2->v4,
    /// e1: v3->v1, e2: v1->v2, e3: v3->v5.
    fn paper_lpms() -> (Vec<LocalPartialMatch>, Vec<(usize, usize)>) {
        let qedges = vec![(1, 3), (2, 0), (0, 1), (2, 4)];
        let e_1_6 = edge(1, 100, 6);
        let e_1_12 = edge(1, 100, 12);
        let e_6_5 = edge(6, 101, 5);
        let e_14_13 = edge(14, 101, 13);
        let lpms = vec![
            // F1 (fragment 0):
            lpm(
                0,
                vec![Some(6), None, Some(1), None, Some(3)],
                vec![(e_1_6, 1)],
                &[2, 4],
            ),
            lpm(
                0,
                vec![Some(12), None, Some(1), None, Some(3)],
                vec![(e_1_12, 1)],
                &[2, 4],
            ),
            lpm(
                0,
                vec![Some(6), Some(5), None, Some(4), None],
                vec![(e_6_5, 2)],
                &[1, 3],
            ),
            // F2 (fragment 1):
            lpm(
                1,
                vec![Some(6), Some(8), Some(1), Some(9), None],
                vec![(e_1_6, 1)],
                &[0, 1, 3],
            ),
            lpm(
                1,
                vec![Some(6), Some(10), Some(1), Some(11), None],
                vec![(e_1_6, 1)],
                &[0, 1, 3],
            ),
            lpm(
                1,
                vec![Some(6), Some(5), Some(1), None, None],
                vec![(e_6_5, 2), (e_1_6, 1)],
                &[0],
            ),
            // F3 (fragment 2):
            lpm(
                2,
                vec![Some(12), Some(13), Some(1), Some(17), None],
                vec![(e_1_12, 1)],
                &[0, 1, 3],
            ),
            lpm(
                2,
                vec![Some(14), Some(13), None, Some(17), None],
                vec![(e_14_13, 2)],
                &[1, 3],
            ),
        ];
        (lpms, qedges)
    }

    /// The expected crossing matches of the running example. From Fig. 1:
    /// four matches cross fragments (all share v3=001, v5=003):
    /// (v1,v2,v4) ∈ {(6,8,9), (6,10,11), (6,5,4), (12,13,17)}.
    fn expected() -> Vec<MatchBinding> {
        let m = |v1: u64, v2: u64, v4: u64| {
            vec![TermId(v1), TermId(v2), TermId(1), TermId(v4), TermId(3)]
        };
        let mut e = vec![m(6, 8, 9), m(6, 10, 11), m(6, 5, 4), m(12, 13, 17)];
        e.sort_unstable();
        e
    }

    #[test]
    fn lec_assembly_reproduces_paper_example() {
        let (lpms, qedges) = paper_lpms();
        let out = assemble_lec(&lpms, 5, &qedges);
        assert_eq!(out, expected());
    }

    #[test]
    fn basic_assembly_agrees_with_lec_assembly() {
        let (lpms, qedges) = paper_lpms();
        let lec = assemble_lec(&lpms, 5, &qedges);
        let basic = assemble_basic(&lpms, 5);
        assert_eq!(lec, basic);
    }

    #[test]
    fn pruned_lpm_changes_nothing() {
        // PM2_3 (the one Algorithm 2 prunes) contributes to no match:
        // removing it leaves the result identical.
        let (lpms, qedges) = paper_lpms();
        let without: Vec<LocalPartialMatch> = lpms
            .iter()
            .filter(|m| m.binding[0] != Some(TermId(14)))
            .cloned()
            .collect();
        assert_eq!(without.len(), lpms.len() - 1);
        assert_eq!(assemble_lec(&without, 5, &qedges), expected());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(assemble_lec(&[], 3, &[(0, 1)]).is_empty());
        assert!(assemble_basic(&[], 3).is_empty());
    }

    #[test]
    fn three_way_join_across_three_fragments() {
        // Chain v0-v1-v2 split a|b|c across F0|F1|F2.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(200, 1, 300);
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(
                1,
                vec![Some(100), Some(200), Some(300)],
                vec![(e01, 0), (e12, 1)],
                &[1],
            ),
            lpm(2, vec![None, Some(200), Some(300)], vec![(e12, 1)], &[2]),
        ];
        let out = assemble_lec(&lpms, 3, &qedges);
        assert_eq!(out, vec![vec![TermId(100), TermId(200), TermId(300)]]);
        assert_eq!(assemble_basic(&lpms, 3), out);
    }

    #[test]
    fn same_fragment_reentry_in_multiway_join() {
        // F0 holds both endpoints of a chain whose middle is in F1:
        // a(F0) - b(F1) - c(F0). F0 contributes two separate LPMs.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(200, 1, 300);
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(0, vec![None, Some(200), Some(300)], vec![(e12, 1)], &[2]),
            lpm(
                1,
                vec![Some(100), Some(200), Some(300)],
                vec![(e01, 0), (e12, 1)],
                &[1],
            ),
        ];
        let out = assemble_lec(&lpms, 3, &qedges);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(assemble_basic(&lpms, 3), out);
    }

    #[test]
    fn incompatible_bindings_produce_no_match() {
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(201, 1, 300); // note: from 201, not 200
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(1, vec![None, Some(201), Some(300)], vec![(e12, 1)], &[2]),
        ];
        assert!(assemble_lec(&lpms, 3, &qedges).is_empty());
        assert!(assemble_basic(&lpms, 3).is_empty());
    }

    /// Push LPMs one by one in the given order and collect everything the
    /// incremental joiner emits.
    fn incremental(lpms: &[LocalPartialMatch], n: usize, qedges: usize) -> Vec<MatchBinding> {
        let mut joiner = IncrementalJoin::new(n, qedges);
        let mut out: Vec<MatchBinding> = lpms.iter().flat_map(|m| joiner.push(m)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn incremental_join_matches_batch_assembly_in_every_arrival_order() {
        let (lpms, qedges) = paper_lpms();
        let reference = assemble_lec(&lpms, 5, &qedges);
        assert_eq!(reference, expected());
        // Forward, reverse, and a few rotations: chunk/arrival order must
        // never change the emitted set.
        let n = lpms.len();
        for rot in 0..n {
            let mut order = lpms.clone();
            order.rotate_left(rot);
            assert_eq!(incremental(&order, 5, qedges.len()), reference, "rot {rot}");
            order.reverse();
            assert_eq!(
                incremental(&order, 5, qedges.len()),
                reference,
                "rev rot {rot}"
            );
        }
    }

    #[test]
    fn incremental_join_emits_each_match_exactly_once() {
        let (lpms, qedges) = paper_lpms();
        let mut joiner = IncrementalJoin::new(5, qedges.len());
        let mut all = Vec::new();
        for m in &lpms {
            all.extend(joiner.push(m));
        }
        let set: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len(), "no duplicate emissions");
        assert_eq!(joiner.found_count(), all.len());
        // Replaying an LPM emits nothing new.
        for m in &lpms {
            assert!(joiner.push(m).is_empty(), "replays add no matches");
        }
    }

    #[test]
    fn incremental_join_handles_same_fragment_reentry() {
        // The a(F0) - b(F1) - c(F0) chain: the two F0 LPMs cannot join
        // directly, only through the F1 middle — and the middle may
        // arrive first, last, or between them.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(200, 1, 300);
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(0, vec![None, Some(200), Some(300)], vec![(e12, 1)], &[2]),
            lpm(
                1,
                vec![Some(100), Some(200), Some(300)],
                vec![(e01, 0), (e12, 1)],
                &[1],
            ),
        ];
        let reference = assemble_lec(&lpms, 3, &qedges);
        assert_eq!(reference.len(), 1);
        for rot in 0..lpms.len() {
            let mut order = lpms.clone();
            order.rotate_left(rot);
            assert_eq!(incremental(&order, 3, qedges.len()), reference, "rot {rot}");
        }
    }

    #[test]
    fn duplicate_joins_deduplicated() {
        // Two identical joins through different DFS orders must yield one
        // match. Use the 3-way chain where the middle LPM shares edges
        // with both sides (multiple exploration orders exist).
        let (lpms, qedges) = paper_lpms();
        let out = assemble_lec(&lpms, 5, &qedges);
        let set: HashSet<_> = out.iter().cloned().collect();
        assert_eq!(set.len(), out.len());
    }
}
