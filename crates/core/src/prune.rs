//! LEC feature-based pruning (Algorithm 2 + Theorem 5 grouping).
//!
//! The coordinator assembles all sites' LEC features, groups them by
//! LECSign (features with equal signs are never joinable — Theorem 5),
//! builds a **join graph** over the groups, and DFS-joins features along
//! it. Every original feature whose joins reach an all-ones LECSign is
//! *useful*; the rest — and all their local partial matches — are pruned
//! before any LPM is shipped.
//!
//! Every feature, and every join of features, is a flat state of the
//! shared coordinator layout (`crate::flat`): fragment bitmask, sign,
//! the binding its crossing edges imply, and a query-edge-indexed
//! crossing-edge table. On top of that:
//!
//! * states are interned in one arena per pruning call, so a joined
//!   feature is the word-wise OR of its two parents, and its identity
//!   is a `u32`;
//! * one posting index, `(query edge, data edge)` → the `(group,
//!   feature)` pairs mapping it, serves both the join graph and the DFS:
//!   Definition 9 condition 2 (a shared entry) is necessary, so only
//!   features that share an entry are ever compared;
//! * [`build_join_graph`] probes each posting row's group pairs,
//!   stopping at the first joinable witness per pair;
//! * [`prune_features`]' recursive `ComLECFJoin` tracks the visited
//!   group set as a `u64` bitmask, records lineage as a join-derivation
//!   DAG of `(a, b)` back-pointers in flat arrays (one backward
//!   reachability pass at the end marks the useful inputs), and memoizes
//!   explored `(visited set, current states)` keys in a flat arena, so
//!   structurally identical subtrees — the same frontier reached through
//!   a different join order — expand exactly once.

use fxhash::{FxHashMap, FxHashSet};

use crate::flat::{hash_words, merge, EdgeIds, FlatSet, Layout, SliceIndex, FRAG, SIGN};
use crate::lec::LecFeature;

/// One LEC feature group (Definition 10): all features sharing a LECSign.
/// Groups index into the shared feature slice they were built over
/// instead of owning clones, so grouping allocates no feature copies.
#[derive(Debug, Clone)]
pub struct FeatureGroup {
    /// The shared LECSign bitmask over query vertices.
    pub sign: u64,
    /// Indices (into the grouped feature slice) of the features carrying
    /// that sign.
    pub members: Vec<u32>,
}

/// Group features by LECSign (Definition 10) — hash-mapped on the sign,
/// so grouping is linear in the feature count; groups hold indices into
/// `features`, not clones.
pub fn group_by_sign(features: &[LecFeature]) -> Vec<FeatureGroup> {
    let mut group_of_sign: FxHashMap<u64, usize> = FxHashMap::default();
    let mut groups: Vec<FeatureGroup> = Vec::new();
    for (i, f) in features.iter().enumerate() {
        let idx = *group_of_sign.entry(f.sign).or_insert_with(|| {
            groups.push(FeatureGroup {
                sign: f.sign,
                members: Vec::new(),
            });
            groups.len() - 1
        });
        groups[idx].members.push(i as u32);
    }
    groups
}

/// `state_of` entry of a feature that can never join (see
/// [`Layout::encode_feature`]): it is neither posted nor probed.
const NEVER_JOINS: u32 = u32::MAX;

/// The features of one pruning call as flat states, plus the posting
/// index over their crossing-edge entries.
struct Encoded {
    layout: Layout,
    /// Interned states: structurally equal features share one id.
    states: FlatSet,
    /// Each input feature's state id (or [`NEVER_JOINS`]).
    state_of: Vec<u32>,
    postings: Postings,
}

/// `(query edge, data edge)` → the `(group, feature)` pairs whose state
/// maps that entry, stored as one run per entry sorted by group then
/// feature. A row is the entry's [`EdgeIds`] id, which every state's
/// edge table already holds.
struct Postings {
    span: Vec<(u32, u32)>,
    posted: Vec<(u32, u32)>,
}

impl Postings {
    fn run(&self, row: u32) -> &[(u32, u32)] {
        let (lo, hi) = self.span[row as usize];
        &self.posted[lo as usize..hi as usize]
    }

    /// The members of `group` in `row`.
    fn group_run(&self, row: u32, group: u32) -> &[(u32, u32)] {
        let run = self.run(row);
        let lo = run.partition_point(|&(g, _)| g < group);
        let hi = lo + run[lo..].partition_point(|&(g, _)| g == group);
        &run[lo..hi]
    }
}

impl Encoded {
    fn new(
        features: &[LecFeature],
        groups: &[FeatureGroup],
        query_edges: &[(usize, usize)],
    ) -> Encoded {
        // Only crossing-edge endpoints are ever bound in a feature state.
        let nv = query_edges
            .iter()
            .map(|&(f, t)| f.max(t) + 1)
            .max()
            .unwrap_or(0);
        let layout = Layout::new(nv, query_edges.len());
        let mut ids = EdgeIds::default();
        let mut states = FlatSet::new(layout.width);
        let mut scratch = vec![0u64; layout.width];
        let state_of: Vec<u32> = features
            .iter()
            .map(|f| {
                if layout.encode_feature(f, query_edges, &mut ids, &mut scratch) {
                    states.insert(&scratch).0
                } else {
                    NEVER_JOINS
                }
            })
            .collect();

        // Groups ascending, members ascending: each row's pairs arrive
        // already sorted, so a stable counting sort by row suffices.
        let mut entries: Vec<(u32, u32, u32)> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            for &fi in &g.members {
                let sid = state_of[fi as usize];
                if sid == NEVER_JOINS {
                    continue;
                }
                let s = states.get(sid);
                for qe in layout.edges(s) {
                    entries.push((layout.edge(s, qe), gi as u32, fi));
                }
            }
        }
        let mut span = vec![(0u32, 0u32); ids.len()];
        for &(row, _, _) in &entries {
            span[row as usize].1 += 1;
        }
        let mut at = 0;
        for s in &mut span {
            let len = s.1;
            *s = (at, at);
            at += len;
        }
        let mut posted = vec![(0u32, 0u32); entries.len()];
        for &(row, g, f) in &entries {
            let s = &mut span[row as usize];
            posted[s.1 as usize] = (g, f);
            s.1 += 1;
        }
        Encoded {
            layout,
            states,
            state_of,
            postings: Postings { span, posted },
        }
    }

    /// Definition 9 for two input features (the disjoint-sign test is
    /// applied per group pair by the caller).
    fn joinable(&self, fa: u32, fb: u32) -> bool {
        let a = self.states.get(self.state_of[fa as usize]);
        let b = self.states.get(self.state_of[fb as usize]);
        // Condition 1: not two originals of the same fragment.
        !(a[FRAG] == b[FRAG] && a[FRAG].count_ones() == 1) && self.layout.agree(a, b)
    }

    /// The join graph: `adj[i]` lists the groups with at least one
    /// joinable feature pair with group `i` (sorted, deduplicated). Only
    /// pairs that share a posting row are probed; a row's members are
    /// sorted by group, so a group pair already known adjacent skips its
    /// whole block, and an undecided pair stops at its first witness.
    fn join_graph(&self, groups: &[FeatureGroup]) -> Vec<Vec<usize>> {
        let mut adjacent: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut buckets: Vec<&[(u32, u32)]> = Vec::new();
        for row in 0..self.postings.span.len() as u32 {
            let run = self.postings.run(row);
            if run.len() < 2 {
                continue;
            }
            buckets.clear();
            buckets.extend(run.chunk_by(|x, y| x.0 == y.0));
            for (x, fa_list) in buckets.iter().enumerate() {
                let ga = fa_list[0].0;
                for fb_list in &buckets[x + 1..] {
                    let gb = fb_list[0].0;
                    // Theorem 5: joinable groups have disjoint signs.
                    if groups[ga as usize].sign & groups[gb as usize].sign != 0
                        || adjacent.contains(&(ga, gb))
                    {
                        continue;
                    }
                    let witness = fa_list
                        .iter()
                        .any(|&(_, fa)| fb_list.iter().any(|&(_, fb)| self.joinable(fa, fb)));
                    if witness {
                        adjacent.insert((ga, gb));
                    }
                }
            }
        }
        let mut adj = vec![Vec::new(); groups.len()];
        for &(a, b) in &adjacent {
            adj[a as usize].push(b as usize);
            adj[b as usize].push(a as usize);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        adj
    }
}

/// The join graph over feature groups: `adj[i]` lists groups with at
/// least one joinable feature pair with group `i` (sorted, deduplicated).
///
/// Candidate pairs come from a crossing-edge index — Definition 9
/// condition 2 requires a shared `(data edge, query edge)` entry, so two
/// groups can only be adjacent if some posting row contains features of
/// both — then pay the disjoint-sign mask test and a flat-state
/// compatibility probe. Groups that share no crossing edge are never
/// compared at all.
pub fn build_join_graph(
    features: &[LecFeature],
    groups: &[FeatureGroup],
    query_edges: &[(usize, usize)],
) -> Vec<Vec<usize>> {
    Encoded::new(features, groups, query_edges).join_graph(groups)
}

/// The DFS stack of visited groups: push/pop order plus O(1) membership,
/// and — when the group count fits — a `u64` bitmask that doubles as the
/// memoization key for the visited set.
struct VisitedStack {
    order: Vec<usize>,
    flags: Vec<bool>,
    mask: u64,
    small: bool,
}

impl VisitedStack {
    fn new(n_groups: usize) -> Self {
        VisitedStack {
            order: Vec::new(),
            flags: vec![false; n_groups],
            mask: 0,
            small: n_groups <= 64,
        }
    }

    fn push(&mut self, v: usize) {
        self.order.push(v);
        self.flags[v] = true;
        if self.small {
            self.mask |= 1 << v;
        }
    }

    fn pop(&mut self) {
        let v = self.order.pop().expect("pop matches a push");
        self.flags[v] = false;
        if self.small {
            self.mask &= !(1 << v);
        }
    }

    /// The visited-set memo key — `None` when more than 64 groups exist,
    /// in which case state memoization is skipped (still correct, just
    /// not deduplicated).
    fn key(&self) -> Option<u64> {
        self.small.then_some(self.mask)
    }
}

/// Explored `(visited mask, current states)` keys of one outer iteration
/// of Algorithm 2, each with the DAG nodes of the instance that was
/// expanded, all in flat arenas.
#[derive(Default)]
struct Memo {
    index: SliceIndex,
    /// `[visited mask, sorted state ids...]` per entry, concatenated.
    keys: Vec<u64>,
    /// Per entry: key start, key length, start of its nodes in `nodes`.
    entries: Vec<(u32, u32, u32)>,
    /// The expanded instance's node ids, aligned with its sorted key.
    nodes: Vec<u32>,
    sorted: Vec<(u32, u32)>,
    key: Vec<u64>,
}

impl Memo {
    fn clear(&mut self) {
        self.index.clear();
        self.keys.clear();
        self.entries.clear();
        self.nodes.clear();
    }

    /// Memoize the `(visited, current)` state. Returns `true` when it
    /// was already expanded — in that case alias edges from the expanded
    /// instance's nodes to this one's are recorded, so the skipped
    /// subtree's completions still reach this lineage. Alignment is by
    /// sorted state id; nodes sharing a state behave identically
    /// downstream, so any bijection among them is sound.
    fn hit(&mut self, vmask: u64, current: &[(u32, u32)], aliases: &mut Vec<(u32, u32)>) -> bool {
        self.sorted.clear();
        self.sorted.extend_from_slice(current);
        self.sorted.sort_unstable();
        self.key.clear();
        self.key.push(vmask);
        self.key
            .extend(self.sorted.iter().map(|&(s, _)| u64::from(s)));
        let hash = hash_words(self.key.iter().copied());
        let id = self.entries.len() as u32;
        let found = self.index.get_or_insert(hash, id, |e| {
            let (start, len, _) = self.entries[e as usize];
            self.keys[start as usize..(start + len) as usize] == self.key[..]
        });
        match found {
            Some(e) => {
                let start = self.entries[e as usize].2 as usize;
                for (&expanded, &(_, skipped)) in self.nodes[start..].iter().zip(&self.sorted) {
                    if expanded != skipped {
                        aliases.push((expanded, skipped));
                    }
                }
                true
            }
            None => {
                self.entries.push((
                    self.keys.len() as u32,
                    self.key.len() as u32,
                    self.nodes.len() as u32,
                ));
                self.keys.extend_from_slice(&self.key);
                self.nodes.extend(self.sorted.iter().map(|&(_, n)| n));
                false
            }
        }
    }
}

const NO_LINK: u32 = u32::MAX;

/// Everything the recursive `ComLECFJoin` threads through.
///
/// The DFS records a **join-derivation DAG**: every intermediate is a
/// node (`0..features.len()` are the input features), each derivation
/// `(a, b)` of a node is a link in a flat per-node list, every completing
/// join lands in `complete_pairs`, and memo hits add `aliases` edges
/// tying the skipped instance to the expanded one. One backward
/// reachability pass at the end marks exactly the input features that
/// participate in a complete combination.
struct Dfs<'a> {
    enc: Encoded,
    groups: &'a [FeatureGroup],
    adj: &'a [Vec<usize>],
    /// All-ones LECSign for the query.
    full_sign: u64,
    /// Per node: the head of its derivation list in `links`.
    first_link: Vec<u32>,
    /// `(a, b, next link)` derivations.
    links: Vec<(u32, u32, u32)>,
    /// `(a, b)` node pairs whose join reached the all-ones sign.
    complete_pairs: Vec<(u32, u32)>,
    /// `(from, to)` edges: `from` useful ⇒ `to` useful.
    aliases: Vec<(u32, u32)>,
    memo: Memo,
    /// Per depth: the `(state, node)` pairs of that level's intermediates.
    levels: Vec<Vec<(u32, u32)>>,
    /// Per state id: `(build stamp, position in next)` — the dedup of
    /// one join level's results.
    slot: Vec<(u64, u32)>,
    build: u64,
    /// Per feature: the last probe that met it (a pair sharing several
    /// entries surfaces once per entry; it is tested once).
    met: Vec<u64>,
    probe: u64,
    a: Vec<u64>,
    joined: Vec<u64>,
}

/// Algorithm 2: returns the set of **original feature ids** (the `sources`
/// ids assigned by Algorithm 1) that participate in at least one complete
/// (all-ones LECSign) combination. LPMs whose feature id is not in the
/// returned set can be pruned.
#[allow(clippy::while_let_loop)] // the loop body mutates `alive`, not just the scrutinee
pub fn prune_features(
    features: &[LecFeature],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> FxHashSet<u32> {
    if features.is_empty() {
        return FxHashSet::default();
    }
    let groups = group_by_sign(features);
    let enc = Encoded::new(features, &groups, query_edges);
    let adj = enc.join_graph(&groups);
    let width = enc.layout.width;
    let mut dfs = Dfs {
        enc,
        groups: &groups,
        adj: &adj,
        full_sign: crate::lec::full_sign(n_query_vertices),
        first_link: vec![NO_LINK; features.len()],
        links: Vec::new(),
        complete_pairs: Vec::new(),
        aliases: Vec::new(),
        memo: Memo::default(),
        levels: Vec::new(),
        slot: Vec::new(),
        build: 0,
        met: vec![0; features.len()],
        probe: 0,
        a: vec![0; width],
        joined: vec![0; width],
    };

    // Work on a shrinking vertex set, per the algorithm's outer loop.
    let mut alive: Vec<bool> = vec![true; groups.len()];
    loop {
        // Pick the smallest alive group.
        let Some(vmin) = (0..groups.len())
            .filter(|&v| alive[v])
            .min_by_key(|&v| groups[v].members.len())
        else {
            break;
        };
        // The memo is only valid for a fixed `alive`; the outer loop
        // changes it, so each iteration explores afresh.
        dfs.memo.clear();
        if dfs.levels.is_empty() {
            dfs.levels.push(Vec::new());
        }
        let seeds = &mut dfs.levels[0];
        seeds.clear();
        for &fi in &groups[vmin].members {
            let sid = dfs.enc.state_of[fi as usize];
            if sid != NEVER_JOINS {
                seeds.push((sid, fi));
            }
        }
        let mut visited = VisitedStack::new(groups.len());
        visited.push(vmin);
        com_lecf_join(&mut dfs, &mut visited, 0, &alive);
        alive[vmin] = false;
        // Remove outliers: groups with no alive neighbor cannot join
        // anything anymore.
        loop {
            let mut removed = false;
            for v in 0..groups.len() {
                if alive[v] && !adj[v].iter().any(|&u| alive[u]) {
                    alive[v] = false;
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
    }

    // Backward reachability over the derivation DAG: a node is useful
    // iff it participates in some completing join chain. Completing
    // pairs seed the worklist; usefulness propagates to every recorded
    // derivation's parents and across alias edges.
    let mut aliases = std::mem::take(&mut dfs.aliases);
    aliases.sort_unstable();
    let mut useful = vec![false; dfs.first_link.len()];
    let mut work: Vec<u32> = Vec::new();
    for &(a, b) in &dfs.complete_pairs {
        work.push(a);
        work.push(b);
    }
    while let Some(x) = work.pop() {
        if std::mem::replace(&mut useful[x as usize], true) {
            continue;
        }
        let mut link = dfs.first_link[x as usize];
        while link != NO_LINK {
            let (a, b, next) = dfs.links[link as usize];
            work.push(a);
            work.push(b);
            link = next;
        }
        let from = aliases.partition_point(|&(f, _)| f < x);
        work.extend(
            aliases[from..]
                .iter()
                .take_while(|&&(f, _)| f == x)
                .map(|&(_, t)| t),
        );
    }
    let mut rs = FxHashSet::default();
    for (f, &u) in features.iter().zip(&useful) {
        if u {
            rs.extend(f.sources.iter().copied());
        }
    }
    rs
}

/// The recursive `ComLECFJoin` of Algorithm 2. `visited` is the vertex
/// set `V`; `dfs.levels[depth]` the accumulated joined states for it.
fn com_lecf_join(dfs: &mut Dfs<'_>, visited: &mut VisitedStack, depth: usize, alive: &[bool]) {
    let current = std::mem::take(&mut dfs.levels[depth]);
    let explored = current.is_empty()
        || visited
            .key()
            .is_some_and(|vmask| dfs.memo.hit(vmask, &current, &mut dfs.aliases));
    if !explored {
        expand(dfs, visited, depth, &current, alive);
    }
    dfs.levels[depth] = current;
}

/// One level of `ComLECFJoin`: join `current` with every frontier group
/// and recurse on each non-empty result.
///
/// Per (intermediate × frontier group): one sign test; then only the
/// group's members sharing a posting row with the intermediate are met,
/// each once, and pay the original-fragment rule plus the flat
/// [`Layout::agree`] probe. A join result is the OR of the two states,
/// interned to a state id; a repeat within the level records one more
/// derivation of the same node.
fn expand(
    dfs: &mut Dfs<'_>,
    visited: &mut VisitedStack,
    depth: usize,
    current: &[(u32, u32)],
    alive: &[bool],
) {
    let mut frontier: Vec<usize> = visited
        .order
        .iter()
        .flat_map(|&v| dfs.adj[v].iter().copied())
        .filter(|&u| alive[u] && !visited.flags[u])
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    if frontier.is_empty() {
        return;
    }
    while dfs.levels.len() < depth + 2 {
        dfs.levels.push(Vec::new());
    }
    let layout = dfs.enc.layout;
    for v in frontier {
        let group_sign = dfs.groups[v].sign;
        let mut next = std::mem::take(&mut dfs.levels[depth + 1]);
        next.clear();
        dfs.build += 1;
        for &(sa, na) in current {
            dfs.a.copy_from_slice(dfs.enc.states.get(sa));
            // Theorem 5 / condition 4: disjoint LECSigns.
            if dfs.a[SIGN] & group_sign != 0 {
                continue;
            }
            dfs.probe += 1;
            for qe in layout.edges(&dfs.a) {
                let row = layout.edge(&dfs.a, qe);
                for &(_, fb) in dfs.enc.postings.group_run(row, v as u32) {
                    if std::mem::replace(&mut dfs.met[fb as usize], dfs.probe) == dfs.probe {
                        continue;
                    }
                    let b = dfs.enc.states.get(dfs.enc.state_of[fb as usize]);
                    // Condition 1: not two originals of the same fragment.
                    if dfs.a[FRAG] == b[FRAG] && b[FRAG].count_ones() == 1 {
                        continue;
                    }
                    if !layout.agree(&dfs.a, b) {
                        continue;
                    }
                    if dfs.a[SIGN] | b[SIGN] == dfs.full_sign {
                        dfs.complete_pairs.push((na, fb));
                        continue;
                    }
                    merge(&dfs.a, b, &mut dfs.joined);
                    let (sid, _) = dfs.enc.states.insert(&dfs.joined);
                    if dfs.slot.len() <= sid as usize {
                        dfs.slot.resize(sid as usize + 1, (0, 0));
                    }
                    let link = dfs.links.len() as u32;
                    let (stamp, pos) = dfs.slot[sid as usize];
                    let node = if stamp == dfs.build {
                        next[pos as usize].1
                    } else {
                        let node = dfs.first_link.len() as u32;
                        dfs.first_link.push(NO_LINK);
                        dfs.slot[sid as usize] = (dfs.build, next.len() as u32);
                        next.push((sid, node));
                        node
                    };
                    dfs.links.push((na, fb, dfs.first_link[node as usize]));
                    dfs.first_link[node as usize] = link;
                }
            }
        }
        let joined_any = !next.is_empty();
        dfs.levels[depth + 1] = next;
        if joined_any {
            visited.push(v);
            com_lecf_join(dfs, visited, depth + 1, alive);
            visited.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::{EdgeRef, TermId};

    fn edge(f: u64, l: u64, t: u64) -> EdgeRef {
        EdgeRef {
            from: TermId(f),
            label: TermId(l),
            to: TermId(t),
        }
    }

    fn feat(id: u32, fragment: usize, mapping: Vec<(EdgeRef, usize)>, sign: u64) -> LecFeature {
        LecFeature {
            fragments: 1 << fragment,
            mapping,
            sign,
            sources: vec![id],
        }
    }

    /// The paper's running example (Examples 6–7 and Fig. 6): seven LEC
    /// features in five groups; Algorithm 2 prunes LF([PM2_3]) = P5.
    ///
    /// Vertices v1..v5 are bits 0..4. Query edges from Fig. 2:
    /// e0: v2->v4, e1: v3->v1, e2: v1->v2, e3: v3->v5.
    fn paper_features() -> (Vec<LecFeature>, Vec<(usize, usize)>) {
        let qedges = vec![(1, 3), (2, 0), (0, 1), (2, 4)];
        // Crossing edges of Fig. 1 (ids match the figure).
        let e_1_6 = edge(1, 100, 6); // 001 influencedBy 006
        let e_1_12 = edge(1, 100, 12); // 001 influencedBy 012
        let e_6_5 = edge(6, 101, 5); // 006 mainInterest 005
        let e_14_13 = edge(14, 101, 13); // 014 mainInterest 013
        let features = vec![
            // F1 (fragment 0):
            feat(0, 0, vec![(e_1_6, 1)], 0b10100), // LF([PM1_1]) sign 00101 -> v3,v5
            feat(1, 0, vec![(e_1_12, 1)], 0b10100), // LF([PM2_1])
            feat(2, 0, vec![(e_6_5, 2)], 0b01010), // LF([PM3_1]) sign 01010 -> v2,v4
            // F2 (fragment 1):
            feat(3, 1, vec![(e_1_6, 1)], 0b01011), // LF([PM1_2]) = LF([PM2_2]) v1,v2,v4
            feat(4, 1, vec![(e_1_6, 1), (e_6_5, 2)], 0b00001), // LF([PM3_2]) v1
            // F3 (fragment 2):
            feat(5, 2, vec![(e_1_12, 1)], 0b01011), // LF([PM1_3])
            feat(6, 2, vec![(e_14_13, 2)], 0b01010), // LF([PM2_3])
        ];
        (features, qedges)
    }

    #[test]
    fn paper_example7_grouping() {
        let (features, _) = paper_features();
        let groups = group_by_sign(&features);
        // The paper's Example 7 shows five groups, keeping LF([PM3_1]) and
        // LF([PM2_3]) apart although they share LECSign [01010]:
        // Definition 10 only requires each group to be sign-homogeneous,
        // not maximal. We group maximally (fewer groups, smaller join
        // graph), which Theorem 5 proves sound — a valid combination never
        // needs two same-sign features. Hence 4 groups here.
        assert_eq!(groups.len(), 4);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = groups.iter().map(|g| g.members.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 2, 2, 2]);
        // Every group is sign-homogeneous (the actual Definition 10).
        for g in &groups {
            assert!(g
                .members
                .iter()
                .all(|&fi| features[fi as usize].sign == g.sign));
        }
    }

    #[test]
    fn paper_join_graph_shape() {
        let (features, qedges) = paper_features();
        let groups = group_by_sign(&features);
        let adj = build_join_graph(&features, &groups, &qedges);
        // Group of sign 01010 containing LF([PM3_1]) and LF([PM2_3]):
        // LF([PM3_1]) joins LF([PM3_2]) (shared e_6_5). LF([PM2_3]) joins
        // nothing — but group-level adjacency is about *some* pair, so its
        // group still has edges via LF([PM3_1]).
        let degree_sum: usize = adj.iter().map(Vec::len).sum();
        assert!(degree_sum > 0);
    }

    #[test]
    fn join_graph_adjacency_is_symmetric_and_sorted() {
        let (features, qedges) = paper_features();
        let groups = group_by_sign(&features);
        let adj = build_join_graph(&features, &groups, &qedges);
        for (i, list) in adj.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for &j in list {
                assert!(adj[j].contains(&i), "symmetric");
                assert_ne!(i, j, "no self loops");
                assert_eq!(groups[i].sign & groups[j].sign, 0, "Theorem 5");
            }
        }
    }

    #[test]
    fn paper_pruning_keeps_the_two_real_combinations() {
        let (features, qedges) = paper_features();
        let rs = prune_features(&features, 5, &qedges);
        // Complete combinations: {PM1_1, PM1_2-class} (via e_1_6: signs
        // 00101 | 11010... check: 0b10100 | 0b01011 = 0b11111 ✓) and
        // {PM2_1, PM1_3} (via e_1_12: 0b10100 | 0b01011 = full ✓).
        assert!(rs.contains(&0), "LF([PM1_1]) is useful");
        assert!(rs.contains(&3), "LF([PM1_2]) is useful");
        assert!(rs.contains(&1), "LF([PM2_1]) is useful");
        assert!(rs.contains(&5), "LF([PM1_3]) is useful");
        // The paper: "P5 = LF([PM2_3]) can be filtered out".
        assert!(!rs.contains(&6), "LF([PM2_3]) must be pruned");
    }

    #[test]
    fn three_way_combination_found() {
        // Chain query v0-v1-v2 (3 vertices, 2 edges), three fragments.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let e12 = edge(20, 1, 30);
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0), (e12, 1)], 0b010),
            feat(2, 2, vec![(e12, 1)], 0b100),
        ];
        let rs = prune_features(&features, 3, &qedges);
        let mut got: Vec<u32> = rs.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn dead_end_features_pruned() {
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let e99 = edge(70, 1, 80); // matches nothing else
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0)], 0b110),
            feat(2, 2, vec![(e99, 1)], 0b100),
        ];
        let rs = prune_features(&features, 3, &qedges);
        assert!(rs.contains(&0));
        assert!(rs.contains(&1));
        assert!(!rs.contains(&2), "unjoinable feature must be pruned");
    }

    #[test]
    fn empty_input_prunes_everything() {
        let rs = prune_features(&[], 3, &[(0, 1)]);
        assert!(rs.is_empty());
    }

    #[test]
    fn no_complete_combination_prunes_all() {
        // Two features that join but never cover vertex 2.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0)], 0b010),
        ];
        let rs = prune_features(&features, 3, &qedges);
        assert!(rs.is_empty());
    }

    #[test]
    fn same_sign_features_share_group_and_fate_independently() {
        // Two same-sign features in one group; only one joins to complete.
        let qedges = vec![(0, 1)];
        let e = edge(10, 1, 20);
        let e_dead = edge(30, 1, 40);
        let features = vec![
            feat(0, 0, vec![(e, 0)], 0b01),
            feat(1, 0, vec![(e_dead, 0)], 0b01),
            feat(2, 1, vec![(e, 0)], 0b10),
        ];
        let rs = prune_features(&features, 2, &qedges);
        assert!(rs.contains(&0));
        assert!(rs.contains(&2));
        assert!(!rs.contains(&1));
    }

    #[test]
    fn merged_lineages_both_survive_on_completion() {
        // Two distinct F0 seeds join the same F1 feature into the same
        // structural intermediate is impossible (different mappings), but
        // two *lineages* can reach one joined feature when two same-
        // structure paths exist; the dedup must keep both source sets.
        // Construct: A0 and A1 (same group, same mapping, different ids —
        // as separate input features), both join B, whose join completes.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let e12 = edge(20, 1, 30);
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0), (e12, 1)], 0b010),
            feat(2, 2, vec![(e12, 1)], 0b100),
            // A structurally identical sibling of feature 0 carrying a
            // different id (e.g. shipped by a different site replica).
            LecFeature {
                fragments: 1 << 3,
                mapping: vec![(e01, 0)],
                sign: 0b001,
                sources: vec![9],
            },
        ];
        let rs = prune_features(&features, 3, &qedges);
        for id in [0u32, 1, 2, 9] {
            assert!(rs.contains(&id), "id {id} participates in a completion");
        }
    }

    #[test]
    fn big_group_counts_disable_the_state_memo_but_stay_correct() {
        // More than 64 sign groups: the u64 visited mask no longer fits,
        // so the state memo switches off; pruning must stay correct.
        // 64-vertex query, 71 isolated singleton/pair sign groups plus one
        // genuinely joinable complete pair.
        let qedges: Vec<(usize, usize)> = (0..63).map(|i| (i, i + 1)).collect();
        let e = edge(10, 1, 20);
        let mut features: Vec<LecFeature> = Vec::new();
        for i in 0..64u32 {
            features.push(feat(
                i,
                (i % 60) as usize,
                vec![(edge(1000 + i as u64, 1, 7), 0)],
                1 << i,
            ));
        }
        for i in 1..8u32 {
            features.push(feat(
                64 + i,
                ((i + 1) % 60) as usize,
                vec![(edge(2000 + i as u64, 1, 7), 0)],
                (1 << i) | 1,
            ));
        }
        // The joinable pair: all-but-v0 + v0, sharing edge `e` on query
        // edge 0, different fragments — completes the 64-bit sign.
        features.push(feat(100, 61, vec![(e, 0)], !1u64));
        features.push(feat(101, 62, vec![(e, 0)], 1));
        let groups = group_by_sign(&features);
        assert!(groups.len() > 64, "test premise: {} groups", groups.len());
        let rs = prune_features(&features, 64, &qedges);
        let mut got: Vec<u32> = rs.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![100, 101]);
    }
}
