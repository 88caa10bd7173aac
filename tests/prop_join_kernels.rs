//! Equivalence battery for the coordinator's flat join kernels.
//!
//! LEC pruning (Algorithm 2) and LEC assembly (Algorithm 3) run on one
//! flat, fixed-width state layout. On every input they must return what
//! the frozen implementations in `gstored_bench::reference` return:
//!
//! * `prune_features` keeps exactly the useful feature ids of
//!   `prune_features_prepr4`;
//! * `assemble_lec`, `IncrementalJoin` (every LPM pushed, in several
//!   arrival orders), `assemble_lec_prepr3`, `assemble_lec_prepr10` and
//!   `assemble_basic` return the same rows, before and after pruning.
//!
//! The inputs are synthetic but shaped like real ones: complete matches
//! of a query over a shared vertex pool, cut into local partial matches
//! by a vertex → fragment map (one LPM per connected same-fragment piece,
//! binding its internal vertices and their neighbours, with the edges to
//! other fragments as crossing edges). On top of random shapes, the
//! battery pins the shapes a fixed-width layout can get wrong:
//!
//! * mixed bound masks inside one LECSign group;
//! * more than 64 LECSign groups;
//! * a query with more than 64 edges over 64 or fewer vertices (the
//!   edge mask spans several words), also run end to end;
//! * a 64-vertex query (the all-ones sign is `u64::MAX`).

use std::collections::{BTreeSet, HashMap, HashSet};

use proptest::prelude::*;

use gstored::core::assembly::{assemble_basic, assemble_lec, IncrementalJoin};
use gstored::core::engine::Variant;
use gstored::core::lec::{compute_lec_features, LecFeature};
use gstored::core::prune::{group_by_sign, prune_features};
use gstored::prelude::*;
use gstored::rdf::EdgeRef;
use gstored::store::{find_matches, EncodedQuery, LocalPartialMatch};
use gstored_bench::reference;

/// SplitMix64: a small seeded generator for the input shapes.
struct SmallRng(u64);

impl SmallRng {
    fn seed_from_u64(seed: u64) -> SmallRng {
        SmallRng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `(fragment, binding, internal mask, crossing edges)` of one LPM.
type LpmParts = (usize, Vec<Option<u64>>, u64, Vec<(EdgeRef, usize)>);

/// A query shape: `nv` vertices and `(from, to)` edges.
struct Shape {
    nv: usize,
    edges: Vec<(usize, usize)>,
}

impl Shape {
    /// A random connected shape: a spanning tree plus extra edges, which
    /// may run parallel to earlier ones.
    fn random(nv: usize, n_edges: usize, rng: &mut SmallRng) -> Shape {
        let mut edges = Vec::new();
        for v in 1..nv {
            let u = rng.below(v);
            edges.push(if rng.below(2) == 0 { (u, v) } else { (v, u) });
        }
        while edges.len() < n_edges.max(nv - 1) {
            let a = rng.below(nv);
            let b = rng.below(nv);
            if a != b {
                edges.push((a, b));
            }
        }
        Shape { nv, edges }
    }

    /// The path `0 - 1 - … - (nv-1)`.
    fn path(nv: usize) -> Shape {
        Shape {
            nv,
            edges: (1..nv).map(|v| (v - 1, v)).collect(),
        }
    }

    /// The data edge matching query edge `qe` under `m`.
    fn data_edge(&self, qe: usize, m: &[u64]) -> EdgeRef {
        let (f, t) = self.edges[qe];
        EdgeRef {
            from: TermId(m[f]),
            label: TermId(1_000_000 + qe as u64),
            to: TermId(m[t]),
        }
    }

    /// Cut each complete match into its local partial matches. A match
    /// lying wholly inside one fragment has none.
    fn lpms(
        &self,
        matches: &[Vec<u64>],
        fragment_of: impl Fn(u64) -> usize,
    ) -> Vec<LocalPartialMatch> {
        let mut out: BTreeSet<LpmParts> = BTreeSet::new();
        for m in matches {
            let frag: Vec<usize> = m.iter().map(|&d| fragment_of(d)).collect();
            if frag.iter().all(|&f| f == frag[0]) {
                continue;
            }
            // Connected same-fragment pieces (union-find over edges whose
            // endpoints share a fragment).
            let mut parent: Vec<usize> = (0..self.nv).collect();
            fn root(p: &mut [usize], v: usize) -> usize {
                let mut r = v;
                while p[r] != r {
                    r = p[r];
                }
                p[v] = r;
                r
            }
            for &(a, b) in &self.edges {
                if frag[a] == frag[b] {
                    let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                    parent[ra] = rb;
                }
            }
            let mut pieces: Vec<u64> = vec![0; self.nv];
            for v in 0..self.nv {
                let r = root(&mut parent, v);
                pieces[r] |= 1 << v;
            }
            for &piece in pieces.iter().filter(|&&p| p != 0) {
                let internal = |v: usize| piece & (1 << v) != 0;
                let mut binding: Vec<Option<u64>> = vec![None; self.nv];
                let mut crossing = Vec::new();
                for v in 0..self.nv {
                    if internal(v) {
                        binding[v] = Some(m[v]);
                    }
                }
                for (qe, &(a, b)) in self.edges.iter().enumerate() {
                    if internal(a) != internal(b) {
                        binding[a] = Some(m[a]);
                        binding[b] = Some(m[b]);
                        crossing.push((self.data_edge(qe, m), qe));
                    }
                }
                let fragment = frag[piece.trailing_zeros() as usize];
                out.insert((fragment, binding, piece, crossing));
            }
        }
        out.into_iter()
            .map(
                |(fragment, binding, internal_mask, crossing)| LocalPartialMatch {
                    fragment,
                    binding: binding.into_iter().map(|b| b.map(TermId)).collect(),
                    crossing,
                    internal_mask,
                },
            )
            .collect()
    }
}

/// `count` matches drawing vertex `v` from `v * 1000 + 0..pool`, so
/// matches share vertices and crossing edges.
fn random_matches(nv: usize, count: usize, pool: u64, rng: &mut SmallRng) -> Vec<Vec<u64>> {
    (0..count)
        .map(|_| {
            (0..nv)
                .map(|v| v as u64 * 1000 + rng.below(pool as usize) as u64)
                .collect()
        })
        .collect()
}

/// `count` matches of an `nv`-vertex path, each over its own vertices
/// and cut at `cuts` random points into runs that alternate between
/// three fragments; returns the matches and the vertex → fragment map.
fn cut_paths(
    nv: usize,
    count: u64,
    cuts: usize,
    seed: u64,
) -> (Vec<Vec<u64>>, HashMap<u64, usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fragment_of = HashMap::new();
    let mut matches = Vec::new();
    for m in 0..count {
        let binding: Vec<u64> = (0..nv as u64).map(|v| m * 1000 + v).collect();
        let at: Vec<usize> = (0..cuts).map(|_| 1 + rng.below(nv - 1)).collect();
        for (v, &d) in binding.iter().enumerate() {
            let run = at.iter().filter(|&&c| v >= c).count();
            fragment_of.insert(d, (run + m as usize) % 3);
        }
        matches.push(binding);
    }
    (matches, fragment_of)
}

/// Bind one more vertex in every third LPM: the true value of its match
/// in some, a wrong one in others. Signs are untouched, so a LECSign
/// group ends up holding several bound masks.
fn add_stray_bindings(lpms: &mut [LocalPartialMatch], rng: &mut SmallRng) {
    for lpm in lpms.iter_mut().step_by(3) {
        let free: Vec<usize> = (0..lpm.binding.len())
            .filter(|&v| lpm.binding[v].is_none())
            .collect();
        if free.is_empty() {
            continue;
        }
        let v = free[rng.below(free.len())];
        lpm.binding[v] = Some(TermId(v as u64 * 1000 + rng.below(3) as u64));
    }
}

/// Algorithm 1 per fragment, with disjoint id ranges as the engine uses.
fn features_of(lpms: &[LocalPartialMatch]) -> (Vec<LecFeature>, Vec<u32>) {
    let mut features = Vec::new();
    let mut id_of_lpm = vec![0u32; lpms.len()];
    let fragments: BTreeSet<usize> = lpms.iter().map(|m| m.fragment).collect();
    for f in fragments {
        let idx: Vec<usize> = (0..lpms.len()).filter(|&i| lpms[i].fragment == f).collect();
        let local: Vec<LocalPartialMatch> = idx.iter().map(|&i| lpms[i].clone()).collect();
        let (fs, of) = compute_lec_features(&local, f as u32 * 1_000_000);
        for (k, &i) in idx.iter().enumerate() {
            id_of_lpm[i] = fs[of[k]].sources[0];
        }
        features.extend(fs);
    }
    (features, id_of_lpm)
}

fn incremental(lpms: &[LocalPartialMatch], nv: usize, ne: usize) -> Vec<Vec<TermId>> {
    let mut joiner = IncrementalJoin::new(nv, ne);
    let mut rows: Vec<Vec<TermId>> = lpms.iter().flat_map(|m| joiner.push(m)).collect();
    let n = rows.len();
    rows.sort_unstable();
    rows.dedup();
    assert_eq!(rows.len(), n, "IncrementalJoin emitted a row twice");
    rows
}

/// Every kernel against every frozen implementation on one LPM set.
/// Returns the assembled rows.
fn check_kernels(shape: &Shape, lpms: &[LocalPartialMatch]) -> Vec<Vec<TermId>> {
    let (nv, qedges) = (shape.nv, &shape.edges);
    let (features, id_of_lpm) = features_of(lpms);
    let useful: HashSet<u32> = prune_features(&features, nv, qedges).into_iter().collect();
    assert_eq!(
        useful,
        reference::prune_features_prepr4(&features, nv, qedges),
        "prune drift"
    );

    let rows = assemble_lec(lpms, nv, qedges);
    assert_eq!(
        rows,
        reference::assemble_lec_prepr10(lpms, nv, qedges),
        "vs prepr10"
    );
    assert_eq!(
        rows,
        reference::assemble_lec_prepr3(lpms, nv, qedges),
        "vs prepr3"
    );
    assert_eq!(rows, assemble_basic(lpms, nv), "vs basic");
    assert_eq!(
        rows,
        incremental(lpms, nv, qedges.len()),
        "incremental, forward"
    );
    let mut reversed = lpms.to_vec();
    reversed.reverse();
    assert_eq!(
        rows,
        incremental(&reversed, nv, qedges.len()),
        "incremental, reverse"
    );

    // Pruning is sound: the survivors assemble into the same rows.
    let survivors: Vec<LocalPartialMatch> = lpms
        .iter()
        .zip(&id_of_lpm)
        .filter(|(_, id)| useful.contains(id))
        .map(|(m, _)| m.clone())
        .collect();
    assert_eq!(
        assemble_lec(&survivors, nv, qedges),
        rows,
        "pruning dropped a row"
    );
    rows
}

fn group_count(lpms: &[LocalPartialMatch]) -> usize {
    lpms.iter()
        .map(|m| m.internal_mask)
        .collect::<HashSet<_>>()
        .len()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Random shapes, pools and cuts, with and without stray bindings.
    #[test]
    fn flat_kernels_equal_frozen_kernels(
        seed in 0u64..100_000,
        nv in 2usize..7,
        extra_edges in 0usize..3,
        count in 1usize..60,
        pool in 1u64..5,
        sites in 2usize..5,
        stray in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = Shape::random(nv, nv - 1 + extra_edges, &mut rng);
        let matches = random_matches(nv, count, pool, &mut rng);
        let mut lpms = shape.lpms(&matches, |d| (d.wrapping_mul(0x9e37_79b9) >> 7) as usize % sites);
        if stray {
            add_stray_bindings(&mut lpms, &mut rng);
        }
        check_kernels(&shape, &lpms);
    }
}

#[test]
fn mixed_bound_masks_inside_one_group() {
    let mut mixed_groups = 0;
    for seed in 0..12 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = Shape::random(5, 6, &mut rng);
        let matches = random_matches(5, 30, 3, &mut rng);
        let mut lpms = shape.lpms(&matches, |d| (d % 7 % 3) as usize);
        add_stray_bindings(&mut lpms, &mut rng);
        let masks: HashSet<(u64, Vec<bool>)> = lpms
            .iter()
            .map(|m| {
                (
                    m.internal_mask,
                    m.binding.iter().map(Option::is_some).collect(),
                )
            })
            .collect();
        if masks.len() > group_count(&lpms) {
            mixed_groups += 1;
        }
        check_kernels(&shape, &lpms);
    }
    assert!(
        mixed_groups > 6,
        "premise: groups with several bound masks ({mixed_groups})"
    );
}

#[test]
fn more_than_64_lecsign_groups() {
    // Each path match is cut at its own two points, so its three pieces'
    // signs are intervals that differ from match to match.
    let shape = Shape::path(16);
    let (matches, fragment_of) = cut_paths(16, 100, 2, 5);
    let lpms = shape.lpms(&matches, |d| fragment_of[&d]);
    let groups = group_count(&lpms);
    assert!(groups > 64, "premise: {groups} LECSign groups");
    let (features, _) = features_of(&lpms);
    assert!(group_by_sign(&features).len() > 64);
    let rows = check_kernels(&shape, &lpms);
    assert_eq!(rows.len(), 100, "every cut match reassembles");
}

#[test]
fn more_than_64_query_edges_over_few_vertices() {
    let mut rng = SmallRng::seed_from_u64(3);
    let shape = Shape::random(6, 70, &mut rng);
    assert!(shape.edges.len() > 64);
    let matches = random_matches(6, 24, 2, &mut rng);
    let lpms = shape.lpms(&matches, |d| (d % 5 % 3) as usize);
    assert!(
        lpms.iter()
            .any(|m| m.crossing.iter().any(|&(_, qe)| qe >= 64)),
        "premise: crossing edges past the first mask word"
    );
    let rows = check_kernels(&shape, &lpms);
    assert!(!rows.is_empty(), "premise: some crossing match assembles");

    // 64 parallel edges inside one fragment, then a path across three:
    // every crossing edge lies past the first mask word.
    let mut edges = vec![(0, 1); 64];
    edges.extend([(1, 2), (2, 3), (3, 1)]);
    let shape = Shape { nv: 4, edges };
    let matches: Vec<Vec<u64>> = (0..6u64)
        .map(|m| (0..4).map(|v| m * 1000 + v).collect())
        .collect();
    let lpms = shape.lpms(&matches, |d| {
        ((d % 1000).max(1) as usize + (d / 1000) as usize) % 3
    });
    assert!(lpms
        .iter()
        .all(|m| m.crossing.iter().all(|&(_, qe)| qe >= 64)));
    assert_eq!(
        check_kernels(&shape, &lpms).len(),
        6,
        "every cut match reassembles"
    );
}

#[test]
fn sixty_four_vertex_query() {
    let shape = Shape::path(64);
    let (matches, fragment_of) = cut_paths(64, 5, 3, 11);
    let lpms = shape.lpms(&matches, |d| fragment_of[&d]);
    let rows = check_kernels(&shape, &lpms);
    assert_eq!(rows.len(), 5, "every cut match reassembles");
}

/// End to end: a 66-pattern query (more edges than a mask word holds,
/// which `prepare` accepts) shaped as a 3-hop path, so it runs through
/// LPMs, pruning and assembly rather than the star path, answers like the
/// centralized matcher under every variant.
#[test]
fn more_than_64_edge_query_end_to_end() {
    let hop = 22;
    let mut triples = Vec::new();
    for s in 0..6 {
        for p in 0..3 * hop {
            triples.push(Triple::new(
                Term::iri(format!("http://e/v{s}")),
                Term::iri(format!("http://e/p{p}")),
                Term::iri(format!("http://e/v{}", (s + 1) % 6)),
            ));
        }
    }
    // One link misses a label, so the paths through it must not match.
    triples.retain(|t| {
        !(t.subject == Term::iri("http://e/v4") && t.predicate == Term::iri("http://e/p30"))
    });
    let vars = ["?a", "?b", "?c", "?d"];
    let patterns: Vec<String> = (0..3 * hop)
        .map(|p| format!("{} <http://e/p{p}> {} .", vars[p / hop], vars[p / hop + 1]))
        .collect();
    let text = format!("SELECT * WHERE {{ {} }}", patterns.join(" "));
    let mut graph = RdfGraph::from_triples(triples);
    graph.finalize();
    let query = QueryGraph::from_query(&parse_query(&text).expect("parses")).expect("connected");
    assert_eq!(query.edge_count(), 3 * hop);
    let eq = EncodedQuery::encode(&query, graph.dict()).expect("encodes");
    let mut expected = find_matches(&graph, &eq);
    expected.sort_unstable();
    assert_eq!(
        expected.len(),
        5,
        "six 3-hop paths around the ring, one cut"
    );
    let dist = DistributedGraph::build(graph, &HashPartitioner::new(3));
    for variant in Variant::ALL {
        let out = Engine::with_variant(variant)
            .try_run(&dist, &query)
            .expect("evaluates");
        let mut got = out.bindings.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "{}", variant.label());
    }
}
