//! Inputs: the two datasets, their query mixes, and the expected rows
//! every answer is checked against.

use std::collections::HashSet;

use gstored::datagen::random::{predicate_iri, random_graph, vertex_iri, RandomGraphConfig};
use gstored::datagen::{lubm, lubm_queries, LubmConfig};
use gstored::rdf::{Dictionary, RdfGraph, Term, Triple, VertexId};
use gstored::sparql::{parse_query, QueryGraph};
use gstored::store::{find_matches, EncodedQuery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One query of a workload's mix.
pub struct MixQuery {
    pub id: &'static str,
    pub text: String,
}

/// LUBM-like data near 30k triples. The department count per university
/// is held at the generator's mean (5) so that changing the seed moves
/// which entities link where, not how many there are: the work per query
/// then varies little from seed to seed.
pub fn lubm_dataset(seed: u64) -> (Vec<Triple>, Vec<MixQuery>) {
    let config = LubmConfig {
        min_departments: 5,
        max_departments: 5,
        ..LubmConfig::with_target_triples(30_000, seed)
    };
    let queries = lubm_queries()
        .into_iter()
        .map(|q| MixQuery {
            id: q.id,
            text: q.text,
        })
        .collect();
    (lubm::generate(&config), queries)
}

/// Shape of the crossing-heavy random graph: 30k triples over 10k
/// vertices and 3 predicates, about one out-edge per (vertex, predicate).
pub const RANDOM_VERTICES: usize = 10_000;
pub const RANDOM_EDGES: usize = 30_000;
pub const RANDOM_PREDICATES: usize = 3;

/// The crossing-heavy random graph and RQ1–RQ3 (two paths and a
/// triangle over the three predicates).
pub fn random_dataset(seed: u64) -> (Vec<Triple>, Vec<MixQuery>) {
    let config = RandomGraphConfig {
        vertices: RANDOM_VERTICES,
        edges: RANDOM_EDGES,
        predicates: RANDOM_PREDICATES,
        seed,
    };
    let p = predicate_iri;
    let queries = vec![
        MixQuery {
            id: "RQ1",
            text: format!("SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c }}", p(0), p(1)),
        },
        MixQuery {
            id: "RQ2",
            text: format!(
                "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?d }}",
                p(0),
                p(1),
                p(2)
            ),
        },
        MixQuery {
            id: "RQ3",
            text: format!(
                "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?a }}",
                p(0),
                p(1),
                p(2)
            ),
        },
    ];
    (random_triples(&config), queries)
}

/// The triples `random_graph` generates for `config`, drawn from the same
/// random stream but deduplicated through a hash set: `random_graph`
/// checks each new triple against a `Vec`, which is quadratic and takes
/// seconds at 30k triples.
pub fn random_triples(config: &RandomGraphConfig) -> Vec<Triple> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut triples = Vec::with_capacity(config.edges);
    let mut seen = HashSet::with_capacity(config.edges);
    let mut attempts = 0;
    while triples.len() < config.edges && attempts < config.edges * 10 {
        attempts += 1;
        let s = rng.gen_range(0..config.vertices);
        let o = rng.gen_range(0..config.vertices);
        let p = rng.gen_range(0..config.predicates);
        if seen.insert((s, p, o)) {
            triples.push(Triple::new(
                Term::iri(vertex_iri(s)),
                Term::iri(predicate_iri(p)),
                Term::iri(vertex_iri(o)),
            ));
        }
    }
    triples
}

/// Whether [`random_triples`] yields exactly the triple set of
/// `random_graph` on a graph small enough for the latter's quadratic
/// dedup, at this seed.
pub fn random_generator_matches_reference(seed: u64) -> bool {
    let config = RandomGraphConfig {
        vertices: 300,
        edges: 2_000,
        predicates: RANDOM_PREDICATES,
        seed,
    };
    let reference = random_graph(&config);
    let dict = reference.dict();
    let mut expected: Vec<(Term, Term, Term)> = Vec::new();
    for v in reference.vertices() {
        for &(p, o) in reference.out_edges(v) {
            expected.push((
                dict.resolve(v).clone(),
                dict.resolve(p).clone(),
                dict.resolve(o).clone(),
            ));
        }
    }
    let mut ours: Vec<(Term, Term, Term)> = random_triples(&config)
        .into_iter()
        .map(|t| (t.subject, t.predicate, t.object))
        .collect();
    expected.sort();
    ours.sort();
    expected == ours
}

/// Expected rows of each query, computed once by the centralized
/// `find_matches` oracle over the unpartitioned graph and re-encoded with
/// the session's dictionary, sorted as `execute` returns them.
pub fn oracle_rows(
    triples: &[Triple],
    queries: &[MixQuery],
    session_dict: &Dictionary,
) -> Result<Vec<Vec<Vec<VertexId>>>, String> {
    let mut graph = RdfGraph::from_triples(triples.iter().cloned());
    graph.finalize();
    let mut all = Vec::with_capacity(queries.len());
    for q in queries {
        let ast = parse_query(&q.text).map_err(|e| format!("{}: {e}", q.id))?;
        let qg = QueryGraph::from_query(&ast).map_err(|e| format!("{}: {e}", q.id))?;
        if qg.distinct || qg.limit.is_some() {
            return Err(format!("{}: the oracle handles plain BGPs only", q.id));
        }
        let mut rows = Vec::new();
        if let Some(encoded) = EncodedQuery::encode(&qg, graph.dict()) {
            for binding in find_matches(&graph, &encoded) {
                let row = encoded
                    .projection()
                    .iter()
                    .map(|&v| {
                        let term = graph.dict().resolve(binding[v]);
                        session_dict
                            .id_of(term)
                            .ok_or_else(|| format!("{}: term {term:?} not in session", q.id))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                rows.push(row);
            }
        }
        rows.sort_unstable();
        all.push(rows);
    }
    Ok(all)
}
