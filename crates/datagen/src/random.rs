//! Seeded random graphs and queries for property tests, fuzzing and
//! micro-benchmarks.

use std::collections::HashSet;

use gstored_rdf::{RdfGraph, Term, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a random labeled digraph.
#[derive(Debug, Clone)]
pub struct RandomGraphConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges (duplicates are re-rolled, self-loops allowed).
    pub edges: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            vertices: 30,
            edges: 60,
            predicates: 4,
            seed: 1,
        }
    }
}

/// Vertex IRI used by the random generator.
pub fn vertex_iri(i: usize) -> String {
    format!("http://rnd/v{i}")
}

/// Predicate IRI used by the random generator.
pub fn predicate_iri(i: usize) -> String {
    format!("http://rnd/p{i}")
}

/// Generate a random Erdős–Rényi-style labeled digraph.
pub fn random_graph(config: &RandomGraphConfig) -> RdfGraph {
    let mut g = RdfGraph::from_triples(random_triples(config));
    g.finalize();
    g
}

/// The triples of [`random_graph`], in generation order. A re-rolled
/// duplicate is detected on its `(subject, predicate, object)` indexes,
/// which name the triple uniquely, so the check is a hash probe instead
/// of a scan of every triple so far.
fn random_triples(config: &RandomGraphConfig) -> Vec<Triple> {
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

/// Generate a random connected BGP query over the generator's predicate
/// vocabulary: `n_edges` triple patterns over a growing variable set,
/// optionally anchored with one constant vertex drawn from the graph.
pub fn random_query(n_edges: usize, predicates: usize, anchor: Option<&str>, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut patterns = Vec::new();
    let mut n_vars = 1usize;
    for i in 0..n_edges {
        let p = predicate_iri(rng.gen_range(0..predicates));
        // Anchor the first pattern's object with a constant; no fresh
        // variable is introduced in that case.
        if i == 0 {
            if let Some(a) = anchor {
                patterns.push(format!("?v0 <{p}> <{a}> ."));
                continue;
            }
        }
        // Connect to an existing variable, add a fresh one.
        let existing = rng.gen_range(0..n_vars);
        let fresh = n_vars;
        n_vars += 1;
        let (s, o) = if rng.gen_bool(0.5) {
            (format!("?v{existing}"), format!("?v{fresh}"))
        } else {
            (format!("?v{fresh}"), format!("?v{existing}"))
        };
        patterns.push(format!("{s} <{p}> {o} ."));
    }
    format!("SELECT * WHERE {{ {} }}", patterns.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_sparql::{parse_query, QueryGraph};

    #[test]
    fn graph_is_deterministic_and_sized() {
        let c = RandomGraphConfig::default();
        let a = random_graph(&c);
        let b = random_graph(&c);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.edge_count(), c.edges);
        assert!(a.vertex_count() <= c.vertices);
    }

    /// The generator as it was before the hash-set dedup: every new
    /// triple checked against a `Vec` of all earlier ones.
    fn random_triples_by_scan(config: &RandomGraphConfig) -> Vec<Triple> {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut triples = Vec::with_capacity(config.edges);
        let mut attempts = 0;
        while triples.len() < config.edges && attempts < config.edges * 10 {
            attempts += 1;
            let s = rng.gen_range(0..config.vertices);
            let o = rng.gen_range(0..config.vertices);
            let p = rng.gen_range(0..config.predicates);
            let t = Triple::new(
                Term::iri(vertex_iri(s)),
                Term::iri(predicate_iri(p)),
                Term::iri(vertex_iri(o)),
            );
            if !triples.contains(&t) {
                triples.push(t);
            }
        }
        triples
    }

    #[test]
    fn hash_dedup_keeps_the_scan_dedups_triple_sequence() {
        // Dense enough that many draws are duplicates, and one config
        // that runs out of attempts before reaching its edge count.
        let configs = [
            RandomGraphConfig {
                vertices: 12,
                edges: 300,
                predicates: 2,
                seed: 0,
            },
            RandomGraphConfig {
                vertices: 5,
                edges: 80,
                predicates: 3,
                seed: 0,
            },
            RandomGraphConfig::default(),
        ];
        for config in configs {
            for seed in 0..8 {
                let config = RandomGraphConfig {
                    seed,
                    ..config.clone()
                };
                assert_eq!(
                    random_triples(&config),
                    random_triples_by_scan(&config),
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn queries_parse_and_connect() {
        for seed in 0..20 {
            let text = random_query(3, 4, None, seed);
            let q = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let g = QueryGraph::from_query(&q).expect("connected by construction");
            assert_eq!(g.edge_count(), 3);
        }
    }

    #[test]
    fn anchored_queries_contain_the_constant() {
        let text = random_query(2, 3, Some("http://rnd/v0"), 5);
        assert!(text.contains("<http://rnd/v0>"));
        assert!(parse_query(&text).is_ok());
    }
}
