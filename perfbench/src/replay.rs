//! The traced run's replay: each layer's public function called in the
//! engine's pipeline order on the workload's own fragments, one span per
//! call, with counts reconciled against the engine's `QueryMetrics`.

use std::time::Duration;

use gstored::core::assembly::assemble_lec;
use gstored::core::lec::compute_lec_features;
use gstored::core::prune::prune_features;
use gstored::net::QueryMetrics;
use gstored::prelude::*;
use gstored::sparql::ShapeReport;
use gstored::store::candidates::{BitVectorFilter, CandidateFilter};
use gstored::store::{
    enumerate_local_partial_matches, find_star_matches, internal_candidates,
    local_complete_matches, EncodedQuery,
};

use crate::trace::Tracer;

/// Per-call timings of one query's replay, per site where the call is
/// per site.
#[derive(Default)]
pub struct Replay {
    pub candidates: Vec<Duration>,
    pub local_match: Vec<Duration>,
    pub lpm_enum: Vec<Duration>,
    pub features: Vec<Duration>,
    pub prune: Duration,
    pub assembly: Duration,
    pub counts: Counts,
}

/// What the pipeline produced; the engine's metrics must agree.
#[derive(Default, Debug, PartialEq, Eq, Clone, Copy)]
pub struct Counts {
    pub lpms: u64,
    pub features: u64,
    pub survivors: u64,
    pub crossing: u64,
    pub local: u64,
}

impl Counts {
    pub fn of_metrics(m: &QueryMetrics) -> Counts {
        Counts {
            lpms: m.local_partial_matches,
            features: m.lec_features,
            survivors: m.surviving_partial_matches,
            crossing: m.crossing_matches,
            local: m.local_matches,
        }
    }
}

/// The engine's disjoint per-site LEC feature id ranges.
fn lec_first_id(site: usize, sites: usize) -> u32 {
    (u32::MAX / sites as u32) * site as u32
}

/// Replay one query under `variant` (the one the engine actually ran).
pub fn replay(
    tracer: &mut Tracer,
    op: u64,
    fragments: &[gstored::partition::Fragment],
    q: &EncodedQuery,
    shape: &ShapeReport,
    variant: Variant,
    config: &EngineConfig,
) -> Replay {
    let mut r = Replay::default();
    if q.has_unsatisfiable() {
        return r;
    }
    let root_span = tracer.open(op, "replay.query", None);
    let root = Some(root_span);
    if config.star_fast_path && shape.is_star() {
        let center = shape.star_center.expect("stars have centers");
        for f in fragments {
            let (rows, d) = tracer.time(op, "store.star_matches", root, || {
                find_star_matches(f, q, center)
            });
            r.local_match.push(d);
            r.counts.local += rows.len() as u64;
        }
        tracer.close(root_span);
        return r;
    }

    let n = q.vertex_count();
    let mut filter = CandidateFilter::none(n);
    if variant == Variant::Full {
        let vars: Vec<usize> = (0..n).filter(|&v| q.vertex(v).is_var()).collect();
        for f in fragments {
            let (cands, d) = tracer.time(op, "store.internal_candidates", root, || {
                internal_candidates(f, q)
            });
            r.candidates.push(d);
            for &v in &vars {
                let union = filter.extended_bits[v]
                    .get_or_insert_with(|| BitVectorFilter::new(config.candidate_bits));
                for &c in &cands[v] {
                    union.insert(c);
                }
            }
        }
    }

    let mut lpms_by_site = Vec::with_capacity(fragments.len());
    for f in fragments {
        let (locals, d) = tracer.time(op, "store.local_complete_matches", root, || {
            local_complete_matches(f, q)
        });
        r.local_match.push(d);
        r.counts.local += locals.len() as u64;
        let (lpms, d) = tracer.time(op, "store.enumerate_lpms", root, || {
            enumerate_local_partial_matches(f, q, &filter)
        });
        r.lpm_enum.push(d);
        r.counts.lpms += lpms.len() as u64;
        lpms_by_site.push(lpms);
    }

    let edges: Vec<(usize, usize)> = q.edges().iter().map(|e| (e.from, e.to)).collect();
    let survivors = if matches!(variant, Variant::LecOptimization | Variant::Full) {
        let sites = fragments.len();
        let mut all_features = Vec::new();
        let mut per_site = Vec::with_capacity(sites);
        for (site, lpms) in lpms_by_site.iter().enumerate() {
            let ((features, feature_of_lpm), d) = tracer.time(op, "lec.features", root, || {
                compute_lec_features(lpms, lec_first_id(site, sites))
            });
            r.features.push(d);
            all_features.extend(features.iter().cloned());
            per_site.push((features, feature_of_lpm));
        }
        r.counts.features = all_features.len() as u64;
        let (useful, d) = tracer.time(op, "prune.features", root, || {
            prune_features(&all_features, n, &edges)
        });
        r.prune = d;
        let mut survivors = Vec::new();
        for (lpms, (features, feature_of_lpm)) in lpms_by_site.into_iter().zip(&per_site) {
            for (lpm, &fi) in lpms.into_iter().zip(feature_of_lpm) {
                if features[fi].sources.iter().any(|id| useful.contains(id)) {
                    survivors.push(lpm);
                }
            }
        }
        survivors
    } else {
        lpms_by_site.into_iter().flatten().collect()
    };
    r.counts.survivors = survivors.len() as u64;

    let (crossing, d) = tracer.time(op, "assembly.lec", root, || {
        assemble_lec(&survivors, n, &edges)
    });
    r.assembly = d;
    r.counts.crossing = crossing.len() as u64;
    tracer.close(root_span);
    r
}
