//! One run of one workload: set up, measure the closed loop, check every
//! answer, and (traced runs) break the work down by layer.

use std::time::{Duration, Instant};

use gstored::core::plan_query;
use gstored::net::{QueryMetrics, StageMetrics};
use gstored::prelude::*;
use gstored::rdf::VertexId;
use gstored_server::{serialize_results, serialize_rows, ResultFormat};

use crate::data::{self, MixQuery};
use crate::deploy::{self, BuildTimes, Deployment};
use crate::http::{self, JsonRows};
use crate::replay::{self, Counts};
use crate::sys;
use crate::trace::Tracer;
use crate::{Args, Dataset, Spec};

/// Full builds per run: at least `SETUP_BUILDS`, more while they add up
/// to less than `SETUP_SECONDS`, so that quick set-ups are sampled as
/// densely as slow ones. `setup_s` is their median.
const SETUP_BUILDS: usize = 7;
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUP_BUILDS: usize = 25;
/// Closed-loop samples a run collects at least, so that p95 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 200;
/// Rounds of the query mix in each of the traced run's side passes.
const SIDE_ROUNDS: usize = 3;

/// What a run prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Operations attempted and failed, and checks that did not hold. A
/// failed operation is a typed error, a non-200 response, or wrong rows;
/// none is retried or dropped.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` describes why it failed.
    fn op(&mut self, outcome: Result<(), (bool, String)>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err((wrong, why)) => {
                self.failed += 1;
                self.wrong += u64::from(wrong);
                if self.problems.len() < 10 {
                    self.problems.push(why);
                }
                false
            }
        }
    }

    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.wrong += 1;
            self.problems.push(what());
        }
    }
}

/// A query's projected rows.
type Rows = Vec<Vec<VertexId>>;

/// Compare a result set (any order) with the oracle's sorted rows.
fn rows_match(
    mut rows: Vec<Vec<VertexId>>,
    expected: &[Vec<VertexId>],
    id: &str,
) -> Result<(), (bool, String)> {
    rows.sort_unstable();
    if rows == expected {
        Ok(())
    } else {
        Err((
            true,
            format!("{id}: {} rows, oracle has {}", rows.len(), expected.len()),
        ))
    }
}

/// One successful embedded execution.
struct Op {
    wall: Duration,
    metrics: QueryMetrics,
}

/// `execute` once and check the rows against the oracle. Returns the
/// call's start and end and, when it succeeded, the operation.
fn execute_checked(
    p: &PreparedQuery<'_>,
    expected: &[Vec<VertexId>],
    id: &str,
    tally: &mut Tally,
) -> (Instant, Instant, Option<Op>) {
    let t = Instant::now();
    let result = p.execute();
    let end = Instant::now();
    let outcome = match result {
        Ok(res) => {
            rows_match(res.vertex_rows().to_vec(), expected, id).map(|()| res.metrics().clone())
        }
        Err(e) => Err((false, format!("{id}: {e}"))),
    };
    match outcome {
        Ok(metrics) => {
            tally.op(Ok(()));
            let wall = end - t;
            (t, end, Some(Op { wall, metrics }))
        }
        Err(failure) => {
            tally.op(Err(failure));
            (t, end, None)
        }
    }
}

/// What the timed closed loop measured.
struct Measured {
    completed: usize,
    elapsed: Duration,
    latency_ms: Vec<f64>,
    /// The same samples by query of the mix.
    latency_by_query: Vec<Vec<f64>>,
    first_byte_ms: Vec<f64>,
    first_byte_by_query: Vec<Vec<f64>>,
    shipped_kib: f64,
    /// Embedded workloads: every successful execution.
    ops: Vec<Op>,
    /// HTTP workload: response body sizes.
    response_bytes: Vec<usize>,
    cpu_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(args: &Args, cpu: usize) -> Result<Report, String> {
    let spec = args.spec;
    let steal_start = sys::cpu_steal(cpu);
    let (triples, queries) = match spec.dataset {
        Dataset::Lubm => data::lubm_dataset(args.seed),
        Dataset::Random => data::random_dataset(args.seed),
    };
    let mut tally = Tally::default();
    if spec.dataset == Dataset::Random {
        tally.check(data::random_generator_matches_reference(args.seed), || {
            "hash-set random generator differs from random_graph".into()
        });
    }

    // Set-up: the generated triples to a session whose fleet is up and
    // whose planner statistics are filled (one explain() per query).
    let mut setup_s: Vec<f64> = Vec::new();
    let mut builds = Vec::new();
    let mut deployment: Option<Deployment> = None;
    while setup_s.len() < SETUP_BUILDS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUP_BUILDS)
    {
        if let Some(old) = deployment.take() {
            old.shutdown()?;
        }
        let input = triples.clone();
        let start = Instant::now();
        let (dep, times) = deploy::deploy(spec, input)?;
        for q in &queries {
            dep.session
                .prepare(&q.text)
                .map_err(err)?
                .explain()
                .map_err(err)?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        builds.push(times);
        deployment = Some(dep);
    }
    let dep = deployment.expect("at least one build");
    let expected = data::oracle_rows(&triples, &queries, dep.session.dictionary())?;
    drop(triples);

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let (metrics, notes) = {
        let session = &*dep.session;
        let prepared = queries
            .iter()
            .map(|q| session.prepare(&q.text).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        let budget = Duration::from_secs(args.seconds);
        let traced = args.trace.then_some(&mut tracer);
        let measured = if spec.http {
            http_loop(
                &dep,
                &queries,
                &prepared,
                &expected,
                budget,
                spec.clients,
                &mut tally,
                traced,
            )?
        } else {
            embedded_loop(&queries, &prepared, &expected, budget, &mut tally, traced)?
        };
        let qps = measured.completed as f64 / measured.elapsed.as_secs_f64();
        let steal_end = sys::cpu_steal(cpu);
        let steal_frac =
            (steal_end.0 - steal_start.0) as f64 / (steal_end.1 - steal_start.1).max(1) as f64;
        let metrics = if args.trace {
            let ctx = Layers {
                spec,
                dep: &dep,
                queries: &queries,
                prepared: &prepared,
                expected: &expected,
                builds: &builds,
                measured: &measured,
                qps,
                steal_frac,
            };
            ctx.metrics(&mut tracer, &mut tally)?
        } else {
            let mut setup = setup_s.clone();
            setup.sort_by(f64::total_cmp);
            vec![
                ("qps", qps, "1/s"),
                (
                    "latency_p50_ms",
                    percentile(&measured.latency_ms, 0.50),
                    "ms",
                ),
                (
                    "latency_p95_ms",
                    percentile(&measured.latency_ms, 0.95),
                    "ms",
                ),
                ("shipped_kib_per_query", measured.shipped_kib, "KiB"),
                ("setup_s", setup[setup.len() / 2], "s"),
                ("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
            ]
        };
        let modeled = if spec.http {
            "n/a".to_string()
        } else {
            format!(
                "{:.4}",
                mean(measured.ops.iter().map(|o| ms(o.metrics.total_network())))
            )
        };
        let by_query = |samples: &[Vec<f64>]| {
            let p50s: Vec<String> = queries
                .iter()
                .zip(samples)
                .map(|(q, v)| format!("{}:{:.2}", q.id, percentile(v, 0.5)))
                .collect();
            p50s.join(" ")
        };
        let mut notes = vec![
            format!(
                "workload={} seed={} pinned_cpu={} seconds={:.3} samples={} attempted={} \
                 failed={} steal_frac={steal_frac:.4} planner_decisions={}",
                spec.name,
                args.seed,
                cpu,
                measured.elapsed.as_secs_f64(),
                measured.latency_ms.len(),
                tally.attempted,
                tally.failed,
                session.stats().planner_decisions,
            ),
            format!(
                "modeled_network_ms_per_query={modeled} (simulated, reported beside wall time \
                 and never added to it) setup_s_samples={setup_s:?}"
            ),
            format!(
                "latency_p50_ms_by_query {}",
                by_query(&measured.latency_by_query)
            ),
        ];
        if spec.http {
            // The HTTP first byte has no embedded counterpart, so it is
            // printed here rather than among the metrics every workload
            // reports.
            notes.push(format!(
                "first_byte_p50_ms={} ms samples={}",
                percentile(&measured.first_byte_ms, 0.5),
                measured.first_byte_ms.len()
            ));
            notes.push(format!(
                "first_byte_p50_ms_by_query {}",
                by_query(&measured.first_byte_by_query)
            ));
        }
        (metrics, notes)
    };
    let mut notes = notes;
    notes.extend(tally.problems.iter().map(|p| format!("problem: {p}")));
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        ));
    }
    dep.shutdown()?;
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

/// One client, `execute` round-robin over the mix in whole rounds until
/// the budget is spent and p95 has enough samples behind it.
fn embedded_loop(
    queries: &[MixQuery],
    prepared: &[PreparedQuery<'_>],
    expected: &[Vec<Vec<VertexId>>],
    budget: Duration,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let mut latency_ms = Vec::new();
    let mut latency_by_query = vec![Vec::new(); prepared.len()];
    let mut ops = Vec::new();
    let mut executes = 0;
    let cpu_start = sys::process_cpu_ms();
    let start = Instant::now();
    while start.elapsed() < budget || executes < MIN_SAMPLES {
        for (i, p) in prepared.iter().enumerate() {
            let op_id = tally.attempted;
            let (t, end, op) = execute_checked(p, &expected[i], queries[i].id, tally);
            executes += 1;
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record(op_id, "op.execute", None, t, end);
            }
            if let Some(op) = op {
                latency_ms.push(ms(op.wall));
                latency_by_query[i].push(ms(op.wall));
                ops.push(op);
            }
        }
    }
    let elapsed = start.elapsed();
    let cpu_ms = sys::process_cpu_ms() - cpu_start;
    let shipped_kib = mean(
        ops.iter()
            .map(|o| o.metrics.total_shipped() as f64 / 1024.0),
    );
    Ok(Measured {
        completed: ops.len(),
        elapsed,
        latency_ms,
        latency_by_query,
        first_byte_ms: Vec::new(),
        first_byte_by_query: Vec::new(),
        shipped_kib,
        ops,
        response_bytes: Vec::new(),
        cpu_ms,
    })
}

/// Drain `stream()`; returns its rows and the bytes it shipped.
fn stream_rows(p: &PreparedQuery<'_>) -> Result<(Rows, u64), (bool, String)> {
    let fail = |e: Error| (false, format!("stream {}: {e}", p.text()));
    let mut it = p.stream().map_err(fail)?;
    let mut rows = Vec::new();
    for sol in it.by_ref() {
        rows.push(sol.map_err(fail)?.into_vertex_row());
    }
    Ok((rows, it.metrics().total_shipped()))
}

/// One HTTP client's log.
#[derive(Default)]
struct ClientLog {
    /// (query, start, first byte, end, body bytes) per successful request.
    samples: Vec<(usize, Instant, Duration, Instant, usize)>,
    outcomes: Vec<Result<(), (bool, String)>>,
}

/// `clients` threads, each POSTing the mix round-robin (from its own
/// offset) on fresh connections until the budget is spent and enough
/// samples are in; then one `stream()` per query on the same session for
/// the exact shipment.
#[allow(clippy::too_many_arguments)]
fn http_loop(
    dep: &Deployment,
    queries: &[MixQuery],
    prepared: &[PreparedQuery<'_>],
    expected: &[Vec<Vec<VertexId>>],
    budget: Duration,
    clients: usize,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let addr = dep.server.as_ref().ok_or("no server")?.addr();
    let dict = dep.session.dictionary();
    let want: Vec<JsonRows> = expected
        .iter()
        .zip(prepared)
        .map(|(rows, p)| {
            let doc = serialize_rows(
                ResultFormat::Json,
                p.variables(),
                rows.iter()
                    .map(|r| r.iter().map(|&v| Some(dict.resolve(v))).collect()),
            );
            http::json_rows(&doc).expect("the serializer's own output parses")
        })
        .collect();
    let per_client_min = MIN_SAMPLES.div_ceil(clients);
    let cpu_start = sys::process_cpu_ms();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let want = &want;
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let n = queries.len();
                    while start.elapsed() < budget || log.outcomes.len() < per_client_min {
                        for k in 0..n {
                            let i = (c + k) % n;
                            let id = queries[i].id;
                            let t = Instant::now();
                            let outcome = match http::post_query(addr, &queries[i].text) {
                                Err(e) => Err((false, format!("{id}: {e}"))),
                                Ok(ex) if ex.reply.status != 200 => {
                                    Err((false, format!("{id}: HTTP {}", ex.reply.status)))
                                }
                                Ok(ex) => {
                                    if http::json_rows(&ex.reply.body).as_ref() == Some(&want[i]) {
                                        log.samples.push((
                                            i,
                                            t,
                                            ex.first_byte,
                                            t + ex.total,
                                            ex.reply.body.len(),
                                        ));
                                        Ok(())
                                    } else {
                                        Err((
                                            true,
                                            format!("{id}: response rows differ from the oracle"),
                                        ))
                                    }
                                }
                            };
                            log.outcomes.push(outcome);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let cpu_ms = sys::process_cpu_ms() - cpu_start;

    let (mut latency_ms, mut first_byte_ms, mut response_bytes) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut latency_by_query = vec![Vec::new(); queries.len()];
    let mut first_byte_by_query = vec![Vec::new(); queries.len()];
    let mut spans = Vec::new();
    for log in logs {
        for outcome in log.outcomes {
            tally.op(outcome);
        }
        for (i, t, first, end, bytes) in log.samples {
            latency_ms.push(ms(end - t));
            latency_by_query[i].push(ms(end - t));
            first_byte_ms.push(ms(first));
            first_byte_by_query[i].push(ms(first));
            response_bytes.push(bytes);
            spans.push((t, end));
        }
    }
    if let Some(tracer) = tracer {
        spans.sort();
        for (op, (t, end)) in spans.into_iter().enumerate() {
            tracer.record(op as u64, "op.http", None, t, end);
        }
    }
    let completed = latency_ms.len();

    let mut shipped = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let outcome = stream_rows(p).and_then(|(rows, bytes)| {
            shipped.push(bytes as f64 / 1024.0);
            rows_match(rows, &expected[i], queries[i].id)
        });
        tally.op(outcome);
    }
    Ok(Measured {
        completed,
        elapsed,
        latency_ms,
        latency_by_query,
        first_byte_ms,
        first_byte_by_query,
        shipped_kib: mean(shipped),
        ops: Vec::new(),
        response_bytes,
        cpu_ms,
    })
}

/// Everything the per-layer breakdown reads.
struct Layers<'a, 's> {
    spec: &'a Spec,
    dep: &'a Deployment,
    queries: &'a [MixQuery],
    prepared: &'a [PreparedQuery<'s>],
    expected: &'a [Vec<Vec<VertexId>>],
    builds: &'a [BuildTimes],
    measured: &'a Measured,
    qps: f64,
    steal_frac: f64,
}

/// The four paper stages of one execution, in pipeline order.
fn stages(m: &QueryMetrics) -> [&StageMetrics; 4] {
    [
        &m.candidates,
        &m.partial_evaluation,
        &m.lec_optimization,
        &m.assembly,
    ]
}

fn median_ms(values: impl Iterator<Item = Duration>) -> f64 {
    let v: Vec<f64> = values.map(ms).collect();
    percentile(&v, 0.5)
}

impl Layers<'_, '_> {
    /// Execute every query `SIDE_ROUNDS` times on `prepared`, checking rows.
    fn execute_pass(
        &self,
        prepared: &[PreparedQuery<'_>],
        name: &'static str,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..SIDE_ROUNDS {
            for (i, p) in prepared.iter().enumerate() {
                let op_id = tally.attempted;
                let (t, end, op) = execute_checked(p, &self.expected[i], self.queries[i].id, tally);
                tracer.record(op_id, name, None, t, end);
                ops.extend(op);
            }
        }
        ops
    }

    fn metrics(
        &self,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let session = &*self.dep.session;
        let dist = session.distributed_graph();
        let config = session.engine().config();
        let nq = self.queries.len();
        let mut out: Vec<(&'static str, f64, &'static str)> = Vec::new();

        // rdf + partition + session set-up (medians over the builds).
        out.push((
            "rdf.graph_build_ms",
            median_ms(self.builds.iter().map(|b| b.graph_build)),
            "ms",
        ));
        out.push((
            "partition.build_ms",
            median_ms(self.builds.iter().map(|b| b.partition_build)),
            "ms",
        ));
        out.push((
            "session.fleet_up_ms",
            median_ms(self.builds.iter().map(|b| b.fleet_up)),
            "ms",
        ));
        let (_, d) = tracer.time(0, "partition.stats", None, || {
            dist.fragments.iter().map(|f| f.stats()).collect::<Vec<_>>()
        });
        out.push(("partition.stats_ms", ms(d), "ms"));
        out.push((
            "partition.crossing_edges",
            dist.crossing_edges().len() as f64,
            "count",
        ));

        // sparql + session.prepare.
        let (mut parse, mut prepare) = (Vec::new(), Vec::new());
        for _ in 0..SIDE_ROUNDS {
            for (i, q) in self.queries.iter().enumerate() {
                let (r, d) = tracer.time(i as u64, "sparql.parse", None, || {
                    parse_query(&q.text)
                        .map_err(err)
                        .and_then(|ast| QueryGraph::from_query(&ast).map_err(err))
                });
                r?;
                parse.push(us(d));
                let (r, d) = tracer.time(i as u64, "session.prepare", None, || {
                    session.prepare(&q.text)
                });
                r.map_err(err)?;
                prepare.push(us(d));
            }
        }
        out.push(("sparql.parse_us", mean(parse), "us"));
        out.push(("session.prepare_us", mean(prepare), "us"));

        // planner: only where the engine consults it (Variant::Auto).
        let (mut plan_us, mut qerror, mut chosen) = (Vec::new(), Vec::new(), [0u64; 4]);
        if self.spec.variant.is_auto() {
            for (i, p) in self.prepared.iter().enumerate() {
                let (_, d) = tracer.time(i as u64, "planner.plan_query", None, || {
                    plan_query(dist, p.plan())
                });
                plan_us.push(us(d));
                let ex = p.explain().map_err(err)?;
                let est = ex.decision.est_lpms.max(1.0);
                let act = (ex.actual_lpms as f64).max(1.0);
                qerror.push((est / act).max(act / est));
                if let Some(k) = Variant::ALL.iter().position(|v| *v == ex.chosen) {
                    chosen[k] += 1;
                }
            }
        }
        let decisions = session.stats().planner_decisions;
        tally.check(self.spec.variant.is_auto() || decisions == 0, || {
            format!("{decisions} planner decisions on an explicit-variant session")
        });
        out.push(("planner.plan_us", mean(plan_us), "us"));
        out.push(("planner.lpm_qerror_p50", percentile(&qerror, 0.5), "ratio"));
        out.push(("planner.chosen.basic", chosen[0] as f64, "count"));
        out.push(("planner.chosen.la", chosen[1] as f64, "count"));
        out.push(("planner.chosen.lo", chosen[2] as f64, "count"));
        out.push(("planner.chosen.full", chosen[3] as f64, "count"));
        out.push(("planner.decisions", decisions as f64, "count"));

        // store, lec, prune, assembly: the replay, reconciled per query
        // with an execution of the variant the engine actually ran.
        let (mut cand, mut lpm_sum, mut lpm_max, mut loc_sum, mut loc_max) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut feat_us, mut prune_us, mut asm_us) = (0.0, 0.0, 0.0);
        let mut counts_total = Counts::default();
        for round in 0..SIDE_ROUNDS {
            for (i, p) in self.prepared.iter().enumerate() {
                let id = self.queries[i].id;
                let res = p.execute().map_err(err)?;
                tally.op(rows_match(
                    res.vertex_rows().to_vec(),
                    &self.expected[i],
                    id,
                ));
                let variant = res
                    .output()
                    .planner
                    .as_ref()
                    .map_or(config.variant, |d| d.chosen);
                let op = (round * nq + i) as u64;
                let r = replay::replay(
                    tracer,
                    op,
                    &dist.fragments,
                    p.plan().encoded(),
                    p.shape(),
                    variant,
                    config,
                );
                let engine = Counts::of_metrics(res.metrics());
                tally.check(r.counts == engine, || {
                    format!(
                        "{id}: replay {:?} != engine {:?} under {variant:?}",
                        r.counts, engine
                    )
                });
                if self.spec.http {
                    tally.check(id == "LQ6" || r.counts.lpms == 0, || {
                        format!("{id}: {} LPMs under semantic partitioning", r.counts.lpms)
                    });
                }
                let sum = |v: &[Duration]| v.iter().map(|&d| us(d)).sum::<f64>();
                let max = |v: &[Duration]| v.iter().map(|&d| us(d)).fold(0.0, f64::max);
                cand += sum(&r.candidates);
                lpm_sum += sum(&r.lpm_enum);
                lpm_max += max(&r.lpm_enum);
                loc_sum += sum(&r.local_match);
                loc_max += max(&r.local_match);
                feat_us += sum(&r.features);
                prune_us += us(r.prune);
                asm_us += us(r.assembly);
                counts_total.lpms += r.counts.lpms;
                counts_total.features += r.counts.features;
                counts_total.survivors += r.counts.survivors;
                counts_total.crossing += r.counts.crossing;
            }
        }
        let per_query = (SIDE_ROUNDS * nq) as f64;
        out.push(("store.candidates_us", cand / per_query, "us"));
        out.push(("store.lpm_enum_us.sum", lpm_sum / per_query, "us"));
        out.push(("store.lpm_enum_us.max", lpm_max / per_query, "us"));
        out.push(("store.local_match_us.sum", loc_sum / per_query, "us"));
        out.push(("store.local_match_us.max", loc_max / per_query, "us"));
        out.push(("store.lpms", counts_total.lpms as f64 / per_query, "count"));
        out.push(("lec.features_us", feat_us / per_query, "us"));
        out.push((
            "lec.features",
            counts_total.features as f64 / per_query,
            "count",
        ));
        out.push(("prune.us", prune_us / per_query, "us"));
        let ratio = if counts_total.lpms == 0 {
            0.0
        } else {
            counts_total.survivors as f64 / counts_total.lpms as f64
        };
        out.push(("prune.survivor_ratio", ratio, "ratio"));
        out.push(("assembly.lec_us", asm_us / per_query, "us"));
        out.push((
            "assembly.rows",
            counts_total.crossing as f64 / per_query,
            "count",
        ));

        // engine + net: per-execution metrics. On the HTTP workload the
        // loop sees no QueryMetrics, so an execute pass on the same TCP
        // session stands in, next to one on an in-process session over
        // the same fragments.
        let mut tcp_extra_ms = 0.0;
        let tcp_ops;
        let ops: &[Op] = if self.spec.http {
            tcp_ops = self.execute_pass(self.prepared, "net.tcp_execute", tracer, tally);
            let local = GStoreD::builder()
                .distributed(dist.clone())
                .variant(config.variant)
                .build()
                .map_err(err)?;
            let local_prepared = self
                .queries
                .iter()
                .map(|q| local.prepare(&q.text).map_err(err))
                .collect::<Result<Vec<_>, _>>()?;
            let local_ops =
                self.execute_pass(&local_prepared, "net.inprocess_execute", tracer, tally);
            tcp_extra_ms = median_ms(tcp_ops.iter().map(|o| o.wall))
                - median_ms(local_ops.iter().map(|o| o.wall));
            &tcp_ops
        } else {
            &self.measured.ops
        };
        let stage_ms = |k: usize| mean(ops.iter().map(|o| ms(stages(&o.metrics)[k].wall)));
        let residuals: Vec<f64> = ops
            .iter()
            .map(|o| ms(o.wall) - stages(&o.metrics).iter().map(|s| ms(s.wall)).sum::<f64>())
            .collect();
        // A stage's wall is the slowest site's own elapsed time, and with
        // overlapped stages on one CPU those intervals can overlap each
        // other, so a single execution's stage walls may sum past its
        // wall. The mean may not: that would mean the stages claim more
        // time than the executions took.
        let overlapping = residuals.iter().filter(|&&r| r < 0.0).count();
        let residual_ms = mean(residuals);
        tally.check(residual_ms >= 0.0, || {
            format!("engine.residual_ms is negative: {residual_ms}")
        });
        out.push(("engine.stage.candidates_ms", stage_ms(0), "ms"));
        out.push(("engine.stage.partial_eval_ms", stage_ms(1), "ms"));
        out.push(("engine.stage.lec_ms", stage_ms(2), "ms"));
        out.push(("engine.stage.assembly_ms", stage_ms(3), "ms"));
        out.push(("engine.residual_ms", residual_ms, "ms"));
        out.push((
            "engine.overlapping_stage_walls",
            overlapping as f64,
            "count",
        ));
        out.push((
            "engine.messages_per_query",
            mean(
                ops.iter()
                    .map(|o| stages(&o.metrics).iter().map(|s| s.messages as f64).sum()),
            ),
            "count",
        ));
        out.push((
            "engine.modeled_network_ms",
            mean(ops.iter().map(|o| ms(o.metrics.total_network()))),
            "ms",
        ));
        let stage_kib = |k: usize| {
            mean(
                ops.iter()
                    .map(|o| stages(&o.metrics)[k].bytes_shipped as f64 / 1024.0),
            )
        };
        out.push(("net.kib.candidates", stage_kib(0), "KiB"));
        out.push(("net.kib.partial_eval", stage_kib(1), "KiB"));
        out.push(("net.kib.lec", stage_kib(2), "KiB"));
        out.push(("net.kib.assembly", stage_kib(3), "KiB"));
        out.push(("net.tcp_extra_ms", tcp_extra_ms, "ms"));

        // server: only the HTTP workload has one.
        let (mut serialize_us, mut http_extra_ms, mut response_kib, mut rejected) =
            (0.0, 0.0, 0.0, 0.0);
        let first_byte_ms = percentile(&self.measured.first_byte_ms, 0.5);
        if let Some(server) = &self.dep.server {
            let mut ser = Vec::new();
            let mut streamed = Vec::new();
            for _ in 0..SIDE_ROUNDS {
                for (i, p) in self.prepared.iter().enumerate() {
                    let id = self.queries[i].id;
                    let res = p.execute().map_err(err)?;
                    tally.op(rows_match(
                        res.vertex_rows().to_vec(),
                        &self.expected[i],
                        id,
                    ));
                    let (_, d) = tracer.time(i as u64, "server.serialize_results", None, || {
                        serialize_results(ResultFormat::Json, &res).len()
                    });
                    ser.push(us(d));
                    let t = Instant::now();
                    let outcome = stream_rows(p)
                        .and_then(|(rows, _)| rows_match(rows, &self.expected[i], id));
                    let end = Instant::now();
                    tracer.record(i as u64, "server.embedded_stream", None, t, end);
                    if tally.op(outcome) {
                        streamed.push(ms(end - t));
                    }
                }
            }
            serialize_us = mean(ser);
            http_extra_ms = percentile(&self.measured.latency_ms, 0.5) - percentile(&streamed, 0.5);
            response_kib = mean(
                self.measured
                    .response_bytes
                    .iter()
                    .map(|&b| b as f64 / 1024.0),
            );
            rejected = server.counters().rejected as f64;
        } else {
            let leaked = tracer
                .spans
                .iter()
                .filter(|s| s.name.starts_with("server.") || s.name.starts_with("net."))
                .count();
            tally.check(leaked == 0, || {
                format!("{leaked} server/net spans on an embedded workload")
            });
        }
        out.push(("server.serialize_us", serialize_us, "us"));
        out.push(("server.first_byte_p50_ms", first_byte_ms, "ms"));
        out.push(("server.http_extra_ms", http_extra_ms, "ms"));
        out.push(("server.response_kib", response_kib, "KiB"));
        out.push(("server.rejected", rejected, "count"));

        out.push((
            "process.cpu_ms_per_query",
            self.measured.cpu_ms / self.measured.completed.max(1) as f64,
            "ms",
        ));
        out.push(("host.steal_frac", self.steal_frac, "ratio"));
        out.push(("trace.qps", self.qps, "1/s"));
        out.push(("trace.spans", tracer.spans.len() as f64, "count"));
        Ok(out)
    }
}
