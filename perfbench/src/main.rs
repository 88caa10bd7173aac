//! The repository's benchmark: three workloads that drive the engine from
//! outside, through its public API only, and check every answer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lubm-auto --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `lubm-auto` — LUBM 30k, hash partitioning, `Variant::Auto`,
//!   in-process sites, LQ1–LQ7 prepared once and `execute`d round-robin
//!   by one client. The planner does real work here.
//! * `crossing-full` — a uniform random graph (30k triples, 10k vertices,
//!   3 predicates), hash partitioning, explicit `Variant::Full`, RQ1–RQ3
//!   by one client. Nearly every edge crosses fragments, so candidate
//!   exchange, LPM enumeration, LEC pruning and assembly dominate.
//! * `http-tcp` — LUBM 30k, semantic-hash partitioning, explicit `Full`,
//!   TCP site workers on loopback, a `SparqlServer` on an ephemeral port
//!   and two clients POSTing LQ1–LQ7 for JSON on fresh connections. The
//!   request path dominates.
//!
//! The process pins itself to one CPU before it starts any thread, so
//! the sites, the server and the clients share that CPU: hypervisor steal
//! on a small shared host otherwise moves throughput by tens of percent.
//! The price is that gains from parallelism across sites cannot show.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run,
//! whose spans are written to `perfbench/traces/`.

mod data;
mod deploy;
mod http;
mod replay;
mod sys;
mod trace;
mod workload;

use gstored::prelude::Variant;

use deploy::Parts;

/// Which data a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Lubm,
    Random,
}

/// One workload's fixed configuration.
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub parts: Parts,
    pub variant: Variant,
    /// TCP site workers behind an HTTP server, else in-process sites
    /// driven through the embedded API.
    pub http: bool,
    /// Closed-loop clients of the HTTP loop; the embedded loop is one
    /// client by construction.
    pub clients: usize,
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "lubm-auto",
        dataset: Dataset::Lubm,
        parts: Parts::Hash,
        variant: Variant::Auto,
        http: false,
        clients: 1,
    },
    Spec {
        name: "crossing-full",
        dataset: Dataset::Random,
        parts: Parts::Hash,
        variant: Variant::Full,
        http: false,
        clients: 1,
    },
    Spec {
        name: "http-tcp",
        dataset: Dataset::Lubm,
        parts: Parts::SemanticHash,
        variant: Variant::Full,
        http: true,
        clients: 2,
    },
];

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // First, before any thread exists.
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(1);
        }
    };
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    match workload::run(&args, cpu) {
        Ok(report) => {
            for line in &report.notes {
                println!("# {line}");
            }
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.spec.name);
            std::process::exit(1);
        }
    }
}
