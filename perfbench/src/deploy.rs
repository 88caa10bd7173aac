//! Standing a workload's deployment up and tearing it down again.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gstored::core::worker::{send_shutdown, serve_tcp};
use gstored::prelude::*;
use gstored_server::{ServerConfig, ServerHandle, SparqlServer};

use crate::Spec;

/// Sites in every workload: the paper's 12-machine cluster.
pub const SITES: usize = 12;

/// How the data is cut into fragments.
#[derive(Clone, Copy)]
pub enum Parts {
    Hash,
    SemanticHash,
}

/// A running session plus whatever serves it: the TCP site workers and
/// the HTTP front-end, when the workload has them.
pub struct Deployment {
    pub session: Arc<GStoreD>,
    pub server: Option<ServerHandle>,
    workers: Vec<(SocketAddr, JoinHandle<std::io::Result<()>>)>,
}

/// Where one build's time went.
pub struct BuildTimes {
    pub graph_build: Duration,
    pub partition_build: Duration,
    /// Session build plus the first `fleet_status`, which brings the
    /// fleet up (for TCP: connect and install every fragment).
    pub fleet_up: Duration,
}

/// Build the graph from `triples`, partition it, start the site workers
/// (TCP workloads: one `serve_tcp` loopback listener per site), bring the
/// session's fleet up and, for HTTP workloads, start the server.
pub fn deploy(spec: &Spec, triples: Vec<Triple>) -> Result<(Deployment, BuildTimes), String> {
    let t = Instant::now();
    let mut graph = RdfGraph::from_triples(triples);
    graph.finalize();
    let graph_build = t.elapsed();

    let t = Instant::now();
    let dist = match spec.parts {
        Parts::Hash => DistributedGraph::build(graph, &HashPartitioner::new(SITES)),
        Parts::SemanticHash => DistributedGraph::build(graph, &SemanticHashPartitioner::new(SITES)),
    };
    let partition_build = t.elapsed();

    let t = Instant::now();
    let mut builder = GStoreD::builder().distributed(dist).variant(spec.variant);
    let mut workers = Vec::new();
    if spec.http {
        for _ in 0..SITES {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            workers.push((addr, std::thread::spawn(move || serve_tcp(listener))));
        }
        builder = builder.tcp_workers(workers.iter().map(|(addr, _)| addr.to_string()));
    }
    let session = Arc::new(builder.build().map_err(|e| e.to_string())?);
    session.fleet_status().map_err(|e| e.to_string())?;
    let fleet_up = t.elapsed();

    let server = if spec.http {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let server = SparqlServer::new(Arc::clone(&session), ServerConfig::default());
        Some(server.start(listener).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let times = BuildTimes {
        graph_build,
        partition_build,
        fleet_up,
    };
    Ok((
        Deployment {
            session,
            server,
            workers,
        },
        times,
    ))
}

impl Deployment {
    /// Stop the server, drop the session (closing its fleet connections),
    /// then stop every site worker and wait for it.
    pub fn shutdown(self) -> Result<(), String> {
        if let Some(server) = self.server {
            server.shutdown();
        }
        if Arc::strong_count(&self.session) != 1 {
            return Err("session still shared at shutdown".into());
        }
        drop(self.session);
        for (addr, handle) in self.workers {
            send_shutdown(addr).map_err(|e| format!("stopping worker {addr}: {e}"))?;
            handle
                .join()
                .map_err(|_| format!("worker {addr} panicked"))?
                .map_err(|e| format!("worker {addr}: {e}"))?;
        }
        Ok(())
    }
}
