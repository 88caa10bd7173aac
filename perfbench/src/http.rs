//! The HTTP side: one POST per fresh connection with first-byte timing,
//! and an order-insensitive check of SPARQL JSON result documents.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gstored_server::client::{read_reply, HttpReply};

/// One timed request.
pub struct Exchange {
    /// From just before connecting to the first response byte.
    pub first_byte: Duration,
    /// From just before connecting to the end of the response.
    pub total: Duration,
    pub reply: HttpReply,
}

/// POST `sparql` to `/query` asking for JSON results, on a fresh
/// connection, and read the whole (usually chunked) response.
pub fn post_query(addr: SocketAddr, sparql: &str) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Accept: application/sparql-results+json\r\n\
         Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
        sparql.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(sparql.as_bytes())?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(|| start.elapsed());
        raw.extend_from_slice(&buf[..n]);
    }
    let total = start.elapsed();
    let reply = read_reply(&mut Cursor::new(raw))?;
    Ok(Exchange {
        first_byte: first_byte.unwrap_or(total),
        total,
        reply,
    })
}

/// What a SPARQL JSON results document says, up to row order: its head
/// (everything before the first row), the row count, and a sum of the
/// rows' hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonRows {
    pub head: Vec<u8>,
    pub rows: usize,
    pub fingerprint: u64,
}

/// Split a results document into its row objects. `None` when the
/// document is not shaped like the serializer's output.
pub fn json_rows(doc: &[u8]) -> Option<JsonRows> {
    const OPEN: &[u8] = b"\"bindings\":[";
    let at = doc.windows(OPEN.len()).position(|w| w == OPEN)? + OPEN.len();
    let (mut rows, mut fingerprint) = (0usize, 0u64);
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    let mut row_start = at;
    for (i, &b) in doc.iter().enumerate().skip(at) {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    row_start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    let mut h = DefaultHasher::new();
                    doc[row_start..=i].hash(&mut h);
                    fingerprint = fingerprint.wrapping_add(h.finish());
                    rows += 1;
                }
            }
            b']' if depth == 0 => {
                return (&doc[i..] == b"]}}").then(|| JsonRows {
                    head: doc[..at].to_vec(),
                    rows,
                    fingerprint,
                });
            }
            _ => {}
        }
    }
    None
}
