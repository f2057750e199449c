//! The client side of the line protocol: one closed-loop connection, plus
//! parsers for the reply headers the benchmark reads.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use pq_data::{loader, Tuple};
use pq_service::read_response;

/// One client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to the server at `addr`.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send one request line without waiting for the reply.
    ///
    /// # Errors
    /// Write failures.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Read one framed reply (the lines before the `.` terminator).
    ///
    /// # Errors
    /// Read failures or a connection closed mid-reply.
    pub fn read_frame(&mut self) -> io::Result<Vec<String>> {
        read_response(&mut self.reader)
    }

    /// A second handle on the connection's write side.
    ///
    /// # Errors
    /// Socket duplication failures.
    pub fn try_clone_writer(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }

    /// Send `line` and wait for its reply.
    ///
    /// # Errors
    /// As [`Client::send`] and [`Client::read_frame`].
    pub fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.send(line)?;
        self.read_frame()
    }
}

/// Which cache level answered a `QUERY`, as the reply header states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// `cache=cold`: planned and evaluated.
    Cold,
    /// `cache=plan-cache`: evaluated with a cached plan.
    Plan,
    /// `cache=result-cache`: answered from the result cache.
    Result,
}

/// The fields of a `QUERY` reply header
/// (`OK <n> <attrs> # engine=… cache=… gen=… epoch=… micros=…`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHeader {
    /// Answer rows that follow.
    pub rows: usize,
    /// Answer attributes (`-` for none).
    pub attrs: Vec<String>,
    /// Engine label, spaces replaced by `_`.
    pub engine: String,
    /// Cache outcome.
    pub cache: Cache,
    /// Database epoch answered against.
    pub epoch: u64,
    /// Time the service spent inside `QueryService::query`.
    pub micros: u64,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|t| t.strip_prefix(key))
}

/// Parse a `QUERY` reply header; `None` for an `ERR` line or anything
/// malformed.
pub fn parse_query_header(line: &str) -> Option<QueryHeader> {
    let mut it = line.split_whitespace();
    if it.next()? != "OK" {
        return None;
    }
    let rows = it.next()?.parse().ok()?;
    let attrs = it.next()?;
    let attrs = if attrs == "-" {
        Vec::new()
    } else {
        attrs.split(',').map(str::to_string).collect()
    };
    let cache = match field(line, "cache=")? {
        "cold" => Cache::Cold,
        "plan-cache" => Cache::Plan,
        "result-cache" => Cache::Result,
        _ => return None,
    };
    Some(QueryHeader {
        rows,
        attrs,
        engine: field(line, "engine=")?.to_string(),
        cache,
        epoch: field(line, "epoch=")?.parse().ok()?,
        micros: field(line, "micros=")?.parse().ok()?,
    })
}

/// The `epoch=` of a write reply or a `DELTA` header.
pub fn parse_epoch(line: &str) -> Option<u64> {
    field(line, "epoch=")?.parse().ok()
}

/// FNV-1a over the answer row lines — a cheap fingerprint for comparing
/// replies without keeping them.
pub fn rows_hash<S: AsRef<str>>(rows: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for &b in r.as_ref().as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Parse answer row lines into tuples (loader field syntax).
pub fn parse_rows<S: AsRef<str>>(rows: &[S]) -> Vec<Tuple> {
    rows.iter().map(|r| loader::parse_row(r.as_ref())).collect()
}

/// Render a tuple the way the wire does for the integer data the
/// benchmark generates.
pub fn render_row(t: &Tuple) -> String {
    let fields: Vec<String> = t
        .iter()
        .map(|v| match v {
            pq_data::Value::Int(i) => i.to_string(),
            pq_data::Value::Str(s) => s.to_string(),
        })
        .collect();
    fields.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_headers_parse() {
        let h = parse_query_header(
            "OK 2 x,z # engine=hypertree_(width_2) cache=plan-cache gen=1 epoch=9 micros=412",
        )
        .unwrap();
        assert_eq!(h.rows, 2);
        assert_eq!(h.attrs, ["x", "z"]);
        assert_eq!(h.engine, "hypertree_(width_2)");
        assert_eq!(h.cache, Cache::Plan);
        assert_eq!((h.epoch, h.micros), (9, 412));
        assert!(parse_query_header("ERR overloaded queue full").is_none());
        assert_eq!(
            parse_epoch("OK inserted 1 R0 gen=1 epoch=12 views=1"),
            Some(12)
        );
    }
}
