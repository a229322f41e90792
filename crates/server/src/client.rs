//! A blocking client for the page service: one TCP connection, strict
//! request/reply. Used by the built-in load generator and the tests;
//! also the reference implementation of the client side of the
//! protocol.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{self, Request, Response};

/// One connection to a [`Server`](crate::Server).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Connect, with a bounded connect timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            buf: Vec::new(),
        })
    }

    /// Send `req` and wait for its reply.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        protocol::write_frame(&mut self.writer, &req.encode())?;
        self.read_response()
    }

    /// Send every request back-to-back in one kernel write, then read
    /// the replies — which the server returns strictly in request
    /// order, whichever frontend is serving. One round trip instead of
    /// `reqs.len()`, which is the entire point of pipelining.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        for req in reqs {
            protocol::write_frame_unflushed(&mut self.writer, &req.encode())?;
        }
        io::Write::flush(&mut self.writer)?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            out.push(self.read_response()?);
        }
        Ok(out)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        if !protocol::read_frame(&mut self.reader, &mut self.buf)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::decode(&self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Read one page.
    pub fn get(&mut self, page: u64) -> io::Result<Response> {
        self.call(&Request::Get { page })
    }

    /// Write the head of one page.
    pub fn put(&mut self, page: u64, data: Vec<u8>) -> io::Result<Response> {
        self.call(&Request::Put { page, data })
    }

    /// Checksum-scan `len` pages starting at `start`.
    pub fn scan(&mut self, start: u64, len: u32) -> io::Result<Response> {
        self.call(&Request::Scan { start, len })
    }

    /// Fetch the server's metrics JSON.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.call(&Request::Stats)? {
            Response::Ok(bytes) => String::from_utf8(bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("STATS answered {other:?}"),
            )),
        }
    }

    /// Fetch the server's metrics as Prometheus-style text exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Ok(bytes) => String::from_utf8(bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("METRICS answered {other:?}"),
            )),
        }
    }

    /// Ask the server to stop accepting connections.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}
