//! A minimal blocking client for the serve protocol, used by the CLI's
//! `matic request` subcommand, the tests and the CI smoke job.

use crate::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};
use matic_isa::json::Json;
use std::io;
use std::net::TcpStream;

/// One connection to a running `matic serve` process. Requests are
/// answered in order on the same connection, so a client can pipeline
/// related operations (compile, then cycles) and hit the warm cache.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:9123`) with `TCP_NODELAY` set,
    /// so a request frame is sent at once instead of waiting out the
    /// server's delayed ACK.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Whether the connection has `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option query's failure.
    pub fn nodelay(&self) -> io::Result<bool> {
        self.stream.nodelay()
    }

    /// Sends one request and blocks for its response envelope.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed response frames.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        write_frame(&mut self.stream, req)?;
        read_frame(&mut self.stream, MAX_FRAME_BYTES)
    }
}
