//! The load generator's own wire client.
//!
//! Each request line goes out in a single `write` on a `TCP_NODELAY`
//! socket, so the generator never adds a Nagle/delayed-ACK wait of its
//! own: whatever stall a measurement shows belongs to the program.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest a closed-loop request may take before the run is declared
/// broken (well above the slowest legitimate reply, a model reload).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl WireClient {
    pub fn connect(addr: &str) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(1024),
            line: String::with_capacity(1024),
        })
    }

    /// Sends one request line and returns its response line (without the
    /// trailing newline).
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// Dials `addr` until it answers a `ping` with `ok: true`, or gives up
/// after `attempts` tries.
pub fn wait_ready(addr: &str, attempts: u32) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..attempts {
        match WireClient::connect(addr).and_then(|mut c| c.call("{\"op\":\"ping\"}").map(str::to_string)) {
            Ok(resp) if resp.contains("\"ok\":true") => return Ok(()),
            Ok(resp) => last = resp,
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!("{addr} never answered ping: {last}"))
}
