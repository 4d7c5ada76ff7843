//! The load generator's wire side: a blocking keep-alive HTTP/1.1 client,
//! the echo peer that measures the loopback floor with the same bytes, and
//! readers for the server's own text surfaces.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// A hung server must fail the run well inside the driver's 180 s.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One keep-alive connection. Buffers are reused, so steady-state requests
/// allocate nothing on the client side.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    /// Body of the last response.
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(16 * 1024, stream.try_clone()?),
            writer: stream,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Send one request and read its whole response into `self.body`;
    /// returns the status.
    pub fn roundtrip(&mut self, wire: &[u8]) -> io::Result<u16> {
        self.writer.write_all(wire)?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    fn read_response(&mut self) -> io::Result<u16> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = self
            .read_line()?
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad("malformed header"))?;
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
        let len = content_length.ok_or_else(|| bad("response without Content-Length"))?;
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    /// `GET path`, body as text; any status but 200 is an error.
    pub fn get(&mut self, path: &str) -> io::Result<String> {
        let wire = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        let status = self.roundtrip(wire.as_bytes())?;
        if status != 200 {
            return Err(io::Error::other(format!("GET {path} answered {status}")));
        }
        String::from_utf8(self.body.clone())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))
    }
}

/// Value of an unlabelled sample in Prometheus text exposition.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

/// A bench-owned peer that answers fixed-size requests with fixed bytes: the
/// same socket calls and one thread hop, none of the program's code. What a
/// round trip costs against it is the floor the program cannot go below.
pub struct EchoPeer {
    pub addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl EchoPeer {
    /// Serves one connection: for every `request_len` bytes read, writes
    /// `response`. Ends when the client closes.
    pub fn spawn(request_len: usize, response: Vec<u8>) -> io::Result<EchoPeer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("bench-echo".to_string())
            .spawn(move || -> io::Result<()> {
                let (mut stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                let mut buf = vec![0u8; request_len];
                loop {
                    match stream.read_exact(&mut buf) {
                        Ok(()) => stream.write_all(&response)?,
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                        Err(e) => return Err(e),
                    }
                }
            })?;
        Ok(EchoPeer { addr, handle })
    }

    /// Wait for the peer to see the client's close.
    pub fn join(self) -> io::Result<()> {
        self.handle
            .join()
            .map_err(|_| io::Error::other("echo peer panicked"))?
    }
}

/// Frame `body` the way the server frames a translation, for the echo peer.
pub fn canned_response(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_value_reads_unlabelled_samples_only() {
        let text = "# HELP t2v_cache_hits_total x\nt2v_cache_hits_total 41\n\
                    t2v_cache_hits_totals 9\nt2v_backend_cache_hits_total{backend=\"gred\"} 7\n\
                    t2v_queue_wait_seconds_sum 0.000006261\n";
        assert_eq!(prom_value(text, "t2v_cache_hits_total"), Some(41.0));
        assert_eq!(
            prom_value(text, "t2v_queue_wait_seconds_sum"),
            Some(0.000006261)
        );
        assert_eq!(prom_value(text, "t2v_backend_cache_hits_total"), None);
        assert_eq!(prom_value(text, "t2v_missing"), None);
    }

    #[test]
    fn client_and_echo_peer_speak_the_same_framing() {
        let request = b"POST /v1/translate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let peer = EchoPeer::spawn(request.len(), canned_response(b"{\"dvq\":null}")).unwrap();
        let mut conn = Conn::connect(peer.addr).unwrap();
        for _ in 0..3 {
            assert_eq!(conn.roundtrip(request).unwrap(), 200);
            assert_eq!(conn.body, b"{\"dvq\":null}");
        }
        drop(conn);
        peer.join().unwrap();
    }
}
