//! The wire protocol: request lines on a kept-alive connection.
//!
//! The server listens on a Unix socket (default) or a TCP address.
//! A client connects, writes one request line, reads the reply, and may
//! then send the next request on the same connection:
//!
//! | request          | reply                                        |
//! |------------------|----------------------------------------------|
//! | `enqueue [client=<name>] <spec>` | `ok <id>` or `reject <reason>` |
//! | `status`         | `ok …` summary, `job …` lines, `end`         |
//! | `results`        | one JSON line per settled job, then `end`    |
//! | `metrics`        | `ok …` summary, `worker <json>` lines, `end` |
//! | `drain`          | all results streamed in id order as jobs     |
//! |                  | settle, then `end`; the server then exits    |
//! | `compact`        | `ok compacted <n> settled record(s)` — move  |
//! |                  | settled jobs into the compacted section now  |
//! | `claim`          | `job <id> <spec>`, `idle`, or `gone`; the    |
//! |                  | worker then sends `result <id>` + blob,      |
//! |                  | `fail <id> <message>` (retried under the     |
//! |                  | budget), or `fault <id> <message>` (a        |
//! |                  | workload fault, settled at once) on the same |
//! |                  | connection                                   |
//! | `shutdown`       | `ok` — stop accepting, abandon pending work  |
//!
//! Everything is UTF-8 lines; multi-line replies are terminated by a
//! bare `end`, so clients never need length framing. The server answers
//! a connection's requests in order until the client closes it, writing
//! each reply with one write when it fits its reply buffer; `drain`
//! writes each result line as it settles. `claim`, `drain` and
//! `shutdown` are each the last request on their connection: the server
//! closes it after the reply. `claim` holds its connection open while
//! the attempt runs on the worker's machine, and a dropped connection
//! counts as a retryable failed attempt. A server that has stopped
//! answers no further request on a kept-alive connection; it closes the
//! connection instead. A one-shot client (connect, one line, read the
//! reply, close) gets the same bytes on any connection.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where the server listens / the client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7800`.
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl Endpoint {
    /// Parse `--socket PATH` / `--tcp ADDR` style values: a string with
    /// a `:` and no `/` before it is TCP, anything else is a path.
    pub fn parse(s: &str) -> Endpoint {
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Endpoint::Tcp(addr.to_string());
        }
        if let Some(path) = s.strip_prefix("unix:") {
            return Endpoint::Unix(PathBuf::from(path));
        }
        Endpoint::Unix(PathBuf::from(s))
    }

    /// Bind a blocking listener, removing a stale Unix socket file
    /// first.
    ///
    /// # Errors
    ///
    /// The underlying bind error.
    pub fn bind(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Unix(path) => {
                // A previous server that was SIGKILLed leaves its
                // socket file behind; binding over it would fail even
                // though nobody is listening.
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    /// Connect, retrying for up to `patience` (covers the race between
    /// starting a server in the background and the first client).
    ///
    /// # Errors
    ///
    /// The last connection error once patience runs out.
    pub fn connect(&self, patience: Duration) -> io::Result<Conn> {
        let deadline = Instant::now() + patience;
        loop {
            let attempt = match self {
                Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
                Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
            };
            match attempt {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

/// A bound, blocking listener.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain socket.
    Unix(UnixListener),
    /// TCP socket.
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one connection, blocking until a client connects.
    ///
    /// # Errors
    ///
    /// The underlying accept error.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    /// Where a client reaches this listener: the socket path, or the
    /// bound TCP address with its real port (so a listener bound to
    /// port 0 can be dialed).
    ///
    /// # Errors
    ///
    /// The underlying `local_addr` error, or `AddrNotAvailable` for an
    /// unnamed Unix socket.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map(|path| Endpoint::Unix(path.to_path_buf()))
                .ok_or_else(|| io::Error::from(io::ErrorKind::AddrNotAvailable)),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Conn {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Bound how long reads may block (`None` = forever).
    ///
    /// # Errors
    ///
    /// The underlying `set_read_timeout` error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Split into a buffered reader plus a writable clone.
    ///
    /// # Errors
    ///
    /// If the underlying socket cannot be duplicated.
    pub fn split(self) -> io::Result<(BufReader<Conn>, Conn)> {
        let writer = match &self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        };
        Ok((BufReader::new(self), writer))
    }
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Whether the server closes the connection once it has answered
/// `request`: `claim`, `drain` and `shutdown` are each the last request
/// on their connection.
pub(crate) fn last_on_connection(request: &str) -> bool {
    matches!(
        request.split_whitespace().next(),
        Some("claim" | "drain" | "shutdown")
    )
}

/// A client that keeps one connection to the server.
///
/// The first request dials (retrying for up to the client's patience);
/// later requests reuse the connection, each written with one write. The
/// connection is kept only once a reply has been read whole, the single
/// line or everything up to `end`. It is dropped after `claim`, `drain`
/// or `shutdown`, and after any I/O error, early EOF or sink error; the
/// next request dials again. A failed request is returned as an error
/// and never resent, so an `enqueue` cannot land twice.
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    patience: Duration,
    /// The kept-alive connection, present between requests.
    conn: Mutex<Option<BufReader<Conn>>>,
}

impl Client {
    /// A client for the given endpoint, retrying connects for up to
    /// `patience`.
    pub fn new(endpoint: Endpoint, patience: Duration) -> Client {
        Client {
            endpoint,
            patience,
            conn: Mutex::new(None),
        }
    }

    /// Take the kept-alive connection, or dial one, and write `request`
    /// to it as one line. The caller owns the connection until it hands
    /// it back through [`Client::keep`], so any error path drops it.
    fn send(&self, request: &str) -> io::Result<BufReader<Conn>> {
        let kept = self.conn.lock().unwrap_or_else(|e| e.into_inner()).take();
        let mut reader = match kept {
            Some(reader) => reader,
            None => BufReader::new(self.endpoint.connect(self.patience)?),
        };
        reader
            .get_mut()
            .write_all(format!("{request}\n").as_bytes())?;
        Ok(reader)
    }

    /// Keep a connection whose reply to `request` was read whole, unless
    /// the server closes it after that request.
    fn keep(&self, request: &str, reader: BufReader<Conn>) {
        if !last_on_connection(request) {
            *self.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(reader);
        }
    }

    /// Send a request expecting a single reply line.
    ///
    /// # Errors
    ///
    /// I/O failure, or an empty reply (server died mid-request).
    pub fn request_line(&self, request: &str) -> io::Result<String> {
        let mut reader = self.send(request)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without replying",
            ));
        }
        if line.ends_with('\n') {
            self.keep(request, reader);
        }
        Ok(line.trim_end().to_string())
    }

    /// Send a request and stream every reply line up to (not
    /// including) the `end` terminator into `out`. Returns the number
    /// of lines streamed.
    ///
    /// # Errors
    ///
    /// I/O failure, a failing `out`, or EOF before `end`.
    pub fn request_stream(&self, request: &str, out: &mut dyn Write) -> io::Result<usize> {
        let mut reader = self.send(request)?;
        let mut lines = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed before `end` ({lines} line(s) streamed)"),
                ));
            }
            if line.trim_end() == "end" {
                if line.ends_with('\n') {
                    self.keep(request, reader);
                }
                return Ok(lines);
            }
            out.write_all(line.as_bytes())?;
            lines += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_forms() {
        assert_eq!(
            Endpoint::parse("/tmp/x.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/y.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/y.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7800"),
            Endpoint::Tcp("127.0.0.1:7800".to_string())
        );
        assert_eq!(
            format!("{}", Endpoint::parse("tcp:1.2.3.4:5")),
            "tcp:1.2.3.4:5"
        );
    }

    /// One client, three requests, one connection: the server accepts
    /// once and every request arrives on that connection.
    #[test]
    fn one_client_sends_its_requests_on_one_connection() {
        const EXCHANGES: [(&str, &str); 3] = [
            ("enqueue workload=sci-eng", "ok 1\n"),
            (
                "status",
                "ok pending 1\njob 1 pending workload=sci-eng\nend\n",
            ),
            (
                "compact",
                "ok compacted 0 settled record(s) into generation 1\n",
            ),
        ];
        let dir = std::env::temp_dir().join("vax-wire-kept");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let listener = endpoint.bind().unwrap();
        assert_eq!(listener.local_endpoint().unwrap(), endpoint);
        let server = std::thread::spawn(move || {
            let (mut reader, mut writer) = listener.accept().unwrap().split().unwrap();
            for (request, reply) in EXCHANGES {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap() == 0 {
                    return Err(format!(
                        "`{request}` did not arrive on the first connection"
                    ));
                }
                assert_eq!(line, format!("{request}\n"));
                writer.write_all(reply.as_bytes()).unwrap();
            }
            Ok(())
        });
        let client = Client::new(endpoint, Duration::from_secs(2));
        let first = client.request_line(EXCHANGES[0].0);
        let mut out = Vec::new();
        let second = client.request_stream(EXCHANGES[1].0, &mut out);
        let third = client.request_line(EXCHANGES[2].0);
        server.join().unwrap().unwrap();
        assert_eq!(first.unwrap(), "ok 1");
        assert_eq!(second.unwrap(), 2);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "ok pending 1\njob 1 pending workload=sci-eng\n"
        );
        assert!(third.unwrap().starts_with("ok compacted"));
    }

    /// After a request that ends its connection on the server's side,
    /// the client lets that connection go and dials for the next one.
    #[test]
    fn a_connection_ending_request_is_not_kept() {
        const ENDING: [&str; 3] = ["shutdown", "drain", "claim"];
        let dir = std::env::temp_dir().join("vax-wire-ending");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let listener = endpoint.bind().unwrap();
        let server = std::thread::spawn(move || {
            for ending in ENDING {
                let (mut reader, mut writer) = listener.accept().unwrap().split().unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line, format!("{ending}\n"));
                writer.write_all(b"ok\n").unwrap();
                line.clear();
                if reader.read_line(&mut line).unwrap() != 0 {
                    return Err(format!("`{}` followed `{ending}`", line.trim_end()));
                }
            }
            Ok(())
        });
        let client = Client::new(endpoint, Duration::from_secs(2));
        let replies: Vec<_> = ENDING.iter().map(|r| client.request_line(r)).collect();
        server.join().unwrap().unwrap();
        for reply in replies {
            assert_eq!(reply.unwrap(), "ok");
        }
    }

    #[test]
    fn tcp_local_endpoint_reports_the_bound_port() {
        let listener = Endpoint::Tcp("0.0.0.0:0".to_string()).bind().unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let Endpoint::Tcp(addr) = &endpoint else {
            panic!("a TCP listener reports a TCP endpoint");
        };
        assert!(!addr.ends_with(":0"), "{addr}");
        // The reported endpoint is dialable, wildcard address and all.
        endpoint.connect(Duration::ZERO).unwrap();
        listener.accept().unwrap();
    }

    #[test]
    fn stale_unix_socket_is_replaced() {
        let dir = std::env::temp_dir().join("vax-wire-stale");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        // First bind creates the file; dropping the listener leaves it.
        drop(endpoint.bind().unwrap());
        // Second bind must succeed over the stale file.
        endpoint.bind().unwrap();
    }
}
