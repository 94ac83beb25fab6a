//! The wire protocol: one request line per connection.
//!
//! The server listens on a Unix socket (default) or a TCP address.
//! A client connects, writes one request line, and reads the reply:
//!
//! | request          | reply                                        |
//! |------------------|----------------------------------------------|
//! | `enqueue [client=<name>] <spec>` | `ok <id>` or `reject <reason>` |
//! | `status`         | `ok …` summary, `job …` lines, `end`         |
//! | `results`        | one JSON line per settled job, then `end`    |
//! | `metrics`        | `ok …` summary, `worker <json>` lines, `end` |
//! | `drain`          | all results streamed in id order as jobs     |
//! |                  | settle, then `end`; the server then exits    |
//! | `compact`        | `ok …` — fold settled records into the       |
//! |                  | journal's snapshot segment now               |
//! | `claim`          | `job <id> <spec>`, `idle`, or `gone`; the    |
//! |                  | worker then sends `result <id>` + blob or    |
//! |                  | `fail <id> <message>` on the same connection |
//! | `shutdown`       | `ok` — stop accepting, abandon pending work  |
//!
//! Everything is UTF-8 lines; multi-line replies are terminated by a
//! bare `end`, so clients never need length framing. `claim` is the
//! one request that holds its connection open: the attempt runs on the
//! worker's machine while the server waits, and a dropped connection
//! counts as a retryable failed attempt.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
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

/// A one-request client.
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    patience: Duration,
}

impl Client {
    /// A client for the given endpoint, retrying connects for up to
    /// `patience`.
    pub fn new(endpoint: Endpoint, patience: Duration) -> Client {
        Client { endpoint, patience }
    }

    fn send(&self, request: &str) -> io::Result<BufReader<Conn>> {
        let conn = self.endpoint.connect(self.patience)?;
        let (reader, mut writer) = conn.split()?;
        writeln!(writer, "{request}")?;
        writer.flush()?;
        Ok(reader)
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
        Ok(line.trim_end().to_string())
    }

    /// Send a request and stream every reply line up to (not
    /// including) the `end` terminator into `out`. Returns the number
    /// of lines streamed.
    ///
    /// # Errors
    ///
    /// I/O failure, or EOF before `end`.
    pub fn request_stream(&self, request: &str, out: &mut dyn Write) -> io::Result<usize> {
        let mut reader = self.send(request)?;
        let mut lines = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed before `end` ({lines} line(s) streamed)"),
                ));
            }
            if line.trim_end() == "end" {
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

    #[test]
    fn unix_round_trip_one_request() {
        let dir = std::env::temp_dir().join("vax-wire-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let listener = endpoint.bind().unwrap();
        assert_eq!(listener.local_endpoint().unwrap(), endpoint);
        let server = std::thread::spawn(move || {
            let (mut reader, mut writer) = listener.accept().unwrap().split().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "status");
            writeln!(writer, "ok pending 0").unwrap();
            writeln!(writer, "end").unwrap();
        });
        let client = Client::new(endpoint, Duration::from_secs(2));
        let mut out = Vec::new();
        let lines = client.request_stream("status", &mut out).unwrap();
        assert_eq!(lines, 1);
        assert_eq!(String::from_utf8(out).unwrap(), "ok pending 0\n");
        server.join().unwrap();
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
