//! Server side: the [`Handler`] trait, the connection service loop, a real
//! TCP server, and the thread-free in-process "virtual internet" connector
//! the crawler uses for simulation runs.

use crate::codec::{encode_request, encode_response, MessageReader};
use crate::error::{NetError, Result};
use crate::fault::FaultPlan;
use crate::http::{Request, Response, Status};
use crate::transport::ByteStream;
use std::io::{self, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use webvuln_telemetry::{Counter, Registry};

/// Produces a response for a request. Implemented by the synthetic web
/// generator; closures work too.
pub trait Handler: Send + Sync {
    /// Handles one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Serves HTTP/1.1 on one connection until close/EOF/error.
///
/// Parse failures answer `400 Bad Request` and close. `Connection: close`
/// from either side ends the loop after the in-flight exchange. Returns
/// the number of requests served.
///
/// The codec reader keeps its buffer across requests, so pipelined
/// requests that arrived in one read are served in order rather than lost.
pub fn serve_connection(stream: &mut dyn ByteStream, handler: &dyn Handler) -> Result<usize> {
    serve_connection_until(stream, handler, &AtomicBool::new(false))
}

/// [`serve_connection`] with a drain signal: once `stop` is set, the
/// in-flight exchange finishes with `Connection: close` appended and the
/// loop ends instead of reading further requests. This is the graceful
/// half of [`TcpServer::shutdown`] — keep-alive clients get a clean
/// final response rather than an abrupt reset.
pub fn serve_connection_until(
    stream: &mut dyn ByteStream,
    handler: &dyn Handler,
    stop: &AtomicBool,
) -> Result<usize> {
    let mut served = 0usize;
    // The reader holds one handle to the stream for the lifetime of the
    // connection (preserving read-ahead); responses are written through a
    // second handle to the same underlying stream.
    let shared = Shared(Arc::new(Mutex::new(stream)));
    let writer = Shared(Arc::clone(&shared.0));
    let mut reader = MessageReader::new(shared);
    let write_all = |bytes: &[u8]| -> Result<()> {
        let mut guard = lock(&writer.0);
        guard.write_all(bytes)?;
        guard.flush()?;
        Ok(())
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(served);
        }
        if reader.at_eof() {
            return Ok(served);
        }
        let request = match reader.read_request() {
            Ok(r) => r,
            Err(NetError::UnexpectedEof) => return Ok(served),
            // Keep-alive idle timeout: a blocked read that times out ends
            // the connection gracefully (the client may simply be holding
            // the socket open).
            Err(NetError::Timeout) => return Ok(served),
            Err(NetError::Io(e)) => return Err(NetError::Io(e)),
            Err(_) => {
                let mut wire = Vec::new();
                encode_response(&Response::status(Status::BAD_REQUEST), false, &mut wire);
                let _ = write_all(&wire);
                return Ok(served);
            }
        };
        let close = request.headers.wants_close();
        let mut response = handler.handle(&request);
        let draining = stop.load(Ordering::Relaxed);
        if draining {
            response.headers.set("Connection", "close");
        }
        let close = close || draining || response.headers.wants_close();
        let mut wire = Vec::new();
        encode_response(&response, false, &mut wire);
        write_all(&wire)?;
        served += 1;
        if close {
            return Ok(served);
        }
    }
}

/// Locks ignoring poison: every update under these mutexes is a single
/// read, write or counter bump, so the data is valid at every step, and a
/// panicking handler must not wedge the connection or the `VirtualNet`
/// attempts map for the other workers.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// Shared stream handle letting the codec reader and the response writer
/// reference the same connection.
struct Shared<'a>(Arc<Mutex<&'a mut dyn ByteStream>>);

impl Read for Shared<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        lock(&self.0).read(buf)
    }
}

/// A real TCP server running the handler on every accepted connection.
///
/// Used by the live-crawl example and the TCP integration tests; the
/// large-scale simulation path uses [`VirtualNet`] instead.
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `127.0.0.1:0` (ephemeral port) and starts accepting, with a
    /// 5-second keep-alive idle timeout.
    pub fn start(handler: Arc<dyn Handler>) -> Result<TcpServer> {
        TcpServer::start_with_idle_timeout(handler, Duration::from_secs(5))
    }

    /// [`start`](TcpServer::start) with an explicit keep-alive idle
    /// timeout. The timeout also bounds drain latency: a worker parked in
    /// a blocking read notices the drain flag within one timeout.
    pub fn start_with_idle_timeout(
        handler: Arc<dyn Handler>,
        idle_timeout: Duration,
    ) -> Result<TcpServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(NetError::Io)?;
        let addr = listener.local_addr().map_err(NetError::Io)?;
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut conn, _peer)) => {
                        let handler = Arc::clone(&handler);
                        let drain = Arc::clone(&flag);
                        conn.set_nodelay(true).ok();
                        // Keep-alive idle timeout: without it a client that
                        // parks an open connection pins the worker forever
                        // (and `shutdown()` joins workers).
                        conn.set_read_timeout(Some(idle_timeout)).ok();
                        workers.push(std::thread::spawn(move || {
                            let _ = serve_connection_until(&mut conn, handler.as_ref(), &drain);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            // Graceful drain: the flag is set, so every worker finishes
            // its in-flight exchange (marked `Connection: close`) and
            // returns; joining here is what `shutdown()` waits on.
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(TcpServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight exchanges finish
    /// (their responses carry `Connection: close`), and join the accept
    /// thread and every connection worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Opens connections to named hosts. The client and crawler are generic
/// over this, so the same code crawls the in-process virtual internet and
/// real TCP endpoints.
pub trait Connect: Send + Sync {
    /// Opens a stream to `host`.
    fn connect(&self, host: &str) -> Result<Box<dyn ByteStream>>;
}

/// Connects every host to one fixed TCP address (the live-crawl example
/// points this at a local [`TcpServer`], playing DNS for the test realm).
pub struct TcpConnector {
    addr: SocketAddr,
}

/// Connect and read timeout of a [`TcpConnector`].
const TCP_TIMEOUT: Duration = Duration::from_secs(5);

impl TcpConnector {
    /// Creates a connector dialing `addr` for every host.
    pub fn fixed(addr: SocketAddr) -> TcpConnector {
        TcpConnector { addr }
    }
}

impl Connect for TcpConnector {
    fn connect(&self, _host: &str) -> Result<Box<dyn ByteStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, TCP_TIMEOUT).map_err(NetError::Io)?;
        stream
            .set_read_timeout(Some(TCP_TIMEOUT))
            .map_err(NetError::Io)?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }
}

/// The in-process virtual internet: a [`Connect`] whose streams loop back
/// into a handler without threads or sockets.
///
/// Every request still round-trips through the full wire codec (the
/// client's encoded request bytes are parsed server-side, and the encoded
/// response bytes are parsed client-side), so simulation runs exercise the
/// identical protocol path as TCP — just without the kernel.
pub struct VirtualNet {
    handler: Arc<dyn Handler>,
    faults: FaultPlan,
    metrics: FaultMetrics,
    /// Crawl week mixed into transient-fault decisions.
    week: usize,
    /// Per-host connect counter driving transient-fault healing. Reset
    /// implicitly each week (the collector builds a fresh `VirtualNet`
    /// per round). Each host is only fetched by one worker at a time, so
    /// the mutex serializes bookkeeping without affecting outcomes.
    attempts: Mutex<std::collections::HashMap<String, u32>>,
}

/// Counters for each injected-fault kind, recorded at the moment the fault
/// actually bites (a truncation point past the response is not a fault).
#[derive(Clone, Default)]
struct FaultMetrics {
    refused: Counter,
    transient_refused: Counter,
    stalled: Counter,
    flaky_5xx: Counter,
    truncated: Counter,
    chunked: Counter,
}

impl FaultMetrics {
    fn from_registry(registry: &Registry) -> FaultMetrics {
        FaultMetrics {
            refused: registry.counter("net.faults_refused_total"),
            transient_refused: registry.counter("net.faults_transient_refused_total"),
            stalled: registry.counter("net.faults_stalled_total"),
            flaky_5xx: registry.counter("net.faults_5xx_total"),
            truncated: registry.counter("net.faults_truncated_total"),
            chunked: registry.counter("net.faults_chunked_total"),
        }
    }
}

impl VirtualNet {
    /// Creates a virtual internet served entirely by `handler`.
    pub fn new(handler: Arc<dyn Handler>) -> VirtualNet {
        VirtualNet {
            handler,
            faults: FaultPlan::none(),
            // Detached counters: nothing reads them until
            // `with_fault_metrics` swaps in a registry's.
            metrics: FaultMetrics::default(),
            week: 0,
            attempts: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Installs a fault plan (connection failures, truncation).
    pub fn with_faults(mut self, faults: FaultPlan) -> VirtualNet {
        self.faults = faults;
        self
    }

    /// Sets the crawl week mixed into transient-fault decisions (which
    /// hosts flap changes week to week).
    pub fn with_week(mut self, week: usize) -> VirtualNet {
        self.week = week;
        self
    }

    /// Accounts injected faults (`net.faults_*` counters) against
    /// `registry`; without this they are counted nowhere.
    pub fn with_fault_metrics(mut self, registry: &Registry) -> VirtualNet {
        self.metrics = FaultMetrics::from_registry(registry);
        self
    }
}

impl Connect for VirtualNet {
    fn connect(&self, host: &str) -> Result<Box<dyn ByteStream>> {
        let attempt = {
            let mut attempts = lock(&self.attempts);
            let slot = attempts.entry(host.to_string()).or_insert(0);
            let current = *slot;
            *slot += 1;
            current
        };
        if self.faults.connect_fails(host) {
            self.metrics.refused.inc();
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("simulated refusal for {host}"),
            )));
        }
        if self
            .faults
            .transient_connect_fails(host, self.week, attempt)
        {
            self.metrics.transient_refused.inc();
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("simulated transient refusal for {host} (attempt {attempt})"),
            )));
        }
        if self.faults.stalls(host, self.week, attempt) {
            // The stall always bites: the client writes its request and
            // then blocks on the first read until the deadline trips.
            self.metrics.stalled.inc();
            return Ok(Box::new(StalledStream));
        }
        let chunked = self.faults.prefers_chunked(host);
        if chunked {
            self.metrics.chunked.inc();
        }
        Ok(Box::new(LoopbackStream {
            handler: Arc::clone(&self.handler),
            request_buf: Vec::new(),
            request_pos: 0,
            response: Cursor::new(Vec::new()),
            truncate_at: self.faults.truncate_at(host),
            chunked,
            force_5xx: self.faults.serves_5xx(host, self.week, attempt),
            truncated_counter: self.metrics.truncated.clone(),
            flaky_5xx_counter: self.metrics.flaky_5xx.clone(),
        }))
    }
}

/// A connection whose reads never produce data: every read trips the
/// simulated deadline, modeling a server that accepts the connection and
/// then hangs.
struct StalledStream;

impl Read for StalledStream {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "simulated stalled read",
        ))
    }
}

impl Write for StalledStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len()) // the request disappears into the void
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Client-side stream that dispatches written requests straight into the
/// handler and serves the encoded response back on reads.
struct LoopbackStream {
    handler: Arc<dyn Handler>,
    request_buf: Vec<u8>,
    request_pos: usize,
    response: Cursor<Vec<u8>>,
    /// When set, the response bytes are cut at this length and then EOF —
    /// simulating a connection dropped mid-body.
    truncate_at: Option<usize>,
    /// Whether responses use chunked framing (for codec-path diversity).
    chunked: bool,
    /// When set, every handled request is answered with `503 Service
    /// Unavailable` instead of the handler's response.
    force_5xx: bool,
    /// Bumped when a response is actually cut (the point fell inside it).
    truncated_counter: Counter,
    /// Bumped each time a 503 actually substitutes a handler response.
    flaky_5xx_counter: Counter,
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let n = self.response.read(buf)?;
            if n > 0 {
                return Ok(n);
            }
            // Response drained: try to service the next buffered request.
            if self.request_pos >= self.request_buf.len() {
                return Ok(0); // no request pending: EOF
            }
            let pending = self.request_buf[self.request_pos..].to_vec();
            let mut reader = MessageReader::new(Cursor::new(pending));
            let request = match reader.read_request() {
                Ok(r) => r,
                Err(NetError::UnexpectedEof) => return Ok(0), // incomplete request
                Err(_) => {
                    let mut wire = Vec::new();
                    encode_response(&Response::status(Status::BAD_REQUEST), false, &mut wire);
                    self.request_pos = self.request_buf.len();
                    self.install_response(wire);
                    continue;
                }
            };
            let consumed = reader.into_inner().position() as usize;
            self.request_pos += consumed;
            let response = if self.force_5xx {
                self.flaky_5xx_counter.inc();
                Response::status(Status::SERVICE_UNAVAILABLE)
            } else {
                self.handler.handle(&request)
            };
            let mut wire = Vec::new();
            encode_response(&response, self.chunked, &mut wire);
            self.install_response(wire);
        }
    }
}

impl LoopbackStream {
    fn install_response(&mut self, mut wire: Vec<u8>) {
        if let Some(limit) = self.truncate_at {
            if wire.len() > limit {
                wire.truncate(limit);
                // After the truncated bytes the stream is dead.
                self.request_pos = self.request_buf.len();
                self.truncated_counter.inc();
            }
        }
        self.response = Cursor::new(wire);
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.request_buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Encodes a request and returns the handler's encoded response — a pure
/// helper used by tests and micro-benchmarks to drive the codec path.
pub fn roundtrip(handler: &dyn Handler, request: &Request) -> Result<Response> {
    let mut wire = Vec::new();
    encode_request(request, &mut wire);
    let mut reader = MessageReader::new(Cursor::new(wire));
    let parsed = reader.read_request()?;
    let response = handler.handle(&parsed);
    let mut resp_wire = Vec::new();
    encode_response(&response, false, &mut resp_wire);
    MessageReader::new(Cursor::new(resp_wire)).read_response(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::fetch;
    use crate::transport::mem_pipe;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| {
            Response::html(format!(
                "<html>host={} target={}</html>",
                req.host().unwrap_or("?"),
                req.target
            ))
        })
    }

    #[test]
    fn serve_connection_over_mem_pipe() {
        let (mut client, mut server) = mem_pipe();
        let handler = echo_handler();
        let t = std::thread::spawn(move || {
            serve_connection(&mut server, handler.as_ref()).expect("serve ok")
        });

        let mut wire = Vec::new();
        encode_request(&Request::get("pipe.example", "/x"), &mut wire);
        client.write_all(&wire).expect("send");
        let resp = MessageReader::new(&mut client)
            .read_response(false)
            .expect("response");
        assert!(resp.body_text().contains("host=pipe.example"));
        drop(client); // EOF ends the serve loop
        assert_eq!(t.join().expect("join"), 1);
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let (mut client, mut server) = mem_pipe();
        let handler = echo_handler();
        let t = std::thread::spawn(move || {
            serve_connection(&mut server, handler.as_ref()).expect("serve ok")
        });
        for i in 0..3 {
            let mut wire = Vec::new();
            encode_request(&Request::get("k.example", &format!("/{i}")), &mut wire);
            client.write_all(&wire).expect("send");
            let resp = MessageReader::new(&mut client)
                .read_response(false)
                .expect("response");
            assert!(resp.body_text().contains(&format!("target=/{i}")));
        }
        drop(client);
        assert_eq!(t.join().expect("join"), 3);
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let (mut client, mut server) = mem_pipe();
        let handler = echo_handler();
        let t = std::thread::spawn(move || {
            serve_connection(&mut server, handler.as_ref()).expect("serve ok")
        });
        client.write_all(b"NONSENSE\r\n\r\n").expect("send");
        client.shutdown_write();
        let resp = MessageReader::new(&mut client)
            .read_response(false)
            .expect("response");
        assert_eq!(resp.status, Status::BAD_REQUEST);
        assert_eq!(t.join().expect("join"), 0);
    }

    #[test]
    fn virtual_net_round_trip() {
        let net = VirtualNet::new(echo_handler());
        let resp = fetch(&net, "v.example", "/index.html").expect("fetch");
        assert_eq!(resp.status, Status::OK);
        assert!(resp.body_text().contains("host=v.example"));
        assert!(resp.body_text().contains("target=/index.html"));
    }

    #[test]
    fn virtual_net_keep_alive_on_one_stream() {
        let net = VirtualNet::new(echo_handler());
        let mut stream = net.connect("kv.example").expect("connect");
        for i in 0..2 {
            let mut wire = Vec::new();
            encode_request(&Request::get("kv.example", &format!("/{i}")), &mut wire);
            stream.write_all(&wire).expect("send");
            let resp = MessageReader::new(&mut stream)
                .read_response(false)
                .expect("response");
            assert!(resp.body_text().contains(&format!("target=/{i}")));
        }
    }

    #[test]
    fn tcp_server_end_to_end() {
        let mut server = TcpServer::start(echo_handler()).expect("bind");
        let connector = TcpConnector::fixed(server.addr());
        let resp = fetch(&connector, "tcp.example", "/live").expect("fetch");
        assert_eq!(resp.status, Status::OK);
        assert!(resp.body_text().contains("host=tcp.example"));
        server.shutdown();
    }

    /// One keep-alive TCP client sending `count` sequential requests on a
    /// single connection, asserting every response echoes its target.
    fn run_keep_alive_client(addr: std::net::SocketAddr, tag: usize, count: usize) -> usize {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut served = 0;
        for i in 0..count {
            let mut wire = Vec::new();
            encode_request(
                &Request::get("ka.example", &format!("/c{tag}/r{i}")),
                &mut wire,
            );
            stream.write_all(&wire).expect("send");
            let resp = MessageReader::new(stream.try_clone().expect("clone"))
                .read_response(false)
                .expect("response");
            assert!(
                resp.body_text().contains(&format!("target=/c{tag}/r{i}")),
                "client {tag} request {i} got wrong body"
            );
            served += 1;
        }
        served
    }

    #[test]
    fn tcp_server_serves_concurrent_keep_alive_clients() {
        let mut server = TcpServer::start(echo_handler()).expect("bind");
        let addr = server.addr();
        let clients: Vec<_> = (0..4)
            .map(|tag| std::thread::spawn(move || run_keep_alive_client(addr, tag, 5)))
            .collect();
        for c in clients {
            assert_eq!(c.join().expect("client"), 5);
        }
        server.shutdown();
    }

    #[test]
    fn tcp_server_serves_pipelined_requests_in_order() {
        let mut server = TcpServer::start(echo_handler()).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        // All three requests written before any response is read.
        let mut wire = Vec::new();
        for i in 0..3 {
            encode_request(&Request::get("pipe.example", &format!("/p{i}")), &mut wire);
        }
        stream.write_all(&wire).expect("send pipeline");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        for i in 0..3 {
            let resp = reader.read_response(false).expect("response");
            assert!(
                resp.body_text().contains(&format!("target=/p{i}")),
                "pipelined response {i} out of order"
            );
        }
        server.shutdown();
    }

    #[test]
    fn tcp_server_honors_connection_close() {
        let mut server = TcpServer::start(echo_handler()).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut req = Request::get("bye.example", "/last");
        req.headers.insert("Connection", "close");
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        stream.write_all(&wire).expect("send");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        let resp = reader.read_response(false).expect("response");
        assert!(resp.body_text().contains("target=/last"));
        // The server closed its side: the next read is EOF, not a hang.
        let mut rest = Vec::new();
        let n = stream.read_to_end(&mut rest).expect("read to end");
        assert_eq!(n, 0, "connection must be closed after Connection: close");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_keep_alive_connections_gracefully() {
        let mut server =
            TcpServer::start_with_idle_timeout(echo_handler(), Duration::from_millis(200))
                .expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        // First exchange completes normally on a keep-alive connection.
        let mut wire = Vec::new();
        encode_request(&Request::get("drain.example", "/one"), &mut wire);
        stream.write_all(&wire).expect("send");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        let resp = reader.read_response(false).expect("response");
        assert!(resp.body_text().contains("target=/one"));

        // Shutdown with the connection still open: the drain must finish
        // well under the join-forever failure mode (bounded by the idle
        // timeout), and afterwards the port accepts no new connections.
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "drain took {:?}",
            started.elapsed()
        );
        // The parked connection was closed by the drain (EOF or reset —
        // never a hang).
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    }

    #[test]
    fn serve_connection_until_marks_final_response_close() {
        let (mut client, mut server) = mem_pipe();
        let handler = echo_handler();
        let stop = Arc::new(AtomicBool::new(true)); // draining from the start
        let stop_t = Arc::clone(&stop);
        // Queue a request in the pipe before the loop starts, so the only
        // variable is whether the drain flag is honored.
        let mut wire = Vec::new();
        encode_request(&Request::get("d.example", "/inflight"), &mut wire);
        client.write_all(&wire).expect("send");
        drop(client);
        let t = std::thread::spawn(move || {
            serve_connection_until(&mut server, handler.as_ref(), &stop_t).expect("serve ok")
        });
        // Drain-before-first-read returns without serving the queued
        // request — the loop must never hang.
        let served = t.join().expect("join");
        assert_eq!(served, 0, "drain served {served} requests");
    }

    #[test]
    fn roundtrip_helper() {
        let handler = echo_handler();
        let resp = roundtrip(handler.as_ref(), &Request::get("h.example", "/rt")).expect("ok");
        assert!(resp.body_text().contains("target=/rt"));
    }

    #[test]
    fn fault_metrics_count_only_faults_that_bite() {
        let registry = Registry::new();
        // A body so large every truncation point (64..1024) falls inside it.
        let big = Arc::new(|_req: &Request| Response::html("x".repeat(4096)));
        let net = VirtualNet::new(big)
            .with_fault_metrics(&registry)
            .with_faults(FaultPlan {
                seed: 9,
                truncate_permille: 1000,
                ..FaultPlan::none()
            });
        for i in 0..5 {
            let _ = fetch(&net, &format!("cut{i}.example"), "/");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.faults_truncated_total"), Some(5));
        assert_eq!(snap.counter("net.faults_refused_total"), Some(0));

        // With no faults installed nothing is counted.
        let clean = Registry::new();
        let net = VirtualNet::new(echo_handler()).with_fault_metrics(&clean);
        let _ = fetch(&net, "ok.example", "/");
        let snap = clean.snapshot();
        assert_eq!(snap.counter("net.faults_truncated_total"), Some(0));
        assert_eq!(snap.counter("net.faults_refused_total"), Some(0));
        assert_eq!(snap.counter("net.faults_chunked_total"), Some(0));
    }

    #[test]
    fn transient_refusals_heal_after_repeated_connects() {
        let registry = Registry::new();
        let net = VirtualNet::new(echo_handler())
            .with_fault_metrics(&registry)
            .with_week(3)
            .with_faults(FaultPlan {
                seed: 21,
                transient_fail_permille: 1000,
                heal_after_attempts: 2,
                ..FaultPlan::none()
            });
        // First two connects are refused, the third heals.
        for _ in 0..2 {
            let err = fetch(&net, "flap.example", "/").expect_err("refused");
            assert_eq!(err.class(), crate::ErrorClass::Refused);
            assert!(err.is_retryable());
        }
        let resp = fetch(&net, "flap.example", "/").expect("healed");
        assert_eq!(resp.status, Status::OK);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.faults_transient_refused_total"), Some(2));
        assert_eq!(snap.counter("net.faults_refused_total"), Some(0));
    }

    #[test]
    fn stalled_hosts_surface_timeouts_then_heal() {
        let registry = Registry::new();
        let net = VirtualNet::new(echo_handler())
            .with_fault_metrics(&registry)
            .with_faults(FaultPlan {
                seed: 22,
                stall_permille: 1000,
                heal_after_attempts: 1,
                ..FaultPlan::none()
            });
        let err = fetch(&net, "slow.example", "/").expect_err("stalled");
        assert!(matches!(err, NetError::Timeout), "got {err:?}");
        let resp = fetch(&net, "slow.example", "/").expect("healed");
        assert_eq!(resp.status, Status::OK);
        assert_eq!(
            registry.snapshot().counter("net.faults_stalled_total"),
            Some(1)
        );
    }

    #[test]
    fn flaky_5xx_substitutes_responses_then_heals() {
        let registry = Registry::new();
        let net = VirtualNet::new(echo_handler())
            .with_fault_metrics(&registry)
            .with_week(7)
            .with_faults(FaultPlan {
                seed: 23,
                flaky_5xx_permille: 1000,
                heal_after_attempts: 1,
                ..FaultPlan::none()
            });
        let resp = fetch(&net, "burst.example", "/").expect("a response arrives");
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        let resp = fetch(&net, "burst.example", "/").expect("healed");
        assert_eq!(resp.status, Status::OK);
        assert_eq!(registry.snapshot().counter("net.faults_5xx_total"), Some(1));
    }
}
