//! Server side: the [`Handler`] trait, the workspace's one HTTP server
//! ([`Server`]: accept loop, pooled workers, and [`serve_stream`], the one
//! per-connection loop), and the thread-free in-process "virtual internet"
//! connector the crawler uses for simulation runs.

use crate::codec::{encode_response, MessageReader};
use crate::error::{NetError, Result};
use crate::fault::FaultPlan;
use crate::http::{Request, Response, Status};
use crate::transport::ByteStream;
use std::io::{self, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use webvuln_exec::Executor;
use webvuln_telemetry::{Counter, Gauge, Registry};

/// Produces a response for a request. Implemented by the synthetic web
/// generator and by the query API; closures work too.
///
/// Only [`handle`](Handler::handle) is required. The other methods are
/// what [`Server`] asks of a handler beyond answering requests; their
/// defaults are bare status responses and an empty label.
pub trait Handler: Send + Sync {
    /// Handles one request.
    fn handle(&self, req: &Request) -> Response;

    /// [`handle`](Handler::handle), plus a short label for the route the
    /// request took — the key of the `serve.mid_response` fail-point.
    fn handle_labelled(&self, req: &Request) -> (&'static str, Response) {
        ("", self.handle(req))
    }

    /// The answer to bytes that do not parse as a request (`400`).
    fn bad_request(&self) -> Response {
        Response::status(Status::BAD_REQUEST)
    }

    /// The answer to a connection over the admission limit (`503`).
    fn overloaded(&self) -> Response {
        Response::status(Status::SERVICE_UNAVAILABLE)
    }
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// [`Server`] settings. The cache fields are read by the query API's
/// handler, not by the server loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the connection pool.
    pub threads: usize,
    /// TCP port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Connections admitted concurrently (queued + in flight); beyond
    /// this the accept loop answers `503` and closes.
    pub max_connections: usize,
    /// Response-cache capacity in entries.
    pub cache_capacity: usize,
    /// Seed for the cache's shard hash.
    pub seed: u64,
    /// Keep-alive idle timeout; also bounds drain latency on shutdown,
    /// since a worker parked in a blocking read notices the drain flag
    /// within one timeout.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 4,
            port: 0,
            max_connections: 64,
            cache_capacity: 256,
            seed: 0,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// The settings for a server that one crawl of `threads` workers
    /// talks to: a pool worker per crawl thread, and an admission limit
    /// such a crawl cannot reach — it holds at most `threads` connections
    /// open, and each pool worker may still be closing the one before.
    pub fn for_crawl(threads: usize) -> ServeConfig {
        let threads = threads.max(1);
        ServeConfig {
            threads,
            max_connections: 2 * threads,
            ..ServeConfig::default()
        }
    }
}

/// Serves HTTP/1.1 on one connection, with keep-alive, until the peer
/// closes, goes idle past the stream's read timeout, asks for
/// `Connection: close`, sends bytes that do not parse (answered with
/// [`Handler::bad_request`]), or `draining` is set — the exchange in
/// flight then finishes with `Connection: close` and no further request
/// is read. Returns the number of requests answered.
///
/// One [`MessageReader`] owns the stream for the whole connection, so
/// requests pipelined into one read are answered in order; responses are
/// written through the reader's handle. `killed` counts connections the
/// `serve.mid_response` fail-point cut half-way through a response.
pub fn serve_stream(
    stream: &mut dyn ByteStream,
    handler: &dyn Handler,
    draining: &AtomicBool,
    killed: &Counter,
) -> usize {
    let mut reader = MessageReader::new(stream);
    let mut served = 0usize;
    while !draining.load(Ordering::Relaxed) {
        let request = match reader.read_request() {
            Ok(r) => r,
            // EOF and idle timeout end keep-alive gracefully.
            Err(NetError::UnexpectedEof | NetError::Timeout | NetError::Io(_)) => break,
            Err(_) => {
                let mut wire = Vec::new();
                encode_response(&handler.bad_request(), false, &mut wire);
                let _ = reader.get_mut().write_all(&wire);
                break;
            }
        };
        let (label, mut response) = handler.handle_labelled(&request);
        let close = request.headers.wants_close() || draining.load(Ordering::Relaxed);
        if close {
            response.headers.set("Connection", "close");
        }
        let mut wire = Vec::new();
        encode_response(&response, false, &mut wire);
        let stream = reader.get_mut();
        // Injected mid-response kill: half the bytes, then the connection
        // dies. A `Delay` stalls between encode and write — a slow server
        // under test.
        match webvuln_failpoint::check("serve.mid_response", label) {
            Ok(0) => {}
            Ok(ns) => std::thread::sleep(Duration::from_nanos(ns)),
            Err(_) => {
                killed.inc();
                let _ = stream.write_all(&wire[..wire.len() / 2]);
                let _ = stream.flush();
                break;
            }
        }
        if stream
            .write_all(&wire)
            .and_then(|_| stream.flush())
            .is_err()
        {
            break;
        }
        served += 1;
        // Set above, or by the handler itself.
        if response.headers.wants_close() {
            break;
        }
    }
    served
}

/// Locks ignoring poison: every update under these mutexes is a single
/// receive or counter bump, so the data is valid at every step, and a
/// panicking handler must not wedge the connection queue or the
/// `VirtualNet` attempts map for the other workers.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// What the accept loop and the pool workers share.
struct Shared {
    handler: Arc<dyn Handler>,
    draining: AtomicBool,
    /// Accepted connections on their way to a pool worker; the admission
    /// limit bounds how many. Workers take turns waiting on it.
    queue: Mutex<Receiver<TcpStream>>,
    connections: Counter,
    accept_faults: Counter,
    rejected: Counter,
    killed: Counter,
    /// Queued + in-flight connections — what the admission limit counts.
    inflight: Gauge,
}

/// The HTTP server: a non-blocking accept loop with an admission limit
/// feeding a queue drained by `webvuln-exec` pool workers, each running
/// [`serve_stream`] on one connection at a time. A fault — a failed or
/// fail-pointed accept, a panicking handler — costs the one connection
/// it hits; the listener and the pool live until
/// [`shutdown`](Server::shutdown). The loop's own counters are the
/// `serve.connections_total`, `serve.accept_faults_total`,
/// `serve.rejected_connections_total`, `serve.killed_mid_response_total`
/// and `serve.inflight` metrics of the registry it is started with.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:{config.port}` and starts serving `handler`.
    pub fn start(
        handler: Arc<dyn Handler>,
        config: ServeConfig,
        registry: &Registry,
    ) -> Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port)).map_err(NetError::Io)?;
        let addr = listener.local_addr().map_err(NetError::Io)?;
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let (accepted, queue) = channel();
        let shared = Arc::new(Shared {
            handler,
            draining: AtomicBool::new(false),
            queue: Mutex::new(queue),
            connections: registry.counter("serve.connections_total"),
            accept_faults: registry.counter("serve.accept_faults_total"),
            rejected: registry.counter("serve.rejected_connections_total"),
            killed: registry.counter("serve.killed_mid_response_total"),
            inflight: registry.gauge("serve.inflight"),
        });
        let accept = Arc::clone(&shared);
        let pool = Arc::clone(&shared);
        let workers = config.threads.max(1);
        let threads = vec![
            std::thread::spawn(move || accept.accept_loop(listener, accepted, &config)),
            std::thread::spawn(move || pool.run_pool(workers)),
        ];
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let in-flight exchanges finish
    /// (their responses carry `Connection: close`), join the accept and
    /// pool threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// Accepts until the drain flag is set — nothing else ends this loop.
    /// Returning drops `queue`'s sender, which is what ends the workers.
    fn accept_loop(&self, listener: TcpListener, queue: Sender<TcpStream>, config: &ServeConfig) {
        let max = config.max_connections.max(1) as i64;
        while !self.draining.load(Ordering::Relaxed) {
            // The `serve.accept` fail-point (keyed by peer address) shares
            // the branch a failed `accept` takes; its `Panic` action is
            // caught here so that it, too, costs only this connection.
            let accepted = listener.accept().and_then(|(conn, peer)| {
                self.connections.inc();
                let key = peer.to_string();
                match catch_unwind(|| webvuln_failpoint::check("serve.accept", &key)) {
                    Ok(Ok(_)) => Ok(conn),
                    _ => Err(io::Error::other("injected accept fault")),
                }
            });
            match accepted {
                Ok(mut conn) if self.inflight.get() >= max => {
                    self.rejected.inc();
                    let mut wire = Vec::new();
                    encode_response(&self.handler.overloaded(), false, &mut wire);
                    let _ = conn.write_all(&wire).and_then(|_| conn.flush());
                }
                Ok(conn) => {
                    conn.set_nodelay(true).ok();
                    // Without the idle timeout a client that parks an open
                    // connection pins its worker forever.
                    conn.set_read_timeout(Some(config.idle_timeout)).ok();
                    self.inflight.add(1);
                    let _ = queue.send(conn);
                }
                // Nothing waiting is no fault. Anything else — ECONNABORTED,
                // EMFILE, an injected fault — loses that accept, not the
                // listener. Either way, back off.
                Err(e) => {
                    if e.kind() != io::ErrorKind::WouldBlock {
                        self.accept_faults.inc();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Waits for a connection; `None` once the accept loop has ended and
    /// the queue is empty. The queue's lock is released on return, before
    /// the connection is served.
    fn next_connection(&self) -> Option<TcpStream> {
        lock(&self.queue).recv().ok()
    }

    /// Runs `threads` worker loops until the queue is closed and empty.
    fn run_pool(&self, threads: usize) {
        // One slot per worker is one claim per worker, so every loop runs
        // concurrently.
        let slots: Vec<usize> = (0..threads).collect();
        Executor::new(threads).map(&slots, |_slot| {
            while let Some(mut conn) = self.next_connection() {
                // Contain per-connection panics (a handler bug, an armed
                // `serve.mid_response` panic): the worker and the pool
                // survive.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    serve_stream(
                        &mut conn,
                        self.handler.as_ref(),
                        &self.draining,
                        &self.killed,
                    )
                }));
                self.inflight.add(-1);
            }
        });
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
/// points this at a local [`Server`], playing DNS for the test realm).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::fetch;
    use crate::codec::encode_request;
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

    /// [`serve_stream`] on one end of a pipe, not draining.
    fn serve_pipe(mut server: crate::MemStream) -> usize {
        let handler = echo_handler();
        let (draining, killed) = (AtomicBool::new(false), Counter::default());
        serve_stream(&mut server, handler.as_ref(), &draining, &killed)
    }

    fn start(config: ServeConfig) -> Server {
        Server::start(echo_handler(), config, &Registry::new()).expect("bind")
    }

    #[test]
    fn serve_connection_over_mem_pipe() {
        let (mut client, server) = mem_pipe();
        let t = std::thread::spawn(move || serve_pipe(server));

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
        let (mut client, server) = mem_pipe();
        let t = std::thread::spawn(move || serve_pipe(server));
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
        let (mut client, server) = mem_pipe();
        let t = std::thread::spawn(move || serve_pipe(server));
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
        let mut server = start(ServeConfig::default());
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
        let mut server = start(ServeConfig::default());
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
    fn an_open_connection_does_not_hold_up_the_next() {
        // Longer than the client's read timeout: if the worker parked on
        // `idle` kept the others from the queue, the fetch would fail.
        let mut server = start(ServeConfig {
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        });
        let idle = TcpStream::connect(server.addr()).expect("connect");
        for _ in 0..3 {
            let resp = fetch(&TcpConnector::fixed(server.addr()), "next.example", "/");
            assert_eq!(resp.expect("fetch").status, Status::OK);
        }
        drop(idle); // EOF releases its worker before the drain joins it
        server.shutdown();
    }

    #[test]
    fn tcp_server_serves_pipelined_requests_in_order() {
        let mut server = start(ServeConfig::default());
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
        let mut server = start(ServeConfig::default());
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
        let mut server = start(ServeConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        });
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
        let handler = echo_handler();
        let killed = Counter::default();
        let mut wire = Vec::new();
        encode_request(&Request::get("d.example", "/inflight"), &mut wire);

        // Draining from the start: the queued request is never read.
        let (mut client, mut server) = mem_pipe();
        client.write_all(&wire).expect("send");
        drop(client);
        let draining = AtomicBool::new(true);
        let served = serve_stream(&mut server, handler.as_ref(), &draining, &killed);
        assert_eq!(served, 0, "drain served {served} requests");

        // The drain flag raised while a request is being handled: that
        // exchange finishes, marked `Connection: close`, and the second
        // pipelined request is never read.
        let draining = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&draining);
        let raising = move |_req: &Request| {
            flag.store(true, Ordering::Relaxed);
            Response::html("last")
        };
        let (mut client, mut server) = mem_pipe();
        client
            .write_all(&[&wire[..], &wire[..]].concat())
            .expect("send");
        client.shutdown_write();
        assert_eq!(serve_stream(&mut server, &raising, &draining, &killed), 1);
        drop(server);
        let mut reader = MessageReader::new(&mut client);
        let resp = reader.read_response(false).expect("response");
        assert!(resp.headers.wants_close(), "final response must say close");
        assert!(reader.at_eof(), "nothing follows the final response");
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
