//! The thread-free in-process "virtual internet" the crawler uses for
//! simulation runs: [`VirtualNet`] connects a host to a [`Handler`]
//! through a loopback stream, with the faults of a [`FaultPlan`].

use crate::codec::{encode_response, MessageReader};
use crate::error::{NetError, Result};
use crate::fault::FaultPlan;
use crate::http::{Response, Status};
use crate::server::{Connect, Handler};
use crate::transport::ByteStream;
use std::io::{self, Cursor, Read, Write};
use std::sync::Arc;
use webvuln_telemetry::{Counter, Registry};

/// The in-process virtual internet: a [`Connect`] whose streams loop back
/// into a handler without threads or sockets.
///
/// Every request still round-trips through the full wire codec (the
/// client's encoded request bytes are parsed server-side, and the encoded
/// response bytes are parsed client-side), so simulation runs exercise the
/// identical protocol path as TCP — just without the kernel.
///
/// Transient faults heal after a few attempts; the attempt number is the
/// one the client passes to [`Connect::connect`], so the net keeps no
/// per-host state and one `VirtualNet` serves any number of workers.
pub struct VirtualNet {
    handler: Arc<dyn Handler>,
    faults: FaultPlan,
    metrics: FaultMetrics,
    /// Crawl week mixed into transient-fault decisions.
    week: usize,
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
    fn connect(&self, host: &str, attempt: u32) -> Result<Box<dyn ByteStream>> {
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
            requests: MessageReader::fed(),
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
    /// The request bytes written and not yet answered, parsed in place.
    requests: MessageReader<io::Empty>,
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
            if self.requests.at_eof() {
                return Ok(0); // no request pending: EOF
            }
            let mut wire = Vec::new();
            match self.requests.read_request() {
                Ok(_) if self.force_5xx => {
                    self.flaky_5xx_counter.inc();
                    let unavailable = Response::status(Status::SERVICE_UNAVAILABLE);
                    encode_response(&unavailable, self.chunked, &mut wire);
                }
                Ok(request) => {
                    encode_response(&self.handler.handle(&request), self.chunked, &mut wire);
                }
                Err(NetError::UnexpectedEof) => return Ok(0), // incomplete request
                Err(_) => {
                    encode_response(&Response::status(Status::BAD_REQUEST), false, &mut wire);
                    self.requests = MessageReader::fed();
                }
            }
            if let Some(limit) = self.truncate_at.filter(|&limit| wire.len() > limit) {
                wire.truncate(limit);
                // After the truncated bytes the stream is dead.
                self.requests = MessageReader::fed();
                self.truncated_counter.inc();
            }
            self.response = Cursor::new(wire);
        }
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.requests.feed(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
