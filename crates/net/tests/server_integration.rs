//! Server-side integration tests over real TCP: keep-alive, pipelining,
//! concurrent clients, oversized requests, and connection hygiene.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webvuln_net::codec::{encode_request, MessageReader};
use webvuln_net::{fetch, Request, Response, ServeConfig, Server, Status, TcpConnector};
use webvuln_telemetry::Registry;

fn counting_handler() -> (Arc<AtomicUsize>, Arc<dyn webvuln_net::Handler>) {
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&counter);
    let handler: Arc<dyn webvuln_net::Handler> = Arc::new(move |req: &Request| {
        c2.fetch_add(1, Ordering::SeqCst);
        Response::html(format!("<html>you asked for {}</html>", req.target))
    });
    (counter, handler)
}

fn start(handler: Arc<dyn webvuln_net::Handler>) -> Server {
    Server::start(handler, ServeConfig::default(), &Registry::new()).expect("bind")
}

#[test]
fn keep_alive_reuses_one_connection() {
    let (counter, handler) = counting_handler();
    let mut server = start(handler);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Three sequential requests on the same connection.
    for i in 0..3 {
        let mut wire = Vec::new();
        encode_request(&Request::get("ka.example", &format!("/{i}")), &mut wire);
        stream.write_all(&wire).expect("send");
        let resp = MessageReader::new(&mut stream)
            .read_response(false)
            .expect("response");
        assert_eq!(resp.status, Status::OK);
        assert!(resp.body_text().contains(&format!("/{i}")));
    }
    assert_eq!(counter.load(Ordering::SeqCst), 3);
    drop(stream); // release the worker before joining it
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (_, handler) = counting_handler();
    let mut server = start(handler);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Write both requests before reading anything.
    let mut wire = Vec::new();
    encode_request(&Request::get("pipe.example", "/first"), &mut wire);
    encode_request(&Request::get("pipe.example", "/second"), &mut wire);
    stream.write_all(&wire).expect("send");

    let mut reader = MessageReader::new(&mut stream);
    let r1 = reader.read_response(false).expect("first");
    let r2 = reader.read_response(false).expect("second");
    assert!(r1.body_text().contains("/first"));
    assert!(r2.body_text().contains("/second"));
    drop(reader);
    drop(stream);
    server.shutdown();
}

#[test]
fn concurrent_clients_are_isolated() {
    let (counter, handler) = counting_handler();
    let mut server = start(handler);
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let connector = TcpConnector::fixed(addr);
                let resp = fetch(&connector, "conc.example", &format!("/t{i}")).expect("fetch");
                assert!(resp.body_text().contains(&format!("/t{i}")));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(counter.load(Ordering::SeqCst), 8);
    server.shutdown();
}

#[test]
fn garbage_gets_400_and_connection_close() {
    let (counter, handler) = counting_handler();
    let mut server = start(handler);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(b"GARBAGE GARBAGE\r\n\r\n").expect("send");
    let resp = MessageReader::new(&mut stream)
        .read_response(false)
        .expect("response");
    assert_eq!(resp.status, Status::BAD_REQUEST);
    assert_eq!(counter.load(Ordering::SeqCst), 0, "handler never invoked");
    drop(stream);
    server.shutdown();
}

#[test]
fn connection_close_header_is_honoured() {
    let (_, handler) = counting_handler();
    let mut server = start(handler);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut req = Request::get("close.example", "/bye");
    req.headers.insert("Connection", "close");
    let mut wire = Vec::new();
    encode_request(&req, &mut wire);
    stream.write_all(&wire).expect("send");
    let mut reader = MessageReader::new(&mut stream);
    let resp = reader.read_response(false).expect("response");
    assert_eq!(resp.status, Status::OK);
    // Server closes: the next read hits EOF.
    assert!(reader.at_eof(), "server must close after Connection: close");
    drop(reader);
    drop(stream);
    server.shutdown();
}

#[test]
fn oversized_header_block_is_rejected_not_fatal() {
    let (counter, handler) = counting_handler();
    let mut server = start(handler);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // 100k of header data exceeds MAX_HEAD (64 KiB).
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: big.example\r\n")
        .expect("send");
    for _ in 0..2_000 {
        stream
            .write_all(format!("X-Pad: {}\r\n", "y".repeat(50)).as_bytes())
            .expect("send");
    }
    stream.write_all(b"\r\n").expect("send");
    let resp = MessageReader::new(&mut stream).read_response(false);
    // Either a clean 400 or a dropped connection — never a hang/panic.
    if let Ok(resp) = resp {
        assert_eq!(resp.status, Status::BAD_REQUEST);
    }
    assert_eq!(counter.load(Ordering::SeqCst), 0);
    drop(stream);
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_is_reaped() {
    // A client that opens a connection and never sends anything must not
    // pin a worker: the idle timeout releases it while the socket is
    // still open, and shutdown() does not wait on the parked client.
    let (_, handler) = counting_handler();
    let registry = Registry::new();
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let mut server = Server::start(handler, config, &registry).expect("bind");
    let _parked = TcpStream::connect(server.addr()).expect("connect");
    let started = std::time::Instant::now();
    let wait_for_inflight = |want: i64| {
        while registry.snapshot().gauge("serve.inflight") != Some(want) {
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "serve.inflight never reached {want}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    wait_for_inflight(1); // admitted
    wait_for_inflight(0); // reaped, with the client still connected
    server.shutdown();
}
