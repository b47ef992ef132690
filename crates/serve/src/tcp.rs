//! Optional TCP frontend: the same JSON-lines protocol as stdin/stdout,
//! over a `std::net::TcpListener`. No external deps — plain std sockets,
//! one thread per connection, newline-delimited requests in, newline-
//! delimited responses out.
//!
//! Every response leaves in one `write_all` (the body with its newline,
//! or a whole HTTP reply), on a socket with `TCP_NODELAY` set. A response
//! split over two writes would let Nagle's algorithm hold the second,
//! small segment until the client acknowledges the first, and a client
//! using delayed ACK waits ~40 ms to do so: each round trip would cost
//! ~44 ms on loopback, for a request the service answers in tens of µs.
//!
//! A request line may be at most 64 KiB. A client that sends more
//! without a newline gets one error line and the connection closes, so
//! no client can grow the server's memory without bound. A line that is
//! not valid UTF-8 gets one error line and the connection keeps serving.
//! Both rejections are counted in the live `/metrics` snapshot.
//!
//! Two extras on top of the line protocol:
//!
//! * a connection whose first line is an HTTP `GET` is answered as a
//!   one-shot HTTP/1.0 exchange — `GET /metrics` serves the live registry
//!   in Prometheus text exposition ([`cm5_obs::prometheus_text`]), so any
//!   scraper or `curl` can watch a running service;
//! * [`TcpHandle::shutdown`] is graceful: connection reads poll a shared
//!   stop flag on a short timeout, and shutdown joins the accept loop
//!   *and* every connection thread before returning, so callers can flush
//!   final metrics/flight state knowing no request is still in flight.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cm5_obs::prometheus_text;

use crate::response::error_line;
use crate::service::Service;

/// How often blocked reads wake up to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The longest request line, newline included: 64 KiB. The longest line
/// of a recorded 4096-query mixed trace is 150 bytes.
const MAX_LINE: usize = 64 * 1024;

/// A running TCP frontend. Dropping the handle does NOT stop the server;
/// call [`TcpHandle::shutdown`].
pub struct TcpHandle {
    /// The bound address (useful with a `:0` bind in tests).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpHandle {
    /// Stop accepting connections, signal every open connection, and join
    /// the accept loop plus all connection threads. On return no request
    /// is in flight — metrics snapshots and flight-recorder state taken
    /// after this are final.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn registry poisoned"));
        for c in conns {
            let _ = c.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:7045`, or `:0` for an ephemeral port) and
/// serve request lines until [`TcpHandle::shutdown`].
pub fn spawn_tcp(service: Arc<Service>, addr: &str) -> std::io::Result<TcpHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // Poll-with-timeout accept so shutdown is prompt without unsafe
    // self-pipe tricks.
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let conns2 = Arc::clone(&conns);
    let accept_thread = std::thread::spawn(move || {
        while !stop2.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop2);
                    let handle =
                        std::thread::spawn(move || serve_connection(&service, stream, &stop));
                    let mut conns = conns2.lock().expect("conn registry poisoned");
                    // Finished threads need no join; dropping their
                    // handles keeps the registry at the live connections.
                    conns.retain(|c| !c.is_finished());
                    conns.push(handle);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });
    Ok(TcpHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        conns,
    })
}

fn serve_connection(service: &Service, stream: TcpStream, stop: &AtomicBool) {
    // Short read timeouts let the connection notice shutdown while idle.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // `read_until` appends, so a timeout mid-line keeps the partial
        // data in `buf` and the retry completes it.
        match read_capped(&mut reader, &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.len() == MAX_LINE && buf.last() != Some(&b'\n') => {
                service.rejected.too_long.fetch_add(1, Ordering::Relaxed);
                let mut response =
                    error_line(0, &format!("request line longer than {MAX_LINE} bytes"));
                response.push('\n');
                let _ = writer.write_all(response.as_bytes());
                // The FIN goes out before the close resets the unread
                // input, so the client reads the error line, then EOF.
                let _ = writer.shutdown(Shutdown::Write);
                break;
            }
            Ok(_) => {
                let bytes = std::mem::take(&mut buf);
                let mut response = match std::str::from_utf8(&bytes) {
                    Ok(line) => {
                        let line = line.trim_end_matches(['\n', '\r']);
                        if line.trim().is_empty() {
                            continue;
                        }
                        if let Some(path) = line.strip_prefix("GET ") {
                            serve_http(service, &mut reader, &mut writer, path);
                            break;
                        }
                        service.handle_line(line)
                    }
                    Err(_) => {
                        service.rejected.not_utf8.fetch_add(1, Ordering::Relaxed);
                        error_line(0, "request line is not valid UTF-8")
                    }
                };
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Append to `buf` up to and including the next newline, but stop once
/// `buf` holds [`MAX_LINE`] bytes. `buf` must be shorter than that, so
/// `Ok(0)` means end of input.
fn read_capped(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let room = MAX_LINE - buf.len();
    reader.take(room as u64).read_until(b'\n', buf)
}

/// Answer one HTTP GET (first line already consumed; `path_and_version` is
/// everything after `"GET "`). Only `/metrics` exists.
fn serve_http(
    service: &Service,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    path_and_version: &str,
) {
    // Drain request headers best-effort (until a blank line or timeout) so
    // well-behaved clients see a clean close.
    let mut header = Vec::new();
    while let Ok(n) = read_capped(reader, &mut header) {
        if n == 0 || header.trim_ascii().is_empty() {
            break;
        }
        header.clear();
    }
    let path = path_and_version
        .split_whitespace()
        .next()
        .unwrap_or_default();
    let (status, body) = if path == "/metrics" {
        ("200 OK", prometheus_text(&service.live_metrics()))
    } else {
        ("404 Not Found", format!("no such path {path}\n"))
    };
    let reply = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.write_all(reply.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use cm5_obs::Json;
    use std::io::Read;
    use std::time::Instant;

    /// A response line's `ok` member.
    fn ok(line: &str) -> Option<bool> {
        Json::parse(line).ok()?.get("ok").and_then(Json::as_bool)
    }

    #[test]
    fn tcp_round_trip() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = handle.addr;

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(
            b"{\"id\":7,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}\nnot json\n",
        )
        .unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = BufReader::new(conn).lines();
        let ok = lines.next().unwrap().unwrap();
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let err = lines.next().unwrap().unwrap();
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert!(lines.next().is_none());

        handle.shutdown();
        assert_eq!(service.metrics().counters["requests"], 2);
    }

    #[test]
    fn metrics_endpoint_serves_lintable_prometheus_text() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = handle.addr;

        // Issue a query first so histograms are non-trivial.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":16,\"bytes\":256}}\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert_eq!(ok(&line), Some(true), "{line}");

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("cm5_requests 1"), "{body}");
        assert!(body.contains("# TYPE cm5_request_total_ns histogram"));
        let samples = cm5_obs::lint_prometheus(body).expect("scrape must lint clean");
        assert!(samples > 20, "suspiciously few samples: {samples}");

        // Unknown paths 404.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");

        handle.shutdown();
    }

    /// Send `line` and read its one-line reply.
    fn round_trip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        conn.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    }

    #[test]
    fn closed_loop_round_trips_do_not_stall() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(handle.addr).unwrap();
        conn.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // A response written in two pieces would stall each round trip
        // ~40 ms on Nagle's algorithm against delayed ACK: ~2 s for 50.
        let t0 = Instant::now();
        for id in 0..50 {
            let line =
                format!("{{\"id\":{id},\"query\":{{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}}}");
            let reply = round_trip(&mut conn, &mut reader, &line);
            let doc = Json::parse(&reply).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "50 round trips took {took:?}"
        );
        drop((conn, reader));
        handle.shutdown();
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let line = "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}";
        for _ in 0..200 {
            // A round trip before the close means the connection was
            // accepted (and its thread registered) before the next one.
            let mut conn = TcpStream::connect(handle.addr).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            assert_eq!(ok(&round_trip(&mut conn, &mut reader, line)), Some(true));
        }
        let live = handle.conns.lock().unwrap().len();
        assert!(
            live <= 8,
            "{live} handles kept after 200 closed connections"
        );
        handle.shutdown();
        assert_eq!(service.metrics().counters["requests"], 200);
    }

    #[test]
    fn an_endless_line_gets_one_error_and_the_connection_closes() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let conn = TcpStream::connect(handle.addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // 1 MiB and no newline. The server stops reading at the cap, so
        // the write fails once it closes; only the reply matters.
        let mut sender = conn.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let _ = sender.write_all(&vec![b'x'; 1 << 20]);
        });
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("65536 bytes"), "{error}");
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "{reply}");
        flood.join().unwrap();
        assert_eq!(
            service.live_metrics().counters["tcp_rejected_line_too_long"],
            1
        );

        // A fresh connection is served, and a line that arrives in two
        // pieces, a read timeout apart, is still one request.
        let mut conn = TcpStream::connect(handle.addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let line = "{\"id\":2,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}";
        let (head, tail) = line.split_at(20);
        conn.write_all(head.as_bytes()).unwrap();
        std::thread::sleep(3 * POLL_INTERVAL);
        assert_eq!(ok(&round_trip(&mut conn, &mut reader, tail)), Some(true));
        drop((conn, reader));
        handle.shutdown();
        assert_eq!(service.metrics().counters["requests"], 1);
    }

    #[test]
    fn a_non_utf8_line_gets_one_error_and_the_connection_keeps_serving() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(handle.addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        conn.write_all(b"\xff\xfe\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("UTF-8"), "{error}");

        let line = "{\"id\":4,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}";
        let reply = round_trip(&mut conn, &mut reader, line);
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        drop((conn, reader));
        handle.shutdown();
        // The rejected line never reached the service.
        assert_eq!(service.metrics().counters["requests"], 1);
        let live = service.live_metrics();
        assert_eq!(live.counters["tcp_rejected_not_utf8"], 1);
        assert_eq!(live.counters["tcp_rejected_line_too_long"], 0);
    }

    #[test]
    fn shutdown_joins_idle_connections_promptly() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let handle = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = handle.addr;

        // Open a connection, send one request, then go idle WITHOUT
        // closing — pre-graceful-shutdown this thread would be orphaned.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"id\":3,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}\n")
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(ok(&line), Some(true), "{line}");

        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown took {:?} with an idle connection open",
            t0.elapsed()
        );
        // The service state is final after shutdown: the snapshot is safe
        // to flush.
        assert_eq!(service.metrics().counters["requests"], 1);
        drop(conn);
    }
}
