//! Dependency-free HTTP introspection endpoint.
//!
//! A minimal blocking HTTP/1.1 server on [`std::net::TcpListener`] — no new
//! crates — owned by the [`QueryService`](crate::service::QueryService) and
//! serving three plain-text routes:
//!
//! * `GET /metrics` — live Prometheus exposition: the
//!   [`MetricsHub`](crate::obs::hub::MetricsHub) counters and histograms via
//!   [`prometheus_from_hub`](crate::obs::prometheus::prometheus_from_hub),
//!   plus service-level gauges (active/queued queries, reserved and resident
//!   bytes, uptime).
//! * `GET /queries` — the live per-query table from the
//!   [`LiveRegistry`](crate::obs::live::LiveRegistry): state, work-order
//!   progress, reserved vs. resident bytes, spill events, age.
//! * `GET /healthz` — `ok`.
//!
//! The accept loop runs on its own thread with a non-blocking listener and a
//! short sleep, so shutdown needs no self-connect trick: the service flips
//! the stop flag and joins.

use crate::obs::hub::MetricsHub;
use crate::obs::live::LiveRegistry;
use crate::obs::prometheus::prometheus_from_hub;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_storage::MemoryTracker;

/// Shared state the endpoint reads — everything is concurrently updated by
/// the service's worker and service threads and read here without
/// coordination beyond atomics and the registry's short mutex.
#[derive(Debug)]
pub struct ServerState {
    /// The service's metrics hub.
    pub hub: Arc<MetricsHub>,
    /// The service's live query registry.
    pub registry: Arc<LiveRegistry>,
    /// The service's root memory tracker (in-use bytes gauge).
    pub tracker: Arc<MemoryTracker>,
    /// Service start time (uptime gauge).
    pub started: Instant,
}

impl ServerState {
    /// The `/metrics` payload: hub counters + histograms, then the
    /// service-level gauges.
    pub fn metrics_text(&self) -> String {
        let mut out = prometheus_from_hub(&self.hub.snapshot());
        let (running, queued) = self.registry.counts();
        let reserved: usize = self.registry.running().iter().map(|q| q.reservation).sum();
        let gauges: [(&str, &str, f64); 5] = [
            (
                "uot_service_active_queries",
                "Queries currently executing",
                running as f64,
            ),
            (
                "uot_service_queued_queries",
                "Submissions waiting in the admission queue",
                queued as f64,
            ),
            (
                "uot_service_reserved_bytes",
                "Admission reservations of active queries",
                reserved as f64,
            ),
            (
                "uot_service_memory_in_use_bytes",
                "Tracked bytes currently in use",
                self.tracker.current_bytes() as f64,
            ),
            (
                "uot_service_uptime_seconds",
                "Seconds since the service started",
                self.started.elapsed().as_secs_f64(),
            ),
        ];
        for (name, help, v) in gauges {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        }
        out
    }
}

/// The introspection endpoint: a listener thread serving [`ServerState`].
#[derive(Debug)]
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Bind `127.0.0.1:port` (0 = ephemeral) and start serving `state`.
    pub fn start(port: u16, state: Arc<ServerState>) -> std::io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("uot-introspect".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &state),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(IntrospectionServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join its thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handle one connection: parse the request line, answer, close.
fn serve_one(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    // Read until the end of the request head (or the buffer fills). The
    // routes take no bodies, so everything past the request line is ignored.
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else {
        match path {
            "/healthz" => ("200 OK", "ok\n".to_string()),
            "/metrics" => ("200 OK", state.metrics_text()),
            "/queries" => ("200 OK", state.registry.render_table()),
            _ => ("404 Not Found", "not found\n".to_string()),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::live::LiveQuery;
    use crate::query_id::QueryId;

    fn state() -> Arc<ServerState> {
        let registry = Arc::new(LiveRegistry::new());
        registry.admit(LiveQuery::new(
            QueryId::new(1),
            1 << 20,
            MemoryTracker::new(),
            crate::cancel::CancellationToken::new(),
        ));
        Arc::new(ServerState {
            hub: Arc::new(MetricsHub::new()),
            registry,
            tracker: MemoryTracker::new(),
            started: Instant::now(),
        })
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_on_an_ephemeral_port() {
        let mut server = IntrospectionServer::start(0, state()).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0);

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("uot_hub_work_orders_total"), "{body}");
        assert!(body.contains("uot_service_active_queries 1"), "{body}");
        assert!(body.contains("# TYPE uot_service_uptime_seconds gauge"));

        let (head, body) = get(addr, "/queries");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("q1"), "{body}");
        assert!(body.contains("running"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close on some platforms; a
                // second connect must fail once the listener is gone.
                std::thread::sleep(Duration::from_millis(50));
                TcpStream::connect(addr).is_err()
            }
        );
    }
}
