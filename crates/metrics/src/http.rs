//! Tiny blocking HTTP exposition endpoint: one thread, `GET /metrics` only.
//!
//! No HTTP library: the server reads the request head, matches the request
//! line, and writes a fixed-format response with the rendered exposition.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const ACCEPT_POLL: Duration = Duration::from_millis(25);
const CONN_TIMEOUT: Duration = Duration::from_millis(1000);

/// A running `/metrics` endpoint; stops (and joins its thread) on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving in one thread.
    pub fn bind(addr: &str) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = thread::Builder::new()
            .name("shm-metrics-http".into())
            .spawn(move || serve_loop(&listener, &stop2))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool) {
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((mut conn, _)) => {
                // Serve inline: exposition is cheap and scrapes are rare.
                let _ = handle_connection(&mut conn);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_connection(conn: &mut TcpStream) -> io::Result<()> {
    conn.set_read_timeout(Some(CONN_TIMEOUT))?;
    conn.set_write_timeout(Some(CONN_TIMEOUT))?;
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Read until the blank line ending the request head (or a sane cap).
    while head.len() < 4096 && !head.ends_with(b"\r\n\r\n") {
        match conn.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = crate::render_prometheus();
        write_response(
            conn,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &body,
        )
    } else {
        write_response(conn, "404 Not Found", "text/plain", "only GET /metrics\n")
    }
}

fn write_response(
    conn: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(header.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `GET path` to `addr` over a plain `TcpStream` and returns the
    /// whole response, status line and headers included.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect_timeout(&addr, CONN_TIMEOUT).unwrap();
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        resp
    }

    #[test]
    fn serves_metrics_and_rejects_other_paths() {
        let _g = crate::registry::test_lock();
        crate::set_enabled(true);
        let c = crate::register_counter("shm_test_http_total", "http test");
        c.add(11);
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let resp = get(server.local_addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        let (_, body) = resp.split_once("\r\n\r\n").expect("head and body");
        assert!(body.contains("# TYPE shm_test_http_total counter"));
        let value: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix("shm_test_http_total "))
            .expect("series present")
            .parse()
            .expect("integer sample");
        assert!(value >= 11);

        // Non-/metrics paths get a 404.
        assert!(get(server.local_addr(), "/other").starts_with("HTTP/1.1 404"));
        server.shutdown();
        crate::set_enabled(false);
    }
}
