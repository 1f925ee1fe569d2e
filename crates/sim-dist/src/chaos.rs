//! Seeded in-process TCP chaos proxy.
//!
//! Sits between workers and a coordinator, parses the frame stream at
//! frame boundaries ([`crate::protocol::frame_wire_len`]), and executes a
//! seeded fault schedule per frame: drop, delay, duplication, truncation,
//! bit corruption, abrupt connection reset, and timed partition windows.
//! Every roll comes from a pure SplitMix64 stream keyed on `(seed,
//! connection, direction, frame index)`.  How many heartbeat and stats
//! frames reach the proxy before a given job frame depends on thread
//! timing, so one seed does not replay the same faults; the `shm chaos`
//! campaign's determinism contract (`docs/ROBUSTNESS.md`) is that its
//! verdicts and tables repeat.
//!
//! The proxy is intentionally *hostile but honest about framing*: faults
//! that desynchronise the byte stream (truncation, corruption that the
//! CRC will reject) are followed by a connection sever, mirroring how a
//! real middlebox failure surfaces.  Workers reconnect through the proxy
//! and the coordinator's reassignment/timeout machinery takes over.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn;
use crate::protocol::frame_wire_len;
use crate::splitmix64;

/// A timed partition: between `start_ms` and `start_ms + duration_ms`
/// (measured from proxy start) no frames flow in either direction; TCP
/// backpressure holds them, mimicking a network partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    pub start_ms: u64,
    pub duration_ms: u64,
}

/// Fault schedule for a [`ChaosProxy`].  All `*_per_mille` fields are
/// per-frame probabilities in 1/1000 units; 0 disables the fault.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Silently drop the frame.
    pub drop_per_mille: u32,
    /// Forward the frame twice.
    pub dup_per_mille: u32,
    /// Flip one bit in the frame (then sever — the CRC rejects it).
    pub corrupt_per_mille: u32,
    /// Forward a prefix of the frame, then sever.
    pub truncate_per_mille: u32,
    /// Hold the frame for [`ChaosConfig::delay_ms`] before forwarding.
    pub delay_per_mille: u32,
    /// Delay applied to delayed frames.
    pub delay_ms: u64,
    /// Abruptly reset the connection after this many forwarded frames
    /// (both directions counted together).
    pub reset_after_frames: Option<u64>,
    /// Timed partition windows, relative to proxy start.
    pub partitions: Vec<PartitionWindow>,
}

/// Counters of everything the proxy did, for campaign reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    pub connections: u64,
    pub frames_forwarded: u64,
    pub frames_dropped: u64,
    pub frames_duplicated: u64,
    pub frames_corrupted: u64,
    pub frames_truncated: u64,
    pub frames_delayed: u64,
    pub resets: u64,
    pub partition_stalls: u64,
}

impl ChaosStats {
    /// Total injected faults (everything except clean forwards).
    pub fn faults(&self) -> u64 {
        self.frames_dropped
            + self.frames_duplicated
            + self.frames_corrupted
            + self.frames_truncated
            + self.frames_delayed
            + self.resets
            + self.partition_stalls
    }
}

/// A running chaos proxy; workers connect to [`ChaosProxy::local_addr`]
/// and traffic is piped to the upstream coordinator through the fault
/// schedule.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<ChaosStats>>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a loopback listener and starts proxying to `upstream`.
    pub fn start(upstream: SocketAddr, cfg: ChaosConfig) -> std::io::Result<Self> {
        let listener: TcpListener = conn::listen("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(ChaosStats::default()));
        let started = Instant::now();
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let proxy = Proxy {
                upstream,
                cfg,
                stop: Arc::clone(&stop),
                stats: Arc::clone(&stats),
                started,
            };
            std::thread::spawn(move || {
                let pipes = conn::accept_loop(
                    &listener,
                    || stop.load(Ordering::SeqCst),
                    move |conn_id, client| proxy.pipe(conn_id, client),
                );
                for h in pipes {
                    let _ = h.join();
                }
            })
        };
        Ok(Self {
            local_addr,
            stop,
            stats,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> ChaosStats {
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Stops accepting and joins the proxy threads.  Existing piped
    /// connections are severed.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything a proxied connection needs, shared by all of them.
struct Proxy {
    upstream: SocketAddr,
    cfg: ChaosConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<ChaosStats>>,
    started: Instant,
}

impl Proxy {
    /// Serves the `conn_id`-th accepted connection: dials the upstream and
    /// pumps both directions through the fault schedule until they end.
    fn pipe(&self, conn_id: u64, client: TcpStream) {
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .connections += 1;
        let Ok(server) = TcpStream::connect_timeout(&self.upstream, Duration::from_secs(5)) else {
            let _ = client.shutdown(Shutdown::Both);
            return;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        // Both directions share the forwarded-frame counter that triggers
        // `reset_after_frames`.
        let forwarded = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for (dir_salt, src, dst) in [
                (0x5550_u64, &client, &server), // worker → coordinator
                (0xD035_u64, &server, &client), // coordinator → worker
            ] {
                let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
                    sever(&client, &server);
                    continue;
                };
                let ctx = PumpCtx {
                    src,
                    dst,
                    cfg: self.cfg.clone(),
                    stop: Arc::clone(&self.stop),
                    stats: Arc::clone(&self.stats),
                    started: self.started,
                    conn_id,
                    dir_salt,
                    forwarded: Arc::clone(&forwarded),
                };
                scope.spawn(move || pump(ctx));
            }
        });
    }
}

struct PumpCtx {
    src: TcpStream,
    dst: TcpStream,
    cfg: ChaosConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<ChaosStats>>,
    started: Instant,
    conn_id: u64,
    dir_salt: u64,
    forwarded: Arc<AtomicU64>,
}

/// Per-frame deterministic roll: one independent sub-stream per fault
/// kind so probabilities compose without correlation.
fn roll(cfg: &ChaosConfig, conn: u64, dir: u64, frame: u64, kind: u64) -> u64 {
    splitmix64(
        cfg.seed
            ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ dir.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ frame.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ kind,
    )
}

fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

fn pump(ctx: PumpCtx) {
    let PumpCtx {
        mut src,
        mut dst,
        cfg,
        stop,
        stats,
        started,
        conn_id,
        dir_salt,
        forwarded,
    } = ctx;
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut frame_idx: u64 = 0;

    loop {
        if stop.load(Ordering::SeqCst) {
            sever(&src, &dst);
            return;
        }
        // Honour partition windows before touching the wire.
        let now_ms = started.elapsed().as_millis() as u64;
        if let Some(w) = cfg
            .partitions
            .iter()
            .find(|w| now_ms >= w.start_ms && now_ms < w.start_ms + w.duration_ms)
        {
            stats
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .partition_stalls += 1;
            let until = w.start_ms + w.duration_ms;
            while (started.elapsed().as_millis() as u64) < until {
                if stop.load(Ordering::SeqCst) {
                    sever(&src, &dst);
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        match src.read(&mut chunk) {
            Ok(0) => {
                sever(&src, &dst);
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                sever(&src, &dst);
                return;
            }
        }

        // Forward every complete frame in the buffer through the fault
        // schedule.
        loop {
            let wire_len = match frame_wire_len(&buf) {
                Ok(Some(len)) if buf.len() >= len => len,
                Ok(_) => break, // incomplete — read more
                Err(_) => {
                    // Unparseable stream (shouldn't happen with honest
                    // peers): flush raw and keep piping to avoid deadlock.
                    if dst.write_all(&buf).is_err() {
                        sever(&src, &dst);
                        return;
                    }
                    buf.clear();
                    break;
                }
            };
            let mut frame: Vec<u8> = buf.drain(..wire_len).collect();
            frame_idx += 1;
            let sub = |kind: u64| roll(&cfg, conn_id, dir_salt, frame_idx, kind);

            if cfg.drop_per_mille > 0 && sub(1) % 1000 < u64::from(cfg.drop_per_mille) {
                bump(&stats, |s| s.frames_dropped += 1);
                fault_metric("drop");
                continue;
            }
            if cfg.truncate_per_mille > 0 && sub(2) % 1000 < u64::from(cfg.truncate_per_mille) {
                bump(&stats, |s| s.frames_truncated += 1);
                fault_metric("truncate");
                let keep = 1 + (sub(20) as usize % (wire_len - 1));
                let _ = dst.write_all(&frame[..keep]);
                sever(&src, &dst);
                return;
            }
            if cfg.corrupt_per_mille > 0 && sub(3) % 1000 < u64::from(cfg.corrupt_per_mille) {
                bump(&stats, |s| s.frames_corrupted += 1);
                fault_metric("corrupt");
                // Flip one bit past the magic; the receiver's CRC (or
                // length bound) rejects the frame and poisons the stream,
                // so sever right after — fail-closed on both ends.
                let byte = 4 + (sub(30) as usize % (wire_len - 4));
                let bit = (sub(31) % 8) as u8;
                frame[byte] ^= 1 << bit;
                let _ = dst.write_all(&frame);
                sever(&src, &dst);
                return;
            }
            if cfg.delay_per_mille > 0 && sub(4) % 1000 < u64::from(cfg.delay_per_mille) {
                bump(&stats, |s| s.frames_delayed += 1);
                fault_metric("delay");
                std::thread::sleep(Duration::from_millis(cfg.delay_ms));
            }
            let dup = cfg.dup_per_mille > 0 && sub(5) % 1000 < u64::from(cfg.dup_per_mille);
            let copies = if dup { 2 } else { 1 };
            if dup {
                bump(&stats, |s| s.frames_duplicated += 1);
                fault_metric("dup");
            }
            for _ in 0..copies {
                if dst.write_all(&frame).is_err() {
                    sever(&src, &dst);
                    return;
                }
            }
            bump(&stats, |s| s.frames_forwarded += 1);
            let total = forwarded.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some(limit) = cfg.reset_after_frames {
                if total >= limit {
                    bump(&stats, |s| s.resets += 1);
                    fault_metric("reset");
                    sever(&src, &dst);
                    return;
                }
            }
        }
    }
}

fn bump(stats: &Arc<Mutex<ChaosStats>>, f: impl FnOnce(&mut ChaosStats)) {
    f(&mut stats.lock().unwrap_or_else(|e| e.into_inner()));
}

fn fault_metric(kind: &'static str) {
    shm_metrics::labeled_counter(
        "shm_chaos_faults_total",
        "Faults injected by the chaos proxy",
        &[("kind", kind)],
    )
    .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_frame, Frame, FrameReader};
    /// The wire bytes of a frame numbered `n`.
    fn numbered_frame(n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let frame = Frame::JobError {
            index: n,
            message: String::new(),
        };
        write_frame(&mut out, &frame).unwrap();
        out
    }

    /// Echo upstream: accepts one connection and pipes it back verbatim.
    fn echo_upstream() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            if let Ok((mut s, _)) = l.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn clean_config_passes_frames_through_unchanged() {
        let (addr, up) = echo_upstream();
        let mut proxy = ChaosProxy::start(addr, ChaosConfig::default()).unwrap();
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        for i in 0..8u64 {
            conn.write_all(&numbered_frame(i)).unwrap();
        }
        let mut reader = FrameReader::new(conn.try_clone().unwrap());
        for i in 0..8u64 {
            loop {
                match reader.read_frame() {
                    Ok(Frame::JobError { index, .. }) => {
                        assert_eq!(index, i);
                        break;
                    }
                    Ok(other) => panic!("unexpected frame {other:?}"),
                    Err(crate::protocol::FrameError::Timeout) => continue,
                    Err(e) => panic!("frame error: {e}"),
                }
            }
        }
        // The proxy counts a frame after writing it, so the last echo can
        // arrive before its count: wait (bounded) for the count to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut stats = proxy.stats();
        while stats.frames_forwarded < 16 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            stats = proxy.stats();
        }
        assert_eq!(stats.frames_forwarded, 16, "8 up + 8 echoed down");
        assert_eq!(stats.faults(), 0);
        drop(conn);
        proxy.shutdown();
        let _ = up.join();
    }

    #[test]
    fn corrupt_always_fails_closed_at_the_reader() {
        let (addr, up) = echo_upstream();
        let cfg = ChaosConfig {
            seed: 7,
            corrupt_per_mille: 1000,
            ..ChaosConfig::default()
        };
        let mut proxy = ChaosProxy::start(addr, cfg).unwrap();
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        conn.write_all(&numbered_frame(1)).unwrap();
        let mut reader = FrameReader::new(conn.try_clone().unwrap());
        // The echoed frame crossed the proxy twice; whichever direction
        // corrupted it, the reader must end Corrupt or severed — never a
        // clean frame.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match reader.read_frame() {
                Ok(f) => panic!("corrupted frame must not decode, got {f:?}"),
                Err(crate::protocol::FrameError::Timeout) => {
                    assert!(Instant::now() < deadline, "no verdict before deadline");
                }
                Err(_) => break, // Corrupt or Eof: fail-closed either way
            }
        }
        assert!(proxy.stats().frames_corrupted >= 1);
        proxy.shutdown();
        let _ = up.join();
    }

    #[test]
    fn same_seed_injects_identical_fault_pattern() {
        let run = |seed: u64| -> (u64, u64, ChaosStats) {
            let (addr, up) = echo_upstream();
            let cfg = ChaosConfig {
                seed,
                drop_per_mille: 300,
                dup_per_mille: 200,
                ..ChaosConfig::default()
            };
            let mut proxy = ChaosProxy::start(addr, cfg).unwrap();
            let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            for i in 0..32u64 {
                conn.write_all(&numbered_frame(i)).unwrap();
            }
            // Read echoes until quiet so downstream rolls happen too.
            let mut reader = FrameReader::new(conn.try_clone().unwrap());
            let mut got = 0u64;
            let mut quiet = 0;
            while quiet < 6 {
                match reader.read_frame() {
                    Ok(_) => {
                        got += 1;
                        quiet = 0;
                    }
                    Err(crate::protocol::FrameError::Timeout) => quiet += 1,
                    Err(_) => break,
                }
            }
            drop(conn);
            let stats = proxy.stats();
            proxy.shutdown();
            let _ = up.join();
            (got, stats.frames_dropped, stats)
        };
        let (got_a, dropped_a, stats_a) = run(42);
        let (got_b, dropped_b, stats_b) = run(42);
        assert_eq!(got_a, got_b, "same seed must deliver same frame count");
        assert_eq!(dropped_a, dropped_b);
        assert_eq!(stats_a.frames_duplicated, stats_b.frames_duplicated);
    }
}
