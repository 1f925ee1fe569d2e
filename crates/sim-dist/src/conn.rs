//! The connection core shared by the sweep coordinator, its workers and
//! the chaos proxy.
//!
//! * [`listen`] and [`accept_loop`] — one accept loop, one thread per
//!   connection, one error policy: a failed accept is retried, never
//!   fatal, so a peer that resets before it is accepted cannot stop a
//!   server from accepting the next one.
//! * [`accept_hello`] — the server half of the versioned handshake: one
//!   [`Frame::Hello`] within a caller-given wait, protocol version and
//!   config hash checked here, the caller's own admission check after,
//!   and the [`Frame::HelloAck`] written here.
//! * [`send_hello`] — the client half: send the hello, await the ack.

use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{write_frame, Frame, FrameError, FrameReader, PROTOCOL_VERSION};
use crate::DistError;

/// How long an accept loop with nothing to accept sleeps before it checks
/// its stop condition and polls again.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long a worker waits for the [`Frame::HelloAck`].
const HELLO_WAIT: Duration = Duration::from_secs(10);

/// Binds a listener for [`accept_loop`].  It is non-blocking, so the loop
/// can poll its stop condition between connections.
pub fn listen(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Accepts connections on a [`listen`]ed listener until `stop()` turns
/// true, running `serve(n, stream)` on a fresh thread for the `n`-th
/// connection (counting from 1).  Returns the connection threads still
/// running, for the caller to join once it has told them to finish.
pub fn accept_loop<S>(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    serve: S,
) -> Vec<JoinHandle<()>>
where
    S: Fn(u64, TcpStream) + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut n = 0u64;
    while !stop() {
        match listener.accept() {
            Ok((stream, _)) => {
                n += 1;
                // Some platforms hand out the listener's non-blocking mode.
                let _ = stream.set_nonblocking(false);
                let serve = Arc::clone(&serve);
                conns.push(std::thread::spawn(move || serve(n, stream)));
            }
            // WouldBlock: nobody is waiting.  Anything else (a peer that
            // reset before it was accepted, a full descriptor table) is
            // retried the same way.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
        conns.retain(|h| !h.is_finished());
    }
    conns
}

/// Splits a connected stream into a frame reader whose reads wait at most
/// `tick` (the caller's bookkeeping tick) and a writer.
pub fn split(stream: TcpStream, tick: Duration) -> io::Result<(FrameReader<TcpStream>, TcpStream)> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(tick))?;
    let writer = stream.try_clone()?;
    Ok((FrameReader::new(stream), writer))
}

/// Who is on the other end of a handshake: what a worker presents in its
/// [`Frame::Hello`] and what the coordinator's admission check sees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Peer {
    /// Worker id.
    pub id: String,
    /// Jobs the worker holds in flight at once (its pool width).
    pub window: u32,
}

/// The server half of the handshake.  Reads one [`Frame::Hello`] within
/// `wait`, refuses a protocol-version or config-hash mismatch, then asks
/// `check` (which returns the refusal reason, if any), and answers with a
/// [`Frame::HelloAck`].  A first frame that is not a hello is refused with
/// `expected hello`.  Returns the peer only when it was accepted and the
/// ack was written; a link that fails or stays silent gets no answer.
pub fn accept_hello(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    wait: Duration,
    config_hash: u64,
    check: impl FnOnce(&Peer) -> Result<(), String>,
) -> Option<Peer> {
    let deadline = Instant::now() + wait;
    let verdict = loop {
        match reader.read_frame() {
            Ok(Frame::Hello {
                version,
                config_hash: theirs,
                worker_id,
                window,
            }) => {
                let peer = Peer {
                    id: worker_id,
                    window,
                };
                break if version != PROTOCOL_VERSION {
                    Err(format!(
                        "protocol version mismatch: expected {PROTOCOL_VERSION}, got {version}"
                    ))
                } else if theirs != config_hash {
                    Err(format!(
                        "config hash mismatch: expected {config_hash:016x}, got {theirs:016x}"
                    ))
                } else {
                    check(&peer).map(|()| peer)
                };
            }
            Ok(_) => break Err("expected hello".to_string()),
            Err(FrameError::Timeout) if Instant::now() < deadline => continue,
            Err(_) => return None,
        }
    };
    let ack = Frame::HelloAck {
        accepted: verdict.is_ok(),
        reason: verdict.as_ref().err().cloned().unwrap_or_default(),
    };
    let sent = write_frame(writer, &ack).is_ok();
    verdict.ok().filter(|_| sent)
}

/// The client half of the handshake: presents `peer` in a
/// [`Frame::Hello`] and waits up to `HELLO_WAIT` (10 s) for the server's
/// [`Frame::HelloAck`].  Returns the bytes written when accepted,
/// [`DistError::Rejected`] with the server's reason when refused, and any
/// other error when the link failed before an answer arrived.
pub fn send_hello(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    config_hash: u64,
    peer: &Peer,
) -> Result<usize, DistError> {
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        config_hash,
        worker_id: peer.id.clone(),
        window: peer.window,
    };
    let sent = write_frame(writer, &hello)?;
    let deadline = Instant::now() + HELLO_WAIT;
    loop {
        match reader.read_frame() {
            Ok(Frame::HelloAck { accepted: true, .. }) => return Ok(sent),
            Ok(Frame::HelloAck {
                accepted: false,
                reason,
            }) => return Err(DistError::Rejected { reason }),
            Ok(other) => {
                return Err(DistError::Protocol(format!(
                    "expected hello ack, got {other:?}"
                )))
            }
            Err(FrameError::Timeout) if Instant::now() < deadline => continue,
            Err(FrameError::Timeout) => {
                return Err(DistError::Protocol("hello ack timed out".into()))
            }
            Err(e) => return Err(DistError::Protocol(e.to_string())),
        }
    }
}
