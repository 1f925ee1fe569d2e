//! Hand-rolled length-prefixed framed wire protocol for the sweep cluster.
//!
//! Every frame on the wire is
//!
//! ```text
//! +-------+------+---------+----------------+-------+
//! | magic | type | payload | payload bytes  | crc32 |
//! | u32   | u8   | len u32 | ...            | u32   |
//! +-------+------+---------+----------------+-------+
//! ```
//!
//! with all integers little-endian and the CRC computed over the type byte,
//! the length field, and the payload.  A corrupted frame is detected (CRC or
//! magic mismatch) rather than misinterpreted, and an oversized length field
//! is rejected before any allocation so a scrambled stream cannot OOM the
//! coordinator.
//!
//! Reads go through [`FrameReader`], which accumulates partial bytes across
//! socket read timeouts: a timeout mid-frame leaves the buffered prefix
//! intact, so bounded read timeouts (used for heartbeat-miss detection)
//! never desynchronise the stream.

use std::io::{self, Read, Write};

/// Protocol version carried in the [`Frame::Hello`] handshake.  Bumped on
/// any wire-incompatible change; mismatches are rejected at hello time.
///
/// v2: [`Frame::JobDispatch`] carries trace/span ids, [`Frame::JobResult`]
/// carries the worker-measured run time, and the
/// [`Frame::StatsRequest`]/[`Frame::StatsReply`] pair lets the coordinator
/// aggregate live per-worker gauges.
///
/// v3: [`Frame::JobResult`] carries an end-to-end [`payload_digest`] of the
/// result payload, computed by the worker *before* framing and re-checked
/// by the coordinator *after* deframing.  It is deliberately independent of
/// the per-frame CRC (different algorithm, different scope): the CRC guards
/// one hop of transport, the digest guards the result from the worker's
/// job handler all the way into the merged table, so a worker shipping
/// corrupt or forged bytes is caught even when every frame checksums clean.
///
/// v4: frame types 11–15 for a multi-tenant sweep daemon, and a token in
/// the hello.  Type 15, [`Frame::Drain`], doubles as the worker's graceful
/// goodbye: a departing worker that announces itself no longer burns a
/// reassignment or retry-budget slot.
///
/// v5: the daemon is gone, and with it types 11–14 (a frame of one of
/// those types now fails to decode) and the fields no receiver read: the
/// hello token, the dispatch's trace and span ids (the coordinator builds
/// spans from its own report), the heartbeat's jobs-done count and the
/// drain reason.  `Drain` keeps type 15.
pub const PROTOCOL_VERSION: u32 = 5;

/// Frame magic: `"SHMD"`.
pub const FRAME_MAGIC: u32 = 0x4448_4D53; // b"SHMD" little-endian

/// Upper bound on a frame payload; a length field beyond this is treated
/// as stream corruption (jobs ship event counts and stat tables, not bulk
/// data, so real payloads are tiny).
pub const MAX_FRAME_LEN: usize = 64 << 20;

const HEADER_LEN: usize = 4 + 1 + 4;
const TRAILER_LEN: usize = 4;

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// End-to-end FNV-1a 64 digest of a job-result payload (the v3
/// [`Frame::JobResult`] `digest` field), and the crate's one FNV-1a (the
/// benchmark trace seeds use it too).  Intentionally a different
/// algorithm with a different scope than the per-frame [`crc32`]: the CRC
/// protects one transport hop, this digest travels with the result from
/// the worker's job handler to the coordinator's merge, so byzantine or
/// corrupt workers cannot hide behind clean framing.
pub fn payload_digest(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Total wire length of the frame starting at `buf[0]`, once enough header
/// bytes have arrived (`Ok(None)` before that).  Rejects bad magic and
/// oversized lengths without touching the payload — shared by
/// [`FrameReader`] and the chaos proxy's frame-boundary scanner.
pub fn frame_wire_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(FrameError::Corrupt(format!("bad magic {magic:#010x}")));
    }
    let len = u32::from_le_bytes(buf[5..9].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt(format!(
            "payload length {len} too large"
        )));
    }
    Ok(Some(HEADER_LEN + len + TRAILER_LEN))
}

/// Everything the coordinator and workers say to each other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator: versioned handshake.  The coordinator rejects
    /// a hello whose `version` or `config_hash` does not match its own, so
    /// a worker built from a different sweep configuration can never
    /// contribute stats to the wrong table.
    Hello {
        version: u32,
        config_hash: u64,
        worker_id: String,
        /// How many jobs the worker wants in flight (its local pool width).
        window: u32,
    },
    /// Coordinator → worker: handshake verdict.  `reason` is empty on
    /// acceptance.
    HelloAck { accepted: bool, reason: String },
    /// Coordinator → worker: one job.  `index` is the submission index the
    /// result must be merged back into; `label` names the (benchmark,
    /// design) pair for panic capture; `payload` is an opaque job encoding
    /// owned by the submitting layer.
    JobDispatch {
        index: u64,
        label: String,
        payload: String,
    },
    /// Worker → coordinator: a job finished cleanly.  `run_ns` is the pure
    /// execution time measured around the job body on the worker;
    /// `digest` is [`payload_digest`] of `payload`, computed end-to-end on
    /// the worker and re-verified by the coordinator (independent of the
    /// per-frame CRC).
    JobResult {
        index: u64,
        payload: String,
        run_ns: u64,
        digest: u64,
    },
    /// Worker → coordinator: the job body panicked; `message` carries the
    /// captured panic payload.
    JobError { index: u64, message: String },
    /// Worker → coordinator: liveness beacon, sent on a timer even while
    /// long jobs run.  Missing heartbeats mark the worker dead.
    Heartbeat,
    /// Coordinator → worker: stop pulling new jobs (cooperative
    /// cancellation); in-flight jobs drain normally.
    Cancel,
    /// Coordinator → worker: sweep complete, disconnect cleanly.
    Shutdown,
    /// Coordinator → worker: ask for a live stats snapshot.
    StatsRequest,
    /// Worker → coordinator: live gauges answering a [`Frame::StatsRequest`].
    StatsReply {
        /// Jobs currently executing in the worker's pool.
        in_flight: u32,
        /// Jobs received but not yet started.
        queued: u32,
        /// Jobs completed since the worker connected.
        completed: u64,
    },
    /// Worker → coordinator: graceful goodbye.  The worker finishes the
    /// jobs it already holds and then leaves on purpose, so the coordinator
    /// stops dispatching to it and does not charge its retry budget for
    /// the departure.
    Drain,
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloAck { .. } => 2,
            Frame::JobDispatch { .. } => 3,
            Frame::JobResult { .. } => 4,
            Frame::JobError { .. } => 5,
            Frame::Heartbeat => 6,
            Frame::Cancel => 7,
            Frame::Shutdown => 8,
            Frame::StatsRequest => 9,
            Frame::StatsReply { .. } => 10,
            Frame::Drain => 15,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The read timed out (bounded socket timeout); buffered partial bytes
    /// are kept and the next call resumes where this one stopped.
    Timeout,
    /// Underlying I/O failure (connection reset, etc.).
    Io(io::Error),
    /// Magic, CRC, length-bound, or payload-structure violation.
    Corrupt(String),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Timeout => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Sequential payload decoder; every getter advances the cursor.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.data.len() {
            return Err(FrameError::Corrupt(format!(
                "payload truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Corrupt(format!(
                "string length {len} too large"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Corrupt("string is not UTF-8".into()))
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.pos != self.data.len() {
            return Err(FrameError::Corrupt(format!(
                "{} trailing payload bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Serialises `frame` into a self-contained wire buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::Hello {
            version,
            config_hash,
            worker_id,
            window,
        } => {
            put_u32(&mut payload, *version);
            put_u64(&mut payload, *config_hash);
            put_str(&mut payload, worker_id);
            put_u32(&mut payload, *window);
        }
        Frame::HelloAck { accepted, reason } => {
            payload.push(u8::from(*accepted));
            put_str(&mut payload, reason);
        }
        Frame::JobDispatch {
            index,
            label,
            payload: job,
        } => {
            put_u64(&mut payload, *index);
            put_str(&mut payload, label);
            put_str(&mut payload, job);
        }
        Frame::JobResult {
            index,
            payload: result,
            run_ns,
            digest,
        } => {
            put_u64(&mut payload, *index);
            put_str(&mut payload, result);
            put_u64(&mut payload, *run_ns);
            put_u64(&mut payload, *digest);
        }
        Frame::JobError { index, message } => {
            put_u64(&mut payload, *index);
            put_str(&mut payload, message);
        }
        Frame::StatsReply {
            in_flight,
            queued,
            completed,
        } => {
            put_u32(&mut payload, *in_flight);
            put_u32(&mut payload, *queued);
            put_u64(&mut payload, *completed);
        }
        Frame::Heartbeat | Frame::Cancel | Frame::Shutdown | Frame::StatsRequest | Frame::Drain => {
        }
    }

    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    put_u32(&mut buf, FRAME_MAGIC);
    buf.push(frame.type_byte());
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(&payload);
    let crc = crc32(&buf[4..]); // type byte + length + payload
    put_u32(&mut buf, crc);
    buf
}

/// Writes one frame as a single `write_all` (frames are small, so the
/// kernel send buffer absorbs them without partial-write bookkeeping).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<usize> {
    let buf = encode_frame(frame);
    w.write_all(&buf)?;
    w.flush()?;
    shm_metrics::counter!(
        "shm_frame_tx_bytes_total",
        "Wire bytes sent as protocol frames"
    )
    .add(buf.len() as u64);
    Ok(buf.len())
}

fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor::new(payload);
    let frame = match type_byte {
        1 => Frame::Hello {
            version: c.u32()?,
            config_hash: c.u64()?,
            worker_id: c.str()?,
            window: c.u32()?,
        },
        2 => Frame::HelloAck {
            accepted: c.take(1)?[0] != 0,
            reason: c.str()?,
        },
        3 => Frame::JobDispatch {
            index: c.u64()?,
            label: c.str()?,
            payload: c.str()?,
        },
        4 => Frame::JobResult {
            index: c.u64()?,
            payload: c.str()?,
            run_ns: c.u64()?,
            digest: c.u64()?,
        },
        5 => Frame::JobError {
            index: c.u64()?,
            message: c.str()?,
        },
        6 => Frame::Heartbeat,
        7 => Frame::Cancel,
        8 => Frame::Shutdown,
        9 => Frame::StatsRequest,
        10 => Frame::StatsReply {
            in_flight: c.u32()?,
            queued: c.u32()?,
            completed: c.u64()?,
        },
        15 => Frame::Drain,
        other => return Err(FrameError::Corrupt(format!("unknown frame type {other}"))),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame reader that survives bounded read timeouts.
///
/// Owns a growable buffer of bytes received so far; [`FrameReader::read_frame`]
/// returns [`FrameError::Timeout`] when the socket timeout fires before a
/// complete frame arrived, keeping the partial prefix for the next call.
///
/// Corruption handling is **fail-closed**: once any frame fails its magic,
/// length-bound, CRC, or payload-structure check the reader poisons itself
/// and every subsequent call returns [`FrameError::Corrupt`].  A scrambled
/// stream can never be resynchronised mid-flight (the byte after a corrupt
/// frame has no trustworthy framing), so callers must drop the connection
/// and start a fresh stream — retrying the same socket would re-read the
/// same poisoned bytes.
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Set on the first corrupt frame; all later reads fail with it.
    poisoned: bool,
    /// Total payload bytes successfully received (telemetry).
    pub bytes_read: u64,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            poisoned: false,
            bytes_read: 0,
        }
    }

    /// True once a corrupt frame has been observed; the stream is dead and
    /// only a new connection (new reader) can carry further traffic.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Tries to parse one complete frame, reading more bytes as needed.
    pub fn read_frame(&mut self) -> Result<Frame, FrameError> {
        if self.poisoned {
            return Err(FrameError::Corrupt(
                "stream poisoned by an earlier corrupt frame; drop the connection".into(),
            ));
        }
        match self.read_frame_inner() {
            Err(FrameError::Corrupt(why)) => {
                self.poisoned = true;
                Err(FrameError::Corrupt(why))
            }
            other => other,
        }
    }

    fn read_frame_inner(&mut self) -> Result<Frame, FrameError> {
        loop {
            if let Some(frame_len) = self.complete_frame_len()? {
                let frame = self.parse_one(frame_len)?;
                self.buf.drain(..frame_len);
                self.bytes_read += frame_len as u64;
                shm_metrics::counter!(
                    "shm_frame_rx_bytes_total",
                    "Wire bytes received as protocol frames"
                )
                .add(frame_len as u64);
                return Ok(frame);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(FrameError::Eof)
                    } else {
                        Err(FrameError::Corrupt("connection closed mid-frame".into()))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(FrameError::Timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Length of the complete frame at the head of the buffer, if all its
    /// bytes have arrived.  Validates magic and the length bound early so
    /// garbage fails fast instead of stalling on a huge phantom length.
    fn complete_frame_len(&self) -> Result<Option<usize>, FrameError> {
        match frame_wire_len(&self.buf)? {
            None => Ok(None),
            Some(total) => Ok((self.buf.len() >= total).then_some(total)),
        }
    }

    fn parse_one(&self, total: usize) -> Result<Frame, FrameError> {
        let type_byte = self.buf[4];
        let payload = &self.buf[HEADER_LEN..total - TRAILER_LEN];
        let wire_crc = u32::from_le_bytes(self.buf[total - TRAILER_LEN..total].try_into().unwrap());
        let want = crc32(&self.buf[4..total - TRAILER_LEN]);
        if wire_crc != want {
            shm_metrics::counter!(
                "shm_frame_crc_errors_total",
                "Frames rejected for CRC mismatch"
            )
            .inc();
            return Err(FrameError::Corrupt(format!(
                "crc mismatch: wire {wire_crc:#010x}, computed {want:#010x}"
            )));
        }
        decode_payload(type_byte, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                config_hash: 0xDEAD_BEEF_CAFE_F00D,
                worker_id: "worker-1".into(),
                window: 4,
            },
            Frame::HelloAck {
                accepted: false,
                reason: "config hash mismatch".into(),
            },
            Frame::JobDispatch {
                index: 7,
                label: "kmeans under SHM".into(),
                payload: "{\"bench\":\"kmeans\"}".into(),
            },
            Frame::JobResult {
                index: 7,
                payload: "{\"cycles\":123}".into(),
                run_ns: 4_200_000,
                digest: payload_digest(b"{\"cycles\":123}"),
            },
            Frame::JobError {
                index: 3,
                message: "index out of bounds".into(),
            },
            Frame::Heartbeat,
            Frame::Cancel,
            Frame::Shutdown,
            Frame::StatsRequest,
            Frame::StatsReply {
                in_flight: 3,
                queued: 5,
                completed: 77,
            },
            Frame::Drain,
        ]
    }

    #[test]
    fn sample_frames_cover_every_type_byte() {
        let mut seen: Vec<u8> = sample_frames().iter().map(|f| f.type_byte()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen,
            (1..=10).chain([15]).collect::<Vec<u8>>(),
            "every frame type must appear in sample_frames()"
        );
    }

    #[test]
    fn retired_frame_types_fail_to_decode() {
        for retired in 11..=14u8 {
            let mut wire = encode_frame(&Frame::Cancel);
            wire[4] = retired;
            let crc_at = wire.len() - TRAILER_LEN;
            let crc = crc32(&wire[4..crc_at]);
            wire[crc_at..].copy_from_slice(&crc.to_le_bytes());
            let mut r = FrameReader::new(&wire[..]);
            match r.read_frame() {
                Err(FrameError::Corrupt(why)) => {
                    assert_eq!(why, format!("unknown frame type {retired}"))
                }
                other => panic!("type {retired} must not decode: {other:?}"),
            }
        }
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let wire = encode_frame(&frame);
            let mut r = FrameReader::new(&wire[..]);
            assert_eq!(r.read_frame().unwrap(), frame, "round trip of {frame:?}");
        }
    }

    #[test]
    fn back_to_back_frames_parse_from_one_buffer() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut r = FrameReader::new(&wire[..]);
        for f in &frames {
            assert_eq!(&r.read_frame().unwrap(), f);
        }
        assert!(matches!(r.read_frame(), Err(FrameError::Eof)));
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let frame = Frame::JobDispatch {
            index: 9,
            label: "bfs under PSSM".into(),
            payload: "payload".into(),
        };
        let clean = encode_frame(&frame);
        for bit in 0..clean.len() * 8 {
            let mut dirty = clean.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            let mut r = FrameReader::new(&dirty[..]);
            match r.read_frame() {
                Err(FrameError::Corrupt(_)) => {}
                // A flip in the length field can make the frame "longer"
                // than the bytes available — the reader keeps waiting and
                // reports the truncated close instead.
                Err(FrameError::Eof) => panic!("flip at bit {bit} read as clean EOF"),
                Ok(f) => panic!("flip at bit {bit} decoded as {f:?}"),
                Err(_) => {}
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = encode_frame(&Frame::Cancel);
        wire[5..9].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = FrameReader::new(&wire[..]);
        assert!(matches!(r.read_frame(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = encode_frame(&Frame::Heartbeat);
        wire[0] ^= 0xFF;
        let mut r = FrameReader::new(&wire[..]);
        assert!(matches!(r.read_frame(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn split_delivery_reassembles() {
        // Feed the frame one byte at a time through a reader that times out
        // between bytes, mimicking a slow peer under a short socket timeout.
        struct Drip<'a> {
            data: &'a [u8],
            pos: usize,
            ready: bool,
        }
        impl Read for Drip<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "drip"));
                }
                self.ready = false;
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                out[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let frame = Frame::JobResult {
            index: 5,
            payload: "stats".into(),
            run_ns: 99,
            digest: payload_digest(b"stats"),
        };
        let wire = encode_frame(&frame);
        let mut r = FrameReader::new(Drip {
            data: &wire,
            pos: 0,
            ready: false,
        });
        let mut timeouts = 0;
        loop {
            match r.read_frame() {
                Ok(f) => {
                    assert_eq!(f, frame);
                    break;
                }
                Err(FrameError::Timeout) => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(timeouts >= wire.len(), "every byte costs one timeout");
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn payload_digest_matches_fnv1a_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(payload_digest(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(payload_digest(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(payload_digest(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn crc_flip_poisons_reader_and_counts_fail_closed() {
        // A flipped payload bit passes the magic/length checks and dies on
        // the CRC; the reader must (a) bump `shm_frame_crc_errors_total`,
        // (b) refuse every subsequent read on the same stream — fail
        // closed — even though clean frames follow in the buffer.
        shm_metrics::set_enabled(true);
        let crc_errors = shm_metrics::register_counter(
            "shm_frame_crc_errors_total",
            "Frames rejected for CRC mismatch",
        );
        let before = crc_errors.get();

        let frame = Frame::JobResult {
            index: 1,
            payload: "{\"cycles\":99}".into(),
            run_ns: 1,
            digest: payload_digest(b"{\"cycles\":99}"),
        };
        let mut dirty = encode_frame(&frame);
        let flip_at = HEADER_LEN + 2; // inside the payload: CRC-detected
        dirty[flip_at] ^= 0x10;
        // A clean frame right behind the corrupt one must NOT be served.
        dirty.extend_from_slice(&encode_frame(&Frame::Heartbeat));

        let mut r = FrameReader::new(&dirty[..]);
        let first = r.read_frame();
        assert!(
            matches!(first, Err(FrameError::Corrupt(ref why)) if why.contains("crc mismatch")),
            "flip must die on CRC: {first:?}"
        );
        assert!(r.is_poisoned());
        for _ in 0..3 {
            assert!(
                matches!(r.read_frame(), Err(FrameError::Corrupt(_))),
                "poisoned reader must never serve another frame"
            );
        }
        assert!(
            crc_errors.get() > before,
            "CRC rejection must increment shm_frame_crc_errors_total"
        );
    }

    #[test]
    fn frame_wire_len_scans_boundaries() {
        let wire = encode_frame(&Frame::Heartbeat);
        assert_eq!(frame_wire_len(&wire).unwrap(), Some(wire.len()));
        assert_eq!(frame_wire_len(&wire[..HEADER_LEN - 1]).unwrap(), None);
        let mut bad = wire.clone();
        bad[1] ^= 0xFF;
        assert!(frame_wire_len(&bad).is_err());
    }
}
