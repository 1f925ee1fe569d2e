//! A CUDA-like host runtime over functionally-secure GPU memory.
//!
//! [`Context`] is what a secure GPU driver would expose: allocate device
//! buffers, copy data in and out, launch kernels, reuse read-only inputs via
//! the paper's `InputReadOnlyReset` API.  Underneath, every byte lives in
//! the functional [`shm_metadata::SecureMemory`] engine — host copies
//! encrypt, kernel loads decrypt **and verify**, kernel stores re-encrypt
//! with fresh counters — so a run of your kernel is also a proof that the
//! security machinery never rejects legitimate work.
//!
//! At the same time the runtime records every warp-level access into a
//! [`gpu_mem_sim::ContextTrace`], so the very same program can be replayed
//! through the performance simulator under any Table-VIII design:
//!
//! ```
//! use shm_runtime::{Context, BufferKind};
//!
//! # fn main() -> Result<(), shm_runtime::RuntimeError> {
//! let mut ctx = Context::new(0xC0DE);
//! let xs = ctx.alloc(1024, BufferKind::Input)?;
//! let ys = ctx.alloc(1024, BufferKind::Output)?;
//! ctx.memcpy_to_device(xs, &vec![3u8; 1024])?;
//!
//! // y[i] = x[i] + 1, as a "kernel" over secure memory.
//! ctx.launch("add-one", |k| {
//!     for i in 0..1024 {
//!         let v = k.load_u8(xs, i)?;
//!         k.store_u8(ys, i, v + 1)?;
//!     }
//!     Ok(())
//! })?;
//!
//! assert_eq!(ctx.memcpy_to_host(ys, 1024)?, vec![4u8; 1024]);
//! let trace = ctx.into_trace();          // replay under any design
//! assert_eq!(trace.kernels.len(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet};

use gpu_mem_sim::{ContextTrace, HostAction, KernelTrace};
use gpu_types::{AccessKind, MemEvent, MemorySpace, PhysAddr, Warp, BLOCK_BYTES};
use shm_crypto::KeyTuple;
use shm_metadata::SecureMemory;
use shm_telemetry::{Event, Probe};

pub use shm_metadata::{IntegrityViolation, VerifyError};

/// Device-buffer classification (Table II's data classes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferKind {
    /// Read-only input: encrypted under the shared counter, no tree
    /// coverage needed (C + I).
    Input,
    /// Kernel output (C + I + F).
    Output,
    /// Read/write scratch (C + I + F).
    Scratch,
    /// Constant memory (architecturally read-only).
    Constant,
    /// Texture memory (architecturally read-only).
    Texture,
}

impl BufferKind {
    /// Whether host copies into this buffer use the shared-counter path.
    pub fn is_read_only(self) -> bool {
        matches!(
            self,
            BufferKind::Input | BufferKind::Constant | BufferKind::Texture
        )
    }

    /// The memory space kernel accesses to this buffer carry in the trace.
    pub fn space(self) -> MemorySpace {
        match self {
            BufferKind::Constant => MemorySpace::Constant,
            BufferKind::Texture => MemorySpace::Texture,
            _ => MemorySpace::Global,
        }
    }
}

/// Handle to an allocated device buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DeviceBuffer(u32);

/// Errors surfaced by the secure runtime.
#[derive(Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The MEE rejected an access (tampering / replay detected); carries
    /// the offending device address and the failing check.
    Verification(IntegrityViolation),
    /// Access past the end of a buffer.
    OutOfBounds {
        /// The offending buffer.
        buffer: DeviceBuffer,
        /// Byte offset requested.
        offset: u64,
        /// Buffer length.
        len: u64,
    },
    /// A kernel stored into a read-only buffer.
    ReadOnlyViolation(DeviceBuffer),
    /// Unknown buffer handle.
    InvalidBuffer(DeviceBuffer),
    /// The device address space is exhausted.
    OutOfMemory,
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Verification(e) => write!(f, "secure memory rejected the access: {e}"),
            RuntimeError::OutOfBounds {
                buffer,
                offset,
                len,
            } => {
                write!(
                    f,
                    "offset {offset} out of bounds for {buffer:?} of {len} bytes"
                )
            }
            RuntimeError::ReadOnlyViolation(b) => {
                write!(f, "store into read-only buffer {b:?}")
            }
            RuntimeError::InvalidBuffer(b) => write!(f, "invalid buffer handle {b:?}"),
            RuntimeError::OutOfMemory => f.write_str("device address space exhausted"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<IntegrityViolation> for RuntimeError {
    fn from(v: IntegrityViolation) -> Self {
        RuntimeError::Verification(v)
    }
}

/// What the runtime does when secure memory rejects a block
/// (Section VII's attack-response knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Fail the access — and with it the kernel — on the first violation.
    #[default]
    Abort,
    /// Re-fetch the block once before failing: a transient fault (bus
    /// glitch, marginal cell) disappears on the second fetch, while a real
    /// tamper fails both and aborts.
    RetryOnce,
    /// Record the violation, quarantine the block (further reads serve
    /// zeros) and continue degraded.  A later store re-encrypts fresh data
    /// and lifts the quarantine.
    Quarantine,
}

/// Recovery-policy label for telemetry `integrity_violation` events.
fn violation_action(policy: RecoveryPolicy) -> &'static str {
    match policy {
        RecoveryPolicy::Abort => "abort",
        RecoveryPolicy::RetryOnce => "retry",
        RecoveryPolicy::Quarantine => "quarantine",
    }
}

/// Fetches one block under the recovery policy — the single choke point
/// every runtime read path (host copy-out and kernel loads/stores) goes
/// through, so violations are recorded and reported uniformly.
#[allow(clippy::too_many_arguments)]
fn fetch_block(
    mem: &mut SecureMemory,
    policy: RecoveryPolicy,
    quarantined: &mut HashSet<u64>,
    violations: &mut Vec<IntegrityViolation>,
    probe: &Probe,
    clock: u64,
    addr: u64,
) -> Result<[u8; BLOCK_BYTES as usize], RuntimeError> {
    let base = addr & !(BLOCK_BYTES - 1);
    if quarantined.contains(&base) {
        return Ok([0u8; BLOCK_BYTES as usize]);
    }
    let first = match mem.read_block(base) {
        Ok(block) => return Ok(block),
        Err(e) => IntegrityViolation {
            addr: base,
            error: e,
        },
    };
    let verdict = if matches!(policy, RecoveryPolicy::RetryOnce) {
        match mem.read_block(base) {
            Ok(block) => {
                // Transient: gone on re-fetch.  Record it, report it, keep
                // going — the data the kernel sees is the verified re-fetch.
                violations.push(first);
                if probe.is_enabled() {
                    probe.emit(
                        clock,
                        Event::IntegrityViolation {
                            addr: base,
                            violation: first.error.label(),
                            action: "retry_recovered",
                        },
                    );
                }
                return Ok(block);
            }
            Err(e) => IntegrityViolation {
                addr: base,
                error: e,
            },
        }
    } else {
        first
    };
    violations.push(verdict);
    if probe.is_enabled() {
        probe.emit(
            clock,
            Event::IntegrityViolation {
                addr: base,
                violation: verdict.error.label(),
                action: violation_action(policy),
            },
        );
    }
    if matches!(policy, RecoveryPolicy::Quarantine) {
        quarantined.insert(base);
        Ok([0u8; BLOCK_BYTES as usize])
    } else {
        Err(RuntimeError::Verification(verdict))
    }
}

#[derive(Clone, Debug)]
struct Allocation {
    base: u64,
    len: u64,
    kind: BufferKind,
}

/// Buffers are separated at 16 KB × 12 partitions so read-only and
/// read/write data never share a detector region in any partition.
const ALLOC_ALIGN: u64 = 16 * 1024 * 12;

/// Simulated device memory size the runtime will hand out.
const DEVICE_SPAN: u64 = 256 << 20;

/// A secure GPU context: allocator + functional secure memory + trace
/// recorder.
pub struct Context {
    mem: SecureMemory,
    allocs: HashMap<DeviceBuffer, Allocation>,
    next_handle: u32,
    cursor: u64,
    kernels: Vec<KernelTrace>,
    readonly_init: Vec<(PhysAddr, u64)>,
    pending_actions: Vec<HostAction>,
    name: String,
    probe: Probe,
    policy: RecoveryPolicy,
    violations: Vec<IntegrityViolation>,
    quarantined: HashSet<u64>,
}

impl Context {
    /// Creates a context whose keys derive from `context_seed` (a real GPU
    /// would draw them from the command processor's TRNG).
    pub fn new(context_seed: u64) -> Self {
        Self {
            mem: SecureMemory::new(DEVICE_SPAN, &KeyTuple::derive(context_seed)),
            allocs: HashMap::new(),
            next_handle: 0,
            cursor: ALLOC_ALIGN,
            kernels: Vec::new(),
            readonly_init: Vec::new(),
            pending_actions: Vec::new(),
            name: format!("runtime-{context_seed:x}"),
            probe: Probe::disabled(),
            policy: RecoveryPolicy::Abort,
            violations: Vec::new(),
            quarantined: HashSet::new(),
        }
    }

    /// Selects the response to integrity violations (default:
    /// [`RecoveryPolicy::Abort`]).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Every integrity violation observed so far, in detection order —
    /// including transient faults absorbed by [`RecoveryPolicy::RetryOnce`].
    pub fn violations(&self) -> &[IntegrityViolation] {
        &self.violations
    }

    /// True while any block is quarantined: reads of it serve zeros, so
    /// results are not trustworthy end-to-end.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Names the context (becomes the trace name).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attaches a telemetry probe; kernel launches emit start/end events
    /// keyed by launch ordinal (the host runtime has no cycle clock).
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Allocates `len` bytes of device memory of the given kind.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::OutOfMemory`] if the device span is exhausted.
    pub fn alloc(&mut self, len: u64, kind: BufferKind) -> Result<DeviceBuffer, RuntimeError> {
        let aligned = len.max(1).next_multiple_of(ALLOC_ALIGN);
        if self.cursor + aligned > DEVICE_SPAN {
            return Err(RuntimeError::OutOfMemory);
        }
        let handle = DeviceBuffer(self.next_handle);
        self.next_handle += 1;
        self.allocs.insert(
            handle,
            Allocation {
                base: self.cursor,
                len,
                kind,
            },
        );
        self.cursor += aligned;
        Ok(handle)
    }

    fn alloc_of(&self, buf: DeviceBuffer) -> Result<&Allocation, RuntimeError> {
        self.allocs
            .get(&buf)
            .ok_or(RuntimeError::InvalidBuffer(buf))
    }

    /// Copies host data into a device buffer (cudaMemcpyHostToDevice).
    ///
    /// Read-only buffers encrypt under the shared counter and are marked
    /// for the read-only detector; read/write buffers use per-block
    /// counters.
    ///
    /// # Errors
    ///
    /// Out-of-bounds or unknown-handle errors; secure-memory failures
    /// cannot occur on the host-write path.
    pub fn memcpy_to_device(&mut self, buf: DeviceBuffer, data: &[u8]) -> Result<(), RuntimeError> {
        let alloc = self.alloc_of(buf)?.clone();
        if data.len() as u64 > alloc.len {
            return Err(RuntimeError::OutOfBounds {
                buffer: buf,
                offset: data.len() as u64,
                len: alloc.len,
            });
        }
        for (i, chunk) in data.chunks(BLOCK_BYTES as usize).enumerate() {
            let mut block = [0u8; BLOCK_BYTES as usize];
            block[..chunk.len()].copy_from_slice(chunk);
            let addr = alloc.base + i as u64 * BLOCK_BYTES;
            if alloc.kind.is_read_only() {
                self.mem.write_readonly_block(addr, &block);
            } else {
                self.mem.write_block(addr, &block);
            }
        }
        if alloc.kind.is_read_only() {
            let range = (PhysAddr::new(alloc.base), alloc.len);
            if self.kernels.is_empty() {
                // Context-initialisation copy: the command processor marks
                // the region read-only.
                if !self.readonly_init.contains(&range) {
                    self.readonly_init.push(range);
                }
            } else {
                // Mid-context copy: the region loses read-only status until
                // `input_readonly_reset` re-arms it (Section IV-B).
                self.pending_actions.push(HostAction::MemcpyToDevice {
                    start: range.0,
                    len: range.1,
                });
            }
        }
        Ok(())
    }

    /// Copies `len` bytes of a device buffer back to the host
    /// (cudaMemcpyDeviceToHost), verifying every block on the way out.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Verification`] if any block fails its integrity or
    /// freshness check.
    pub fn memcpy_to_host(&mut self, buf: DeviceBuffer, len: u64) -> Result<Vec<u8>, RuntimeError> {
        let alloc = self.alloc_of(buf)?.clone();
        if len > alloc.len {
            return Err(RuntimeError::OutOfBounds {
                buffer: buf,
                offset: len,
                len: alloc.len,
            });
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut off = 0;
        let clock = self.kernels.len() as u64;
        while off < len {
            let block = fetch_block(
                &mut self.mem,
                self.policy,
                &mut self.quarantined,
                &mut self.violations,
                &self.probe,
                clock,
                alloc.base + off,
            )?;
            let take = ((len - off).min(BLOCK_BYTES)) as usize;
            out.extend_from_slice(&block[..take]);
            off += BLOCK_BYTES;
        }
        Ok(out)
    }

    /// Re-arms a read-only input buffer for the next kernel via the paper's
    /// `InputReadOnlyReset` API: scans the range's major counters, advances
    /// the shared counter, and marks the region read-only again.
    ///
    /// # Errors
    ///
    /// Unknown handle.
    pub fn input_readonly_reset(&mut self, buf: DeviceBuffer) -> Result<(), RuntimeError> {
        let alloc = self.alloc_of(buf)?.clone();
        self.mem.input_readonly_reset(alloc.base, alloc.len);
        self.pending_actions.push(HostAction::InputReadOnlyReset {
            start: PhysAddr::new(alloc.base),
            len: alloc.len,
        });
        Ok(())
    }

    /// Launches a kernel: `body` runs with a [`KernelCtx`] whose loads and
    /// stores go through secure memory *and* are recorded into the trace.
    ///
    /// # Errors
    ///
    /// Whatever the kernel body surfaces — including verification failures
    /// from tampered memory.
    pub fn launch<F>(&mut self, name: &str, body: F) -> Result<(), RuntimeError>
    where
        F: FnOnce(&mut KernelCtx<'_>) -> Result<(), RuntimeError>,
    {
        let mut kctx = KernelCtx {
            mem: &mut self.mem,
            allocs: &self.allocs,
            events: Vec::new(),
            op_counter: 0,
            policy: self.policy,
            violations: &mut self.violations,
            quarantined: &mut self.quarantined,
            probe: &self.probe,
        };
        if self.probe.is_enabled() {
            self.probe.emit(
                self.kernels.len() as u64,
                Event::KernelStart {
                    kernel: name.to_string(),
                },
            );
        }
        body(&mut kctx)?;
        let events = kctx.events;
        if self.probe.is_enabled() {
            self.probe.emit(
                self.kernels.len() as u64,
                Event::KernelEnd {
                    kernel: name.to_string(),
                    cycles: events.len() as u64,
                },
            );
        }
        let mut kernel = KernelTrace::new(name, events);
        kernel.pre_actions = std::mem::take(&mut self.pending_actions);
        self.kernels.push(kernel);
        Ok(())
    }

    /// Raw access to the underlying secure memory (attack experiments).
    pub fn secure_memory_mut(&mut self) -> &mut SecureMemory {
        &mut self.mem
    }

    /// Device address of a buffer (for attack experiments).
    ///
    /// # Errors
    ///
    /// Unknown handle.
    pub fn device_address(&self, buf: DeviceBuffer) -> Result<u64, RuntimeError> {
        Ok(self.alloc_of(buf)?.base)
    }

    /// Finalises the context into a trace for the performance simulator.
    pub fn into_trace(self) -> ContextTrace {
        let mut t = ContextTrace::new(self.name);
        t.readonly_init = self.readonly_init;
        t.kernels = self.kernels;
        t
    }
}

impl core::fmt::Debug for Context {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Context")
            .field("buffers", &self.allocs.len())
            .field("kernels", &self.kernels.len())
            .field("bytes_allocated", &(self.cursor - ALLOC_ALIGN))
            .finish()
    }
}

/// The view a running kernel has of device memory.
pub struct KernelCtx<'a> {
    mem: &'a mut SecureMemory,
    allocs: &'a HashMap<DeviceBuffer, Allocation>,
    events: Vec<MemEvent>,
    op_counter: u64,
    policy: RecoveryPolicy,
    violations: &'a mut Vec<IntegrityViolation>,
    quarantined: &'a mut HashSet<u64>,
    probe: &'a Probe,
}

impl KernelCtx<'_> {
    fn resolve(
        &self,
        buf: DeviceBuffer,
        offset: u64,
        bytes: u64,
    ) -> Result<(u64, BufferKind), RuntimeError> {
        let alloc = self
            .allocs
            .get(&buf)
            .ok_or(RuntimeError::InvalidBuffer(buf))?;
        if offset + bytes > alloc.len {
            return Err(RuntimeError::OutOfBounds {
                buffer: buf,
                offset,
                len: alloc.len,
            });
        }
        Ok((alloc.base + offset, alloc.kind))
    }

    fn record(&mut self, addr: u64, kind: AccessKind, space: MemorySpace) {
        // One warp-level 32 B sector event per touched sector; consecutive
        // same-kind touches of one sector coalesce into a single event (the
        // load/store unit's coalescer).  Warps are assigned round-robin per
        // transaction, modelling many threads cooperating on the kernel.
        let sector = addr & !31;
        if let Some(last) = self.events.last() {
            if last.addr.raw() == sector && last.kind == kind {
                return;
            }
        }
        self.op_counter += 1;
        self.events.push(MemEvent {
            addr: PhysAddr::new(sector),
            kind,
            space,
            warp: Warp((self.op_counter % 60) as u32),
            think_cycles: 0,
        });
    }

    /// Loads one byte, verifying the containing block.
    ///
    /// # Errors
    ///
    /// Verification failures and bounds errors.
    pub fn load_u8(&mut self, buf: DeviceBuffer, offset: u64) -> Result<u8, RuntimeError> {
        let (addr, kind) = self.resolve(buf, offset, 1)?;
        let block = fetch_block(
            self.mem,
            self.policy,
            self.quarantined,
            self.violations,
            self.probe,
            self.op_counter,
            addr,
        )?;
        self.record(addr, AccessKind::Read, kind.space());
        Ok(block[(addr % BLOCK_BYTES) as usize])
    }

    /// Loads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Verification failures and bounds errors (including a word straddling
    /// a block boundary, resolved by two block reads).
    pub fn load_u32(&mut self, buf: DeviceBuffer, offset: u64) -> Result<u32, RuntimeError> {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.load_u8(buf, offset + i as u64)?;
        }
        Ok(u32::from_le_bytes(bytes))
    }

    /// Stores one byte (read-modify-write of the containing block).
    ///
    /// # Errors
    ///
    /// Verification failures, bounds errors, and stores into read-only
    /// buffers.
    pub fn store_u8(
        &mut self,
        buf: DeviceBuffer,
        offset: u64,
        value: u8,
    ) -> Result<(), RuntimeError> {
        let (addr, kind) = self.resolve(buf, offset, 1)?;
        if kind.is_read_only() {
            return Err(RuntimeError::ReadOnlyViolation(buf));
        }
        let base = addr & !(BLOCK_BYTES - 1);
        let mut block = fetch_block(
            self.mem,
            self.policy,
            self.quarantined,
            self.violations,
            self.probe,
            self.op_counter,
            base,
        )?;
        block[(addr % BLOCK_BYTES) as usize] = value;
        self.mem.write_block(base, &block);
        // A fresh store re-encrypts the whole block, so a quarantined block
        // becomes trustworthy again.
        self.quarantined.remove(&base);
        self.record(addr, AccessKind::Write, kind.space());
        Ok(())
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`KernelCtx::store_u8`].
    pub fn store_u32(
        &mut self,
        buf: DeviceBuffer,
        offset: u64,
        value: u32,
    ) -> Result<(), RuntimeError> {
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.store_u8(buf, offset + i as u64, b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_copy_roundtrip() {
        let mut ctx = Context::new(1);
        let buf = ctx.alloc(4096, BufferKind::Output).expect("alloc");
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        ctx.memcpy_to_device(buf, &data).expect("h2d");
        assert_eq!(ctx.memcpy_to_host(buf, 4096).expect("d2h"), data);
    }

    #[test]
    fn kernel_reads_inputs_and_writes_outputs() {
        let mut ctx = Context::new(2);
        let x = ctx.alloc(256, BufferKind::Input).expect("alloc x");
        let y = ctx.alloc(256, BufferKind::Output).expect("alloc y");
        ctx.memcpy_to_device(x, &[7u8; 256]).expect("h2d");
        ctx.launch("double", |k| {
            for i in 0..256 {
                let v = k.load_u8(x, i)?;
                k.store_u8(y, i, v * 2)?;
            }
            Ok(())
        })
        .expect("launch");
        assert_eq!(ctx.memcpy_to_host(y, 256).expect("d2h"), vec![14u8; 256]);
    }

    #[test]
    fn stores_into_readonly_buffers_are_rejected() {
        let mut ctx = Context::new(3);
        let x = ctx.alloc(128, BufferKind::Input).expect("alloc");
        let err = ctx
            .launch("bad", |k| k.store_u8(x, 0, 1))
            .expect_err("store into read-only input");
        assert_eq!(err, RuntimeError::ReadOnlyViolation(x));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut ctx = Context::new(4);
        let x = ctx.alloc(64, BufferKind::Scratch).expect("alloc");
        let err = ctx
            .launch("oob", |k| k.load_u8(x, 64).map(|_| ()))
            .expect_err("oob");
        assert!(matches!(err, RuntimeError::OutOfBounds { .. }));
    }

    #[test]
    fn tampering_between_kernels_is_caught_at_next_load() {
        let mut ctx = Context::new(5);
        let x = ctx.alloc(128, BufferKind::Scratch).expect("alloc");
        ctx.memcpy_to_device(x, &[1u8; 128]).expect("h2d");
        let addr = ctx.device_address(x).expect("addr");
        // Attacker flips a ciphertext bit in "DRAM".
        let (mut ct, _) = ctx.secure_memory_mut().snapshot_block(addr);
        ct[0] ^= 0x80;
        ctx.secure_memory_mut().tamper_ciphertext(addr, ct);
        let err = ctx
            .launch("victim", |k| k.load_u8(x, 0).map(|_| ()))
            .expect_err("tampered load");
        assert_eq!(
            err,
            RuntimeError::Verification(IntegrityViolation {
                addr,
                error: VerifyError::BlockMacMismatch,
            })
        );
        assert_eq!(
            ctx.violations(),
            [IntegrityViolation {
                addr,
                error: VerifyError::BlockMacMismatch,
            }]
        );
        assert!(!ctx.is_degraded(), "abort policy quarantines nothing");
    }

    #[test]
    fn retry_once_absorbs_transient_faults() {
        let mut ctx = Context::new(20).with_recovery(RecoveryPolicy::RetryOnce);
        let x = ctx.alloc(128, BufferKind::Scratch).expect("alloc");
        ctx.memcpy_to_device(x, &[5u8; 128]).expect("h2d");
        let addr = ctx.device_address(x).expect("addr");
        ctx.secure_memory_mut().inject_transient_fault(addr, 3, 1);
        ctx.launch("victim", |k| {
            assert_eq!(k.load_u8(x, 0)?, 5, "re-fetch must return good data");
            Ok(())
        })
        .expect("retry-once absorbs a transient fault");
        assert_eq!(ctx.violations().len(), 1, "the glitch is still recorded");
        assert_eq!(ctx.violations()[0].error, VerifyError::BlockMacMismatch);
        assert!(!ctx.is_degraded());
    }

    #[test]
    fn retry_once_still_aborts_on_persistent_tampering() {
        let mut ctx = Context::new(23).with_recovery(RecoveryPolicy::RetryOnce);
        let x = ctx.alloc(128, BufferKind::Scratch).expect("alloc");
        ctx.memcpy_to_device(x, &[5u8; 128]).expect("h2d");
        let addr = ctx.device_address(x).expect("addr");
        let (mut ct, _) = ctx.secure_memory_mut().snapshot_block(addr);
        ct[0] ^= 0x10;
        ctx.secure_memory_mut().tamper_ciphertext(addr, ct);
        let err = ctx
            .launch("victim", |k| k.load_u8(x, 0).map(|_| ()))
            .expect_err("persistent tamper survives the re-fetch");
        assert!(matches!(err, RuntimeError::Verification(_)));
    }

    #[test]
    fn quarantine_serves_zeros_and_continues_degraded() {
        let mut ctx = Context::new(21).with_recovery(RecoveryPolicy::Quarantine);
        let x = ctx.alloc(256, BufferKind::Scratch).expect("alloc");
        ctx.memcpy_to_device(x, &[9u8; 256]).expect("h2d");
        let addr = ctx.device_address(x).expect("addr");
        let (mut ct, _) = ctx.secure_memory_mut().snapshot_block(addr);
        ct[0] ^= 1;
        ctx.secure_memory_mut().tamper_ciphertext(addr, ct);
        ctx.launch("degraded", |k| {
            assert_eq!(k.load_u8(x, 0)?, 0, "quarantined block serves zeros");
            assert_eq!(k.load_u8(x, 128)?, 9, "neighbouring block unaffected");
            Ok(())
        })
        .expect("quarantine policy must not abort the kernel");
        assert!(ctx.is_degraded());
        assert_eq!(ctx.violations().len(), 1);
        assert_eq!(ctx.violations()[0].addr, addr);
        // A fresh store re-encrypts the block and lifts the quarantine.
        ctx.launch("repair", |k| {
            for i in 0..128 {
                k.store_u8(x, i, 3)?;
            }
            assert_eq!(k.load_u8(x, 0)?, 3);
            Ok(())
        })
        .expect("repair");
        assert!(!ctx.is_degraded());
    }

    #[test]
    fn violations_emit_telemetry_events() {
        use shm_telemetry::TelemetryConfig;
        let probe = Probe::enabled(TelemetryConfig::default());
        let mut ctx = Context::new(22).with_probe(probe.clone());
        let x = ctx.alloc(128, BufferKind::Scratch).expect("alloc");
        ctx.memcpy_to_device(x, &[1u8; 128]).expect("h2d");
        let addr = ctx.device_address(x).expect("addr");
        let (mut ct, _) = ctx.secure_memory_mut().snapshot_block(addr);
        ct[5] ^= 2;
        ctx.secure_memory_mut().tamper_ciphertext(addr, ct);
        let _ = ctx.launch("victim", |k| k.load_u8(x, 0).map(|_| ()));
        let dump = probe.flight_dump().expect("probe enabled");
        assert!(dump.contains("integrity_violation"), "{dump}");
        assert!(dump.contains("block_mac_mismatch"), "{dump}");
        assert!(dump.contains("\"action\":\"abort\""), "{dump}");
    }

    #[test]
    fn trace_records_kernel_accesses_and_readonly_init() {
        let mut ctx = Context::new(6);
        let x = ctx.alloc(512, BufferKind::Input).expect("alloc x");
        let y = ctx.alloc(512, BufferKind::Scratch).expect("alloc y");
        ctx.memcpy_to_device(x, &[1u8; 512]).expect("h2d");
        ctx.launch("k", |k| {
            for i in 0..4 {
                let v = k.load_u8(x, i * 128)?;
                k.store_u8(y, i * 128, v)?;
            }
            Ok(())
        })
        .expect("launch");
        let trace = ctx.into_trace();
        assert_eq!(trace.kernels.len(), 1);
        assert_eq!(trace.kernels[0].events.len(), 8);
        assert_eq!(trace.readonly_init.len(), 1);
        let reads = trace.kernels[0]
            .events
            .iter()
            .filter(|e| !e.kind.is_write())
            .count();
        assert_eq!(reads, 4);
    }

    #[test]
    fn constant_buffers_emit_constant_space_events() {
        let mut ctx = Context::new(7);
        let c = ctx.alloc(128, BufferKind::Constant).expect("alloc");
        ctx.memcpy_to_device(c, &[9u8; 128]).expect("h2d");
        ctx.launch("k", |k| k.load_u8(c, 0).map(|_| ()))
            .expect("launch");
        let trace = ctx.into_trace();
        assert_eq!(trace.kernels[0].events[0].space, MemorySpace::Constant);
    }

    #[test]
    fn reset_api_emits_host_action_and_keeps_data_valid() {
        let mut ctx = Context::new(8);
        let x = ctx.alloc(256, BufferKind::Input).expect("alloc");
        ctx.memcpy_to_device(x, &[1u8; 256]).expect("h2d k1");
        ctx.launch("k1", |k| k.load_u8(x, 0).map(|_| ()))
            .expect("k1");
        // Host refreshes the input for kernel 2.
        ctx.input_readonly_reset(x).expect("reset");
        ctx.memcpy_to_device(x, &[2u8; 256]).expect("h2d k2");
        ctx.launch("k2", |k| {
            assert_eq!(k.load_u8(x, 0)?, 2);
            Ok(())
        })
        .expect("k2");
        let trace = ctx.into_trace();
        assert!(trace.kernels[1]
            .pre_actions
            .iter()
            .any(|a| matches!(a, HostAction::InputReadOnlyReset { .. })));
    }

    #[test]
    fn multi_byte_ops_coalesce_into_one_sector_event() {
        let mut ctx = Context::new(12);
        let b = ctx.alloc(128, BufferKind::Scratch).expect("alloc");
        ctx.launch("word", |k| {
            k.store_u32(b, 0, 0xDEAD_BEEF)?;
            assert_eq!(k.load_u32(b, 0)?, 0xDEAD_BEEF);
            Ok(())
        })
        .expect("launch");
        let trace = ctx.into_trace();
        // 4 byte-stores coalesce to 1 write event; the store path's
        // read-modify-write emits interleaved reads, and 4 byte-loads
        // coalesce to 1 read event.
        let writes = trace.kernels[0]
            .events
            .iter()
            .filter(|e| e.kind.is_write())
            .count();
        assert!(writes <= 4, "store_u32 emitted {writes} write events");
        let events = trace.kernels[0].events.len();
        assert!(events < 12, "coalescer left {events} events for one word");
    }

    #[test]
    fn contexts_are_cryptographically_isolated() {
        // Two contexts (= two GPU processes) writing identical plaintext to
        // the same device address produce unrelated ciphertext: the command
        // processor derives a fresh key tuple per context.
        let mut a = Context::new(101);
        let mut b = Context::new(202);
        let ba = a.alloc(128, BufferKind::Scratch).expect("a");
        let bb = b.alloc(128, BufferKind::Scratch).expect("b");
        assert_eq!(
            a.device_address(ba).expect("a"),
            b.device_address(bb).expect("b"),
            "allocators should give the same address to both contexts"
        );
        a.memcpy_to_device(ba, &[0x42u8; 128]).expect("a h2d");
        b.memcpy_to_device(bb, &[0x42u8; 128]).expect("b h2d");
        let addr = a.device_address(ba).expect("a");
        let ct_a = a.secure_memory_mut().snapshot_block(addr).0;
        let ct_b = b.secure_memory_mut().snapshot_block(addr).0;
        assert_ne!(ct_a, ct_b, "contexts share pads");
    }

    #[test]
    fn u32_accessors_roundtrip() {
        let mut ctx = Context::new(9);
        let b = ctx.alloc(1024, BufferKind::Scratch).expect("alloc");
        ctx.launch("words", |k| {
            for i in 0..16 {
                k.store_u32(b, i * 4, 0xA5A5_0000 | i as u32)?;
            }
            for i in 0..16 {
                assert_eq!(k.load_u32(b, i * 4)?, 0xA5A5_0000 | i as u32);
            }
            Ok(())
        })
        .expect("launch");
    }

    #[test]
    fn buffers_never_share_detector_regions() {
        let mut ctx = Context::new(10);
        let a = ctx.alloc(100, BufferKind::Input).expect("a");
        let b = ctx.alloc(100, BufferKind::Output).expect("b");
        let (aa, bb) = (
            ctx.device_address(a).expect("a"),
            ctx.device_address(b).expect("b"),
        );
        assert!(bb - aa >= ALLOC_ALIGN);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut ctx = Context::new(11);
        let mut n = 0;
        loop {
            match ctx.alloc(1 << 20, BufferKind::Scratch) {
                Ok(_) => n += 1,
                Err(RuntimeError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
            assert!(n < 10_000, "allocator never exhausted");
        }
        assert!(n > 0);
    }
}
