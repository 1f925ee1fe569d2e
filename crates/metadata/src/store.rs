//! A functional secure-memory model over one protected address space.
//!
//! [`SecureMemory`] holds real ciphertext, split counters, per-block and
//! per-chunk MACs and a Bonsai Merkle Tree, and implements the full
//! read/write/verify flows of Fig. 1.  It exists to *prove* the security
//! semantics the performance simulator assumes: the test suite tampers with
//! "DRAM" contents and replays stale values and checks the engine rejects
//! them, including the shared-counter flows for read-only regions.
//!
//! Addresses are block-aligned offsets into the protected span; all state is
//! sparse (hash maps), so a 4 GB span costs only what is touched.

use gpu_types::{FxHashMap, BLOCK_BYTES, CHUNK_BYTES};
use shm_crypto::{chunk_mac, otp, stateful_mac, Aes128, KeyTuple, MacKey};

use crate::bmt::BmtTree;
use crate::counters::{CounterSector, Increment};
use crate::layout::{MetadataLayout, BLOCKS_PER_COUNTER_SECTOR};
use crate::shared::SharedCounter;

/// Why a verified read failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The per-block MAC did not match the fetched ciphertext + counter.
    BlockMacMismatch,
    /// The per-chunk MAC did not match the chunk's block MACs.
    ChunkMacMismatch,
    /// The Bonsai Merkle Tree rejected the counter line (replay).
    FreshnessViolation,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            VerifyError::BlockMacMismatch => "per-block MAC mismatch",
            VerifyError::ChunkMacMismatch => "per-chunk MAC mismatch",
            VerifyError::FreshnessViolation => "integrity-tree freshness violation",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VerifyError {}

impl VerifyError {
    /// Stable lower-case label used in telemetry and detection matrices.
    pub fn label(&self) -> &'static str {
        match self {
            VerifyError::BlockMacMismatch => "block_mac_mismatch",
            VerifyError::ChunkMacMismatch => "chunk_mac_mismatch",
            VerifyError::FreshnessViolation => "freshness_violation",
        }
    }
}

/// A verification failure bound to the address that raised it — the
/// structured record propagated from the engine through the runtime to the
/// CLI and telemetry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntegrityViolation {
    /// Block-aligned device address of the offending access.
    pub addr: u64,
    /// Which check rejected the access.
    pub error: VerifyError,
}

impl core::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "integrity violation at {:#x}: {}", self.addr, self.error)
    }
}

impl std::error::Error for IntegrityViolation {}

/// A functional secure-memory engine over a protected span.
#[derive(Clone, Debug)]
pub struct SecureMemory {
    layout: MetadataLayout,
    aes: Aes128,
    mac_key: MacKey,
    /// Ciphertext per block-aligned address ("DRAM" contents).
    ciphertext: FxHashMap<u64, [u8; 128]>,
    /// Counter sectors per counter-sector address.
    counters: FxHashMap<u64, CounterSector>,
    /// Per-block MACs per block-aligned data address.
    block_macs: FxHashMap<u64, u64>,
    /// Per-chunk MACs per chunk index.
    chunk_macs: FxHashMap<u64, u64>,
    /// The integrity tree over counter lines.
    bmt: BmtTree,
    /// The on-chip shared counter for read-only regions.
    shared: SharedCounter,
    /// Whether each block currently uses the shared counter (read-only).
    uses_shared: FxHashMap<u64, bool>,
    /// Pending one-shot transient faults per block: `(byte, bit)` flipped in
    /// the *fetched copy* of the next read only — the stored ciphertext is
    /// untouched, so a refetch succeeds (models a bus/DRAM soft error).
    transient_faults: FxHashMap<u64, (usize, u8)>,
}

impl SecureMemory {
    /// Creates an engine over `data_span` bytes keyed by `keys`.
    pub fn new(data_span: u64, keys: &KeyTuple) -> Self {
        let layout = MetadataLayout::new(data_span);
        // Leaves start at the hash of an untouched counter line, so a read
        // of never-written memory verifies (all counters at their default).
        let mac_key = MacKey::new(keys.k_mac);
        let default_sector = CounterSector::default();
        let mut buf = Vec::with_capacity(4 * 24);
        for _ in 0..4 {
            buf.extend_from_slice(&default_sector.major().to_le_bytes());
            for b in 0..crate::layout::BLOCKS_PER_COUNTER_SECTOR as usize {
                buf.push(default_sector.minor(b));
            }
        }
        let default_leaf = mac_key.mac(&buf);
        let bmt = BmtTree::with_leaf_value(
            layout.bmt().leaves(),
            MacKey::new(keys.k_tree),
            default_leaf,
        );
        Self {
            layout,
            aes: Aes128::new(keys.k_enc),
            mac_key: MacKey::new(keys.k_mac),
            ciphertext: FxHashMap::default(),
            counters: FxHashMap::default(),
            block_macs: FxHashMap::default(),
            chunk_macs: FxHashMap::default(),
            bmt,
            shared: SharedCounter::new(),
            uses_shared: FxHashMap::default(),
            transient_faults: FxHashMap::default(),
        }
    }

    /// The metadata layout in use.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// Current shared-counter value.
    pub fn shared_counter(&self) -> u64 {
        self.shared.value()
    }

    fn block_in_sector(addr: u64) -> usize {
        ((addr / BLOCK_BYTES) % BLOCKS_PER_COUNTER_SECTOR) as usize
    }

    fn counter_hash(&self, sector_addr: u64) -> u64 {
        // Hash the sector content for the BMT leaf; the whole counter line
        // shares a leaf, so combine the four sectors of the line.
        let line = sector_addr & !(BLOCK_BYTES - 1);
        let mut buf = Vec::with_capacity(4 * 24);
        for s in 0..4 {
            let sec = self
                .counters
                .get(&(line + s * 32))
                .cloned()
                .unwrap_or_default();
            buf.extend_from_slice(&sec.major().to_le_bytes());
            for b in 0..BLOCKS_PER_COUNTER_SECTOR as usize {
                buf.push(sec.minor(b));
            }
        }
        self.mac_key.mac(&buf)
    }

    fn bmt_leaf_of(&self, data_addr: u64) -> u64 {
        self.layout.counter_line_index(data_addr)
    }

    /// Writes plaintext to a (non-read-only) block: increments its counter,
    /// encrypts, stores the MAC and updates the BMT — steps ①–⑤ of Fig. 1.
    ///
    /// Returns the number of blocks that had to be re-encrypted due to a
    /// minor-counter overflow (0 in the common case).
    pub fn write_block(&mut self, addr: u64, plaintext: &[u8; 128]) -> u64 {
        let addr = addr & !(BLOCK_BYTES - 1);
        let sector_addr = self.layout.counter_sector(addr);
        let block = Self::block_in_sector(addr);

        let was_shared = self.uses_shared.get(&addr).copied().unwrap_or(false);
        let (major, minor, reencrypted) = if was_shared {
            // Read-only -> not-read-only transition (Fig. 8): propagate the
            // shared counter as the major counter for the whole group; the
            // written block's minor becomes padding+1, the rest stay at the
            // padding value, matching the pads their ciphertext already uses.
            let sec = CounterSector::propagated_from_shared(self.shared.value(), block);
            let pair = sec.seed_pair(block);
            self.counters.insert(sector_addr, sec);
            let group_base = addr - (block as u64) * BLOCK_BYTES;
            for b in 0..BLOCKS_PER_COUNTER_SECTOR {
                self.uses_shared.insert(group_base + b * BLOCK_BYTES, false);
            }
            (pair.0, pair.1, 0)
        } else {
            let counter = self.counters.entry(sector_addr).or_default();
            let reenc = match counter.increment(block) {
                Increment::Minor => 0,
                Increment::Overflow { group_blocks } => group_blocks,
            };
            let pair = counter.seed_pair(block);
            (pair.0, pair.1, reenc)
        };

        let mut ct = *plaintext;
        otp::xor_pad(&self.aes, addr, major, minor, &mut ct);
        let mac = stateful_mac(&self.mac_key, &ct, pack_ctr(major, minor), addr);

        self.ciphertext.insert(addr, ct);
        self.block_macs.insert(addr, mac);
        self.uses_shared.insert(addr, false);
        self.invalidate_chunk_mac(addr);

        let leaf = self.bmt_leaf_of(addr);
        let hash = self.counter_hash(sector_addr);
        self.bmt.update_leaf(leaf, hash);
        reencrypted
    }

    /// Host-side bulk write of read-only input data (CUDA memcpy during
    /// context initialisation): encrypts with the shared counter and marks
    /// the block as shared-counter-protected.  No BMT coverage is needed.
    pub fn write_readonly_block(&mut self, addr: u64, plaintext: &[u8; 128]) {
        let addr = addr & !(BLOCK_BYTES - 1);
        let (major, minor) = self.shared.seed_pair();
        let mut ct = *plaintext;
        otp::xor_pad(&self.aes, addr, major, minor, &mut ct);
        let mac = stateful_mac(&self.mac_key, &ct, pack_ctr(major, minor), addr);
        self.ciphertext.insert(addr, ct);
        self.block_macs.insert(addr, mac);
        self.uses_shared.insert(addr, true);
        self.invalidate_chunk_mac(addr);
    }

    /// Reads and verifies a block with per-block MAC granularity.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the MAC does not match (tampering) or the
    /// BMT rejects the counter (replay of a non-read-only block).
    pub fn read_block(&mut self, addr: u64) -> Result<[u8; 128], VerifyError> {
        let addr = addr & !(BLOCK_BYTES - 1);
        let mut ct = self.ciphertext.get(&addr).copied().unwrap_or([0u8; 128]);
        if let Some((byte, bit)) = self.transient_faults.remove(&addr) {
            // Corrupt only this fetch; the stored copy stays intact.
            ct[byte % 128] ^= 1 << (bit % 8);
        }
        let shared = self.uses_shared.get(&addr).copied().unwrap_or(false);

        let (major, minor) = if shared {
            self.shared.seed_pair()
        } else {
            let sector_addr = self.layout.counter_sector(addr);
            let sector = self.counters.get(&sector_addr).cloned().unwrap_or_default();
            // Freshness: the fetched counter line must verify against the BMT.
            let leaf = self.bmt_leaf_of(addr);
            if !self.bmt.verify_leaf(leaf, self.counter_hash(sector_addr)) {
                return Err(VerifyError::FreshnessViolation);
            }
            sector.seed_pair(Self::block_in_sector(addr))
        };

        let expected = stateful_mac(&self.mac_key, &ct, pack_ctr(major, minor), addr);
        let stored = self.block_macs.get(&addr).copied().unwrap_or_else(|| {
            // Untouched memory: MAC of the all-zero ciphertext.
            stateful_mac(&self.mac_key, &[0u8; 128], pack_ctr(major, minor), addr)
        });
        if expected != stored {
            return Err(VerifyError::BlockMacMismatch);
        }

        let mut pt = ct;
        otp::xor_pad(&self.aes, addr, major, minor, &mut pt);
        Ok(pt)
    }

    /// Produces (and caches) the chunk-level MAC of the 4 KB chunk holding
    /// `addr` from the current per-block MACs.
    pub fn produce_chunk_mac(&mut self, addr: u64) -> u64 {
        let chunk = addr / CHUNK_BYTES;
        let base = chunk * CHUNK_BYTES;
        let macs: Vec<u64> = (0..(CHUNK_BYTES / BLOCK_BYTES))
            .map(|i| {
                let a = base + i * BLOCK_BYTES;
                self.block_macs.get(&a).copied().unwrap_or_else(|| {
                    let shared = self.uses_shared.get(&a).copied().unwrap_or(false);
                    let (major, minor) = if shared {
                        self.shared.seed_pair()
                    } else {
                        let s = self.layout.counter_sector(a);
                        self.counters
                            .get(&s)
                            .cloned()
                            .unwrap_or_default()
                            .seed_pair(Self::block_in_sector(a))
                    };
                    stateful_mac(&self.mac_key, &[0u8; 128], pack_ctr(major, minor), a)
                })
            })
            .collect();
        let m = chunk_mac(&self.mac_key, &macs);
        self.chunk_macs.insert(chunk, m);
        m
    }

    /// Verifies a whole streaming chunk against its chunk-level MAC.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::ChunkMacMismatch`] if the recomputed chunk MAC
    /// differs from the stored one.
    pub fn verify_chunk(&mut self, addr: u64) -> Result<(), VerifyError> {
        let chunk = addr / CHUNK_BYTES;
        let stored = match self.chunk_macs.get(&chunk).copied() {
            Some(m) => m,
            None => return Ok(()), // never produced; nothing to check against
        };
        let recomputed = {
            let base = chunk * CHUNK_BYTES;
            let macs: Vec<u64> = (0..(CHUNK_BYTES / BLOCK_BYTES))
                .map(|i| {
                    let a = base + i * BLOCK_BYTES;
                    let ct = self.ciphertext.get(&a).copied().unwrap_or([0u8; 128]);
                    let shared = self.uses_shared.get(&a).copied().unwrap_or(false);
                    let (major, minor) = if shared {
                        self.shared.seed_pair()
                    } else {
                        let s = self.layout.counter_sector(a);
                        self.counters
                            .get(&s)
                            .cloned()
                            .unwrap_or_default()
                            .seed_pair(Self::block_in_sector(a))
                    };
                    stateful_mac(&self.mac_key, &ct, pack_ctr(major, minor), a)
                })
                .collect();
            chunk_mac(&self.mac_key, &macs)
        };
        if recomputed != stored {
            Err(VerifyError::ChunkMacMismatch)
        } else {
            Ok(())
        }
    }

    /// Applies `InputReadOnlyReset(addr_range)`: scans the range's major
    /// counters, raises the shared counter to the maximum found, and marks
    /// the blocks as shared-counter-protected again (Fig. 9).
    ///
    /// Returns the new shared-counter value.
    pub fn input_readonly_reset(&mut self, start: u64, len: u64) -> u64 {
        let mut max_major = 0u64;
        let mut a = start & !(BLOCK_BYTES - 1);
        while a < start + len {
            let s = self.layout.counter_sector(a);
            if let Some(sec) = self.counters.get(&s) {
                max_major = max_major.max(sec.major());
            }
            self.uses_shared.insert(a, true);
            a += BLOCK_BYTES;
        }
        self.shared.reset_for_reuse(max_major)
    }

    /// Attacker action: overwrite the stored ciphertext of a block.
    pub fn tamper_ciphertext(&mut self, addr: u64, new_ct: [u8; 128]) {
        self.ciphertext.insert(addr & !(BLOCK_BYTES - 1), new_ct);
    }

    /// Attacker action: replay a stale `(ciphertext, mac)` pair captured
    /// earlier from the bus.
    pub fn replay_block(&mut self, addr: u64, stale_ct: [u8; 128], stale_mac: u64) {
        let addr = addr & !(BLOCK_BYTES - 1);
        self.ciphertext.insert(addr, stale_ct);
        self.block_macs.insert(addr, stale_mac);
    }

    /// Attacker action: roll a counter sector back to a stale value without
    /// fixing the BMT (off-chip state only).
    pub fn replay_counter(&mut self, addr: u64, stale: CounterSector) {
        let s = self.layout.counter_sector(addr);
        self.counters.insert(s, stale);
    }

    /// Snapshot of the raw stored `(ciphertext, mac)` of a block, as an
    /// attacker on the memory bus would capture it.
    pub fn snapshot_block(&self, addr: u64) -> ([u8; 128], u64) {
        let addr = addr & !(BLOCK_BYTES - 1);
        let ct = self.ciphertext.get(&addr).copied().unwrap_or([0u8; 128]);
        let mac = self.block_macs.get(&addr).copied().unwrap_or(0);
        (ct, mac)
    }

    /// Snapshot of a counter sector.
    pub fn snapshot_counter(&self, addr: u64) -> CounterSector {
        self.counters
            .get(&self.layout.counter_sector(addr))
            .cloned()
            .unwrap_or_default()
    }

    /// Attacker action: flip one bit of the stored ciphertext in place
    /// (Rowhammer-style disturbance of a DRAM cell).
    pub fn tamper_ciphertext_bit(&mut self, addr: u64, byte: usize, bit: u8) {
        let addr = addr & !(BLOCK_BYTES - 1);
        let ct = self.ciphertext.entry(addr).or_insert([0u8; 128]);
        ct[byte % 128] ^= 1 << (bit % 8);
    }

    /// Attacker action: corrupt the stored per-block MAC by XOR-ing `mask`
    /// into it (a fault in the MAC region of DRAM).
    pub fn tamper_block_mac(&mut self, addr: u64, mask: u64) {
        let addr = addr & !(BLOCK_BYTES - 1);
        let shared = self.uses_shared.get(&addr).copied().unwrap_or(false);
        let (major, minor) = if shared {
            self.shared.seed_pair()
        } else {
            let s = self.layout.counter_sector(addr);
            self.counters
                .get(&s)
                .cloned()
                .unwrap_or_default()
                .seed_pair(Self::block_in_sector(addr))
        };
        let stored = self.block_macs.get(&addr).copied().unwrap_or_else(|| {
            stateful_mac(&self.mac_key, &[0u8; 128], pack_ctr(major, minor), addr)
        });
        self.block_macs.insert(addr, stored ^ mask);
    }

    /// Attacker action: corrupt a stored chunk-level MAC by XOR-ing `mask`
    /// into it.  No-op if the chunk MAC was never produced.
    pub fn tamper_chunk_mac(&mut self, addr: u64, mask: u64) {
        let chunk = addr / CHUNK_BYTES;
        if let Some(m) = self.chunk_macs.get_mut(&chunk) {
            *m ^= mask;
        }
    }

    /// Attacker action: roll a counter sector's minors back by re-inserting a
    /// default (all-zero) sector without touching the BMT.
    pub fn tamper_counter_reset(&mut self, addr: u64) {
        let s = self.layout.counter_sector(addr);
        self.counters.insert(s, CounterSector::default());
    }

    /// Attacker action: overwrite the BMT leaf covering `addr`'s counter line
    /// with `stale_hash` — splicing a stale tree node into DRAM.
    pub fn tamper_bmt_leaf(&mut self, addr: u64, stale_hash: u64) {
        let leaf = self.bmt_leaf_of(addr);
        self.bmt.tamper_leaf(leaf, stale_hash);
    }

    /// Current BMT leaf hash covering `addr` (what an attacker snoops before
    /// replaying it later via [`Self::tamper_bmt_leaf`]).
    pub fn snapshot_bmt_leaf(&self, addr: u64) -> u64 {
        let sector_addr = self.layout.counter_sector(addr);
        self.counter_hash(sector_addr)
    }

    /// Attacker action: splice block `src`'s stored `(ciphertext, mac)` over
    /// block `dst` — relocating valid DRAM content to the wrong address.
    pub fn splice_blocks(&mut self, src: u64, dst: u64) {
        let (ct, mac) = self.snapshot_block(src);
        let dst = dst & !(BLOCK_BYTES - 1);
        self.ciphertext.insert(dst, ct);
        self.block_macs.insert(dst, mac);
    }

    /// Attacker action: splice only block `src`'s MAC over block `dst`'s MAC
    /// (cross-address MAC relocation; ciphertexts stay put).
    pub fn splice_block_macs(&mut self, src: u64, dst: u64) {
        let (_, mac) = self.snapshot_block(src);
        self.block_macs.insert(dst & !(BLOCK_BYTES - 1), mac);
    }

    /// Arms a one-shot transient fault on `addr`: the *next* fetch of the
    /// block sees bit `bit` of byte `byte` flipped, but the stored copy is
    /// untouched, so a refetch verifies.  Models a correctable soft error
    /// and exercises the retry-fetch-once recovery policy.
    pub fn inject_transient_fault(&mut self, addr: u64, byte: usize, bit: u8) {
        self.transient_faults
            .insert(addr & !(BLOCK_BYTES - 1), (byte, bit));
    }

    /// Whether a transient fault is still armed on `addr` (it clears itself
    /// on the first fetch).
    pub fn transient_fault_armed(&self, addr: u64) -> bool {
        self.transient_faults
            .contains_key(&(addr & !(BLOCK_BYTES - 1)))
    }

    fn invalidate_chunk_mac(&mut self, addr: u64) {
        self.chunk_macs.remove(&(addr / CHUNK_BYTES));
    }

    // --- Persistence domain: restores of earlier snapshots, which the fault
    // campaign's torn-write class uses to leave a write half-landed.
    //
    // Unlike the attacker hooks above, these restore *consistent* state: a
    // counter restore always rewrites the full BMT path, so a restored
    // region verifies again instead of merely holding old bytes.

    /// Restores a block's stored ciphertext from a snapshot.
    pub fn restore_ciphertext(&mut self, addr: u64, ct: [u8; 128]) {
        self.ciphertext.insert(addr & !(BLOCK_BYTES - 1), ct);
    }

    /// Restores a block's stored per-block MAC from a snapshot.
    pub fn restore_block_mac(&mut self, addr: u64, mac: u64) {
        self.block_macs.insert(addr & !(BLOCK_BYTES - 1), mac);
    }

    /// Restores the counter sector covering `addr` and rebuilds the whole
    /// BMT path over its counter line, leaving the tree consistent with the
    /// restored sector (contrast
    /// [`Self::replay_counter`], which deliberately leaves the tree stale).
    pub fn restore_counter(&mut self, addr: u64, sector: CounterSector) {
        let sector_addr = self.layout.counter_sector(addr);
        self.counters.insert(sector_addr, sector);
        let leaf = self.bmt_leaf_of(addr);
        let hash = self.counter_hash(sector_addr);
        self.bmt.update_leaf(leaf, hash);
    }
}

/// Packs a (major, minor) pair into the single counter word fed to the MAC.
fn pack_ctr(major: u64, minor: u16) -> u64 {
    (major << 16) | minor as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SecureMemory {
        SecureMemory::new(1 << 20, &KeyTuple::derive(42))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = mem();
        let data = [0x5Au8; 128];
        m.write_block(0x1000, &data);
        assert_eq!(m.read_block(0x1000).expect("verified read"), data);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut m = mem();
        let data = [0x5Au8; 128];
        m.write_block(0x1000, &data);
        let (ct, _) = m.snapshot_block(0x1000);
        assert_ne!(ct, data, "data stored unencrypted");
    }

    #[test]
    fn same_plaintext_different_addresses_different_ciphertext() {
        let mut m = mem();
        let data = [0x77u8; 128];
        m.write_block(0x0, &data);
        m.write_block(0x80, &data);
        assert_ne!(m.snapshot_block(0x0).0, m.snapshot_block(0x80).0);
    }

    #[test]
    fn rewriting_same_block_changes_ciphertext() {
        // Temporal uniqueness: the counter advances per write, so identical
        // plaintext never produces identical ciphertext twice.
        let mut m = mem();
        let data = [0x33u8; 128];
        m.write_block(0x2000, &data);
        let ct1 = m.snapshot_block(0x2000).0;
        m.write_block(0x2000, &data);
        let ct2 = m.snapshot_block(0x2000).0;
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn tampering_is_detected() {
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        let mut ct = m.snapshot_block(0x1000).0;
        ct[7] ^= 0x80;
        m.tamper_ciphertext(0x1000, ct);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn replaying_data_and_mac_is_detected() {
        // Replay the old (ct, mac) pair after the block was overwritten: the
        // stateful MAC binds the counter, which has since advanced.
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        let (old_ct, old_mac) = m.snapshot_block(0x1000);
        m.write_block(0x1000, &[2u8; 128]);
        m.replay_block(0x1000, old_ct, old_mac);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn replaying_counters_and_data_together_is_detected_by_bmt() {
        // Full replay: roll back data+mac AND the counter sector. Only the
        // BMT catches this.
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        let (old_ct, old_mac) = m.snapshot_block(0x1000);
        let old_ctr = m.snapshot_counter(0x1000);
        m.write_block(0x1000, &[2u8; 128]);
        m.replay_block(0x1000, old_ct, old_mac);
        m.replay_counter(0x1000, old_ctr);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::FreshnessViolation));
    }

    #[test]
    fn readonly_blocks_verify_without_bmt() {
        let mut m = mem();
        m.write_readonly_block(0x4000, &[9u8; 128]);
        assert_eq!(m.read_block(0x4000).expect("read-only read"), [9u8; 128]);
    }

    #[test]
    fn readonly_tampering_still_detected() {
        let mut m = mem();
        m.write_readonly_block(0x4000, &[9u8; 128]);
        let mut ct = m.snapshot_block(0x4000).0;
        ct[0] ^= 1;
        m.tamper_ciphertext(0x4000, ct);
        assert_eq!(m.read_block(0x4000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn cross_kernel_replay_defeated_by_shared_counter_reset() {
        // Kernel 1 input written with shared counter value v0, then the
        // region becomes read/write (counter propagation), then the host
        // resets it for kernel 2. The reset raises the shared counter, so
        // kernel-1 ciphertext no longer verifies if replayed.
        let mut m = mem();
        m.write_readonly_block(0x8000, &[1u8; 128]);
        let (old_ct, old_mac) = m.snapshot_block(0x8000);

        // Kernel writes the region: transitions to per-block counters.
        m.write_block(0x8000, &[2u8; 128]);
        for _ in 0..3 {
            m.write_block(0x8000, &[3u8; 128]);
        }

        // Host reuses the region as read-only input for the next kernel.
        let new_shared = m.input_readonly_reset(0x8000, 128);
        assert!(
            new_shared >= 1,
            "shared counter must advance past scanned max"
        );
        m.write_readonly_block(0x8000, &[4u8; 128]);

        // Attacker replays kernel-1's read-only ciphertext.
        m.replay_block(0x8000, old_ct, old_mac);
        assert_eq!(m.read_block(0x8000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn chunk_mac_verifies_streaming_chunk() {
        let mut m = mem();
        for i in 0..32 {
            m.write_block(i * 128, &[i as u8; 128]);
        }
        m.produce_chunk_mac(0);
        assert_eq!(m.verify_chunk(0), Ok(()));
    }

    #[test]
    fn chunk_mac_detects_single_block_tamper() {
        let mut m = mem();
        for i in 0..32 {
            m.write_block(i * 128, &[i as u8; 128]);
        }
        m.produce_chunk_mac(0);
        let mut ct = m.snapshot_block(5 * 128).0;
        ct[0] ^= 0xFF;
        m.tamper_ciphertext(5 * 128, ct);
        assert_eq!(m.verify_chunk(0), Err(VerifyError::ChunkMacMismatch));
    }

    #[test]
    fn bit_flip_hook_is_detected() {
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        m.tamper_ciphertext_bit(0x1000, 17, 3);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn mac_corruption_is_detected() {
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        m.tamper_block_mac(0x1000, 1);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn spliced_block_is_detected() {
        // A valid (ct, mac) pair moved to a different address must fail: the
        // stateful MAC binds the address.
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        m.write_block(0x2000, &[2u8; 128]);
        m.splice_blocks(0x1000, 0x2000);
        assert_eq!(m.read_block(0x2000), Err(VerifyError::BlockMacMismatch));
    }

    #[test]
    fn counter_reset_without_bmt_fix_is_detected() {
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        m.tamper_counter_reset(0x1000);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::FreshnessViolation));
    }

    #[test]
    fn stale_bmt_leaf_is_detected() {
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        let stale = m.snapshot_bmt_leaf(0x1000);
        m.write_block(0x1000, &[2u8; 128]);
        m.tamper_bmt_leaf(0x1000, stale);
        assert_eq!(m.read_block(0x1000), Err(VerifyError::FreshnessViolation));
    }

    #[test]
    fn transient_fault_fails_once_then_recovers() {
        let mut m = mem();
        m.write_block(0x1000, &[5u8; 128]);
        m.inject_transient_fault(0x1000, 9, 1);
        assert!(m.transient_fault_armed(0x1000));
        assert_eq!(m.read_block(0x1000), Err(VerifyError::BlockMacMismatch));
        assert!(!m.transient_fault_armed(0x1000), "fault is one-shot");
        assert_eq!(m.read_block(0x1000).expect("refetch verifies"), [5u8; 128]);
    }

    #[test]
    fn restore_counter_rewrites_full_bmt_path() {
        // Undo of a torn write: rolling ciphertext, MAC and counter back to
        // the pre-write journal images must leave a *verifying* block —
        // restore_counter rebuilds the tree path, unlike replay_counter.
        let mut m = mem();
        m.write_block(0x1000, &[1u8; 128]);
        let (old_ct, old_mac) = m.snapshot_block(0x1000);
        let old_ctr = m.snapshot_counter(0x1000);
        m.write_block(0x1000, &[2u8; 128]);
        m.restore_ciphertext(0x1000, old_ct);
        m.restore_block_mac(0x1000, old_mac);
        m.restore_counter(0x1000, old_ctr);
        assert_eq!(m.read_block(0x1000).expect("restored read"), [1u8; 128]);
    }

    #[test]
    fn violation_display_names_address_and_check() {
        let v = IntegrityViolation {
            addr: 0x1000,
            error: VerifyError::FreshnessViolation,
        };
        let s = v.to_string();
        assert!(s.contains("0x1000"), "{s}");
        assert!(s.contains("freshness"), "{s}");
    }

    #[test]
    fn minor_overflow_reencrypts_group() {
        let mut m = mem();
        let mut total_reencrypted = 0;
        for _ in 0..=256 {
            total_reencrypted += m.write_block(0x0, &[7u8; 128]);
        }
        assert!(total_reencrypted >= 16, "no overflow observed");
        // Block still reads back correctly afterwards.
        assert_eq!(m.read_block(0x0).expect("read"), [7u8; 128]);
    }
}
