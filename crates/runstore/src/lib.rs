//! Persistent content-addressed store of timing-run records.
//!
//! One warm store serves a fleet of cheap clients: separate figure jobs,
//! `studyd` restarts, and concurrent server processes all reuse each
//! other's simulation results instead of recomputing them. The store is
//! deliberately generic — it maps a *content address* (a stable 64-bit
//! key hash plus a simulator-config hash, with the full canonical key
//! bytes stored alongside for collision safety) to an opaque payload —
//! so this crate depends on nothing and the engine crate owns the codec.
//!
//! ## Durability model
//!
//! * **Append-only segments.** Records are only ever appended, each
//!   framed by a fixed header carrying its lengths and an FNV-1a
//!   checksum over the whole record. Nothing is rewritten in place, so a
//!   crash can only damage the *tail* of the segment being written.
//! * **Per-process segments.** Every opener appends to its own fresh
//!   segment file (named with the process id), never to a scanned one,
//!   so concurrent processes sharing a store directory cannot interleave
//!   writes inside one file.
//! * **Scan-rebuilt index.** [`RunStore::open`] scans every segment and
//!   rebuilds the in-memory index; a torn or corrupt record ends the
//!   scan of that segment (the tail is ignored, counted in
//!   [`StoreCounters::torn_records`]) without poisoning earlier records.
//! * **Read-back verification.** Every [`RunStore::recall`] re-reads the
//!   record from disk and verifies magic, version, lengths, checksum,
//!   and the full key bytes. Any mismatch is treated as a miss — the
//!   entry is dropped from the index and the caller recomputes — so a
//!   damaged record is *never* returned. (The `store-corruption-bug`
//!   mutant in `mutants/` plants the obvious bug — skipping
//!   verification; the corruption tests must fail under it.)
//! * **Write-behind fills.** [`RunStore::append`] enqueues the record
//!   and returns immediately; a dedicated flusher thread drains the
//!   queue to disk and publishes the index entry once the record is
//!   durable. [`RunStore::flush`] blocks until the queue is empty (call
//!   it before handing the directory to another process); dropping the
//!   store drains too.
//! * **Compaction and eviction.** Segments are append-only, so
//!   invalidated, codec-retired, and duplicate records accumulate as
//!   dead bytes until [`RunStore::compact`] rewrites the live set into
//!   one fresh segment and retires the old files. A [`StoreBudget`]
//!   (size and/or age cap) is enforced at flush and compaction time by
//!   deleting whole oldest-first segments; eviction is a cache policy
//!   and may drop live records, whereas compaction never does.
//! * **Fleet transfer.** [`RunStore::inventory`],
//!   [`RunStore::export_segment`], [`RunStore::export_record`], and
//!   [`RunStore::import_segment`] let a peer ship whole segments or
//!   single records as opaque byte blobs. Imports are verified
//!   record-by-record with the same checksums and land in a fresh
//!   per-process segment file, which the scan-on-open union already
//!   handles — the store never trusts a shipped byte it has not
//!   checksummed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

// Under `model-check` the sync primitives and the flusher thread come
// from the interleave checker; they delegate to std outside a checker
// run, so the swap is behaviorally inert (the default build does not
// compile it at all).
#[cfg(feature = "model-check")]
use interleave::sync::{atomic::AtomicU64, Condvar, Mutex, MutexGuard};
#[cfg(feature = "model-check")]
use interleave::thread;
#[cfg(not(feature = "model-check"))]
use std::sync::{atomic::AtomicU64, Condvar, Mutex, MutexGuard};
#[cfg(not(feature = "model-check"))]
use std::thread;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"RUNSEG01";

/// Magic opening every record header (`"RREC"` little-endian).
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"RREC");

/// On-disk format version; bump on any layout or codec change so stale
/// stores read as empty instead of as garbage.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed record-header size, bytes: magic, version, key hash, config
/// hash, key length, payload length, checksum.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 4 + 4 + 8;

/// Sanity bound on one canonical key, bytes. Anything larger is framing
/// damage, not a key.
pub const MAX_KEY_BYTES: u32 = 4 * 1024;

/// Sanity bound on one payload, bytes.
pub const MAX_PAYLOAD_BYTES: u32 = 16 * 1024 * 1024;

/// Rotate to a fresh segment once the current one exceeds this many
/// bytes, keeping open-time scans cheap per file.
pub const SEGMENT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// 64-bit FNV-1a over `bytes` — the store's stable hash. Unlike
/// `DefaultHasher`, its output is pinned by this crate, so hashes written
/// today are valid addresses tomorrow.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The content address of one record: a stable hash of the canonical key
/// bytes plus a hash of the simulator configuration that produced the
/// payload. Two records agree only if both hashes do — and the recall
/// path still compares the full key bytes, so even a double hash
/// collision cannot alias two different runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Stable hash of the canonical key bytes ([`fnv1a64`]).
    pub key_hash: u64,
    /// Hash of the simulator configuration (the caller's contract: any
    /// config change that alters simulation output changes this hash).
    pub config_hash: u64,
}

impl RecordId {
    /// The id addressing `key` under `config_hash`.
    pub fn of(key: &[u8], config_hash: u64) -> Self {
        RecordId {
            key_hash: fnv1a64(key),
            config_hash,
        }
    }
}

/// A point-in-time snapshot of store traffic. Counters are relaxed
/// atomics: approximate while appends are in flight, exact once the
/// store is quiescent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Recalls answered with a verified payload.
    pub hits: u64,
    /// Recalls that found no (valid) record.
    pub misses: u64,
    /// Recalls whose read-back verification failed (checksum, framing,
    /// or key mismatch) — each one was turned into a miss.
    pub verify_failures: u64,
    /// Records accepted for write-behind appending.
    pub appends: u64,
    /// Appends the filesystem refused (segment creation, write, or
    /// flush failed); each record was dropped and will be recomputed.
    pub write_failures: u64,
    /// Torn or corrupt tail records skipped while scanning on open.
    pub torn_records: u64,
    /// Records currently addressable through the index.
    pub records: u64,
    /// Segment files known (scanned plus created).
    pub segments: u64,
}

/// Size/age eviction policy, enforced at flush and compaction time.
/// `None` on both axes (the [`Default`]) means unbounded. Eviction
/// deletes whole oldest-first segments — live records in an evicted
/// segment are simply recomputed on the next miss, so the policy trades
/// disk for compute without ever risking a wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBudget {
    /// Cap on total segment bytes on disk; oldest segments are deleted
    /// until the store fits.
    pub max_bytes: Option<u64>,
    /// Cap on segment age (from the creation stamp in the file name);
    /// compaction rewrites live records into a fresh segment, which
    /// resets their age.
    pub max_age: Option<Duration>,
}

impl StoreBudget {
    /// Whether either axis is bounded.
    pub fn is_bounded(&self) -> bool {
        self.max_bytes.is_some() || self.max_age.is_some()
    }
}

/// One segment file's identity and weight, for compaction accounting
/// and the fleet inventory exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment's file name (never a path — names are validated
    /// before any disk access, so a peer cannot traverse directories).
    pub name: String,
    /// File size, bytes.
    pub bytes: u64,
    /// Records in the live index that point into this segment.
    pub records: u64,
}

/// What one [`RunStore::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Live records rewritten into the fresh segment.
    pub live_records: u64,
    /// Total segment bytes on disk before the pass.
    pub bytes_before: u64,
    /// Total segment bytes on disk after the pass (and after budget
    /// enforcement).
    pub bytes_after: u64,
    /// Old segment files retired (deleted) by the pass.
    pub segments_retired: u64,
}

/// What one [`RunStore::import_segment`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Records that verified and were installed (durable and indexed).
    pub installed: u64,
    /// Records that verified but were already present locally.
    pub skipped: u64,
    /// Torn or corrupt records rejected (the scan stops at the first,
    /// exactly like the open-time segment scan).
    pub rejected: u64,
}

/// Where one record lives on disk.
#[derive(Debug, Clone)]
struct Loc {
    path: Arc<PathBuf>,
    offset: u64,
    len: u32,
}

/// One queued write-behind record.
struct PendingRecord {
    id: RecordId,
    key: Vec<u8>,
    payload: Vec<u8>,
}

struct State {
    index: HashMap<RecordId, Loc>,
    pending: VecDeque<PendingRecord>,
    /// True while the flusher is writing a popped record (the queue is
    /// empty but the record is not yet durable).
    writing: bool,
    closed: bool,
    /// Bumped whenever on-disk segments are retired (compaction or
    /// eviction); the flusher abandons its open segment on an epoch
    /// change so it never appends to a file scheduled for deletion.
    epoch: u64,
}

struct Shared {
    dir: PathBuf,
    budget: StoreBudget,
    state: Mutex<State>,
    cv: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    verify_failures: AtomicU64,
    appends: AtomicU64,
    write_failures: AtomicU64,
    torn_records: AtomicU64,
    segments: AtomicU64,
}

/// A poisoned store mutex means a peer thread panicked; the guarded
/// state (an index map and a queue) is never left torn, so keep going.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent run store. See the crate docs for the format and the
/// durability model.
pub struct RunStore {
    shared: Arc<Shared>,
    flusher: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for RunStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStore")
            .field("dir", &self.shared.dir)
            .field("records", &self.len())
            .finish()
    }
}

impl RunStore {
    /// Opens (creating if needed) the store rooted at `dir`: scans every
    /// segment, rebuilds the index, and starts the write-behind flusher.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the directory cannot be created or read.
    /// Individual damaged segments are not errors — their readable prefix
    /// is indexed and the torn tail is counted and skipped.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<RunStore> {
        RunStore::open_with_budget(dir, StoreBudget::default())
    }

    /// [`RunStore::open`] with a size/age eviction policy, enforced at
    /// flush and compaction time.
    ///
    /// # Errors
    ///
    /// Same as [`RunStore::open`].
    pub fn open_with_budget(dir: impl Into<PathBuf>, budget: StoreBudget) -> io::Result<RunStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = HashMap::new();
        let mut torn = 0u64;
        let mut segments = 0u64;
        // Lexicographic order is creation order (zero-padded stamps),
        // so later segments override earlier ones in the index.
        for path in list_segments(&dir)? {
            segments += 1;
            torn += scan_segment(&path, &mut index)?;
        }
        let shared = Arc::new(Shared {
            dir,
            budget,
            state: Mutex::new(State {
                index,
                pending: VecDeque::new(),
                writing: false,
                closed: false,
                epoch: 0,
            }),
            cv: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            torn_records: AtomicU64::new(torn),
            segments: AtomicU64::new(segments),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            // lint: allow(server-boundary): the store's one background
            // thread — the write-behind flusher that drains queued
            // appends to the process-private segment.
            thread::spawn(move || flusher_loop(&shared))
        };
        Ok(RunStore {
            shared,
            flusher: Some(flusher),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Number of records currently addressable through the index.
    pub fn len(&self) -> usize {
        lock(&self.shared.state).index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        let records = self.len() as u64;
        let s = &self.shared;
        StoreCounters {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            verify_failures: s.verify_failures.load(Ordering::Relaxed),
            appends: s.appends.load(Ordering::Relaxed),
            write_failures: s.write_failures.load(Ordering::Relaxed),
            torn_records: s.torn_records.load(Ordering::Relaxed),
            records,
            segments: s.segments.load(Ordering::Relaxed),
        }
    }

    /// Recalls the payload stored under `id`, read back from disk and
    /// verified (framing, checksum, and byte-for-byte key equality
    /// against `key`). Any damage or mismatch drops the index entry,
    /// counts a verify failure, and reads as a miss — the caller
    /// recomputes and re-appends; a damaged payload is never returned.
    pub fn recall(&self, id: RecordId, key: &[u8]) -> Option<Vec<u8>> {
        let loc = match lock(&self.shared.state).index.get(&id) {
            Some(loc) => loc.clone(),
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match read_verified(&loc, id, key) {
            Ok(payload) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(_) => {
                self.invalidate(id);
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Drops `id` from the index and counts a verify failure. Exposed so
    /// callers that decode payloads can treat a payload that fails *their*
    /// decoding as damaged too (the payload is opaque to the store).
    pub fn invalidate(&self, id: RecordId) {
        let removed = lock(&self.shared.state).index.remove(&id).is_some();
        if removed {
            self.shared.verify_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues one record for write-behind appending and returns
    /// immediately. The index entry is published once the record is on
    /// disk; until then a recall of `id` misses (callers keep fresh runs
    /// in their own memory tier, so this costs nothing in-process).
    /// Oversized keys or payloads are silently dropped — the store is a
    /// cache, and the caller's compute path remains correct without it.
    pub fn append(&self, id: RecordId, key: Vec<u8>, payload: Vec<u8>) {
        if key.len() > MAX_KEY_BYTES as usize || payload.len() > MAX_PAYLOAD_BYTES as usize {
            return;
        }
        let mut state = lock(&self.shared.state);
        if state.closed {
            return;
        }
        state.pending.push_back(PendingRecord { id, key, payload });
        self.shared.appends.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.shared.cv.notify_all();
    }

    /// Blocks until every queued append is durable and indexed. Call
    /// before handing the directory to another process (or relying on a
    /// restart to see the records). Enforces the [`StoreBudget`], if one
    /// is set (eviction failures are swallowed — the store is a cache
    /// and flush has nothing useful to do with an I/O error).
    pub fn flush(&self) {
        let mut state = lock(&self.shared.state);
        while !state.pending.is_empty() || state.writing {
            state = self
                .shared
                .cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        if self.shared.budget.is_bounded() {
            let _ = self.enforce_budget();
        }
    }

    /// The eviction policy this store was opened with.
    pub fn budget(&self) -> StoreBudget {
        self.shared.budget
    }

    /// Every id currently addressable through the index, in no
    /// particular order.
    pub fn record_ids(&self) -> Vec<RecordId> {
        lock(&self.shared.state).index.keys().copied().collect()
    }

    /// Drops every index entry whose `config_hash` matches — the bulk
    /// retirement path for a codec or simulator-config change. The
    /// records' bytes stay on disk (dead) until the next
    /// [`RunStore::compact`] reclaims them. Returns how many entries
    /// were retired; they are not counted as verify failures (nothing
    /// was damaged).
    pub fn retire_config(&self, config_hash: u64) -> u64 {
        let mut state = lock(&self.shared.state);
        let before = state.index.len();
        state.index.retain(|id, _| id.config_hash != config_hash);
        (before - state.index.len()) as u64
    }

    /// Total bytes of segment files on disk.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the store directory cannot be listed.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        Ok(list_segments(&self.shared.dir)?
            .iter()
            .map(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum())
    }

    /// The store's segment inventory: every segment file on disk, in
    /// creation order, with its size and live-record count. This is the
    /// unit of the fleet's anti-entropy exchange — a peer compares
    /// inventories and pulls whole segments it is missing.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the store directory cannot be listed.
    pub fn inventory(&self) -> io::Result<Vec<SegmentInfo>> {
        let paths = list_segments(&self.shared.dir)?;
        let sizes: Vec<u64> = paths
            .iter()
            .map(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .collect();
        let state = lock(&self.shared.state);
        let mut live: HashMap<&Path, u64> = HashMap::new();
        for loc in state.index.values() {
            *live.entry(loc.path.as_path()).or_insert(0) += 1;
        }
        Ok(paths
            .iter()
            .zip(sizes)
            .map(|(path, bytes)| SegmentInfo {
                name: segment_file_name(path),
                bytes,
                records: live.get(path.as_path()).copied().unwrap_or(0),
            })
            .collect())
    }

    /// Reads one whole segment file as raw bytes for shipping to a
    /// peer. The name must be a bare segment file name (as reported by
    /// [`RunStore::inventory`]); anything else — separators, traversal,
    /// a non-segment name — is refused before any disk access.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] for an invalid name or an unreadable file
    /// (e.g. the segment was compacted away between inventory and pull).
    pub fn export_segment(&self, name: &str) -> io::Result<Vec<u8>> {
        if !valid_segment_name(name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a segment file name",
            ));
        }
        fs::read(self.shared.dir.join(name))
    }

    /// Reads the raw encoded bytes (header, key, payload) of the record
    /// stored under `id`, for serving a fleet recall. The bytes are
    /// shipped as-is — the *requesting* side runs the checksum and key
    /// verification, so a locally damaged record is rejected remotely
    /// exactly as it would be locally. Returns `None` on a miss or any
    /// read failure.
    pub fn export_record(&self, id: RecordId) -> Option<Vec<u8>> {
        let loc = lock(&self.shared.state).index.get(&id)?.clone();
        read_record_bytes(&loc).ok()
    }

    /// Installs records shipped from a peer's segment (the bytes of one
    /// whole segment file, as produced by [`RunStore::export_segment`]).
    /// Every record is parsed and checksum-verified; verified records
    /// not already present land in a fresh per-process segment file
    /// (durable and indexed before this returns), so a shipped segment
    /// is never trusted byte-for-byte and never appended to an existing
    /// file. A torn or corrupt record ends the scan — the intact prefix
    /// is still installed, mirroring the open-time scan.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] only for local write failures; damage in
    /// the *shipped* bytes is reported via [`ImportReport::rejected`].
    pub fn import_segment(&self, bytes: &[u8]) -> io::Result<ImportReport> {
        let mut report = ImportReport::default();
        let mut verified: Vec<ParsedRecord> = Vec::new();
        if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            report.rejected = 1;
            return Ok(report);
        }
        let mut offset = SEGMENT_MAGIC.len();
        while offset < bytes.len() {
            match parse_record(bytes, offset) {
                Ok(record) => {
                    offset += record.len;
                    verified.push(record);
                }
                Err(_) => {
                    report.rejected = 1;
                    break;
                }
            }
        }
        let missing: Vec<&ParsedRecord> = {
            let state = lock(&self.shared.state);
            verified
                .iter()
                .filter(|r| !state.index.contains_key(&r.id))
                .collect()
        };
        report.skipped = (verified.len() - missing.len()) as u64;
        if missing.is_empty() {
            return Ok(report);
        }
        // Write the foreign records into a fresh segment of our own,
        // re-encoded (byte-identical — the checksum pins the content).
        let mut seg = create_segment(&self.shared)?;
        self.shared.segments.fetch_add(1, Ordering::Relaxed);
        let mut locs: Vec<(RecordId, Loc)> = Vec::with_capacity(missing.len());
        for record in &missing {
            let encoded = encode_record(record.id, &record.key, &record.payload);
            let offset = seg.len;
            seg.file.write_all(&encoded)?;
            seg.len += encoded.len() as u64;
            locs.push((
                record.id,
                Loc {
                    path: Arc::clone(&seg.path),
                    offset,
                    len: encoded.len() as u32,
                },
            ));
        }
        seg.file.flush()?;
        let mut state = lock(&self.shared.state);
        for (id, loc) in locs {
            // First-writer-wins if a concurrent append published the
            // same id meanwhile; both copies hold identical payloads.
            if let std::collections::hash_map::Entry::Vacant(slot) = state.index.entry(id) {
                slot.insert(loc);
                report.installed += 1;
            } else {
                report.skipped += 1;
            }
        }
        Ok(report)
    }

    /// Rewrites every live record into one fresh segment, then retires
    /// (deletes) all prior segment files — reclaiming the dead bytes of
    /// invalidated, codec-retired, and duplicate records. Each record is
    /// checksum-verified during the rewrite; a record that fails was
    /// damaged on disk and is dropped exactly as a recall would have
    /// dropped it. Concurrent appends are safe: the flusher rotates to a
    /// new segment (never a retired one) on the epoch bump, and entries
    /// that changed mid-pass keep their newer location. Other *processes*
    /// sharing the directory may see their scanned segments deleted;
    /// their recalls then fail verification and fall back to compute — a
    /// miss, never a wrong answer. Ends by enforcing the [`StoreBudget`].
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the directory cannot be listed or the
    /// fresh segment cannot be written; the old segments are only
    /// deleted after the rewrite is durable, so a failed pass leaves
    /// every live record readable.
    pub fn compact(&self) -> io::Result<CompactReport> {
        self.flush();
        // Quiesce, snapshot, and bump the epoch under one lock hold: the
        // queue is empty and nothing is mid-write, so after the bump no
        // file listed here can receive another record from our flusher.
        let (snapshot, retire) = {
            let mut state = lock(&self.shared.state);
            while !state.pending.is_empty() || state.writing {
                state = self
                    .shared
                    .cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.epoch += 1;
            let retire = list_segments(&self.shared.dir)?;
            let mut snapshot: Vec<(RecordId, Loc)> = state
                .index
                .iter()
                .map(|(id, loc)| (*id, loc.clone()))
                .collect();
            // Deterministic rewrite order (the index iterates in hash
            // order, which varies run to run).
            snapshot.sort_by_key(|(id, _)| (id.key_hash, id.config_hash));
            (snapshot, retire)
        };
        let bytes_before: u64 = retire
            .iter()
            .map(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        let live_bytes: u64 = snapshot.iter().map(|(_, loc)| u64::from(loc.len)).sum();
        // Already compact: at most one segment and every byte of it live.
        if retire.len() <= 1
            && live_bytes + (SEGMENT_MAGIC.len() * retire.len()) as u64 == bytes_before
        {
            self.enforce_budget()?;
            return Ok(CompactReport {
                live_records: snapshot.len() as u64,
                bytes_before,
                bytes_after: self.disk_bytes()?,
                segments_retired: 0,
            });
        }
        // Rewrite the verified live set into one fresh segment.
        let mut seg: Option<OpenSegment> = None;
        let mut moved: Vec<(RecordId, Loc)> = Vec::with_capacity(snapshot.len());
        for (id, loc) in &snapshot {
            let Ok(raw) = read_record_bytes(loc) else {
                continue;
            };
            let Ok(record) = parse_record(&raw, 0) else {
                continue;
            };
            if record.id != *id {
                continue;
            }
            if seg.is_none() {
                seg = Some(create_segment(&self.shared)?);
                self.shared.segments.fetch_add(1, Ordering::Relaxed);
            }
            let Some(open) = seg.as_mut() else {
                continue;
            };
            let offset = open.len;
            open.file.write_all(&raw)?;
            open.len += raw.len() as u64;
            moved.push((
                *id,
                Loc {
                    path: Arc::clone(&open.path),
                    offset,
                    len: raw.len() as u32,
                },
            ));
        }
        if let Some(open) = seg.as_mut() {
            open.file.flush()?;
        }
        let live_records = moved.len() as u64;
        // Publish the new locations, then drop anything still pointing
        // into a retired file (records that failed verification above).
        let retired: std::collections::HashSet<&Path> =
            retire.iter().map(PathBuf::as_path).collect();
        {
            let mut state = lock(&self.shared.state);
            for (id, newloc) in moved {
                if state
                    .index
                    .get(&id)
                    .is_some_and(|cur| retired.contains(cur.path.as_path()))
                {
                    state.index.insert(id, newloc);
                }
            }
            let before = state.index.len();
            state
                .index
                .retain(|_, loc| !retired.contains(loc.path.as_path()));
            let dropped = (before - state.index.len()) as u64;
            if dropped > 0 {
                self.shared
                    .verify_failures
                    .fetch_add(dropped, Ordering::Relaxed);
            }
        }
        for path in &retire {
            let _ = fs::remove_file(path);
        }
        self.shared.segments.store(
            list_segments(&self.shared.dir)?.len() as u64,
            Ordering::Relaxed,
        );
        self.enforce_budget()?;
        Ok(CompactReport {
            live_records,
            bytes_before,
            bytes_after: self.disk_bytes()?,
            segments_retired: retire.len() as u64,
        })
    }

    /// Enforces the [`StoreBudget`] by deleting whole segments, oldest
    /// first (by the creation stamp in the file name): first everything
    /// older than `max_age`, then oldest-first until the store fits in
    /// `max_bytes`. Index entries into deleted segments are dropped —
    /// their records are recomputed on the next miss. Returns how many
    /// segments were evicted. No-op for an unbounded budget.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the store directory cannot be listed.
    pub fn enforce_budget(&self) -> io::Result<u64> {
        let budget = self.shared.budget;
        if !budget.is_bounded() {
            return Ok(0);
        }
        let paths = list_segments(&self.shared.dir)?;
        let metas: Vec<(PathBuf, u64, u64)> = paths
            .into_iter()
            .map(|p| {
                let bytes = fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
                let stamp = segment_name_stamp(&p);
                (p, bytes, stamp)
            })
            .collect();
        let mut drop_flags = vec![false; metas.len()];
        if let Some(max_age) = budget.max_age {
            let cutoff =
                segment_stamp(0).saturating_sub(u64::try_from(max_age.as_micros()).unwrap_or(0));
            for (flag, (_, _, stamp)) in drop_flags.iter_mut().zip(&metas) {
                if *stamp < cutoff {
                    *flag = true;
                }
            }
        }
        if let Some(max_bytes) = budget.max_bytes {
            let mut total: u64 = metas
                .iter()
                .zip(&drop_flags)
                .filter(|(_, dropped)| !**dropped)
                .map(|((_, bytes, _), _)| *bytes)
                .sum();
            // `list_segments` sorts lexicographically = stamp order, so
            // this walks oldest to newest.
            for (flag, (_, bytes, _)) in drop_flags.iter_mut().zip(&metas) {
                if total <= max_bytes {
                    break;
                }
                if !*flag {
                    *flag = true;
                    total -= *bytes;
                }
            }
        }
        let evict: Vec<&PathBuf> = metas
            .iter()
            .zip(&drop_flags)
            .filter(|(_, dropped)| **dropped)
            .map(|((path, _, _), _)| path)
            .collect();
        if evict.is_empty() {
            return Ok(0);
        }
        let evicted: std::collections::HashSet<&Path> = evict.iter().map(|p| p.as_path()).collect();
        {
            let mut state = lock(&self.shared.state);
            // The flusher's open segment may be on the evict list; the
            // bump makes it rotate instead of appending to a dead file.
            state.epoch += 1;
            state
                .index
                .retain(|_, loc| !evicted.contains(loc.path.as_path()));
        }
        for path in &evict {
            let _ = fs::remove_file(path);
        }
        self.shared.segments.store(
            list_segments(&self.shared.dir)?.len() as u64,
            Ordering::Relaxed,
        );
        Ok(evict.len() as u64)
    }
}

impl Drop for RunStore {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.closed = true;
        }
        self.shared.cv.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

/// The flusher: drains the pending queue to per-process segment files,
/// publishing each index entry after its record is written. Exits once
/// the store is closed *and* the queue is drained, so dropping the store
/// never loses accepted records.
fn flusher_loop(shared: &Shared) {
    let mut segment: Option<OpenSegment> = None;
    let mut segment_epoch = 0u64;
    loop {
        let (record, epoch) = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(record) = state.pending.pop_front() {
                    state.writing = true;
                    break (record, state.epoch);
                }
                if state.closed {
                    return;
                }
                state = shared
                    .cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if segment_epoch != epoch {
            // Compaction or eviction retired on-disk segments — possibly
            // ours. Rotate rather than append to a deleted file.
            segment = None;
            segment_epoch = epoch;
        }
        let written = write_record(shared, &mut segment, &record);
        if written.is_none() {
            shared.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = lock(&shared.state);
        state.writing = false;
        if let Some(loc) = written {
            state.index.insert(record.id, loc);
        }
        drop(state);
        shared.cv.notify_all();
    }
}

struct OpenSegment {
    file: fs::File,
    path: Arc<PathBuf>,
    len: u64,
}

/// Writes one record, rotating or creating the process-private segment
/// as needed. Returns the record's location, or `None` if the filesystem
/// refused (the store is a cache; a failed spill is not fatal, only
/// counted in [`StoreCounters::write_failures`]).
fn write_record(
    shared: &Shared,
    segment: &mut Option<OpenSegment>,
    record: &PendingRecord,
) -> Option<Loc> {
    if segment
        .as_ref()
        .is_some_and(|s| s.len >= SEGMENT_ROTATE_BYTES)
    {
        *segment = None;
    }
    if segment.is_none() {
        *segment = create_segment(shared).ok();
        if segment.is_some() {
            shared.segments.fetch_add(1, Ordering::Relaxed);
        }
    }
    let seg = segment.as_mut()?;
    let bytes = encode_record(record.id, &record.key, &record.payload);
    let offset = seg.len;
    if seg
        .file
        .write_all(&bytes)
        .and_then(|()| seg.file.flush())
        .is_err()
    {
        // The segment is now suspect; drop it so the next write starts
        // fresh rather than appending after a partial record.
        *segment = None;
        return None;
    }
    seg.len += bytes.len() as u64;
    Some(Loc {
        path: Arc::clone(&seg.path),
        offset,
        len: bytes.len() as u32,
    })
}

/// Creates a fresh process-private segment file (never appends to a
/// scanned one, so concurrent store processes cannot interleave).
fn create_segment(shared: &Shared) -> io::Result<OpenSegment> {
    let pid = std::process::id();
    for attempt in 0u32.. {
        let name = format!("seg-{:016x}-{pid:08x}.runs", segment_stamp(attempt));
        let path = shared.dir.join(name);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                file.write_all(SEGMENT_MAGIC)?;
                file.flush()?;
                return Ok(OpenSegment {
                    file,
                    path: Arc::new(path),
                    len: SEGMENT_MAGIC.len() as u64,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt < 1024 => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("the retry loop above always returns")
}

/// Monotonic-enough segment stamp: wall-clock microseconds since the
/// epoch, perturbed by the attempt counter on name collisions. Ordering
/// only affects which duplicate record wins the index scan, never
/// correctness (duplicates of one key hold identical payloads).
fn segment_stamp(attempt: u32) -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
        .wrapping_add(u64::from(attempt))
}

/// Every segment file under `dir`, sorted lexicographically — which is
/// creation-stamp order, the order the open-time scan and the eviction
/// policy both rely on.
fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "runs")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .collect();
    names.sort();
    Ok(names)
}

/// Whether `name` is a bare segment file name (`seg-<16 hex>-<8
/// hex>.runs`) — the gate on peer-supplied names before any disk
/// access, so a name can never escape the store directory.
pub fn valid_segment_name(name: &str) -> bool {
    let Some(hex) = name
        .strip_prefix("seg-")
        .and_then(|rest| rest.strip_suffix(".runs"))
    else {
        return false;
    };
    let mut parts = hex.splitn(2, '-');
    let stamp = parts.next().unwrap_or("");
    let pid = parts.next().unwrap_or("");
    stamp.len() == 16
        && pid.len() == 8
        && stamp.chars().all(|c| c.is_ascii_hexdigit())
        && pid.chars().all(|c| c.is_ascii_hexdigit())
}

/// The bare file name of a segment path.
fn segment_file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// The creation stamp (epoch microseconds) encoded in a segment file
/// name; 0 for anything unparsable (which then reads as "oldest").
fn segment_name_stamp(path: &Path) -> u64 {
    let name = segment_file_name(path);
    name.strip_prefix("seg-")
        .and_then(|rest| rest.get(..16))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or(0)
}

/// Reads the raw bytes of one located record.
fn read_record_bytes(loc: &Loc) -> Result<Vec<u8>, &'static str> {
    let mut file = fs::File::open(loc.path.as_path()).map_err(|_| "segment unreadable")?;
    file.seek(SeekFrom::Start(loc.offset))
        .map_err(|_| "seek failed")?;
    let mut buf = vec![0u8; loc.len as usize];
    file.read_exact(&mut buf).map_err(|_| "short read")?;
    Ok(buf)
}

/// Serializes one record: fixed header, key bytes, payload bytes.
pub fn encode_record(id: RecordId, key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + key.len() + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&id.key_hash.to_le_bytes());
    out.extend_from_slice(&id.config_hash.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_checksum(id, key, payload).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(payload);
    out
}

/// The checksum stored in (and verified against) a record header:
/// FNV-1a over the id, the lengths, and both variable sections.
pub fn record_checksum(id: RecordId, key: &[u8], payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(24 + key.len() + payload.len());
    buf.extend_from_slice(&id.key_hash.to_le_bytes());
    buf.extend_from_slice(&id.config_hash.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(payload);
    fnv1a64(&buf)
}

/// A record parsed (and checksum-verified) out of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// The record's content address.
    pub id: RecordId,
    /// The canonical key bytes.
    pub key: Vec<u8>,
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Total encoded length, bytes.
    pub len: usize,
}

/// Parses the record starting at `buf[offset..]`, verifying framing and
/// checksum.
///
/// # Errors
///
/// Returns a static description of the first problem (truncation, bad
/// magic or version, insane lengths, checksum mismatch) — the scan and
/// recall paths treat them all identically, as "not a valid record".
pub fn parse_record(buf: &[u8], offset: usize) -> Result<ParsedRecord, &'static str> {
    let rec = buf.get(offset..).ok_or("offset past end")?;
    if rec.len() < RECORD_HEADER_BYTES {
        return Err("truncated header");
    }
    let u32_at = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().unwrap_or([0; 4]));
    let u64_at = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().unwrap_or([0; 8]));
    if u32_at(0) != RECORD_MAGIC {
        return Err("bad record magic");
    }
    if u32_at(4) != FORMAT_VERSION {
        return Err("unknown format version");
    }
    let id = RecordId {
        key_hash: u64_at(8),
        config_hash: u64_at(16),
    };
    let key_len = u32_at(24);
    let payload_len = u32_at(28);
    if key_len > MAX_KEY_BYTES || payload_len > MAX_PAYLOAD_BYTES {
        return Err("insane record lengths");
    }
    let checksum = u64_at(32);
    let total = RECORD_HEADER_BYTES + key_len as usize + payload_len as usize;
    if rec.len() < total {
        return Err("truncated record body");
    }
    let key = &rec[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + key_len as usize];
    let payload = &rec[RECORD_HEADER_BYTES + key_len as usize..total];
    if record_checksum(id, key, payload) != checksum {
        return Err("checksum mismatch");
    }
    Ok(ParsedRecord {
        id,
        key: key.to_vec(),
        payload: payload.to_vec(),
        len: total,
    })
}

/// Scans one segment into `index`; returns how many torn/corrupt tail
/// records were skipped (0 or 1 — the scan stops at the first).
fn scan_segment(path: &Path, index: &mut HashMap<RecordId, Loc>) -> io::Result<u64> {
    let buf = fs::read(path)?;
    if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // Not (yet) a segment of ours: an empty or foreign file. Skip it
        // entirely but count it if it has content claiming otherwise.
        return Ok(u64::from(!buf.is_empty()));
    }
    let shared_path = Arc::new(path.to_path_buf());
    let mut offset = SEGMENT_MAGIC.len();
    let mut torn = 0u64;
    while offset < buf.len() {
        match parse_record(&buf, offset) {
            Ok(record) => {
                index.insert(
                    record.id,
                    Loc {
                        path: Arc::clone(&shared_path),
                        offset: offset as u64,
                        len: record.len as u32,
                    },
                );
                offset += record.len;
            }
            Err(_) => {
                // A torn tail (crash mid-append) or bit rot: everything
                // before this offset is intact and indexed; ignore the
                // rest of the file.
                torn = 1;
                break;
            }
        }
    }
    Ok(torn)
}

/// Re-reads `loc` from disk and verifies it end to end against the
/// expected id and key bytes.
///
/// # Errors
///
/// Any I/O failure, framing damage, checksum mismatch, or id/key
/// disagreement — the caller treats every case as a miss.
fn read_verified(loc: &Loc, id: RecordId, key: &[u8]) -> Result<Vec<u8>, &'static str> {
    let buf = read_record_bytes(loc)?;
    let record = parse_record(&buf, 0)?;
    if record.id != id {
        return Err("record id mismatch");
    }
    if record.key != key {
        return Err("key bytes mismatch (hash collision or damage)");
    }
    Ok(record.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn record_round_trips_through_encode_parse() {
        let id = RecordId::of(b"key-bytes", 7);
        let bytes = encode_record(id, b"key-bytes", b"payload!");
        let parsed = parse_record(&bytes, 0).expect("parses");
        assert_eq!(parsed.id, id);
        assert_eq!(parsed.key, b"key-bytes");
        assert_eq!(parsed.payload, b"payload!");
        assert_eq!(parsed.len, bytes.len());
    }

    #[test]
    fn parse_rejects_truncation_and_damage() {
        let id = RecordId::of(b"k", 1);
        let bytes = encode_record(id, b"k", b"0123456789");
        for cut in [0, 10, RECORD_HEADER_BYTES, bytes.len() - 1] {
            assert!(parse_record(&bytes[..cut], 0).is_err(), "cut={cut}");
        }
        for flip in [0, 9, 33, RECORD_HEADER_BYTES, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(parse_record(&bad, 0).is_err(), "flip={flip}");
        }
    }
}
