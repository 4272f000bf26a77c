//! Store-aware `studyd` fleet tier: remote recall and segment shipping.
//!
//! A fleet node holds a static peer list. On a `RunCache` miss that also
//! misses its local disk tier, it asks each peer in turn for the record
//! — over the same line-delimited JSON-over-TCP framing `studyd` already
//! speaks — and only runs the simulator when the whole fleet misses
//! (memory → disk → fleet → compute). Peers ship the *raw encoded
//! record* (header, key bytes, payload), and the requesting side runs
//! the exact read-back verification the disk tier runs: FNV-1a checksum
//! plus byte-for-byte key equality ([`verify_remote_record`]). A
//! poisoned or damaged peer record therefore becomes a miss, never a
//! wrong answer. (The `fleet-poison-bug` mutant in `mutants/` plants the
//! obvious bug — trusting the peer blindly — mirroring runstore's
//! `store-corruption-bug`.)
//!
//! Besides per-record recall, the crate implements anti-entropy segment
//! shipping: [`FleetTier::sync_segments`] requests each peer's segment
//! inventory and pulls whole segments as opaque bytes; the local
//! `runstore` verifies every shipped record against its checksum and
//! lands the verified set as a fresh per-process segment file (the
//! scan-on-open union already handles foreign segments). This crate
//! never touches the filesystem — it ships bytes and hands them to
//! `runstore`, which owns all disk access.
//!
//! Module map: [`wire`] is the request/response line codec (shared by
//! this crate's client and the `studyd` server), [`client`] the blocking
//! per-peer TCP client, [`tier`] the [`simcore::RemoteTier`]
//! implementation with its counters, and [`hex`] the byte encoding used
//! on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod hex;
pub mod tier;
pub mod wire;

pub use client::PeerClient;
pub use tier::{FleetCounters, FleetTier, SyncReport};
pub use wire::{FleetReply, FleetRequest};

use runstore::RecordId;

/// Hard cap on one reply line read from a peer, bytes. The largest
/// legitimate reply is a hex-encoded whole segment (a segment rotates
/// past 8 MiB and a single record can add up to ~16 MiB, so the hex
/// doubles that); anything bigger is framing damage or abuse.
pub const MAX_REPLY_BYTES: usize = 96 * 1024 * 1024;

/// Per-call socket timeout on peer connections. A hung or dead peer
/// costs one recall at most this much and then reads as a miss — the
/// study falls back to computing, never wedges.
pub const IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Verifies one raw record shipped by a peer, exactly as the disk
/// tier's read-back does: parse (framing + FNV-1a checksum), then
/// compare the id and the full key bytes, and require the buffer to be
/// exactly one record. Returns the payload on success, `None` — a miss
/// — on any damage or mismatch.
pub fn verify_remote_record(bytes: &[u8], id: RecordId, key: &[u8]) -> Option<Vec<u8>> {
    let record = runstore::parse_record(bytes, 0).ok()?;
    (record.id == id && record.key == key && record.len == bytes.len()).then_some(record.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use runstore::encode_record;

    #[test]
    fn verify_accepts_intact_and_rejects_tampered() {
        let key = b"canonical-key";
        let id = RecordId::of(key, 42);
        let bytes = encode_record(id, key, b"payload");
        assert_eq!(
            verify_remote_record(&bytes, id, key).as_deref(),
            Some(&b"payload"[..])
        );
        // Wrong id or key: a poisoned peer answering for the wrong run.
        assert!(verify_remote_record(&bytes, RecordId::of(key, 43), key).is_none());
        assert!(verify_remote_record(&bytes, id, b"other-key").is_none());
        // Any flipped byte: checksum damage.
        for flip in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x01;
            assert!(verify_remote_record(&bad, id, key).is_none(), "flip={flip}");
        }
        // Trailing garbage: not exactly one record.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(verify_remote_record(&padded, id, key).is_none());
    }
}
