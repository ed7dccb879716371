//! `cb-net` — the real wire under the cloud-bursting runtime.
//!
//! The paper's head/master/slave architecture (§III-B) runs in
//! `cloudburst-core` as threads in one process. This crate puts the
//! head↔master control plane on an actual network so a run can span OS
//! processes and machines:
//!
//! * [`wire`] — the versioned, length-prefixed binary protocol (handshake,
//!   job batches, lease resolution, heartbeats, reduction-object shipping);
//! * [`robj`] — canonical byte encodings for shipped reduction objects
//!   ([`robj::RobjCodec`]), exact and arrival-order independent so a
//!   distributed run reproduces the single-process result *byte for byte*;
//! * [`transport`] — framed links over TCP, with deadlines and
//!   capped+jittered reconnect;
//! * [`head`] — the head process: accepts workers and drives the shared
//!   head core ([`cloudburst_core::Head`]: job pool, result slots, global
//!   reduction, report) from frames received off the wire; detects peer
//!   loss by heartbeat and forfeits a dead worker's work back into the pool;
//! * [`worker`] — the worker process: one cluster (master + slaves) driven
//!   by `cloudburst_core::run_cluster`, reaching the head through a
//!   TCP-backed [`cloudburst_core::HeadPort`].
//!
//! The in-process runtime is the loopback special case: `run_cluster`
//! cannot tell a lock around the head from a socket — both are just a
//! [`cloudburst_core::HeadPort`] in front of the same head core.

pub mod head;
pub mod robj;
pub mod transport;
pub mod wire;
pub mod worker;

pub use head::{run_head, serve_head, HeadPeer, PeerSpec};
pub use robj::RobjCodec;
pub use transport::{connect_with_backoff, split_tcp, LinkRx, LinkTx, NetConfig};
pub use wire::{Message, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use worker::{run_worker, NetError, WorkerSpec};

use cb_storage::layout::{DatasetLayout, Placement};

/// FNV-1a fingerprint over the dataset layout, placement, and application
/// tag. Head and workers must compute identical fingerprints from their own
/// index/arguments; a mismatch (different dataset, different chunking,
/// different app parameters) is rejected at handshake instead of silently
/// producing a wrong answer.
pub fn fingerprint(layout: &DatasetLayout, placement: &Placement, app_tag: &str) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(app_tag.as_bytes());
    for f in &layout.files {
        eat(f.name.as_bytes());
        eat(&f.size.to_le_bytes());
    }
    for c in &layout.chunks {
        eat(&c.file.0.to_le_bytes());
        eat(&c.offset.to_le_bytes());
        eat(&c.len.to_le_bytes());
        eat(&c.units.to_le_bytes());
    }
    for i in 0..placement.n_files() {
        eat(&placement
            .home(cb_storage::layout::FileId(i as u32))
            .0
            .to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, ChunkMeta, FileId, FileMeta, LocationId};

    fn layout() -> DatasetLayout {
        DatasetLayout {
            files: vec![FileMeta {
                id: FileId(0),
                name: "f0".into(),
                size: 8,
            }],
            chunks: vec![ChunkMeta {
                id: ChunkId(0),
                file: FileId(0),
                offset: 0,
                len: 8,
                units: 1,
            }],
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_inputs() {
        let l = layout();
        let p = Placement::all_at(1, LocationId(0));
        let base = fingerprint(&l, &p, "wordcount");
        assert_eq!(base, fingerprint(&l, &p, "wordcount"), "deterministic");
        assert_ne!(base, fingerprint(&l, &p, "knn"), "app tag matters");
        let p2 = Placement::all_at(1, LocationId(3));
        assert_ne!(base, fingerprint(&l, &p2, "wordcount"), "placement matters");
        let mut l2 = l.clone();
        l2.chunks[0].len = 4;
        assert_ne!(base, fingerprint(&l2, &p, "wordcount"), "layout matters");
    }
}
