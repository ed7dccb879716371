//! Wire-codec coverage: round-trip property tests for every message type,
//! rejection of truncated and corrupted frames, and the version-mismatch
//! handshake path.

use cb_net::wire::{decode_framed, Message, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use cb_storage::layout::ChunkId;
use cloudburst_core::report::{ClusterAccount, RecoveryStats, SlaveStats};
use cloudburst_core::Resolution;
use proptest::prelude::*;
use std::time::Duration;

fn arb_resolution(tag: u8, chunk: u32) -> Resolution {
    let chunk = ChunkId(chunk);
    match tag % 3 {
        0 => Resolution::Completed(chunk),
        1 => Resolution::Failed(chunk),
        _ => Resolution::Released(chunk),
    }
}

fn arb_report(
    slaves: Vec<(u64, u64, u64, u64)>,
    tail: (u64, u64, u64, u64, u64),
    error: Option<String>,
) -> ClusterAccount {
    ClusterAccount {
        slaves: slaves
            .into_iter()
            .map(|(a, b, c, d)| SlaveStats {
                processing: Duration::from_nanos(a),
                retrieval: Duration::from_nanos(b),
                fetch_stall: Duration::from_nanos(c),
                jobs: d,
                stolen_jobs: a ^ b,
                units: b ^ c,
                bytes_local: c ^ d,
                bytes_remote: d ^ a,
            })
            .collect(),
        recovery: RecoveryStats {
            fetch_failures: tail.0,
            retries: tail.1,
            slaves_retired: tail.2,
            slaves_killed: tail.3,
            jobs_reenqueued: 0,
        },
        wall: Duration::from_nanos(tail.4),
        error,
    }
}

/// Frame-level round trip shared by every case below, which between them
/// cover every `Message` variant.
fn round_trip(msg: Message) {
    let frame = msg.encode_frame().expect("within frame cap");
    let (back, used) = decode_framed(&frame)
        .expect("decodable")
        .expect("complete frame");
    assert_eq!(back, msg);
    assert_eq!(used, frame.len(), "frame fully consumed");
    // The frame is the payload behind its `u32` LE length.
    let payload = msg.encode();
    assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
    assert_eq!(frame[4..], payload[..]);
    // And the payload decoder rejects trailing garbage.
    let mut padded = payload;
    padded.push(0);
    assert_eq!(Message::decode(&padded), Err(WireError::Trailing(1)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn hello_round_trips(
        version in any::<u16>(),
        cluster in any::<u32>(),
        location in any::<u16>(),
        cores in any::<u32>(),
        name in "[a-z0-9-]{0,24}",
        app in "[a-z]{1,12}",
        fingerprint in any::<u64>(),
    ) {
        round_trip(Message::Hello { version, cluster, location, cores, name, app, fingerprint });
    }

    fn welcome_round_trips(
        version in any::<u16>(),
        heartbeat_ms in any::<u64>(),
        fingerprint in any::<u64>(),
    ) {
        round_trip(Message::Welcome { version, heartbeat_ms, fingerprint });
    }

    fn reject_round_trips(reason in "[ -~]{0,64}") {
        round_trip(Message::Reject { reason });
    }

    fn job_request_round_trips(seq in any::<u64>()) {
        round_trip(Message::JobRequest { seq });
    }

    fn job_grant_round_trips(
        seq in any::<u64>(),
        jobs in prop::collection::vec(any::<u32>(), 0..64),
        stolen in any::<bool>(),
        exhausted in any::<bool>(),
    ) {
        round_trip(Message::JobGrant { seq, jobs, stolen, exhausted });
    }

    fn resolve_round_trips(chunk in any::<u32>(), tag in any::<u8>()) {
        round_trip(Message::Resolve(arb_resolution(tag, chunk)));
    }

    fn heartbeat_round_trips(seq in any::<u64>()) {
        round_trip(Message::Heartbeat { seq });
    }

    fn robj_ship_round_trips(
        robj in prop::collection::vec(any::<u8>(), 0..512),
        slaves in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..6),
        tail in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        has_error in any::<bool>(),
        error_text in "[ -~]{0,48}",
    ) {
        let error = has_error.then_some(error_text);
        round_trip(Message::RobjShip { robj, report: arb_report(slaves, tail, error) });
    }

    fn bare_messages_round_trip(which in any::<bool>()) {
        round_trip(if which { Message::ShipAck } else { Message::Goodbye });
    }

    /// Every proper prefix of any frame decodes as "incomplete", never as a
    /// wrong message and never as a panic.
    fn truncation_never_misparses(
        jobs in prop::collection::vec(any::<u32>(), 0..16),
        seq in any::<u64>(),
    ) {
        for msg in [
            Message::JobGrant { seq, jobs: jobs.clone(), stolen: true, exhausted: false },
            Message::Heartbeat { seq },
        ] {
            let frame = msg.encode_frame().expect("within frame cap");
            for cut in 0..frame.len() {
                prop_assert_eq!(decode_framed(&frame[..cut]).unwrap(), None);
            }
            // Truncating the *payload* while keeping an honest length prefix
            // must error, not misparse.
            if frame.len() > 5 {
                let payload = &frame[4..frame.len() - 1];
                prop_assert_eq!(Message::decode(payload), Err(WireError::Truncated));
            }
        }
    }

    /// Flipping the tag byte to an unassigned value is rejected.
    fn unknown_tags_rejected(tag in 11u8..=255) {
        let mut payload = Message::Goodbye.encode();
        payload[0] = tag;
        prop_assert_eq!(Message::decode(&payload), Err(WireError::BadTag(tag)));
    }
}

/// Send-side mirror of the length cap: a reduction object too large for
/// one frame fails at encode with a precise error instead of being shipped
/// and killing the link at the receiver.
#[test]
fn oversized_robj_rejected_at_encode() {
    let msg = Message::RobjShip {
        robj: vec![0u8; MAX_FRAME_BYTES],
        report: ClusterAccount::default(),
    };
    assert!(matches!(
        msg.encode_frame(),
        Err(WireError::FrameTooLarge(n)) if n > MAX_FRAME_BYTES
    ));
}

#[test]
fn corrupted_length_prefix_is_rejected_not_allocated() {
    let mut frame = Message::Heartbeat { seq: 1 }.encode_frame().unwrap();
    frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert_eq!(
        decode_framed(&frame),
        Err(WireError::FrameTooLarge(u32::MAX as usize))
    );
    assert!(MAX_FRAME_BYTES < u32::MAX as usize);
}

#[test]
fn corrupted_string_length_inside_payload_is_truncated_error() {
    let msg = Message::Reject {
        reason: "nope".into(),
    };
    let mut payload = msg.encode();
    // The string length field sits right after the tag; inflate it far past
    // the payload end.
    payload[1..5].copy_from_slice(&1_000_000u32.to_le_bytes());
    assert_eq!(Message::decode(&payload), Err(WireError::Truncated));
}

#[test]
fn non_utf8_string_rejected() {
    let msg = Message::Reject {
        reason: "ab".into(),
    };
    let mut payload = msg.encode();
    payload[5] = 0xFF; // first string byte -> invalid UTF-8
    assert_eq!(Message::decode(&payload), Err(WireError::BadString));
}

#[test]
fn hello_with_wrong_magic_rejected() {
    let mut payload = Message::Hello {
        version: PROTOCOL_VERSION,
        cluster: 0,
        location: 0,
        cores: 1,
        name: "w0".into(),
        app: "wordcount".into(),
        fingerprint: 1,
    }
    .encode();
    payload[2] ^= 0xFF;
    assert_eq!(Message::decode(&payload), Err(WireError::BadMagic));
}

/// Two frames back-to-back in one buffer decode in order — the stream
/// decoder consumes exactly one frame per call.
#[test]
fn consecutive_frames_decode_in_order() {
    let a = Message::Heartbeat { seq: 1 };
    let b = Message::JobRequest { seq: 2 };
    let mut buf = a.encode_frame().unwrap();
    buf.extend_from_slice(&b.encode_frame().unwrap());
    let (first, used) = decode_framed(&buf).unwrap().unwrap();
    assert_eq!(first, a);
    let (second, used2) = decode_framed(&buf[used..]).unwrap().unwrap();
    assert_eq!(second, b);
    assert_eq!(used + used2, buf.len());
}
