//! Wire-protocol property tests: every op round-trips bit-exactly, and
//! no input — truncated, bit-flipped, oversized, or pure garbage — can
//! make a decoder panic or allocate unboundedly. Corruption always
//! surfaces as a clean [`ProtocolError`].

use bifrost::DataCenterId;
use bytes::Bytes;
use indexgen::IndexKind;
use net::wire::{
    self, decode_request, decode_response, encode_request, encode_response, read_frame,
    DcGeneration, ErrorCode, ProtocolError, ReadFrame, Request, Response, WireHit,
    PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_dc() -> impl Strategy<Value = DataCenterId> {
    (0..DataCenterId::all().len()).prop_map(|i| DataCenterId::all()[i])
}

fn arb_kind() -> impl Strategy<Value = IndexKind> {
    prop_oneof![
        Just(IndexKind::Forward),
        Just(IndexKind::Summary),
        Just(IndexKind::Inverted),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_dc(),
            proptest::collection::vec(arb_bytes(24), 0..6),
            any::<u64>(),
            any::<u32>(),
        )
            .prop_map(|(dc, terms, version, top_k)| Request::Get {
                dc,
                terms,
                version,
                top_k,
            }),
        (
            arb_dc(),
            arb_kind(),
            arb_bytes(16),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(|(dc, kind, prefix, version, limit)| Request::ScanPrefix {
                dc,
                kind,
                prefix,
                version,
                limit,
            }),
        Just(Request::Status),
        Just(Request::Introspect),
    ]
}

fn arb_hit() -> impl Strategy<Value = WireHit> {
    (
        arb_bytes(24),
        any::<u32>(),
        proptest::option::of(arb_bytes(40)),
    )
        .prop_map(|(url, matched_terms, summary)| WireHit {
            url,
            matched_terms,
            summary,
        })
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::Internal),
    ]
}

fn arb_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|v| String::from_utf8_lossy(&v).into_owned())
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<bool>(), proptest::collection::vec(arb_hit(), 0..5))
            .prop_map(|(degraded, hits)| Response::Hits { degraded, hits }),
        (
            any::<bool>(),
            proptest::collection::vec((arb_bytes(16), any::<u64>(), arb_bytes(32)), 0..5),
        )
            .prop_map(|(truncated, items)| Response::Scan { items, truncated }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((arb_dc(), any::<u64>()), 0..6),
        )
            .prop_map(
                |(current_version, min_live_version, gens)| Response::Status {
                    current_version,
                    min_live_version,
                    generations: gens
                        .into_iter()
                        .map(|(dc, generation)| DcGeneration { dc, generation })
                        .collect(),
                }
            ),
        arb_string(64).prop_map(|json| Response::Introspect { json }),
        (arb_error_code(), arb_string(48))
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request op round-trips bit-exactly with its id and trace id.
    #[test]
    fn request_round_trips(id in any::<u64>(), trace in any::<u64>(), req in arb_request()) {
        let frame = encode_request(id, trace, &req);
        let (got_id, got_trace, got) = decode_request(&frame[4..]).expect("well-formed frame");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got_trace, trace);
        prop_assert_eq!(got, req);
    }

    /// Every response op round-trips bit-exactly with its id and trace id.
    #[test]
    fn response_round_trips(id in any::<u64>(), trace in any::<u64>(), resp in arb_response()) {
        let frame = encode_response(id, trace, &resp);
        let (got_id, got_trace, got) = decode_response(&frame[4..]).expect("well-formed frame");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got_trace, trace);
        prop_assert_eq!(got, resp);
    }

    /// Any truncation of a valid frame decodes to a clean error, never a
    /// wrong value and never a panic.
    #[test]
    fn truncation_is_a_clean_error(req in arb_request(), cut in any::<u64>()) {
        let frame = encode_request(9, 11, &req);
        let body = &frame[4..];
        let cut = cut as usize % body.len(); // 0..len-1: always shorter than full
        prop_assert!(decode_request(&body[..cut]).is_err());
    }

    /// Any single bit flip anywhere in the body is caught by the CRC.
    #[test]
    fn bit_flips_fail_the_checksum(
        req in arb_request(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = encode_request(3, 5, &req);
        let mut body = frame[4..].to_vec();
        let pos = pos as usize % body.len();
        body[pos] ^= 1 << bit;
        prop_assert_eq!(decode_request(&body).unwrap_err(), ProtocolError::BadChecksum);
    }

    /// Pure garbage never panics either decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Fuzzing the version byte of an otherwise valid frame: every
    /// version but the one this build speaks — 1 included — is a clean
    /// `BadVersion`. The CRC is recomputed, so the checksum passes and
    /// only the version byte, which is checked after it, is under test.
    #[test]
    fn version_byte_fuzz(v in any::<u8>(), req in arb_request()) {
        let frame = encode_request(1, 7, &req);
        let mut body = frame[4..].to_vec();
        body[0] = v;
        let crc_at = body.len() - 4;
        let crc = wire::crc32(&body[..crc_at]).to_le_bytes();
        body[crc_at..].copy_from_slice(&crc);
        if v == PROTOCOL_VERSION {
            prop_assert_eq!(decode_request(&body), Ok((1, 7, req)));
        } else {
            prop_assert_eq!(
                decode_request(&body).unwrap_err(),
                ProtocolError::BadVersion(v)
            );
        }
    }

    /// `read_frame` on an arbitrary byte stream never panics, never
    /// yields a frame above the cap, and rejects oversized claims
    /// before allocating.
    #[test]
    fn read_frame_respects_the_cap(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let max = 64;
        let mut cursor: &[u8] = &bytes;
        match read_frame(&mut cursor, max) {
            Ok(ReadFrame::Frame(body)) => prop_assert!(body.len() <= max),
            Ok(ReadFrame::Eof) => prop_assert!(bytes.is_empty()),
            Err(_) => {}
        }
    }
}

/// An oversized length claim surfaces as `FrameTooLarge` (wrapped in
/// `InvalidData`) without touching the body.
#[test]
fn oversized_claim_names_the_cap() {
    let mut frame = encode_request(1, 0, &Request::Status);
    let huge = (wire::DEFAULT_MAX_FRAME as u32 + 1).to_le_bytes();
    frame[..4].copy_from_slice(&huge);
    let mut cursor: &[u8] = &frame;
    let err = read_frame(&mut cursor, wire::DEFAULT_MAX_FRAME).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let inner = err.get_ref().expect("carries the protocol error");
    assert!(inner.to_string().contains("exceeds max"));
}

/// A frame cut mid-body by a peer death is `UnexpectedEof`, distinct
/// from the clean `Eof` at a frame boundary.
#[test]
fn eof_mid_frame_is_truncation() {
    let frame = encode_request(1, 0, &Request::Status);
    let mut cursor: &[u8] = &frame[..frame.len() - 3];
    let err = read_frame(&mut cursor, wire::DEFAULT_MAX_FRAME).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

    let mut empty: &[u8] = &[];
    assert!(matches!(
        read_frame(&mut empty, wire::DEFAULT_MAX_FRAME).unwrap(),
        ReadFrame::Eof
    ));
}
