//! The root-link frame: what a worker's aggregation node sends the root.
//!
//! A frame is `checksum ‖ body`: the checksum in 8 little-endian bytes, the
//! body the rest of the frame — `worker`, `work_done`, `work_total` as
//! varints, a final flag byte, a payload tag byte and the payload. A
//! summary payload is the rest of the body, so neither carries a length
//! prefix; an error's text is a length-prefixed string. The checksum is
//! FNV-1a over the body, so a
//! corrupted frame (fault injection or a real flaky transport) is
//! *detected* and dropped instead of silently merging garbage — a single
//! flipped bit inside summary bytes would otherwise decode fine and skew
//! the result. [`WorkerMsg::decode`] is total: arbitrary bytes give an
//! error or the one message whose encoding they are, never a panic and
//! never an allocation larger than the frame.

use crate::error::{EngineError, EngineResult};
use bytes::Bytes;
use hillview_columnar::{fnv1a, FNV_OFFSET};
use hillview_net::{Wire as _, WireReader, WireWriter};

/// One message from a worker's aggregation node to the root. Progress is
/// in row-weighted work units (each piece's span of rows + 1), so split
/// pieces advance the bar smoothly.
#[derive(Debug, PartialEq)]
pub(crate) struct WorkerMsg {
    pub(crate) worker: u32,
    pub(crate) work_done: u64,
    pub(crate) work_total: u64,
    pub(crate) is_final: bool,
    pub(crate) payload: MsgPayload,
}

#[derive(Debug, PartialEq)]
pub(crate) enum MsgPayload {
    Summary(Vec<u8>),
    DatasetMissing(u64),
    WorkerDown,
    Error(String),
    /// Liveness beacon: sent on every batch tick with no new merge so the
    /// root's `worker_timeout` sweep can tell "slow" from "dead".
    Heartbeat,
    /// A leaf task (or the aggregation node itself) panicked; carries the
    /// panic message so the root rebuilds a structured
    /// [`EngineError::LeafPanicked`].
    LeafPanicked(String),
}

impl WorkerMsg {
    pub(crate) fn encode(&self) -> Bytes {
        seal(&self.encode_body())
    }

    fn encode_body(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.put_varint(self.worker as u64);
        w.put_varint(self.work_done);
        w.put_varint(self.work_total);
        w.put_u8(self.is_final as u8);
        match &self.payload {
            MsgPayload::Summary(b) => {
                w.put_u8(0);
                w.put_raw(b);
            }
            MsgPayload::DatasetMissing(d) => {
                w.put_u8(1);
                w.put_varint(*d);
            }
            MsgPayload::WorkerDown => w.put_u8(2),
            MsgPayload::Error(e) => {
                w.put_u8(3);
                w.put_str(e);
            }
            MsgPayload::Heartbeat => w.put_u8(4),
            MsgPayload::LeafPanicked(m) => {
                w.put_u8(5);
                w.put_str(m);
            }
        }
        w.finish()
    }

    pub(crate) fn decode(bytes: Bytes) -> EngineResult<Self> {
        let Some((sum, body)) = bytes.split_first_chunk::<8>() else {
            return Err(EngineError::Wire(
                "WorkerMsg shorter than its checksum".into(),
            ));
        };
        if fnv1a(FNV_OFFSET, body) != u64::from_le_bytes(*sum) {
            return Err(EngineError::Wire("WorkerMsg checksum mismatch".into()));
        }
        let body = bytes.slice(8..);
        let mut r = WireReader::new(body.clone());
        let worker = u32::decode(&mut r)?;
        let work_done = r.get_varint()?;
        let work_total = r.get_varint()?;
        let is_final = r.get_u8()? != 0;
        let payload = match r.get_u8()? {
            0 => MsgPayload::Summary(body[body.len() - r.remaining()..].to_vec()),
            1 => MsgPayload::DatasetMissing(r.get_varint()?),
            2 => MsgPayload::WorkerDown,
            3 => MsgPayload::Error(r.get_str()?),
            4 => MsgPayload::Heartbeat,
            5 => MsgPayload::LeafPanicked(r.get_str()?),
            tag => {
                return Err(EngineError::Wire(format!("bad WorkerMsg tag {tag}")));
            }
        };
        let msg = WorkerMsg {
            worker,
            work_done,
            work_total,
            is_final,
            payload,
        };
        // A body is a message only if it is that message's encoding. That
        // is full consumption — what `Wire::from_bytes` requires of a
        // summary: bytes after the payload are not part of it — and it also
        // refuses a padded varint and a flag byte other than 0 or 1, so no
        // two frames carry one message.
        if msg.encode_body() != body {
            return Err(EngineError::Wire("WorkerMsg body is not canonical".into()));
        }
        Ok(msg)
    }
}

/// The frame around `body`: its checksum, then the body.
fn seal(body: &[u8]) -> Bytes {
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&fnv1a(FNV_OFFSET, body).to_le_bytes());
    frame.extend_from_slice(body);
    Bytes::from(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fixed message per payload tag.
    fn samples() -> Vec<WorkerMsg> {
        let msg = |worker, work_done, work_total, is_final, payload| WorkerMsg {
            worker,
            work_done,
            work_total,
            is_final,
            payload,
        };
        vec![
            msg(
                1,
                12_345,
                99_999,
                true,
                MsgPayload::Summary((0..20).collect()),
            ),
            msg(0, 0, 0, true, MsgPayload::DatasetMissing(42)),
            msg(3, 0, 0, true, MsgPayload::WorkerDown),
            msg(
                2,
                5,
                10,
                true,
                MsgPayload::Error("no column \"Nope\"".into()),
            ),
            msg(1, 7, 40_008, false, MsgPayload::Heartbeat),
            msg(
                300,
                0,
                0,
                true,
                MsgPayload::LeafPanicked("injected leaf panic".into()),
            ),
        ]
    }

    /// Golden frames: [`samples`] in the frame that writes its checksum in
    /// 8 fixed bytes and no length prefix for the body or a summary
    /// payload, each the rest of what holds it. Bytes at the root are a
    /// gated benchmark metric: a change here moves `root_kb_per_op`.
    #[test]
    fn frames_are_pinned_byte_for_byte() {
        let golden = [
            "14196498ef42a40d01b9609f8d060100000102030405060708090a0b0c0d0e0f10111213",
            "e981b824fa013fcf00000001012a",
            "413a7ea2039b6ef10300000102",
            "634a4e58bf999df402050a0103106e6f20636f6c756d6e20224e6f706522",
            "d56afd6f8b076bd30107c8b8020004",
            "1dc115713cbd0b5eac020000010513696e6a6563746564206c6561662070616e6963",
        ];
        for (msg, hex) in samples().iter().zip(golden) {
            let frame = msg.encode();
            let got: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{msg:?}");
            assert_eq!(&WorkerMsg::decode(frame).unwrap(), msg);
        }
    }

    #[test]
    fn worker_msg_decode_rejects_corruption() {
        // Satellite of the wire-corruption work: every mutation of an
        // encoded root-link frame must yield a structured error (checksum
        // or parse), never a panic — and single-bit flips must never
        // decode into a different valid message.
        let msg = WorkerMsg {
            worker: 1,
            work_done: 12_345,
            work_total: 99_999,
            is_final: true,
            payload: MsgPayload::Summary(vec![7u8; 64]),
        };
        let good = msg.encode();
        assert!(WorkerMsg::decode(good.clone()).is_ok());
        // Truncations at every boundary.
        for cut in 0..good.len() {
            let t = Bytes::from(good[..cut].to_vec());
            assert!(WorkerMsg::decode(t).is_err(), "truncated at {cut}");
        }
        // Every single-bit flip: must error, or — when the flip lands in
        // varint overflow bits that don't change the decoded value —
        // decode to the *identical* message. Never a different one.
        let reference = msg.encode_body();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut m = good.to_vec();
                m[byte] ^= 1 << bit;
                if let Ok(decoded) = WorkerMsg::decode(Bytes::from(m)) {
                    assert_eq!(
                        decoded.encode_body(),
                        reference,
                        "bit flip at byte {byte} bit {bit} decoded to a different message"
                    );
                }
            }
        }
    }

    /// A correctly sealed body is still only a message if the payload ends
    /// where the body does. A summary payload is the rest of the body, so
    /// a byte after it is one more byte of the summary.
    #[test]
    fn trailing_bytes_after_the_payload_are_rejected() {
        for msg in samples() {
            let mut body = msg.encode_body().to_vec();
            assert_eq!(WorkerMsg::decode(seal(&body)).unwrap(), msg);
            body.push(0);
            match (&msg.payload, WorkerMsg::decode(seal(&body))) {
                (MsgPayload::Summary(b), Ok(longer)) => {
                    let b = [&b[..], &[0]].concat();
                    assert_eq!(longer.payload, MsgPayload::Summary(b));
                }
                (_, Err(e)) => assert!(matches!(e, EngineError::Wire(_)), "{msg:?}: {e}"),
                (_, Ok(other)) => panic!("{msg:?} took a trailing byte: {other:?}"),
            }
        }
    }

    /// A frame shorter than its checksum is refused, whatever it holds.
    #[test]
    fn a_frame_shorter_than_its_checksum_is_refused() {
        for len in 0..8 {
            let e = WorkerMsg::decode(Bytes::from(vec![0u8; len])).unwrap_err();
            assert!(matches!(e, EngineError::Wire(_)), "{len} bytes: {e}");
        }
    }

    /// Decoding is total beneath the checksum. The loop mutates the *body*
    /// of a frame of every tag and re-seals it, so each mutant reaches the
    /// parser instead of dying at the checksum: it must be an error, or a
    /// message that encodes back to the mutant's own bytes — so no two
    /// frames carry the same message and none smuggles bytes past it.
    #[test]
    fn decoding_a_mutated_body_is_total() {
        // SplitMix64: the mutants are a pure function of the seed.
        let mut state = 0x5EED_0FF2_A3E5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let max_varint = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let (mut rejected, mut accepted) = (0u32, 0u32);
        for msg in samples() {
            let body = msg.encode_body().to_vec();
            // Where the payload tag sits: after three varints and the flag.
            let tag_at = {
                let mut r = WireReader::new(Bytes::from(body.clone()));
                for _ in 0..3 {
                    r.get_varint().unwrap();
                }
                body.len() - r.remaining() + 1
            };
            for round in 0..2_000 {
                let mut m = body.clone();
                let at = next() as usize % m.len();
                match round % 7 {
                    // A flipped bit, or two.
                    0 | 1 => {
                        for _ in 0..=round % 2 {
                            let bit = next() as usize % (m.len() * 8);
                            m[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                    // Cut short.
                    2 => m.truncate(at),
                    // A varint field (or whatever sits at `at`) overwritten
                    // with u64::MAX: a worker id past u32, a work count or
                    // dataset id at the top of its range, a length no body
                    // can back.
                    3 => {
                        let at = if round % 2 == 0 { 0 } else { at };
                        m.splice(at..at + 1, max_varint);
                    }
                    // The string length right after the tag inflated past
                    // what the body holds. A summary payload has no length:
                    // there the varint is more payload bytes.
                    4 => {
                        let grow = 1 + next() % 200;
                        m.splice(tag_at + 1..(tag_at + 2).min(m.len()), {
                            let mut w = WireWriter::new();
                            w.put_varint(body.len() as u64 + grow);
                            w.finish().to_vec()
                        });
                    }
                    // A tag no payload has.
                    5 => m[tag_at] = 6 + (next() % 250) as u8,
                    // Another payload's tag over this payload's bytes: as a
                    // summary, they are its payload.
                    _ => m[tag_at] = (next() % 6) as u8,
                }
                let frame = seal(&m);
                match WorkerMsg::decode(frame.clone()) {
                    Err(_) => rejected += 1,
                    Ok(decoded) => {
                        accepted += 1;
                        assert_eq!(decoded.encode(), frame, "{msg:?} round {round}: {m:02x?}");
                    }
                }
            }
        }
        // The loop reached both sides of the parser.
        assert!(
            rejected > 1_000 && accepted > 100,
            "{rejected} / {accepted}"
        );
    }
}
