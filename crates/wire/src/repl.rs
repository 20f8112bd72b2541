//! Replication stream messages: `ReplHello` / `ReplBatch` / `ReplAck`.
//!
//! A follower dials the primary's replication listener and the two speak
//! [`ReplMsg`] over the ordinary framed connection ([`crate::conn`]):
//!
//! 1. follower → [`ReplMsg::Hello`] — version, token, and the last
//!    ticket its replica log holds durably (resume point);
//! 2. primary → [`ReplMsg::Welcome`] (or [`ReplMsg::Fault`] and close);
//! 3. primary → [`ReplMsg::Batch`]* — **raw WAL frames in global ticket
//!    order**, each still wearing the golden-pinned `len|crc|seq|payload`
//!    envelope ([`crate::frame`]) exactly as it sits in the primary's
//!    log, so the follower appends bytes it can re-verify and the
//!    converged log prefix is byte-identical once sorted by ticket;
//! 4. follower → [`ReplMsg::Ack`] per batch — the highest ticket now
//!    durable in its replica log (under its own durability level).
//!
//! A batch also carries the primary's **positions at sample time**: its
//! stable watermark and the last ticket it had issued when that
//! watermark was read. The pair is what lets a lagging follower serve
//! *consistent-prefix* snapshot reads: every commit with timestamp ≤
//! `watermark` already had a ticket ≤ `ticket` when the sample was taken
//! (timestamps are allocated before the commit record is ticketed, and
//! the watermark excludes everything still in flight), so once the
//! follower has applied all tickets up to `ticket`, exposing `watermark`
//! to readers can never show a history with a hole in it. An empty
//! batch is a heartbeat refreshing exactly those positions.
//!
//! Codecs follow the [`crate::msg`] discipline: strict, length-checked,
//! trailing bytes refused — a malformed replication message closes the
//! stream (the follower re-dials and resumes from its durable ticket).

use crate::msg::{put_str, put_u32, put_u64, Cursor, WireMsg};

/// The replication protocol version [`ReplMsg::Hello`] negotiates —
/// independent of the client protocol's [`crate::msg::PROTOCOL_VERSION`].
pub const REPL_PROTOCOL_VERSION: u32 = 1;

/// One replication-stream message. The stream is strictly alternating
/// after the handshake: the primary sends batches, the follower answers
/// each with an ack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplMsg {
    /// `ReplHello` — the follower's opener.
    Hello {
        /// Replication protocol version ([`REPL_PROTOCOL_VERSION`]).
        version: u32,
        /// Auth token (same stub as the client handshake).
        token: String,
        /// The last ticket durable in the follower's replica log; the
        /// primary resumes the stream at `last_ticket + 1`.
        last_ticket: u64,
    },
    /// The primary accepted the `ReplHello`.
    Welcome {
        /// The primary's replication protocol version.
        version: u32,
        /// The last ticket the primary's log held at accept time.
        frontier: u64,
    },
    /// `ReplBatch` — zero or more raw WAL frames in ticket order, plus
    /// the primary's sampled positions (an empty batch is a heartbeat).
    Batch {
        /// The primary's stable watermark, read **before** `ticket`.
        watermark: u64,
        /// The last ticket the primary had issued when `watermark` was
        /// sampled — the follower may expose `watermark` to readers once
        /// it has applied every ticket up to this one.
        ticket: u64,
        /// Concatenated WAL frames (`len|crc|seq|payload` each), strictly
        /// ascending in `seq`. Empty for a heartbeat.
        frames: Vec<u8>,
    },
    /// `ReplAck` — the highest ticket now durable in the replica log.
    Ack {
        /// Durable ticket (0 = nothing yet).
        ticket: u64,
    },
    /// The primary refused the handshake or the stream.
    Fault {
        /// Why, in prose.
        detail: String,
    },
}

impl WireMsg for ReplMsg {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            ReplMsg::Hello { version, token, last_ticket } => {
                out.push(1);
                put_u32(out, *version);
                put_str(out, token);
                put_u64(out, *last_ticket);
            }
            ReplMsg::Welcome { version, frontier } => {
                out.push(2);
                put_u32(out, *version);
                put_u64(out, *frontier);
            }
            ReplMsg::Batch { watermark, ticket, frames } => {
                out.push(3);
                put_u64(out, *watermark);
                put_u64(out, *ticket);
                put_u32(out, frames.len() as u32);
                out.extend_from_slice(frames);
            }
            ReplMsg::Ack { ticket } => {
                out.push(4);
                put_u64(out, *ticket);
            }
            ReplMsg::Fault { detail } => {
                out.push(5);
                put_str(out, detail);
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Option<ReplMsg> {
        let mut c = Cursor::new(bytes);
        let msg = match c.u8()? {
            1 => ReplMsg::Hello { version: c.u32()?, token: c.str()?, last_ticket: c.u64()? },
            2 => ReplMsg::Welcome { version: c.u32()?, frontier: c.u64()? },
            3 => {
                let watermark = c.u64()?;
                let ticket = c.u64()?;
                let n = c.u32()?;
                let frames = c.take(n as usize)?.to_vec();
                ReplMsg::Batch { watermark, ticket, frames }
            }
            4 => ReplMsg::Ack { ticket: c.u64()? },
            5 => ReplMsg::Fault { detail: c.str()? },
            _ => return None,
        };
        c.done().then_some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame_into;

    fn messages() -> Vec<ReplMsg> {
        let mut frames = Vec::new();
        encode_frame_into(11, b"first", &mut frames);
        encode_frame_into(12, b"", &mut frames);
        vec![
            ReplMsg::Hello { version: REPL_PROTOCOL_VERSION, token: "t".into(), last_ticket: 10 },
            ReplMsg::Welcome { version: REPL_PROTOCOL_VERSION, frontier: 42 },
            ReplMsg::Batch { watermark: 9, ticket: 12, frames },
            ReplMsg::Batch { watermark: 0, ticket: 0, frames: Vec::new() },
            ReplMsg::Ack { ticket: 12 },
            ReplMsg::Fault { detail: "bad token".into() },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in messages() {
            let mut buf = Vec::new();
            msg.encode_payload(&mut buf);
            assert_eq!(ReplMsg::decode_payload(&buf).as_ref(), Some(&msg), "roundtrip {msg:?}");
            let mut longer = buf.clone();
            longer.push(0);
            assert_eq!(ReplMsg::decode_payload(&longer), None, "trailing byte for {msg:?}");
            for cut in 0..buf.len() {
                let _ = ReplMsg::decode_payload(&buf[..cut]);
            }
        }
    }

    #[test]
    fn unknown_tags_are_refused() {
        assert_eq!(ReplMsg::decode_payload(&[99]), None);
        assert_eq!(ReplMsg::decode_payload(&[]), None);
    }

    #[test]
    fn batch_frames_survive_the_trip_byte_identically() {
        let mut frames = Vec::new();
        encode_frame_into(7, b"payload", &mut frames);
        let msg = ReplMsg::Batch { watermark: 3, ticket: 7, frames: frames.clone() };
        let mut buf = Vec::new();
        msg.encode_payload(&mut buf);
        match ReplMsg::decode_payload(&buf) {
            Some(ReplMsg::Batch { frames: got, .. }) => assert_eq!(got, frames),
            other => panic!("decoded {other:?}"),
        }
    }
}
