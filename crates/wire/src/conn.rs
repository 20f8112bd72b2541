//! Framed TCP connections: the only place in the workspace that touches
//! raw sockets.
//!
//! A [`Conn`] wraps a `TcpStream` and splits into a [`SendHalf`] and a
//! [`RecvHalf`] (independent OS handles onto the same socket), so a
//! client may pipeline requests from one thread while another drains
//! responses, and a server session may be torn down from outside its
//! blocked reader via [`RecvHalf::shutdown`].
//!
//! Every message travels inside the shared [`crate::frame`] envelope
//! with the **request id** in the `seq` field. The receive path enforces
//! [`crate::MAX_WIRE_PAYLOAD`] *before* allocating — a garbage or
//! hostile length field is refused as [`FrameError::BadLength`], never
//! trusted as an allocation size. A connection that delivers a torn or
//! corrupt frame is not resynchronized by guesswork: the error is
//! surfaced and the session closes.
//!
//! ## One read per frame
//!
//! A [`RecvHalf`] owns a receive buffer and parses frames out of it: one
//! `read` fetches whatever the socket holds — a whole small frame, or a
//! pipelined burst of them, which later `recv`s then serve without
//! touching the kernel. Bytes stay in the buffer until a whole frame has
//! been parsed, so a read timeout in the middle of a frame loses nothing:
//! the next `recv` resumes where the last one stopped.
//! [`SendHalf::send`] encodes the payload straight into its frame buffer
//! and hands it to one `write`.
//!
//! [`SendHalf::send_raw`] exists for fault-injection tests (half-written
//! frames, flipped CRC bits) and deliberately bypasses the encoder.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{self, FrameError, HEADER_BYTES};
use crate::msg::WireMsg;
use crate::MAX_WIRE_PAYLOAD;

/// Why a framed receive or send failed.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (includes read timeouts as `WouldBlock`/
    /// `TimedOut`, and EOF that tore a frame mid-header or mid-payload
    /// does **not** land here — that is `Frame(Truncated)`).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode: torn frame at disconnect
    /// (`Truncated`), length beyond the negotiated bound (`BadLength`),
    /// corruption (`BadCrc`), or an unknown/ill-formed message
    /// (`Malformed`).
    Frame(FrameError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Frame(e) => write!(f, "wire frame refused: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Frame(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> WireError {
        WireError::Frame(e)
    }
}

/// A listening socket handing out framed connections.
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` to let the OS pick a port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Listener> {
        Ok(Listener { inner: TcpListener::bind(addr)? })
    }

    /// The bound address (the source of truth when bound to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Block for the next connection.
    pub fn accept(&self) -> std::io::Result<(Conn, SocketAddr)> {
        let (stream, peer) = self.inner.accept()?;
        stream.set_nodelay(true).ok();
        Ok((Conn { stream }, peer))
    }
}

/// Connect to `addr` and return a framed connection.
pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    Ok(Conn { stream })
}

/// One framed, bidirectional connection.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Split into independently-owned send and receive halves (two OS
    /// handles onto the same socket).
    pub fn split(self) -> std::io::Result<(SendHalf, RecvHalf)> {
        let write = self.stream.try_clone()?;
        Ok((
            SendHalf { stream: write, buf: Vec::with_capacity(256) },
            RecvHalf { stream: self.stream, frames: FrameReader::new() },
        ))
    }

    /// The remote endpoint.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }
}

/// The writing half of a [`Conn`].
pub struct SendHalf {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl SendHalf {
    /// Frame and send `msg` stamped with request id `seq`; returns the
    /// bytes put on the wire.
    pub fn send<M: WireMsg>(&mut self, seq: u64, msg: &M) -> std::io::Result<u64> {
        self.buf.clear();
        frame::encode_frame_with(seq, &mut self.buf, |out| msg.encode_payload(out));
        self.stream.write_all(&self.buf)?;
        Ok(self.buf.len() as u64)
    }

    /// Send raw bytes with no framing — fault injection only (torn
    /// frames, flipped CRC bits, oversized length fields).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Shut down the write direction (peer's recv sees clean EOF once
    /// buffered bytes drain).
    pub fn shutdown_write(&self) {
        self.stream.shutdown(Shutdown::Write).ok();
    }

    /// Tear down the whole socket (both directions) — unblocks a peer
    /// or sibling half blocked in recv.
    pub fn shutdown_both(&self) {
        self.stream.shutdown(Shutdown::Both).ok();
    }
}

/// The reading half of a [`Conn`].
pub struct RecvHalf {
    stream: TcpStream,
    frames: FrameReader,
}

/// What one `read` asks for when the buffer is empty: enough for a
/// pipelined burst of small frames, so one kernel crossing serves them
/// all. The buffer grows past this only for a frame that needs it, and
/// returns to it once that frame is consumed.
const READ_CHUNK: usize = 8 * 1024;

/// The receive buffer behind [`RecvHalf`], generic over where its bytes
/// come from so tests can script every way a stream can be chunked.
struct FrameReader {
    /// Zero-initialised to its full length so `read` can fill
    /// `buf[tail..]`; `buf[head..tail]` is received but not yet parsed.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader { buf: vec![0; READ_CHUNK], head: 0, tail: 0 }
    }

    fn recv<M: WireMsg>(
        &mut self,
        src: &mut impl Read,
    ) -> Result<Option<(u64, M, u64)>, WireError> {
        loop {
            let have = &self.buf[self.head..self.tail];
            // Bytes the frame at `head` needs in all: a header first,
            // then — once its length field is in and within bounds —
            // header plus payload.
            let want = if have.len() < HEADER_BYTES {
                HEADER_BYTES
            } else {
                let len = u32::from_le_bytes(have[..4].try_into().expect("a four-byte slice"));
                if len > MAX_WIRE_PAYLOAD {
                    return Err(FrameError::BadLength(len).into());
                }
                HEADER_BYTES + len as usize
            };
            if have.len() >= want {
                let (seq, payload, _) =
                    frame::frame_at_bounded(&have[..want], 0, MAX_WIRE_PAYLOAD)?;
                let msg = M::decode_payload(payload).ok_or(FrameError::Malformed)?;
                self.head += want;
                if self.head == self.tail && self.buf.len() > READ_CHUNK {
                    (self.head, self.tail) = (0, 0);
                    self.buf.truncate(READ_CHUNK);
                    self.buf.shrink_to_fit();
                }
                return Ok(Some((seq, msg, want as u64)));
            }
            if self.fill(src, want)? == 0 {
                return if self.head == self.tail {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated.into())
                };
            }
        }
    }

    /// One `read` into the free end of the buffer, after making room for
    /// a `want`-byte frame starting at `head`. Returns the bytes read (0
    /// = EOF). On an error — a read timeout included — every byte
    /// already buffered stays put for the next attempt.
    fn fill(&mut self, src: &mut impl Read, want: usize) -> std::io::Result<usize> {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        } else if self.head + want > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
        }
        if want > self.buf.len() {
            self.buf.resize(want, 0);
        }
        loop {
            match src.read(&mut self.buf[self.tail..]) {
                Ok(n) => {
                    self.tail += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl RecvHalf {
    /// Block for the next frame. `Ok(None)` is a clean close on a frame
    /// boundary; EOF anywhere inside a frame is
    /// `Err(Frame(Truncated))` — a torn disconnect, refused rather than
    /// partially believed. Returns `(request id, message, wire bytes)`.
    /// A read timeout keeps whatever part of a frame has arrived; the
    /// next call completes it.
    pub fn recv<M: WireMsg>(&mut self) -> Result<Option<(u64, M, u64)>, WireError> {
        self.frames.recv(&mut self.stream)
    }

    /// Are bytes of a further frame already received and not yet
    /// returned by `recv`? `false` means the next `recv` goes to the
    /// kernel: the peer had sent nothing more when this half last read.
    pub fn has_buffered(&self) -> bool {
        self.frames.head < self.frames.tail
    }

    /// Bound how long one `recv` may block (`None` = forever). Timeouts
    /// surface as `WireError::Io` with kind `WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Tear down the whole socket — unblocks this half if parked in
    /// `recv` from another thread holding the send half.
    pub fn shutdown_both(&self) {
        self.stream.shutdown(Shutdown::Both).ok();
    }
}

impl WireError {
    /// Was this a read timeout (socket alive, nothing arrived in time)?
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_crc;
    use crate::msg::{Request, Response, WireFault, WireOp};
    use crate::repl::ReplMsg;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn pair() -> (Conn, Conn) {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn pipelined_requests_roundtrip_with_ids() {
        let (client, server) = pair();
        let (mut ctx, mut crx) = client.split().unwrap();
        let (mut stx, mut srx) = server.split().unwrap();

        let reqs = [
            Request::Transact { ops: vec![WireOp::Credit { name: "a".into(), amount: 1 }] },
            Request::Read { at: None, queries: vec![] },
            Request::Goodbye,
        ];
        for (i, r) in reqs.iter().enumerate() {
            let n = ctx.send(i as u64 + 1, r).unwrap();
            assert!(n > HEADER_BYTES as u64);
        }
        for (i, r) in reqs.iter().enumerate() {
            let (seq, got, _) = srx.recv::<Request>().unwrap().unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(&got, r);
        }
        // Responses echo request ids, possibly out of order.
        stx.send(2, &Response::Fault(WireFault::ShuttingDown)).unwrap();
        stx.send(1, &Response::Bye).unwrap();
        let (seq, _, _) = crx.recv::<Response>().unwrap().unwrap();
        assert_eq!(seq, 2);
        let (seq, _, _) = crx.recv::<Response>().unwrap().unwrap();
        assert_eq!(seq, 1);
    }

    /// A burst sent in one write arrives in one read: every frame but the
    /// last leaves the rest of the burst buffered behind it.
    #[test]
    fn has_buffered_reports_frames_behind_the_one_returned() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        assert!(!srx.has_buffered());
        let mut burst = Vec::new();
        for seq in 1..=3 {
            let mut payload = Vec::new();
            Request::Goodbye.encode_payload(&mut payload);
            frame::encode_frame_into(seq, &payload, &mut burst);
        }
        ctx.send_raw(&burst).unwrap();
        let behind: Vec<bool> = (0..3)
            .map(|_| {
                srx.recv::<Request>().unwrap().unwrap();
                srx.has_buffered()
            })
            .collect();
        assert_eq!(behind, [true, true, false]);
    }

    #[test]
    fn clean_close_on_frame_boundary_is_none() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        ctx.send(1, &Request::Goodbye).unwrap();
        ctx.shutdown_write();
        let (seq, _, _) = srx.recv::<Request>().unwrap().unwrap();
        assert_eq!(seq, 1);
        assert!(srx.recv::<Request>().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn half_written_frame_at_disconnect_is_truncated() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        let mut framed = Vec::new();
        let mut payload = Vec::new();
        Request::Goodbye.encode_payload(&mut payload);
        frame::encode_frame_into(9, &payload, &mut framed);
        ctx.send_raw(&framed[..framed.len() - 1]).unwrap();
        ctx.shutdown_write();
        match srx.recv::<Request>() {
            Err(WireError::Frame(FrameError::Truncated)) => {}
            other => panic!("expected torn-frame refusal, got {other:?}"),
        }
    }

    #[test]
    fn flipped_crc_bit_is_refused_not_decoded() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        let mut framed = Vec::new();
        let mut payload = Vec::new();
        Request::Shutdown.encode_payload(&mut payload);
        frame::encode_frame_into(3, &payload, &mut framed);
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        ctx.send_raw(&framed).unwrap();
        match srx.recv::<Request>() {
            Err(WireError::Frame(FrameError::BadCrc)) => {}
            other => panic!("expected CRC refusal, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_field_is_refused_before_allocation() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&[0u8; 12]);
        ctx.send_raw(&hostile).unwrap();
        match srx.recv::<Request>() {
            Err(WireError::Frame(FrameError::BadLength(len))) => assert_eq!(len, u32::MAX),
            other => panic!("expected length refusal, got {other:?}"),
        }
        assert_eq!(srx.frames.buf.len(), READ_CHUNK, "the buffer never grew");
    }

    #[test]
    fn length_one_past_the_bound_is_refused_before_the_buffer_grows() {
        let mut hostile = (MAX_WIRE_PAYLOAD + 1).to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 12]);
        let mut frames = FrameReader::new();
        match frames.recv::<ReplMsg>(&mut script(vec![Step::Bytes(hostile)])) {
            Err(WireError::Frame(FrameError::BadLength(len))) => {
                assert_eq!(len, MAX_WIRE_PAYLOAD + 1)
            }
            other => panic!("expected length refusal, got {other:?}"),
        }
        assert_eq!(frames.buf.len(), READ_CHUNK, "the buffer never grew");
    }

    #[test]
    fn partial_frame_survives_a_read_timeout() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        srx.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let msg =
            Request::Transact { ops: vec![WireOp::Credit { name: "acct".into(), amount: 5 }] };
        let mut framed = Vec::new();
        frame::encode_frame_with(7, &mut framed, |out| msg.encode_payload(out));
        let half = HEADER_BYTES + (framed.len() - HEADER_BYTES) / 2;
        ctx.send_raw(&framed[..half]).unwrap();
        let err = srx.recv::<Request>().unwrap_err();
        assert!(err.is_timeout(), "{err:?}");
        ctx.send_raw(&framed[half..]).unwrap();
        let got = srx.recv::<Request>().unwrap().unwrap();
        assert_eq!(got, (7, msg, framed.len() as u64), "the whole frame, header included");
    }

    #[test]
    fn pipelined_burst_is_drained_with_one_read() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        let mut burst = Vec::new();
        for seq in 1..=32u64 {
            frame::encode_frame_with(seq, &mut burst, |out| Request::Goodbye.encode_payload(out));
        }
        ctx.send_raw(&burst).unwrap();
        // Wait until the whole burst sits in the socket, so the count
        // below does not depend on how the kernel paced its arrival.
        let mut probe = vec![0u8; burst.len()];
        while srx.stream.peek(&mut probe).unwrap() < burst.len() {
            std::thread::yield_now();
        }
        let mut socket = Counted(&srx.stream, 0);
        for seq in 1..=32u64 {
            assert_eq!(srx.frames.recv::<Request>(&mut socket).unwrap().unwrap().0, seq);
        }
        assert_eq!(socket.1, 1, "32 frames, one read");
    }

    /// A `Read` that counts the calls it serves.
    struct Counted<R>(R, u64);

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 += 1;
            self.0.read(buf)
        }
    }

    // ---- the decoder against scripted chunkings ----------------------

    /// One `read` of a scripted byte source.
    enum Step {
        /// Hand out these bytes (as many as fit; the rest next time).
        Bytes(Vec<u8>),
        /// Fail the way a socket read timeout does.
        Timeout,
    }

    /// A source that plays its steps one per `read`, then reports EOF.
    struct Script(VecDeque<Step>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Step::Timeout) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Step::Bytes(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Step::Bytes(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn script(steps: Vec<Step>) -> Script {
        Script(steps.into())
    }

    /// A frame stream with small frames on both sides of one larger than
    /// the initial buffer: the messages, their encoding, and where each
    /// frame ends.
    fn wire_stream() -> (Vec<(u64, ReplMsg)>, Vec<u8>, Vec<usize>) {
        let big: Vec<u8> = (0..READ_CHUNK + 1500).map(|i| (i * 7 % 251) as u8).collect();
        let msgs = vec![
            (1, ReplMsg::Hello { version: 1, token: "t".into(), last_ticket: 9 }),
            (2, ReplMsg::Batch { watermark: 0, ticket: 0, frames: Vec::new() }),
            (3, ReplMsg::Batch { watermark: 4, ticket: 12, frames: big }),
            (4, ReplMsg::Ack { ticket: 12 }),
            (5, ReplMsg::Batch { watermark: 5, ticket: 13, frames: vec![1, 2, 3] }),
            (6, ReplMsg::Fault { detail: "bye".into() }),
        ];
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for (seq, msg) in &msgs {
            frame::encode_frame_with(*seq, &mut bytes, |out| msg.encode_payload(out));
            ends.push(bytes.len());
        }
        (msgs, bytes, ends)
    }

    /// Decode `src` to its end the way the replication loops do —
    /// retrying on a timeout — returning the frames and how it ended.
    fn decode_all(mut src: Script) -> (Vec<(u64, ReplMsg)>, Result<(), FrameError>) {
        let mut frames = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match frames.recv::<ReplMsg>(&mut src) {
                Ok(Some((seq, msg, _))) => got.push((seq, msg)),
                Ok(None) => return (got, Ok(())),
                Err(e) if e.is_timeout() => continue,
                Err(WireError::Frame(e)) => return (got, Err(e)),
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
    }

    /// `bytes` cut at `cuts`, with a timeout after each chunk listed in
    /// `stalls`.
    fn chunked(bytes: &[u8], mut cuts: Vec<usize>, stalls: &[usize]) -> Script {
        cuts.retain(|&c| c > 0 && c < bytes.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut steps = Vec::new();
        let mut from = 0;
        for (i, to) in cuts.into_iter().chain([bytes.len()]).enumerate() {
            steps.push(Step::Bytes(bytes[from..to].to_vec()));
            if stalls.contains(&i) {
                steps.push(Step::Timeout);
            }
            from = to;
        }
        script(steps)
    }

    #[test]
    fn buffer_shrinks_back_once_a_large_frame_is_consumed() {
        let (msgs, bytes, _) = wire_stream();
        let mut frames = FrameReader::new();
        let mut src = script(vec![Step::Bytes(bytes)]);
        for (seq, msg) in msgs {
            let got = frames.recv::<ReplMsg>(&mut src).unwrap().map(|(s, m, _)| (s, m));
            assert_eq!(got, Some((seq, msg)));
        }
        assert_eq!(frames.buf.len(), READ_CHUNK);
        assert!(frames.buf.capacity() < 2 * READ_CHUNK, "{}", frames.buf.capacity());
    }

    #[test]
    fn one_byte_at_a_time_and_all_at_once_decode_alike() {
        let (msgs, bytes, _) = wire_stream();
        let whole = decode_all(script(vec![Step::Bytes(bytes.clone())]));
        assert_eq!(whole, (msgs.clone(), Ok(())));
        let bytewise = decode_all(chunked(&bytes, (1..bytes.len()).collect(), &[]));
        assert_eq!(bytewise, (msgs, Ok(())));
    }

    #[test]
    fn eof_inside_a_frame_is_truncated_and_only_a_boundary_is_clean() {
        let (msgs, bytes, ends) = wire_stream();
        for cut in 0..=bytes.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let expect_end =
                if cut == 0 || ends.contains(&cut) { Ok(()) } else { Err(FrameError::Truncated) };
            let got = decode_all(script(vec![Step::Bytes(bytes[..cut].to_vec())]));
            assert_eq!(got, (msgs[..whole].to_vec(), expect_end), "EOF at byte {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn any_chunking_with_timeouts_decodes_the_same_stream(
            cuts in prop::collection::vec(0usize..wire_stream().1.len(), 0..24),
            stalls in prop::collection::vec(0usize..24, 0..6),
        ) {
            let (msgs, bytes, _) = wire_stream();
            prop_assert_eq!(decode_all(chunked(&bytes, cuts, &stalls)), (msgs, Ok(())));
        }
    }

    #[test]
    fn well_framed_garbage_payload_is_malformed() {
        let (client, server) = pair();
        let (mut ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        let payload = [99u8, 1, 2, 3];
        let mut framed = Vec::new();
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&frame_crc(5, &payload).to_le_bytes());
        framed.extend_from_slice(&5u64.to_le_bytes());
        framed.extend_from_slice(&payload);
        ctx.send_raw(&framed).unwrap();
        match srx.recv::<Request>() {
            Err(WireError::Frame(FrameError::Malformed)) => {}
            other => panic!("expected malformed refusal, got {other:?}"),
        }
    }

    #[test]
    fn read_timeout_is_transient_io() {
        let (client, server) = pair();
        let (_ctx, _crx) = client.split().unwrap();
        let (_stx, mut srx) = server.split().unwrap();
        srx.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let err = srx.recv::<Request>().unwrap_err();
        assert!(err.is_timeout(), "{err:?}");
    }
}
