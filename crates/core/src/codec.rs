//! Sans-IO framing codec and pipelined-connection state machine.
//!
//! The event-driven transport in [`crate::net`] and the deterministic
//! conformance harness in [`crate::conformance`] share one protocol
//! implementation, split from all I/O so it can be driven by a real
//! non-blocking socket *or* by a scripted byte stream in a test:
//!
//! * [`FrameDecoder`] — incremental decoder for the unchanged 8-byte
//!   (`u32` length + `u32` CRC-32) framing. Bytes go in at arbitrary
//!   boundaries (partial frames, many frames coalesced into one read);
//!   whole checksum-verified payloads come out. The length cap is
//!   enforced on the header, before any payload is buffered, so an
//!   oversize advertisement still cannot reserve memory.
//! * [`PipelineMachine`] — the per-connection pipelining rules: frames
//!   are assigned *slots* in arrival order, execution may complete the
//!   slots out of order (a shared executor pool runs them concurrently),
//!   and replies are released strictly in request order, with every
//!   contiguous completed prefix flushed as one batched write. In-order
//!   replies are what make pipelining invisible to the client: acks and
//!   candidate lists are matched positionally, exactly as when one frame
//!   was in flight at a time.
//!
//! Neither type touches a socket, a clock, or a thread — every test in
//! `tests/pipeline_conformance.rs` replays seeded interleavings through
//! these machines byte for byte.

use std::collections::VecDeque;

use crate::net::{crc32, parse_header, FRAME_HEADER_LEN, MAX_FRAME_LEN};

/// Protocol violations detected by the decoder. Either one is fatal to
/// its connection, which dies with an accounted error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The header advertised a payload over the configured cap.
    Oversize {
        /// Advertised payload length.
        advertised: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The payload's CRC-32 did not match the header.
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { advertised, max } => {
                write!(f, "frame length {advertised} exceeds cap {max}")
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame (header + payload) into a byte vector — the
/// buffer-level counterpart of `write_frame`, used wherever frames are
/// built without a socket (reply batching, scripted streams).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame decoder: push bytes at arbitrary boundaries, pull
/// whole checksum-verified payloads.
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame_len: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically so the
    /// buffer does not grow with the life of the connection.
    start: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder enforcing the default [`MAX_FRAME_LEN`] cap.
    pub fn new() -> Self {
        Self::with_max_frame_len(MAX_FRAME_LEN)
    }

    /// A decoder with an explicit payload cap.
    pub fn with_max_frame_len(max_frame_len: usize) -> Self {
        Self {
            max_frame_len,
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Appends raw bytes from the stream. Any split is legal: a header
    /// byte at a time, or a megabyte of coalesced frames at once.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the stream stopped mid-frame: a partial header or a
    /// partial payload is pending. An EOF here is a *clean* client
    /// disconnect (power loss, process kill, proxy truncation), not a
    /// protocol violation — the transport accounts it separately.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Pulls the next complete frame, `Ok(None)` when more bytes are
    /// needed. Errors are sticky protocol violations: the caller must
    /// drop the connection (the buffer is left untouched, so repeated
    /// polls keep returning the same error).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&avail[..FRAME_HEADER_LEN]);
        let (len, crc) = parse_header(&header);
        if len > self.max_frame_len {
            return Err(FrameError::Oversize {
                advertised: len,
                max: self.max_frame_len,
            });
        }
        if avail.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        if crc32(&payload) != crc {
            return Err(FrameError::ChecksumMismatch);
        }
        self.start += FRAME_HEADER_LEN + len;
        // Compact once the consumed prefix dominates, amortizing the
        // copy to O(1) per byte.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

/// A request frame handed out for execution: complete the slot with the
/// encoded reply payload via [`PipelineMachine::complete`].
#[derive(Debug)]
pub struct WorkItem {
    /// Slot ticket; monotonically increasing in arrival order.
    pub slot: u64,
    /// The checksum-verified request payload.
    pub frame: Vec<u8>,
}

#[derive(Debug)]
struct Slot {
    reply: Option<Vec<u8>>,
}

/// Per-connection pipelining state machine: out-of-order execution,
/// in-order batched replies.
///
/// Frame extraction is gated on window space — at most `window` slots
/// are in flight; further bytes stay buffered in the decoder until a
/// completion frees a slot, which is the transport's backpressure.
#[derive(Debug)]
pub struct PipelineMachine {
    decoder: FrameDecoder,
    /// In-flight slots in arrival order; front is `head_slot`.
    slots: VecDeque<Slot>,
    head_slot: u64,
    next_slot: u64,
    window: usize,
    /// Framed replies ready to write, in request order. Contiguous
    /// completed prefixes are appended here in one go — the batched ack.
    out: Vec<u8>,
    out_start: usize,
}

impl PipelineMachine {
    /// A machine enforcing `max_frame_len` per frame and at most
    /// `window` frames in flight.
    pub fn new(max_frame_len: usize, window: usize) -> Self {
        Self {
            decoder: FrameDecoder::with_max_frame_len(max_frame_len),
            slots: VecDeque::new(),
            head_slot: 0,
            next_slot: 0,
            window: window.max(1),
            out: Vec::new(),
            out_start: 0,
        }
    }

    /// Feeds raw stream bytes and extracts as many request frames as the
    /// window allows, appending them to `work`.
    pub fn on_bytes(&mut self, bytes: &[u8], work: &mut Vec<WorkItem>) -> Result<(), FrameError> {
        self.decoder.push(bytes);
        self.poll_work(work)
    }

    /// Extracts request frames buffered behind a previously full window;
    /// call after completions free slots.
    pub fn poll_work(&mut self, work: &mut Vec<WorkItem>) -> Result<(), FrameError> {
        while self.slots.len() < self.window {
            match self.decoder.next_frame()? {
                Some(frame) => {
                    let slot = self.next_slot;
                    self.next_slot += 1;
                    self.slots.push_back(Slot { reply: None });
                    work.push(WorkItem { slot, frame });
                }
                None => break,
            }
        }
        Ok(())
    }

    /// Completes a slot with its encoded reply payload. Completions may
    /// arrive in any order; the contiguous completed prefix is framed
    /// and released to the output buffer in request order.
    ///
    /// Unknown slots are ignored (a completion can race a connection
    /// teardown and resurrection in the transport).
    pub fn complete(&mut self, slot: u64, reply_payload: &[u8]) {
        let Some(idx) = slot.checked_sub(self.head_slot) else {
            return;
        };
        let Some(entry) = self.slots.get_mut(idx as usize) else {
            return;
        };
        if entry.reply.is_none() {
            entry.reply = Some(encode_frame(reply_payload));
        }
        while let Some(front) = self.slots.front() {
            if front.reply.is_none() {
                break;
            }
            let framed = self.slots.pop_front().unwrap().reply.unwrap();
            self.head_slot += 1;
            self.out.extend_from_slice(&framed);
        }
    }

    /// Frames currently dispatched but not yet released to the output.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Whether the byte stream stopped mid-frame (see
    /// [`FrameDecoder::mid_frame`]).
    pub fn mid_frame(&self) -> bool {
        self.decoder.mid_frame()
    }

    /// Reply bytes ready to write, in request order.
    pub fn pending_output(&self) -> &[u8] {
        &self.out[self.out_start..]
    }

    /// Marks `n` output bytes as written (a short non-blocking write
    /// consumes a prefix).
    pub fn consume_output(&mut self, n: usize) {
        self.out_start = (self.out_start + n).min(self.out.len());
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start > 4096 && self.out_start * 2 >= self.out.len() {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
    }

    /// Drains the whole pending output (test and loopback convenience).
    pub fn take_output(&mut self) -> Vec<u8> {
        let out = self.pending_output().to_vec();
        self.out.clear();
        self.out_start = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_reassembles_split_frames() {
        let a = encode_frame(b"hello");
        let b = encode_frame(b"world!");
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        // One byte at a time — the most hostile split.
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for byte in &stream {
            dec.push(std::slice::from_ref(byte));
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), b"world!".to_vec()]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_rejects_oversize_before_buffering_payload() {
        let mut dec = FrameDecoder::with_max_frame_len(16);
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        dec.push(&header);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversize { .. })));
        // Sticky: the connection owner polls again, same answer.
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversize { .. })));
    }

    #[test]
    fn decoder_detects_corruption() {
        let mut framed = encode_frame(b"payload");
        *framed.last_mut().unwrap() ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.push(&framed);
        assert_eq!(dec.next_frame(), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn machine_releases_replies_in_request_order() {
        let mut m = PipelineMachine::new(MAX_FRAME_LEN, 8);
        let mut work = Vec::new();
        let stream: Vec<u8> = [b"a".as_slice(), b"b", b"c"]
            .iter()
            .flat_map(|p| encode_frame(p))
            .collect();
        m.on_bytes(&stream, &mut work).unwrap();
        assert_eq!(work.len(), 3);
        // Complete out of order: 2, 0, 1.
        m.complete(work[2].slot, b"C");
        assert!(
            m.pending_output().is_empty(),
            "slot 2 must wait for 0 and 1"
        );
        m.complete(work[0].slot, b"A");
        m.complete(work[1].slot, b"B");
        let expected: Vec<u8> = [b"A".as_slice(), b"B", b"C"]
            .iter()
            .flat_map(|p| encode_frame(p))
            .collect();
        assert_eq!(m.take_output(), expected);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn machine_window_gates_extraction() {
        let mut m = PipelineMachine::new(MAX_FRAME_LEN, 2);
        let mut work = Vec::new();
        let stream: Vec<u8> = (0..5u8).flat_map(|i| encode_frame(&[i])).collect();
        m.on_bytes(&stream, &mut work).unwrap();
        assert_eq!(work.len(), 2, "window of 2 caps extraction");
        m.complete(work[0].slot, b"r0");
        m.poll_work(&mut work).unwrap();
        assert_eq!(work.len(), 3, "freed slot admits one more frame");
    }
}
