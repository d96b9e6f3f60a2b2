//! Length-prefixed binary framing for live byte streams.
//!
//! `refer-node` speaks the JSONL trace codec over UDP-adjacent byte
//! streams (stdout pipes, files mid-write, socket reads) where record
//! boundaries are not preserved: a reader may observe any prefix of the
//! stream, cut anywhere — including mid-length-header. Each frame is
//!
//! ```text
//! [len: u32 little-endian][payload: len bytes]
//! ```
//!
//! [`FrameDecoder`] is an incremental parser over that layout: feed it
//! byte chunks of any size and it yields complete payloads in order,
//! buffering partial frames across `feed` calls. Encoding and decoding
//! are exact inverses for every payload, so a record sequence round-trips
//! byte-identically regardless of how the transport splits the stream.

/// Hard ceiling on a single frame's payload length.
///
/// A corrupt or adversarial length header would otherwise make the
/// decoder buffer unboundedly waiting for a frame that never completes.
/// Trace lines and wire envelopes are hundreds of bytes; 16 MiB is far
/// above any legitimate frame.
pub const MAX_FRAME_LEN: usize = 16 << 20;

const HEADER_LEN: usize = 4;

/// Framing-layer failure: the stream is unrecoverable past this point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length header exceeded [`MAX_FRAME_LEN`].
    Oversize {
        /// The length the corrupt header declared.
        declared: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { declared } => write!(
                f,
                "frame header declares {declared} bytes, above the {MAX_FRAME_LEN}-byte limit \
                 (corrupt or misaligned stream)"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one length-prefixed frame carrying `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload `fill` appends straight to `out`: the
/// header is reserved first and patched once the length is known, so an
/// encoder can stream into the frame without a second buffer.
pub fn write_frame_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    fill(out);
    let len = out.len() - header - HEADER_LEN;
    assert!(len <= MAX_FRAME_LEN, "frame payload exceeds MAX_FRAME_LEN");
    out[header..header + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Encodes one payload as a standalone frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(&mut out, payload);
    out
}

/// The first frame of a byte slice, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitFrame<'a> {
    /// The frame's payload.
    pub payload: &'a [u8],
    /// Everything after the frame.
    pub rest: &'a [u8],
}

/// Splits the first frame off `bytes` without copying; `Ok(None)` if
/// `bytes` ends mid-frame.
pub fn split_frame(bytes: &[u8]) -> Result<Option<SplitFrame<'_>>, FrameError> {
    let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let declared = u32::from_le_bytes(*header) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { declared });
    }
    if body.len() < declared {
        return Ok(None);
    }
    let (payload, rest) = body.split_at(declared);
    Ok(Some(SplitFrame { payload, rest }))
}

/// Incremental decoder: accepts arbitrarily split byte chunks, yields
/// complete frames in order.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` below this offset are already-consumed frames,
    /// reclaimed lazily so each `next_frame` is amortized O(frame).
    read: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers more bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed space before growing, once it dominates.
        if self.read > 0 && self.read >= self.buf.len() / 2 {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame's payload, `Ok(None)` if the
    /// buffered bytes end mid-frame (feed more and retry).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(frame) = split_frame(&self.buf[self.read..])? else {
            return Ok(None);
        };
        let payload = frame.payload.to_vec();
        self.read += HEADER_LEN + payload.len();
        Ok(Some(payload))
    }

    /// Number of buffered bytes not yet consumed by a complete frame.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// True when no partial frame is buffered — a clean stream boundary.
    pub fn is_empty(&self) -> bool {
        self.pending_len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode_all(decoder: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
            out.push(frame);
        }
        out
    }

    #[test]
    fn single_frame_round_trips() {
        let mut d = FrameDecoder::new();
        d.feed(&encode_frame(b"hello"));
        assert_eq!(decode_all(&mut d), vec![b"hello".to_vec()]);
        assert!(d.is_empty());
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut d = FrameDecoder::new();
        d.feed(&encode_frame(b""));
        assert_eq!(decode_all(&mut d), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"one");
        write_frame(&mut stream, b"two");
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            d.feed(&[b]);
            got.extend(decode_all(&mut d));
        }
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(d.is_empty());
    }

    #[test]
    fn oversize_header_is_rejected_not_buffered() {
        let mut d = FrameDecoder::new();
        d.feed(&(u32::MAX).to_le_bytes());
        d.feed(b"junk");
        assert_eq!(
            d.next_frame(),
            Err(FrameError::Oversize { declared: u32::MAX as usize })
        );
    }

    #[test]
    fn truncated_stream_reports_pending_bytes() {
        let frame = encode_frame(b"truncated");
        let mut d = FrameDecoder::new();
        d.feed(&frame[..frame.len() - 3]);
        assert_eq!(d.next_frame(), Ok(None));
        assert_eq!(d.pending_len(), frame.len() - 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn split_frame_borrows_payload_and_rest() {
        let mut stream = b"earlier".to_vec();
        let start = stream.len();
        write_frame_with(&mut stream, |out| out.extend_from_slice(b"streamed"));
        assert_eq!(&stream[start..], &encode_frame(b"streamed")[..], "header patched in place");
        stream.extend_from_slice(b"rest");
        assert_eq!(
            split_frame(&stream[start..]),
            Ok(Some(SplitFrame { payload: b"streamed", rest: b"rest" }))
        );
        for cut in start..stream.len() - b"rest".len() {
            assert_eq!(split_frame(&stream[start..cut]), Ok(None), "prefix of {cut} bytes");
        }
        assert_eq!(
            split_frame(&u32::MAX.to_le_bytes()),
            Err(FrameError::Oversize { declared: u32::MAX as usize })
        );
    }

    /// Body of the round-trip property, outside the macro (the vendored
    /// `proptest!` token-munches its body, so it stays a one-liner).
    fn round_trip_case(
        records: Vec<Vec<u8>>,
        cuts: Vec<usize>,
        truncate_tail: usize,
    ) -> TestCaseResult {
        let mut stream = Vec::new();
        for r in &records {
            write_frame(&mut stream, r);
        }

        // Turn the cut points into ordered split offsets over the stream.
        let mut splits: Vec<usize> =
            cuts.iter().map(|&c| if stream.is_empty() { 0 } else { c % stream.len() }).collect();
        splits.sort_unstable();

        let mut decoder = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut start = 0usize;
        for &cut in &splits {
            decoder.feed(&stream[start..cut.max(start)]);
            while let Some(frame) = decoder.next_frame().expect("stream is well-formed") {
                got.push(frame);
            }
            start = cut.max(start);
        }
        decoder.feed(&stream[start..]);
        while let Some(frame) = decoder.next_frame().expect("stream is well-formed") {
            got.push(frame);
        }

        prop_assert_eq!(&got, &records);
        prop_assert!(decoder.is_empty(), "no partial frame may remain");

        // Partial re-read: drop the tail of the stream and confirm the
        // decoder yields exactly the complete frames, never a torn one.
        if !stream.is_empty() {
            let cut = stream.len() - truncate_tail.min(stream.len());
            let mut partial = FrameDecoder::new();
            partial.feed(&stream[..cut]);
            let mut early: Vec<Vec<u8>> = Vec::new();
            while let Some(frame) = partial.next_frame().expect("prefix is well-formed") {
                early.push(frame);
            }
            prop_assert!(early.len() <= records.len());
            prop_assert_eq!(&records[..early.len()], &early[..]);
            // Feeding the withheld tail completes the stream.
            partial.feed(&stream[cut..]);
            while let Some(frame) = partial.next_frame().expect("tail completes the stream") {
                early.push(frame);
            }
            prop_assert_eq!(&early, &records);
        }
        Ok(())
    }

    // The satellite invariant: any record sequence, encoded then fed
    // back through ANY sequence of read-boundary splits (including
    // splits inside the 4-byte header and a truncated tail), decodes
    // to the exact same records in order. (Comment sits outside the
    // macro body: the vendored `proptest!` matches `#[test]` literally.)
    proptest! {
        #[test]
        fn record_sequences_round_trip_under_arbitrary_splits(
            records in prop::collection::vec(prop::collection::vec(0u8..=255, 0..64), 0..24),
            cuts in prop::collection::vec(0usize..4096, 0..32),
            truncate_tail in 0usize..8,
        ) {
            round_trip_case(records, cuts, truncate_tail)?;
        }
    }
}
