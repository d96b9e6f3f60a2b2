//! Streaming [`TraceSink`] implementations.
//!
//! A sink is handed to the runner by value (`Box<dyn TraceSink>`), runs on
//! whatever thread executes the simulation, and is returned flushed when
//! the run completes. A caller that wants a sink's state back attaches it
//! shared, as `Arc<Mutex<S>>` (the digest of an
//! [`EventHash`](crate::EventHash), say), so it never needs to downcast
//! the returned box. [`VecSink`] publishes its events into its own
//! handle instead.

use crate::codec::write_jsonl_line;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use wsan_sim::trace::{TraceEvent, TraceSink};

/// Streams events as JSONL to any writer: one event per line, bounded
/// memory no matter how many events the run produces.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    /// The current event's line, newline included; reused across events
    /// so steady-state encoding allocates nothing.
    line: Vec<u8>,
    /// Events written so far.
    pub written: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer. Wrap files in a `BufWriter` — the sink writes one
    /// small line per event.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, line: Vec::new(), written: 0 }
    }
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates a sink streaming to a fresh file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        self.line.clear();
        write_jsonl_line(event, &mut self.line);
        self.line.push(b'\n');
        // A full disk mid-simulation has no useful recovery; surface it.
        self.writer.write_all(&self.line).expect("trace sink write");
        self.written += 1;
    }

    fn flush(&mut self) {
        self.writer.flush().expect("trace sink flush");
    }
}

/// A byte buffer shared between a [`JsonlSink`] and the caller, for
/// in-memory record/replay comparisons.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Caller-side handle to a [`VecSink`]'s captured events.
#[derive(Debug, Clone, Default)]
pub struct EventsHandle(Arc<Mutex<Vec<TraceEvent>>>);

impl EventsHandle {
    /// Takes the captured events out of the handle.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.0.lock().expect("events lock"))
    }
}

/// Captures every event in memory (unbounded — test- and forensics-sized
/// runs only; use [`JsonlSink`] for anything large).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
    handle: EventsHandle,
}

impl VecSink {
    /// Creates a sink and the handle the events will be published through.
    pub fn new() -> (Self, EventsHandle) {
        let sink = VecSink::default();
        let handle = sink.handle.clone();
        (sink, handle)
    }
}

impl TraceSink for VecSink {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn flush(&mut self) {
        *self.handle.0.lock().expect("events lock") = std::mem::take(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventHash;
    use wsan_sim::{DataId, DropReason, SimTime};

    fn ev(us: u64) -> TraceEvent {
        TraceEvent::Dropped {
            at: SimTime::from_micros(us),
            packet: DataId(us),
            reason: DropReason::Other,
        }
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let buf = SharedBuf::new();
        let mut sink = JsonlSink::new(buf.clone());
        sink.on_event(&ev(1));
        sink.on_event(&ev(2));
        TraceSink::flush(&mut sink);
        let text = String::from_utf8(buf.bytes()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"Dropped":"#));
        assert_eq!(sink.written, 2);
    }

    #[test]
    fn hashing_sink_matches_manual_hash() {
        let hash = Arc::new(Mutex::new(EventHash::new()));
        let mut sink: Box<dyn TraceSink> = Box::new(hash.clone());
        sink.on_event(&ev(7));
        sink.flush();
        let mut manual = EventHash::new();
        manual.update(&crate::to_jsonl_line(&ev(7)));
        assert_eq!(*hash.lock().expect("sole user"), manual);
    }

    #[test]
    fn vec_sink_captures_events() {
        let (mut sink, handle) = VecSink::new();
        sink.on_event(&ev(3));
        sink.flush();
        assert_eq!(handle.take(), vec![ev(3)]);
        assert!(handle.take().is_empty());
    }
}
