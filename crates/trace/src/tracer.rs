//! The tracer handle: a per-shard [`ShardStream`] of [`TraceEvent`]s.
//!
//! Each shard's events land in its own ring, stamped with a per-shard
//! sequence number, so a shard's `Service` can run on a worker thread
//! while other shards emit concurrently. [`Tracer::events`] merges the
//! journals by `(time, shard, seq)`, a total order independent of thread
//! interleaving, so a parallel run exports byte-identical artifacts to a
//! single-threaded one.
//!
//! [`Tracer::stream_to`] attaches a buffered JSONL sink per shard
//! journal, so the ring capacity no longer bounds traced run length:
//! every event is appended to `<base>.shardNNN.jsonl` as it is emitted,
//! and [`Tracer::merge_streams`] folds the per-shard files into one
//! `(time, shard, seq)`-ordered journal.

use vp2_sim::SimTime;

use crate::event::{EventKind, TraceEvent};
use crate::stream::{self, ShardStream};

/// Default per-shard ring capacity: big enough for every workload in
/// the repo's benches; a multi-hour stream wraps and keeps the newest
/// events (attach [`Tracer::stream_to`] to keep all of them).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A cheaply cloneable, `Send` handle onto a set of per-shard journals.
///
/// [`Tracer::with_shard`] derives a handle bound to that shard's
/// journal (created on first use), which is how one cluster-level
/// tracer fans out across a pool whose shards flush on worker threads.
/// The disabled tracer is a `None` handle: [`Tracer::on`] is a single
/// branch and [`Tracer::emit`] a no-op, so instrumentation costs
/// nothing when tracing is off.
#[derive(Clone, Default)]
pub struct Tracer {
    stream: Option<ShardStream<TraceEvent>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.stream {
            Some(stream) => write!(
                f,
                "Tracer(shard {}, {} events, {} dropped)",
                stream.shard(),
                stream.len(),
                stream.dropped()
            ),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// The no-op tracer (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer with the default per-shard ring capacity.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose per-shard rings hold at most `capacity`
    /// events each; the oldest are dropped (and counted) once a ring
    /// fills. A streaming sink keeps the full journal regardless.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            stream: Some(ShardStream::new(capacity)),
        }
    }

    /// A handle bound to `shard`'s journal (created on first use, with
    /// a streaming sink attached when [`Tracer::stream_to`] is active).
    pub fn with_shard(&self, shard: u32) -> Tracer {
        Tracer {
            stream: self.stream.as_ref().map(|s| s.with_shard(shard)),
        }
    }

    /// Is this handle recording? Check before building an event whose
    /// construction allocates.
    #[inline]
    pub fn on(&self) -> bool {
        self.stream.is_some()
    }

    /// Records one event at simulated instant `time`.
    #[inline]
    pub fn emit(&self, time: SimTime, kind: EventKind) {
        let Some(stream) = &self.stream else { return };
        stream.append(|(), shard, seq| {
            Some(TraceEvent {
                time,
                shard,
                seq,
                kind,
            })
        });
    }

    /// Snapshot of the merged journal, ordered by `(time, shard, seq)` —
    /// a total order independent of how shard threads interleaved, so
    /// equal seeds yield identical views at any thread count.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.stream
            .as_ref()
            .map_or_else(Vec::new, ShardStream::snapshot)
    }

    /// Events currently held across every shard's ring.
    pub fn len(&self) -> usize {
        self.stream.as_ref().map_or(0, ShardStream::len)
    }

    /// Is the journal empty (always true when disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the per-shard capacity bound, summed.
    pub fn dropped(&self) -> u64 {
        self.stream.as_ref().map_or(0, ShardStream::dropped)
    }

    /// Clears every shard's ring **and** its drop counter, so a
    /// profiler fold over a post-clear window never reports stale
    /// `dropped_events` from before the clear. Sequence numbers keep
    /// counting (streamed journals stay strictly monotone per shard).
    pub fn clear(&self) {
        if let Some(stream) = &self.stream {
            stream.clear();
        }
    }

    /// Attaches a buffered JSONL sink to every journal: each shard's
    /// events append to `<base>.shardNNN.jsonl` as they are emitted, so
    /// the ring capacity no longer bounds traced run length. Journals
    /// created later (new shards) attach their sink on creation. Call
    /// before the run — events emitted earlier are not replayed into
    /// the files.
    pub fn stream_to(&self, base: &str) -> std::io::Result<()> {
        self.stream.as_ref().map_or(Ok(()), |s| s.stream_to(base))
    }

    /// Flushes every streaming sink and returns the per-shard file
    /// paths in shard order (empty when streaming is off).
    pub fn flush_streams(&self) -> std::io::Result<Vec<String>> {
        self.stream
            .as_ref()
            .map_or(Ok(Vec::new()), ShardStream::flush)
    }

    /// Merges the per-shard streamed journals into one JSONL file at
    /// `out`, ordered by `(time, shard, seq)` — the same total order as
    /// [`Tracer::events`], so the merged file is byte-identical across
    /// thread counts. Returns the number of merged lines. The merge
    /// holds the lines in memory; per-shard files are the scalable
    /// artifact for very long runs.
    pub fn merge_streams(&self, out: &str) -> std::io::Result<usize> {
        stream::merge::<TraceEvent>(&self.flush_streams()?, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the per-shard-journal design.
    #[test]
    fn tracer_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Tracer>();
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.on());
        t.emit(SimTime::from_us(1), EventKind::BufferFlush { count: 3 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn clear_resets_the_drop_counter() {
        let t = Tracer::with_capacity(2);
        for i in 0..5u32 {
            t.emit(
                SimTime::from_us(u64::from(i)),
                EventKind::BufferFlush { count: i },
            );
        }
        assert_eq!(t.dropped(), 3);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0, "a post-clear window starts from zero");
        // Sequence numbers keep counting across the clear.
        t.emit(SimTime::from_us(9), EventKind::BufferFlush { count: 9 });
        assert_eq!(t.events()[0].seq, 5);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Tracer::with_capacity(0);
    }
}
