//! The per-shard stream substrate under the trace journal and the
//! telemetry series.
//!
//! A [`ShardStream`] is a cheaply cloneable, `Send` handle onto a
//! registry of **per-shard streams** behind `Arc<Mutex<_>>`, bound to
//! one shard's stream (created on first use). Each shard holds a bounded
//! ring of records with a drop counter, stamps every record with its own
//! sequence number under the shard lock, and optionally appends every
//! record to a buffered JSONL sink at `<base>.shardNNN<suffix>` as it is
//! emitted — so the ring capacity bounds memory, not run length. No
//! cross-shard order is observed at emission time: a shard can run on a
//! worker thread while others emit concurrently.
//!
//! Readers see a merged view ordered by the record's `(key, shard, seq)`
//! merge key, a total order independent of thread interleaving, so a
//! parallel run exports byte-identical artifacts to a single-threaded
//! one. [`merge`] folds the per-shard files into one file in the same
//! order. It is a full sort, not a k-way merge over the shard files,
//! because a shard's file is in emission order and its key may step
//! back: the journal stamps `request_buffer`/`buffer_flush` events with
//! the request's earlier arrival at flush time. The merge holds every
//! line in memory; the per-shard files are the scalable artifact.
//!
//! Each shard also carries caller state `S` kept under the same lock —
//! telemetry's per-scope tick dedup, rate state and lane windows.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::{Arc, Mutex, MutexGuard};

use vp2_sim::Json;

/// A record a [`ShardStream`] carries.
pub trait Record: Clone {
    /// JSON field names of the merge key, in key order: the primary
    /// field (`time_ps`, `tick`), then `shard`, then `seq`.
    const KEY_FIELDS: [&'static str; 3];
    /// Stream file suffix: shard `s` of base `b` streams to
    /// `{b}.shard{s:03}{SUFFIX}`.
    const SUFFIX: &'static str;

    /// The `(primary, shard, seq)` merge key, as the JSON line carries
    /// it — the canonical total order.
    fn merge_key(&self) -> (u64, u32, u64);

    /// The JSONL rendering of the record (the key fields included).
    fn to_json(&self) -> Json;
}

/// One shard's stream: the bounded ring, its drop counter, the sequence
/// counter, the optional sink with its path, and the caller's state.
struct Shard<R, S> {
    ring: VecDeque<R>,
    dropped: u64,
    next_seq: u64,
    sink: Option<(BufWriter<File>, String)>,
    state: S,
}

impl<R: Record, S> Shard<R, S> {
    fn attach_sink(&mut self, base: &str, id: u32) -> std::io::Result<()> {
        let path = format!("{base}.shard{id:03}{}", R::SUFFIX);
        let file = File::create(&path).map_err(|e| {
            std::io::Error::new(e.kind(), format!("stream: cannot create {path}: {e}"))
        })?;
        self.sink = Some((BufWriter::new(file), path));
        Ok(())
    }
}

/// One shard's stream, shared by every handle bound to it.
type SharedShard<R, S> = Arc<Mutex<Shard<R, S>>>;

/// State shared by every handle onto one set of streams.
struct Registry<R, S> {
    capacity: usize,
    shards: Mutex<BTreeMap<u32, SharedShard<R, S>>>,
    /// JSONL stream base path, once [`ShardStream::stream_to`] was
    /// called; shards registered later attach their sink on creation.
    stream_base: Mutex<Option<String>>,
}

/// A handle onto a registry of per-shard streams, bound to one shard.
pub struct ShardStream<R, S = ()> {
    registry: Arc<Registry<R, S>>,
    /// This handle's shard, resolved once at handle creation so the
    /// append path never touches the registry lock.
    shard: SharedShard<R, S>,
    id: u32,
}

impl<R, S> Clone for ShardStream<R, S> {
    fn clone(&self) -> Self {
        ShardStream {
            registry: Arc::clone(&self.registry),
            shard: Arc::clone(&self.shard),
            id: self.id,
        }
    }
}

impl<R: Record, S: Default> ShardStream<R, S> {
    /// A fresh registry whose per-shard rings hold at most `capacity`
    /// records each (the oldest are dropped and counted once a ring
    /// fills), with a handle bound to shard 0.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring records nothing");
        let registry = Arc::new(Registry {
            capacity,
            shards: Mutex::new(BTreeMap::new()),
            stream_base: Mutex::new(None),
        });
        Self::bind(registry, 0)
    }

    /// A handle bound to shard `id`'s stream (created on first use, with
    /// a sink attached when [`ShardStream::stream_to`] is active).
    pub fn with_shard(&self, id: u32) -> Self {
        Self::bind(Arc::clone(&self.registry), id)
    }

    fn bind(registry: Arc<Registry<R, S>>, id: u32) -> Self {
        let shard = {
            let mut shards = registry.shards.lock().expect("stream registry poisoned");
            let shard = shards.entry(id).or_insert_with(|| {
                let mut shard = Shard {
                    ring: VecDeque::new(),
                    dropped: 0,
                    next_seq: 0,
                    sink: None,
                    state: S::default(),
                };
                let base = registry.stream_base.lock().expect("stream base poisoned");
                if let Some(base) = base.as_deref() {
                    shard
                        .attach_sink(base, id)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
                Arc::new(Mutex::new(shard))
            });
            Arc::clone(shard)
        };
        ShardStream {
            registry,
            shard,
            id,
        }
    }

    /// The shard this handle is bound to.
    pub fn shard(&self) -> u32 {
        self.id
    }

    /// Appends one record to this shard's stream. `make` runs under the
    /// shard lock with the caller's state, this shard's id and the next
    /// sequence number; returning `None` appends nothing and consumes no
    /// sequence number.
    #[inline]
    pub fn append(&self, make: impl FnOnce(&mut S, u32, u64) -> Option<R>) {
        let mut guard = lock(&self.shard);
        let shard = &mut *guard;
        let Some(record) = make(&mut shard.state, self.id, shard.next_seq) else {
            return;
        };
        shard.next_seq += 1;
        if let Some((sink, _)) = &mut shard.sink {
            let mut line = record.to_json().render();
            line.push('\n');
            sink.write_all(line.as_bytes())
                .expect("stream: write failed");
        }
        if shard.ring.len() == self.registry.capacity {
            shard.ring.pop_front();
            shard.dropped += 1;
        }
        shard.ring.push_back(record);
    }

    /// Runs `f` on this shard's caller state under the shard lock.
    pub fn with_state<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        f(&mut lock(&self.shard).state)
    }

    /// Every shard in id order (the deterministic fold order).
    fn shards(&self) -> Vec<(u32, SharedShard<R, S>)> {
        self.registry
            .shards
            .lock()
            .expect("stream registry poisoned")
            .iter()
            .map(|(id, shard)| (*id, Arc::clone(shard)))
            .collect()
    }

    /// Snapshot of every shard's ring, merged by the record's merge key.
    pub fn snapshot(&self) -> Vec<R> {
        let mut all = Vec::new();
        for (_, shard) in self.shards() {
            all.extend(lock(&shard).ring.iter().cloned());
        }
        all.sort_by_key(R::merge_key);
        all
    }

    /// Records currently held across every shard's ring.
    pub fn len(&self) -> usize {
        self.shards().iter().map(|(_, s)| lock(s).ring.len()).sum()
    }

    /// Are all rings empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the per-shard capacity bound, summed.
    pub fn dropped(&self) -> u64 {
        self.shards().iter().map(|(_, s)| lock(s).dropped).sum()
    }

    /// Clears every shard's ring and its drop counter. Sequence numbers
    /// keep counting, so streamed files stay strictly monotone per shard.
    pub fn clear(&self) {
        for (_, shard) in self.shards() {
            let mut shard = lock(&shard);
            shard.ring.clear();
            shard.dropped = 0;
        }
    }

    /// Attaches a buffered JSONL sink to every shard: each shard's
    /// records append to `<base>.shardNNN<suffix>` as they are emitted.
    /// Shards created later attach their sink on creation. Records
    /// emitted earlier are not replayed into the files.
    pub fn stream_to(&self, base: &str) -> std::io::Result<()> {
        *self
            .registry
            .stream_base
            .lock()
            .expect("stream base poisoned") = Some(base.to_string());
        for (id, shard) in self.shards() {
            let mut shard = lock(&shard);
            if shard.sink.is_none() {
                shard.attach_sink(base, id)?;
            }
        }
        Ok(())
    }

    /// Flushes every sink and returns the per-shard file paths in shard
    /// order (empty when streaming is off).
    pub fn flush(&self) -> std::io::Result<Vec<String>> {
        let mut paths = Vec::new();
        for (_, shard) in self.shards() {
            if let Some((sink, path)) = &mut lock(&shard).sink {
                sink.flush()?;
                paths.push(path.clone());
            }
        }
        Ok(paths)
    }
}

fn lock<R, S>(shard: &Mutex<Shard<R, S>>) -> MutexGuard<'_, Shard<R, S>> {
    shard.lock().expect("stream poisoned")
}

/// Merges streamed per-shard files of `R` records into one JSONL file at
/// `out`, ordered by the `(primary, shard, seq)` key read back from each
/// line — the same total order as [`ShardStream::snapshot`], so the
/// merged file is byte-identical across thread counts. Returns the
/// number of merged lines.
pub fn merge<R: Record>(paths: &[String], out: &str) -> std::io::Result<usize> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let [primary, shard, seq] = R::KEY_FIELDS;
    let mut lines: Vec<((u64, u32, u64), String)> = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)?;
        for line in text.lines() {
            let doc =
                Json::parse(line).map_err(|e| invalid(format!("{path}: bad stream line: {e}")))?;
            let num = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_f64)
                    .map(|x| x as u64)
                    .ok_or_else(|| invalid(format!("{path}: stream line missing {key}")))
            };
            let key = (num(primary)?, num(shard)? as u32, num(seq)?);
            lines.push((key, line.to_string()));
        }
    }
    lines.sort_by_key(|(key, _)| *key);
    let mut f = BufWriter::new(File::create(out)?);
    for (_, line) in &lines {
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
    }
    f.flush()?;
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent};
    use vp2_sim::SimTime;

    fn emit(stream: &ShardStream<TraceEvent>, us: u64, count: u32) {
        stream.append(|(), shard, seq| {
            Some(TraceEvent {
                time: SimTime::from_us(us),
                shard,
                seq,
                kind: EventKind::BufferFlush { count },
            })
        });
    }

    fn temp_base(name: &str) -> String {
        let base = std::env::temp_dir().join(format!("rtr_stream_{name}_{}", std::process::id()));
        base.to_str().expect("utf-8 temp path").to_string()
    }

    fn keys(text: &str) -> Vec<(u64, u64, u64)> {
        text.lines()
            .map(|l| {
                let doc = Json::parse(l).expect("line parses");
                let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap() as u64;
                (num("time_ps"), num("shard"), num("seq"))
            })
            .collect()
    }

    fn remove(paths: &[String]) {
        for path in paths {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The whole point of the per-shard design.
    #[test]
    fn stream_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardStream<TraceEvent>>();
    }

    #[test]
    fn snapshot_merges_by_key_not_emission_order() {
        let s0 = ShardStream::<TraceEvent>::new(8);
        let s1 = s0.with_shard(1);
        // Shard 1 emits before shard 0's earlier event: the merged view
        // is ordered by (time, shard, seq), not by emission interleaving.
        emit(&s1, 2, 2);
        emit(&s0, 1, 1);
        emit(&s0, 2, 3);
        let ev = s0.snapshot();
        let key: Vec<_> = ev.iter().map(TraceEvent::key).collect();
        assert_eq!(
            key,
            vec![
                (SimTime::from_us(1), 0, 0),
                (SimTime::from_us(2), 0, 1),
                (SimTime::from_us(2), 1, 0),
            ]
        );
        assert_eq!(s1.shard(), 1);
        assert_eq!(s1.len(), 3, "every handle sees every shard");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let s = ShardStream::<TraceEvent>::new(2);
        for i in 0..5u32 {
            emit(&s, u64::from(i), i);
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let ev = s.snapshot();
        assert_eq!(ev[0].kind, EventKind::BufferFlush { count: 3 });
        assert_eq!(ev[1].kind, EventKind::BufferFlush { count: 4 });
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn declined_appends_consume_no_sequence_number() {
        let s = ShardStream::<TraceEvent, u32>::new(8);
        for us in 0..4u64 {
            // Caller state gates the append: only every other call lands.
            s.append(|calls, shard, seq| {
                *calls += 1;
                (*calls % 2 == 1).then(|| TraceEvent {
                    time: SimTime::from_us(us),
                    shard,
                    seq,
                    kind: EventKind::BufferFlush { count: 0 },
                })
            });
        }
        assert_eq!(s.with_state(|calls| *calls), 4);
        let seqs: Vec<u64> = s.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1], "sequence numbers stay dense");
    }

    #[test]
    fn streaming_outlives_the_ring_and_merges_sorted() {
        let base = temp_base("ring");
        let s0 = ShardStream::<TraceEvent>::new(2);
        s0.stream_to(&base).expect("attach sinks");
        // Registered after stream_to: attaches its sink on creation.
        let s1 = s0.with_shard(1);
        for i in 0..6u32 {
            emit(&s0, u64::from(i), i);
        }
        emit(&s1, 3, 99);
        assert_eq!(s0.dropped(), 4, "the ring wrapped");
        let paths = s0.flush().expect("flush");
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with(".shard000.jsonl"));
        assert!(paths[1].ends_with(".shard001.jsonl"));
        let shard0 = std::fs::read_to_string(&paths[0]).expect("read shard 0");
        assert_eq!(
            shard0.lines().count(),
            6,
            "the stream kept every event the ring dropped"
        );
        assert!(shard0.lines().next().unwrap().contains("\"seq\":0"));
        let merged_path = format!("{base}.merged.jsonl");
        assert_eq!(merge::<TraceEvent>(&paths, &merged_path).expect("merge"), 7);
        let keys = keys(&std::fs::read_to_string(&merged_path).expect("read merged"));
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "merged stream is strictly (time, shard, seq)-ordered: {keys:?}"
        );
        remove(&paths);
        remove(&[merged_path]);
    }

    /// The `buffer_flush`/`request_buffer` pattern: a shard journals an
    /// event stamped earlier than one it already wrote, while a second
    /// shard interleaves. The per-shard file stays in emission order,
    /// and the merge still equals the in-memory snapshot line by line.
    #[test]
    fn backdated_events_merge_to_the_snapshot() {
        let base = temp_base("backdated");
        let s0 = ShardStream::<TraceEvent>::new(16);
        let s1 = s0.with_shard(1);
        s0.stream_to(&base).expect("attach sinks");
        emit(&s0, 50, 0);
        emit(&s1, 20, 1);
        emit(&s0, 10, 2); // backdated past both shards' earlier events
        emit(&s1, 40, 3);
        emit(&s0, 60, 4);
        emit(&s0, 30, 5); // backdated again
        let paths = s0.flush().expect("flush");
        let shard0 = keys(&std::fs::read_to_string(&paths[0]).expect("read shard 0"));
        let times: Vec<u64> = shard0.iter().map(|k| k.0 / 1_000_000).collect();
        assert_eq!(
            times,
            vec![50, 10, 60, 30],
            "per-shard file keeps emission order"
        );
        let merged_path = format!("{base}.merged.jsonl");
        assert_eq!(merge::<TraceEvent>(&paths, &merged_path).expect("merge"), 6);
        let merged = std::fs::read_to_string(&merged_path).expect("read merged");
        let expected: String = s0
            .snapshot()
            .iter()
            .map(|e| e.to_json().render() + "\n")
            .collect();
        assert_eq!(merged, expected);
        remove(&paths);
        remove(&[merged_path]);
    }
}
