//! Structured run tracing: Chrome `trace_event` emission for the engine.
//!
//! A [`TraceSink`] installed via `Simulator::set_trace_sink` records what
//! the epoch loop actually did — epochs, per-process phase switches,
//! migration drains as flow arrows, per-epoch migration completions,
//! `mbind` calls, per-link max-min bandwidth shares, and generic markers
//! from daemons (`Simulator::trace_instant`) — into a bounded ring
//! buffer. [`TraceSink::to_chrome_json`] serializes the retained events
//! as a Chrome `trace_event` document loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`; the schema is
//! documented in `docs/TRACING.md`.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when disabled.** Every engine hook is behind one
//!   `Option` check; with no sink installed the steady-state epoch loop
//!   stays allocation-free (see `docs/PERFORMANCE.md`).
//! * **Deterministic.** Timestamps are the *simulated* clock in
//!   microseconds ([`ts_us`]), flow ids come from a sink-local counter,
//!   and nothing reads the wall clock — the same run emits byte-identical
//!   JSON regardless of host, executor thread count, or repetition.
//! * **Bounded.** The ring keeps the most recent [`TraceSink::capacity`]
//!   events and counts the rest in [`TraceSink::dropped`]; a very long
//!   run yields the tail of its timeline, never unbounded memory. (A
//!   drop can orphan the `E` of an already-dropped `B` at the very start
//!   of the retained window — viewers tolerate this, and traces within
//!   capacity are exactly matched.)
//!
//! Like the rest of the workspace, the writer is serde-free and follows
//! the hand-rolled JSON conventions of the campaign reports (shortest
//! round-trip floats, `null` for non-finite values).

use bwap_topology::LinkId;
use std::borrow::Cow;
use std::collections::VecDeque;

/// Ring capacity of [`TraceSink::default`]: 2^18 events keeps a full
/// quick-scale campaign cell (tens of thousands of events) with room to
/// spare while bounding a worst-case sink at a few tens of MiB.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Chrome track (`pid` in the emitted JSON) of engine-wide events:
/// epochs and per-link bandwidth counters.
pub const ENGINE_TRACK: u64 = 0;

/// Chrome track of a simulated process's events (tracks `1..`; track 0
/// is [`ENGINE_TRACK`]).
pub fn process_track(pid: crate::process::ProcessId) -> u64 {
    1 + pid.0 as u64
}

/// Simulated clock → trace timestamp (microseconds, the `trace_event`
/// unit). Monotone in the clock, so emission order is non-decreasing in
/// `ts`.
pub fn ts_us(clock: f64) -> u64 {
    (clock * 1e6).round() as u64
}

/// The `ph` field: which kind of `trace_event` record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// `B` — duration slice opens.
    Begin,
    /// `E` — duration slice closes.
    End,
    /// `i` — instant (thread-scoped).
    Instant,
    /// `s` — flow arrow starts (paired by `id`).
    FlowStart,
    /// `f` — flow arrow ends.
    FlowEnd,
    /// `C` — counter sample; each arg is one series.
    Counter,
    /// `M` — metadata (track names).
    Metadata,
}

impl EventPhase {
    /// The single-character `ph` code.
    pub fn code(self) -> char {
        match self {
            EventPhase::Begin => 'B',
            EventPhase::End => 'E',
            EventPhase::Instant => 'i',
            EventPhase::FlowStart => 's',
            EventPhase::FlowEnd => 'f',
            EventPhase::Counter => 'C',
            EventPhase::Metadata => 'M',
        }
    }
}

/// One event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Integer argument (counts, indices).
    U64(u64),
    /// Float argument (rates, times); non-finite serializes as `null`.
    F64(f64),
    /// String argument (names).
    Str(String),
}

/// One recorded event. Field names mirror the `trace_event` keys; the
/// Chrome `pid` is called `track` here to avoid confusion with simulated
/// [`crate::process::ProcessId`]s (`tid` is always 0 — the simulator has
/// no thread dimension worth a second axis).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event kind (`ph`).
    pub ph: EventPhase,
    /// Event name (slice/counter/marker name).
    pub name: Cow<'static, str>,
    /// Timestamp, simulated microseconds.
    pub ts_us: u64,
    /// Chrome track: [`ENGINE_TRACK`] or [`process_track`].
    pub track: u64,
    /// Flow pairing id (`s`/`f` events only).
    pub id: Option<u64>,
    /// `args` object entries.
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

/// Bounded recorder of [`TraceEvent`]s. See the module docs for the
/// guarantees and `docs/TRACING.md` for the event vocabulary.
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    next_flow_id: u64,
    /// Open migration-drain flow id per process index.
    drains: Vec<Option<u64>>,
    /// Last emitted per-link-direction shares (change detection for the
    /// bandwidth counters); `-1.0` forces the first emission.
    last_links: Vec<f64>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(DEFAULT_CAPACITY)
    }
}

impl TraceSink {
    /// A sink retaining at most `capacity` events (> 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceSink {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            next_flow_id: 0,
            drains: Vec::new(),
            last_links: Vec::new(),
        }
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Append an event, evicting the oldest once full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Name a track (Chrome `process_name` metadata).
    pub fn note_track(&mut self, track: u64, name: &str, ts: u64) {
        self.push(TraceEvent {
            ph: EventPhase::Metadata,
            name: "process_name".into(),
            ts_us: ts,
            track,
            id: None,
            args: vec![("name".into(), ArgValue::Str(name.to_string()))],
        });
    }

    /// Open a duration slice.
    pub fn begin(&mut self, name: &'static str, ts: u64, track: u64) {
        self.push(TraceEvent {
            ph: EventPhase::Begin,
            name: name.into(),
            ts_us: ts,
            track,
            id: None,
            args: Vec::new(),
        });
    }

    /// Close the innermost open slice of `name` on `track`.
    pub fn end(&mut self, name: &'static str, ts: u64, track: u64) {
        self.push(TraceEvent {
            ph: EventPhase::End,
            name: name.into(),
            ts_us: ts,
            track,
            id: None,
            args: Vec::new(),
        });
    }

    /// Record an instant event with arbitrary args.
    pub fn instant(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        ts: u64,
        track: u64,
        args: Vec<(Cow<'static, str>, ArgValue)>,
    ) {
        self.push(TraceEvent {
            ph: EventPhase::Instant,
            name: name.into(),
            ts_us: ts,
            track,
            id: None,
            args,
        });
    }

    /// Record a counter sample; each arg is one series of the counter.
    pub fn counter(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        ts: u64,
        track: u64,
        args: Vec<(Cow<'static, str>, ArgValue)>,
    ) {
        self.push(TraceEvent {
            ph: EventPhase::Counter,
            name: name.into(),
            ts_us: ts,
            track,
            id: None,
            args,
        });
    }

    /// Start a migration-drain flow for process index `pid` unless one is
    /// already open; `pending` is the queue depth observed this epoch.
    pub(crate) fn drain_start(&mut self, pid: usize, track: u64, ts: u64, pending: u64) {
        if self.drains.len() <= pid {
            self.drains.resize(pid + 1, None);
        }
        if self.drains[pid].is_some() {
            return;
        }
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.drains[pid] = Some(id);
        self.push(TraceEvent {
            ph: EventPhase::FlowStart,
            name: "migration".into(),
            ts_us: ts,
            track,
            id: Some(id),
            args: vec![("pending".into(), ArgValue::U64(pending))],
        });
    }

    /// The open drain flow id of process index `pid`, if any.
    pub(crate) fn open_drain(&self, pid: usize) -> Option<u64> {
        self.drains.get(pid).copied().flatten()
    }

    /// Close the open migration-drain flow of process index `pid`.
    pub(crate) fn drain_end(&mut self, pid: usize, track: u64, ts: u64, migrated_total: u64) {
        let Some(id) = self.drains.get_mut(pid).and_then(Option::take) else {
            return;
        };
        self.push(TraceEvent {
            ph: EventPhase::FlowEnd,
            name: "migration".into(),
            ts_us: ts,
            track,
            id: Some(id),
            args: vec![("migrated_total".into(), ArgValue::U64(migrated_total))],
        });
    }

    /// Emit per-link share counters for the links whose share changed
    /// since the previous emission. `shares` yields one
    /// `(link, a_to_b, b_to_a)` per link, as
    /// `bwap_fabric::ResourceTable::link_shares` does.
    pub(crate) fn link_counters(
        &mut self,
        ts: u64,
        shares: impl Iterator<Item = (LinkId, f64, f64)>,
    ) {
        self.link_counters_impl(ts, shares, false);
    }

    /// Emit per-link share counters unconditionally — the event-driven
    /// engine stamps every stride boundary so counter timelines show the
    /// extent of a plateau rather than a gap where epochs were skipped.
    pub(crate) fn link_counters_forced(
        &mut self,
        ts: u64,
        shares: impl Iterator<Item = (LinkId, f64, f64)>,
    ) {
        self.link_counters_impl(ts, shares, true);
    }

    fn link_counters_impl(
        &mut self,
        ts: u64,
        shares: impl Iterator<Item = (LinkId, f64, f64)>,
        force: bool,
    ) {
        for (LinkId(l), ab, ba) in shares {
            if self.last_links.len() < 2 * (l + 1) {
                self.last_links.resize(2 * (l + 1), -1.0);
            }
            let changed = (self.last_links[2 * l] - ab).abs() > 1e-9
                || (self.last_links[2 * l + 1] - ba).abs() > 1e-9;
            if !(changed || force) {
                continue;
            }
            if changed {
                self.last_links[2 * l] = ab;
                self.last_links[2 * l + 1] = ba;
            }
            // A forced re-stamp of an unchanged series repeats the last
            // emitted values bitwise (the current ones may differ by the
            // sub-tolerance drift the change filter deliberately ignores),
            // so a plateau extends with identical samples.
            let (ab, ba) = (self.last_links[2 * l], self.last_links[2 * l + 1]);
            self.counter(
                format!("link{l}_gbps"),
                ts,
                ENGINE_TRACK,
                vec![("a_to_b".into(), ArgValue::F64(ab)), ("b_to_a".into(), ArgValue::F64(ba))],
            );
        }
    }

    /// Serialize the retained events as a Chrome `trace_event` JSON
    /// document (object form, `traceEvents` array; `displayTimeUnit` ms).
    /// Evicted events are summarized under `otherData.dropped_events`.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        s.push_str("{\n  \"displayTimeUnit\": \"ms\",\n");
        s.push_str(&format!("  \"otherData\": {{\"dropped_events\": \"{}\"}},\n", self.dropped));
        s.push_str("  \"traceEvents\": [\n");
        for ev in &self.events {
            s.push_str("    {");
            s.push_str(&format!("\"name\": {}, ", json_str(&ev.name)));
            s.push_str("\"cat\": \"sim\", ");
            s.push_str(&format!("\"ph\": \"{}\", ", ev.ph.code()));
            s.push_str(&format!("\"ts\": {}, ", ev.ts_us));
            s.push_str(&format!("\"pid\": {}, ", ev.track));
            s.push_str("\"tid\": 0");
            if let Some(id) = ev.id {
                s.push_str(&format!(", \"id\": {id}"));
            }
            if ev.ph == EventPhase::Instant {
                // Thread-scoped instants render as ticks on their track.
                s.push_str(", \"s\": \"t\"");
            }
            if !ev.args.is_empty() {
                s.push_str(", \"args\": {");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!("{}: {}", json_str(k), json_value(v)));
                }
                s.push('}');
            }
            s.push_str("},\n");
        }
        pop_trailing_comma(&mut s);
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_value(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(u) => format!("{u}"),
        ArgValue::F64(f) if f.is_finite() => format!("{f}"),
        ArgValue::F64(_) => "null".into(),
        ArgValue::Str(s) => json_str(s),
    }
}

/// JSON string literal with the mandatory escapes (same rules as the
/// campaign report writer).
fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn pop_trailing_comma(s: &mut String) {
    if s.ends_with(",\n") {
        s.truncate(s.len() - 2);
        s.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = TraceSink::new(3);
        for i in 0..5u64 {
            t.begin("e", i, ENGINE_TRACK);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t.events().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert!(t.to_chrome_json().contains("\"dropped_events\": \"2\""));
    }

    #[test]
    fn drains_pair_flow_ids_and_ignore_reentry() {
        let mut t = TraceSink::default();
        t.drain_start(0, 1, 10, 7);
        t.drain_start(0, 1, 11, 5); // already open: no second `s`
        assert_eq!(t.open_drain(0), Some(0));
        t.drain_end(0, 1, 20, 7);
        assert_eq!(t.open_drain(0), None);
        t.drain_end(0, 1, 21, 7); // already closed: no event
        t.drain_start(2, 3, 30, 1); // fresh flow id per drain
        let evs: Vec<_> = t.events().collect();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].ph, EventPhase::FlowStart);
        assert_eq!(evs[1].ph, EventPhase::FlowEnd);
        assert_eq!(evs[0].id, evs[1].id);
        assert_eq!(evs[2].id, Some(1));
    }

    #[test]
    fn link_counters_emit_only_on_change() {
        let mut t = TraceSink::default();
        t.link_counters(0, [(LinkId(0), 1.0, 0.0), (LinkId(1), 0.0, 0.0)].into_iter());
        t.link_counters(1, [(LinkId(0), 1.0, 0.0), (LinkId(1), 0.0, 0.0)].into_iter());
        t.link_counters(2, [(LinkId(0), 2.0, 0.0), (LinkId(1), 0.0, 0.0)].into_iter());
        // First epoch emits both links, the steady epoch none, the change
        // re-emits link0 only.
        assert_eq!(t.len(), 3);
        let names: Vec<&str> = t.events().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["link0_gbps", "link1_gbps", "link0_gbps"]);
        assert_eq!(t.events().last().unwrap().ts_us, 2);
    }

    #[test]
    fn json_has_trace_event_shape_and_escapes() {
        let mut t = TraceSink::default();
        t.note_track(0, "engine", 0);
        t.begin("epoch", 0, ENGINE_TRACK);
        t.instant("mark \"x\"", 1, ENGINE_TRACK, vec![("v".into(), ArgValue::F64(f64::NAN))]);
        t.end("epoch", 5, ENGINE_TRACK);
        let j = t.to_chrome_json();
        assert!(j.contains("\"traceEvents\": ["), "{j}");
        assert!(j.contains("\"ph\": \"M\""));
        assert!(j.contains("\"ph\": \"B\""));
        assert!(j.contains("\"ph\": \"E\""));
        assert!(j.contains("\"mark \\\"x\\\"\""));
        assert!(j.contains("\"v\": null"));
        assert!(j.contains("\"s\": \"t\""));
        // No trailing comma before the array close.
        assert!(!j.contains("},\n  ]"));
    }

    #[test]
    fn ts_us_is_monotone_in_the_clock() {
        let mut clock = 0.0;
        let mut last = 0;
        for _ in 0..10_000 {
            clock += 0.005;
            let ts = ts_us(clock);
            assert!(ts >= last);
            last = ts;
        }
        assert_eq!(ts_us(0.005), 5000);
    }
}
