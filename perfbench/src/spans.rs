//! The benchmark's own span recorder: spans around the public calls into
//! each layer, kept in memory and written at exit as a Chrome trace
//! through `icfl_obs::trace::chrome_trace_json`.
//!
//! A span has a name, a start, an end and the span that caused it. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Recording is off in untraced runs: a
//! disabled recorder returns immediately, so end-to-end numbers carry no
//! tracing cost.

use icfl_obs::TraceEvent;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one recorded span (its index); `0` is "no parent".
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    lane: u64,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span store shared by the benchmark's threads.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Aggregates of all spans of one name.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span that started at `start` and ends now, on
    /// thread lane `lane`, caused by `parent`. Returns its id.
    pub fn record(&self, name: &'static str, parent: SpanId, lane: u64, start: Instant) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let end = Instant::now();
        let span = Span {
            name,
            parent,
            lane,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(span);
        spans.len()
    }

    /// Opens a span that records when [`Open::close`] is called; its id
    /// is reserved up front so children can name it as their parent.
    pub fn open(&self, name: &'static str, parent: SpanId, lane: u64) -> Open<'_> {
        let id = if self.enabled {
            let mut spans = self.spans.lock().expect("span store lock");
            spans.push(Span {
                name,
                parent,
                lane,
                start_ns: self.nanos(Instant::now()),
                end_ns: 0,
            });
            spans.len()
        } else {
            0
        };
        Open { spans: self, id }
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Count, total time and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans.lock().expect("span store lock");
        // Children's covered time per parent, merged so overlapping
        // children (parallel work under one parent) are not counted twice.
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get(&(i + 1)).map_or(0, |c| covered_ns(c, s));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Every span as a Chrome-trace complete event (microseconds).
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.lock().expect("span store lock");
        let events: Vec<TraceEvent> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| TraceEvent {
                name: s.name.to_owned(),
                cat: s.name.split('.').next().unwrap_or("bench").to_owned(),
                ph: "X".to_owned(),
                ts: s.start_ns / 1000,
                dur: s.end_ns.saturating_sub(s.start_ns) / 1000,
                pid: 1,
                tid: s.lane,
                args: vec![
                    ("id".to_owned(), (i + 1).to_string()),
                    ("parent".to_owned(), s.parent.to_string()),
                ],
            })
            .collect();
        icfl_obs::trace::chrome_trace_json(&events)
    }
}

/// The part of `parent`'s interval covered by the union of `kids`.
fn covered_ns(kids: &[(u64, u64)], parent: &Span) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&(a, b)| (a.max(parent.start_ns), b.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// A span opened by [`Spans::open`].
pub struct Open<'a> {
    spans: &'a Spans,
    id: SpanId,
}

impl Open<'_> {
    /// The span's id, for children.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Ends the span now.
    pub fn close(self) {
        if self.id == 0 {
            return;
        }
        let end = self.spans.nanos(Instant::now());
        self.spans.spans.lock().expect("span store lock")[self.id - 1].end_ns = end;
    }
}
