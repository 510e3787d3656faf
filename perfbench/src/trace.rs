//! In-memory span recorder.
//!
//! A span is one timed call from the benchmark into a layer: its name,
//! start and end (nanoseconds since the recorder was created), the span
//! that was open when it started (its parent) and the request it served.
//! Spans stay in memory until the run ends; [`Tracer::write_json`] then
//! writes them out and [`Tracer::summary`] folds them into per-name
//! totals and self times (a span's duration minus the part of it its
//! children cover).
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the calling thread, innermost last.
    stack: Vec<usize>,
    request: u64,
    counts: BTreeMap<String, f64>,
}

/// The recorder. Nesting via [`Tracer::span`] is tracked for the thread
/// that drives the workload; other threads hand finished intervals to
/// [`Tracer::record`].
pub struct Tracer {
    on: bool,
    t0: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            let mut st = self.tracer.state.lock().unwrap();
            st.spans[i].end_ns = now;
            if let Some(pos) = st.stack.iter().rposition(|&j| j == i) {
                st.stack.truncate(pos);
            }
        }
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Durations in seconds, in recording order.
    pub durations_s: Vec<f64>,
    /// Self times in seconds, aligned with `durations_s`.
    pub self_s: Vec<f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds of `t` on this recorder's clock.
    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Starts a new request id; spans opened afterwards carry it.
    pub fn next_request(&self) -> u64 {
        if !self.on {
            return 0;
        }
        let mut st = self.state.lock().unwrap();
        st.request += 1;
        st.request
    }

    /// Opens a span nested in the innermost open span.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let now = self.now_ns();
        let mut st = self.state.lock().unwrap();
        let parent = st.stack.last().copied();
        let request = st.request;
        let index = st.spans.len();
        st.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        st.stack.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    /// Records a finished interval measured elsewhere (another thread),
    /// parented to the innermost span open on the driving thread.
    pub fn record(&self, name: &str, start: Instant, end: Instant, request: u64) {
        if !self.on {
            return;
        }
        let (s, e) = (self.ns_of(start), self.ns_of(end));
        let mut st = self.state.lock().unwrap();
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            name: name.to_string(),
            start_ns: s,
            end_ns: e.max(s),
            parent,
            request,
        });
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&self, name: &str, v: f64) {
        if !self.on {
            return;
        }
        *self
            .state
            .lock()
            .unwrap()
            .counts
            .entry(name.to_string())
            .or_insert(0.0) += v;
    }

    pub fn counts(&self) -> BTreeMap<String, f64> {
        self.state.lock().unwrap().counts.clone()
    }

    /// Per-name durations and self times.
    pub fn summary(&self) -> BTreeMap<String, SpanStats> {
        let st = self.state.lock().unwrap();
        let spans = &st.spans;
        // Child coverage per span: the union of its children's
        // intervals, clipped to the parent's own interval.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut iv = std::mem::take(&mut children[i]);
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let e = out.entry(s.name.clone()).or_insert(SpanStats {
                durations_s: Vec::new(),
                self_s: Vec::new(),
            });
            e.durations_s.push(dur as f64 * 1e-9);
            e.self_s.push(dur.saturating_sub(covered) as f64 * 1e-9);
        }
        out
    }

    /// Every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let st = self.state.lock().unwrap();
        let mut s = String::with_capacity(64 * st.spans.len() + 16);
        s.push_str("{\"spans\":[\n");
        for (i, sp) in st.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.request
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}
