//! The `dtrd` load generator: one writer connection replaying a churn
//! trace closed-loop, one probe connection sending read-only requests on
//! a fixed-rate open-loop schedule, both over loopback TCP against
//! [`dtr_daemon::serve_tcp`] running on a thread of this process.

use crate::stats::{derive, fnv, median, percentile};
use crate::trace::Tracer;
use dtr_core::{DtrSearch, DualWeights, ReoptSession, Scheme, WeightVector};
use dtr_daemon::{Daemon, DaemonCfg, EventAction, Reply, Request};
use dtr_scenario::ChurnTrace;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A generated churn instance and the daemon's boot incumbent.
pub struct ChurnInput {
    pub trace: ChurnTrace,
    pub cfg: DaemonCfg,
    pub boot: DualWeights,
    /// Probes the probe connection sends, and their rate.
    pub probes: usize,
    pub probe_hz: f64,
    pub seed: u64,
}

/// How a writer line was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// No search ran (coalesced or no-op event, what-if).
    Ack,
    /// A search ran (a flush, a batch-closing or uncoalesced event).
    Reopt,
}

/// Deterministic tallies of a reply stream.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub accepted: u64,
    pub searches: u64,
    pub batch_sizes: Vec<f64>,
    pub total_gain: f64,
    pub total_churn_messages: u64,
    pub errors: u64,
    pub unparsed: u64,
}

impl Tally {
    /// Classifies one writer reply and folds it in.
    pub fn add(&mut self, reply_line: &str) -> LineKind {
        match serde_json::from_str::<Reply>(reply_line) {
            Ok(Reply::Event(r)) => {
                if r.action == EventAction::Accepted {
                    self.accepted += 1;
                    self.total_gain += r.gain;
                    self.total_churn_messages += r.churn.as_ref().map_or(0, |c| c.lsa_messages);
                }
                if r.batch >= 1 {
                    self.searches += 1;
                    self.batch_sizes.push(r.batch as f64);
                    LineKind::Reopt
                } else {
                    LineKind::Ack
                }
            }
            Ok(Reply::Error { .. }) => {
                self.errors += 1;
                LineKind::Ack
            }
            Ok(_) => LineKind::Ack,
            Err(_) => {
                self.unparsed += 1;
                LineKind::Ack
            }
        }
    }

    pub fn gain_per_churn(&self) -> f64 {
        if self.total_churn_messages > 0 {
            self.total_gain / self.total_churn_messages as f64
        } else {
            0.0
        }
    }

    pub fn accept_ratio(&self) -> f64 {
        if self.searches > 0 {
            self.accepted as f64 / self.searches as f64
        } else {
            0.0
        }
    }
}

/// The protocol lines of a trace with the deterministic flush rule: a
/// `Flush` follows the last event of each timestamp when the daemon
/// holds an open batch. Whether a batch is open depends on the replies,
/// so the writer decides flushes as it goes; this yields the events.
fn event_requests(trace: &ChurnTrace) -> Vec<(Request, bool)> {
    trace
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let boundary = trace
                .events
                .get(i + 1)
                .is_none_or(|next| next.at_s != e.at_s);
            (Request::from_churn(&e.action), boundary)
        })
        .collect()
}

/// Drives the writer protocol over any transport: every trace event,
/// the flushes the batch-boundary rule asks for, then a `Snapshot`.
/// Returns (reply lines, per-line latency, per-line kind, snapshot line).
pub fn drive_writer<F: FnMut(&str) -> String>(
    trace: &ChurnTrace,
    send: &mut F,
    tally: &mut Tally,
    tr: &Tracer,
    span_prefix: &str,
) -> (Vec<String>, Vec<f64>, Vec<LineKind>, String) {
    let ack_name = format!("{span_prefix}.ack");
    let reopt_name = format!("{span_prefix}.reopt");
    let mut lines = Vec::new();
    let mut lat = Vec::new();
    let mut kinds = Vec::new();
    let mut pending = 0usize;
    let flush = serde_json::to_string(&Request::Flush).expect("serialize");
    let mut exchange = |line: &str, tally: &mut Tally| -> (String, LineKind) {
        let req = tr.next_request();
        let t0 = Instant::now();
        let reply = send(line);
        let t1 = Instant::now();
        lat.push(t1.duration_since(t0).as_secs_f64());
        let kind = tally.add(&reply);
        let name = match kind {
            LineKind::Ack => &ack_name,
            LineKind::Reopt => &reopt_name,
        };
        tr.record(name, t0, t1, req);
        kinds.push(kind);
        lines.push(reply.clone());
        (reply, kind)
    };
    for (req, boundary) in event_requests(trace) {
        let line = serde_json::to_string(&req).expect("requests serialize");
        let (reply, kind) = exchange(&line, tally);
        if let Ok(Reply::Event(r)) = serde_json::from_str::<Reply>(&reply) {
            if r.action == EventAction::Coalesced {
                pending += 1;
            } else if kind == LineKind::Reopt {
                pending = 0;
            }
        }
        if boundary && pending > 0 {
            exchange(&flush, tally);
            pending = 0;
        }
    }
    let snap = send(&serde_json::to_string(&Request::Snapshot).expect("serialize"));
    (lines, lat, kinds, snap)
}

/// The end state scored against a cold batch re-optimization, as
/// `replay_trace` scores it: `(batch_ratio, r_h, r_l, batch evaluations,
/// batch search seconds)`, where `r_* = batch Φ ÷ daemon Φ` per class
/// (above 1: the daemon's incumbent beats the cold search).
pub fn score_end_state(snap_line: &str, cfg: DaemonCfg) -> Option<(f64, f64, f64, usize, f64)> {
    let Ok(Reply::Snapshot(snap)) = serde_json::from_str::<Reply>(snap_line) else {
        return None;
    };
    let mut mirror = Daemon::new(
        snap.topo.clone(),
        snap.demands.clone(),
        Some(snap.incumbent.clone()),
        cfg,
    );
    if !matches!(
        mirror.handle(Request::Restore { snapshot: snap }),
        Reply::Restored { .. }
    ) {
        return None;
    }
    let final_cost = mirror.cost_of(mirror.incumbent());
    let t0 = Instant::now();
    let (weights, evals) = if mirror.link_up().iter().all(|&u| u) {
        let res = DtrSearch::new(mirror.topo(), mirror.demands(), cfg.objective, cfg.params).run();
        (res.weights, res.trace.evaluations)
    } else {
        // Links still down: a cold masked search from uniform weights
        // with an effectively unlimited change budget.
        let uniform = DualWeights::replicated(WeightVector::uniform(mirror.topo(), 1));
        let mut s = ReoptSession::new(uniform, cfg.objective, cfg.params, Scheme::Dtr);
        let h = 2 * mirror.topo().link_count();
        let res = s.step_masked(mirror.topo(), mirror.demands(), mirror.link_up(), h);
        (res.weights, res.trace.evaluations)
    };
    let search_s = t0.elapsed().as_secs_f64();
    let batch_cost = mirror.cost_of(&weights);
    let num = final_cost.phi_h + final_cost.phi_l;
    let den = batch_cost.phi_h + batch_cost.phi_l;
    let ratio = if den > 0.0 { num / den } else { 1.0 };
    let r = |b: f64, d: f64| dtr_core::cost_ratio(b, d);
    Some((
        ratio,
        r(batch_cost.phi_h, final_cost.phi_h),
        r(batch_cost.phi_l, final_cost.phi_l),
        evals,
        search_s,
    ))
}

/// Everything one TCP session produced.
pub struct Session {
    pub wall_s: f64,
    pub lines: usize,
    pub reply_hash: u64,
    pub tally: Tally,
    pub ack_s: Vec<f64>,
    pub reopt_s: Vec<f64>,
    pub probe_s: Vec<f64>,
    pub probe_late_s: Vec<f64>,
    pub probes_sent: usize,
    pub probes_ok: usize,
    pub snapshot: String,
    pub failures: Vec<String>,
}

impl Session {
    /// One session's worth of numbers from several sessions run one
    /// after another: latencies pooled, counts and times summed.
    pub fn merge(parts: Vec<Session>) -> Session {
        let mut out = Session {
            wall_s: 0.0,
            lines: 0,
            reply_hash: 0,
            tally: Tally::default(),
            ack_s: Vec::new(),
            reopt_s: Vec::new(),
            probe_s: Vec::new(),
            probe_late_s: Vec::new(),
            probes_sent: 0,
            probes_ok: 0,
            snapshot: String::new(),
            failures: Vec::new(),
        };
        for p in parts {
            out.wall_s += p.wall_s;
            out.lines += p.lines;
            out.reply_hash = out.reply_hash.rotate_left(7) ^ p.reply_hash;
            out.tally.accepted += p.tally.accepted;
            out.tally.searches += p.tally.searches;
            out.tally.batch_sizes.extend(p.tally.batch_sizes);
            out.tally.total_gain += p.tally.total_gain;
            out.tally.total_churn_messages += p.tally.total_churn_messages;
            out.tally.errors += p.tally.errors;
            out.tally.unparsed += p.tally.unparsed;
            out.ack_s.extend(p.ack_s);
            out.reopt_s.extend(p.reopt_s);
            out.probe_s.extend(p.probe_s);
            out.probe_late_s.extend(p.probe_late_s);
            out.probes_sent += p.probes_sent;
            out.probes_ok += p.probes_ok;
            out.snapshot.push_str(&p.snapshot);
            out.snapshot.push('\n');
            out.failures.extend(p.failures);
        }
        out
    }

    pub fn ack_p(&self, p: f64) -> f64 {
        percentile(&self.ack_s, p) * 1e3
    }
    pub fn probe_p(&self, p: f64) -> f64 {
        percentile(&self.probe_s, p) * 1e3
    }
    pub fn reopt_p50_ms(&self) -> f64 {
        median(&self.reopt_s) * 1e3
    }
}

fn connect(addr: std::net::SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

fn round_trip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    let mut reply = String::new();
    if writeln!(writer, "{line}")
        .and_then(|_| writer.flush())
        .is_err()
    {
        return reply;
    }
    let _ = reader.read_line(&mut reply);
    reply.trim_end().to_string()
}

/// Probe request `i`: alternately `Status` and a what-if on a link
/// drawn from the seed.
fn probe_request(i: usize, links: usize, seed: u64) -> String {
    let req = if i.is_multiple_of(2) {
        Request::Status
    } else {
        Request::WhatIfLinkDown {
            link: (derive(seed, i as u64) % links as u64) as u32,
        }
    };
    serde_json::to_string(&req).expect("serialize")
}

/// Runs one session: boots a daemon on the boot incumbent, serves it on
/// an ephemeral loopback port, replays the trace on the writer
/// connection while the probe thread runs its schedule, then shuts the
/// daemon down and joins every thread.
pub fn run_session(input: &ChurnInput, tr: &Tracer) -> std::io::Result<Session> {
    let daemon = tr.time("daemon.boot", || {
        Daemon::new(
            input.trace.topo.clone(),
            input.trace.base.clone(),
            Some(input.boot.clone()),
            input.cfg,
        )
    });
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || dtr_daemon::serve_tcp(daemon, listener));

    let (mut reader, mut writer) = connect(addr)?;
    let (mut preader, mut pwriter) = connect(addr)?;
    let links = input.trace.topo.link_count();
    let (probes, hz, seed) = (input.probes, input.probe_hz, input.seed);

    let start = Instant::now();
    let prober = std::thread::spawn(move || {
        let mut out = Vec::with_capacity(probes);
        for i in 0..probes {
            let due = start + Duration::from_secs_f64(i as f64 / hz);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let reply = round_trip(&mut preader, &mut pwriter, &probe_request(i, links, seed));
            let done = Instant::now();
            let ok = matches!(
                serde_json::from_str::<Reply>(&reply),
                Ok(Reply::Status(_)) | Ok(Reply::WhatIf(_))
            );
            out.push((due, sent, done, ok));
        }
        out
    });

    let mut tally = Tally::default();
    let mut send = |line: &str| round_trip(&mut reader, &mut writer, line);
    let (lines, lat, kinds, snapshot) =
        drive_writer(&input.trace, &mut send, &mut tally, tr, "churn.line");
    let wall_s = start.elapsed().as_secs_f64();
    let probe_rows = prober.join().expect("probe thread");
    let bye = round_trip(
        &mut reader,
        &mut writer,
        &serde_json::to_string(&Request::Shutdown).expect("serialize"),
    );
    drop(reader);
    drop(writer);
    server.join().expect("server thread")?;

    let mut failures = Vec::new();
    if !matches!(serde_json::from_str::<Reply>(&bye), Ok(Reply::Bye { .. })) {
        failures.push(format!("expected Bye, got {bye:?}"));
    }
    let mut ack_s = Vec::new();
    let mut reopt_s = Vec::new();
    for (s, k) in lat.iter().zip(&kinds) {
        match k {
            LineKind::Ack => ack_s.push(*s),
            LineKind::Reopt => reopt_s.push(*s),
        }
    }
    let req = tr.next_request();
    let mut probe_s = Vec::new();
    let mut probe_late_s = Vec::new();
    let mut probes_ok = 0;
    for (due, sent, done, ok) in &probe_rows {
        probe_s.push(done.duration_since(*due).as_secs_f64());
        probe_late_s.push(sent.duration_since(*due).as_secs_f64());
        tr.record("loadgen.probe", *due, *done, req);
        probes_ok += *ok as usize;
    }
    let mut all = String::new();
    for l in &lines {
        all.push_str(l);
        all.push('\n');
    }
    Ok(Session {
        wall_s,
        lines: lines.len(),
        reply_hash: fnv(all.as_bytes()),
        tally,
        ack_s,
        reopt_s,
        probe_s,
        probe_late_s,
        probes_sent: probe_rows.len(),
        probes_ok,
        snapshot,
        failures,
    })
}
