//! `perfbench` — the DTR workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload corpus|upgrade|churn|validate --seed N --seconds S --trace 0|1
//! ```
//!
//! The untraced run (`--trace 0`) sets the workload up several times
//! (median → `setup_s`), then repeats its fixed work while another round
//! still fits in `--seconds` (median → `wall_s`, `cpu_s`), checking every
//! output. The traced run (`--trace 1`) runs one untraced and one traced
//! round (their ratio is the tracing overhead) and then the layer probes,
//! and reports the per-layer metrics. Both print a full ledger line
//! (provenance, spreads, workload table, span self times), write it and
//! the spans under `.perfbench/`, and end with one JSON result line.
//! The exit code is non-zero when any output check failed.

mod churn;
mod inputs;
mod probes;
mod stats;
mod trace;
mod workloads;

use stats::{num, Spread};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;
use workloads::Round;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (all threads).
fn cpu_s() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let rest = &s[s.rfind(')').map_or(0, |i| i + 2)..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    // utime and stime, in clock ticks of 1/100 s.
    (ticks(11) + ticks(12)) / 100.0
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// One JSON object member `"name":{"value":…,"unit":…<extra>}`.
fn entry(name: &str, value: f64, unit: &str, extra: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}{extra}}}",
        json_str(name),
        num(value),
        json_str(unit)
    )
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// One metric of the result line, with its samples for the ledger.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

fn metric(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value: stats::median(&samples),
        samples,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload corpus|upgrade|churn|validate --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let off = Tracer::new(false);
    let mut wl = workloads::make(&args.workload, args.seed).expect("workload name checked");
    let mut failures: Vec<String> = Vec::new();

    // Set-up, repeated; the last one's state is used.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| wl.setup(&off))) {
            eprintln!("perfbench: setup failed: {e:?}");
            std::process::exit(1);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    // A different seed must give different inputs.
    let inputs_hash = wl.inputs_hash();
    let mut other = workloads::make(&args.workload, args.seed.wrapping_add(1)).unwrap();
    other.setup(&off);
    if other.inputs_hash() == inputs_hash {
        failures.push("seed+1 generated identical inputs".into());
    }
    drop(other);

    // Timed rounds.
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut round_cpu = Vec::new();
    // Peak resident memory after the first round, so the figure does not
    // depend on how many rounds fit in the run.
    let mut peak_mb = 0.0;
    let tracer = Tracer::new(args.trace);
    loop {
        let c0 = cpu_s();
        let t0 = Instant::now();
        let r = wl.round(&off);
        let took = t0.elapsed().as_secs_f64();
        round_cpu.push(cpu_s() - c0);
        if rounds.is_empty() {
            peak_mb = peak_rss_mb();
        }
        rounds.push(r);
        let elapsed = start.elapsed().as_secs_f64();
        if args.trace || elapsed + took > args.seconds {
            break;
        }
    }
    let mut layer: Vec<workloads::Named> = Vec::new();
    if args.trace {
        let traced = {
            let _round = tracer.span("round");
            wl.round(&tracer)
        };
        let overhead = traced.wall_s / rounds[0].wall_s;
        rounds.push(traced);
        let session = rounds.last().and_then(|r| r.session.as_ref());
        // Workloads without churn probe the daemon on the first network
        // the `churn` workload would generate from this seed.
        let fallback;
        let inputs = match wl.churn_inputs() {
            Some(inputs) => inputs,
            None => {
                fallback = [workloads::churn_input(args.seed, 0, &off)];
                &fallback[..]
            }
        };
        let target = wl.probe_target();
        match catch_unwind(AssertUnwindSafe(|| {
            probes::run(&tracer, &target, args.seed, (inputs, session))
        })) {
            Ok(v) => layer = v,
            Err(e) => failures.push(format!("layer probes panicked: {e:?}")),
        }
        layer.push(workloads::named("trace.overhead_ratio", overhead, "ratio"));
    }

    // Output checks and the determinism self-check across rounds.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in &rounds {
        attempted += r.attempted;
        failed += r.failed;
        failures.extend(r.failures.iter().cloned());
    }
    let fingerprint = rounds[0].fingerprint;
    if rounds.iter().any(|r| r.fingerprint != fingerprint) {
        failures.push("outputs differ between rounds at one seed".into());
        failed += 1;
    }
    if failures.len() as u64 > failed {
        failed = failures.len() as u64;
    }
    attempted = attempted.max(failed).max(1);
    let correct = failed == 0;

    let wall: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let untraced_wall: Vec<f64> = if args.trace {
        wall[..1].to_vec()
    } else {
        wall.clone()
    };
    let fail_ratio = failed as f64 / attempted as f64;
    let end_to_end = [
        metric("setup_s", "s", setup_s),
        metric("wall_s", "s", untraced_wall),
        metric("cpu_s", "s", round_cpu),
        metric("peak_rss_mb", "MB", vec![peak_mb]),
        metric("ok_ratio", "ratio", vec![1.0 - fail_ratio]),
    ];

    // Ledger line and files.
    let prov = format!(
        "{{\"commit\":{},\"nproc\":{},\"rustc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"rounds\":{},\"setups\":{}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace as u8,
        rounds.len(),
        SETUP_REPS
    );
    let e2e_ledger = join(end_to_end.iter().map(|m| {
        let spread = format!(",{}", Spread::of(&m.samples).json());
        entry(m.name, m.value, m.unit, &spread)
    }));
    // Workload table: the first round's named results, plus fail_ratio.
    let table = join(
        rounds[0]
            .report
            .iter()
            .map(|n| entry(n.name, n.value, n.unit, ""))
            .chain(std::iter::once(entry(
                "fail_ratio",
                fail_ratio,
                "ratio",
                "",
            ))),
    );
    let mut ledger = format!(
        "{{\"ledger\":{{\"provenance\":{prov},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"inputs_hash\":\"{inputs_hash:016x}\",\"outputs_hash\":\"{fingerprint:016x}\",\"end_to_end\":{{{e2e_ledger}}},\"workload\":{{{table}}}"
    );
    let layers = join(layer.iter().map(|m| entry(m.name, m.value, m.unit, "")));
    if args.trace {
        let spans = join(tracer.summary().iter().map(|(name, s)| {
            format!(
                "{}:{{\"n\":{},\"total_s\":{},\"self_total_s\":{},\"median_s\":{},\"self_median_s\":{}}}",
                json_str(name),
                s.durations_s.len(),
                num(s.durations_s.iter().sum()),
                num(s.self_s.iter().sum()),
                num(stats::median(&s.durations_s)),
                num(stats::median(&s.self_s))
            )
        }));
        let counts = join(
            tracer
                .counts()
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), num(*v))),
        );
        ledger.push_str(&format!(
            ",\"per_layer\":{{{layers}}},\"spans\":{{{spans}}},\"counts\":{{{counts}}}"
        ));
    }
    ledger.push_str(&format!(
        ",\"failures\":[{}]}}}}",
        join(failures.iter().map(|f| json_str(f)))
    ));
    println!("{ledger}");
    let dir = std::path::Path::new(".perfbench");
    if std::fs::create_dir_all(dir).is_ok() {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload, args.seed, args.trace as u8
        );
        let _ = std::fs::write(dir.join(format!("{stem}.json")), format!("{ledger}\n"));
        if args.trace {
            let _ = tracer.write_json(&dir.join(format!("{stem}-spans.json")));
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }

    // The result line.
    let metrics = if args.trace {
        layers
    } else {
        join(
            end_to_end
                .iter()
                .map(|m| entry(m.name, m.value, m.unit, "")),
        )
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}"
    );
    std::process::exit(if correct { 0 } else { 1 });
}
