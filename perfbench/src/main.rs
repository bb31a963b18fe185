//! Host-time benchmark for the simulated Virtex-II Pro stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sw_baseline --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the workload runs untraced, over and over on the same
//! generated requests, for `--seconds` of host time, and the end-to-end
//! metrics are medians over those passes. With `--trace 1` one untraced
//! and one traced pass run, followed by the set-up replay, the layer
//! replay and the interpreter probe, and the per-layer metrics are
//! reported. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md beside
//! this file for the metric, layer and workload table.

mod replay;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rtr_apps::request::Kernel;
use vp2_sim::Json;

use replay::{kernel_key, kernel_probe, layer_replay, setup_replay, Path, SetupCounts};
use spans::Spans;
use workload::{boot_s, run_pass, HostTimes, SimOutcome, Workload};

/// Fewest untraced passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// How far the replayed set-up steps may sum from the measured set-up, as
/// a share of it. Calibration is most of set-up, so leaving out any
/// step's worth of work shows; the rest is room for host noise.
const SETUP_TOLERANCE: f64 = 0.25;

/// Fewest set-up calls and replays alternated in a traced run.
const SETUP_ROUNDS: usize = 5;

/// Host seconds the set-up check runs at least, so that cheap set-ups
/// get more rounds than SETUP_ROUNDS.
const SETUP_CHECK_MIN_S: f64 = 10.0;

/// Host seconds after which the set-up check adds no more rounds.
const SETUP_CHECK_S: f64 = 60.0;

/// Kernels of the software replay's traffic: all but PatMatch.
const SW_KERNELS: [Kernel; 5] = [
    Kernel::Sha1,
    Kernel::Jenkins,
    Kernel::Brightness,
    Kernel::Blend,
    Kernel::Fade,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sw_baseline|hw_reconfig|fleet> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", report.render());
    ExitCode::SUCCESS
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "metric values are finite");
        self.metrics.push((name.into(), unit, value));
    }

    fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::obj(), |obj, (name, unit, value)| {
                obj.field(
                    name,
                    Json::obj().field("value", *value).field("unit", *unit),
                )
            });
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .render()
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, the rank rule the service's metrics use.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(p * (sorted.len() - 1) as f64).round() as usize]
}

/// Samples strictly beyond the service's p99 rank over `n` samples.
fn beyond_p99(n: usize) -> usize {
    n - 1 - (0.99 * (n - 1) as f64).round() as usize
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks one pass's simulated outcome; prints what failed.
fn outcome_ok(o: &SimOutcome, attempted: usize) -> bool {
    let completed = o.total.completed as usize == attempted;
    let verified = o.total.verify_failures == 0;
    if !completed {
        println!("FAIL: completed {} of {attempted}", o.total.completed);
    }
    if !verified {
        println!(
            "FAIL: {} responses failed verification",
            o.total.verify_failures
        );
    }
    completed && verified
}

fn failures(o: &SimOutcome, attempted: usize) -> u64 {
    (attempted as u64).saturating_sub(o.total.completed) + o.total.verify_failures
}

fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let schedule = w.traffic(args.seed).generate();
    let started = Instant::now();
    let mut passes: Vec<(HostTimes, SimOutcome)> = Vec::new();
    // Stop before a pass that would overrun the measuring window, but make
    // at least MIN_PASSES so every host figure is a median.
    loop {
        let mut spans = Spans::new(false);
        let (host, out) = run_pass(w, &schedule, &mut spans);
        println!(
            "pass {}: set-up {:.4} s, requests {:.4} s, snapshot {:.6} s",
            passes.len() + 1,
            host.setup_s,
            host.request_s,
            host.snapshot_s
        );
        passes.push((host, out));
        let mut totals: Vec<f64> = passes.iter().map(|(h, _)| h.total_s()).collect();
        let typical = median(&mut totals);
        let elapsed = started.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && elapsed + typical > args.seconds {
            break;
        }
    }
    let first = &passes[0].1;
    let mut correct = outcome_ok(first, schedule.len());
    let digests_agree = passes.iter().all(|(_, o)| o.digest == first.digest);
    if !digests_agree {
        println!("FAIL: snapshot digests differ between passes of one invocation");
    }
    correct &= digests_agree;
    let beyond = beyond_p99(first.total.completed as usize);
    if beyond < 10 {
        println!("FAIL: only {beyond} samples beyond p99");
        correct = false;
    }
    println!(
        "{} seed {}: {} passes of {} requests, snapshot digest {:016x}, {} latency samples ({} beyond p99)",
        w.name(),
        args.seed,
        passes.len(),
        schedule.len(),
        first.digest,
        first.total.completed,
        beyond
    );
    let col = |f: &dyn Fn(&HostTimes, &SimOutcome) -> f64| -> f64 {
        let mut v: Vec<f64> = passes.iter().map(|(h, o)| f(h, o)).collect();
        median(&mut v)
    };
    let attempted = (passes.len() * schedule.len()) as u64;
    let failed = passes
        .iter()
        .map(|(_, o)| failures(o, schedule.len()))
        .sum();
    let mut r = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    r.metric("setup_s", "s", col(&|h, _| h.setup_s));
    r.metric("total_s", "s", col(&|h, _| h.total_s()));
    r.metric(
        "req_per_host_s",
        "1/s",
        col(&|h, o| o.total.completed as f64 / h.request_s),
    );
    r.metric("peak_rss_mb", "MB", peak_rss_mb());
    r.metric("sim_makespan_ms", "ms", first.makespan.as_ms_f64());
    r.metric(
        "sim_latency_p50_us",
        "us",
        first.total.latency_p50.as_us_f64(),
    );
    r.metric(
        "sim_latency_p99_us",
        "us",
        first.total.latency_p99.as_us_f64(),
    );
    r.metric(
        "completed_frac",
        "frac",
        1.0 - failures(first, schedule.len()) as f64 / schedule.len() as f64,
    );
    r
}

fn traced(args: &Args) -> Report {
    let w = args.workload;
    let mut spans = Spans::new(true);
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Traffic generation, timed alone: median of a few generations.
    let mut gen_us = Vec::new();
    let mut schedule = Vec::new();
    for _ in 0..5 {
        let s = spans.enter("service.traffic", None);
        let t = Instant::now();
        schedule = w.traffic(args.seed).generate();
        gen_us.push(t.elapsed().as_secs_f64() * 1e6 / schedule.len() as f64);
        spans.exit(s);
    }

    // One untraced pass, then the same pass traced; the difference in the
    // request phase is the tracing overhead.
    let (plain, plain_out) = run_pass(w, &schedule, &mut Spans::new(false));
    let (host, out) = run_pass(w, &schedule, &mut spans);
    for o in [&plain_out, &out] {
        correct &= outcome_ok(o, schedule.len());
        attempted += schedule.len() as u64;
        failed += failures(o, schedule.len());
    }
    if plain_out.digest != out.digest {
        println!("FAIL: traced and untraced snapshot digests differ");
        correct = false;
    }
    let overhead_s = host.request_s - plain.request_s;

    // Set-up replay: Service::new's steps for every shard, in boot order,
    // alternated with the real set-up call (which goes first swaps each
    // round). Host speed on a shared machine swings by up to 2x over
    // seconds, so the two are compared round by round: the gap is the
    // median over rounds of replay / set-up, and a swing moves both
    // halves of a round alike. Rounds run for at least
    // SETUP_CHECK_MIN_S; while the gap is over the tolerance, rounds are
    // added up to SETUP_CHECK_S, because a step the replay leaves out
    // keeps the two apart however many rounds run. Spans are kept from
    // the fastest replay.
    let configs = w.shard_configs();
    let (mut booted, mut ratios) = (Vec::new(), Vec::new());
    let mut fastest: Option<(f64, Spans, SetupCounts)> = None;
    let started = Instant::now();
    let setup_gap = loop {
        let round = ratios.len();
        if round % 2 == 0 {
            booted.push(boot_s(w));
        }
        let mut rec = Spans::new(true);
        let (s, c) = setup_replay(&configs, &mut rec);
        if fastest.as_ref().is_none_or(|(f, ..)| s < *f) {
            fastest = Some((s, rec, c));
        }
        if round % 2 == 1 {
            booted.push(boot_s(w));
        }
        println!(
            "set-up round {}: set-up {:.4} s, replay {s:.4} s",
            round + 1,
            booted[round]
        );
        ratios.push(s / booted[round]);
        let ratio = median(&mut ratios.clone());
        let gap = (ratio - 1.0).abs();
        let elapsed = started.elapsed().as_secs_f64();
        let settled = gap <= SETUP_TOLERANCE && elapsed >= SETUP_CHECK_MIN_S;
        if ratios.len() >= SETUP_ROUNDS && (settled || elapsed > SETUP_CHECK_S) {
            println!(
                "set-up replay / set-up: median {ratio:.3} over {} rounds ({:.1}% apart)",
                ratios.len(),
                gap * 100.0
            );
            break gap;
        }
    };
    if setup_gap > SETUP_TOLERANCE {
        println!("FAIL: replayed set-up steps do not add up to the measured set-up");
        correct = false;
    }
    let (_, replay_spans, counts) = fastest.expect("at least one set-up round");
    spans.append(replay_spans);

    // Layer replay of this workload's requests.
    let layer = w.replay_path().map(|path| {
        let cfg = w.service_config().expect("single-service workload");
        layer_replay(cfg.kind, &cfg.plane, path, &schedule, &mut spans)
    });
    if let Some(l) = &layer {
        attempted += l.requests;
        failed += l.mismatches;
        if l.mismatches > 0 {
            println!(
                "FAIL: {} replayed responses differ from the reference",
                l.mismatches
            );
            correct = false;
        }
    }

    let (probe, probe_ok) = kernel_probe(&mut spans);
    attempted += Kernel::ALL.len() as u64;
    if !probe_ok {
        println!("FAIL: an interpreter probe response differs from the reference");
        failed += 1;
        correct = false;
    }

    let selfs = spans.self_times();
    println!("self time by span ({} spans):", spans.len());
    for (name, (s, calls)) in &selfs {
        println!("  {name:<24} {:>10.3} ms  {calls:>6} calls", s * 1e3);
    }
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from);
    let path = dir
        .join("out")
        .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }

    let self_ms = |name: &str| selfs.get(name).map_or(0.0, |(s, _)| s * 1e3);
    let mut r = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };

    // Set-up, split by layer.
    r.metric("service.calibrate_ms", "ms", self_ms("service.calibrate"));
    r.metric(
        "service.calibrate_calls",
        "count",
        counts.calibrate_calls as f64,
    );
    r.metric("bitstream.register_ms", "ms", self_ms("bitstream.register"));
    r.metric("bitstream.link_calls", "count", counts.link_calls as f64);
    r.metric("core.build_system_ms", "ms", self_ms("core.build_system"));
    r.metric("apps.preload_ms", "ms", self_ms("apps.preload"));
    r.metric("core.warmup_load_ms", "ms", self_ms("core.warmup_load"));

    // The request phase, by public call.
    r.metric("service.process_s", "s", spans.total_s("service.process"));
    let mut admit_us: Vec<f64> = spans
        .named("federation.admit")
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    admit_us.sort_by(f64::total_cmp);
    r.metric("federation.admit_us_p50", "us", percentile(&admit_us, 0.50));
    r.metric("federation.admit_us_p99", "us", percentile(&admit_us, 0.99));
    r.metric(
        "federation.flush_all_ms",
        "ms",
        spans.total_s("federation.flush_all") * 1e3,
    );
    r.metric(
        "federation.snapshot_ms",
        "ms",
        spans.total_s("federation.snapshot") * 1e3,
    );
    r.metric("service.traffic_us_per_req", "us", median(&mut gen_us));

    // Layer replay: interpreter, caches, buses, dock, ICAP.
    let l = layer.unwrap_or_default();
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let sw = w.replay_path() == Some(Path::Software);
    r.metric(
        "ppc.instr_per_host_s",
        "instr/s",
        if l.run_s > 0.0 {
            l.retired as f64 / l.run_s
        } else {
            0.0
        },
    );
    r.metric("ppc.retired", "count", l.retired as f64);
    r.metric(
        "ppc.icache_miss_frac",
        "frac",
        frac(l.icache_misses, l.icache_accesses),
    );
    r.metric(
        "ppc.dcache_miss_frac",
        "frac",
        frac(l.dcache_misses, l.dcache_accesses),
    );
    r.metric(
        "coreconnect.bus_transactions",
        "count",
        l.bus_transactions as f64,
    );
    r.metric("dock.transfers", "count", l.dock_transfers as f64);
    for kernel in SW_KERNELS {
        let key = kernel_key(kernel);
        let v = if sw {
            l.per_kernel.get(key).map_or(0.0, |k| k.us_per_kb())
        } else {
            0.0
        };
        r.metric(format!("apps.sw_us_per_kb.{key}"), "us/KB", v);
    }
    for kernel in Kernel::ALL {
        let key = kernel_key(kernel);
        let v = if sw {
            0.0
        } else {
            l.per_kernel.get(key).map_or(0.0, |k| k.us_per_kb())
        };
        r.metric(format!("apps.hw_us_per_kb.{key}"), "us/KB", v);
    }
    let mut load_ms = l.load_ms.clone();
    load_ms.sort_by(f64::total_cmp);
    r.metric("core.load_ms_p50", "ms", percentile(&load_ms, 0.50));
    r.metric("core.load_ms_p99", "ms", percentile(&load_ms, 0.99));
    r.metric("core.loads", "count", load_ms.len() as f64);
    let load_s: f64 = load_ms.iter().sum::<f64>() * 1e-3;
    r.metric("coreconnect.icap_words", "count", l.icap_words as f64);
    r.metric(
        "coreconnect.icap_words_per_host_s",
        "words/s",
        if load_s > 0.0 {
            l.icap_words as f64 / load_s
        } else {
            0.0
        },
    );
    for (key, rate) in &probe {
        r.metric(format!("ppc.instr_per_host_s.{key}"), "instr/s", *rate);
    }

    // Simulated counters of the traced pass.
    let t = &out.total;
    let plane = t.plane.unwrap_or_default();
    r.metric(
        "configplane.cache_hit_frac",
        "frac",
        frac(plane.cache_hits, plane.cache_hits + plane.cache_misses),
    );
    r.metric(
        "configplane.diff_ratio",
        "frac",
        if plane.words_full == 0 {
            0.0
        } else {
            plane.diff_ratio()
        },
    );
    r.metric("service.hw_frac", "frac", frac(t.hw_items, t.completed));
    r.metric("service.swaps", "count", t.swaps as f64);
    r.metric("service.reconfig_sim_ms", "ms", t.reconfig_time.as_ms_f64());
    r.metric("service.hw_busy_frac", "frac", t.hw_utilization);
    r.metric("service.sw_busy_frac", "frac", t.sw_utilization);
    let fleet = out.fleet.unwrap_or_default();
    r.metric(
        "federation.steal_events",
        "count",
        fleet.steal_events as f64,
    );
    r.metric("federation.sheds", "count", fleet.sheds as f64);
    r.metric("cluster.affinity_hits", "count", fleet.affinity_hits as f64);
    r.metric("perfbench.trace_overhead_s", "s", overhead_s);
    r
}
