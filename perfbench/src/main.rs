//! The repository's benchmark: one workload per invocation, end to end
//! (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload churn|durable|tenants --seed N --seconds S --trace 0|1
//!           [--scratch DIR] [--out-dir DIR] [--smoke]
//! ```
//!
//! An end-to-end run repeats {generate the stream from the seed, build the
//! front-end, serve the stream in a closed loop of commit windows, check
//! the result} until `--seconds` have passed (at least three times), and
//! reports medians across the repetitions. The deterministic metrics must
//! be bit-identical across them. A traced run serves the stream untraced
//! and traced (the difference is the tracing overhead), probes the other
//! front-end, and replays the stream through the layer ladder.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every check passed.

mod frontend;
mod ladder;
mod spec;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use frontend::{Pass, Recovery, RECOVER_STAGES};
use spec::{Expected, Kind, Spec};
use storage_realloc::engine::Json;

/// Counts allocations per thread, so the ladder can attribute them to the
/// core calls it makes on its own thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` without a destructor, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Repetitions an end-to-end run makes at least (each one a process of
/// its own; the determinism self-check needs repeats).
const MIN_REPS: usize = 4;
/// Set-ups (generate + construct, then drop) each repetition times
/// besides its own, for a steady `setup_s` median.
const EXTRA_SETUPS: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Run a single repetition and print its raw result (what an
    /// end-to-end run spawns).
    rep: bool,
    scratch: PathBuf,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut rep = false;
    let mut scratch = PathBuf::from(".perfbench_tmp");
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" || flag == "--rep" {
            smoke |= flag == "--smoke";
            rep |= flag == "--rep";
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        rep,
        scratch,
        out_dir,
    })
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Named metrics in emission order. A metric that is only printed
/// (`in_json == false`) can read 0 on every run of a workload — e.g. a
/// stall percentile when nothing stalls — so it stays out of the result.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, bool)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit, true));
    }

    fn print_only(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit, false));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .filter(|m| m.3)
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The verdict every invocation ends with.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.requests;
        self.failed += pass.failed;
        self.problems.extend(pass.problems.iter().cloned());
    }

    fn problem(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Prints the human-readable lines, then the JSON line; returns the
    /// exit code.
    fn finish(mut self) -> ExitCode {
        for (name, value, ..) in &self.metrics.0 {
            if !value.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
                self.failed += 1;
            }
        }
        for (name, value, unit, in_json) in &self.metrics.0 {
            let note = if *in_json { "" } else { "  (printed only)" };
            println!("{name:<32} {value:>16.6} {unit}{note}");
        }
        println!(
            "failed_frac {:.6} ({} of {} attempted)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// What one repetition reports to the run that spawned it.
struct Rep {
    /// Set-up times: the repetition's own plus `EXTRA_SETUPS` more.
    setup_s: Vec<f64>,
    requests: u64,
    throughput_rps: f64,
    window_ms: Vec<f64>,
    space_ratio: f64,
    realloc_cost_ratio: f64,
    write_amp: f64,
    wal_bytes: f64,
    replayed_records: f64,
    recover_s: f64,
    peak_rss_mb: f64,
    failed: u64,
    problems: Vec<String>,
}

impl Rep {
    /// The metrics that must repeat bit for bit on one seed.
    fn deterministic(&self) -> [u64; 5] {
        [
            self.space_ratio,
            self.realloc_cost_ratio,
            self.write_amp,
            self.wal_bytes,
            self.replayed_records,
        ]
        .map(f64::to_bits)
    }

    fn to_json(&self) -> Json {
        let nums = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        let mut doc = Json::obj();
        doc.set("setup_s", nums(&self.setup_s))
            .set("requests", self.requests)
            .set("throughput_rps", self.throughput_rps)
            .set("window_ms", nums(&self.window_ms))
            .set("space_ratio", self.space_ratio)
            .set("realloc_cost_ratio", self.realloc_cost_ratio)
            .set("write_amp", self.write_amp)
            .set("wal_bytes", self.wal_bytes)
            .set("replayed_records", self.replayed_records)
            .set("recover_s", self.recover_s)
            .set("peak_rss_mb", self.peak_rss_mb)
            .set("failed", self.failed)
            .set(
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            );
        doc
    }

    fn from_json(doc: &Json) -> Result<Rep, String> {
        let field = |key: &str| doc.get(key).ok_or(format!("repetition result lacks {key}"));
        let num = |key: &str| field(key)?.as_f64().ok_or(format!("{key} is not a number"));
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            field(key)?
                .as_arr()
                .ok_or(format!("{key} is not an array"))?
                .iter()
                .map(|v| v.as_f64().ok_or(format!("{key} holds a non-number")))
                .collect()
        };
        Ok(Rep {
            setup_s: nums("setup_s")?,
            requests: num("requests")? as u64,
            throughput_rps: num("throughput_rps")?,
            window_ms: nums("window_ms")?,
            space_ratio: num("space_ratio")?,
            realloc_cost_ratio: num("realloc_cost_ratio")?,
            write_amp: num("write_amp")?,
            wal_bytes: num("wal_bytes")?,
            replayed_records: num("replayed_records")?,
            recover_s: num("recover_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            failed: num("failed")? as u64,
            problems: field("problems")?
                .as_arr()
                .ok_or("problems is not an array")?
                .iter()
                .map(|p| p.as_str().unwrap_or("?").to_string())
                .collect(),
        })
    }
}

/// Generates the stream and builds the front-end, as a repetition does,
/// then drops both; returns the set-up time.
fn setup_only(spec: &Spec, seed: u64, scratch: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let workload = spec.generate(seed);
    let front = frontend::build(spec, scratch)?;
    let setup_s = t.elapsed().as_secs_f64();
    drop((workload, front));
    Ok(setup_s)
}

/// One repetition in this process (the `--rep` mode a run spawns).
fn rep_here(spec: &Spec, seed: u64, scratch: &Path) -> Result<Rep, String> {
    let mut setup_s = (0..EXTRA_SETUPS)
        .map(|_| setup_only(spec, seed, scratch))
        .collect::<Result<Vec<f64>, String>>()?;
    let t = Instant::now();
    let workload = spec.generate(seed);
    let gen_s = t.elapsed().as_secs_f64();
    let expected = Expected::of(&workload);
    let t = Instant::now();
    let front = frontend::build(spec, scratch)?;
    setup_s.push(gen_s + t.elapsed().as_secs_f64());
    let pass = frontend::run(spec, front, &workload, &expected, false)?;
    Ok(Rep {
        setup_s,
        requests: pass.requests,
        throughput_rps: pass.throughput_rps(),
        space_ratio: pass.space_ratio,
        realloc_cost_ratio: ratio(pass.realloc_cost, pass.alloc_cost),
        write_amp: ratio(pass.written_cells as f64, expected.requested_cells as f64),
        wal_bytes: pass.wal_bytes as f64,
        replayed_records: pass
            .recovery
            .as_ref()
            .map_or(0.0, |r| r.replayed_records as f64),
        recover_s: pass.recovery.as_ref().map_or(0.0, |r| r.seconds),
        peak_rss_mb: peak_rss_mb()?,
        failed: pass.failed,
        problems: pass.problems,
        window_ms: pass.window_ms,
    })
}

/// One repetition in a fresh process, so that every repetition starts
/// from the same allocator and thread state: reusing a process carries
/// malloc arenas over from the previous repetition's threads, which moves
/// the multi-threaded front-ends' throughput by tens of percent.
fn rep_process(args: &Args, index: usize) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", args.kind.name(), "--trace", "0", "--rep"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--scratch")
        .arg(args.scratch.join(format!("rep-{index}")))
        .stderr(std::process::Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("repetition {index} failed ({})", output.status));
    }
    let last = stdout.lines().last().ok_or("repetition printed nothing")?;
    Rep::from_json(&Json::parse(last)?)
}

fn end_to_end(args: &Args, spec: &Spec, out: &mut Outcome) -> Result<(), String> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let rep = rep_process(args, reps.len())?;
        out.attempted += rep.requests;
        out.failed += rep.failed;
        out.problems.extend(rep.problems.iter().cloned());
        if reps
            .first()
            .is_some_and(|first| first.deterministic() != rep.deterministic())
        {
            out.problem(format!(
                "repetition {} disagrees with the first on a deterministic metric",
                reps.len()
            ));
        }
        reps.push(rep);
    }
    let each = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    // Window latencies pool across repetitions: every run has >= 1000.
    let window_ms: Vec<f64> = reps.iter().flat_map(|r| r.window_ms.clone()).collect();
    let setups: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.clone()).collect();
    let first = &reps[0];
    let m = &mut out.metrics;
    m.put(
        "throughput_rps",
        median(&each(&|r| r.throughput_rps)),
        "req/s",
    );
    m.put("commit_p50_ms", percentile(&window_ms, 0.50), "ms");
    m.put("commit_p99_ms", percentile(&window_ms, 0.99), "ms");
    m.put("space_ratio_max", first.space_ratio, "ratio");
    m.put("realloc_cost_ratio", first.realloc_cost_ratio, "ratio");
    m.put("write_amp", first.write_amp, "ratio");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", median(&each(&|r| r.peak_rss_mb)), "MiB");

    println!(
        "{} seed {}: {} repetitions of {} requests; {} windows of {} requests",
        spec.kind.name(),
        args.seed,
        reps.len(),
        first.requests,
        window_ms.len(),
        spec.window
    );
    let rps: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.0}", r.throughput_rps))
        .collect();
    println!("throughput per repetition, req/s: {}", rps.join(" "));
    let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        .iter()
        .map(|&q| format!("p{}={:.3}", q * 100.0, percentile(&window_ms, q)))
        .collect();
    println!("window latency, ms: {}", quantiles.join(" "));
    if spec.kind == Kind::Durable {
        println!(
            "durable: wal_bytes_per_req {:.3} B/req, recover_s median {:.4} s, replayed {} records",
            first.wal_bytes / first.requests as f64,
            median(&each(&|r| r.recover_s)),
            first.replayed_records
        );
    }
    Ok(())
}

/// A span of the traced run, kept in memory and written out at the end.
struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    /// A span's duration minus the part its children cover.
    fn self_us(&self, span: usize) -> f64 {
        let own = &self.spans[span];
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| s.end_us - s.start_us)
            .sum();
        own.end_us - own.start_us - children
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            text.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}\n",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us,
                self.self_us(i)
            ));
        }
        std::fs::write(path, text)
    }
}

fn traced(args: &Args, spec: &Spec, out: &mut Outcome) -> Result<(), String> {
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let root = spans.open("trace", None);

    let span = spans.open("workload.gen", Some(root));
    let mut gen_s = Vec::new();
    let mut workload = None;
    for _ in 0..3 {
        let t = Instant::now();
        workload = Some(spec.generate(args.seed));
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let workload = workload.expect("generated");
    spans.close(span);
    let expected = Expected::of(&workload);

    let span = spans.open("frontend.untraced", Some(root));
    let front = frontend::build(spec, &args.scratch)?;
    let untraced = frontend::run(spec, front, &workload, &expected, false)?;
    spans.close(span);
    out.absorb(&untraced);

    let span = spans.open("frontend.traced", Some(root));
    let front = frontend::build(spec, &args.scratch)?;
    let own = frontend::run(spec, front, &workload, &expected, true)?;
    spans.close(span);
    out.absorb(&own);

    // The fleet layer, probed on the sync workloads' streams too.
    let fleet_probe = if spec.kind == Kind::Tenants {
        None
    } else {
        let span = spans.open("frontend.fleet_probe", Some(root));
        let front = frontend::fleet_front(spec.variant);
        let pass = frontend::run(spec, front, &workload, &expected, true)?;
        spans.close(span);
        out.absorb(&pass);
        Some(pass)
    };
    let fleet = fleet_probe.as_ref().unwrap_or(&own);

    let span = spans.open("ladder", Some(root));
    let ladder = ladder::run(
        spec,
        &workload,
        &expected,
        &args.scratch,
        spec.kind != Kind::Durable,
    )?;
    spans.close(span);
    for problem in &ladder.problems {
        out.problem(problem.clone());
    }
    spans.close(root);

    let n = workload.len() as f64;
    let t = &own.trace;
    let m = &mut out.metrics;
    m.put("workload.gen_s", median(&gen_s), "s");
    m.put("loop.windows", own.window_ms.len() as f64, "count");
    m.put("router.ns_per_req", ladder.router_ns_per_req, "ns/req");
    m.put("router.split_ns_per_req", ladder.split_ns_per_req, "ns/req");
    m.put("core.ns_per_req", ladder.core_ns as f64 / n, "ns/req");
    m.put(
        "core.allocs_per_req",
        ladder.core_allocs as f64 / n,
        "allocs/req",
    );
    m.put(
        "core.flush_p99_us",
        percentile(&ladder.flush_us, 0.99),
        "us",
    );
    m.put("core.flushes", ladder.flushes as f64, "count");
    m.put("core.ops_per_req", ladder.ops as f64 / n, "ops/req");
    m.put("core.moved_volume", ladder.moved_volume as f64, "cells");
    m.put("ledger.ns_per_req", ladder.ledger_ns as f64 / n, "ns/req");
    let raw = t.raw_requests as f64;
    m.put(
        "plan.coalesced_frac",
        ratio(t.coalesced as f64, raw),
        "ratio",
    );
    m.put(
        "plan.cancelled_frac",
        ratio(t.cancelled as f64, raw),
        "ratio",
    );
    m.put(
        "plan.applied_per_raw",
        ratio(t.planned_requests as f64, raw),
        "ratio",
    );
    m.put(
        "substrate.ns_per_req",
        ladder.substrate_ns as f64 / n,
        "ns/req",
    );
    m.put(
        "substrate.cells_written_per_req",
        ladder.cells_written as f64 / n,
        "cells/req",
    );
    m.put("substrate.verify_ms", ladder.verify_ms, "ms");
    m.put(
        "wal.record_ns_per_req",
        ladder.wal_record_ns as f64 / n,
        "ns/req",
    );
    m.put(
        "wal.append_ns_per_record",
        ratio(ladder.wal_append_ns as f64, ladder.wal_records as f64),
        "ns/record",
    );
    m.put("wal.commit_us_per_group", mean(&ladder.wal_commit_us), "us");
    m.put(
        "wal.records_per_group",
        ratio(ladder.wal_records as f64, ladder.wal_commit_us.len() as f64),
        "records",
    );
    m.put("wal.bytes_per_req", ladder.wal_bytes as f64 / n, "B/req");
    m.put(
        "wal.engine_bytes_per_req",
        own.wal_bytes as f64 / n,
        "B/req",
    );
    m.put("device.sim_us_per_req", ladder.sim_us / n, "us/req");
    m.put("engine.submit_ns_per_req", t.submit_ns as f64 / n, "ns/req");
    m.put("engine.barrier_us_p50", median(&t.barrier_us), "us");
    m.put(
        "engine.intake_stalls",
        t.intake_stall_ns.count as f64,
        "count",
    );
    m.print_only(
        "engine.intake_stall_p99_us",
        t.intake_stall_ns.p99() / 1e3,
        "us",
    );
    m.put(
        "engine.batch_service_p50_us",
        t.batch_service_ns.p50() / 1e3,
        "us",
    );
    m.put(
        "engine.batch_service_p99_us",
        t.batch_service_ns.p99() / 1e3,
        "us",
    );
    let f = &fleet.trace;
    m.put("fleet.submit_ns_per_req", f.submit_ns as f64 / n, "ns/req");
    m.put("fleet.ack_p50_us", percentile(&f.ack_us, 0.50), "us");
    m.put("fleet.ack_p99_us", percentile(&f.ack_us, 0.99), "us");
    m.put(
        "fleet.batches_stolen",
        f.steal.batches_stolen as f64,
        "count",
    );
    m.put(
        "fleet.steal_conflicts",
        f.steal.steal_conflicts as f64,
        "count",
    );
    m.print_only(
        "fleet.steal_wait_p99_us",
        f.steal.steal_wait_ns.p99() / 1e3,
        "us",
    );
    let recovery: Recovery = own
        .recovery
        .clone()
        .or(ladder.recovery.clone())
        .ok_or("no recovery ran")?;
    m.put("recover.recover_s", recovery.seconds, "s");
    m.put(
        "recover.replayed_records",
        recovery.replayed_records as f64,
        "count",
    );
    for (stage, ms) in RECOVER_STAGES.iter().zip(recovery.stage_ms) {
        m.put(format!("recover.stage_ms.{stage}"), ms, "ms");
    }
    let (before, after) = (untraced.throughput_rps(), own.throughput_rps());
    m.put("trace.untraced_rps", before, "req/s");
    m.put("trace.traced_rps", after, "req/s");
    m.put("trace.overhead_pct", 100.0 * (before - after) / before, "%");

    println!("spans (self time):");
    for (i, s) in spans.spans.iter().enumerate() {
        println!("  {:<24} {:>12.3} ms", s.name, spans.self_us(i) / 1e3);
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            spec.kind.name(),
            args.seed
        ));
        spans.write(&path).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.kind, args.smoke);
    if args.rep {
        let _cleanup = frontend::DirGuard(args.scratch.clone());
        return match rep_here(&spec, args.seed, &args.scratch) {
            Ok(rep) => {
                println!("{}", rep.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let scratch = args
        .scratch
        .join(format!("{}-{}", spec.kind.name(), std::process::id()));
    let args = Args { scratch, ..args };
    let _cleanup = frontend::DirGuard(args.scratch.clone());
    let mut out = Outcome::new();
    let result = if args.trace {
        traced(&args, &spec, &mut out)
    } else {
        end_to_end(&args, &spec, &mut out)
    };
    if let Err(e) = result {
        out.problem(e);
    }
    out.finish()
}
