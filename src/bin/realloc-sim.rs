//! `realloc-sim` — run a (re)allocation workload against any algorithm in
//! the repository and print a full report: footprint competitiveness,
//! per-medium cost ratios, worst-case behaviour, and (optionally) database
//! rule checking with crash recovery.
//!
//! ```text
//! realloc-sim <algorithm> [options]
//!
//! algorithms: cost-oblivious | checkpointed | deamortized |
//!             nearly-quadratic | first-fit | best-fit | next-fit | buddy |
//!             log-compact | size-class-gaps
//!
//! options:
//!   --eps <f>            footprint slack for the paper's algorithms, in (0, 0.5]
//!                        (default 0.25)
//!   --trace <file>       replay a trace file ("I <id> <size>" / "D <id>" lines)
//!   --churn <vol> <ops>  synthetic churn workload (default 50000 20000)
//!   --seed <n>           workload seed (default 42)
//!   --strict             replay ops under the database rules (§3 algorithms)
//!   --relaxed            replay ops with memmove semantics (§2 algorithm)
//!   --crash-check        simulate a crash after every request (with --strict)
//!
//! realloc-sim engine [options]
//!
//! Serve the workload through the sharded multi-threaded engine and print
//! a per-shard stats table plus the aggregate row.
//!
//! options:
//!   --variant <alg>      any algorithm name above (default cost-oblivious)
//!   --shards <n>         shard count (default 4)
//!   --batch <n>          requests per channel batch (default 256)
//!   --coalesce           plan each channel batch before applying it:
//!                        delete+reinsert of an id folds to one resize,
//!                        insert-then-delete cancels outright, repeated
//!                        resizes collapse to the last size. The stats
//!                        table grows coalesced/cancelled columns and the
//!                        telemetry table reports raw vs planned batch
//!                        sizes (acks and ledgers stay per-request)
//!   --rebalance-every <n>  rebalance after every n requests.
//!                        Barrier mode by default: the whole fleet quiesces
//!                        and the full migration plan executes in one stall.
//!                        Add --online to migrate in bounded batches
//!                        interleaved with serving instead.
//!   --online             make each --rebalance-every rebalance an online
//!                        (incremental) session rather than a quiesce barrier
//!   --auto-rebalance     install the driver-side policy instead of a fixed
//!                        cadence: observe imbalance every chunk and fire an
//!                        online rebalance after k consecutive observations
//!                        above τ, with post-rebalance hysteresis
//!   --tau <f>            auto-rebalance trigger threshold τ (default 1.5)
//!   --policy-k <n>       consecutive breaches required (default 3)
//!   --hysteresis <n>     observations ignored after a rebalance (default 2)
//!   --resize <n>         resize to n shards at the workload's midpoint
//!   --defrag             run the per-shard Thm 2.7 defrag with each rebalance
//!   --substrate [rules]  back every shard with a byte-carrying store over its
//!                        own disjoint address window: physical ops replayed,
//!                        migrations ship checksummed bytes, extents + bytes
//!                        verified. rules: relaxed (default; any variant) or
//!                        strict (§3.1 database rules; checkpointed,
//!                        deamortized, or nearly-quadratic only — §2
//!                        legitimately violates them)
//!   --wal-dir <dir>      durability: every shard journals each physical op
//!                        and route flip to its own write-ahead log under
//!                        <dir>, group-committing once per served batch;
//!                        quiesce barriers checkpoint the live layout and
//!                        truncate the log
//!   --crash-after <n>    with --wal-dir: simulate kill -9 after n requests,
//!                        rebuild the fleet with Engine::recover, print the
//!                        recovery report, and keep serving the rest of the
//!                        workload on the recovered fleet
//!   --metrics            print the observability report after the run: a
//!                        per-shard telemetry table (batch-service and
//!                        commit-latency percentiles, group-commit
//!                        coalescing, intake stalls, simulated device time)
//!                        and the structural event tail
//!   --metrics-json       emit ONLY the metrics snapshot as JSON on stdout
//!                        (the normal report is suppressed so the output
//!                        pipes clean into a parser); schema documented on
//!                        MetricsSnapshot::to_json
//!   --device <profile>   price every shard's physical op stream against a
//!                        simulated device: unit (1 µs/op), disk (seek-
//!                        dominated rotating disk), ssd (erase-block flash).
//!                        Sim time is deterministic — same workload, same
//!                        sim time — unlike the wall-clock histograms
//!   --verify-cadence <c> when each shard runs its full O(V) extent + byte
//!                        scan (per-write rule checks are always on):
//!                          final   — once, before shutdown: cheapest, but a
//!                                    divergence is only localized to "the run"
//!                          quiesce — every quiesce/snapshot barrier (default):
//!                                    one scan per shard per barrier, hidden in
//!                                    the barrier's existing fleet-wide stall
//!                          batch   — every served channel batch: one scan per
//!                                    shard per ~256 requests — orders of
//!                                    magnitude more scans, for debugging only
//!   --async              host each tenant as its own lightweight engine on a
//!                        shared worker pool (the async facade) instead of one
//!                        sharded sync engine; --shards sizes the pool, and
//!                        requests route to tenant id mod --tenants. Serving
//!                        options that assume the single sync fleet
//!                        (rebalancing, resize, WAL, metrics output, device
//!                        pricing) do not combine with it
//!   --tenants <n>        with --async: tenants to register (default 8)
//!   --steal              with --async: let idle pool workers steal queued
//!                        batches from a stuck home worker; the run reports
//!                        batches stolen, conflicts, and steal-wait quantiles
//!   --eps / --trace / --churn / --seed   as above
//!
//! Every rebalance line printed by the engine run reports whether it ran in
//! barrier or online mode. With --substrate, the stats table grows three
//! physical-I/O columns (bytes w / bytes in / bytes out) and a substrate
//! section prints each shard's window and byte-verification result; any
//! rule violation or failed verification aborts the run with the shard and
//! the violating write named.
//! ```

use std::process::ExitCode;

use realloc_bench::{fmt2, fmt_u64, Table};
use storage_realloc::engine::WINDOW_SPAN;
use storage_realloc::prelude::*;

fn make_algorithm(name: &str, eps: f64) -> Option<Box<dyn Reallocator + Send>> {
    // Paper variants resolve through the shared registry; baselines here.
    if let Some(r) = build_variant(name, eps) {
        return Some(r);
    }
    Some(match name {
        "first-fit" => Box::new(FreeListAllocator::new(FitStrategy::FirstFit)),
        "best-fit" => Box::new(FreeListAllocator::new(FitStrategy::BestFit)),
        "next-fit" => Box::new(FreeListAllocator::new(FitStrategy::NextFit)),
        "buddy" => Box::new(BuddyAllocator::new()),
        "log-compact" => Box::new(LogCompactAllocator::new()),
        "size-class-gaps" => Box::new(SizeClassGapsAllocator::new()),
        _ => return None,
    })
}

struct Args {
    algorithm: String,
    eps: f64,
    trace: Option<String>,
    churn: (u64, usize),
    seed: u64,
    config: RunConfig,
    // Engine-mode options (`realloc-sim engine`).
    variant: String,
    shards: usize,
    batch: usize,
    coalesce: bool,
    rebalance_every: Option<usize>,
    online: bool,
    auto_rebalance: bool,
    tau: f64,
    policy_k: usize,
    hysteresis: usize,
    resize: Option<usize>,
    defrag: bool,
    substrate: Option<Mode>,
    cadence: Option<VerifyCadence>,
    wal_dir: Option<String>,
    crash_after: Option<usize>,
    metrics: bool,
    metrics_json: bool,
    device: Option<DeviceProfile>,
    async_mode: bool,
    tenants: Option<usize>,
    steal: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let algorithm = argv.next().ok_or("missing <algorithm>")?;
    let mut args = Args {
        algorithm,
        eps: 0.25,
        trace: None,
        churn: (50_000, 20_000),
        seed: 42,
        config: RunConfig::plain(),
        variant: "cost-oblivious".into(),
        shards: 4,
        batch: 256,
        coalesce: false,
        rebalance_every: None,
        online: false,
        auto_rebalance: false,
        tau: 1.5,
        policy_k: 3,
        hysteresis: 2,
        resize: None,
        defrag: false,
        substrate: None,
        cadence: None,
        wal_dir: None,
        crash_after: None,
        metrics: false,
        metrics_json: false,
        device: None,
        async_mode: false,
        tenants: None,
        steal: false,
    };
    let engine_mode = args.algorithm == "engine";
    let mut crash = false;
    while let Some(flag) = argv.next() {
        let mut next = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--eps" => {
                args.eps = next("a value")?
                    .parse()
                    .map_err(|e| format!("--eps: {e}"))?;
                // Written so that NaN fails it too.
                if !(args.eps > 0.0 && args.eps <= 0.5) {
                    return Err(format!("--eps must lie in (0, 0.5], got {}", args.eps));
                }
            }
            "--trace" => args.trace = Some(next("a file")?),
            "--churn" => {
                args.churn.0 = next("a volume")?
                    .parse()
                    .map_err(|e| format!("--churn: {e}"))?;
                args.churn.1 = next("an op count")?
                    .parse()
                    .map_err(|e| format!("--churn: {e}"))?;
            }
            "--seed" => {
                args.seed = next("a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--strict" if !engine_mode => args.config.replay = Some(Mode::Strict),
            "--relaxed" if !engine_mode => args.config.replay = Some(Mode::Relaxed),
            "--crash-check" if !engine_mode => crash = true,
            "--variant" if engine_mode => args.variant = next("an algorithm")?,
            "--shards" if engine_mode => {
                args.shards = next("a count")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be positive".into());
                }
            }
            "--batch" if engine_mode => {
                args.batch = next("a size")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                if args.batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            "--coalesce" if engine_mode => args.coalesce = true,
            "--rebalance-every" if engine_mode => {
                let n: usize = next("a request count")?
                    .parse()
                    .map_err(|e| format!("--rebalance-every: {e}"))?;
                if n == 0 {
                    return Err("--rebalance-every must be positive".into());
                }
                args.rebalance_every = Some(n);
            }
            "--online" if engine_mode => args.online = true,
            "--auto-rebalance" if engine_mode => args.auto_rebalance = true,
            "--tau" if engine_mode => {
                args.tau = next("a threshold")?
                    .parse()
                    .map_err(|e| format!("--tau: {e}"))?;
                // Written so that NaN fails it too.
                if args.tau.is_nan() || args.tau <= 1.0 {
                    return Err(format!(
                        "--tau must exceed 1.0 (perfect balance), got {}",
                        args.tau
                    ));
                }
            }
            "--policy-k" if engine_mode => {
                args.policy_k = next("a count")?
                    .parse()
                    .map_err(|e| format!("--policy-k: {e}"))?;
                if args.policy_k == 0 {
                    return Err("--policy-k must be positive".into());
                }
            }
            "--hysteresis" if engine_mode => {
                args.hysteresis = next("a count")?
                    .parse()
                    .map_err(|e| format!("--hysteresis: {e}"))?;
            }
            "--resize" if engine_mode => {
                let n: usize = next("a shard count")?
                    .parse()
                    .map_err(|e| format!("--resize: {e}"))?;
                if n == 0 {
                    return Err("--resize must be positive".into());
                }
                args.resize = Some(n);
            }
            "--defrag" if engine_mode => args.defrag = true,
            "--substrate" if engine_mode => {
                // Optional rule-mode value: `--substrate [relaxed|strict]`.
                args.substrate = Some(match argv.peek().map(String::as_str) {
                    Some("strict") => {
                        argv.next();
                        Mode::Strict
                    }
                    Some("relaxed") => {
                        argv.next();
                        Mode::Relaxed
                    }
                    _ => Mode::Relaxed,
                });
            }
            "--wal-dir" if engine_mode => args.wal_dir = Some(next("a directory")?),
            "--crash-after" if engine_mode => {
                let n: usize = next("a request count")?
                    .parse()
                    .map_err(|e| format!("--crash-after: {e}"))?;
                if n == 0 {
                    return Err("--crash-after must be positive".into());
                }
                args.crash_after = Some(n);
            }
            "--async" if engine_mode => args.async_mode = true,
            "--tenants" if engine_mode => {
                let n: usize = next("a count")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
                if n == 0 {
                    return Err("--tenants must be positive".into());
                }
                args.tenants = Some(n);
            }
            "--steal" if engine_mode => args.steal = true,
            "--metrics" if engine_mode => args.metrics = true,
            "--metrics-json" if engine_mode => args.metrics_json = true,
            "--device" if engine_mode => {
                let name = next("unit, disk or ssd")?;
                args.device = Some(
                    DeviceProfile::parse(&name)
                        .ok_or(format!("--device: unknown profile {name:?}"))?,
                );
            }
            "--verify-cadence" if engine_mode => {
                args.cadence = Some(match next("final, quiesce or batch")?.as_str() {
                    "final" => VerifyCadence::Final,
                    "quiesce" => VerifyCadence::Quiesce,
                    "batch" => VerifyCadence::Batch,
                    other => return Err(format!("--verify-cadence: unknown cadence {other:?}")),
                });
            }
            other => {
                return Err(format!(
                    "unknown option {other} (or not valid {} engine mode)",
                    if engine_mode { "in" } else { "outside" }
                ))
            }
        }
    }
    if crash {
        if args.config.replay != Some(Mode::Strict) {
            return Err("--crash-check requires --strict".into());
        }
        args.config.crash_check = true;
    }
    if args.auto_rebalance && args.rebalance_every.is_some() {
        return Err("--auto-rebalance replaces the fixed --rebalance-every cadence".into());
    }
    if args.online && args.rebalance_every.is_none() {
        return Err("--online modifies --rebalance-every (auto-rebalance is always online)".into());
    }
    if args.defrag && args.rebalance_every.is_none() && !args.auto_rebalance {
        return Err("--defrag needs --rebalance-every or --auto-rebalance".into());
    }
    if args.crash_after.is_some() && args.wal_dir.is_none() {
        return Err(
            "--crash-after needs --wal-dir (a crash without logs is just data loss)".into(),
        );
    }
    if args.crash_after.is_some() && args.resize.is_some() {
        return Err(
            "--crash-after cannot be combined with --resize (recovery needs the \
             shard count that wrote the logs)"
                .into(),
        );
    }
    if args.cadence.is_some() && args.substrate.is_none() {
        return Err(
            "--verify-cadence modifies --substrate (without a substrate there is nothing to verify)"
                .into(),
        );
    }
    if (args.steal || args.tenants.is_some()) && !args.async_mode {
        return Err("--steal and --tenants modify --async (the sync engine has no fleet)".into());
    }
    if args.async_mode {
        // The async facade hosts many single-tenant engines on a shared
        // pool; everything that assumes the one sync fleet stays sync-only.
        let conflicts: [(bool, &str); 6] = [
            (
                args.rebalance_every.is_some() || args.auto_rebalance,
                "--rebalance-every/--auto-rebalance",
            ),
            (args.resize.is_some(), "--resize"),
            (args.wal_dir.is_some(), "--wal-dir"),
            (
                args.metrics || args.metrics_json,
                "--metrics/--metrics-json",
            ),
            (args.device.is_some(), "--device"),
            (args.defrag, "--defrag"),
        ];
        for (set, name) in conflicts {
            if set {
                return Err(format!(
                    "{name} drives the single sync fleet and does not combine with --async"
                ));
            }
        }
    }
    if args.substrate == Some(Mode::Strict) && !variant_is_strict_safe(&args.variant) {
        return Err(
            "--substrate strict needs --variant checkpointed, deamortized, or \
             nearly-quadratic (the §2 algorithm and the baselines legitimately \
             violate the database rules — that is why §3 exists)"
                .into(),
        );
    }
    Ok(args)
}

fn print_rebalance(served: usize, report: &RebalanceReport) {
    println!(
        "rebalance @{served:>8} ({} mode, {} batch{}): imbalance {:.2} -> {:.2}, \
         {} objects / {} cells migrated{}",
        report.mode,
        report.batches,
        if report.batches == 1 { "" } else { "es" },
        report.before.imbalance_ratio(),
        report.after.imbalance_ratio(),
        report.migrated_objects,
        report.migrated_volume,
        if report.defrag.is_empty() {
            String::new()
        } else {
            format!(
                ", defrag {} moves",
                report.defrag.iter().map(|d| d.total_moves).sum::<u64>()
            )
        }
    );
}

/// The `--metrics` human report: one telemetry row per shard (latency and
/// commit distributions, intake stalls, sim-time lanes) plus the journal's
/// structural event tail.
fn print_metrics(snapshot: &MetricsSnapshot) {
    let device = snapshot
        .device
        .map_or("none (wall clock + counts only)", DeviceProfile::name);
    println!(
        "\n-- observability (scrape #{}, device: {device}) --",
        snapshot.scrape
    );
    let mut table = Table::new(
        "per-shard telemetry",
        &[
            "shard",
            "svc p50 µs",
            "svc p99 µs",
            "commit recs μ",
            "commit p99 µs",
            "raw batch μ",
            "plan batch μ",
            "stalls",
            "serve sim µs",
            "migr sim µs",
            "commit sim µs",
        ],
    );
    for m in &snapshot.per_shard {
        table.row(vec![
            m.shard.to_string(),
            fmt2(m.batch_service_ns.p50() / 1_000.0),
            fmt2(m.batch_service_ns.p99() / 1_000.0),
            fmt2(m.commit_records.mean()),
            fmt2(m.commit_latency_ns.p99() / 1_000.0),
            fmt2(m.batch_raw_requests.mean()),
            fmt2(m.batch_planned_requests.mean()),
            fmt_u64(m.intake_stall_ns.count),
            fmt2(m.serve_sim_us),
            fmt2(m.migrate_sim_us),
            fmt2(m.wal_commit_sim_us),
        ]);
    }
    table.print();
    if snapshot.device.is_some() {
        println!(
            "sim time: {:.0} µs total (serve {:.0} + migrate {:.0} + wal commit {:.0})",
            snapshot.sim_time_us(),
            snapshot
                .per_shard
                .iter()
                .map(|m| m.serve_sim_us)
                .sum::<f64>(),
            snapshot
                .per_shard
                .iter()
                .map(|m| m.migrate_sim_us)
                .sum::<f64>(),
            snapshot
                .per_shard
                .iter()
                .map(|m| m.wal_commit_sim_us)
                .sum::<f64>(),
        );
    }
    let stalls = snapshot.intake_stall_ns();
    if stalls.count > 0 {
        println!(
            "backpressure: {} stalled sends, p99 {:.0} µs",
            stalls.count,
            stalls.p99() / 1_000.0
        );
    }
    if !snapshot.events.is_empty() {
        println!(
            "events: {} retained ({} dropped); last:",
            snapshot.events.len(),
            snapshot.events_dropped
        );
        for e in snapshot.events.iter().rev().take(5).rev() {
            println!(
                "  #{:<4} +{:>9} µs  {:<20} {:<7} payload {}",
                e.seq,
                e.at_us,
                e.label,
                e.phase.name(),
                e.payload
            );
        }
    }
}

/// Everything `serve_span` needs besides the engine and the requests.
struct ServePlan<'a> {
    args: &'a Args,
    chunk_size: usize,
    midpoint: usize,
    rebalance_opts: RebalanceOptions,
}

/// Serves one contiguous span of the workload, firing the configured
/// rebalance cadence (fixed, online, or policy-driven) and the midpoint
/// resize along the way. `served`/`resized` persist across spans so a
/// crash-and-recover run keeps its cadence bookkeeping.
fn serve_span(
    engine: &mut Engine,
    requests: &[Request],
    plan: &ServePlan,
    served: &mut usize,
    resized: &mut bool,
) -> Result<(), EngineError> {
    let args = plan.args;
    // --metrics-json promises machine-readable stdout: everything the run
    // would normally narrate is suppressed so the output pipes clean.
    let quiet = args.metrics_json;
    for chunk in requests.chunks(plan.chunk_size.max(1)) {
        engine.drive(&Workload::new("chunk", chunk.to_vec()))?;
        *served += chunk.len();
        if args.auto_rebalance {
            let was_active = engine.rebalance_active();
            engine.snapshot()?; // the policy observes at this barrier
            if !was_active && engine.rebalance_active() && !quiet {
                println!("policy    @{:>8}: fired, online session started", *served);
            }
        } else if args.rebalance_every.is_some() {
            if args.online {
                if !engine.rebalance_active() {
                    engine.rebalance_online(plan.rebalance_opts)?;
                }
            } else {
                let report = engine.rebalance(plan.rebalance_opts)?;
                if !quiet {
                    print_rebalance(*served, &report);
                }
            }
        }
        // Online sessions (fixed-cadence or policy-fired) complete
        // inside serving calls; their reports are claimed here.
        if let Some(report) = engine.take_rebalance_report() {
            if !quiet {
                print_rebalance(*served, &report);
            }
        }
        if !*resized && *served >= plan.midpoint {
            *resized = true;
            let to = args.resize.expect("checked");
            let factory = |_shard: usize| {
                make_algorithm(&args.variant, args.eps).expect("variant validated above")
            };
            let report = engine.resize_shards(to, factory)?;
            if !quiet {
                println!(
                    "resize    @{:>8}: {} -> {} shards, {} objects / {} cells migrated",
                    *served,
                    report.from,
                    report.to,
                    report.migrated_objects,
                    report.migrated_volume
                );
            }
            if let Some(report) = engine.take_rebalance_report() {
                if !quiet {
                    print_rebalance(*served, &report);
                }
            }
        }
    }
    Ok(())
}

/// Drives the whole workload: serve, optionally crash at `--crash-after`
/// and recover from the write-ahead logs, keep serving, then drain any
/// open rebalance session and quiesce. Returns the (possibly recovered)
/// engine for the final stats pass.
fn drive_workload(
    mut engine: Engine,
    workload: &Workload,
    config: EngineConfig,
    plan: &ServePlan,
) -> Result<Engine, EngineError> {
    let args = plan.args;
    let quiet = args.metrics_json;
    let mut served = 0usize;
    let mut resized = args.resize.is_none();
    let crash_at = args.crash_after.map(|n| n.min(workload.len()));
    let (head, tail) = workload
        .requests
        .split_at(crash_at.unwrap_or(workload.len()));
    serve_span(&mut engine, head, plan, &mut served, &mut resized)?;
    if crash_at.is_some() {
        let dir = args
            .wal_dir
            .as_ref()
            .expect("--crash-after implies --wal-dir");
        engine.crash();
        if !quiet {
            println!("crash     @{served:>8}: simulated kill -9, recovering from {dir}");
        }
        let factory = |_shard: usize| {
            make_algorithm(&args.variant, args.eps).expect("variant validated above")
        };
        let (rebuilt, report) = Engine::recover(config, dir, factory)?;
        engine = rebuilt;
        if !quiet {
            println!(
                "recovered @{served:>8}: {} objects / {} cells ({} from checkpoints, \
                 {} records replayed in {} groups); {} resurrected, {} duplicates \
                 dropped, {} route assignments",
                report.objects,
                report.volume,
                report.checkpoint_objects,
                report.replayed_records,
                report.replayed_groups,
                report.resurrected.len(),
                report.dropped_duplicates.len(),
                report.route_assignments,
            );
        }
        if args.auto_rebalance {
            // The policy lives in the crashed driver; reinstall it on the
            // recovered fleet.
            engine.set_auto_rebalance(
                RebalancePolicy::new(args.tau, args.policy_k, args.hysteresis),
                plan.rebalance_opts,
            );
        }
        serve_span(&mut engine, tail, plan, &mut served, &mut resized)?;
    }
    // Don't let the policy fire into the closing barriers; drain any
    // session that is still migrating.
    engine.clear_auto_rebalance();
    while engine.rebalance_step()? {}
    if let Some(report) = engine.take_rebalance_report() {
        if !quiet {
            print_rebalance(workload.len(), &report);
        }
    }
    engine.quiesce()?;
    Ok(engine)
}

/// `realloc-sim engine`: serve the workload through the sharded engine
/// (optionally rebalancing, resizing, and/or crash-recovering along the
/// way) and print the per-shard stats table, the aggregate row, and cost
/// ratios priced over the union of the shard ledgers.
fn run_engine(args: &Args, workload: &Workload) -> ExitCode {
    if make_algorithm(&args.variant, args.eps).is_none() {
        eprintln!("error: unknown engine variant {:?}", args.variant);
        return ExitCode::FAILURE;
    }
    let quiet = args.metrics_json;

    let substrate = args.substrate.map(|mode| SubstrateConfig {
        mode,
        verify: args.cadence.unwrap_or_default(),
    });
    let config = EngineConfig {
        shards: args.shards,
        batch: args.batch,
        coalesce: args.coalesce,
        substrate,
        device: args.device,
        ..Default::default()
    };
    let factory =
        |_shard: usize| make_algorithm(&args.variant, args.eps).expect("variant validated above");
    let mut engine = if let Some(dir) = &args.wal_dir {
        match Engine::with_wal(
            config,
            Box::new(TableRouter::new(args.shards)),
            factory,
            dir,
        ) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("error: cannot open write-ahead logs under {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Engine::new(config, factory)
    };
    if !quiet {
        println!("workload:  {} ({} requests)", workload.name, workload.len());
        println!(
            "engine:    {} × {} shards (ε = {}, batch = {}{})",
            args.variant,
            args.shards,
            args.eps,
            args.batch,
            if args.coalesce { " coalesced" } else { "" },
        );
        if let Some(device) = args.device {
            println!("device:    {} profile pricing op streams", device.name());
        }
        if let Some(s) = &substrate {
            println!(
                "substrate: {} rules, {}-cell windows, verify at {} cadence",
                match s.mode {
                    Mode::Strict => "strict",
                    Mode::Relaxed => "relaxed",
                },
                WINDOW_SPAN,
                s.verify
            );
        }
        if let Some(dir) = &args.wal_dir {
            println!(
                "wal:       one log per shard under {dir}, group commit per served batch{}",
                match args.crash_after {
                    Some(n) => format!("; kill -9 scheduled after {n} requests"),
                    None => String::new(),
                }
            );
        }
    }

    let rebalance_opts = if args.defrag {
        RebalanceOptions::with_defrag(args.eps)
    } else {
        RebalanceOptions::default()
    };
    if args.auto_rebalance {
        engine.set_auto_rebalance(
            RebalancePolicy::new(args.tau, args.policy_k, args.hysteresis),
            rebalance_opts,
        );
        if !quiet {
            println!(
                "policy:    auto-rebalance (τ = {}, k = {}, hysteresis = {})",
                args.tau, args.policy_k, args.hysteresis
            );
        }
    }
    // Observation cadence for --auto-rebalance (the policy observes
    // imbalance at one snapshot barrier per this many requests).
    const OBSERVE_EVERY: usize = 4_096;
    // A resize fires at the midpoint, so without a rebalance cadence the
    // workload still needs to arrive in (at least) two chunks.
    let midpoint = workload.len() / 2;
    let chunk_size = if let Some(n) = args.rebalance_every {
        n
    } else if args.auto_rebalance {
        OBSERVE_EVERY
    } else if args.resize.is_some() {
        midpoint.max(1)
    } else {
        workload.len().max(1)
    };
    let plan = ServePlan {
        args,
        chunk_size,
        midpoint,
        rebalance_opts,
    };
    let start = std::time::Instant::now();
    let mut engine = match drive_workload(engine, workload, config, &plan) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("engine run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The final explicit verification scan (the only one a `final` cadence
    // ever runs before shutdown): extents against the reallocator, every
    // live object's bytes re-checksummed, per shard.
    let substrate_reports = if engine.substrate_enabled() {
        match engine.verify_substrate() {
            Ok(reports) => Some(reports),
            Err(e) => {
                eprintln!("substrate verification FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // Scrape the observability surface before shutdown consumes the fleet.
    let scraped = if args.metrics || args.metrics_json {
        match engine.metrics() {
            Ok(snapshot) => Some(snapshot),
            Err(e) => {
                eprintln!("metrics scrape failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let live_shards = engine.shards();
    let finals = match engine.shutdown() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("engine run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    // Machine export: the snapshot's JSON is the run's *only* stdout, so it
    // pipes straight into a parser (the CI smoke check does exactly that).
    if args.metrics_json {
        let snapshot = scraped.expect("scraped above");
        println!("{}", snapshot.to_json());
        return ExitCode::SUCCESS;
    }

    // Live shards lead the finals; shards retired by a shrink follow (their
    // rows print for the record, but volume aggregates would be skewed by
    // their empty structures, so the aggregate row uses live shards only).
    let stats = EngineStats {
        per_shard: finals
            .iter()
            .take(live_shards)
            .map(|f| f.stats.clone())
            .collect(),
    };
    let show_bytes = substrate_reports.is_some();
    let with_plan = args.coalesce;
    let mut headers = vec!["shard", "requests", "batches"];
    if with_plan {
        // The planning columns only exist under --coalesce: requests the
        // batch planner folded into a surviving op, and requests whose
        // insert+delete pair cancelled without touching the reallocator.
        headers.extend(["coalesced", "cancelled"]);
    }
    headers.extend([
        "objects",
        "volume",
        "footprint",
        "structure",
        "delta",
        "moves",
        "moved vol",
        "migr in",
        "migr out",
    ]);
    if show_bytes {
        // The physical-I/O columns only exist when shards run substrates:
        // `bytes w` counts every cell physically written (allocations,
        // flush copies, adopted transfers); `bytes in`/`bytes out` count
        // cells that crossed shard address spaces, checksummed on arrival.
        headers.extend(["bytes w", "bytes in", "bytes out"]);
    }
    headers.push("ratio");
    let mut table = Table::new(format!("per-shard stats ({})", args.variant), &headers);
    let row = |label: String, s: &ShardStats| {
        let mut cells = vec![label, fmt_u64(s.requests), fmt_u64(s.batches)];
        if with_plan {
            cells.push(fmt_u64(s.requests_coalesced));
            cells.push(fmt_u64(s.requests_cancelled));
        }
        cells.extend([
            fmt_u64(s.live_count as u64),
            fmt_u64(s.live_volume),
            fmt_u64(s.footprint),
            fmt_u64(s.structure_size),
            fmt_u64(s.max_object_size),
            fmt_u64(s.total_moves),
            fmt_u64(s.total_moved_volume),
            fmt_u64(s.migrations_in),
            fmt_u64(s.migrations_out),
        ]);
        if show_bytes {
            cells.push(fmt_u64(s.substrate_bytes_written));
            cells.push(fmt_u64(s.substrate_bytes_in));
            cells.push(fmt_u64(s.substrate_bytes_out));
        }
        cells.push(fmt2(s.max_settled_ratio));
        cells
    };
    for s in &stats.per_shard {
        table.row(row(s.shard.to_string(), s));
    }
    // Shards retired by a shrinking resize: history rows, not live state.
    for f in finals.iter().skip(live_shards) {
        table.row(row(format!("{}†", f.stats.shard), &f.stats));
    }
    let mut aggregate = vec![
        "Σ".into(),
        fmt_u64(stats.requests()),
        fmt_u64(stats.batches()),
    ];
    if with_plan {
        aggregate.push(fmt_u64(stats.requests_coalesced()));
        aggregate.push(fmt_u64(stats.requests_cancelled()));
    }
    aggregate.extend([
        fmt_u64(stats.live_count() as u64),
        fmt_u64(stats.live_volume()),
        fmt_u64(stats.footprint()),
        fmt_u64(stats.structure_size()),
        fmt_u64(stats.max_object_size()),
        fmt_u64(stats.total_moves()),
        fmt_u64(stats.total_moved_volume()),
        fmt_u64(stats.per_shard.iter().map(|s| s.migrations_in).sum()),
        fmt_u64(stats.per_shard.iter().map(|s| s.migrations_out).sum()),
    ]);
    if show_bytes {
        aggregate.push(fmt_u64(stats.bytes_written()));
        aggregate.push(fmt_u64(stats.bytes_migrated_in()));
        aggregate.push(fmt_u64(stats.bytes_migrated_out()));
    }
    aggregate.push(fmt2(stats.worst_settled_ratio()));
    table.row(aggregate);
    table.print();
    println!("(aggregate ratio column is the worst shard's settled ratio)");
    println!(
        "imbalance: max V_i / mean V_i = {:.3} (max {}, mean {:.0})",
        stats.imbalance_ratio(),
        stats.max_shard_volume(),
        stats.mean_shard_volume()
    );
    if args.wal_dir.is_some() {
        println!(
            "durability: {} wal records / {} bytes in {} group commits; recoveries: {}",
            fmt_u64(stats.wal_records()),
            fmt_u64(stats.wal_bytes()),
            fmt_u64(stats.group_commits()),
            stats.recoveries(),
        );
    }
    if let Some(reports) = &substrate_reports {
        println!("\n-- substrate (per-shard byte stores over disjoint windows) --");
        for r in reports {
            println!(
                "  shard {}: window {} — {} objects / {} cells byte-verified",
                r.shard, r.window, r.objects, r.bytes
            );
        }
        println!(
            "  physical writes: {} cells; cross-window transfers: {} out / {} in \
             (ledger migrate volume: {} out / {} in)",
            stats.bytes_written(),
            stats.bytes_migrated_out(),
            stats.bytes_migrated_in(),
            stats.migrated_volume_out(),
            stats.migrated_volume(),
        );
        println!(
            "  verification scans: {} ({} cadence); rule violations: 0 \
             (the run would have failed otherwise)",
            stats.substrate_verifications(),
            args.cadence.unwrap_or_default()
        );
    }

    println!(
        "\nthroughput: {:.0} requests/sec ({} requests in {:.3}s, wall clock)",
        workload.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        workload.len(),
        elapsed.as_secs_f64()
    );

    if let Some(snapshot) = &scraped {
        print_metrics(snapshot);
    }

    println!("\n-- cost competitiveness over the union of shard ledgers --");
    for f in storage_realloc::cost::standard_suite() {
        let price = |w: u64| f.cost(w);
        let alloc: f64 = finals
            .iter()
            .map(|s| s.ledger.total_alloc_cost(&price))
            .sum();
        let realloc: f64 = finals
            .iter()
            .map(|s| s.ledger.total_realloc_cost(&price))
            .sum();
        let ratio = if alloc == 0.0 { 0.0 } else { realloc / alloc };
        println!("  {:>12}: {ratio:.3}", f.name());
    }
    ExitCode::SUCCESS
}

/// The `engine --async` path: the same workload served by a fleet of
/// per-tenant single-shard engines on a shared worker pool. Requests
/// route to tenant `id mod --tenants`; every ack future is dropped (the
/// quiesce barrier at the end is the synchronization point, exactly as a
/// fire-and-forget client would use the facade) and any request the
/// reallocator rejected surfaces there.
fn run_engine_async(args: &Args, workload: &Workload) -> ExitCode {
    if make_algorithm(&args.variant, args.eps).is_none() {
        eprintln!("error: unknown engine variant {:?}", args.variant);
        return ExitCode::FAILURE;
    }
    let tenants_n = args.tenants.unwrap_or(8);
    let substrate = args.substrate.map(|mode| SubstrateConfig {
        mode,
        verify: args.cadence.unwrap_or_default(),
    });
    let tenant_config = EngineConfig {
        shards: 1,
        batch: args.batch,
        coalesce: args.coalesce,
        substrate,
        ..Default::default()
    };
    let fleet = Fleet::new(FleetConfig::with_workers(args.shards).stealing(args.steal));
    let mut tenants: Vec<AsyncEngine> = (0..tenants_n)
        .map(|_| {
            fleet.register(tenant_config, Box::new(TableRouter::new(1)), |_shard| {
                make_algorithm(&args.variant, args.eps).expect("variant validated above")
            })
        })
        .collect();

    println!("workload:  {} ({} requests)", workload.name, workload.len());
    println!(
        "fleet:     {} × {} tenants on {} pool workers (ε = {}, batch = {}{}, stealing {})",
        args.variant,
        tenants_n,
        args.shards,
        args.eps,
        args.batch,
        if args.coalesce { " coalesced" } else { "" },
        if args.steal { "on" } else { "off" },
    );

    let start = std::time::Instant::now();
    for req in &workload.requests {
        let t = (req.id().0 % tenants_n as u64) as usize;
        match *req {
            Request::Insert { id, size } => drop(tenants[t].insert(id, size)),
            Request::Delete { id } => drop(tenants[t].delete(id)),
        }
    }
    let waits: Vec<_> = tenants.iter_mut().map(|t| t.quiesce()).collect();
    let mut stats = Vec::with_capacity(tenants_n);
    for (t, wait) in waits.into_iter().enumerate() {
        match wait.wait() {
            Ok(s) => stats.push(s),
            Err(e) => {
                eprintln!("tenant {t} failed to quiesce: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = start.elapsed();
    let steal = fleet.steal_totals();
    for tenant in tenants {
        if let Err(e) = tenant.shutdown() {
            eprintln!("tenant shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    fleet.shutdown();

    // Per-tenant rows (capped — a thousand-tenant fleet prints as a
    // sample plus the aggregate), then the Σ row over every tenant.
    const SHOWN: usize = 10;
    let mut table = Table::new(
        format!("per-tenant stats ({})", args.variant),
        &[
            "tenant",
            "requests",
            "batches",
            "objects",
            "volume",
            "footprint",
            "ratio",
        ],
    );
    for (t, s) in stats.iter().enumerate().take(SHOWN) {
        table.row(vec![
            t.to_string(),
            fmt_u64(s.requests()),
            fmt_u64(s.batches()),
            fmt_u64(s.live_count() as u64),
            fmt_u64(s.live_volume()),
            fmt_u64(s.footprint()),
            fmt2(s.worst_settled_ratio()),
        ]);
    }
    if stats.len() > SHOWN {
        let mut row = vec![format!("… {} more", stats.len() - SHOWN)];
        row.resize(7, String::new());
        table.row(row);
    }
    table.row(vec![
        "Σ".into(),
        fmt_u64(stats.iter().map(EngineStats::requests).sum()),
        fmt_u64(stats.iter().map(EngineStats::batches).sum()),
        fmt_u64(stats.iter().map(|s| s.live_count() as u64).sum()),
        fmt_u64(stats.iter().map(EngineStats::live_volume).sum()),
        fmt_u64(stats.iter().map(EngineStats::footprint).sum()),
        fmt2(
            stats
                .iter()
                .map(EngineStats::worst_settled_ratio)
                .fold(0.0, f64::max),
        ),
    ]);
    table.print();

    if args.steal {
        println!(
            "stealing:  {} batches stolen, {} conflicts; stolen batches waited \
             p50 {:.1} µs / p99 {:.1} µs before a thief took them",
            fmt_u64(steal.batches_stolen),
            fmt_u64(steal.steal_conflicts),
            steal.steal_wait_ns.p50() / 1e3,
            steal.steal_wait_ns.p99() / 1e3,
        );
    }
    println!(
        "\nthroughput: {:.0} requests/sec ({} requests in {:.3}s, wall clock)",
        workload.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        workload.len(),
        elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\n\n\
                 usage: realloc-sim <algorithm> [--eps f] [--trace file | --churn vol ops] [--seed n] [--strict|--relaxed] [--crash-check]\n\
                 \x20      realloc-sim engine [--variant alg] [--shards n] [--batch n] [--coalesce]\n\
                 \x20                         [--rebalance-every n [--online] | --auto-rebalance [--tau f] [--policy-k n] [--hysteresis n]]\n\
                 \x20                         [--resize n] [--defrag] [--substrate [relaxed|strict]] [--verify-cadence final|quiesce|batch]\n\
                 \x20                         [--wal-dir dir [--crash-after n]] [--metrics] [--metrics-json] [--device unit|disk|ssd]\n\
                 \x20                         [--async [--tenants n] [--steal]] [--eps f] [--trace file | --churn vol ops] [--seed n]\n\
                 \x20      (--rebalance-every alone quiesces the whole fleet per rebalance; --online or\n\
                 \x20       --auto-rebalance migrate in bounded batches interleaved with serving;\n\
                 \x20       --substrate backs each shard with a byte store over its own address window —\n\
                 \x20       verification cost: final = one O(V) scan per shard for the whole run,\n\
                 \x20       quiesce = one per barrier (default), batch = one per channel batch (debugging))"
            );
            return ExitCode::FAILURE;
        }
    };

    let workload = match &args.trace {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match storage_realloc::workloads::file::from_text(&text) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => storage_realloc::workloads::churn::churn(
            &storage_realloc::workloads::churn::ChurnConfig {
                dist: storage_realloc::workloads::dist::SizeDist::ClassPowerLaw {
                    classes: 10,
                    decay: 0.7,
                },
                target_volume: args.churn.0,
                churn_ops: args.churn.1,
                seed: args.seed,
            },
        ),
    };

    if args.algorithm == "engine" {
        return if args.async_mode {
            run_engine_async(&args, &workload)
        } else {
            run_engine(&args, &workload)
        };
    }

    let Some(mut algorithm) = make_algorithm(&args.algorithm, args.eps) else {
        eprintln!("error: unknown algorithm {:?}", args.algorithm);
        return ExitCode::FAILURE;
    };

    println!("workload:  {} ({} requests)", workload.name, workload.len());
    println!("algorithm: {} (ε = {})", algorithm.name(), args.eps);

    let result = match run_workload(algorithm.as_mut(), &workload, args.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ledger = &result.ledger;
    println!("\n-- space --");
    println!("final volume V:        {}", result.final_volume);
    println!("final structure:       {}", result.final_structure);
    println!(
        "max settled ratio:     {:.4}",
        ledger.max_settled_space_ratio()
    );
    println!("∆ (largest object):    {}", result.delta);

    println!("\n-- movement --");
    println!("total reallocations:   {}", ledger.total_moves());
    println!("total moved volume:    {}", ledger.total_moved_volume());
    println!(
        "worst single request:  {} cells moved",
        ledger.max_op_moved_volume()
    );
    println!("checkpoint barriers:   {}", ledger.total_checkpoints());

    println!("\n-- cost competitiveness (reallocation / allocation cost) --");
    for f in storage_realloc::cost::standard_suite() {
        println!(
            "  {:>12}: {:.3}",
            f.name(),
            ledger.cost_ratio(&|w| f.cost(w))
        );
    }

    if let Some(sim) = &result.sim {
        println!("\n-- substrate --");
        println!("mode:                  {:?}", sim.mode());
        println!("ops replayed:          {}", sim.ops_applied());
        println!("checkpoints:           {}", sim.checkpoints());
        println!("rule violations:       0 (run would have failed otherwise)");
        if args.config.crash_check {
            println!("crash recovery:        verified after every request");
        }
    }
    ExitCode::SUCCESS
}
