//! E17 — variant shootout: every [`VARIANTS`] registry entry head-to-head.
//!
//! Two workload families, both at V≈1M and V≈10M:
//!
//! * **churn storm** — `coalescible_churn`, where half the traffic is
//!   cancelling delete+reinsert touches: the regime the 2024
//!   nearly-quadratic variant targets (hole recycling + tombstone
//!   cancellation stop the flush clock);
//! * **adversarial** — `compaction_killer`, delete-heavy traffic designed
//!   against compacting allocators, where no variant gets its fast path.
//!
//! Every run is priced post-hoc on all three device profiles (`unit`,
//! `disk`, `ssd`) by replaying the emitted op stream through
//! [`DeviceProfile::build`], so the comparison is simulated device time —
//! deterministic, no wall-clock noise — plus moved volume and flush count.
//!
//! The bench also sweeps a cancelling-churn population ladder and reports
//! the **object-count crossover**: the smallest standing population at
//! which the 2024 variant's device time beats *all three* 2014 variants,
//! per profile. Everything is exported as `BENCH_variant_shootout.json`
//! (strict-codec round-trip checked before the bench exits).
//!
//! `VARIANT_SHOOTOUT_SMOKE=1` shrinks both scales and the ladder; the
//! verdict gates stay on (all numbers here are deterministic).

use std::process::ExitCode;

use realloc_engine::{DeviceProfile, Json};
use storage_realloc::prelude::*;
use storage_realloc::workloads::adversarial::compaction_killer;
use storage_realloc::workloads::churn::{coalescible_churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

use realloc_bench::{fmt_u64, Table};

const EPS: f64 = 0.25;
/// The 2014 variants the crossover is measured against.
const OLD_GUARD: [&str; 3] = ["cost-oblivious", "checkpointed", "deamortized"];

struct Scale {
    volumes: Vec<u64>,
    churn_ops: usize,
    ladder: Vec<u64>,
    smoke: bool,
}

fn scale() -> Scale {
    if std::env::var_os("VARIANT_SHOOTOUT_SMOKE").is_some() {
        Scale {
            volumes: vec![50_000],
            churn_ops: 10_000,
            ladder: vec![64, 128, 256, 512],
            smoke: true,
        }
    } else {
        Scale {
            volumes: vec![1_000_000, 10_000_000],
            churn_ops: 150_000,
            ladder: vec![64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192],
            smoke: false,
        }
    }
}

/// One variant's run, priced on every device profile (indexed like
/// [`DeviceProfile::ALL`]).
struct Priced {
    moved: u64,
    flushes: u64,
    live_count: usize,
    time_us: [f64; 3],
}

/// Serves `workload` on a fresh `variant` instance, pricing the emitted op
/// stream on all three device profiles as it goes (streams are dropped per
/// request, so a V≈10M run stays flat in memory).
fn drive(variant: &str, workload: &Workload) -> Priced {
    let devices: Vec<_> = DeviceProfile::ALL.iter().map(|p| p.build()).collect();
    let mut r = build_variant(variant, EPS).expect("registry name");
    let mut out = Priced {
        moved: 0,
        flushes: 0,
        live_count: 0,
        time_us: [0.0; 3],
    };
    let price = |outcome: &Outcome, out: &mut Priced| {
        out.moved += outcome.moved_volume();
        out.flushes += u64::from(outcome.flushed);
        for (i, dev) in devices.iter().enumerate() {
            out.time_us[i] += dev.time_of_stream(&outcome.ops);
        }
    };
    for req in &workload.requests {
        let outcome = match *req {
            Request::Insert { id, size } => r.insert(id, size).expect("valid insert"),
            Request::Delete { id } => r.delete(id).expect("valid delete"),
        };
        price(&outcome, &mut out);
    }
    let outcome = r.quiesce();
    price(&outcome, &mut out);
    out.live_count = r.live_count();
    out
}

/// Pure cancelling churn for the crossover ladder: a standing population
/// of `objects` same-class objects, then `2·objects` delete-oldest +
/// reinsert-same-size rounds.
fn cancelling_ladder_rung(objects: u64) -> Workload {
    let mut requests = Vec::new();
    for i in 0..objects {
        requests.push(Request::Insert {
            id: ObjectId(i),
            size: 64,
        });
    }
    for oldest in 0..2 * objects {
        requests.push(Request::Delete {
            id: ObjectId(oldest),
        });
        requests.push(Request::Insert {
            id: ObjectId(objects + oldest),
            size: 64,
        });
    }
    Workload::new(format!("cancelling({objects} objects)"), requests)
}

fn variant_json(p: &Priced) -> Json {
    let mut doc = Json::obj();
    doc.set("moved_volume", p.moved).set("flushes", p.flushes);
    for (i, profile) in DeviceProfile::ALL.iter().enumerate() {
        doc.set(&format!("time_us_{}", profile.name()), p.time_us[i]);
    }
    doc
}

fn main() -> ExitCode {
    let scale = scale();
    let mut doc = Json::obj();
    doc.set("bench", "variant_shootout")
        .set("smoke", scale.smoke);
    let mut pass = true;

    // -- Head-to-head tables: churn storm + adversarial, per scale. --------
    let mut rounds: Vec<Json> = Vec::new();
    for &volume in &scale.volumes {
        let storm = coalescible_churn(&ChurnConfig {
            dist: SizeDist::Uniform { lo: 16, hi: 128 },
            target_volume: volume,
            churn_ops: scale.churn_ops,
            seed: 17,
        });
        assert!(storm.validate_reuse().is_ok(), "generator contract");
        let killer = compaction_killer(256, (scale.churn_ops / 512).max(8));
        for workload in [&storm, &killer] {
            let mut table = Table::new(
                format!("{} @ V≈{}", workload.name, fmt_u64(volume)),
                &[
                    "variant",
                    "moved volume",
                    "flushes",
                    "unit µs",
                    "disk µs",
                    "ssd µs",
                ],
            );
            let mut round = Json::obj();
            round
                .set("workload", workload.name.as_str())
                .set("target_volume", volume)
                .set("requests", workload.len());
            let mut live = None;
            for variant in VARIANTS {
                let priced = drive(variant, workload);
                // Same observable state across variants, or the price
                // comparison is meaningless.
                let expected = *live.get_or_insert(priced.live_count);
                assert_eq!(priced.live_count, expected, "{variant}: liveness diverged");
                table.row(vec![
                    variant.to_string(),
                    fmt_u64(priced.moved),
                    fmt_u64(priced.flushes),
                    fmt_u64(priced.time_us[0] as u64),
                    fmt_u64(priced.time_us[1] as u64),
                    fmt_u64(priced.time_us[2] as u64),
                ]);
                round.set(variant, variant_json(&priced));
            }
            table.print();
            rounds.push(round);
        }

        // The headline gate: on the churn storm at every scale, the 2024
        // variant's device time beats §3.2's on every profile. The port runs
        // §3.2's flush under the §3.1 rules, so `checkpointed` is the 2014
        // variant whose rules and flush it shares. The other two are exempt
        // here, though their rows print and the crossover below is measured
        // against all three: the deamortized variant's incremental flushing
        // legitimately stays competitive on mixed-size churn, and §2 obeys
        // only memmove rules, moving each payload survivor once per flush.
        // §2 vs FS'24 moved cells on this storm: 13,502,550 vs 16,996,984
        // at V≈50k (the smoke), 209.9M vs 179.1M at V≈1M and 309.4M vs
        // 377.8M at V≈10M.
        let nq = drive("nearly-quadratic", &storm);
        let cp = drive("checkpointed", &storm);
        for (i, profile) in DeviceProfile::ALL.iter().enumerate() {
            if nq.time_us[i] >= cp.time_us[i] {
                println!(
                    "  GATE: nearly-quadratic {} µs ≥ checkpointed {} µs on {} @ V≈{volume}",
                    nq.time_us[i] as u64,
                    cp.time_us[i] as u64,
                    profile.name()
                );
                pass = false;
            }
        }
    }
    doc.set("rounds", Json::Arr(rounds));

    // -- Object-count crossover on the cancelling ladder. ------------------
    let mut crossover: [Option<u64>; 3] = [None; 3];
    let mut ladder_json: Vec<Json> = Vec::new();
    for &objects in &scale.ladder {
        let rung = cancelling_ladder_rung(objects);
        let nq = drive("nearly-quadratic", &rung);
        let old: Vec<Priced> = OLD_GUARD.iter().map(|v| drive(v, &rung)).collect();
        let mut entry = Json::obj();
        entry.set("objects", objects);
        entry.set("nearly-quadratic", variant_json(&nq));
        for (name, p) in OLD_GUARD.iter().zip(&old) {
            entry.set(name, variant_json(p));
        }
        ladder_json.push(entry);
        for (i, slot) in crossover.iter_mut().enumerate() {
            let beats_all = old.iter().all(|o| nq.time_us[i] < o.time_us[i]);
            if beats_all && slot.is_none() {
                *slot = Some(objects);
            }
        }
    }
    doc.set("ladder", Json::Arr(ladder_json));
    println!("\n  object-count crossover (2024 beats all 2014 variants):");
    let mut crossover_json = Json::obj();
    for (i, profile) in DeviceProfile::ALL.iter().enumerate() {
        match crossover[i] {
            Some(n) => {
                println!("    {:>4}: ≥ {} objects", profile.name(), fmt_u64(n));
                crossover_json.set(profile.name(), n);
            }
            None => {
                println!("    {:>4}: not reached on this ladder", profile.name());
                pass = false;
            }
        }
    }
    doc.set("crossover_objects", crossover_json)
        .set("pass", pass);

    println!("\n  verdict: {}", realloc_bench::verdict(pass));
    let path = "BENCH_variant_shootout.json";
    let text = doc.to_string();
    match Json::parse(&text) {
        Ok(parsed) if parsed == doc => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("  export failed: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("  exported {path} (re-parsed OK)");
        }
        Ok(_) => {
            eprintln!("  export failed: did not round-trip");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("  export failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
