//! perfbench: the repository's performance ledger.
//!
//! ```text
//! perfbench --workload <histo|gather|rtt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on 2 PEs in one process, verifies every rep, and prints
//! its metrics by name and unit; the last line of standard output is one
//! JSON object. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer breakdown (and writes the spans under `.perfbench_out/`).
//! See NOTES.md for what each workload and metric measures.

mod micro;
mod report;
mod trace;
mod workloads;

use lamellar_core::config::DEFAULT_AGG_THRESHOLD;
use lamellar_core::prelude::{Backend, WorldConfig};
use lamellar_core::world::spawn_worlds;
use report::Metric;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{PeOutput, Plan, Shared, Workload};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

const NUM_PES: usize = 2;
/// World builds per run; `setup_s` is their median, and each runs an equal
/// share of the budget, so a run pools reps over several thread placements.
const WORLDS: usize = 10;
/// The process gives up (and exits non-zero) after this long.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: perfbench --workload <histo|gather|rtt> --seed <n> --seconds <1-60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&val).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => {
                    seed = Some(val.parse::<u64>().map_err(|_| bad("expected an integer"))?)
                }
                "--seconds" => {
                    let s = val.parse::<u64>().map_err(|_| bad("expected an integer"))?;
                    if !(1..=60).contains(&s) {
                        return Err(bad("expected 1 to 60"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// The knobs the environment could otherwise override, set explicitly:
/// Rofi backend, one worker per PE, metrics on, the default aggregation
/// threshold. Everything else (memory regions included) keeps the defaults
/// a user's world gets, so `setup_s` covers the world they build.
fn world_config() -> WorldConfig {
    WorldConfig::new(NUM_PES)
        .backend(Backend::Rofi)
        .threads_per_pe(1)
        .agg_threshold(DEFAULT_AGG_THRESHOLD)
        .metrics(true)
}

/// What every world of a run produced.
struct Runs {
    /// Launch → every PE ready, per world.
    setups_s: Vec<f64>,
    /// Timed sections of all worlds, merged over PEs.
    reps: Vec<report::MergedRep>,
    /// Span recorders, labelled `w<world>.pe<pe>`.
    spans: Vec<(String, Vec<trace::Span>)>,
    framed_am_len: usize,
}

/// Build the world `WORLDS` times and run a share of the budget in each.
fn run_worlds(args: &Args, epoch: Instant) -> Result<Runs, String> {
    let mut runs =
        Runs { setups_s: Vec::new(), reps: Vec::new(), spans: Vec::new(), framed_am_len: 0 };
    for w in 0..WORLDS {
        let plan = Plan {
            workload: args.workload,
            seed: args.seed,
            budget: Duration::from_secs(args.seconds) / WORLDS as u32,
            trace: args.trace,
            launched: Instant::now(),
            epoch,
        };
        let shared = Shared::new(NUM_PES);
        let worlds = spawn_worlds(world_config());
        let outs: Vec<PeOutput> = std::thread::scope(|s| {
            let handles: Vec<_> = worlds
                .into_iter()
                .enumerate()
                .map(|(pe, world)| {
                    std::thread::Builder::new()
                        .name(format!("perfbench-pe{pe}"))
                        .spawn_scoped(s, || workloads::pe_main(world, &shared, &plan))
                        .expect("spawn PE main thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| "a PE main thread panicked".to_string())?;
        runs.setups_s.push(outs.iter().map(|o| o.ready.as_secs_f64()).fold(0.0, f64::max));
        runs.reps.extend(report::merge(&outs));
        runs.framed_am_len = outs[0].framed_am_len;
        for (pe, o) in outs.into_iter().enumerate() {
            runs.spans.push((format!("w{w}.pe{pe}"), o.spans));
        }
    }
    Ok(runs)
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        parts.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(args: &Args) -> Result<String, String> {
    let epoch = Instant::now();
    let Runs { setups_s, reps, mut spans, framed_am_len } = run_worlds(args, epoch)?;
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let errors: u64 = reps.iter().map(|r| r.errors).sum();

    let e2e = report::end_to_end(args.workload, &reps, &setups_s);
    println!("end-to-end:");
    for m in &e2e {
        println!("  {:<14} {:>14.4} {:<5} ({})", m.name, m.value, m.unit, m.note);
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<14} {:>14.4} {:<5} ({failed} of {attempted} ops, {errors} Err)",
        "failed_frac", failed_frac, "frac"
    );

    let mut correct = failed == 0 && attempted > 0;
    let reported = if args.trace {
        let mut mt = trace::Tracer::new(epoch);
        let micro = micro::run(&mut mt, args.seed, framed_am_len);
        let (layers, misnested) = report::per_layer(&reps, &spans, &micro);
        println!("per-layer (traced run):");
        for m in &layers {
            println!("  {:<38} {:>14.4} {:<16} ({})", m.name, m.value, m.unit, m.note);
        }
        println!("  kernel spans with misnested children: {misnested}");
        correct &= misnested == 0;
        spans.push(("micro".to_string(), mt.into_spans()));
        let path = std::path::PathBuf::from(".perfbench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_spans(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
        layers
    } else {
        e2e
    };
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&reported)?
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Ignore LAMELLAR_* overrides: the world is configured explicitly, and
    // the fabric reads its network-model switch from the environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LAMELLAR_") {
            std::env::remove_var(key);
        }
    }
    // Detached on purpose: a PE that panics leaves its peer blocked in a
    // barrier for good, and this bounds the run instead.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: no result after {DEADLINE:?}; giving up");
        std::process::exit(3);
    });
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} pes={NUM_PES} workers_per_pe=1 \
         available_parallelism={parallelism}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
