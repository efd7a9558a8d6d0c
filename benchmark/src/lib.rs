//! The iteration ledger: the repo's benchmark (see `README.md`).
//!
//! One process measures one workload: set-up, one warm-up round, then timed
//! rounds of identical work for `--seconds`, every segment of them scaled by
//! the host-speed calibrator's readings around it (`calib`), correctness
//! checks, and one JSON result line. The two binaries share this library; `ledger-traced`
//! adds a counting allocator and is the one `--trace 1` runs.

pub mod calib;
pub mod contract;
pub mod inputs;
pub mod layers;
pub mod selftest;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use calib::{Meter, Metered};
use inputs::Kind;
use stats::{iqr_over_median, median};
use trace::Tracer;
use workloads::{Setup, SharedMeter};

/// Timed rounds a run has at least.
pub const MIN_ROUNDS: usize = 10;
/// From-scratch set-ups per plain run: the first, then one after every
/// second timed round. `setup_s` is their median.
pub const SETUPS: usize = 5;
/// How far `VmHWM` may grow after the first timed round before the run fails.
pub const LEAK_FACTOR: f64 = 2.0;
/// Batches per run whose executor output is compared with the dense
/// reference (the reference costs more than the executor itself).
pub const REFERENCE_BATCHES: usize = 2;

/// Allocation counters the traced binary's global allocator feeds. Counting
/// is off unless `on` is set, so untraced rounds in that binary pay one
/// relaxed load per allocation.
pub struct AllocCounters {
    pub on: AtomicBool,
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
}

impl AllocCounters {
    pub const fn new() -> Self {
        AllocCounters {
            on: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Counts allocations made while `f` runs: `(result, calls, bytes)`.
    pub fn during<T>(&self, f: impl FnOnce() -> T) -> (T, u64, u64) {
        let (c0, b0) = (
            self.calls.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        );
        self.on.store(true, Ordering::Relaxed);
        let out = f();
        self.on.store(false, Ordering::Relaxed);
        (
            out,
            self.calls.load(Ordering::Relaxed) - c0,
            self.bytes.load(Ordering::Relaxed) - b0,
        )
    }
}

impl Default for AllocCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Metric name → value, in name order until printed in contract order.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result of one run, before printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in contract order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth keeping, as a JSON object body.
    pub detail: String,
}

impl Outcome {
    /// The one result line the driver reads.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with all its digits (non-finite values print as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
    )
}

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Where results and traces go: `$LEDGER_OUT` (`run.sh` points it at
/// `benchmark/out/` beside the sources), else `benchmark/out` under the
/// working directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("LEDGER_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// Writes `body` to `name` in [`out_dir`]; a failure is reported, not fatal.
pub(crate) fn write_out(name: &str, body: &str) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        if let Err(e) = std::fs::write(dir.join(name), body) {
            eprintln!("ledger: cannot write {name}: {e}");
        }
    }
}

/// The shared front half of a run: environment, pinning, first set-up.
pub struct Prepared {
    pub setup: Setup,
    /// The first set-up, in a cold process.
    pub first_setup: Metered,
    pub inputs_hash: u64,
    pub plans_hash: u64,
    pub affinity: Option<stats::Affinity>,
    /// The meter every later round and set-up of the run is timed with.
    pub meter: SharedMeter,
}

/// `calibrate` is false in the traced run, whose meter only times.
pub fn prepare(args: &RunArgs, tr: &mut Tracer, calibrate: bool) -> Result<Prepared, String> {
    // One rayon worker: the benchmark measures single-threaded code paths;
    // the vendored rayon reads the variable at every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let affinity = stats::pin_to_one_cpu();
    let mut meter = Meter::new(calibrate);
    meter.open();
    let setup = workloads::setup(args.kind, args.seed, tr, &mut meter)?;
    let first_setup = meter.take();
    Ok(Prepared {
        inputs_hash: setup.inputs.hash(),
        plans_hash: workloads::plans_hash(&setup),
        setup,
        first_setup,
        affinity,
        meter: Arc::new(Mutex::new(meter)),
    })
}

/// What the checked (warm-up) round established, for both kinds of run.
pub struct Checked {
    pub failures: Vec<String>,
    pub modelled: workloads::Modelled,
    pub panel_plans: usize,
    pub counts: BTreeMap<&'static str, u64>,
    pub round_hash: u64,
    /// Executor outputs kept for the checks after the window.
    pub kept: Vec<(usize, workloads::Item)>,
}

/// The warm-up round, which is also the checked one: every batch is checked
/// as it arrives; with `panel`, the modelled metrics' panel is planned after
/// it. Untimed.
pub fn checked_warmup(s: &Setup, tr: &mut Tracer, panel: bool) -> Checked {
    let mut checker = workloads::Checker::new(s);
    let untimed = Arc::new(Mutex::new(Meter::new(false)));
    let r = workloads::round(s, tr, &untimed, &mut |b, item| checker.take(b, item));
    if r.batches != s.inputs.round_batches() {
        checker.failures.push(format!(
            "round produced {} batches, expected {}",
            r.batches,
            s.inputs.round_batches()
        ));
    }
    if panel {
        checker.panel();
    }
    Checked {
        modelled: checker.modelled(),
        panel_plans: checker.panel_size(),
        round_hash: checker.round_hash(),
        failures: checker.failures,
        counts: checker.counts,
        kept: checker.kept,
    }
}

/// The plain run: end-to-end metrics with tracing off.
pub fn run_plain(args: &RunArgs) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let p = prepare(args, &mut tr, true)?;
    let s = &p.setup;
    let mut setups = vec![p.first_setup];
    let t_check = Instant::now();
    let checked = checked_warmup(s, &mut tr, true);
    let check_s = t_check.elapsed().as_secs_f64();
    let mut failures = checked.failures;

    // The window is `--seconds` of wall spent in rounds (their untimed
    // priming and the calibrator's readings included) and in the repeated
    // set-ups, so a run's length is known in advance.
    let mut rounds: Vec<Metered> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // `VmHWM` before the first timed round, then after each.
    let mut hwm_mb = vec![stats::peak_rss_mib()];
    let mut window_s = 0.0f64;
    let cpu0 = stats::process_cpu_s();
    let wall0 = Instant::now();
    while rounds.len() < MIN_ROUNDS || setups.len() < SETUPS || window_s < args.seconds {
        let t0 = Instant::now();
        let r = workloads::round(s, &mut tr, &p.meter, &mut workloads::discard);
        attempted += r.batches as u64;
        failed += r.failed as u64;
        rounds.push(r.timed);
        hwm_mb.push(stats::peak_rss_mib());
        if setups.len() < SETUPS && rounds.len().is_multiple_of(2) {
            let mut meter = p.meter.lock().expect("meter lock");
            meter.open();
            let again = workloads::setup(args.kind, args.seed, &mut tr, &mut meter);
            setups.push(meter.take());
            match again {
                Ok(a) if workloads::plans_hash(&a) == p.plans_hash => {}
                Ok(_) => failures.push(format!("set-up {} planned differently", setups.len())),
                Err(e) => failures.push(format!("set-up {} failed: {e}", setups.len())),
            }
        }
        window_s += t0.elapsed().as_secs_f64();
    }
    let cpu_over_wall = (stats::process_cpu_s() - cpu0) / wall0.elapsed().as_secs_f64();
    // Peak memory is read after the first timed round: set-up, the checked
    // round and one round of the work. Every later round does the same work,
    // but a heap that never gives memory back ratchets up when two threads'
    // allocations interleave unluckily (`replan_stream`: one 30 MiB step at a
    // random round in half the runs), and the repeated set-ups hold a second
    // copy of the inputs — neither is the program's footprint. Memory that
    // doubles after that reading is a leak, and fails the run.
    let peak_rss_mb = hwm_mb[1];
    let final_rss_mb = hwm_mb[hwm_mb.len() - 1];
    if final_rss_mb > LEAK_FACTOR * peak_rss_mb {
        failures.push(format!(
            "resident memory grew from {peak_rss_mb:.0} MiB after the first round to {final_rss_mb:.0} MiB"
        ));
    }

    // After the window: the dense reference and the bitwise re-execution.
    let (exec_failures, reference) = workloads::check_executor(s, &checked.kept, REFERENCE_BATCHES);
    failures.extend(exec_failures);
    // A batch that failed a check counts once, on top of chain errors.
    failed = (failed + failures.len() as u64).min(attempted);

    let tokens = s.inputs.round_tokens() as f64;
    let column = |f: fn(&Metered) -> f64, v: &[Metered]| v.iter().map(f).collect::<Vec<f64>>();
    let (walls, scaled) = (
        column(|m| m.wall_s, &rounds),
        column(|m| m.scaled_s, &rounds),
    );
    let values: Metrics = [
        ("setup_s", median(&column(|m| m.scaled_s, &setups))),
        ("tokens_per_s", tokens / median(&scaled)),
        ("sim_iter_ms", checked.modelled.sim_iter_ms),
        (
            "comm_bytes_per_token",
            checked.modelled.comm_bytes_per_token,
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into_iter()
    .collect();
    let metrics = contract::END_TO_END
        .iter()
        .map(|(name, unit, _, _)| (*name, *unit, values[name]))
        .collect();

    let readings = std::mem::take(&mut p.meter.lock().expect("meter lock").readings);
    let quartiles = |f: fn(&calib::Reading) -> f64| {
        let v: Vec<f64> = readings.iter().map(|r| f(r) * 1e3).collect();
        json_list(&[10.0, 50.0, 90.0].map(|q| stats::percentile(&v, q)))
    };
    let mut detail = String::new();
    let _ = write!(
        detail,
        "\"workload\": \"{}\", \"seed\": {}, \"traced\": false, \"pinned\": {}, \"inputs_hash\": \"{:016x}\", \"plans_hash\": \"{:016x}\", \"round_hash\": \"{:016x}\", \"round_tokens\": {}, \"round_batches\": {}, \"rounds\": {}, \"window_s\": {}, \"round_scaled_s\": {}, \"round_walls_s\": {}, \"setup_scaled_s\": {}, \"setup_walls_s\": {}, \"tokens_per_s_as_timed\": {}, \"setup_s_as_timed\": {}, \"calibrator_readings\": {}, \"flops_ms_p10_p50_p90\": {}, \"chase_ms_p10_p50_p90\": {}, \"host.round_spread\": {}, \"scaled_round_spread\": {}, \"host.cpu_over_wall\": {}, \"rss_hwm_mb\": {}, \"panel_plans\": {}, \"reference_batches\": {}, \"checked_round_s\": {}, \"counts\": {{{}}}, \"failures\": [{}]",
        args.kind.name(),
        args.seed,
        p.affinity.is_some(),
        p.inputs_hash,
        p.plans_hash,
        checked.round_hash,
        s.inputs.round_tokens(),
        s.inputs.round_batches(),
        rounds.len(),
        num(window_s),
        json_list(&scaled),
        json_list(&walls),
        json_list(&column(|m| m.scaled_s, &setups)),
        json_list(&column(|m| m.wall_s, &setups)),
        num(tokens / median(&walls)),
        num(median(&column(|m| m.wall_s, &setups))),
        readings.len(),
        quartiles(|r| r.flops_s),
        quartiles(|r| r.chase_s),
        num(iqr_over_median(&walls)),
        num(iqr_over_median(&scaled)),
        num(cpu_over_wall),
        json_list(&hwm_mb),
        checked.panel_plans,
        reference.batches,
        num(check_s),
        checked
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        failures
            .iter()
            .map(|f| format!("{f:?}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    Ok(Outcome {
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// Prints a run's human-readable summary, its detail line and the result
/// line (last), and writes `out/<workload>[.traced].json`.
pub fn report(args: &RunArgs, out: &Outcome) {
    let suffix = if args.traced { ".traced" } else { "" };
    println!(
        "== {}{} seed {} ==",
        args.kind.name(),
        if args.traced { " (traced)" } else { "" },
        args.seed
    );
    for (name, unit, value) in &out.metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!("LEDGER_DETAIL {{{}}}", out.detail);
    let line = out.result_line();
    write_out(
        &format!("{}{suffix}.json", args.kind.name()),
        &format!("{{\"result\": {line}, \"detail\": {{{}}}}}\n", out.detail),
    );
    println!("{line}");
}

/// glibc malloc settings every measuring process runs under: one arena, no
/// `mmap` for large blocks, no trimming, and 256 MiB of head-room whenever
/// the heap grows — freed memory stays in the heap instead of going back to
/// the kernel, so a round does not pay (and is not jittered by) page faults
/// on memory the previous round just released. Measured on this host:
/// `replan_stream` rounds of identical work spread 0.57-2.3 s without them
/// and 0.43-0.57 s with them.
const MALLOC_ENV: [(&str, &str); 4] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
    ("MALLOC_TOP_PAD_", "268435456"),
];

/// Re-executes the process with [`MALLOC_ENV`] set (glibc reads the
/// variables once, at start-up). Returns when they are already in place.
fn ensure_allocator_settings() {
    use std::os::unix::process::CommandExt;
    if MALLOC_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
    {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .exec();
    eprintln!("ledger: cannot re-exec with allocator settings ({err}); timings will be noisier");
}

/// Parses the arguments and runs. Returns the process exit code.
pub fn main_with(alloc: Option<&'static AllocCounters>) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    if argv.iter().any(|a| a == "--contract") {
        print!("{}", contract::render());
        return 0;
    }
    if argv.iter().any(|a| a == "--selftest") {
        return selftest::run(value("--seed").and_then(|s| s.parse().ok()).unwrap_or(7));
    }
    if argv.iter().any(|a| a == "--table") {
        return selftest::table();
    }
    if argv.iter().any(|a| a == "--host") {
        calib::print_host(
            value("--seconds")
                .and_then(|s| s.parse().ok())
                .unwrap_or(10.0),
        );
        return 0;
    }
    ensure_allocator_settings();
    let Some(kind) = value("--workload").as_deref().and_then(Kind::parse) else {
        eprintln!(
            "usage: ledger --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       ledger --contract | --selftest | --table | --host [--seconds S]",
            Kind::ALL.map(Kind::name).join("|")
        );
        return 2;
    };
    let args = RunArgs {
        kind,
        seed: value("--seed").and_then(|s| s.parse().ok()).unwrap_or(7),
        seconds: value("--seconds")
            .and_then(|s| s.parse().ok())
            .unwrap_or(contract::RUN_SECONDS as f64),
        traced: argv.iter().any(|a| a == "--traced") || value("--trace").as_deref() == Some("1"),
    };
    let outcome = if args.traced {
        layers::run_traced(&args, alloc)
    } else {
        run_plain(&args)
    };
    match outcome {
        Ok(out) => {
            report(&args, &out);
            if out.correct {
                0
            } else {
                eprintln!("ledger: {} of {} batches failed", out.failed, out.attempted);
                1
            }
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            1
        }
    }
}
