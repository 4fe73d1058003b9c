//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric as a table (name, value,
//! unit, sample count), then one JSON result line. `--trace 0` measures
//! the end-to-end metrics with tracing off. `--trace 1` runs the workload
//! twice for half the time each, untraced then traced, and reports the
//! per-layer metrics of the traced pass plus the tracing overhead.
//!
//! Run it from the repository root, where it keeps its on-disk stores in
//! `.perfbench_tmp/` and removes them on exit.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use perfbench::report::{ratio, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{adaptive, durable, tenants, Ctx, Outcome};

const WORKLOADS: [&str; 3] = ["adaptive_iter", "durable_cycle", "tenant_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = value
                    .parse::<u8>()
                    .map_err(|_| format!("bad --trace {value:?}"))?
                    == 1
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Process high-water resident set, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over every file under `dir` (paths and contents, sorted), so a
/// result names the exact sources it measured even outside a git checkout.
fn fingerprint(dir: &Path, hash: &mut u64) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            fingerprint(&path, hash)?;
        } else {
            let bytes = path.to_string_lossy().into_owned().into_bytes();
            for b in bytes.into_iter().chain(std::fs::read(&path)?) {
                *hash = (*hash ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    Ok(())
}

fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let sources = match fingerprint(Path::new("crates"), &mut hash) {
        Ok(()) => format!("{hash:016x}"),
        Err(e) => format!("unavailable ({e})"),
    };
    format!("git {} sources {sources}", git.as_deref().unwrap_or("none"))
}

fn run_pass(workload: &str, ctx: &Ctx) -> io::Result<Outcome> {
    match workload {
        "adaptive_iter" => adaptive::run(ctx),
        "durable_cycle" => durable::run(ctx),
        _ => tenants::run(ctx),
    }
}

fn run(args: &Args, work_dir: &Path) -> io::Result<()> {
    let budget = Duration::from_secs_f64(args.seconds);
    let ctx = |budget, tracer| Ctx {
        seed: args.seed,
        budget,
        tracer,
        work_dir: work_dir.to_path_buf(),
    };
    let (mut out, catalogue) = if args.trace {
        let plain = run_pass(&args.workload, &ctx(budget / 2, None))?;
        let mut traced = run_pass(
            &args.workload,
            &ctx(budget / 2, Some(Arc::new(Tracer::default()))),
        )?;
        let overhead = match (
            plain.report.get("ckpt_ms_p50"),
            traced.report.get("ckpt_ms_p50"),
        ) {
            (Some(p), Some(t)) => (ratio(t, p) - 1.0) * 100.0,
            _ => f64::NAN,
        };
        traced.report.set("trace.overhead_pct", overhead, 2);
        traced.ops.attempted += plain.ops.attempted;
        traced.ops.failed += plain.ops.failed;
        (traced, PER_LAYER)
    } else {
        (run_pass(&args.workload, &ctx(budget, None))?, END_TO_END)
    };
    out.report.set("peak_rss_mib", peak_rss_mib(), 1);
    let ops = out.ops;
    let failed_ratio = ratio(ops.failed as f64, ops.attempted as f64);
    out.report.set(
        "bench.failed_op_ratio",
        failed_ratio,
        ops.attempted as usize,
    );
    println!(
        "  failed_op_ratio {failed_ratio} ({} failed of {} checkpoints, restores and output checks)",
        ops.failed, ops.attempted
    );
    out.report
        .print(catalogue, ops.failed == 0, ops.attempted, ops.failed);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} revision: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        revision()
    );
    let root = PathBuf::from(".perfbench_tmp");
    let work_dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&work_dir).and_then(|()| run(&args, &work_dir));
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
