//! `nexus-bench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! nexus-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!             [--quick] [--out DIR]
//! nexus-bench compare DIR_A DIR_B
//! ```
//!
//! The parent process runs each workload in a child process of its own,
//! so the process-global kernel counters, the allocator and the peak RSS
//! stay per workload, and a child that panics or hangs fails only its own
//! workload. A child generates its inputs and serializes them, resets the
//! peak-RSS mark, times the set-up, runs the workload's
//! closed loop for `--seconds`, checks every reply, and prints one
//! `workload metric value unit n=N` line per metric followed by a JSON
//! result line, which is the last line of the parent's stdout. Result and
//! span files go to `--out` (default: `nexus-bench/` under the cargo
//! target directory). See README.md for the workloads and metrics.

mod compare;
mod json;
mod oneshot;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use json::Json;
use report::{Mode, Report};
use workload::{RunSpec, Workload};

const USAGE: &str = "usage: nexus-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n       nexus-bench compare DIR_A DIR_B\nworkloads: syn-rows, fl-airline, fl-wide, serve-mix";

/// Measured seconds per run when `--seconds` is not given: `run_seconds`
/// in `BENCHMARK.json`. Tools that run the benchmark from that file pass
/// `--workload`, `--seed`, `--seconds <run_seconds>` and `--trace` to its
/// `command`, so the flag is part of the benchmark's interface.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: u64,
    traced: bool,
    quick: bool,
    out: PathBuf,
    /// Set by the parent on the processes it spawns.
    child: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nexus-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: None,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: default_out(),
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    let w = Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    vec![w]
                };
            }
            "--seed" => {
                let seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                args.seed = Some(seed);
            }
            "--seconds" => {
                let seconds: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.child && args.workloads.len() != 1 {
        return Err("a child run takes exactly one --workload".into());
    }
    Ok(args)
}

/// `nexus-bench/` under the cargo target directory, relative to the
/// working directory where possible: the server's socket lives there, and
/// Unix socket paths are limited to about 100 bytes.
fn default_out() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let out = target.join("nexus-bench");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| out.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(out)
}

/// One child run as the parent saw it.
struct ChildRun {
    /// The child's parsed result line, if it printed one.
    result: Option<Json>,
    /// Metric names of the lines it printed.
    printed: BTreeSet<String>,
}

fn parent(args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("nexus-bench: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("nexus-bench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--quick` is the smoke mode: every workload, untraced and traced.
    let runs: Vec<(Workload, bool)> = if args.quick {
        args.workloads
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        args.workloads.iter().map(|&w| (w, args.traced)).collect()
    };
    let started = Instant::now();
    let children: Vec<ChildRun> = runs
        .iter()
        .map(|&(w, traced)| run_child(&exe, args, w, traced))
        .collect();

    let correct = |c: &ChildRun| {
        c.result
            .as_ref()
            .and_then(|r| r.get("correct"))
            .is_some_and(|v| *v == Json::Bool(true))
    };
    let mut ok = children.iter().all(correct);
    if args.quick {
        let printed: BTreeSet<String> = children.iter().flat_map(|c| c.printed.clone()).collect();
        match missing_metrics(&printed) {
            Ok(missing) if missing.is_empty() => {}
            Ok(missing) => {
                eprintln!("nexus-bench: BENCHMARK.json metrics never printed: {missing:?}");
                ok = false;
            }
            Err(e) => {
                eprintln!("nexus-bench: {e}");
                ok = false;
            }
        }
        eprintln!(
            "nexus-bench: quick run finished in {:.1} s",
            started.elapsed().as_secs_f64()
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process, relaying its stdout line by
/// line. A child that outlives its time limit is killed (and its workload
/// failed); the parent always waits for it to end.
fn run_child(exe: &Path, args: &Args, workload: Workload, traced: bool) -> ChildRun {
    let mut run = ChildRun {
        result: None,
        printed: BTreeSet::new(),
    };
    let mut command = Command::new(exe);
    command
        .args(["--child", "--workload", workload.name()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if let Some(seed) = args.seed {
        command.args(["--seed", &seed.to_string()]);
    }
    if args.quick {
        command.arg("--quick");
    }
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("nexus-bench: {}: cannot start child: {e}", workload.name());
            return run;
        }
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let limit = Duration::from_secs(if args.quick {
        120
    } else {
        120 + 2 * args.seconds
    });
    let deadline = Instant::now() + limit;
    let mut last = None;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok(line)) => {
                println!("{line}");
                if let Some(name) = report::metric_of_line(&line) {
                    run.printed.insert(name.to_string());
                }
                last = Some(line);
            }
            Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                eprintln!(
                    "nexus-bench: {}: no result within {} s; killing it",
                    workload.name(),
                    limit.as_secs()
                );
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait();
    let _ = reader.join();
    match status {
        Ok(s) if !s.success() => eprintln!("nexus-bench: {}: child {s}", workload.name()),
        Err(e) => eprintln!("nexus-bench: {}: {e}", workload.name()),
        Ok(_) => {}
    }
    run.result = last
        .and_then(|l| json::parse(&l).ok())
        .filter(|r| r.get("correct").is_some());
    if run.result.is_none() {
        // Every run ends in a result line, even one whose child died first.
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    }
    run
}

/// The `BENCHMARK.json` metric names (in the working directory) missing
/// from `printed`.
fn missing_metrics(printed: &BTreeSet<String>) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let mut missing = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let entries = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
        for entry in entries {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("BENCHMARK.json {key} entry without a name"))?;
            if !printed.contains(name) {
                missing.push(name.to_string());
            }
        }
    }
    Ok(missing)
}

fn child(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        out: args.out.clone(),
    };
    let mut report = Report::new(workload.name());
    let outcome = workload::generate(workload, args.quick).and_then(|inputs| {
        if !report::reset_peak_rss() {
            eprintln!("nexus-bench: cannot reset the peak-RSS mark; peak_rss_mb includes input generation");
        }
        match workload.one_shot() {
            Some(shot) => oneshot::run(&spec, &inputs, &shot, &mut report),
            None => serve::run(&spec, &inputs, &mut report),
        }
    });
    if let Err(e) = outcome {
        report.fail(e);
    }
    // The served mix reads its peak itself, after its first set-up.
    if report.get("peak_rss_mb").is_none() {
        match report::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb, "MiB", 1),
            None => report.fail("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    report.finish();
    report.print_lines(args.traced);
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let seed = args.seed.map_or("own".to_string(), |s| s.to_string());
    let mode = Mode {
        traced: args.traced,
        quick: args.quick,
    };
    let path = args.out.join(format!(
        "run-{}-t{}{}-s{seed}-{millis}.json",
        workload.name(),
        u8::from(mode.traced),
        if mode.quick { "-quick" } else { "" }
    ));
    if let Err(e) = report.write_file(&path, args.seed, mode) {
        eprintln!("nexus-bench: {}: {e}", path.display());
    }
    println!("{}", report.result_line(args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
