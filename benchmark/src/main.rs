//! The repository's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! teal-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run: prints every metric as `name unit value`, then one JSON
//!     result line (what the driver reads; BENCHMARK.json names the command)
//! teal-benchmark [--seed N] [--repeats R] [--smoke]
//!     every workload, untraced then traced, each run in a fresh process;
//!     writes benchmark/out/results-<seed>.json; exits 1 on any failed check
//! teal-benchmark --compare A.json B.json
//!     applies BENCHMARK.json's bounds per metric x workload
//! teal-benchmark --describe | --print-benchmark-json
//!     the metric tables as markdown (README.md) / as BENCHMARK.json
//! ```

mod alloc;
mod checks;
mod compare;
mod inputs;
mod json;
mod layers;
mod library;
mod probes;
mod report;
mod socket;
mod span;
mod spec;
mod stats;
mod system;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where traces and results files go (inside the benchmark's own
/// directory; git-ignored).
const OUT_DIR: &str = "benchmark/out";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeats: usize,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        repeats: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                let v = value(&mut it, &flag)?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: bad integer {v:?}"))?;
            }
            "--seconds" => args.seconds = Some(number(value(&mut it, &flag)?)?),
            "--trace" => args.trace = number(value(&mut it, &flag)?)? != 0.0,
            "--repeats" => args.repeats = number(value(&mut it, &flag)?)?.max(1.0) as usize,
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value(&mut it, &flag)?.into(), value(&mut it, &flag)?.into()))
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One run of one workload in this process.
fn single(name: &str, args: &Args) -> Result<(), String> {
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seconds = match args.seconds {
        Some(s) if s > 0.0 => s,
        Some(_) => return Err("--seconds must be positive".into()),
        None if args.smoke => 1.0,
        None => spec::RUN_SECONDS as f64,
    };
    // Before the first kernel call: `teal_nn` reads it once.
    std::env::set_var("TEAL_NN_THREADS", spec::NN_THREADS);

    let steal_before = system::cpu_jiffies();
    let (mut outcome, tracer) = workloads::run(w, args.seed, seconds, args.trace);
    if let (Some((steal0, total0)), Some((steal1, total1))) = (steal_before, system::cpu_jiffies())
    {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        outcome.fact("host_steal_pct", format!("{:.2}", 100.0 * share));
    }
    let table: &[spec::Metric] = if args.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };

    println!(
        "# {} seed={} seconds={seconds} trace={} TEAL_NN_THREADS={} nproc={}",
        w.name,
        args.seed,
        u8::from(args.trace),
        spec::NN_THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in table {
        let value = outcome.metrics.get(m.name).unwrap_or(f64::NAN);
        println!("{} {} {}", m.name, m.unit, json::number(value));
    }
    for (key, value) in &outcome.facts {
        println!("# {key} = {value}");
    }
    for name in outcome.missing(table) {
        println!("# MISSING metric {name}");
    }
    for reason in &outcome.checker.reasons {
        println!("# FAILED check: {reason}");
    }
    if let Some(tracer) = tracer {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
        match tracer.write_jsonl(&path, w.name) {
            Ok(()) => println!(
                "# {} spans written to {} ({} dropped)",
                tracer.spans().len(),
                path.display(),
                tracer.dropped()
            ),
            Err(e) => println!("# trace not written to {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_line(table));
    Ok(())
}

/// Output of `program args` or `unknown` (the checkout the driver runs in
/// is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, untraced then traced, `repeats` times, each run a fresh
/// process of this executable so memory peaks, thread counts and pool
/// counters start clean, exactly as under the driver.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    });
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for w in &spec::WORKLOADS {
        let mut runs_json = Vec::new();
        for repeat in 0..args.repeats {
            for trace in [false, true] {
                let output = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let line = stdout.lines().last().unwrap_or_default();
                let result = json::parse(line).map_err(|e| {
                    format!(
                        "{} printed no result line ({e}); status {}",
                        w.name, output.status
                    )
                })?;
                let correct = result.get("correct") == Some(&json::Value::Bool(true));
                all_correct &= correct && output.status.success();
                let facts: Vec<String> = stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix("# "))
                    .filter_map(|l| l.split_once(" = "))
                    .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
                    .collect();
                runs_json.push(format!(
                    "{{\"repeat\": {repeat}, \"trace\": {trace}, \"result\": {line}, \"facts\": {{{}}}}}",
                    facts.join(", ")
                ));
            }
        }
        workloads_json.push(format!(
            "{}: [\n      {}\n    ]",
            json::quote(w.name),
            runs_json.join(",\n      ")
        ));
    }
    let document = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"repeats\": {},\n  \"environment\": {{\n    \"nproc\": {},\n    \"TEAL_NN_THREADS\": {},\n    \"git_commit\": {},\n    \"rustc\": {},\n    \"transport\": \"loopback, same process\"\n  }},\n  \"workloads\": {{\n    {}\n  }}\n}}\n",
        args.seed,
        json::number(seconds),
        args.repeats,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json::quote(spec::NN_THREADS),
        json::quote(&tool_line("git", &["rev-parse", "HEAD"])),
        json::quote(&tool_line("rustc", &["--version"])),
        workloads_json.join(",\n    ")
    );
    let path = Path::new(OUT_DIR).join(format!("results-{}.json", args.seed));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    std::fs::write(&path, document).map_err(|e| e.to_string())?;
    println!("# results written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        if args.print_benchmark_json {
            print!("{}", spec::benchmark_json());
            return Ok(true);
        }
        if args.describe {
            print!("{}", spec::describe());
            return Ok(true);
        }
        if let Some((a, b)) = &args.compare {
            return compare::run(a, b);
        }
        match &args.workload {
            // A result line was printed: the verdict is in it.
            Some(name) => single(name, &args).map(|()| true),
            None => all(&args),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("teal-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
