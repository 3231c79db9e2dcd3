//! pabench: one rig, four workloads, end-to-end and per-layer numbers
//! for the pathalias binary and daemon. See `README.md` beside this
//! package for the metric reference and how to read the output.
//!
//! ```text
//! pabench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! pabench run [--seed N] [--seconds S] [--trace]          every workload; tables, results.json
//! pabench calibrate [--runs N] [--seed N] [--seconds S]   the suite N times; spread per metric
//! pabench compare A.json B.json [--bench BENCHMARK.json]  B against A under the recorded bounds
//! ```
//!
//! Common options: `--bin PATH` (the `pathalias` binary under test;
//! default: next to this executable) and `--out DIR` (reports and the
//! scratch directory; default `target/pabench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod child;
mod json;
mod layers;
mod metrics;
mod report;
mod rng;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod wire;
mod workloads;
mod world;

use child::WorkDir;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// Everything the command line can say.
#[derive(Debug)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    bin: Option<PathBuf>,
    out: PathBuf,
    bench: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1986,
        seconds: None,
        trace: false,
        runs: 5,
        bin: None,
        out: PathBuf::from("target/pabench"),
        bench: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` for the driver; bare `--trace` for `run`.
                match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        args.trace = false;
                    }
                    Some("1") => {
                        it.next();
                        args.trace = true;
                    }
                    _ => args.trace = true,
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs needs a whole number".to_string())?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--bin" => args.bin = Some(PathBuf::from(value("--bin")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--bench" => args.bench = PathBuf::from(value("--bench")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string())
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// The binary under test: `--bin`, or `pathalias` next to this
/// executable (both are built into one target directory).
fn find_bin(args: &Args) -> Result<PathBuf, String> {
    let bin = match &args.bin {
        Some(b) => b.clone(),
        None => std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("pathalias")))
            .ok_or("cannot locate this executable; pass --bin")?,
    };
    if !bin.is_file() {
        return Err(format!(
            "{} is not there: build it (`cargo build --release`) or pass --bin",
            bin.display()
        ));
    }
    // Children run from other directories, so make the path absolute.
    std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// One run of one workload, traced or not, in a fresh scratch
/// directory. A traced run also leaves `trace-<workload>.json` and
/// `budget-<workload>.txt` in `out`, and returns the budget table.
fn run_workload(
    name: &str,
    bin: &Path,
    out_dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Outcome, Option<String>), String> {
    let work = WorkDir::create(out_dir)?;
    let tracer = trace.then(Tracer::new);
    let ctx = Ctx {
        bin,
        dir: work.path(),
        seed,
        seconds,
        tracer: tracer.as_ref(),
    };
    let outcome = workloads::run(name, &ctx)?;
    let mut budget = None;
    if let Some(tracer) = &tracer {
        let write = |file: String, text: String| {
            let path = out_dir.join(file);
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        write(format!("trace-{name}.json"), tracer.to_json())?;
        let table = tracer.budget_table(&format!("{name} (traced run, seed {seed})"));
        write(format!("budget-{name}.txt"), table.clone())?;
        budget = Some(table);
    }
    Ok((outcome, budget))
}

/// The driver's interface: one workload, one result line.
fn cmd_driver(args: &Args, workload: &str) -> Result<bool, String> {
    let bin = find_bin(args)?;
    let seconds = args
        .seconds
        .ok_or("--seconds is required with --workload")?;
    let (outcome, budget) =
        run_workload(workload, &bin, &args.out, args.seed, seconds, args.trace)?;
    // The report goes to stderr: stdout carries the result line alone.
    eprint!("{}", report::metrics_table(workload, &outcome));
    eprint!("{}", budget.unwrap_or_default());
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!("{}", report::driver_line(&outcome, defs, args.trace)?);
    Ok(true)
}

/// The whole suite once: every workload untraced, then (with
/// `--trace`) traced.
fn suite(
    args: &Args,
    bin: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Vec<(String, Outcome, Option<Outcome>)>, String> {
    let mut runs = Vec::new();
    for (name, _) in metrics::WORKLOADS {
        let (e2e, _) = run_workload(name, bin, &args.out, seed, seconds, false)?;
        print!("{}", report::metrics_table(name, &e2e));
        let traced = if args.trace {
            let (t, budget) = run_workload(name, bin, &args.out, seed, seconds, true)?;
            print!("{}", report::metrics_table(&format!("{name} (traced)"), &t));
            print!("{}", budget.unwrap_or_default());
            Some(t)
        } else {
            None
        };
        runs.push((name.to_string(), e2e, traced));
    }
    Ok(runs)
}

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn cmd_run(args: &Args) -> Result<bool, String> {
    let bin = find_bin(args)?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let header = report::header(args.seed, seconds);
    for (k, v) in &header {
        println!("{k}: {v}");
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let runs = suite(args, &bin, args.seed, seconds)?;
    let path = args.out.join("results.json");
    std::fs::write(&path, report::results_json(&header, &runs))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(runs
        .iter()
        .all(|(_, e, t)| e.correct() && t.iter().all(Outcome::correct)))
}

fn cmd_calibrate(args: &Args) -> Result<bool, String> {
    let bin = find_bin(args)?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    for (k, v) in report::header(args.seed, seconds) {
        println!("{k}: {v}");
    }
    let mut all = Vec::new();
    let mut correct = true;
    for i in 0..args.runs {
        // Another seed each time, as the driver does: the spread then
        // includes what a different world and script contribute.
        let seed = args.seed + i as u64;
        println!("run {} of {} (seed {seed})", i + 1, args.runs);
        let mut run = Vec::new();
        for (name, _) in metrics::WORKLOADS {
            let (outcome, _) = run_workload(name, &bin, &args.out, seed, seconds, false)?;
            correct &= outcome.correct();
            run.push((name.to_string(), outcome));
        }
        all.push(run);
    }
    print!("{}", report::calibrate_table(&all));
    Ok(correct)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two results.json files".to_string());
    };
    let (table, breached) = report::compare(Path::new(a), Path::new(b), &args.bench)?;
    print!("{table}");
    Ok(!breached)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result =
        parse_args(&argv).and_then(|args| match (args.command.as_deref(), &args.workload) {
            (None, Some(w)) => cmd_driver(&args, &w.clone()),
            (Some("run"), None) => cmd_run(&args),
            (Some("calibrate"), None) => cmd_calibrate(&args),
            (Some("compare"), None) => cmd_compare(&args),
            (Some(other), _) => Err(format!(
                "unknown command `{other}` (run, calibrate, compare, or --workload)"
            )),
            (None, None) => {
                Err("nothing to do: give --workload, or run / calibrate / compare".to_string())
            }
        });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("pabench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&v(&[
            "--bin",
            "b",
            "--out",
            "o",
            "--workload",
            "path",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("path"), 7, Some(10.0), true)
        );
        assert!(a.command.is_none());
        let a = parse_args(&v(&[
            "--workload",
            "path",
            "--trace",
            "0",
            "--seconds",
            "3",
        ]))
        .unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn subcommands_parse() {
        let a = parse_args(&v(&["run", "--seed", "3", "--trace", "--out", "x"])).unwrap();
        assert_eq!(
            (a.command.as_deref(), a.seed, a.trace),
            (Some("run"), 3, true)
        );
        let a = parse_args(&v(&["compare", "a.json", "b.json"])).unwrap();
        assert_eq!(a.positional, ["a.json", "b.json"]);
        let a = parse_args(&v(&["calibrate", "--runs", "4"])).unwrap();
        assert_eq!(a.runs, 4);
        assert!(parse_args(&v(&["run", "--frobnicate"])).is_err());
        assert!(parse_args(&v(&["--seconds", "0"])).is_err());
        assert!(parse_args(&v(&["--seed"])).is_err());
    }
}
