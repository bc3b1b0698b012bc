//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload once and prints the run record and then, as the last
//! line, the result JSON (see the library docs). Exits with 2 on bad
//! arguments.

use std::path::Path;
use std::process::ExitCode;
use uot_perfbench::{json, run, use_scratch_dir, workload::Workload, Options};

/// Everything a run writes (spill files, span dumps) goes under here.
const RUN_DIR: &str = ".perfbench_run";

struct Args {
    workload: Workload,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, opts } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(RUN_DIR);
    let tmp = run_dir.join("tmp");
    if let Err(e) = use_scratch_dir(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        workload.name, opts.seed, opts.seconds, opts.trace
    );
    let report = run(&workload, opts);
    let _ = std::fs::remove_dir_all(&tmp);
    if opts.trace {
        let path = run_dir.join(format!("spans-{}-seed{}.json", workload.name, opts.seed));
        if let Err(e) = std::fs::write(&path, report.spans.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for m in &report.metrics {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        json::object(&[("record", json::object(&report.record))])
    );
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
