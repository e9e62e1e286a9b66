//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <homogeneous|heterogeneous> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric as `name value unit`, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans to
//! `perfbench/traces/<workload>-seed<n>.trace.json` under the current
//! directory.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Options, Workload};

const USAGE: &str = "usage: perfbench --workload <homogeneous|heterogeneous> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        trace_dir: Some(PathBuf::from("perfbench/traces")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&options);
    let metrics = if options.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "# workload {} seed {} sizes {:?} part walls {:?}: {} checked operations, {} failed",
        options.workload.name(),
        options.seed,
        report.sizes,
        report.walls,
        report.checks.attempted,
        report.checks.failed
    );
    println!("{}", report.result_json(options.trace));
    ExitCode::SUCCESS
}
