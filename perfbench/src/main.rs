//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result line (see the library
//! docs) as the last line of standard output. Diagnostics — sample
//! counts, failed checks — go to standard error.

use std::process::ExitCode;

use perfbench::measure::percentile_supported;
use perfbench::{result_line, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::named(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };

    let mut report = workload.run(seed, seconds, trace);
    let line = result_line(&mut report, trace);
    for (what, n) in &report.samples {
        let note = if percentile_supported(*n, 90.0) {
            ""
        } else {
            " (too few for a p90 with ten samples beyond it)"
        };
        eprintln!("samples: {n} {what}{note}");
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
