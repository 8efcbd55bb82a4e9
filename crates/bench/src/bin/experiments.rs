//! Prints the paper's tables and figures, regenerated.
//!
//! Usage:
//!
//! ```text
//! experiments            # run everything (E1..E14)
//! experiments e5 e6      # run a subset
//! experiments --list     # list experiment ids
//! experiments --ablations  # also run the design-choice ablations A1-A4
//! experiments --quick    # the fast deterministic subset (golden tests)
//! experiments --jobs 4   # run experiments on 4 worker threads
//! ```
//!
//! With `--jobs N` the experiments run concurrently but the outputs are
//! buffered and printed in id order, so the output is byte-identical to
//! a sequential run (`--jobs 1`, the default).

use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let mut jobs: usize = 1;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--jobs" || a == "-j" {
            let Some(n) = it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) else {
                eprintln!("--jobs needs a positive integer");
                return ExitCode::FAILURE;
            };
            jobs = n;
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            let Some(n) = v.parse().ok().filter(|&n| n > 0) else {
                eprintln!("--jobs needs a positive integer");
                return ExitCode::FAILURE;
            };
            jobs = n;
        } else {
            args.push(a);
        }
    }
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for id in tpu_bench::ALL_EXPERIMENTS
            .iter()
            .chain(tpu_bench::ALL_ABLATIONS.iter())
        {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let with_ablations = args.iter().any(|a| a == "--ablations");
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<String> = {
        let positional: Vec<String> = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .collect();
        if quick {
            tpu_bench::QUICK_EXPERIMENTS
                .iter()
                .map(|s| (*s).to_owned())
                .collect()
        } else if positional.is_empty() {
            tpu_bench::ALL_EXPERIMENTS
                .iter()
                .chain(if with_ablations {
                    tpu_bench::ALL_ABLATIONS.iter()
                } else {
                    [].iter()
                })
                .map(|s| (*s).to_owned())
                .collect()
        } else {
            positional
        }
    };
    let outputs: Vec<Option<String>> = if jobs <= 1 {
        ids.iter().map(|id| tpu_bench::run_experiment(id)).collect()
    } else {
        tpu_par::par_map_with(jobs, &ids, |id| tpu_bench::run_experiment(id))
    };
    for (id, out) in ids.iter().zip(outputs) {
        match out {
            Some(out) => {
                println!("{out}");
            }
            None => {
                eprintln!("unknown experiment `{id}` (try --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
