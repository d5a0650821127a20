//! `plic3` — command-line safety model checker for AIGER circuits.
//!
//! ```text
//! plic3 <circuit.aag|circuit.aig> [OPTIONS]
//!
//! Options:
//!   --config <name>    ric3 | ric3-pl (default) | ic3ref | ic3ref-pl | cav23 | pdr
//!   --timeout <secs>   wall-clock budget (default: unlimited)
//!   --witness          print the counterexample / the inductive invariant
//!   --stats            print engine statistics
//! ```
//!
//! Exit codes follow the HWMCC convention: `20` when the property is proved,
//! `10` when a counterexample is found, `0` when no verdict was reached within
//! the budget, `2` on usage or input errors.

use plic3::{CheckResult, Config, Ic3};
use plic3_aig::parse_aiger;
use plic3_check::{check_invariant, CheckOptions};
use plic3_ts::TransitionSystem;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    path: String,
    config: Config,
    timeout: Option<Duration>,
    witness: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: plic3 <circuit.aag|circuit.aig> [--config ric3|ric3-pl|ic3ref|ic3ref-pl|cav23|pdr] \
         [--timeout <secs>] [--witness] [--stats]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut path = None;
    let mut config = Config::ric3_like().with_lemma_prediction(true);
    let mut timeout = None;
    let mut witness = false;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => {
                let name = args.next().unwrap_or_else(|| usage());
                config = match name.as_str() {
                    "ric3" => Config::ric3_like(),
                    "ric3-pl" => Config::ric3_like().with_lemma_prediction(true),
                    "ic3ref" => Config::ic3ref_like(),
                    "ic3ref-pl" => Config::ic3ref_like().with_lemma_prediction(true),
                    "cav23" => Config::cav23_like(),
                    "pdr" => Config::pdr_like(),
                    _ => usage(),
                };
            }
            "--timeout" => {
                let secs: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                timeout = Some(Duration::from_secs_f64(secs));
            }
            "--witness" => witness = true,
            "--stats" => stats = true,
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    Options {
        path,
        config,
        timeout,
        witness,
        stats,
    }
}

fn main() -> ExitCode {
    let options = parse_args();
    let bytes = match std::fs::read(&options.path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", options.path);
            return ExitCode::from(2);
        }
    };
    let aig = match parse_aiger(&bytes) {
        Ok(aig) => aig,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("{}: {aig}", options.path);
    let mut config = options.config;
    if let Some(timeout) = options.timeout {
        config = config.with_max_time(timeout);
    }
    let ts = TransitionSystem::from_aig(&aig);
    eprintln!("{ts}");
    let mut engine = Ic3::new(ts, config);
    let result = engine.check();
    if options.stats {
        eprintln!("{}", engine.statistics());
    }
    match result {
        CheckResult::Safe(certificate) => {
            if let Err(e) = check_invariant(engine.ts(), &certificate, &CheckOptions::default()) {
                eprintln!("internal error: certificate rejected: {e}");
                return ExitCode::from(2);
            }
            println!("0");
            println!("b0");
            if options.witness {
                for clause in &certificate.lemmas {
                    eprintln!("invariant lemma: {clause}");
                }
            }
            eprintln!("result: safe ({} lemmas)", certificate.len());
            ExitCode::from(20)
        }
        CheckResult::Unsafe(trace) => {
            if !trace.replay_on_aig(engine.ts(), &aig) {
                eprintln!("internal error: counterexample does not replay");
                return ExitCode::from(2);
            }
            println!("1");
            println!("b0");
            if options.witness {
                eprintln!("{}", trace.render(engine.ts()));
            }
            eprintln!("result: unsafe ({} steps)", trace.len());
            ExitCode::from(10)
        }
        CheckResult::Unknown(reason) => {
            println!("2");
            eprintln!("result: unknown ({reason})");
            ExitCode::SUCCESS
        }
    }
}
