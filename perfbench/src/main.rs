//! The PLIC3 benchmark: one workload, one seed, a fixed measuring time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gen-heavy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! It draws the workload's deck of circuits from the seed, runs every
//! instance under every engine of the workload, one case-run at a time,
//! checks every verdict on the original circuit, and cycles over the deck
//! in whole passes until the measuring time is up. It
//! prints every metric by name with its unit, and as its last line one JSON
//! object: `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run and writes the spans as JSONL to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod case;
mod metrics;
mod tracer;
mod workloads;

use case::{run_case, Record};
use metrics::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::Tracer;
use workloads::{deck, Workload};

/// Per-case wall-clock limit, as `plic3-exp` defaults it. A case-run with
/// no verdict, a wrong one or a failed check enters the timings at this
/// limit.
pub const CASE_LIMIT: Duration = Duration::from_secs(10);

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: plic3-perfbench --workload <gen-heavy|deep-frames|prep-race> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("invalid seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("invalid seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured.
struct Run {
    /// Every case-run, with whether it was traced.
    records: Vec<(bool, Record)>,
    /// Number of leading records that make up the first pass over the deck.
    first_pass: usize,
    passes: usize,
    /// The deck's instance names, by index.
    names: Vec<String>,
    tracer: Tracer,
}

/// Cycles over the deck in whole passes until `seconds` are up: every run
/// measures the same mix of cases, whatever its length. In a traced run
/// every case-run is made twice, traced and untraced, in alternating order,
/// so the difference is the tracing overhead.
fn execute(options: &Options) -> Run {
    let workload = options.workload;
    let deck = deck(workload, options.seed);
    let plan: Vec<(usize, workloads::Engine)> = (0..deck.len())
        .flat_map(|i| workload.engines().into_iter().map(move |e| (i, e)))
        .collect();
    let mut tracer = Tracer::new(workload.name(), false);
    let mut records = Vec::new();
    let budget = Duration::from_secs_f64(options.seconds);
    let started = Instant::now();
    let mut passes = 0;
    loop {
        for (k, &(index, engine)) in plan.iter().enumerate() {
            let order: &[bool] = match (options.trace, k % 2) {
                (false, _) => &[false],
                (true, 0) => &[true, false],
                (true, _) => &[false, true],
            };
            for &traced in order {
                tracer.set_enabled(traced);
                let record = run_case(index, &deck[index], engine, CASE_LIMIT, &mut tracer);
                records.push((traced, record));
            }
        }
        passes += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    let first_pass = plan.len() * if options.trace { 2 } else { 1 };
    Run {
        records,
        first_pass,
        passes,
        names: deck.into_iter().map(|instance| instance.name).collect(),
        tracer,
    }
}

/// VmHWM of this process in MiB: the peak resident set size.
fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = execute(&options);
    let all: Vec<&Record> = run.records.iter().map(|(_, r)| r).collect();
    let failed: Vec<&Record> = all
        .iter()
        .copied()
        .filter(|r| r.failure.is_some())
        .collect();
    let wrong = failed
        .iter()
        .filter(|r| r.verdict != case::Verdict::Unknown)
        .count();
    for r in &failed {
        eprintln!(
            "FAILED case-run {} under {}: {}",
            run.names[r.instance],
            r.engine.label(),
            r.failure.as_deref().unwrap_or_default()
        );
    }

    let untraced: Vec<&Record> = run
        .records
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, r)| r)
        .collect();
    println!(
        "workload {} seed {}: deck of {} instances, {} pass(es), {} case-runs ({} untraced)",
        options.workload.name(),
        options.seed,
        run.names.len(),
        run.passes,
        all.len(),
        untraced.len(),
    );
    let metrics = if options.trace {
        let traced: Vec<&Record> = run
            .records
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, r)| r)
            .collect();
        let first_pass: Vec<&Record> = run.records[..run.first_pass]
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, r)| r)
            .collect();
        let sum = |records: &[&Record]| records.iter().map(|r| r.times.verdict).sum::<f64>();
        let overhead = sum(&traced) / sum(&untraced) - 1.0;
        println!(
            "tracing overhead: {:+.3}% of verdict time over {} paired case-runs",
            100.0 * overhead,
            traced.len()
        );
        for (layer, total) in run.tracer.self_times() {
            println!(
                "self time {layer:<16} {:>12.3} ms total, {:>10.1} us per case-run",
                total * 1e3,
                total * 1e6 / run.tracer.traced_cases().max(1) as f64
            );
        }
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("trace directory can be created");
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            options.workload.name(),
            options.seed
        ));
        std::fs::write(&path, run.tracer.to_jsonl()).expect("trace file can be written");
        println!("spans written to {}", path.display());
        metrics::per_layer(
            &traced,
            &first_pass,
            &all,
            &run.tracer,
            overhead,
            peak_rss_mib(),
        )
    } else {
        let samples = untraced.len();
        println!(
            "verdict_s samples: {samples}, of which {} lie beyond p90",
            samples - (0.9 * samples as f64).ceil() as usize
        );
        metrics::end_to_end(&untraced)
    };
    for m in &metrics {
        println!("{:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(wrong == 0, all.len(), failed.len(), &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(args("--workload prep-race --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::PrepRace);
        assert_eq!((o.seed, o.seconds, o.trace), (4, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gen-heavy --seed x --seconds 1 --trace 0",
            "--workload gen-heavy --seed 1 --seconds 0 --trace 0",
            "--workload gen-heavy --seed 1 --seconds 1 --trace 2",
            "--workload gen-heavy --seed 1 --seconds 1",
            "--workload gen-heavy --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(args(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let metrics = [Metric {
            name: "setup_s".to_string(),
            value: 0.5,
            unit: "s",
        }];
        assert_eq!(
            result_json(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
