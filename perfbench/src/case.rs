//! One case-run: AIGER bytes → parse → prep → encode → engine → verdict,
//! timed per layer through the public API of each crate, then checked
//! against the ground truth on the original circuit.

use crate::tracer::Tracer;
use crate::workloads::{Engine, Instance};
use plic3::{Certificate, Ic3, Statistics};
use plic3_aig::{parse_aiger, Aig};
use plic3_check::{check_certificate_on_original, CheckOptions};
use plic3_portfolio::{
    Portfolio, PortfolioConfig, PortfolioOutcome, Strategy, WorkerSpec, WorkerStatus,
};
use plic3_prep::{preprocess, PrepStats, Preprocessed};
use plic3_sat::SearchConfig;
use plic3_ts::{Trace, TransitionSystem};
use std::time::Duration;

/// Reads one counter from IC3's statistics.
pub type Counter = fn(&Statistics) -> u64;

/// The IC3 counters the benchmark reports, each under `ic3.<name>`. They are
/// deterministic for a single-threaded IC3 run.
pub const IC3_COUNTERS: [(&str, Counter); 14] = [
    ("generalizations", |s| s.generalizations),
    ("predictions", |s| s.predictions),
    ("successful_predictions", |s| s.successful_predictions),
    ("found_failed_parents", |s| s.found_failed_parents),
    ("relative_queries", |s| s.relative_queries),
    ("lift_queries", |s| s.lift_queries),
    ("sat_conflicts", |s| s.sat_conflicts),
    ("mic_drop_attempts", |s| s.mic_drop_attempts),
    ("mic_drops", |s| s.mic_drops),
    ("ctg_blocked", |s| s.ctg_blocked),
    ("obligations", |s| s.obligations),
    ("lemmas_added", |s| s.lemmas_added),
    ("lemmas_propagated", |s| s.lemmas_propagated),
    ("push_failures_recorded", |s| s.push_failures_recorded),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Safe,
    Unsafe,
    Unknown,
}

/// Seconds spent in each layer call of one case-run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    pub parse: f64,
    pub prep: f64,
    pub encode: f64,
    /// `Ic3::new` or `Portfolio::new`, whichever the engine is.
    pub new: f64,
    /// `Ic3::check` or `Portfolio::check`.
    pub check: f64,
    /// AIGER bytes → engine ready.
    pub setup: f64,
    /// AIGER bytes → verdict; the time limit when the case-run failed.
    pub verdict: f64,
    pub cert_check: f64,
    pub trace_check: f64,
}

/// The portfolio race's own figures.
#[derive(Clone, Debug)]
pub struct Race {
    pub winner: Option<String>,
    /// Race wall time minus the winner's runtime.
    pub overhead: f64,
    /// How long the losers ran beyond the winner.
    pub cancel: f64,
    pub bmc_runtime: f64,
    pub ic3_runtime: f64,
}

/// Everything one case-run produced.
#[derive(Clone, Debug)]
pub struct Record {
    pub instance: usize,
    pub engine: Engine,
    pub verdict: Verdict,
    /// Why the case-run counts as failed: wrong verdict, failed check or
    /// no verdict.
    pub failure: Option<String>,
    pub times: Times,
    pub prep: PrepStats,
    /// IC3 statistics: the engine's, or the race's IC3 worker's.
    pub ic3: Option<Statistics>,
    pub race: Option<Race>,
}

/// The race's workers: incremental BMC against IC3ref-pl.
fn race_workers() -> Vec<WorkerSpec> {
    vec![
        WorkerSpec::new(
            "bmc",
            Strategy::Bmc {
                search: SearchConfig::default(),
            },
        ),
        WorkerSpec::new(
            "ic3ref-pl",
            Strategy::Ic3(crate::workloads::Ic3Config::Ic3refPl.config()),
        ),
    ]
}

/// The race runs exactly two worker threads, one per worker.
const RACE_THREADS: usize = 2;

/// The engine's answer, before checking.
struct Answer<'a> {
    safe: bool,
    certificate: Option<&'a Certificate>,
    trace: Option<&'a Trace>,
}

pub fn run_case(
    index: usize,
    instance: &Instance,
    engine: Engine,
    limit: Duration,
    tracer: &mut Tracer,
) -> Record {
    tracer.begin_case(format!("{}/{}", instance.name, engine.label()));
    let case = tracer.open("case", None);
    let mut times = Times::default();

    let span = tracer.open("aig.parse", Some(&case));
    let aig = parse_aiger(&instance.aiger).expect("generated AIGER parses");
    times.parse = tracer.close(span);

    let span = tracer.open("prep.run", Some(&case));
    let prep = preprocess(&aig);
    let s = &prep.stats;
    times.prep = tracer.close_with(span, || {
        vec![
            ("latches_before", s.latches_before as f64),
            ("latches_after", s.latches_after as f64),
            ("merged_latches", s.merged_latches as f64),
            ("stuck_latches", s.stuck_latches as f64),
        ]
    });

    let span = tracer.open("ts.encode", Some(&case));
    let ts = TransitionSystem::from_aig(&prep.aig);
    times.encode = tracer.close(span);

    let (verdict, failure, ic3, race) = match engine {
        Engine::Ic3(config) => {
            let span = tracer.open("ic3.new", Some(&case));
            let budget = limit.saturating_sub(case.elapsed());
            let mut ic3 = Ic3::new(ts, config.config().with_max_time(budget));
            times.new = tracer.close(span);
            times.setup = case.elapsed().as_secs_f64();

            let span = tracer.open("ic3.check", Some(&case));
            let result = ic3.check();
            let stats = *ic3.statistics();
            times.check = tracer.close_with(span, || ic3_span_counters(&stats));
            times.verdict = tracer.close(case);
            let answer = Answer {
                safe: result.is_safe(),
                certificate: result.certificate(),
                trace: result.trace(),
            };
            let (verdict, failure) =
                check_answer(instance, &aig, &prep, ic3.ts(), answer, &mut times, tracer);
            (verdict, failure, Some(stats), None)
        }
        Engine::Race => {
            let span = tracer.open("portfolio.new", Some(&case));
            let mut config = PortfolioConfig {
                threads: RACE_THREADS,
                share_lemmas: false,
                ..PortfolioConfig::default()
            };
            // As `plic3-exp` does: the race gets the case's limit minus the
            // time already spent.
            config.limits.max_time = Some(limit.saturating_sub(case.elapsed()));
            let mut portfolio = Portfolio::new(ts, config).with_workers(race_workers());
            times.new = tracer.close(span);
            times.setup = case.elapsed().as_secs_f64();

            let span = tracer.open("portfolio.check", Some(&case));
            let outcome = portfolio.check();
            times.check = tracer.close_with(span, || race_span_counters(&outcome));
            times.verdict = tracer.close(case);
            let race = race_report(&outcome, times.check);
            let answer = Answer {
                safe: outcome.result.is_safe(),
                certificate: outcome.result.certificate(),
                trace: outcome.result.trace(),
            };
            let (verdict, failure) = check_answer(
                instance,
                &aig,
                &prep,
                portfolio.ts(),
                answer,
                &mut times,
                tracer,
            );
            (verdict, failure, outcome.workers[1].stats, Some(race))
        }
    };

    if failure.is_some() {
        times.verdict = limit.as_secs_f64();
    }
    Record {
        instance: index,
        engine,
        verdict,
        failure,
        times,
        prep: prep.stats,
        ic3,
        race,
    }
}

fn ic3_span_counters(stats: &Statistics) -> Vec<(&'static str, f64)> {
    let mut counters: Vec<(&'static str, f64)> = IC3_COUNTERS
        .iter()
        .map(|(name, get)| (*name, get(stats) as f64))
        .collect();
    counters.push(("max_level", stats.max_level as f64));
    counters.push(("generalize_s", stats.generalize_time.as_secs_f64()));
    counters
}

/// The race's workers are `race_workers()` in order: BMC, then IC3.
fn race_span_counters(outcome: &PortfolioOutcome) -> Vec<(&'static str, f64)> {
    vec![
        ("bmc.runtime_s", outcome.workers[0].runtime.as_secs_f64()),
        ("ic3.runtime_s", outcome.workers[1].runtime.as_secs_f64()),
        ("winner", outcome.winner.map_or(-1.0, |w| w as f64)),
    ]
}

fn race_report(outcome: &PortfolioOutcome, race_wall: f64) -> Race {
    let runtime = |i: usize| outcome.workers[i].runtime.as_secs_f64();
    let (overhead, cancel) = match outcome.winner {
        Some(w) => {
            let losers = (0..outcome.workers.len())
                .filter(|&i| i != w && outcome.workers[i].status != WorkerStatus::NotRun)
                .map(|i| (runtime(i) - runtime(w)).max(0.0))
                .fold(0.0, f64::max);
            (race_wall - runtime(w), losers)
        }
        None => (0.0, 0.0),
    };
    Race {
        winner: outcome.winner_label().map(str::to_string),
        overhead,
        cancel,
        bmc_runtime: runtime(0),
        ic3_runtime: runtime(1),
    }
}

/// Checks the answer on the original circuit: a Safe certificate with
/// `check_certificate_on_original` through the prep reconstruction, an
/// Unsafe trace by replaying it on the original through
/// `Preprocessed::replay_on_original`. Only this check is timed under
/// `check.*`.
fn check_answer(
    instance: &Instance,
    original: &Aig,
    prep: &Preprocessed,
    ts: &TransitionSystem,
    answer: Answer,
    times: &mut Times,
    tracer: &mut Tracer,
) -> (Verdict, Option<String>) {
    if let Some(cert) = answer.certificate {
        let span = tracer.open("check.cert", None);
        let checked = check_certificate_on_original(
            original,
            &prep.reconstruction,
            ts,
            cert,
            &CheckOptions::default(),
        );
        times.cert_check = tracer.close(span);
        let failure = match (checked, instance.safe) {
            (Err(why), _) => Some(format!("certificate rejected: {why}")),
            (Ok(_), false) => Some("Safe on an unsafe instance".to_string()),
            (Ok(_), true) => None,
        };
        return (Verdict::Safe, failure);
    }
    if answer.safe {
        return (
            Verdict::Safe,
            Some("Safe without a certificate".to_string()),
        );
    }
    if let Some(trace) = answer.trace {
        let span = tracer.open("check.trace", None);
        let replays = prep.replay_on_original(ts, trace);
        times.trace_check = tracer.close(span);
        let failure = match (replays, instance.safe) {
            (false, _) => Some("trace does not replay on the original".to_string()),
            (true, true) => Some("Unsafe on a safe instance".to_string()),
            (true, false) => None,
        };
        return (Verdict::Unsafe, failure);
    }
    (
        Verdict::Unknown,
        Some("no verdict within the time limit".to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{reduced_deck, Workload};

    /// Runs the reduced deck of `workload` and returns each case-run's
    /// deterministic IC3 counters.
    fn counters(workload: Workload) -> Vec<(String, Vec<u64>)> {
        let mut tracer = Tracer::new(workload.name(), false);
        let mut out = Vec::new();
        for (i, instance) in reduced_deck(workload, 5).iter().enumerate() {
            for engine in workload.engines() {
                let record = run_case(i, instance, engine, Duration::from_secs(600), &mut tracer);
                let name = format!("{}/{}", instance.name, engine.label());
                assert_eq!(record.failure, None, "{name}");
                let stats = record.ic3.expect("IC3 engines report statistics");
                let mut values: Vec<u64> =
                    IC3_COUNTERS.iter().map(|(_, get)| get(&stats)).collect();
                values.push(stats.max_level as u64);
                out.push((name, values));
            }
        }
        out
    }

    #[test]
    fn ic3_counters_repeat_exactly_at_one_seed() {
        for workload in [Workload::GenHeavy, Workload::DeepFrames] {
            assert_eq!(counters(workload), counters(workload));
        }
    }

    #[test]
    fn race_verdicts_pass_the_checks() {
        let mut tracer = Tracer::new("prep-race", true);
        for (i, instance) in reduced_deck(Workload::PrepRace, 5).iter().enumerate() {
            let record = run_case(
                i,
                instance,
                Engine::Race,
                Duration::from_secs(600),
                &mut tracer,
            );
            assert_eq!(record.failure, None, "{}", instance.name);
            let expected = if instance.safe {
                Verdict::Safe
            } else {
                Verdict::Unsafe
            };
            assert_eq!(record.verdict, expected, "{}", instance.name);
            assert!(record.race.is_some_and(|race| race.winner.is_some()));
        }
        assert!(tracer.to_jsonl().lines().count() > 0);
    }
}
