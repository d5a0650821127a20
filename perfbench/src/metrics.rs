//! Turns case-run records into the named metrics.
//!
//! Timings come from every measured case-run. Counters come from the first
//! pass over the deck only, which every run completes, so they are a
//! function of the seed alone.

use crate::case::{Record, Verdict, IC3_COUNTERS};
use crate::tracer::Tracer;
use crate::workloads::{Engine, Ic3Config, IC3_CONFIGS};
use plic3::Statistics;
use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Linear-interpolation quantile of `values` (`q` in 0..=1); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(records: &[&Record]) -> Vec<Metric> {
    let verdicts: Vec<f64> = records.iter().map(|r| r.times.verdict).collect();
    let setups: Vec<f64> = records.iter().map(|r| r.times.setup).collect();
    let solved = records.iter().filter(|r| r.failure.is_none()).count() as f64;
    let geomean = (verdicts.iter().map(|v| v.ln()).sum::<f64>() / verdicts.len() as f64).exp();
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("verdict_s.p50", median(&verdicts), "s"),
        metric("verdict_s.p90", quantile(&verdicts, 0.9), "s"),
        metric("verdict_s.geomean", geomean, "s"),
        metric("cases_per_s", ratio(solved, verdicts.iter().sum()), "1/s"),
        metric("solved_frac", ratio(solved, records.len() as f64), "ratio"),
    ]
}

/// The span layers whose self time the traced run reports.
pub const TRACED_LAYERS: [&str; 10] = [
    "case",
    "aig.parse",
    "prep.run",
    "ts.encode",
    "ic3.new",
    "ic3.check",
    "portfolio.new",
    "portfolio.check",
    "check.cert",
    "check.trace",
];

/// The per-layer metrics of a traced run. `traced` are the traced
/// case-runs, `first_pass` the first pass over the deck (the source of the
/// counters), `all` every case-run (the source of the failure count).
pub fn per_layer(
    traced: &[&Record],
    first_pass: &[&Record],
    all: &[&Record],
    tracer: &Tracer,
    overhead_frac: f64,
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let times = |filter: &dyn Fn(&Record) -> bool, pick: &dyn Fn(&Record) -> f64| -> Vec<f64> {
        traced
            .iter()
            .filter(|r| filter(r))
            .map(|r| pick(r))
            .collect()
    };
    let any = |_: &Record| true;
    let is_ic3 = |r: &Record| matches!(r.engine, Engine::Ic3(_));
    let is_race = |r: &Record| r.engine == Engine::Race;

    // Set-up layers: medians per case-run, like `setup_s`.
    out.push(metric(
        "aig.parse_s",
        median(&times(&any, &|r| r.times.parse)),
        "s",
    ));
    out.push(metric(
        "ts.encode_s",
        median(&times(&any, &|r| r.times.encode)),
        "s",
    ));
    out.push(metric(
        "ic3.new_s",
        median(&times(&is_ic3, &|r| r.times.new)),
        "s",
    ));
    out.push(metric(
        "portfolio.new_s",
        median(&times(&is_race, &|r| r.times.new)),
        "s",
    ));

    // Prep.
    out.push(metric(
        "prep.run_s",
        median(&times(&any, &|r| r.times.prep)),
        "s",
    ));
    let before: usize = first_pass.iter().map(|r| r.prep.latches_before).sum();
    let after: usize = first_pass.iter().map(|r| r.prep.latches_after).sum();
    out.push(metric(
        "prep.latches_removed_frac",
        ratio((before - after) as f64, before as f64),
        "ratio",
    ));
    let merged: usize = first_pass.iter().map(|r| r.prep.merged_latches).sum();
    let stuck: usize = first_pass.iter().map(|r| r.prep.stuck_latches).sum();
    out.push(metric("prep.merged_latches", merged as f64, "count"));
    out.push(metric("prep.stuck_latches", stuck as f64, "count"));

    // IC3 check time: the engine's, or the race's IC3 worker's runtime.
    let ic3_check = |r: &Record| match &r.race {
        Some(race) => race.ic3_runtime,
        None => r.times.check,
    };
    let has_ic3 = |r: &Record| r.ic3.is_some();
    out.push(metric(
        "ic3.check_s",
        mean(&times(&has_ic3, &ic3_check)),
        "s",
    ));
    for config in IC3_CONFIGS {
        let runs_config = |r: &Record| r.ic3.is_some() && ic3_config(r) == config;
        out.push(metric(
            format!("ic3.check_s.{}", config.label()),
            mean(&times(&runs_config, &ic3_check)),
            "s",
        ));
    }

    // Generalization.
    let gen_time = |r: &Record| r.ic3.map_or(0.0, |s| s.generalize_time.as_secs_f64());
    let runtime = |r: &Record| r.ic3.map_or(0.0, |s| s.runtime.as_secs_f64());
    out.push(metric(
        "ic3.generalize_s",
        mean(&times(&has_ic3, &gen_time)),
        "s",
    ));
    out.push(metric(
        "ic3.generalize_share",
        ratio(
            times(&has_ic3, &gen_time).iter().sum(),
            times(&has_ic3, &runtime).iter().sum(),
        ),
        "ratio",
    ));

    // Counters, totalled over the first pass. The paper's prediction
    // counters (N_g, N_p, N_sp, N_fp) and rates cover the predicting
    // configurations only.
    let total = |predicting_only: bool, get: &dyn Fn(&Statistics) -> u64| -> f64 {
        first_pass
            .iter()
            .filter(|r| !predicting_only || ic3_config(r).predicts())
            .filter_map(|r| r.ic3.as_ref())
            .map(|s| get(s) as f64)
            .sum()
    };
    let mut counters = BTreeMap::new();
    for (i, (name, get)) in IC3_COUNTERS.iter().enumerate() {
        let value = total(i < 4, get);
        counters.insert(*name, value);
        out.push(metric(format!("ic3.{name}"), value, "count"));
    }
    out.push(metric(
        "ic3.mic_drop_yield",
        ratio(counters["mic_drops"], counters["mic_drop_attempts"]),
        "ratio",
    ));
    let (n_g, n_p, n_sp, n_fp) = (
        counters["generalizations"],
        counters["predictions"],
        counters["successful_predictions"],
        counters["found_failed_parents"],
    );
    out.push(metric("ic3.sr_lp", ratio(n_sp, n_p), "ratio"));
    out.push(metric("ic3.sr_fp", ratio(n_fp, n_g), "ratio"));
    out.push(metric("ic3.sr_adv", ratio(n_sp, n_g), "ratio"));
    out.push(metric(
        "ic3.pl_speedup.ic3ref",
        pl_speedup(traced, Ic3Config::Ic3ref, Ic3Config::Ic3refPl),
        "ratio",
    ));
    out.push(metric(
        "ic3.pl_speedup.ric3",
        pl_speedup(traced, Ic3Config::Ric3, Ic3Config::Ric3Pl),
        "ratio",
    ));
    let queries = |r: &Record| {
        r.ic3
            .map_or(0.0, |s| (s.relative_queries + s.lift_queries) as f64)
    };
    out.push(metric(
        "ic3.us_per_query",
        1e6 * ratio(
            times(&has_ic3, &ic3_check).iter().sum(),
            times(&has_ic3, &queries).iter().sum(),
        ),
        "us",
    ));
    let levels: Vec<f64> = first_pass
        .iter()
        .filter_map(|r| r.ic3.map(|s| s.max_level as f64))
        .collect();
    out.push(metric("ic3.max_level", mean(&levels), "frames"));
    let memory = times(&has_ic3, &|r| r.ic3.map_or(0.0, |s| s.memory_used as f64));
    out.push(metric(
        "ic3.memory_used_mib",
        memory.iter().copied().fold(0.0, f64::max) / (1u64 << 20) as f64,
        "MiB",
    ));

    out.push(metric("peak_rss_mib", peak_rss_mib, "MiB"));

    // Portfolio race.
    let race = |pick: fn(&crate::case::Race) -> f64| -> Vec<f64> {
        traced
            .iter()
            .filter_map(|r| r.race.as_ref().map(pick))
            .collect()
    };
    let races = traced.iter().filter(|r| r.race.is_some()).count() as f64;
    let wins = |label: &str| {
        traced
            .iter()
            .filter(|r| {
                r.race
                    .as_ref()
                    .is_some_and(|x| x.winner.as_deref() == Some(label))
            })
            .count() as f64
    };
    out.push(metric(
        "portfolio.check_s",
        mean(&times(&is_race, &|r| r.times.check)),
        "s",
    ));
    out.push(metric(
        "portfolio.overhead_s",
        mean(&race(|x| x.overhead)),
        "s",
    ));
    out.push(metric("portfolio.cancel_s", mean(&race(|x| x.cancel)), "s"));
    out.push(metric(
        "portfolio.ic3_win_frac",
        ratio(wins("ic3ref-pl"), races),
        "ratio",
    ));
    out.push(metric("bmc.win_frac", ratio(wins("bmc"), races), "ratio"));
    out.push(metric("bmc.runtime_s", mean(&race(|x| x.bmc_runtime)), "s"));

    // Independent checks, outside every timing above.
    let safe = |r: &Record| r.verdict == Verdict::Safe;
    let unsafe_ = |r: &Record| r.verdict == Verdict::Unsafe;
    out.push(metric(
        "check.cert_s",
        mean(&times(&safe, &|r| r.times.cert_check)),
        "s",
    ));
    out.push(metric(
        "check.trace_s",
        mean(&times(&unsafe_, &|r| r.times.trace_check)),
        "s",
    ));
    let failures = all.iter().filter(|r| r.failure.is_some()).count();
    out.push(metric("check.failures", failures as f64, "count"));

    // Tracing itself.
    out.push(metric("trace.overhead_frac", overhead_frac, "ratio"));
    let self_times = tracer.self_times();
    let traced_cases = tracer.traced_cases().max(1) as f64;
    for layer in TRACED_LAYERS {
        let total = self_times.get(layer).copied().unwrap_or(0.0);
        out.push(metric(
            format!("trace.self_s.{layer}"),
            total / traced_cases,
            "s",
        ));
    }
    out
}

/// The IC3 configuration behind a record: the race's IC3 worker runs
/// IC3ref-pl.
fn ic3_config(record: &Record) -> Ic3Config {
    match record.engine {
        Engine::Ic3(config) => config,
        Engine::Race => Ic3Config::Ic3refPl,
    }
}

/// Base over -pl IC3 check time on the same instances: the sum over
/// instances of each one's mean base time, over the same sum for -pl.
fn pl_speedup(records: &[&Record], base: Ic3Config, pl: Ic3Config) -> f64 {
    let mut per_instance: BTreeMap<usize, [Vec<f64>; 2]> = BTreeMap::new();
    for r in records {
        let side = match r.engine {
            Engine::Ic3(c) if c == base => 0,
            Engine::Ic3(c) if c == pl => 1,
            _ => continue,
        };
        per_instance.entry(r.instance).or_default()[side].push(r.times.check);
    }
    let (mut base_sum, mut pl_sum) = (0.0, 0.0);
    for [b, p] in per_instance.values() {
        if !b.is_empty() && !p.is_empty() {
            base_sum += mean(b);
            pl_sum += mean(p);
        }
    }
    ratio(base_sum, pl_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&values, 0.5), 2.5);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn non_finite_values_are_reported_as_zero() {
        assert_eq!(metric("x", f64::NAN, "s").value, 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
