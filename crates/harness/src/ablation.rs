//! Ablation study over the design knobs called out in `DESIGN.md`: CTG
//! generalization, literal ordering, core shrinking of predicted lemmas.

use crate::report::{percent, TextTable};
use crate::runner::run_cases;
use crate::{ExperimentData, RunnerConfig};
use plic3::{Config, GeneralizeMode, LiteralOrdering, Statistics};
use plic3_benchmarks::{Benchmark, Suite};
use std::time::Duration;

/// One ablation variant: a named engine configuration.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Human-readable name of the variant.
    pub name: String,
    /// The engine configuration.
    pub config: Config,
}

/// The default set of ablation variants.
pub fn default_variants() -> Vec<Variant> {
    let base = Config::ric3_like().with_lemma_prediction(true);
    vec![
        Variant {
            name: "pl (default)".into(),
            config: base.clone(),
        },
        Variant {
            name: "pl, no CTG".into(),
            config: base.clone().with_generalize(GeneralizeMode::Mic),
        },
        Variant {
            name: "pl, parent-guided order".into(),
            config: base.clone().with_ordering(LiteralOrdering::ParentGuided),
        },
        Variant {
            name: "pl, shrink predicted".into(),
            config: Config {
                shrink_predicted: true,
                ..base.clone()
            },
        },
        Variant {
            name: "pl, no lifting".into(),
            config: Config {
                lift_predecessors: false,
                ..base.clone()
            },
        },
        Variant {
            name: "no prediction".into(),
            config: base.with_lemma_prediction(false),
        },
    ]
}

/// One row of the ablation report.
#[derive(Clone, Debug)]
pub struct Row {
    /// Variant name.
    pub name: String,
    /// Cases solved with a correct, independently verified verdict.
    pub solved: usize,
    /// Cases whose verdict contradicts the ground truth (should be zero).
    pub wrong: usize,
    /// Solved cases whose proof or trace failed independent checking
    /// (should be zero).
    pub unverified: usize,
    /// Total runtime over all cases.
    pub total_time: Duration,
    /// Average `SR_adv` over cases where it is defined.
    pub avg_sr_adv: Option<f64>,
    /// Total number of relative-induction queries.
    pub relative_queries: u64,
}

/// The ablation report.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// One row per variant.
    pub rows: Vec<Row>,
    /// Every case behind the rows, variant-major, with the engine statistics.
    pub cases: ExperimentData<Statistics>,
}

/// Runs every variant over the suite and collects the report.
///
/// The (variant × benchmark) cases go through the same pipeline and worker
/// pool as [`crate::run_experiment`]: preprocessing, budgets, the watchdog,
/// crash containment and the independent check of every verdict.
pub fn run(suite: &Suite, variants: &[Variant], runner: &RunnerConfig) -> Ablation {
    let cases: Vec<(&Benchmark, Config)> = variants
        .iter()
        .flat_map(|variant| suite.iter().map(move |b| (b, variant.config.clone())))
        .collect();
    let results = run_cases(&cases, runner, runner.effective_workers());
    let per_variant = suite.len();
    let rows = variants
        .iter()
        .enumerate()
        .map(|(i, variant)| {
            let cases = &results[i * per_variant..(i + 1) * per_variant];
            let adv: Vec<f64> = cases.iter().filter_map(|r| r.engine.sr_adv()).collect();
            Row {
                name: variant.name.clone(),
                solved: cases
                    .iter()
                    .filter(|r| r.verdict.solved() && r.correct && r.verified)
                    .count(),
                wrong: cases.iter().filter(|r| !r.correct).count(),
                unverified: cases
                    .iter()
                    .filter(|r| r.verdict.solved() && !r.verified)
                    .count(),
                total_time: cases.iter().map(|r| r.runtime).sum(),
                avg_sr_adv: (!adv.is_empty()).then(|| adv.iter().sum::<f64>() / adv.len() as f64),
                relative_queries: cases.iter().map(|r| r.engine.relative_queries).sum(),
            }
        })
        .collect();
    Ablation {
        rows,
        cases: ExperimentData {
            results,
            runner: Some(runner.clone()),
        },
    }
}

/// Renders the ablation report.
pub fn render(ablation: &Ablation) -> String {
    let mut text = TextTable::new(vec![
        "Variant".into(),
        "Solved".into(),
        "Wrong".into(),
        "Unverified".into(),
        "Total time (s)".into(),
        "Avg SR_adv".into(),
        "Relative queries".into(),
    ]);
    for row in &ablation.rows {
        text.add_row(vec![
            row.name.clone(),
            row.solved.to_string(),
            row.wrong.to_string(),
            row.unverified.to_string(),
            format!("{:.3}", row.total_time.as_secs_f64()),
            percent(row.avg_sr_adv),
            row.relative_queries.to_string(),
        ]);
    }
    format!("Ablation study\n{}", text.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_all_variants_on_a_tiny_suite() {
        let suite = Suite::quick().filter(|b| matches!(b.family(), "ring"));
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let variants = default_variants();
        let report = run(&suite, &variants, &runner);
        assert_eq!(report.rows.len(), variants.len());
        for row in &report.rows {
            assert_eq!(row.solved, suite.len(), "{} failed to solve", row.name);
            assert_eq!((row.wrong, row.unverified), (0, 0), "{}", row.name);
            assert!(row.relative_queries > 0);
        }
        // Every case went through the checked pipeline.
        assert_eq!(report.cases.results.len(), suite.len() * variants.len());
        assert_eq!(report.cases.solved(), suite.len() * variants.len());
        assert_eq!(report.cases.cert_failures(), 0);
        // The prediction-free variant must not report a prediction rate.
        let no_pred = report
            .rows
            .iter()
            .find(|r| r.name == "no prediction")
            .expect("variant exists");
        assert!(no_pred.avg_sr_adv.is_none() || no_pred.avg_sr_adv == Some(0.0));
        let text = render(&report);
        assert!(text.contains("Ablation"));
        assert!(text.contains("pl (default)"));
    }
}
