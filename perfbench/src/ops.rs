//! The requests the workloads send, each in two forms: the one call a
//! user makes, and the traced form that makes the same public calls one
//! layer at a time, in the order the one call makes them internally.

use crate::trace::Trace;
use smx::eval::AnswerSet;
use smx::matching::{
    BeamMatcher, CandidateConfig, CandidateGenerator, CertifiedMatcher, ClusterMatcher,
    ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher, ObjectiveFunction, Pipeline,
    RecallCertificate, TopKMatcher,
};
use smx::repo::{Repository, SchemaId, StoreCounters};
use smx::xml::Schema;

/// Candidate budget of a fixed-budget certified request.
pub const FIXED_BUDGET: usize = 12;

/// The roster's searches, each with the layer name its time goes to.
pub const SEARCHES: [&str; 4] = [
    "match.search.exhaustive",
    "match.search.topk",
    "match.search.beam",
    "match.search.cluster",
];

/// What a query request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `CertifiedMatcher(Exhaustive)` with the auto budget or a fixed one.
    Certified(Option<usize>),
    /// One of the roster's searches, by index into [`SEARCHES`]; the
    /// first is the unrestricted exhaustive matcher S1.
    Search(usize),
    /// `candidate_filter → beam_filter(4) → refine(Exhaustive)`.
    Pipeline,
}

/// A query's answers, with the recall certificate where it has one.
pub struct Answer {
    pub answers: AnswerSet,
    pub certificate: Option<RecallCertificate>,
}

/// The matchers every request kind runs, built once per run.
pub struct Engine {
    objective: ObjectiveFunction,
    delta: f64,
    auto: CertifiedMatcher<ExhaustiveMatcher>,
    fixed: CertifiedMatcher<ExhaustiveMatcher>,
    searches: Vec<Box<dyn Matcher + Send + Sync>>,
    pipeline: Pipeline,
}

impl Engine {
    /// Matchers at threshold `delta` under the default objective.
    pub fn new(delta: f64) -> Self {
        let objective = ObjectiveFunction::default();
        let certified = |budget| {
            CertifiedMatcher::new(
                ExhaustiveMatcher::new(objective.clone()),
                CandidateGenerator::new(objective.clone(), CandidateConfig { budget }),
            )
        };
        Engine {
            auto: certified(None),
            fixed: certified(Some(FIXED_BUDGET)),
            searches: vec![
                Box::new(ExhaustiveMatcher::new(objective.clone())),
                Box::new(TopKMatcher::new(objective.clone(), 100)),
                Box::new(BeamMatcher::new(objective.clone(), 16)),
                Box::new(ClusterMatcher::new(objective.clone(), 0.55, 4)),
            ],
            pipeline: Pipeline::builder(objective.clone())
                .candidate_filter()
                .beam_filter(4)
                .refine(ExhaustiveMatcher::new(objective.clone())),
            objective,
            delta,
        }
    }

    fn certified(&self, budget: Option<usize>) -> &CertifiedMatcher<ExhaustiveMatcher> {
        match budget {
            None => &self.auto,
            Some(FIXED_BUDGET) => &self.fixed,
            Some(other) => panic!("no certified matcher with budget {other}"),
        }
    }

    /// The request as one call; `None` if the program refused it.
    pub fn run(
        &self,
        repo: &Repository,
        personal: Schema,
        query: Query,
        registry: &MappingRegistry,
    ) -> Option<Answer> {
        let problem = MatchProblem::new(personal, repo.clone()).ok()?;
        Some(match query {
            Query::Certified(budget) => {
                let c = self
                    .certified(budget)
                    .run_certified(&problem, self.delta, registry);
                Answer {
                    answers: c.answers,
                    certificate: Some(c.certificate),
                }
            }
            Query::Search(i) => Answer {
                answers: self.searches[i].run(&problem, self.delta, registry),
                certificate: None,
            },
            Query::Pipeline => {
                let p = self.pipeline.run_certified(&problem, self.delta, registry);
                Answer {
                    answers: p.answers,
                    certificate: Some(p.certificate.certificate().clone()),
                }
            }
        })
    }

    /// The request decomposed into its public calls, each timed into
    /// `trace`. A certified request makes the calls `run_certified`
    /// makes, with the store sweep that `cost_matrix` would make pulled
    /// out in front of it; a roster request sweeps, builds the matrix
    /// and then searches, so the search time holds no matrix work.
    pub fn run_traced(
        &self,
        repo: &Repository,
        personal: Schema,
        query: Query,
        registry: &MappingRegistry,
        trace: &mut Trace,
    ) -> Option<Answer> {
        let problem = trace
            .time("match.problem", || {
                MatchProblem::new(personal, repo.clone())
            })
            .ok()?;
        Some(match query {
            Query::Certified(budget) => {
                let matcher = self.certified(budget);
                let candidates = trace.time("match.candidates", || {
                    matcher.generator().generate(&problem, self.delta)
                });
                trace.count(
                    "match.candidates.active_schemas",
                    candidates.active_count() as f64,
                );
                trace.count(
                    "match.candidates.cert_empty_share",
                    candidates.cert_empty_count() as f64 / candidates.total_schemas().max(1) as f64,
                );
                trace.count(
                    "match.candidates.pruned_pairs",
                    candidates.pruned_pairs() as f64,
                );
                trace.count(
                    "match.candidates.scored_pairs",
                    candidates.scored_pairs() as f64,
                );
                let restricted =
                    trace.time("match.matrix", || problem.with_candidates(&candidates));
                sweep(&restricted, trace);
                trace.time("match.matrix", || restricted.cost_matrix(&self.objective));
                let answers = trace.time("match.search", || {
                    matcher.inner().run(&restricted, self.delta, registry)
                });
                trace.count("match.search.answers", answers.len() as f64);
                let certificate = trace.time("match.certificate", || {
                    RecallCertificate::new(&candidates, answers.len())
                });
                Answer {
                    answers,
                    certificate: Some(certificate),
                }
            }
            Query::Search(i) => {
                sweep(&problem, trace);
                trace.time("match.matrix", || problem.cost_matrix(&self.objective));
                let answers = trace.time(SEARCHES[i], || {
                    self.searches[i].run(&problem, self.delta, registry)
                });
                trace.count("match.search.answers", answers.len() as f64);
                Answer {
                    answers,
                    certificate: None,
                }
            }
            Query::Pipeline => {
                sweep(&problem, trace);
                let p = trace.time("match.pipeline", || {
                    self.pipeline.run_certified(&problem, self.delta, registry)
                });
                Answer {
                    answers: p.answers,
                    certificate: Some(p.certificate.certificate().clone()),
                }
            }
        })
    }
}

/// Fetch the rows `problem.cost_matrix` reads, the way it fetches them:
/// whole rows for an unrestricted problem, and for a restricted one only
/// the label columns of its active schemas. The matrix build that
/// follows then finds every row it needs in the store.
fn sweep(problem: &MatchProblem, trace: &mut Trace) {
    let store = problem.repository().store();
    let labels = problem.distinct_personal_labels();
    let before = store.counters();
    let cells = trace.time("repo.sweep", || match problem.active_set() {
        None => {
            store.score_rows(&labels);
            labels.len() * store.len()
        }
        Some(active) => {
            let mut cols: Vec<usize> = active
                .ids()
                .iter()
                .flat_map(|&sid| store.schema_labels(sid))
                .map(|lid| lid.index())
                .collect();
            cols.sort_unstable();
            cols.dedup();
            store.score_rows_subset(&labels, &cols);
            labels.len() * cols.len()
        }
    });
    let after = store.counters();
    let moved = |field: fn(&StoreCounters) -> u64| (field(&after) - field(&before)) as f64;
    trace.count("repo.sweep.cells", cells as f64);
    trace.count("repo.sweep.pair_evals", moved(|c| c.pair_evals));
    trace.count(
        "repo.sweep.partial_row_fills",
        moved(|c| c.partial_row_fills),
    );
    trace.count("repo.sweep.candidate_pruned", moved(|c| c.candidate_pruned));
    trace.count("repo.sweep.evictions", moved(|c| c.row_evictions));
}

/// A repository mutation.
pub enum Write {
    Add(Schema),
    Replace(SchemaId, Schema),
    Remove(SchemaId),
}

impl Write {
    /// The layer name the write's time goes to.
    pub fn layer(&self) -> &'static str {
        match self {
            Write::Add(_) => "repo.add",
            Write::Replace(..) => "repo.replace",
            Write::Remove(_) => "repo.remove",
        }
    }

    /// Apply the write; `false` if the repository refused it.
    pub fn apply(self, repo: &mut Repository) -> bool {
        match self {
            Write::Add(schema) => {
                repo.add(schema);
                true
            }
            Write::Replace(sid, schema) => repo.replace_schema(sid, schema),
            Write::Remove(sid) => repo.remove_schema(sid),
        }
    }
}

/// Whether two answer sets hold the same answers with bitwise equal
/// scores, in the same order.
pub fn identical(a: &AnswerSet, b: &AnswerSet) -> bool {
    a.len() == b.len()
        && a.answers()
            .iter()
            .zip(b.answers())
            .all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

/// Whether two answers are bitwise identical, certificates included.
pub fn same(a: &Answer, b: &Answer) -> bool {
    identical(&a.answers, &b.answers) && a.certificate == b.certificate
}

/// Whether every answer of `sub` is in `sup` with a bitwise equal score.
pub fn subset_with_equal_scores(sub: &AnswerSet, sup: &AnswerSet) -> bool {
    sub.answers()
        .iter()
        .all(|a| sup.score_of(a.id).map(f64::to_bits) == Some(a.score.to_bits()))
}
