//! The campaign workloads (`select_hunt`, `dml_txn`): untraced hunts
//! through `Campaign::new`/`Campaign::run`, the output checks, and the
//! traced replay of the same cells through each layer's public functions.

use crate::layers::{CountingOracle, EngineRole, TimedConnector};
use crate::trace;
use crate::workload::{campaign_config, Kind};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tqs_campaign::{
    AppendOptions, BugTriage, Campaign, CampaignCell, CampaignConfig, CampaignStats, CellRecord,
    Checkpoint, Corpus, CorpusEntry, EngineKind, OracleSpec, PlanMode, StoredStatement,
    TriageClass, Workload,
};
use tqs_core::backend::{DbmsConnector, EngineConnector, RecordingConnector, TraceEvent};
use tqs_core::bugs::{minimize_with_oracle, BugReport, OracleKind};
use tqs_core::dsg::{DsgDatabase, QueryGenConfig, QueryGenerator};
use tqs_core::kqe::{Kqe, KqeConfig, KqeScorer};
use tqs_core::mutation::{DmlGenConfig, DmlGenerator, DmlOracle};
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict, PlanSpaceOracle, TqsOracle};
use tqs_engine::{FaultKind, FaultSet};
use tqs_graph::embedding::embed_graph;
use tqs_graph::plangraph::{graph_fingerprint, query_graph_with_subqueries};
use tqs_graph::GraphIndex;
use tqs_optimizer::PlanSpace;
use tqs_schema::GroundTruthEvaluator;
use tqs_sql::ast::SelectStmt;
use tqs_sql::render::render_stmt;

/// Distinct seeded faults fired by the representatives of the bug classes,
/// skipping classes that record a caught harness panic (those name the
/// harness, not a seeded fault).
pub fn fault_kinds(classes: &[TriageClass]) -> BTreeSet<FaultKind> {
    classes
        .iter()
        .filter(|c| c.representative.oracle != OracleKind::HarnessPanic)
        .flat_map(|c| c.representative.fired.iter().copied())
        .collect()
}

/// One finished untraced hunt.
pub struct Hunt {
    /// `Campaign::new`: the sharded DSG build plus journal creation.
    pub setup_s: f64,
    /// `Campaign::run`.
    pub wall_s: f64,
    pub workers: usize,
    pub stats: CampaignStats,
    /// The checkpoint journal's cell records, in drain order.
    pub cells: Vec<CellRecord>,
    pub class_keys: BTreeSet<String>,
    pub fault_kinds: BTreeSet<FaultKind>,
    /// Operations the grid asks for: cells × budget per cell.
    pub attempted: usize,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
}

impl Hunt {
    /// Σ journaled cell time, in seconds: the time workers were busy.
    pub fn busy_s(&self) -> f64 {
        self.cells.iter().map(|c| c.elapsed_ms).sum::<u64>() as f64 / 1000.0
    }
}

/// Run the workload's whole grid once with `workers` threads in a fresh
/// directory and check it: every cell drained, and the directory reopened
/// with `Campaign::resume` reproduces the class-key set.
pub fn hunt(kind: Kind, seed: u64, dir: PathBuf, workers: usize) -> Result<Hunt, String> {
    let cfg = campaign_config(kind, seed, dir.clone(), workers);
    let started = Instant::now();
    let mut campaign = Campaign::new(cfg.clone()).map_err(|e| format!("Campaign::new: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let stats = campaign.run().map_err(|e| format!("Campaign::run: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    if !campaign.is_complete() {
        errors.push(format!(
            "{} of {} cells left undrained",
            campaign.cells_total() - campaign.cells_done(),
            campaign.cells_total()
        ));
    }
    let journal = Checkpoint::in_dir(&dir)
        .load()
        .map_err(|e| format!("checkpoint load: {e}"))?;
    let class_keys = campaign.class_keys();
    let resumed = Campaign::resume(cfg.clone()).map_err(|e| format!("Campaign::resume: {e}"))?;
    if resumed.class_keys() != class_keys {
        errors.push("Campaign::resume does not reproduce the class-key set".into());
    }
    let hunt = Hunt {
        setup_s,
        wall_s,
        workers,
        cells: journal.cells,
        fault_kinds: fault_kinds(campaign.triage().classes()),
        class_keys,
        attempted: campaign.cells_total() * cfg.queries_per_cell,
        stats,
        errors,
    };
    remove_dir(&dir);
    Ok(hunt)
}

/// Per-cell counts, as the untraced reference journals them and as the
/// traced replay reproduces them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCounts {
    pub cell_id: usize,
    pub queries: usize,
    pub raw_reports: usize,
    pub new_classes: usize,
    /// Engine statements on the build under test.
    pub statements: usize,
}

/// The untraced reference for the traced replay: one worker drains one cell
/// per `Campaign::run`, so cells run in id order, every run record carries
/// that one cell's statement count, and per-cell class discovery is
/// deterministic.
pub struct Reference {
    /// The campaign's cell grid, in id order.
    pub grid: Vec<CampaignCell>,
    pub cells: Vec<CellCounts>,
    /// Σ wall time of the one-cell runs, in seconds.
    pub cell_s: f64,
    pub class_keys: BTreeSet<String>,
}

pub fn reference(kind: Kind, seed: u64, dir: PathBuf) -> Result<Reference, String> {
    let cfg = CampaignConfig {
        max_cells_per_run: Some(1),
        ..campaign_config(kind, seed, dir.clone(), 1)
    };
    let mut campaign = Campaign::new(cfg).map_err(|e| format!("Campaign::new: {e}"))?;
    let mut cell_s = 0.0;
    while !campaign.is_complete() {
        let stats = campaign.run().map_err(|e| format!("Campaign::run: {e}"))?;
        if stats.cells_drained != 1 {
            return Err("a one-cell run drained no cell".into());
        }
        cell_s += stats.elapsed.as_secs_f64();
    }
    let journal = Checkpoint::in_dir(&dir)
        .load()
        .map_err(|e| format!("checkpoint load: {e}"))?;
    let cells = journal
        .cells
        .iter()
        .zip(&journal.runs)
        .map(|(c, r)| CellCounts {
            cell_id: c.cell_id,
            queries: c.queries,
            raw_reports: c.raw_reports,
            new_classes: c.new_classes,
            statements: r.statements,
        })
        .collect();
    let class_keys = campaign.class_keys();
    let grid = campaign.cells().to_vec();
    drop(campaign);
    remove_dir(&dir);
    Ok(Reference {
        grid,
        cells,
        cell_s,
        class_keys,
    })
}

/// What the traced replay produced.
pub struct Replay {
    pub cells: Vec<CellCounts>,
    /// Σ per-cell wall time, checkpoint append included, without the
    /// ground-truth and optimizer probes.
    pub cell_s: f64,
    pub class_keys: BTreeSet<String>,
}

type Conn = RecordingConnector<TimedConnector<EngineConnector>>;

/// Replay every cell of `grid` in id order on this thread, with the traced
/// layer calls the campaign's cell loop makes: the same per-cell seeds,
/// connectors, oracles, triage, minimization and journal appends. The
/// tracer must be recording.
pub fn replay(
    kind: Kind,
    seed: u64,
    grid: &[CampaignCell],
    dir: PathBuf,
) -> Result<Replay, String> {
    let cfg = campaign_config(kind, seed, dir.clone(), 1);
    let shards = {
        let _s = trace::span("dsg.build");
        DsgDatabase::build_sharded(&cfg.dsg, cfg.shards)
    };
    let journal_dir = dir.join("journal");
    std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    let mut replay = Replayer {
        cfg: &cfg,
        triage: BugTriage::new(),
        diversity: GraphIndex::new(),
        corpus: Corpus::in_dir(&journal_dir),
        checkpoint: Checkpoint::in_dir(&journal_dir),
        opts: AppendOptions {
            sync: cfg.supervisor.sync_appends,
            ..AppendOptions::default()
        },
    };
    let mut counts = Vec::with_capacity(grid.len());
    let mut cell_s = 0.0;
    for cell in grid {
        let (c, secs) = replay.cell(cell, &shards[cell.shard])?;
        counts.push(c);
        cell_s += secs;
    }
    let class_keys = replay.triage.class_keys();
    remove_dir(&dir);
    Ok(Replay {
        cells: counts,
        cell_s,
        class_keys,
    })
}

struct Replayer<'a> {
    cfg: &'a CampaignConfig,
    triage: BugTriage,
    diversity: GraphIndex,
    corpus: Corpus,
    checkpoint: Checkpoint,
    opts: AppendOptions,
}

impl Replayer<'_> {
    fn seed_for(&self, cell: &CampaignCell) -> u64 {
        self.cfg.seed ^ ((cell.id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// One cell; returns its counts and its time without probes.
    fn cell(
        &mut self,
        cell: &CampaignCell,
        shard: &Arc<DsgDatabase>,
    ) -> Result<(CellCounts, f64), String> {
        let _cell_span = trace::span("cell");
        let started = Instant::now();
        let first_span = trace::mark();
        let mut conn: Conn = {
            let _s = trace::span("engine.load");
            RecordingConnector::new(TimedConnector::new(
                cell.engine.faulty(cell.profile),
                EngineRole::UnderTest,
            ))
        };
        conn.load_catalog(&shard.db.catalog)
            .map_err(|e| format!("load_catalog: {e}"))?;
        let mut counts = CellCounts {
            cell_id: cell.id,
            queries: 0,
            raw_reports: 0,
            new_classes: 0,
            statements: 0,
        };
        match cell.workload {
            Workload::Select => self.select_cell(cell, shard, &mut conn, &mut counts)?,
            Workload::Dml => self.dml_cell(cell, shard, &mut conn, &mut counts)?,
        }
        {
            let _s = trace::span("campaign.drain");
            counts.statements += count_statements(&conn.take_trace());
        }
        let record = CellRecord {
            cell_id: cell.id,
            queries: counts.queries,
            raw_reports: counts.raw_reports,
            new_classes: counts.new_classes,
            elapsed_ms: started.elapsed().as_millis() as u64,
            timeout: false,
        };
        self.append(|me| me.checkpoint.append_cell_with(&record, &me.opts))?;
        let secs =
            started.elapsed().as_secs_f64() - trace::probe_ns_since(first_span) as f64 * 1e-9;
        Ok((counts, secs))
    }

    /// The cell's verdict procedure, built from the public constructors the
    /// campaign uses, with every pristine reference behind a timing wrapper.
    fn oracle(&self, cell: &CampaignCell, shard: &Arc<DsgDatabase>) -> CountingOracle {
        let reference = |e: EngineKind| -> Box<dyn DbmsConnector> {
            let conn = {
                let _s = trace::span("engine.load");
                e.connect_pristine(cell.profile, shard)
            };
            Box::new(TimedConnector::new(conn, EngineRole::Reference))
        };
        let inner: Box<dyn Oracle> = match (cell.plan_mode, cell.oracle) {
            (PlanMode::Space, _) => Box::new(PlanSpaceOracle::shared(Arc::clone(shard))),
            (PlanMode::Single, OracleSpec::GroundTruth) => {
                Box::new(TqsOracle::shared(Arc::clone(shard)))
            }
            (PlanMode::Single, OracleSpec::CrossEngine) => {
                let other = if cell.engine == EngineKind::Columnar {
                    EngineKind::Row
                } else {
                    EngineKind::Columnar
                };
                Box::new(DifferentialOracle::boxed(reference(other)))
            }
            (PlanMode::Single, OracleSpec::ThreeWay) => Box::new(DifferentialOracle::panel(
                EngineKind::ALL
                    .into_iter()
                    .filter(|e| *e != cell.engine)
                    .map(reference)
                    .collect(),
            )),
        };
        CountingOracle::new(inner)
    }

    fn select_cell(
        &mut self,
        cell: &CampaignCell,
        shard: &Arc<DsgDatabase>,
        conn: &mut Conn,
        counts: &mut CellCounts,
    ) -> Result<(), String> {
        let mut oracle = self.oracle(cell, shard);
        let (mut kqe, mut generator) = {
            let _s = trace::span("gen.setup");
            (
                Kqe::new(shard.schema_desc.clone(), KqeConfig::default()),
                QueryGenerator::new(QueryGenConfig {
                    seed: self.seed_for(cell),
                    ..Default::default()
                }),
            )
        };
        let seeded_faults = if conn.info().seeded_faults {
            FaultSet::of(&FaultKind::OPTIMIZER)
        } else {
            FaultSet::none()
        };
        for _ in 0..self.cfg.queries_per_cell {
            trace::next_op();
            let (stmt, qg) = {
                let _s = trace::span("gen.query");
                trace::count("gen.ops", 1);
                let stmt = generator.generate(shard, None, &KqeScorer { kqe: &kqe });
                let qg = query_graph_with_subqueries(&stmt, &shard.schema_desc);
                kqe.record(&qg);
                let e = embed_graph(&qg, 2);
                self.diversity.insert(&qg, e);
                (stmt, qg)
            };
            {
                let _s = trace::span("campaign.drain");
                counts.statements += count_statements(&conn.take_trace());
            }
            probe_ground_truth(shard, &stmt);
            probe_optimizer(shard, &stmt, &seeded_faults);
            let reports = match oracle.check(&stmt, conn) {
                OracleVerdict::Skip => continue,
                OracleVerdict::Pass => {
                    counts.queries += 1;
                    continue;
                }
                OracleVerdict::Bugs(reports) => {
                    counts.queries += 1;
                    reports
                }
            };
            counts.raw_reports += reports.len();
            let fp = graph_fingerprint(&qg);
            let mut witness: Option<Vec<StoredStatement>> = None;
            for report in reports {
                let combined = report.fingerprint.map(|pf| pf ^ fp).unwrap_or(fp);
                let mut report = report.with_fingerprint(combined);
                let Some(class_idx) = self.admit(&report, cell.id) else {
                    continue;
                };
                counts.new_classes += 1;
                let witness = witness.get_or_insert_with(|| capture_witness(conn));
                if self.cfg.minimize {
                    let _s = trace::span("minimize.run");
                    trace::count("minimize.calls", 1);
                    let checks = oracle.checks();
                    let minimized = render_stmt(&minimize_with_oracle(&stmt, &mut oracle, conn));
                    trace::count("minimize.oracle_checks", (oracle.checks() - checks) as u64);
                    self.triage.set_minimized(class_idx, minimized.clone());
                    report.minimized_sql = Some(minimized);
                }
                self.persist(cell, conn, report, witness.clone())?;
            }
        }
        Ok(())
    }

    fn dml_cell(
        &mut self,
        cell: &CampaignCell,
        shard: &Arc<DsgDatabase>,
        conn: &mut Conn,
        counts: &mut CellCounts,
    ) -> Result<(), String> {
        let (oracle, mut generator) = {
            let _s = trace::span("gen.setup");
            (
                DmlOracle::new(&shard.db.catalog),
                DmlGenerator::new(DmlGenConfig {
                    seed: self.seed_for(cell),
                    ..Default::default()
                }),
            )
        };
        for _ in 0..self.cfg.queries_per_cell {
            trace::next_op();
            let program = {
                let _s = trace::span("gen.program");
                trace::count("gen.ops", 1);
                generator.generate_program(shard)
            };
            {
                let _s = trace::span("campaign.drain");
                counts.statements += count_statements(&conn.take_trace());
            }
            let verdict = {
                let _s = trace::span("oracle.check");
                trace::count("oracle.checks", 1);
                oracle.check_program(&program, conn)
            };
            let reports = match verdict {
                OracleVerdict::Skip => continue,
                OracleVerdict::Pass => {
                    counts.queries += 1;
                    continue;
                }
                OracleVerdict::Bugs(reports) => {
                    counts.queries += 1;
                    reports
                }
            };
            counts.raw_reports += reports.len();
            let mut witness: Option<Vec<StoredStatement>> = None;
            for report in reports {
                if self.admit(&report, cell.id).is_none() {
                    continue;
                }
                counts.new_classes += 1;
                let witness = witness.get_or_insert_with(|| capture_witness(conn));
                self.persist(cell, conn, report, witness.clone())?;
            }
        }
        Ok(())
    }

    fn admit(&mut self, report: &BugReport, cell_id: usize) -> Option<usize> {
        let _s = trace::span("triage.admit");
        trace::count("triage.reports", 1);
        let admitted = self.triage.admit(report.clone(), cell_id);
        if admitted.is_some() {
            trace::count("triage.classes", 1);
        }
        admitted
    }

    fn persist(
        &mut self,
        cell: &CampaignCell,
        conn: &Conn,
        report: BugReport,
        trace: Vec<StoredStatement>,
    ) -> Result<(), String> {
        let entry = CorpusEntry {
            cell_id: cell.id,
            class_key: report.class_key().to_string(),
            connector: conn.info(),
            report,
            trace,
        };
        self.append(|me| me.corpus.append_with(&entry, &me.opts))
    }

    /// One journal append, timed, with the bytes it added.
    fn append(&self, op: impl FnOnce(&Self) -> std::io::Result<()>) -> Result<(), String> {
        let _s = trace::span("persist.append");
        let before = self.journal_bytes();
        op(self).map_err(|e| format!("journal append: {e}"))?;
        trace::count("persist.appends", 1);
        trace::count("persist.bytes", self.journal_bytes().saturating_sub(before));
        Ok(())
    }

    fn journal_bytes(&self) -> u64 {
        [self.corpus.path(), self.checkpoint.path()]
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// The witness trace of the statement that raised a new class, as the
/// campaign persists it.
fn capture_witness(conn: &Conn) -> Vec<StoredStatement> {
    let _s = trace::span("persist.witness");
    conn.trace()
        .iter()
        .filter_map(StoredStatement::from_event)
        .collect()
}

/// Evaluate the statement's ground truth directly — the same evaluation the
/// ground-truth and plan-space oracles make inside their check.
fn probe_ground_truth(shard: &DsgDatabase, stmt: &SelectStmt) {
    let _s = trace::span("groundtruth.probe");
    if let Ok(gt) = GroundTruthEvaluator::new(&shard.db).evaluate(stmt) {
        trace::count("groundtruth.rows", gt.result.row_count() as u64);
    }
}

/// Enumerate the statement's plan space directly — the same enumeration the
/// plan-space oracle makes inside its check.
fn probe_optimizer(shard: &DsgDatabase, stmt: &SelectStmt, faults: &FaultSet) {
    let _s = trace::span("optimizer.probe");
    let space = PlanSpace::enumerate(stmt, &shard.db.catalog, faults);
    trace::count("optimizer.plans", space.plans.len() as u64);
}

/// Engine statements in a recorded trace slice, as the campaign counts them.
pub fn count_statements(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Statement { .. }))
        .count()
}

/// Compare the traced replay with the untraced reference, cell by cell.
pub fn check_fidelity(reference: &Reference, replay: &Replay) -> Vec<String> {
    let mut errors = Vec::new();
    let by_id: HashMap<usize, &CellCounts> =
        reference.cells.iter().map(|c| (c.cell_id, c)).collect();
    if reference.cells.len() != replay.cells.len() {
        errors.push(format!(
            "replay drained {} cells, the reference {}",
            replay.cells.len(),
            reference.cells.len()
        ));
    }
    for c in &replay.cells {
        match by_id.get(&c.cell_id) {
            Some(r) if *r == c => {}
            Some(r) => errors.push(format!(
                "cell {}: replay {c:?} != reference {r:?}",
                c.cell_id
            )),
            None => errors.push(format!("cell {} missing from the reference", c.cell_id)),
        }
    }
    if replay.class_keys != reference.class_keys {
        errors.push("replay class-key set differs from the reference's".into());
    }
    errors
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_core::bugs::KeyCache;

    fn class(oracle: OracleKind, fired: Vec<FaultKind>) -> TriageClass {
        TriageClass {
            key: format!("{oracle:?}|{fired:?}"),
            fingerprint: None,
            representative: BugReport {
                dbms: "MySQL-like".into(),
                oracle,
                sql: "SELECT T1.a FROM T1".into(),
                transformed_sql: String::new(),
                hint_label: "default".into(),
                expected_rows: 1,
                observed_rows: 0,
                fired,
                minimized_sql: None,
                fingerprint: None,
                keys: KeyCache::default(),
            },
            cell_id: 0,
            sightings: 1,
        }
    }

    #[test]
    fn fault_kinds_union_skips_harness_panic_classes() {
        let classes = vec![
            class(
                OracleKind::GroundTruth,
                vec![
                    FaultKind::SemiJoinWrongResults,
                    FaultKind::MergeJoinDropsLastRun,
                ],
            ),
            class(
                OracleKind::CrossEngine,
                vec![FaultKind::SemiJoinWrongResults],
            ),
            class(
                OracleKind::HarnessPanic,
                vec![FaultKind::HashJoinVarcharViaDouble],
            ),
            class(OracleKind::Mutation, vec![]),
        ];
        let kinds = fault_kinds(&classes);
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), {
            let mut v = vec![
                FaultKind::SemiJoinWrongResults,
                FaultKind::MergeJoinDropsLastRun,
            ];
            v.sort();
            v
        });
        assert!(fault_kinds(&classes[2..]).is_empty());
    }
}
