//! The third simulated engine: disk-backed execution over the page store.
//!
//! Where [`crate::engine::Database`] scans in-memory tables and
//! [`crate::columnar::ColumnarDatabase`] executes batch-at-a-time,
//! [`DiskDatabase`] keeps every table in a `tqs-pager` [`DiskStore`] — a
//! buffer pool over fixed-size pages, a write-ahead log with redo recovery,
//! and one rowid-keyed B+tree per table — and materializes its scans from
//! disk at statement time. The optimizer, subquery machinery and the
//! projection/aggregation tail are shared with the row engine, so on
//! fault-free builds the two are answer-identical by construction (scans
//! return rows in rowid order, which is insertion order).
//!
//! What differs is the storage layer — and therefore the *fault complement*:
//! the disk build carries [`FaultKind::DISK`] (torn page writes, WAL records
//! lost before fsync, stale buffer frames, split bookkeeping loss, double
//! redo replay), which cannot occur in either in-memory engine, and none of
//! their faults. The corruption lives in the page store's scan metadata
//! ([`LeafScan`]/[`TableScan`]), but whether a query *observes* it depends on
//! the access path the optimizer picks — the same steer-to-expose structure
//! as every other fault in the catalog.
//!
//! Crash-fault injection is first-class: [`DiskDatabase::arm_crash`] plants a
//! one-shot process kill at a [`CrashPoint`] inside the next commit,
//! [`DiskDatabase::recover`] reopens the files, replays the WAL and resumes
//! the interrupted catalog load. The crash-recovery suite pins that committed
//! batches survive byte-for-byte and uncommitted ones vanish entirely.

use crate::dml::{DmlOp, DmlOutcome};
use crate::engine::{Database, EngineError, ExecOutcome};
use crate::exec::ExecContext;
use crate::faults::{FaultKind, TriggerContext};
use crate::profiles::DbmsProfile;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tqs_pager::{CrashPoint, DiskStore, RecoveryStats, TableScan, DEFAULT_POOL_FRAMES};
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::hints::HintSet;
use tqs_sql::parser::{parse_dml, parse_stmt};
use tqs_sql::value::Value;
use tqs_storage::{Catalog, Row};

/// Rows per commit batch when loading a catalog into the page store.
/// Deliberately *not* a multiple of the leaf capacity, so commit boundaries
/// land mid-leaf: a leaf can be flushed half-full and grow in a later batch,
/// giving the stale-frame fault a version gap to serve and the WAL-loss fault
/// a tail batch that straddles leaves.
pub const COMMIT_BATCH_ROWS: usize = 48;

/// Store table holding the committed DML delta, one encoded [`DmlOp`] per
/// row (see [`DmlOp::encode`]). It lives in the page store but never in the
/// SQL catalog, so scans and faults can't touch it; its batches ride the
/// ordinary WAL commit protocol, which is what makes a DML commit a *real*
/// commit boundary for crash injection.
pub const DML_LOG_TABLE: &str = "__dml_log";

static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

fn storage_err(e: io::Error) -> EngineError {
    EngineError::Storage(e.to_string())
}

/// The disk-backed simulated DBMS: shares the optimizer, session switches and
/// subquery machinery with [`Database`], but scans its tables out of a
/// [`DiskStore`] rooted in a per-instance temp directory (removed on drop).
#[derive(Debug)]
pub struct DiskDatabase {
    inner: Database,
    store: DiskStore,
    dir: PathBuf,
    /// The catalog as loaded (pre-DML) — the authoritative content of the
    /// store's base tables, which interrupted loads resume from.
    base: Catalog,
    /// Committed DML ops since load, in order; `inner.catalog` equals `base`
    /// with these (plus any open transaction's ops) replayed.
    committed_ops: Vec<DmlOp>,
    /// Crash point to arm on the store at the start of the next load (the
    /// load replaces the store, so the request must outlive it).
    pending_crash: Option<CrashPoint>,
    last_recovery: Option<RecoveryStats>,
}

impl DiskDatabase {
    pub fn new(catalog: Catalog, profile: DbmsProfile) -> Result<Self, EngineError> {
        let n = NEXT_STORE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("tqs-disk-{}-{n}", std::process::id()));
        let store = DiskStore::create(&dir, DEFAULT_POOL_FRAMES).map_err(storage_err)?;
        let mut db = DiskDatabase {
            inner: Database::new(Catalog::new(), profile),
            store,
            dir,
            base: Catalog::new(),
            committed_ops: Vec::new(),
            pending_crash: None,
            last_recovery: None,
        };
        db.load_catalog(catalog)?;
        Ok(db)
    }

    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    pub fn profile(&self) -> &DbmsProfile {
        &self.inner.profile
    }

    /// The directory holding this instance's data and WAL files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying page store (crash-recovery tests compare its scans
    /// byte-for-byte across a kill/reopen cycle).
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut DiskStore {
        &mut self.store
    }

    /// Stats of the WAL replay performed by the most recent
    /// [`DiskDatabase::recover`], if any.
    pub fn last_recovery(&self) -> Option<RecoveryStats> {
        self.last_recovery
    }

    /// Did an injected crash kill the store? (All statements fail until
    /// [`DiskDatabase::recover`] reopens it.)
    pub fn is_poisoned(&self) -> bool {
        self.store.is_poisoned()
    }

    pub fn apply_switch(&mut self, s: tqs_sql::hints::SessionSwitch) {
        self.inner.apply_switch(s);
    }

    pub fn reset_switches(&mut self) {
        self.inner.reset_switches();
    }

    /// Wipe the page store and load `catalog` into it, one B+tree per table,
    /// committed every [`COMMIT_BATCH_ROWS`] rows.
    pub fn load_catalog(&mut self, catalog: Catalog) -> Result<(), EngineError> {
        self.store = DiskStore::create(&self.dir, DEFAULT_POOL_FRAMES).map_err(storage_err)?;
        self.store.set_crash_point(self.pending_crash.take());
        // A fresh load resets the whole DML history with the store.
        self.base = catalog.clone();
        self.committed_ops.clear();
        self.inner.catalog = catalog;
        self.inner.clear_txn();
        self.last_recovery = None;
        for name in self.base.table_names() {
            self.store.create_table(&name).map_err(storage_err)?;
        }
        self.store
            .create_table(DML_LOG_TABLE)
            .map_err(storage_err)?;
        self.store.commit().map_err(storage_err)?;
        for name in self.base.table_names() {
            let rows: Vec<Vec<Value>> = self
                .base
                .table(&name)
                .map(|t| t.rows.iter().map(|r| r.values.clone()).collect())
                .unwrap_or_default();
            for chunk in rows.chunks(COMMIT_BATCH_ROWS) {
                self.store.insert_batch(&name, chunk).map_err(storage_err)?;
            }
        }
        Ok(())
    }

    /// Arm a one-shot process kill at `point` inside the next commit (the
    /// next [`DiskDatabase::load_catalog`] or catch-up load).
    pub fn arm_crash(&mut self, point: CrashPoint) {
        self.pending_crash = Some(point);
        self.store.set_crash_point(Some(point));
    }

    /// Reopen the store's files, replay the WAL, resume any interrupted
    /// catalog load, then rebuild the session's view of the data: base
    /// catalog plus exactly the DML ops whose log batches survived the WAL
    /// replay. Committed transactions come back in full, in-flight ones
    /// vanish entirely, and running recovery again is a no-op (idempotent).
    pub fn recover(&mut self) -> Result<RecoveryStats, EngineError> {
        self.pending_crash = None;
        let (store, stats) =
            DiskStore::open(&self.dir, DEFAULT_POOL_FRAMES).map_err(storage_err)?;
        self.store = store;
        self.last_recovery = Some(stats);
        self.resume_load()?;
        self.committed_ops = self.read_log_ops()?;
        // Anything not in the log (an open transaction, an auto-commit whose
        // log batch missed its fsync) is in-flight and lost with the crash.
        self.inner.clear_txn();
        let mut catalog = self.base.clone();
        for op in &self.committed_ops {
            op.apply(&mut catalog);
        }
        self.inner.catalog = catalog;
        Ok(stats)
    }

    /// Catch the store up to the loaded base catalog: recreate missing
    /// tables and insert each table's missing row suffix. Idempotent.
    fn resume_load(&mut self) -> Result<(), EngineError> {
        let mut names = self.base.table_names();
        names.push(DML_LOG_TABLE.to_string());
        let mut created = false;
        for name in &names {
            if !self
                .store
                .tables()
                .iter()
                .any(|t| t.name.eq_ignore_ascii_case(name))
            {
                self.store.create_table(name).map_err(storage_err)?;
                created = true;
            }
        }
        if created {
            self.store.commit().map_err(storage_err)?;
        }
        for name in self.base.table_names() {
            let have = self.store.rows_inserted(&name).map_err(storage_err)? as usize;
            let missing: Vec<Vec<Value>> = self
                .base
                .table(&name)
                .map(|t| t.rows.iter().skip(have).map(|r| r.values.clone()).collect())
                .unwrap_or_default();
            for chunk in missing.chunks(COMMIT_BATCH_ROWS) {
                self.store.insert_batch(&name, chunk).map_err(storage_err)?;
            }
        }
        Ok(())
    }

    /// Decode the committed DML delta out of the log table, in rowid
    /// (= commit) order.
    fn read_log_ops(&mut self) -> Result<Vec<DmlOp>, EngineError> {
        if !self
            .store
            .tables()
            .iter()
            .any(|t| t.name.eq_ignore_ascii_case(DML_LOG_TABLE))
        {
            return Ok(Vec::new());
        }
        let scan = self.store.scan(DML_LOG_TABLE).map_err(storage_err)?;
        scan.into_rows()
            .into_iter()
            .map(|(_, vals)| DmlOp::decode(&vals))
            .collect()
    }

    /// Execute one DML / transaction-control statement. Mutation semantics,
    /// transactions and the DML fault complement are the shared row
    /// implementation ([`Database::execute_dml`]); what this layer adds is
    /// durability: at every commit boundary — `COMMIT`, `ROLLBACK` (which
    /// persists nothing unless a fault leaks a row) and auto-committed
    /// statements outside a transaction — the effective ops are appended to
    /// [`DML_LOG_TABLE`] through the store's full WAL commit protocol, so an
    /// armed [`CrashPoint`] kills the transaction at a real commit boundary.
    pub fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<DmlOutcome, EngineError> {
        if self.store.is_poisoned() {
            return Err(EngineError::Storage(
                "store is poisoned by an injected crash; call recover() first".into(),
            ));
        }
        let out = self.inner.execute_dml(stmt)?;
        let at_commit_boundary = match stmt {
            DmlStmt::Begin => false,
            DmlStmt::Commit | DmlStmt::Rollback => true,
            _ => !self.inner.in_txn(),
        };
        if at_commit_boundary {
            self.persist_ops(&out.ops)?;
        }
        Ok(out)
    }

    /// Execute DML text (parses one statement, then executes).
    pub fn execute_dml_sql(&mut self, sql: &str) -> Result<DmlOutcome, EngineError> {
        let stmt = parse_dml(sql)?;
        self.execute_dml(&stmt)
    }

    /// Is a transaction open on this session?
    pub fn in_txn(&self) -> bool {
        self.inner.in_txn()
    }

    /// Committed DML ops since load (what a crash at this instant would
    /// preserve).
    pub fn committed_ops(&self) -> &[DmlOp] {
        &self.committed_ops
    }

    /// Append `ops` to the log table as one commit batch. Runs the commit
    /// protocol even for an empty delta (an empty `COMMIT` is still a
    /// commit), so an armed crash point always fires at the boundary.
    fn persist_ops(&mut self, ops: &[DmlOp]) -> Result<(), EngineError> {
        if ops.is_empty() {
            self.store.commit().map_err(storage_err)?;
        } else {
            let rows: Vec<Vec<Value>> = ops.iter().map(DmlOp::encode).collect();
            self.store
                .insert_batch(DML_LOG_TABLE, &rows)
                .map_err(storage_err)?;
        }
        self.committed_ops.extend(ops.iter().cloned());
        Ok(())
    }

    /// The plan the (shared) optimizer would choose.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<crate::plan::PhysicalPlan, EngineError> {
        self.inner.plan(stmt)
    }

    /// EXPLAIN: the shared plan plus the disk execution note.
    pub fn explain(&self, stmt: &SelectStmt) -> Result<String, EngineError> {
        let mut out = self.inner.explain(stmt)?;
        out.push_str(&format!(
            "-> executor: disk (B+tree page store, {DEFAULT_POOL_FRAMES}-frame buffer pool, WAL)\n"
        ));
        Ok(out)
    }

    /// Execute a transformed query: apply the hint set's session switches,
    /// splice its hints into the statement, execute, then restore switches.
    pub fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<ExecOutcome, EngineError> {
        let saved = self.inner.switches.clone();
        for s in &hints.switches {
            self.inner.apply_switch(*s);
        }
        let mut hinted = stmt.clone();
        hinted.hints.extend(hints.hints.iter().cloned());
        let out = self.execute(&hinted);
        self.inner.switches = saved;
        out
    }

    /// Execute SQL text (parses, then executes).
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecOutcome, EngineError> {
        let stmt = parse_stmt(sql)?;
        self.execute(&stmt)
    }

    /// Execute a statement: scan every table out of the page store (applying
    /// whatever storage faults the chosen access path exposes), then run the
    /// shared row pipeline over the scanned catalog.
    pub fn execute(&mut self, stmt: &SelectStmt) -> Result<ExecOutcome, EngineError> {
        let plan = self.inner.plan(stmt)?;
        let mut ctx = ExecContext::new(self.inner.profile.faults.clone());
        ctx.switched_off = self.inner.switched_off_names();
        ctx.materialization = self.inner.materialization_enabled(stmt);
        ctx.subquery_present = stmt.has_subquery();
        ctx.semi_strategy = self.inner.semi_strategy(stmt);
        // The shadow row pipeline re-checks per join; this covers the scan.
        ctx.check_cancelled()?;
        let trigger = match plan.joins.first() {
            Some(pj) => ctx.trigger_ctx(pj),
            None => TriggerContext {
                semi_strategy: ctx.semi_strategy,
                materialization: ctx.materialization,
                subquery_present: ctx.subquery_present,
                switched_off: ctx.switched_off.clone(),
                ..Default::default()
            },
        };

        let mut catalog = self.scan_catalog(&trigger, &mut ctx)?;
        // The scan returns base-table content; the session's DML delta —
        // committed ops, then the open transaction's own writes — replays on
        // top. Ops clamp out-of-range indices, so replay stays well-defined
        // even over scans a storage fault corrupted.
        for op in self.committed_ops.iter().chain(self.inner.txn_ops()) {
            op.apply(&mut catalog);
        }
        // The shared pipeline runs over the scanned (possibly corrupted)
        // rows. The shadow's fault set holds only DISK kinds, which no row
        // execution path checks, so nothing extra can fire inside it.
        let mut shadow = self.inner.clone();
        shadow.catalog = catalog;
        let out = shadow.execute(stmt)?;
        let mut fired = ctx.fired;
        for f in out.fired {
            if !fired.contains(&f) {
                fired.push(f);
            }
        }
        Ok(ExecOutcome {
            result: out.result,
            plan: out.plan,
            fired,
            profile: out.profile,
        })
    }

    /// Scan every table out of the store into a fresh catalog, applying the
    /// active storage faults to each scan.
    fn scan_catalog(
        &mut self,
        trigger: &TriggerContext,
        ctx: &mut ExecContext,
    ) -> Result<Catalog, EngineError> {
        let mut catalog = Catalog::new();
        for name in self.inner.catalog.table_names() {
            let scan = self.store.scan(&name).map_err(storage_err)?;
            let rows = faulted_rows(scan, trigger, ctx);
            let src = self
                .inner
                .catalog
                .table(&name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            catalog.add_table(src.with_rows(rows.into_iter().map(Row::new).collect()));
        }
        Ok(catalog)
    }
}

impl Drop for DiskDatabase {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Apply the active disk faults to one table scan and flatten it to rows.
///
/// Each fault corrupts exactly the structure its description names: the
/// stale-frame fault rewinds a leaf to its first-flushed cell count, the
/// split fault drops the high key of split-origin leaves, the torn-write
/// fault halves the tail leaf, the WAL-loss fault erases the last commit
/// batch's rowid range, and the double-replay fault duplicates that batch's
/// first row.
fn faulted_rows(
    scan: TableScan,
    trigger: &TriggerContext,
    ctx: &mut ExecContext,
) -> Vec<Vec<Value>> {
    let torn = ctx.faults.active(FaultKind::DiskTornPageWrite, trigger);
    let wal_lost = ctx
        .faults
        .active(FaultKind::DiskWalLostBeforeFsync, trigger);
    let stale = ctx.faults.active(FaultKind::DiskStaleFrameRead, trigger);
    let split_loss = ctx.faults.active(FaultKind::DiskSplitHighKeyLoss, trigger);
    let double = ctx
        .faults
        .active(FaultKind::DiskRecoveryDoubleReplay, trigger);

    let last_batch_start = scan.last_batch_start;
    let last_batch_rows = scan.last_batch_rows;
    let n_leaves = scan.leaves.len();
    let mut rows: Vec<(u64, Vec<Value>)> = Vec::with_capacity(scan.row_count());
    for (li, leaf) in scan.leaves.into_iter().enumerate() {
        let mut cells = leaf.rows;
        if stale {
            if let Some(c) = leaf.first_flush_cells {
                if c < cells.len() {
                    cells.truncate(c);
                    ctx.fire(FaultKind::DiskStaleFrameRead);
                }
            }
        }
        if split_loss && leaf.split_origin && !cells.is_empty() {
            cells.pop();
            ctx.fire(FaultKind::DiskSplitHighKeyLoss);
        }
        if torn && li + 1 == n_leaves && cells.len() >= 2 {
            let keep = cells.len().div_ceil(2);
            cells.truncate(keep);
            ctx.fire(FaultKind::DiskTornPageWrite);
        }
        rows.extend(cells);
    }
    if wal_lost && last_batch_rows > 0 {
        let lo = last_batch_start;
        let hi = lo + last_batch_rows as u64;
        let before = rows.len();
        rows.retain(|(rid, _)| *rid < lo || *rid >= hi);
        if rows.len() != before {
            ctx.fire(FaultKind::DiskWalLostBeforeFsync);
        }
    }
    if double && last_batch_rows > 0 {
        if let Some(pos) = rows.iter().position(|(rid, _)| *rid == last_batch_start) {
            let dup = rows[pos].clone();
            rows.insert(pos + 1, dup);
            ctx.fire(FaultKind::DiskRecoveryDoubleReplay);
        }
    }
    rows.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::profiles::ProfileId;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Table;

    /// 100-row t1 (NULL every 10th col1) + 25-row t2. Big enough that t1
    /// spans several leaves, splits, and spans three commit batches — so
    /// every storage fault has structure to corrupt.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t1 = Table::new(
            "t1",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Int { unsigned: false }),
            ],
        )
        .with_primary_key(vec!["id"]);
        for i in 1..=100i64 {
            let c = if i % 10 == 0 {
                Value::Null
            } else {
                Value::Int((i % 20) + 1)
            };
            t1.push_row(Row::new(vec![Value::Int(i), c])).unwrap();
        }
        cat.add_table(t1);
        let mut t2 = Table::new(
            "t2",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Varchar(100)),
            ],
        )
        .with_primary_key(vec!["id"]);
        for i in 1..=25i64 {
            t2.push_row(Row::new(vec![Value::Int(i), Value::str(format!("v{i}"))]))
                .unwrap();
        }
        cat.add_table(t2);
        cat
    }

    fn disk(id: ProfileId) -> DiskDatabase {
        DiskDatabase::new(catalog(), DbmsProfile::disk_pristine(id)).unwrap()
    }

    #[test]
    fn scanned_tables_keep_the_loaded_schema_and_rows() {
        let mut cat = catalog();
        let t1 = cat.table_mut("t1").unwrap();
        t1.keys.push(vec!["col1".into()]);
        t1.foreign_keys.push(tqs_storage::ForeignKey {
            columns: vec!["col1".into()],
            ref_table: "t2".into(),
            ref_columns: vec!["id".into()],
        });
        let mut d = DiskDatabase::new(
            cat.clone(),
            DbmsProfile::disk_pristine(ProfileId::MysqlLike),
        )
        .unwrap();
        let mut ctx = ExecContext::new(FaultSet::none());
        let scanned = d
            .scan_catalog(&TriggerContext::default(), &mut ctx)
            .unwrap();
        assert_eq!(scanned.table_names(), cat.table_names());
        for loaded in cat.iter() {
            let t = scanned.table(&loaded.name).unwrap();
            assert_eq!(t.name, loaded.name);
            assert_eq!(t.columns, loaded.columns);
            assert_eq!(t.primary_key, loaded.primary_key);
            assert_eq!(t.keys, loaded.keys);
            assert_eq!(t.foreign_keys, loaded.foreign_keys);
            assert_eq!(t.rows, loaded.rows);
        }
        assert_eq!(scanned.table("t1").unwrap().foreign_keys.len(), 1);
        assert!(ctx.fired.is_empty());
    }

    #[test]
    fn disk_matches_row_engine_when_pristine() {
        let queries = [
            "SELECT t1.id FROM t1 WHERE t1.col1 > 10",
            "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id",
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id",
            "SELECT t1.id FROM t1 WHERE t1.col1 IN (SELECT t2.id FROM t2)",
            "SELECT t2.col1, COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id GROUP BY t2.col1",
            "SELECT DISTINCT t2.col1 FROM t2 JOIN t1 ON t2.id = t1.col1",
        ];
        for id in ProfileId::ALL {
            let mut d = disk(id);
            let row = Database::new(catalog(), DbmsProfile::pristine(id));
            for q in queries {
                let a = d.execute_sql(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                let b = row.execute_sql(q).unwrap();
                assert!(
                    a.result.same_bag(&b.result),
                    "{id:?} diverged on {q}: disk {} vs row {}",
                    a.result.pretty(),
                    b.result.pretty()
                );
                assert!(a.fired.is_empty());
            }
        }
    }

    #[test]
    fn each_disk_fault_fires_and_corrupts_the_answer() {
        // (fault, profile whose default access path exposes it, query)
        let join = "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id";
        let cases = [
            (FaultKind::DiskTornPageWrite, ProfileId::MysqlLike, join),
            (
                FaultKind::DiskWalLostBeforeFsync,
                ProfileId::MysqlLike,
                join,
            ),
            (FaultKind::DiskStaleFrameRead, ProfileId::MysqlLike, join),
            (FaultKind::DiskSplitHighKeyLoss, ProfileId::TidbLike, join),
            (
                FaultKind::DiskRecoveryDoubleReplay,
                ProfileId::MysqlLike,
                "SELECT t1.id FROM t1 WHERE t1.col1 IN (SELECT t2.id FROM t2)",
            ),
        ];
        for (kind, id, q) in cases {
            let mut seeded = DiskDatabase::new(
                catalog(),
                DbmsProfile {
                    faults: FaultSet::of(&[kind]),
                    ..DbmsProfile::disk(id)
                },
            )
            .unwrap();
            let mut clean = disk(id);
            let out = seeded.execute_sql(q).unwrap();
            let good = clean.execute_sql(q).unwrap();
            assert!(out.fired.contains(&kind), "{kind:?} did not fire on {q}");
            assert!(
                !out.result.same_bag(&good.result),
                "{kind:?} fired but did not corrupt the answer to {q}"
            );
        }
    }

    #[test]
    fn faults_do_not_fire_without_their_access_path() {
        // A single-table scan has no join algorithm to key on: the torn-write
        // and stale-frame faults stay dormant even on a seeded build.
        let mut seeded =
            DiskDatabase::new(catalog(), DbmsProfile::disk(ProfileId::MysqlLike)).unwrap();
        let mut clean = disk(ProfileId::MysqlLike);
        let q = "SELECT t1.id FROM t1 WHERE t1.col1 > 3";
        let out = seeded.execute_sql(q).unwrap();
        let good = clean.execute_sql(q).unwrap();
        assert!(out.fired.is_empty(), "fired: {:?}", out.fired);
        assert!(out.result.same_bag(&good.result));
    }

    #[test]
    fn explain_mentions_the_disk_executor() {
        let db = disk(ProfileId::TidbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let e = db.explain(&stmt).unwrap();
        assert!(e.contains("executor: disk"), "{e}");
    }

    #[test]
    fn dml_persists_and_matches_the_row_engine() {
        let mut d = disk(ProfileId::MysqlLike);
        let mut row = Database::new(catalog(), DbmsProfile::pristine(ProfileId::MysqlLike));
        let program = [
            "INSERT INTO t2 (id, col1) VALUES (26, 'v26'), (27, 'v27')",
            "BEGIN",
            "UPDATE t1 SET col1 = 99 WHERE t1.id BETWEEN 1 AND 3",
            "DELETE FROM t2 WHERE t2.id = 27",
            "COMMIT",
            "BEGIN",
            "DELETE FROM t1 WHERE t1.col1 = 99",
            "ROLLBACK",
        ];
        for sql in program {
            let a = d
                .execute_dml_sql(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let b = row.execute_dml_sql(sql).unwrap();
            assert_eq!(a.rows_affected, b.rows_affected, "{sql}");
        }
        let q = "SELECT t1.id, t1.col1 FROM t1 WHERE t1.col1 = 99";
        let a = d.execute_sql(q).unwrap();
        let b = row.execute_sql(q).unwrap();
        assert!(a.result.same_bag(&b.result), "post-DML scans diverged");
        // The delta survives a clean close/reopen cycle byte-for-byte.
        let before = d.execute_sql("SELECT t2.id FROM t2").unwrap();
        d.recover().unwrap();
        let after = d.execute_sql("SELECT t2.id FROM t2").unwrap();
        assert!(before.result.same_bag(&after.result));
    }

    #[test]
    fn crash_at_dml_commit_loses_exactly_the_inflight_txn() {
        for point in CrashPoint::ALL {
            let mut d = disk(ProfileId::MysqlLike);
            d.execute_dml_sql("INSERT INTO t2 (id, col1) VALUES (26, 'keep')")
                .unwrap();
            d.execute_dml_sql("BEGIN").unwrap();
            d.execute_dml_sql("INSERT INTO t2 (id, col1) VALUES (27, 'maybe')")
                .unwrap();
            d.arm_crash(point);
            let err = d.execute_dml_sql("COMMIT").unwrap_err();
            assert!(matches!(&err, EngineError::Storage(m) if m.contains("injected crash")));
            assert!(d.is_poisoned());
            assert!(d
                .execute_dml_sql("INSERT INTO t2 (id, col1) VALUES (28, 'no')")
                .is_err());
            d.recover().unwrap();
            let rows = d
                .execute_sql("SELECT t2.id FROM t2 WHERE t2.id > 25")
                .unwrap()
                .result;
            // The WAL fsync is the commit point: batches killed before it
            // vanish, batches killed after it survive — but the pre-crash
            // auto-commit is always there.
            let expect: &[i64] = if point.batch_is_committed() {
                &[26, 27]
            } else {
                &[26]
            };
            let got: Vec<i64> = rows
                .rows
                .iter()
                .map(|r| match r.get(0) {
                    Value::Int(i) => *i,
                    other => panic!("{other}"),
                })
                .collect();
            let mut got = got;
            got.sort_unstable();
            assert_eq!(got, expect, "{point}");
            assert!(!d.in_txn(), "{point}: recovery must drop the open txn");
        }
    }

    #[test]
    fn crash_mid_load_poisons_then_recovery_resumes_the_load() {
        for point in CrashPoint::ALL {
            let mut db = disk(ProfileId::MysqlLike);
            db.arm_crash(point);
            let err = db.load_catalog(catalog()).unwrap_err();
            assert!(
                matches!(&err, EngineError::Storage(m) if m.contains("injected crash")),
                "{point}: {err}"
            );
            assert!(db.is_poisoned());
            assert!(matches!(
                db.execute_sql("SELECT t1.id FROM t1"),
                Err(EngineError::Storage(_))
            ));
            let stats = db.recover().unwrap();
            assert_eq!(db.last_recovery(), Some(stats));
            let row = Database::new(catalog(), DbmsProfile::pristine(ProfileId::MysqlLike));
            let q = "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id";
            let a = db.execute_sql(q).unwrap();
            let b = row.execute_sql(q).unwrap();
            assert!(
                a.result.same_bag(&b.result),
                "{point}: post-recovery answers diverged"
            );
        }
    }
}
