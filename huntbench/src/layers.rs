//! Wrappers that time the program's layers from outside: a timing
//! [`DbmsConnector`] around every engine build and a counting [`Oracle`]
//! around every verdict procedure. Both forward every call unchanged, so
//! the hunt they wrap makes the same calls in the same order.

use crate::trace;
use tqs_core::backend::{ConnectorError, ConnectorInfo, DbmsConnector, SqlOutcome};
use tqs_core::oracle::{Oracle, OracleVerdict};
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::hints::HintSet;
use tqs_storage::Catalog;
use tqs_telemetry::QueryProfile;

/// Which side of a differential check an engine build is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineRole {
    /// The build under test (`engine.exec` spans).
    UnderTest,
    /// A pristine reference owned by a differential oracle
    /// (`engine.ref_exec` spans).
    Reference,
}

/// Times every call into an engine build: SELECT execution, DML execution
/// and catalog loads each get their own span, and returned rows are counted.
pub struct TimedConnector<C> {
    inner: C,
    role: EngineRole,
}

impl<C: DbmsConnector> TimedConnector<C> {
    pub fn new(inner: C, role: EngineRole) -> Self {
        TimedConnector { inner, role }
    }

    fn exec_span(&self) -> trace::SpanGuard {
        trace::span(match self.role {
            EngineRole::UnderTest => "engine.exec",
            EngineRole::Reference => "engine.ref_exec",
        })
    }

    fn counted(
        &self,
        out: Result<SqlOutcome, ConnectorError>,
    ) -> Result<SqlOutcome, ConnectorError> {
        trace::count("engine.statements", 1);
        if let Ok(o) = &out {
            trace::count("engine.rows_out", o.result.row_count() as u64);
        }
        out
    }
}

impl<C: DbmsConnector> DbmsConnector for TimedConnector<C> {
    fn info(&self) -> ConnectorInfo {
        self.inner.info()
    }

    fn load_catalog(&mut self, catalog: &Catalog) -> Result<(), ConnectorError> {
        let _s = trace::span("engine.load");
        self.inner.load_catalog(catalog)
    }

    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError> {
        let out = {
            let _s = self.exec_span();
            self.inner.execute_with_hints(stmt, hints)
        };
        self.counted(out)
    }

    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError> {
        let _s = self.exec_span();
        self.inner.explain(stmt)
    }

    fn execute(&mut self, stmt: &SelectStmt) -> Result<SqlOutcome, ConnectorError> {
        let out = {
            let _s = self.exec_span();
            self.inner.execute(stmt)
        };
        self.counted(out)
    }

    fn execute_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        let out = {
            let _s = self.exec_span();
            self.inner.execute_sql(sql)
        };
        self.counted(out)
    }

    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<SqlOutcome, ConnectorError> {
        trace::count("engine.dml_statements", 1);
        let _s = trace::span("engine.dml");
        self.inner.execute_dml(stmt)
    }

    fn execute_dml_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        trace::count("engine.dml_statements", 1);
        let _s = trace::span("engine.dml");
        self.inner.execute_dml_sql(sql)
    }

    fn query_profile(&self) -> Option<QueryProfile> {
        self.inner.query_profile()
    }
}

/// Counts and times every verdict: one `oracle.check` span per call, with
/// the engine spans of the executions it makes nested inside.
pub struct CountingOracle {
    inner: Box<dyn Oracle>,
    checks: usize,
}

impl CountingOracle {
    pub fn new(inner: Box<dyn Oracle>) -> Self {
        CountingOracle { inner, checks: 0 }
    }

    /// Verdicts asked for so far.
    pub fn checks(&self) -> usize {
        self.checks
    }
}

impl Oracle for CountingOracle {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        self.checks += 1;
        trace::count("oracle.checks", 1);
        let _s = trace::span("oracle.check");
        self.inner.check(stmt, conn)
    }

    fn plans_enumerated(&self) -> usize {
        self.inner.plans_enumerated()
    }
}
