//! The minimizers' contract: their input is a statement the oracle has just
//! reported, so they never re-check it, and they reduce it to the same
//! reproducer as a minimizer that did.
//!
//! `tests/fixtures/minimizer_contract/minimized.sql` holds, for the first
//! [`FAILING`] failing statements of a fixed generator seed on the faulty
//! MySQL-like row build, the reproducer of each minimizer path (two lines per
//! statement: `minimize_with_oracle` over the ground-truth oracle, then the
//! `minimize_query` output the oracle itself attaches with minimization on).
//! It was recorded by the minimizer that re-checked its input first.

use std::sync::Arc;
use tqs_core::backend::{DbmsConnector, EngineConnector};
use tqs_core::bugs::minimize_with_oracle;
use tqs_core::dsg::WideSource;
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer};
use tqs_core::oracle::{Oracle, OracleVerdict, TqsOracle};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_sql::ast::SelectStmt;
use tqs_sql::render::render_stmt;
use tqs_storage::widegen::ShoppingConfig;

/// Failing statements compared against the fixture.
const FAILING: usize = 12;

const FIXTURE: &str = include_str!("fixtures/minimizer_contract/minimized.sql");

fn dsg() -> Arc<DsgDatabase> {
    Arc::new(DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 90,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 9,
            max_injections: 10,
        }),
    }))
}

/// Wraps an oracle and records the rendered SQL of every statement it checks.
struct Recording<O> {
    inner: O,
    seen: Vec<String>,
}

impl<O: Oracle> Oracle for Recording<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        self.seen.push(render_stmt(stmt));
        self.inner.check(stmt, conn)
    }
}

/// The first `n` statements of the fixed stream that the faulty build fails.
fn failing_statements(d: &Arc<DsgDatabase>, n: usize) -> Vec<SelectStmt> {
    let mut oracle = TqsOracle::shared(Arc::clone(d));
    let mut conn = EngineConnector::connect(ProfileId::MysqlLike, d);
    let mut generator = QueryGenerator::new(QueryGenConfig {
        seed: 7,
        ..Default::default()
    });
    let mut out = Vec::new();
    for _ in 0..2_000 {
        let stmt = generator.generate(d, None, &UniformScorer);
        if matches!(oracle.check(&stmt, &mut conn), OracleVerdict::Bugs(_)) {
            out.push(stmt);
            if out.len() == n {
                return out;
            }
        }
    }
    panic!("only {} failing statements in the stream", out.len());
}

#[test]
fn minimizer_never_rechecks_its_input() {
    let d = dsg();
    let mut conn = EngineConnector::connect(ProfileId::MysqlLike, &d);
    for stmt in failing_statements(&d, FAILING) {
        let input = render_stmt(&stmt);
        let mut oracle = Recording {
            inner: TqsOracle::shared(Arc::clone(&d)),
            seen: Vec::new(),
        };
        let minimized = minimize_with_oracle(&stmt, &mut oracle, &mut conn);
        assert!(
            !oracle.seen.contains(&input),
            "the minimizer re-checked its input: {input}"
        );
        assert!(minimized.from.joins.len() <= stmt.from.joins.len());
    }
}

#[test]
fn minimized_reproducers_match_the_recorded_fixture() {
    let d = dsg();
    let mut conn = EngineConnector::connect(ProfileId::MysqlLike, &d);
    let mut minimizing = TqsOracle::shared(Arc::clone(&d)).with_minimize(true);
    let mut got = Vec::new();
    for stmt in failing_statements(&d, FAILING) {
        let mut oracle = TqsOracle::shared(Arc::clone(&d));
        got.push(render_stmt(&minimize_with_oracle(
            &stmt,
            &mut oracle,
            &mut conn,
        )));
        let OracleVerdict::Bugs(reports) = minimizing.check(&stmt, &mut conn) else {
            panic!(
                "a failing statement stopped failing: {}",
                render_stmt(&stmt)
            );
        };
        got.push(
            reports[0]
                .minimized_sql
                .clone()
                .expect("minimization on attaches a reproducer"),
        );
    }
    let expected: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "reproducer {i} drifted from the recorded fixture");
    }
}
