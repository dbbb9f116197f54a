//! Property test for the plan-space soundness contract: on pristine builds,
//! **every** plan the optimizer enumerates for a generated statement returns
//! the same result bag — across plans (join order, per-join algorithm,
//! subquery strategy) and across all three engines (row, columnar, disk) —
//! and that bag is the unhinted baseline's. Any counterexample would mean an
//! enumerated hint set changes query semantics, which is exactly the defect
//! class the plan-space oracle is built to hunt; here there are no seeded
//! faults, so the space must be silent.

use proptest::prelude::*;
use std::sync::Arc;
use tqs_campaign::EngineKind;
use tqs_core::backend::DbmsConnector;
use tqs_core::dsg::WideSource;
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer};
use tqs_core::oracle::{Oracle, OracleVerdict, PlanSpaceOracle};
use tqs_engine::{FaultSet, ProfileId};
use tqs_optimizer::PlanSpace;
use tqs_schema::NoiseConfig;
use tqs_sql::hints::HintSet;
use tqs_storage::widegen::ShoppingConfig;

fn dsg() -> &'static Arc<DsgDatabase> {
    static DSG: std::sync::OnceLock<Arc<DsgDatabase>> = std::sync::OnceLock::new();
    DSG.get_or_init(|| {
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
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_enumerated_plan_agrees_on_every_engine(seed in 0u64..1_000_000) {
        let dsg = dsg();
        let mut generator = QueryGenerator::new(QueryGenConfig {
            seed,
            ..Default::default()
        });
        let stmt = generator.generate(dsg, None, &UniformScorer);
        let space = PlanSpace::enumerate(&stmt, &dsg.db.catalog, &FaultSet::none());
        prop_assert!(space.rewrite_fired.is_empty());
        prop_assert!(space.cost_fired.is_empty());
        prop_assert!(!space.plans.is_empty());

        // The unhinted original statement on the row engine is the
        // reference bag every (plan, engine) execution must reproduce.
        let mut row = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, dsg);
        let reference = match row.execute_with_hints(&stmt, &HintSet::new("baseline")) {
            Ok(out) => out.result,
            // A statement the engine cannot execute cannot be plan-hunted;
            // nothing to compare.
            Err(_) => return Ok(()),
        };

        for engine in EngineKind::ALL {
            let mut conn = engine.connect_pristine(ProfileId::MysqlLike, dsg);
            for plan in &space.plans {
                prop_assert_eq!(&plan.hints, &plan.intended);
                prop_assert!(plan.fired.is_empty());
                let out = conn
                    .execute_with_hints(&space.stmt, &plan.hints)
                    .expect("pristine build executes every enumerated plan");
                prop_assert!(
                    out.fired.is_empty(),
                    "no faults on a pristine {} build",
                    engine.label()
                );
                prop_assert!(
                    out.result.same_bag(&reference),
                    "plan {} on {} diverged from the unhinted baseline\nsql: {}",
                    plan.label(),
                    engine.label(),
                    tqs_sql::render::render_stmt(&space.stmt),
                );
            }
        }
    }
}

/// Regression: the optimizer's rewrite moves `T4.userId IS NULL` into the
/// later INNER join's ON clause, and the engines' outer-join simplification
/// once read any mention of `T4` there as null-rejecting, turning the LEFT
/// OUTER join into an inner one and emptying those plans' results.
#[test]
fn is_null_moved_into_a_later_inner_join_keeps_the_left_join() {
    let stmt = tqs_sql::parser::parse_stmt(
        "SELECT T2.goodsId, T1.orderDate FROM T1 \
         LEFT OUTER JOIN T4 ON T1.userId = T4.userId \
         INNER JOIN T2 ON T1.goodsId = T2.goodsId \
         WHERE T4.userId IS NULL",
    )
    .unwrap();
    for noise_seed in [1, 3, 7, 9] {
        let dsg = Arc::new(DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 90,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: noise_seed,
                max_injections: 10,
            }),
        }));
        for engine in EngineKind::ALL {
            let mut conn = engine.connect_pristine(ProfileId::MysqlLike, &dsg);
            let mut oracle = PlanSpaceOracle::shared(Arc::clone(&dsg));
            match oracle.check(&stmt, &mut conn) {
                OracleVerdict::Pass => {}
                OracleVerdict::Bugs(reports) => panic!(
                    "noise seed {noise_seed}, pristine {}: {} plans diverged, first: {}",
                    engine.label(),
                    reports.len(),
                    reports[0].transformed_sql
                ),
                OracleVerdict::Skip => panic!("noise seed {noise_seed}: statement skipped"),
            }
        }
    }
}
