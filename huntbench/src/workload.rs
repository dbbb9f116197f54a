//! The workloads: their fixed grids and budgets, and the inputs each
//! derives from the run's seed. The per-cell budget is part of a workload's
//! identity (per-query cost grows with it, because KQE steers each cell
//! toward larger join graphs), so it is a constant here, never a run-length
//! dial.

use std::path::PathBuf;
use tqs_campaign::{CampaignConfig, EngineKind, OracleSpec, PlanMode, Workload};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

/// Worker threads of the campaign workloads. One: on a 2-core box shared
/// with other tenants, two workers made every figure follow the neighbours'
/// load (`dml_txn` rates spread 0.26 across ten seeds with two workers and
/// 0.04 across six with one).
pub const WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Campaign::run` over a CI-shaped hunt grid: single-plan mode, faulty
    /// MySQL-like and TiDB-like builds, row and disk engines, ground-truth
    /// and three-way oracles, minimization on.
    SelectHunt,
    /// `Campaign::run` over DML + transaction programs on faulty MySQL-like
    /// row and columnar builds.
    DmlTxn,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::SelectHunt, Kind::DmlTxn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SelectHunt => "select_hunt",
            Kind::DmlTxn => "dml_txn",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Units an untraced run of `seconds` measures. The count is fixed by
    /// the run length alone, so a seed always names the same inputs; the
    /// rates were calibrated on a 2-core x86-64 box so that a run measures
    /// for about `seconds` there.
    pub fn units(self, seconds: f64) -> usize {
        let per_second = match self {
            Kind::SelectHunt => 0.8,
            Kind::DmlTxn => 2.2,
        };
        (seconds * per_second).round() as usize
    }
}

/// The seed of unit `unit` of a run seeded with `seed`. A run measures
/// units 0, 1, 2, … in order, each with its own testing database and
/// statement streams, so one run averages over many independent inputs.
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    let mut x = seed ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The testing database: the shopping-order wide table with 4% key noise,
/// both generated from the run's seed.
pub fn dsg(rows: usize, seed: u64) -> DsgConfig {
    DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: rows,
            seed,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: seed ^ 0xABCD,
            max_injections: 32,
        }),
    }
}

/// The campaign grid of a campaign workload, hunting in `dir`.
pub fn campaign_config(kind: Kind, seed: u64, dir: PathBuf, workers: usize) -> CampaignConfig {
    let base = CampaignConfig {
        dir,
        workers,
        seed,
        max_cells_per_run: None,
        supervisor: Default::default(),
        ..Default::default()
    };
    match kind {
        Kind::SelectHunt => CampaignConfig {
            dsg: dsg(64, seed),
            shards: 4,
            profiles: vec![ProfileId::MysqlLike, ProfileId::TidbLike],
            oracles: vec![OracleSpec::GroundTruth, OracleSpec::ThreeWay],
            engines: vec![EngineKind::Row, EngineKind::Disk],
            plan_modes: vec![PlanMode::Single],
            workloads: vec![Workload::Select],
            queries_per_cell: 8,
            minimize: true,
            ..base
        },
        Kind::DmlTxn => CampaignConfig {
            dsg: dsg(160, seed),
            shards: 4,
            profiles: vec![ProfileId::MysqlLike],
            oracles: vec![OracleSpec::GroundTruth],
            engines: vec![EngineKind::Row, EngineKind::Columnar],
            plan_modes: vec![PlanMode::Single],
            workloads: vec![Workload::Dml],
            queries_per_cell: 120,
            minimize: false,
            ..base
        },
    }
}
