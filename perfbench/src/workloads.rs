//! The three workloads: what each one configures and how many rounds it
//! times. Every config derives from the command-line seed alone; the
//! program under test only ever sees the resulting [`SimConfig`].

use gluefl_core::{GlueFlParams, SimConfig, StrategyConfig, WireCodec, WirePolicy};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

/// Round size `K` of the two simulator workloads (FEMNIST's §5.1 value).
const SIM_K: usize = 30;

/// Round timings need at least ten samples beyond the reported p90.
const MIN_TIMED_ROUNDS: u32 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimFemnist,
    SimWideQuant,
    Loopback,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimFemnist,
        Workload::SimWideQuant,
        Workload::Loopback,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimFemnist => "sim-femnist",
            Workload::SimWideQuant => "sim-wide-quant",
            Workload::Loopback => "loopback",
        }
    }

    /// Untimed rounds run after construction and counted in `setup_s`:
    /// they fill the scratch pools and the strategies' lazy state.
    pub fn warmup_rounds(self) -> u32 {
        match self {
            Workload::SimFemnist | Workload::SimWideQuant => 2,
            Workload::Loopback => 10,
        }
    }

    /// Timed rounds of one run: a fixed count per second of `--seconds`,
    /// sized so the window lasts about that long on a 2-core x86-64 VM.
    /// Fixing the count (rather than stopping on a clock) keeps every
    /// byte, accuracy and loss figure a pure function of the seed, so
    /// two builds with the same arithmetic report them identically.
    pub fn timed_rounds(self, seconds: u32) -> u32 {
        let per_second = match self {
            Workload::SimFemnist => 8.0,
            Workload::SimWideQuant => 5.5,
            Workload::Loopback => 350.0,
        };
        ((per_second * f64::from(seconds)).round() as u32).max(MIN_TIMED_ROUNDS)
    }

    /// The workload's full program config for `seed`. `rounds` bounds
    /// the socket session; the simulator workloads step past it freely.
    pub fn config(self, seed: u64, rounds: u32) -> SimConfig {
        match self {
            Workload::SimFemnist => sim_femnist(seed),
            Workload::SimWideQuant => {
                let mut cfg = sim_femnist(seed);
                cfg.model.hidden = vec![512, 256];
                cfg.local_steps = 1;
                cfg.wire = WirePolicy::entropy(WireCodec::QuantU8);
                cfg
            }
            Workload::Loopback => loopback(seed, rounds),
        }
    }
}

/// The paper's FEMNIST/ShuffleNet GlueFL setup at 10% population scale:
/// 280 clients with availability churn, K = 30, OC 1.3, E = 10 and the
/// legacy F32 wire. The benchmark evaluates once after the timed window,
/// so in-round evaluation is switched off.
fn sim_femnist(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::GlueFl(GlueFlParams::paper_default(SIM_K, DatasetModel::ShuffleNet)),
        0.1,
        u32::MAX,
        seed,
    );
    cfg.eval_every = u32::MAX;
    cfg
}

/// Two always-online clients on the FEMNIST/ShuffleNet model shape:
/// GlueFL with one sticky and one fresh client per round, K = 2, no
/// over-commitment, E = 1, legacy F32 wire. The server evaluates on the
/// final round only, after the last timed INVITE has arrived.
fn loopback(seed: u64, rounds: u32) -> SimConfig {
    let params = GlueFlParams {
        sticky_group: 1,
        sticky_draw: 1,
        ..GlueFlParams::paper_default(2, DatasetModel::ShuffleNet)
    };
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::GlueFl(params),
        0.1,
        rounds,
        seed,
    );
    cfg.dataset.clients = 2;
    cfg.round_size = 2;
    cfg.oc = 1.0;
    cfg.local_steps = 1;
    cfg.availability = None;
    cfg.eval_every = rounds;
    cfg
}
