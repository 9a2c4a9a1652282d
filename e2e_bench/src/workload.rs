//! The benchmark's three workloads, each a point of the paper's
//! figures, and the input generator they share.

use std::sync::Arc;

use strata::collector::{OtImageCollector, PrintingParameterCollector};
use strata::usecase::thermal::{CorrelatorOptions, ThermalPipelineOptions};
use strata::AmTuple;
use strata_amsim::scan::ScanSchedule;
use strata_amsim::PbfLbMachine;
use strata_bench::workload::{bench_machine, bench_machine_scheduled, BenchScale};

/// Instances of `isolateCell` and `labelCell`, as the figure
/// experiments run them.
pub const PARALLELISM: usize = 2;

/// The fewest layers an open-loop round replays, however short the run.
const MIN_LAYERS: u32 = 4;

/// One workload: a pipeline configuration and how its input is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Cell edge in paper pixels (2000-px frame), rendered at the
    /// reduced 1000-px scale.
    pub paper_cell_px: u32,
    /// `correlateEvents` depth `L`.
    pub depth_l: u32,
    /// Figures 5–6's dense, constant-angle defect field instead of the
    /// default `bench_machine` field.
    pub dense_defects: bool,
    /// Connectors cross a loopback TCP broker server instead of the
    /// in-process broker.
    pub remote: bool,
    /// Offered OT images per second (open loop); 0 offers them as fast
    /// as the pipeline accepts them.
    pub rate: f64,
    /// Layers per round when `rate` is 0.
    pub burst_layers: u32,
}

/// The workloads, by name.
pub const WORKLOADS: [Workload; 3] = [
    // Figure 5's limit case: ~240 k cells per image put the work in the
    // SPE's per-tuple path and in isolateCell/labelCell.
    Workload {
        name: "fine_cells_live",
        paper_cell_px: 2,
        depth_l: 20,
        dense_defects: true,
        remote: false,
        rate: 0.4,
        burst_layers: 0,
    },
    // Figure 7's plateau over TCP: every 1 MB image crosses two
    // connector hops, while only 2.4 k cells per image are computed.
    Workload {
        name: "coarse_tcp_burst",
        paper_cell_px: 20,
        depth_l: 20,
        dense_defects: false,
        remote: true,
        rate: 0.0,
        burst_layers: 50,
    },
    // Figure 6: ~1 k small event records per layer cross the event
    // connector, and DBSCAN clusters windows of up to L + 1 layers.
    Workload {
        name: "deep_window_live",
        paper_cell_px: 4,
        depth_l: 40,
        dense_defects: true,
        remote: false,
        rate: 1.5,
        burst_layers: 0,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether layers are offered on a fixed schedule.
    pub fn open_loop(&self) -> bool {
        self.rate > 0.0
    }

    /// Cell edge in pixels at the reduced scale.
    pub fn cell_px(&self) -> u32 {
        BenchScale::Reduced.cell_px(self.paper_cell_px)
    }

    /// The simulated machine printing job `job`, the workload seed.
    pub fn machine(&self, job: u32) -> Arc<PbfLbMachine> {
        if self.dense_defects {
            bench_machine_scheduled(job, BenchScale::Reduced, 30.0, ScanSchedule::new(90.0, 0.0))
        } else {
            bench_machine(job, BenchScale::Reduced)
        }
    }

    /// Layers one measured round replays: `seconds` of the open-loop
    /// schedule, or the burst's fixed round.
    pub fn layers(&self, seconds: f64) -> u32 {
        if self.open_loop() {
            ((seconds * self.rate).round() as u32).max(MIN_LAYERS)
        } else {
            self.burst_layers
        }
    }

    /// `deploy_pipeline`'s options: layers `0..layers` replayed at
    /// `rate` images/s, everything else at its default.
    pub fn options(&self, layers: u32, rate: f64) -> ThermalPipelineOptions {
        ThermalPipelineOptions {
            cell_px: self.cell_px(),
            depth_l: self.depth_l,
            layers: 0..layers,
            parallelism: PARALLELISM,
            offered_rate: Some(rate),
            ..ThermalPipelineOptions::default()
        }
    }
}

/// When layer `k` is due: `t0_ns` plus `k / rate` seconds, or `t0_ns`
/// for every layer of a burst (`rate` 0).
pub fn due_ns(t0_ns: u64, k: u32, rate: f64) -> u64 {
    if rate > 0.0 {
        t0_ns + (f64::from(k) * 1e9 / rate).round() as u64
    } else {
        t0_ns
    }
}

/// The pre-fused layer tuple `deploy_pipeline` replays at an offered
/// rate: the OT image merged with the layer's printing parameters.
pub fn fused_tuple(machine: &PbfLbMachine, layer: u32) -> AmTuple {
    let mut tuple = OtImageCollector::layer_tuple(machine, layer);
    tuple
        .payload_mut()
        .merge(PrintingParameterCollector::layer_tuple(machine, layer).payload());
    tuple
}

/// The correlator options `deploy_pipeline` derives for `cell_px`: ε
/// from the cell edge in mm (recovered from the machine's specimen
/// layout) and the machine's layer pitch.
pub fn correlator_options(machine: &PbfLbMachine, cell_px: u32) -> CorrelatorOptions {
    let widest = machine
        .printing_parameters(0)
        .specimen_px
        .iter()
        .map(|&(_, _, _, w, _)| w)
        .max()
        .unwrap_or(1);
    let mm_per_px = machine.plan().specimens()[0].rect.w / f64::from(widest);
    let mut options = CorrelatorOptions::for_cell_mm(f64::from(cell_px) * mm_per_px);
    options.layer_pitch_mm = machine.plan().layer_thickness_mm();
    options.render_image = false;
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_offered_rate() {
        assert_eq!(due_ns(1_000, 0, 0.4), 1_000);
        assert_eq!(due_ns(1_000, 3, 0.4), 1_000 + 7_500_000_000);
        assert_eq!(due_ns(1_000, 6, 1.5), 1_000 + 4_000_000_000);
        assert_eq!(due_ns(1_000, 9, 0.0), 1_000, "a burst is due at once");
    }

    #[test]
    fn workloads_resolve_by_name_and_size_their_rounds() {
        let fine = Workload::by_name("fine_cells_live").unwrap();
        assert_eq!(fine.cell_px(), 1);
        assert_eq!(fine.layers(30.0), 12);
        assert_eq!(fine.layers(1.0), MIN_LAYERS);
        let burst = Workload::by_name("coarse_tcp_burst").unwrap();
        assert!(!burst.open_loop());
        assert_eq!(burst.cell_px(), 10);
        assert_eq!(burst.layers(30.0), burst.burst_layers);
        assert_eq!(Workload::by_name("deep_window_live").unwrap().cell_px(), 2);
        assert!(Workload::by_name("nope").is_none());
    }
}
