//! Per-cell cost of the use-case's `isolateCell` and `labelCell`
//! (Algorithm 1, lines 5–6) on one rendered reduced-scale OT image,
//! at cell edges of 1, 2 and 10 px (the 2×2, 4×4 and 20×20 paper-px
//! cells of Figures 5–7). Each pass splits every specimen of the image
//! into cells, labels every cell, and drops the cells and events;
//! `labelCell`'s figure includes that drop, as the pipeline's label
//! node pays it. The harness prints the median of several passes and
//! writes `BENCH_cells.json` at the repository root:
//!
//! ```text
//! cargo bench -p strata-bench --bench cells
//! ```
//!
//! The checked-in `BENCH_cells.json` instead lists, side by side, runs
//! of this command before and after payloads became a sorted vector
//! (the bench uses only functions both versions have).

use std::hint::black_box;
use std::time::Instant;

use strata::collector::{OtImageCollector, PrintingParameterCollector};
use strata::usecase::thermal::{
    isolate_cell, isolate_specimen, label_cell, reference_thresholds, seed_thresholds,
};
use strata::{AmTuple, Strata, StrataConfig};
use strata_amsim::ThermalModel;
use strata_bench::workload::{bench_machine, BenchScale};

const CELL_PX: [u32; 3] = [1, 2, 10];
const PASSES: usize = 7;

/// The specimen tuples `isolateSpecimen` cuts from layer 0's fused
/// OT image and printing parameters.
fn specimens() -> Vec<AmTuple> {
    let machine = bench_machine(7, BenchScale::Reduced);
    let mut fused = OtImageCollector::layer_tuple(&machine, 0);
    fused
        .payload_mut()
        .merge(PrintingParameterCollector::layer_tuple(&machine, 0).payload());
    isolate_specimen(machine.plan().plate_mm())(&fused)
}

/// One pass over every specimen: cells made, and the ns spent in
/// `isolateCell` and in `labelCell` plus the drops.
fn pass(
    specimens: &[AmTuple],
    isolate: &mut impl FnMut(&AmTuple) -> Vec<AmTuple>,
    label: &mut impl FnMut(&AmTuple) -> Option<Vec<AmTuple>>,
) -> (usize, u128, u128) {
    let (mut cells, mut isolate_ns, mut label_ns) = (0, 0, 0);
    for specimen in specimens {
        let started = Instant::now();
        let out = isolate(black_box(specimen));
        let isolated = Instant::now();
        for cell in &out {
            black_box(label(cell));
        }
        cells += out.len();
        drop(out);
        label_ns += isolated.elapsed().as_nanos();
        isolate_ns += (isolated - started).as_nanos();
    }
    (cells, isolate_ns, label_ns)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let strata = Strata::new(StrataConfig::default()).expect("in-memory STRATA instance");
    seed_thresholds(&strata, reference_thresholds(&ThermalModel::default()))
        .expect("thresholds stored");
    let specimens = specimens();

    let rows: Vec<String> = CELL_PX
        .iter()
        .map(|&cell_px| {
            let mut isolate = isolate_cell(&strata, cell_px);
            let mut label = label_cell(&strata);
            // The first pass loads the thresholds and warms the allocator.
            pass(&specimens, &mut isolate, &mut label);
            let (mut isolate_ns, mut label_ns, mut cells) = (Vec::new(), Vec::new(), 0);
            for _ in 0..PASSES {
                let (n, i, l) = pass(&specimens, &mut isolate, &mut label);
                cells = n;
                isolate_ns.push(i as f64 / n as f64);
                label_ns.push(l as f64 / n as f64);
            }
            let (isolate_ns, label_ns) = (median(isolate_ns), median(label_ns));
            println!(
                "cells/cell_px={cell_px}: {cells} cells per image, \
                 isolate_cell {isolate_ns:.1} ns/cell, label_cell {label_ns:.1} ns/cell"
            );
            format!(
                "    {{ \"cell_px\": {cell_px}, \"cells_per_image\": {cells}, \
                 \"isolate_cell_ns_per_cell\": {isolate_ns:.1}, \
                 \"label_cell_ns_per_cell\": {label_ns:.1} }}"
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"bench\": \"cells\",\n  \"command\": \"cargo bench -p strata-bench --bench cells\",\n  \
         \"image\": \"layer 0 of bench_machine(7, BenchScale::Reduced), all specimens\",\n  \
         \"passes\": {PASSES},\n  \"unit\": \"ns per cell, median of passes\",\n  \
         \"datapoints\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cells.json");
    std::fs::write(path, doc).expect("BENCH_cells.json written");
    println!("wrote {path}");
}
