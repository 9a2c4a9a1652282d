//! Memory per cell stays bounded: `isolateCell` makes one heap
//! allocation per cell (its payload's entries), plus the output vector
//! once per specimen, and `labelCell` allocates nothing for a cell it
//! does not forward. A payload kept in a map of owned keys costs a tree
//! node and one string per key — nine allocations for a cell's eight
//! statistics.
//!
//! A counting global allocator measures what the test thread
//! allocates, so this file must hold this one test only. The counters
//! are per thread so that the background threads of a `Strata`
//! instance cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use strata::collector::{OtImageCollector, PrintingParameterCollector};
use strata::usecase::thermal::{
    classify_cell, isolate_cell, isolate_specimen, label_cell, reference_thresholds,
    seed_thresholds, CellClass,
};
use strata::{AmTuple, Key, Strata, StrataConfig, Value};
use strata_amsim::scan::ScanSchedule;
use strata_amsim::{MachineConfig, PbfLbMachine, ThermalModel};

struct CountingAllocator;

thread_local! {
    /// Allocations and bytes requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counters left; nothing is
    // measured then.
    let _ = COUNTS.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters only observe sizes, in a thread-local without a
// destructor that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Statistics `isolateCell` stores per cell.
const CELL_ENTRIES: usize = 8;

/// Allocations and bytes per specimen on top of the per-cell ones.
const PER_SPECIMEN_ALLOCS: u64 = 1;
const PER_SPECIMEN_BYTES: u64 = 1024;

#[test]
fn cells_allocate_once_each_and_quiet_cells_not_at_all() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let thresholds = reference_thresholds(&ThermalModel::default());
    seed_thresholds(&strata, thresholds).unwrap();
    // Figures 5–6's dense defect field, so that some cells are events.
    let machine = PbfLbMachine::new(
        MachineConfig::paper_build(3)
            .image_px(500)
            .schedule(ScanSchedule::new(90.0, 0.0))
            .defect_rate(30.0),
    )
    .unwrap();
    let mut fused = OtImageCollector::layer_tuple(&machine, 0);
    fused
        .payload_mut()
        .merge(PrintingParameterCollector::layer_tuple(&machine, 0).payload());
    let specimens = isolate_specimen(machine.plan().plate_mm())(&fused);

    let mut isolate = isolate_cell(&strata, 2);
    let mut label = label_cell(&strata);
    // The first calls load the thresholds from the key-value store.
    label(&isolate(&specimens[0])[0]);

    let per_cell = (size_of::<(Key, Value)>() * CELL_ENTRIES + size_of::<AmTuple>()) as u64;
    let (mut cells, mut quiet, mut forwarded) = (0, 0, 0);
    for specimen in &specimens {
        let before = counts();
        let specimen_cells = isolate(specimen);
        let after = counts();
        let n = specimen_cells.len() as u64;
        let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
        assert!(
            allocs <= n + PER_SPECIMEN_ALLOCS,
            "isolateCell made {allocs} allocations for {n} cells"
        );
        assert!(
            bytes <= n * per_cell + PER_SPECIMEN_BYTES,
            "isolateCell allocated {bytes} bytes for {n} cells, above {per_cell} per cell"
        );
        cells += n;

        for cell in &specimen_cells {
            let before = counts();
            let events = label(cell);
            let allocs = counts().0 - before.0;
            match classify_cell(cell, thresholds.cell_min_fraction) {
                CellClass::VeryCold | CellClass::VeryWarm => {
                    assert_eq!(events.map(|e| e.len()), Some(1));
                    forwarded += 1;
                }
                _ => {
                    assert!(events.is_none());
                    assert_eq!(allocs, 0, "labelCell allocated for a cell it drops");
                    quiet += 1;
                }
            }
        }
    }
    assert!(cells > 5_000, "only {cells} cells");
    assert!(
        quiet > 0 && forwarded > 0,
        "{quiet} quiet and {forwarded} forwarded cells"
    );
}
