//! Differential test: `tracked_correlator` reports what
//! `dbscan_correlator` reports for the same windows, except for the
//! cluster ids, over random event streams with skipped layers.

use std::collections::BTreeMap;

use proptest::prelude::*;
use strata::pipeline::CorrelationWindow;
use strata::usecase::thermal::{dbscan_correlator, tracked_correlator, CorrelatorOptions};
use strata::AmTuple;
use strata_spe::Timestamp;

/// Per layer: `None` for a layer without events, which `Correlate`
/// skips, or its events as lattice coordinates (0.25 mm apart) and
/// whether the event is very warm.
type Stream = Vec<Option<Vec<(u8, u8, bool)>>>;

fn stream_strategy() -> impl Strategy<Value = Stream> {
    proptest::collection::vec(
        proptest::option::of(proptest::collection::vec(
            (0u8..12, 0u8..12, any::<bool>()),
            1..40,
        )),
        1..16,
    )
}

/// The event tuples of each layer that has events.
fn layers(stream: &Stream) -> BTreeMap<u32, Vec<AmTuple>> {
    let mut layers = BTreeMap::new();
    for (layer, events) in stream.iter().enumerate() {
        let Some(events) = events else { continue };
        let layer = layer as u32;
        let tuples = events
            .iter()
            .map(|&(x, y, hot)| {
                let mut e = AmTuple::new(Timestamp::from_millis(u64::from(layer) * 100), 1, layer)
                    .with_specimen(0);
                e.payload_mut()
                    .set_str("class", if hot { "very_warm" } else { "very_cold" })
                    .set_float("x_mm", f64::from(x) * 0.25)
                    .set_float("y_mm", f64::from(y) * 0.25);
                e
            })
            .collect();
        layers.insert(layer, tuples);
    }
    layers
}

/// A report's payload without the cluster ids.
fn without_ids(tuple: &AmTuple) -> Vec<(&str, &strata::Value)> {
    tuple
        .payload()
        .iter()
        .filter(|(key, _)| !matches!(*key, "cluster_id" | "tracked_id"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windows are built as `Correlate` builds them: one per layer
    /// with events, holding the events of layers `[layer − L, layer]`.
    #[test]
    fn tracked_reports_equal_dbscan_reports_but_for_ids(
        stream in stream_strategy(),
        depth_l in 0u32..6,
        eps_mm in 0.3f64..0.6,
        min_pts in 1usize..5,
        min_cluster_size in 1usize..12,
        render_image in any::<bool>(),
    ) {
        let options = CorrelatorOptions {
            eps_mm,
            min_pts,
            min_cluster_size,
            layer_pitch_mm: 0.04,
            render_image,
        };
        let mut plain = dbscan_correlator(options);
        let mut tracked = tracked_correlator(options);
        let layers = layers(&stream);
        for &layer in layers.keys() {
            let window = CorrelationWindow {
                job: 1,
                specimen: 0,
                layer,
                events: layers
                    .range(layer.saturating_sub(depth_l)..=layer)
                    .flat_map(|(_, events)| events)
                    .collect(),
            };
            let expected = plain(&window);
            let got = tracked(&window);
            prop_assert_eq!(got.len(), expected.len(), "layer {}", layer);
            for (got, expected) in got.iter().zip(&expected) {
                prop_assert_eq!(got.metadata(), expected.metadata());
                prop_assert_eq!(without_ids(got), without_ids(expected), "layer {}", layer);
                if got.payload().str("report") == Some("cluster") {
                    prop_assert!(got.payload().int("tracked_id").is_some());
                    prop_assert_eq!(
                        got.payload().int("tracked_id"),
                        got.payload().int("cluster_id")
                    );
                }
            }
        }
    }
}
