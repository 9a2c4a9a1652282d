//! Framework-level semantics tests: fuse windows, correlate windows
//! with layer gaps, direct-mode correlate, multi-delivery,
//! offered-rate re-stamping, and the queries each connector mode
//! compiles.

use std::time::Duration;

use crossbeam::channel::Receiver;
use strata::collector::OfferedRateSource;
use strata::{AmTuple, ConnectorMode, ExpertReport, Strata, StrataConfig};
use strata_spe::{Source, SourceContext, Timestamp};

/// A source replaying explicit (tuple, watermark) scripts.
struct Scripted {
    steps: Vec<(AmTuple, u64)>,
}

impl Source for Scripted {
    type Out = AmTuple;
    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        for (tuple, wm) in self.steps.drain(..) {
            if !ctx.emit(tuple) {
                break;
            }
            if !ctx.emit_watermark(Timestamp::from_millis(wm)) {
                break;
            }
        }
        Ok(())
    }
}

fn event(ts: u64, job: u32, layer: u32, x: f64) -> AmTuple {
    let mut t = AmTuple::new(Timestamp::from_millis(ts), job, layer);
    t.payload_mut().set_float("x", x);
    t
}

fn drain(rx: Receiver<ExpertReport>) -> Vec<AmTuple> {
    let mut out = Vec::new();
    while let Ok(report) = rx.recv_timeout(Duration::from_secs(30)) {
        out.push(report.tuple);
    }
    out
}

#[test]
fn correlate_window_spans_exactly_l_plus_one_layers() {
    // Remote mode runs the same pipeline with its connector topics on
    // a TCP broker server instead of the in-process broker.
    let mut server =
        strata_net::BrokerServer::bind("127.0.0.1:0", strata_pubsub::Broker::new()).unwrap();
    let remote = ConnectorMode::Remote {
        addr: server.local_addr().to_string(),
    };
    for mode in [ConnectorMode::PubSub, ConnectorMode::Direct, remote] {
        let strata = Strata::new(StrataConfig::default().connector_mode(mode.clone())).unwrap();
        let mut pipeline = strata.pipeline("span");
        // One event per layer 0..6, watermark after each layer.
        let steps: Vec<(AmTuple, u64)> = (0..6u32)
            .map(|l| (event(l as u64 * 100, 1, l, l as f64), l as u64 * 100 + 50))
            .collect();
        let src = pipeline.add_source("script", Scripted { steps });
        let events = pipeline.detect_event("ev", &src, |t: &AmTuple| Some(vec![t.clone()]));
        let out = pipeline.correlate_events("corr", &events, 2, |w| {
            let mut t = AmTuple::new(Timestamp::MIN, w.job, w.layer);
            t.payload_mut()
                .set_int("window_events", w.events.len() as i64)
                .set_int(
                    "oldest_layer",
                    w.events.iter().map(|e| e.metadata().layer).min().unwrap() as i64,
                );
            vec![t]
        });
        let rx = pipeline.deliver("expert", &out);
        let running = pipeline.deploy().unwrap();
        let got = drain(rx);
        running.join().unwrap();
        assert_eq!(got.len(), 6, "mode {mode:?}");
        for t in &got {
            let layer = t.metadata().layer;
            let expected = (layer.min(2) + 1) as i64; // L=2 → ≤ 3 layers
            assert_eq!(
                t.payload().int("window_events"),
                Some(expected),
                "layer {layer} ({mode:?})"
            );
            assert_eq!(
                t.payload().int("oldest_layer"),
                Some(layer.saturating_sub(2) as i64),
                "layer {layer} ({mode:?})"
            );
        }
    }
    server.shutdown();
}

#[test]
fn correlate_handles_layer_gaps() {
    // Events only on layers 0, 1 and 5: layer 5's window (L=2) must
    // not include the stale layer-0/1 events.
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("gaps");
    let steps = vec![
        (event(0, 1, 0, 0.0), 50),
        (event(100, 1, 1, 1.0), 150),
        (event(500, 1, 5, 5.0), 550),
    ];
    let src = pipeline.add_source("script", Scripted { steps });
    let events = pipeline.detect_event("ev", &src, |t: &AmTuple| Some(vec![t.clone()]));
    let out = pipeline.correlate_events("corr", &events, 2, |w| {
        let mut t = AmTuple::new(Timestamp::MIN, w.job, w.layer);
        t.payload_mut().set_int("n", w.events.len() as i64);
        vec![t]
    });
    let rx = pipeline.deliver("expert", &out);
    let running = pipeline.deploy().unwrap();
    let got = drain(rx);
    running.join().unwrap();
    let by_layer: std::collections::BTreeMap<u32, i64> = got
        .iter()
        .map(|t| (t.metadata().layer, t.payload().int("n").unwrap()))
        .collect();
    assert_eq!(by_layer[&0], 1);
    assert_eq!(by_layer[&1], 2);
    assert_eq!(by_layer[&5], 1, "layers 0-1 are outside [3, 5]");
}

#[test]
fn fuse_windowed_matches_within_the_band() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("band");
    // Left at t=100; right at t=100+Δ for Δ ∈ {0, 30, 80}; band 50.
    let left = pipeline.add_source(
        "left",
        Scripted {
            steps: vec![(event(100, 1, 0, -1.0), 200)],
        },
    );
    let right_steps = vec![
        (event(100, 1, 0, 0.0), 110),
        (event(130, 1, 0, 30.0), 140),
        (event(180, 1, 0, 80.0), 200),
    ];
    let right = pipeline.add_source("right", Scripted { steps: right_steps });
    let fused = pipeline.fuse_windowed("f", &left, &right, 50);
    let rx = pipeline.deliver("expert", &fused);
    let running = pipeline.deploy().unwrap();
    let got = drain(rx);
    running.join().unwrap();
    // Δ=0 and Δ=30 are within the 50 ms band; Δ=80 is not.
    assert_eq!(got.len(), 2);
}

#[test]
fn one_stream_can_be_delivered_to_many_experts() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("multi");
    let steps: Vec<(AmTuple, u64)> = (0..5u32)
        .map(|l| (event(l as u64, 1, l, 0.0), l as u64))
        .collect();
    let src = pipeline.add_source("script", Scripted { steps });
    let rx_a = pipeline.deliver("expert-a", &src);
    let rx_b = pipeline.deliver("expert-b", &src);
    let running = pipeline.deploy().unwrap();
    assert_eq!(drain(rx_a).len(), 5);
    assert_eq!(drain(rx_b).len(), 5);
    running.join().unwrap();
}

#[test]
fn offered_rate_source_restamps_ingest_time() {
    // Tuples built long before replay must not carry their stale
    // ingest instants into latency accounting.
    let stale = event(0, 1, 0, 0.0);
    std::thread::sleep(Duration::from_millis(30));
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("restamp");
    let src = pipeline.add_source("replay", OfferedRateSource::new(vec![stale], 0.0, 10));
    let rx = pipeline.deliver("expert", &src);
    let running = pipeline.deploy().unwrap();
    let report = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    running.join().unwrap();
    assert!(
        report.latency < Duration::from_millis(25),
        "latency {:?} includes pre-replay age",
        report.latency
    );
}

#[test]
fn each_connector_mode_compiles_the_same_modules() {
    // Direct mode fuses everything into the monitor query; the pub/sub
    // modes split it into collector → monitor → aggregator, bridged by
    // one raw topic per source and one event topic.
    let mut server =
        strata_net::BrokerServer::bind("127.0.0.1:0", strata_pubsub::Broker::new()).unwrap();
    let remote = ConnectorMode::Remote {
        addr: server.local_addr().to_string(),
    };
    let direct_monitor = vec![
        "cell.0", "cell.1", "corr", "ev.0", "ev.1", "expert", "fuse", "left", "right", "spec",
    ];
    let monitor = vec![
        "cell.0",
        "cell.1",
        "ev.0",
        "ev.1",
        "fuse",
        "publish.events.corr",
        "spec",
        "subscribe.raw.left",
        "subscribe.raw.right",
    ];
    let collector = vec!["left", "publish.raw.left", "publish.raw.right", "right"];
    let aggregator = vec!["corr", "expert", "subscribe.events.corr"];
    let split = vec![
        ("layout.aggregator", aggregator),
        ("layout.monitor", monitor),
        ("layout.collector", collector),
    ];
    let cases = [
        (
            ConnectorMode::Direct,
            vec![("layout.monitor", direct_monitor)],
        ),
        (ConnectorMode::PubSub, split.clone()),
        (remote, split),
    ];
    for (mode, expected) in cases {
        let strata = Strata::new(StrataConfig::default().connector_mode(mode.clone())).unwrap();
        let mut pipeline = strata.pipeline("layout");
        let script = |x| Scripted {
            steps: (0..3u32)
                .map(|l| (event(l as u64 * 100, 1, l, x), l as u64 * 100 + 50))
                .collect(),
        };
        let left = pipeline.add_source("left", script(0.0));
        let right = pipeline.add_source("right", script(1.0));
        let fused = pipeline.fuse("fuse", &left, &right);
        let specimens = pipeline.partition("spec", &fused, |t: &AmTuple| vec![t.clone()]);
        let cells =
            pipeline.partition_parallel("cell", &specimens, 2, |t: &AmTuple| vec![t.clone()]);
        let events =
            pipeline.detect_event_parallel("ev", &cells, 2, |t: &AmTuple| Some(vec![t.clone()]));
        let out = pipeline.correlate_events("corr", &events, 1, |w| {
            vec![AmTuple::new(Timestamp::MIN, w.job, w.layer)]
        });
        let rx = pipeline.deliver("expert", &out);
        let running = pipeline.deploy().unwrap();
        assert_eq!(drain(rx).len(), 3, "mode {mode:?}");
        let layout: Vec<(String, Vec<String>)> = running
            .join()
            .unwrap()
            .iter()
            .map(|q| {
                let mut nodes: Vec<String> = q.nodes().iter().map(|n| n.name().into()).collect();
                nodes.sort_unstable();
                (q.query().to_string(), nodes)
            })
            .collect();
        let expected: Vec<(String, Vec<String>)> = expected
            .into_iter()
            .map(|(q, nodes)| (q.into(), nodes.into_iter().map(String::from).collect()))
            .collect();
        assert_eq!(layout, expected, "mode {mode:?}");
    }
    server.shutdown();
}
