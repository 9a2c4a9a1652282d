//! Failure injection: how STRATA behaves when user functions panic,
//! sources fail, topics disappear, or pipelines are mis-composed.

use std::sync::Arc;
use std::time::Duration;

use strata::collector::OtImageCollector;
use strata::{AmTuple, ConnectorMode, Error, Strata, StrataConfig};
use strata_amsim::{MachineConfig, PbfLbMachine};
use strata_pubsub::Broker;
use strata_spe::{Source, SourceContext};

fn machine() -> Arc<PbfLbMachine> {
    Arc::new(PbfLbMachine::new(MachineConfig::paper_build(31).image_px(120).timing(10, 2)).unwrap())
}

#[test]
fn panicking_user_function_surfaces_at_join() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("panics");
    let ot = pipeline.add_source("ot", OtImageCollector::new(machine()).layers(0..3));
    let bad = pipeline.detect_event("bad", &ot, |tuple: &AmTuple| {
        assert!(tuple.metadata().layer < 1, "boom at layer 1");
        Some(vec![tuple.derive()])
    });
    let _rx = pipeline.deliver("expert", &bad);
    let running = pipeline.deploy().unwrap();
    let err = running.join().unwrap_err();
    assert!(matches!(
        err,
        Error::Spe(strata_spe::Error::OperatorPanicked { .. })
    ));
}

#[test]
fn failing_source_surfaces_at_join() {
    struct Broken;
    impl Source for Broken {
        type Out = AmTuple;
        fn run(&mut self, _ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
            Err("OT sensor unplugged".into())
        }
    }
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("broken-source");
    let s = pipeline.add_source("ot", Broken);
    let _rx = pipeline.deliver("expert", &s);
    let running = pipeline.deploy().unwrap();
    let err = running.join().unwrap_err();
    assert!(err.to_string().contains("OT sensor unplugged"), "{err}");
}

#[test]
fn empty_pipeline_is_rejected() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let pipeline = strata.pipeline("empty");
    assert!(matches!(pipeline.deploy(), Err(Error::InvalidPipeline(_))));
}

#[test]
fn pipeline_without_delivery_is_rejected() {
    let mut server = strata_net::BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap();
    let remote = ConnectorMode::Remote {
        addr: server.local_addr().to_string(),
    };
    for mode in [ConnectorMode::Direct, ConnectorMode::PubSub, remote] {
        for correlated in [false, true] {
            let strata = Strata::new(StrataConfig::default().connector_mode(mode.clone())).unwrap();
            let mut pipeline = strata.pipeline("no-delivery");
            let ot = pipeline.add_source("ot", OtImageCollector::new(machine()).layers(0..1));
            if correlated {
                let events =
                    pipeline.detect_event("ev", &ot, |tuple: &AmTuple| Some(vec![tuple.derive()]));
                let _ = pipeline.correlate_events("corr", &events, 1, |_| Vec::new());
            }
            let result = pipeline.deploy();
            assert!(
                matches!(&result, Err(Error::InvalidPipeline(msg)) if msg.contains("deliver")),
                "{mode:?}, correlated {correlated}: {result:?}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn correlate_requires_an_event_stream() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut pipeline = strata.pipeline("bad-order");
    let ot = pipeline.add_source("ot", OtImageCollector::new(machine()).layers(0..1));
    // correlateEvents directly on a raw source: Table 1 says the
    // input must come from detectEvent.
    let out = pipeline.correlate_events("out", &ot, 5, |_w| Vec::new());
    let _rx = pipeline.deliver("expert", &out);
    assert!(matches!(
        pipeline.deploy(),
        Err(Error::InvalidPipeline(msg)) if msg.contains("detectEvent")
    ));
}

#[test]
fn unseeded_thresholds_fail_loudly_not_silently() {
    // The use-case's cell classifier must panic (worker → join error)
    // when the historical thresholds were never stored, rather than
    // silently classifying everything as regular.
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let m = machine();
    let mut pipeline = strata.pipeline("no-thresholds");
    let ot = pipeline.add_source("ot", OtImageCollector::new(Arc::clone(&m)).layers(0..1));
    let pp = pipeline.add_source(
        "pp",
        strata::collector::PrintingParameterCollector::new(m).layers(0..1),
    );
    let fused = pipeline.fuse("OT&pp", &ot, &pp);
    let spec = pipeline.partition(
        "spec",
        &fused,
        strata::usecase::thermal::isolate_specimen(250.0),
    );
    let cells = pipeline.partition(
        "cell",
        &spec,
        strata::usecase::thermal::isolate_cell(&strata, 10),
    );
    let _rx = pipeline.deliver("expert", &cells);
    let running = pipeline.deploy().unwrap();
    let err = running.join().unwrap_err();
    assert!(matches!(
        err,
        Error::Spe(strata_spe::Error::OperatorPanicked { .. })
    ));
}

#[test]
fn stop_during_a_live_job_shuts_down_cleanly() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let m = Arc::new(
        PbfLbMachine::new(MachineConfig::paper_build(32).image_px(120).timing(50, 10)).unwrap(),
    );
    let mut pipeline = strata.pipeline("stoppable");
    // Live pacing over the whole 575-layer build: must be interruptible.
    let ot = pipeline.add_source("ot", OtImageCollector::new(m).paced(1.0));
    let events = pipeline.detect_event("all", &ot, |t: &AmTuple| Some(vec![t.derive()]));
    let rx = pipeline.deliver("expert", &events);
    let running = pipeline.deploy().unwrap();
    // Wait for proof of life, then stop mid-print.
    let first = rx.recv_timeout(Duration::from_secs(30));
    assert!(first.is_ok(), "pipeline produced something");
    let started = std::time::Instant::now();
    running.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must not wait for the whole job"
    );
}

#[test]
fn deleting_a_connector_topic_fails_the_subscriber() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let m = Arc::new(
        PbfLbMachine::new(MachineConfig::paper_build(33).image_px(120).timing(50, 10)).unwrap(),
    );
    let mut pipeline = strata.pipeline("topic-vanishes");
    let ot = pipeline.add_source("ot", OtImageCollector::new(m).paced(1.0));
    let rx = pipeline.deliver("expert", &ot);
    let running = pipeline.deploy().unwrap();
    assert!(rx.recv_timeout(Duration::from_secs(30)).is_ok());
    // Sabotage: delete the raw connector topic while running.
    for topic in strata.broker().topics() {
        let _ = strata.broker().delete_topic(&topic);
    }
    running.stop();
    let result = running.join();
    // The subscriber's poll fails on the missing topic: surfaced as a
    // source failure (never a hang or a panic).
    assert!(
        matches!(
            result,
            Err(Error::Spe(strata_spe::Error::SourceFailed { .. })) | Ok(_)
        ),
        "unexpected outcome: {result:?}"
    );
}

#[test]
fn an_unreachable_remote_broker_fails_deploy_and_builds_no_topic() {
    let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = closed.local_addr().unwrap().to_string();
    drop(closed); // Nothing listens there any more.
    let config = StrataConfig::default().connector_mode(ConnectorMode::Remote { addr });
    let strata = Strata::new(config).unwrap();
    let mut pipeline = strata.pipeline("unreachable");
    let ot = pipeline.add_source("ot", OtImageCollector::new(machine()).layers(0..3));
    let events = pipeline.detect_event("ev", &ot, |tuple: &AmTuple| Some(vec![tuple.derive()]));
    let out = pipeline.correlate_events("corr", &events, 1, |_| Vec::new());
    let _rx = pipeline.deliver("expert", &out);
    assert!(pipeline.deploy().is_err());
    assert!(
        strata.broker().topics().is_empty(),
        "{:?}",
        strata.broker().topics()
    );
}
