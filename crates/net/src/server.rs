//! The broker server: exposes an in-process [`Broker`] over TCP.
//!
//! One thread accepts connections; each connection gets a handler
//! thread running a strict request/response loop. Handler threads use
//! a short socket read timeout as an idle poll so they notice the
//! shutdown flag even while a client is silent, and long-poll fetches
//! wait on the broker's append condvar in equally short slices.
//!
//! Shutdown is graceful: [`BrokerServer::shutdown`] raises the flag,
//! unblocks the accept loop with a self-connection, and joins every
//! thread. In-flight requests complete; subsequent reads on the dead
//! connections fail client-side and surface as transport errors
//! (which the client reliability layer retries against a reconnect,
//! and gives up on once the server stays gone).

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strata_obs::{Counter, Gauge, Histogram, Registry};
use strata_pubsub::{Broker, TopicConfig};

use crate::codec;
use crate::error::{NetError, NetResult};
use crate::protocol::{self, PartitionInfo, Request, Response, TopicInfo};

/// How often idle handler threads wake to check the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Server-side cap on a single fetch batch, applied on top of the
/// client's `max_records`. A batch is also cut short where its
/// response would pass [`codec::MAX_FRAME_BYTES`].
const MAX_FETCH_RECORDS: usize = 10_000;

/// Server-side cap on a fetch's long-poll budget.
const MAX_FETCH_WAIT: Duration = Duration::from_secs(30);

/// A TCP front-end for a [`Broker`].
///
/// ```no_run
/// use strata_net::server::BrokerServer;
/// use strata_pubsub::Broker;
///
/// let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new())?;
/// println!("serving on {}", server.local_addr());
/// // ... later:
/// server.shutdown();
/// # Ok::<(), strata_net::NetError>(())
/// ```
pub struct BrokerServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

struct Shared {
    broker: Broker,
    stop: AtomicBool,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    metrics: ServerMetrics,
}

/// Server-side metrics, registered into the broker's registry at bind
/// so a single `Metrics` request (or `Registry::render`) covers the
/// transport alongside the broker it fronts.
struct ServerMetrics {
    active_connections: Gauge,
    connections_total: Counter,
    create_topic_ns: Histogram,
    produce_ns: Histogram,
    fetch_ns: Histogram,
    commit_offset_ns: Histogram,
    fetch_offset_ns: Histogram,
    metadata_ns: Histogram,
    consumer_lag_ns: Histogram,
    metrics_ns: Histogram,
}

impl ServerMetrics {
    fn new(registry: &Registry) -> Self {
        let request_ns = |op: &str| {
            registry.histogram(
                "net_request_ns",
                "Server-side request handling latency",
                &[("op", op)],
            )
        };
        ServerMetrics {
            active_connections: registry.gauge(
                "net_active_connections",
                "Currently open client connections",
                &[],
            ),
            connections_total: registry.counter(
                "net_connections_total",
                "Connections accepted over the server's lifetime",
                &[],
            ),
            create_topic_ns: request_ns("create_topic"),
            produce_ns: request_ns("produce"),
            fetch_ns: request_ns("fetch"),
            commit_offset_ns: request_ns("commit_offset"),
            fetch_offset_ns: request_ns("fetch_offset"),
            metadata_ns: request_ns("metadata"),
            consumer_lag_ns: request_ns("consumer_lag"),
            metrics_ns: request_ns("metrics"),
        }
    }

    fn for_request(&self, request: &Request) -> &Histogram {
        match request {
            Request::CreateTopic { .. } => &self.create_topic_ns,
            Request::Produce { .. } => &self.produce_ns,
            Request::Fetch { .. } => &self.fetch_ns,
            Request::CommitOffset { .. } => &self.commit_offset_ns,
            Request::FetchOffset { .. } => &self.fetch_offset_ns,
            Request::Metadata { .. } => &self.metadata_ns,
            Request::ConsumerLag { .. } => &self.consumer_lag_ns,
            Request::Metrics => &self.metrics_ns,
        }
    }
}

impl BrokerServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `broker`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind fails.
    pub fn bind(addr: impl ToSocketAddrs, broker: Broker) -> NetResult<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = ServerMetrics::new(broker.registry());
        let shared = Arc::new(Shared {
            broker,
            stop: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
            metrics,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("strata-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(NetError::Io)?;
        Ok(BrokerServer {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, lets in-flight requests finish, and joins all
    /// server threads. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop: a throwaway connection makes
        // `accept` return so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().unwrap());
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for BrokerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // The shutdown self-connection (or a late client).
        }
        shared.metrics.connections_total.inc();
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("strata-net-conn".into())
            .spawn(move || handle_connection(stream, conn_shared));
        let Ok(handle) = handle else {
            continue; // Thread spawn failed; drop the stream.
        };
        // Join the threads of closed connections, so the list holds
        // only live ones.
        let mut handlers = shared.handlers.lock().unwrap();
        for done in handlers.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        handlers.push(handle);
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    // The read timeout doubles as the shutdown poll interval.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    // Failpoints `net.server.recv` / `net.server.send` can sever or
    // delay the connection at an exact byte boundary; transparent
    // passthrough when the chaos registry is disarmed.
    let mut stream = strata_chaos::ChaosStream::new("net.server", stream);
    shared.metrics.active_connections.add(1);
    while !shared.stop.load(Ordering::SeqCst) {
        let request = match codec::read_request(&mut stream) {
            Ok(request) => request,
            Err(NetError::Io(err))
                if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                continue; // Idle poll tick; re-check the stop flag.
            }
            Err(NetError::Disconnected) => break,
            Err(NetError::Corrupt(msg)) | Err(NetError::Protocol(msg)) => {
                // The frame boundary may be lost; report and close.
                let _ = codec::write_response(
                    &mut stream,
                    &Response::Error {
                        code: crate::protocol::ErrorCode::BadRequest,
                        message: msg,
                        context: vec![],
                    },
                );
                break;
            }
            Err(_) => break,
        };
        let response = serve(&shared, request);
        if codec::write_response(&mut stream, &response).is_err() {
            break;
        }
    }
    shared.metrics.active_connections.sub(1);
}

/// Executes one request against the broker.
fn serve(shared: &Shared, request: Request) -> Response {
    let started = Instant::now();
    let latency = shared.metrics.for_request(&request).clone();
    let broker = &shared.broker;
    let result = match request {
        Request::CreateTopic { topic, partitions } => broker
            .create_topic(topic, TopicConfig::new(partitions))
            .map(|()| Response::Created),
        Request::Produce {
            topic,
            partition,
            record,
        } => broker
            .produce(&topic, partition, record)
            .map(|(partition, offset)| Response::Produced { partition, offset }),
        Request::Fetch {
            topic,
            partition,
            offset,
            max_records,
            max_wait_ms,
        } => serve_fetch(shared, &topic, partition, offset, max_records, max_wait_ms),
        Request::CommitOffset {
            group,
            topic,
            partition,
            offset,
        } => broker
            .commit_offset(&group, &topic, partition, offset)
            .map(|()| Response::Committed),
        Request::FetchOffset {
            group,
            topic,
            partition,
        } => Ok(Response::CommittedOffset(
            broker.committed_offset(&group, &topic, partition),
        )),
        Request::Metadata { topics } => serve_metadata(broker, &topics),
        Request::ConsumerLag { group, topic } => {
            broker.consumer_lag(&group, &topic).map(Response::Lag)
        }
        Request::Metrics => Ok(Response::MetricsText(broker.registry().render())),
    };
    let response = result.unwrap_or_else(|err| Response::from_broker_error(&err));
    latency.record_since(started);
    response
}

/// A fetch with a long-poll budget ([`Broker::fetch_wait`]): empty
/// reads wait for an append until data arrives, the budget runs out,
/// or the server stops.
fn serve_fetch(
    shared: &Shared,
    topic: &str,
    partition: u32,
    offset: u64,
    max_records: u32,
    max_wait_ms: u32,
) -> Result<Response, strata_pubsub::Error> {
    let broker = &shared.broker;
    let max_records = (max_records as usize).min(MAX_FETCH_RECORDS);
    let budget = Duration::from_millis(max_wait_ms as u64).min(MAX_FETCH_WAIT);
    let mut batch = broker.fetch_wait(topic, partition, offset, max_records, budget, || {
        shared.stop.load(Ordering::SeqCst)
    })?;
    // A record count alone does not bound the frame: a backlog of large
    // images must go out over several fetches.
    protocol::truncate_to_body(&mut batch, codec::MAX_FRAME_BYTES);
    Ok(Response::Records(batch))
}

fn serve_metadata(broker: &Broker, topics: &[String]) -> Result<Response, strata_pubsub::Error> {
    let names: Vec<String> = if topics.is_empty() {
        broker.topics()
    } else {
        topics.to_vec()
    };
    let mut infos = Vec::with_capacity(names.len());
    for name in names {
        let partition_count = broker.partition_count(&name)?;
        let mut partitions = Vec::with_capacity(partition_count as usize);
        for p in 0..partition_count {
            let (start, end) = broker.offsets(&name, p)?;
            partitions.push(PartitionInfo {
                partition: p,
                start,
                end,
            });
        }
        infos.push(TopicInfo { name, partitions });
    }
    Ok(Response::Metadata(infos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
        codec::write_request(stream, request).unwrap();
        codec::read_response(stream).unwrap()
    }

    #[test]
    fn serves_the_full_request_vocabulary() {
        let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        let created = roundtrip(
            &mut stream,
            &Request::CreateTopic {
                topic: "t".into(),
                partitions: 2,
            },
        );
        assert_eq!(created, Response::Created);

        let produced = roundtrip(
            &mut stream,
            &Request::Produce {
                topic: "t".into(),
                partition: Some(1),
                record: strata_pubsub::Record::new(Some("k"), "v"),
            },
        );
        assert_eq!(
            produced,
            Response::Produced {
                partition: 1,
                offset: 0
            }
        );

        let fetched = roundtrip(
            &mut stream,
            &Request::Fetch {
                topic: "t".into(),
                partition: 1,
                offset: 0,
                max_records: 10,
                max_wait_ms: 0,
            },
        );
        match fetched {
            Response::Records(records) => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].record.value.as_ref(), b"v");
            }
            other => panic!("expected records, got {other:?}"),
        }

        assert_eq!(
            roundtrip(
                &mut stream,
                &Request::CommitOffset {
                    group: "g".into(),
                    topic: "t".into(),
                    partition: 1,
                    offset: 1,
                },
            ),
            Response::Committed
        );
        assert_eq!(
            roundtrip(
                &mut stream,
                &Request::FetchOffset {
                    group: "g".into(),
                    topic: "t".into(),
                    partition: 1,
                },
            ),
            Response::CommittedOffset(Some(1))
        );
        assert_eq!(
            roundtrip(
                &mut stream,
                &Request::ConsumerLag {
                    group: "g".into(),
                    topic: "t".into(),
                },
            ),
            Response::Lag(0)
        );

        match roundtrip(&mut stream, &Request::Metadata { topics: vec![] }) {
            Response::Metadata(topics) => {
                assert_eq!(topics.len(), 1);
                assert_eq!(topics[0].name, "t");
                assert_eq!(topics[0].partitions.len(), 2);
                assert_eq!(topics[0].partitions[1].end, 1);
            }
            other => panic!("expected metadata, got {other:?}"),
        }

        match roundtrip(&mut stream, &Request::Metrics) {
            Response::MetricsText(text) => {
                assert!(text.contains("net_active_connections 1"), "{text}");
                assert!(text.contains("net_connections_total 1"), "{text}");
                assert!(
                    text.contains("net_request_ns_count{op=\"produce\"} 1"),
                    "{text}"
                );
                assert!(
                    text.contains("pubsub_topic_records_in_total{topic=\"t\"} 1"),
                    "{text}"
                );
            }
            other => panic!("expected metrics text, got {other:?}"),
        }

        server.shutdown();
    }

    #[test]
    fn broker_errors_travel_as_error_responses() {
        let server = BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let response = roundtrip(
            &mut stream,
            &Request::Fetch {
                topic: "missing".into(),
                partition: 0,
                offset: 0,
                max_records: 1,
                max_wait_ms: 0,
            },
        );
        assert!(matches!(
            response,
            Response::Error {
                code: ErrorCode::UnknownTopic,
                ..
            }
        ));
    }

    #[test]
    fn long_poll_fetch_waits_for_data() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::new(1)).unwrap();
        let producer = broker.clone();
        let server = BrokerServer::bind("127.0.0.1:0", broker).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        let feeder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let record = strata_pubsub::Record::new(None::<&[u8]>, "late");
            producer.produce("t", None, record).unwrap();
        });
        let start = Instant::now();
        let response = roundtrip(
            &mut stream,
            &Request::Fetch {
                topic: "t".into(),
                partition: 0,
                offset: 0,
                max_records: 10,
                max_wait_ms: 5_000,
            },
        );
        feeder.join().unwrap();
        match response {
            Response::Records(records) => assert_eq!(records.len(), 1),
            other => panic!("expected records, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "returned on data, not on budget"
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_threads() {
        let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap();
        let addr = server.local_addr();
        let _stream = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly on some platforms; a write
                // must fail either way since no accept loop remains.
                true
            }
        );
    }

    #[test]
    fn finished_connection_threads_are_joined_at_accept() {
        let server = BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap();
        for _ in 0..20 {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            roundtrip(&mut stream, &Request::Metadata { topics: vec![] });
            drop(stream);
            let deadline = Instant::now() + Duration::from_secs(5);
            while !server
                .shared
                .handlers
                .lock()
                .unwrap()
                .iter()
                .all(|h| h.is_finished())
            {
                assert!(Instant::now() < deadline, "handler thread never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let handlers = server.shared.handlers.lock().unwrap().len();
        assert!(
            handlers <= 3,
            "{handlers} handles kept for 20 closed connections"
        );
    }
}
