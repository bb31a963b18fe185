//! The three workloads and one untraced or traced pass over each.
//!
//! Every workload is open-loop in simulated time: arrivals come from the
//! `TrafficConfig` schedule whatever the completions do, and latency is
//! counted from the scheduled arrival. Host time never gates an arrival.

use std::time::Instant;

use rtr_apps::request::{Kernel, Request};
use rtr_cluster::{ClusterConfig, RoutePolicy, ShardSpec};
use rtr_configplane::ConfigPlaneConfig;
use rtr_core::SystemKind;
use rtr_federation::{FedPolicy, Federation, FederationConfig, FederationSnapshot};
use rtr_service::{FlashCrowd, MetricsSnapshot, Policy, Service, ServiceConfig, TrafficConfig};
use vp2_sim::SimTime;

use crate::replay::Path;
use crate::spans::Spans;

/// Requests per workload pass. With the service's nearest-rank p99 over
/// 1000 samples, ten samples lie beyond it.
pub const REQUESTS: usize = 1000;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Bit32 service under the paper's software baseline.
    SwBaseline,
    /// One Bit64 service with the full configuration plane.
    HwReconfig,
    /// A three-pool federation of six shards.
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SwBaseline, Workload::HwReconfig, Workload::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SwBaseline => "sw_baseline",
            Workload::HwReconfig => "hw_reconfig",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seeded request stream. The program sees only what this yields.
    pub fn traffic(self, seed: u64) -> TrafficConfig {
        match self {
            // Five cheap kernels, 1-8 KB, offered at about a fifth of the
            // software path's capacity so latency measures service, not
            // backlog, and p99 varies little from seed to seed.
            // PatMatch is left out: in software one request costs about
            // 1000x the others and would be the whole workload.
            Workload::SwBaseline => TrafficConfig {
                seed,
                requests: REQUESTS,
                kernels: vec![
                    Kernel::Sha1,
                    Kernel::Jenkins,
                    Kernel::Brightness,
                    Kernel::Blend,
                    Kernel::Fade,
                ],
                mean_gap: SimTime::from_us(6000),
                burst_percent: 0,
                min_payload: 1024,
                max_payload: 8 * 1024,
                ..TrafficConfig::default()
            },
            // All six kernels, independent draws, 8-16 KB, light load:
            // nearly every request is its own batch and swaps modules, so
            // the configuration plane works hard. With a shorter gap (8 ms),
            // queueing behind long hardware runs pushes p99 from about
            // 7.1 ms to 8-10 ms on about one seed in six; at 12 ms p99
            // stays within 7% of 7.1 ms from seed to seed.
            Workload::HwReconfig => TrafficConfig {
                seed,
                requests: REQUESTS,
                kernels: Kernel::ALL.to_vec(),
                mean_gap: SimTime::from_us(12000),
                burst_percent: 0,
                min_payload: 8 * 1024,
                max_payload: 16 * 1024,
                ..TrafficConfig::default()
            },
            // Zipf-skewed with SHA-1 hottest, a 16x flash crowd in the
            // middle third and a quarter of requests on the deadline lane.
            Workload::Fleet => TrafficConfig {
                seed,
                requests: REQUESTS,
                kernels: vec![
                    Kernel::Sha1,
                    Kernel::Brightness,
                    Kernel::Jenkins,
                    Kernel::Blend,
                    Kernel::Fade,
                ],
                mean_gap: SimTime::from_us(40),
                burst_percent: 30,
                min_payload: 4 * 1024,
                max_payload: 12 * 1024,
                deadline_percent: 25,
                deadline_budget: SimTime::from_ms(2),
                zipf_skew: 1.1,
                flash: Some(FlashCrowd {
                    start: REQUESTS / 3,
                    len: REQUESTS / 3,
                    gap_divisor: 16,
                }),
                ..TrafficConfig::default()
            },
        }
    }

    /// The path the layer replay drives this workload's requests through:
    /// the one its service serves them on. The fleet has no replay.
    pub fn replay_path(self) -> Option<Path> {
        match self {
            Workload::SwBaseline => Some(Path::Software),
            Workload::HwReconfig => Some(Path::Hardware),
            Workload::Fleet => None,
        }
    }

    /// Service configuration of the single-service workloads.
    pub fn service_config(self) -> Option<ServiceConfig> {
        match self {
            Workload::SwBaseline => Some(ServiceConfig {
                policy: Policy::SwOnly,
                ..ServiceConfig::new(SystemKind::Bit32)
            }),
            Workload::HwReconfig => Some(ServiceConfig {
                plane: ConfigPlaneConfig::full(),
                ..ServiceConfig::new(SystemKind::Bit64)
            }),
            Workload::Fleet => None,
        }
    }

    /// Every shard this workload boots, in boot order, as the
    /// `ServiceConfig` its `Service::new` receives.
    pub fn shard_configs(self) -> Vec<ServiceConfig> {
        match self.service_config() {
            Some(cfg) => vec![cfg],
            None => pools()
                .iter()
                .flat_map(|pool| pool.shards.iter())
                .map(|spec| ServiceConfig {
                    plane: spec.plane.clone(),
                    ..ServiceConfig::new(spec.kind)
                })
                .collect(),
        }
    }
}

/// Three heterogeneous pools: 2xBit32, 2xBit64 and Bit32+Bit64. Every
/// shard accepts the default six kernels; inner routing is least-loaded on
/// stale estimates, and shards run inline on the calling thread.
fn pools() -> Vec<ClusterConfig> {
    let pool = |a: SystemKind, b: SystemKind| ClusterConfig {
        shards: vec![ShardSpec::new(a), ShardSpec::new(b)],
        stale_estimates: true,
        threads: 1,
        ..ClusterConfig::uniform(a, 2, RoutePolicy::LeastLoaded)
    };
    vec![
        pool(SystemKind::Bit32, SystemKind::Bit32),
        pool(SystemKind::Bit64, SystemKind::Bit64),
        pool(SystemKind::Bit32, SystemKind::Bit64),
    ]
}

/// Cost-model routing with the watermarks of `federation_scenario`, and
/// stealing bounded to 60 requests (20 events) a pass: unbounded, it makes
/// the simulated makespan and p99 swing by 25-30% from seed to seed.
fn fleet_config() -> FederationConfig {
    FederationConfig {
        policy: FedPolicy::CostModel,
        shed_watermark: 9,
        steal_watermark: 12,
        steal_batch: 3,
        steal_budget: 60,
        ..FederationConfig::new(pools())
    }
}

/// The simulated outcome of one pass: identical across passes of one
/// seed, whatever the host did.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Lifetime or federated metrics of the request phase.
    pub total: MetricsSnapshot,
    /// Simulated span of the request phase.
    pub makespan: SimTime,
    /// FNV-1a digest of the snapshot's JSON rendering.
    pub digest: u64,
    /// Federation counters (`None` for single-service workloads).
    pub fleet: Option<FleetCounters>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FleetCounters {
    pub steal_events: u64,
    pub sheds: u64,
    pub affinity_hits: u64,
}

/// Host timings of one pass.
#[derive(Debug, Clone, Copy)]
pub struct HostTimes {
    pub setup_s: f64,
    pub request_s: f64,
    pub snapshot_s: f64,
}

impl HostTimes {
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.request_s + self.snapshot_s
    }
}

/// Host seconds of the workload's set-up call alone.
pub fn boot_s(workload: Workload) -> f64 {
    let t = Instant::now();
    match workload.service_config() {
        Some(cfg) => drop(std::hint::black_box(Service::new(cfg))),
        None => drop(std::hint::black_box(Federation::new(fleet_config()))),
    }
    t.elapsed().as_secs_f64()
}

/// One pass: set-up, request phase and final snapshot. With `spans` on,
/// every public call the pass makes is recorded, tagged with the request
/// id where there is one.
pub fn run_pass(
    workload: Workload,
    schedule: &[(SimTime, Request)],
    spans: &mut Spans,
) -> (HostTimes, SimOutcome) {
    match workload.service_config() {
        Some(cfg) => run_service(cfg, schedule, spans),
        None => run_fleet(schedule, spans),
    }
}

fn run_service(
    cfg: ServiceConfig,
    schedule: &[(SimTime, Request)],
    spans: &mut Spans,
) -> (HostTimes, SimOutcome) {
    let t0 = Instant::now();
    let s = spans.enter("service.new", None);
    let mut svc = Service::new(cfg);
    spans.exit(s);
    let t1 = Instant::now();
    let s = spans.enter("service.process", None);
    let window = svc
        .process(schedule)
        .expect("generated schedules are sorted");
    spans.exit(s);
    let t2 = Instant::now();
    let s = spans.enter("service.snapshot", None);
    let total = svc.lifetime();
    let json = total.to_json().render();
    spans.exit(s);
    let t3 = Instant::now();
    let outcome = SimOutcome {
        makespan: window.elapsed,
        digest: fnv1a(json.as_bytes()),
        total,
        fleet: None,
    };
    (times(t0, t1, t2, t3), outcome)
}

fn run_fleet(schedule: &[(SimTime, Request)], spans: &mut Spans) -> (HostTimes, SimOutcome) {
    let t0 = Instant::now();
    let s = spans.enter("federation.new", None);
    let mut fed = Federation::new(fleet_config());
    spans.exit(s);
    let t1 = Instant::now();
    for (id, (arrival, request)) in schedule.iter().enumerate() {
        let s = spans.enter("federation.admit", Some(id as u64));
        fed.admit(*arrival, request.clone());
        spans.exit(s);
    }
    let s = spans.enter("federation.flush_all", None);
    fed.flush_all();
    spans.exit(s);
    let t2 = Instant::now();
    let s = spans.enter("federation.snapshot", None);
    let snap: FederationSnapshot = fed.snapshot();
    let json = snap.to_json().render();
    spans.exit(s);
    let t3 = Instant::now();
    let outcome = SimOutcome {
        makespan: snap.makespan,
        digest: fnv1a(json.as_bytes()),
        fleet: Some(FleetCounters {
            steal_events: snap.steal_events,
            sheds: snap.sheds,
            affinity_hits: snap
                .pools
                .iter()
                .map(|p| p.cluster.routing.affinity_hits)
                .sum(),
        }),
        total: snap.total,
    };
    (times(t0, t1, t2, t3), outcome)
}

fn times(t0: Instant, t1: Instant, t2: Instant, t3: Instant) -> HostTimes {
    HostTimes {
        setup_s: (t1 - t0).as_secs_f64(),
        request_s: (t2 - t1).as_secs_f64(),
        snapshot_s: (t3 - t2).as_secs_f64(),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
