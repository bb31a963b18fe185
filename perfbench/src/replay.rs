//! Step-by-step replays that split host time by layer.
//!
//! * The set-up replay rebuilds `Service::new`'s public steps, in order,
//!   for every shard the workload boots.
//! * The layer replay runs the workload's generated requests through
//!   `Driver::run_sw`, or through `ModuleManager::load` + `Driver::run_hw`,
//!   on a fresh machine, reading the public CPU, cache, bus, dock and ICAP
//!   counters around each call.
//! * The interpreter probe runs one fixed-size request per kernel in
//!   software, PatMatch included.
//!
//! Every replayed response is checked against `Request::reference()`.

use std::collections::BTreeMap;
use std::time::Instant;

use rtr_apps::request::{component_for, component_for_slot, factory_for, Driver, Kernel, Request};
use rtr_configplane::ConfigPlaneConfig;
use rtr_core::machine::Docks;
use rtr_core::{build_system, LoadOutcome, Machine, ModuleManager, SystemKind};
use rtr_service::{CostModel, ServiceConfig};
use vp2_sim::{SimTime, SplitMix64};

use crate::spans::Spans;

/// Counts from the set-up replay.
#[derive(Debug, Default)]
pub struct SetupCounts {
    pub calibrate_calls: u64,
    pub link_calls: u64,
}

/// Replays `Service::new` for each shard config, in boot order. Returns
/// the host seconds the replayed steps took in total.
pub fn setup_replay(shards: &[ServiceConfig], spans: &mut Spans) -> (f64, SetupCounts) {
    let mut counts = SetupCounts::default();
    let start = Instant::now();
    for cfg in shards {
        let kernels: Vec<Kernel> = if cfg.kernels.is_empty() {
            Kernel::ALL.to_vec()
        } else {
            cfg.kernels.clone()
        };
        let s = spans.enter("core.build_system", None);
        let mut machine = build_system(cfg.kind);
        spans.exit(s);

        let s = spans.enter("core.manager_new", None);
        let mut manager = ModuleManager::new(cfg.kind);
        manager
            .configure_plane(cfg.plane.clone())
            .expect("benchmark planes are valid");
        spans.exit(s);

        let slot_width = cfg.plane.slot_widths.iter().copied().min();
        let mut first_hw = None;
        for &kernel in &kernels {
            let s = spans.enter("apps.component_for", None);
            let component = match slot_width {
                Some(w) => component_for_slot(kernel, cfg.kind, w),
                None => component_for(kernel, cfg.kind),
            };
            spans.exit(s);
            if let Some(component) = component {
                let s = spans.enter("bitstream.register", None);
                manager
                    .register(component, (0, 0), factory_for(kernel))
                    .expect("default kernels register");
                spans.exit(s);
                counts.link_calls += manager.slot_plan().slots.len() as u64;
                first_hw.get_or_insert(kernel);
            }
        }

        let s = spans.enter("apps.driver_new", None);
        let mut driver = Driver::new();
        spans.exit(s);
        let s = spans.enter("apps.preload", None);
        driver.preload_all(&mut machine);
        spans.exit(s);

        let s = spans.enter("service.calibrate", None);
        let cost = CostModel::calibrate(cfg.kind, &kernels);
        spans.exit(s);
        counts.calibrate_calls += 1;
        std::hint::black_box(&cost);

        if let Some(kernel) = first_hw {
            let s = spans.enter("core.warmup_load", None);
            let outcome = manager.load(&mut machine, kernel.module_name());
            spans.exit(s);
            assert!(
                matches!(outcome, Ok(LoadOutcome::Loaded { .. })),
                "warm-up load of {kernel}: {outcome:?}"
            );
        }
    }
    (start.elapsed().as_secs_f64(), counts)
}

/// Per-kernel host time and payload of a layer replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelCost {
    pub host_s: f64,
    pub bytes: u64,
}

impl KernelCost {
    pub fn us_per_kb(&self) -> f64 {
        self.host_s * 1e6 / (self.bytes as f64 / 1024.0)
    }
}

/// Counters and timings of one layer replay.
#[derive(Debug, Default)]
pub struct LayerReplay {
    pub requests: u64,
    pub mismatches: u64,
    /// Host seconds inside `run_sw`/`run_hw`.
    pub run_s: f64,
    pub per_kernel: BTreeMap<&'static str, KernelCost>,
    pub retired: u64,
    pub icache_misses: u64,
    pub icache_accesses: u64,
    pub dcache_misses: u64,
    pub dcache_accesses: u64,
    pub bus_transactions: u64,
    pub dock_transfers: u64,
    /// Host milliseconds of every load that moved configuration data.
    pub load_ms: Vec<f64>,
    pub icap_words: u64,
}

/// Short metric-safe kernel name.
pub fn kernel_key(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Sha1 => "sha1",
        Kernel::Jenkins => "jenkins",
        Kernel::PatMatch => "patmatch",
        Kernel::Brightness => "brightness",
        Kernel::Blend => "blend",
        Kernel::Fade => "fade",
    }
}

/// Which path the layer replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Software,
    Hardware,
}

/// Replays `schedule` on a fresh machine of `kind`, one request after the
/// other, through the software path or through load + hardware path.
pub fn layer_replay(
    kind: SystemKind,
    plane: &ConfigPlaneConfig,
    path: Path,
    schedule: &[(SimTime, Request)],
    spans: &mut Spans,
) -> LayerReplay {
    let mut machine = build_system(kind);
    let mut driver = Driver::new();
    driver.preload_all(&mut machine);
    let mut manager = ModuleManager::new(kind);
    if path == Path::Hardware {
        manager
            .configure_plane(plane.clone())
            .expect("benchmark planes are valid");
        for kernel in Kernel::ALL {
            if let Some(component) = component_for(kernel, kind) {
                manager
                    .register(component, (0, 0), factory_for(kernel))
                    .expect("default kernels register");
            }
        }
    }
    let mut out = LayerReplay::default();
    let before = Counters::read(&machine);
    for (id, (_, request)) in schedule.iter().enumerate() {
        let kernel = request.kernel();
        let id = Some(id as u64);
        if path == Path::Hardware {
            let words = machine.platform.icap.words_shifted;
            let s = spans.enter("core.load", id);
            let t = Instant::now();
            let outcome = manager.load(&mut machine, kernel.module_name());
            let load_s = t.elapsed().as_secs_f64();
            spans.exit(s);
            match outcome {
                Ok(LoadOutcome::Loaded { .. }) => out.load_ms.push(load_s * 1e3),
                Ok(LoadOutcome::AlreadyLoaded) => {}
                other => panic!("load of {kernel}: {other:?}"),
            }
            out.icap_words += machine.platform.icap.words_shifted - words;
        }
        let s = spans.enter(
            match path {
                Path::Software => "apps.run_sw",
                Path::Hardware => "apps.run_hw",
            },
            id,
        );
        let t = Instant::now();
        let (_, response) = match path {
            Path::Software => driver.run_sw(&mut machine, request),
            Path::Hardware => driver.run_hw(&mut machine, request),
        };
        let run_s = t.elapsed().as_secs_f64();
        spans.exit(s);
        out.requests += 1;
        out.run_s += run_s;
        if response != request.reference() {
            out.mismatches += 1;
        }
        let k = out.per_kernel.entry(kernel_key(kernel)).or_default();
        k.host_s += run_s;
        k.bytes += request.payload_bytes() as u64;
    }
    Counters::read(&machine).minus(&before).fold_into(&mut out);
    out
}

/// Public work counters of one machine.
#[derive(Debug, Clone, Copy)]
struct Counters {
    retired: u64,
    i_hits: u64,
    i_misses: u64,
    d_hits: u64,
    d_misses: u64,
    bus: u64,
    dock: u64,
}

impl Counters {
    fn read(m: &Machine) -> Counters {
        let (ic, dc) = (&m.cpu.icache.stats, &m.cpu.dcache.stats);
        let dock = match &m.platform.dock {
            Docks::Opb(d) => d.reads + d.writes,
            Docks::Plb(d) => d.reads + d.writes,
        };
        Counters {
            retired: m.cpu.stats.retired,
            i_hits: ic.hits,
            i_misses: ic.misses,
            d_hits: dc.hits,
            d_misses: dc.misses,
            bus: m.platform.plb.transactions + m.platform.opb.transactions,
            dock,
        }
    }

    fn minus(&self, b: &Counters) -> Counters {
        Counters {
            retired: self.retired - b.retired,
            i_hits: self.i_hits - b.i_hits,
            i_misses: self.i_misses - b.i_misses,
            d_hits: self.d_hits - b.d_hits,
            d_misses: self.d_misses - b.d_misses,
            bus: self.bus - b.bus,
            dock: self.dock - b.dock,
        }
    }

    fn fold_into(&self, out: &mut LayerReplay) {
        out.retired = self.retired;
        out.icache_misses = self.i_misses;
        out.icache_accesses = self.i_hits + self.i_misses;
        out.dcache_misses = self.d_misses;
        out.dcache_accesses = self.d_hits + self.d_misses;
        out.bus_transactions = self.bus;
        out.dock_transfers = self.dock;
    }
}

/// Payload of the fixed interpreter probe, per kernel.
pub const PROBE_BYTES: usize = 2048;

/// One fixed-size software request per kernel, PatMatch included, each
/// repeated until it has run for a while; returns retired instructions
/// per host second (the median over repeats) and whether every response
/// matched its reference.
pub fn kernel_probe(spans: &mut Spans) -> (BTreeMap<&'static str, f64>, bool) {
    let mut rates = BTreeMap::new();
    let mut ok = true;
    for kernel in Kernel::ALL {
        let mut rng = SplitMix64::new(0x9B0B_E000 ^ kernel.index() as u64);
        let request = Request::synthetic(kernel, PROBE_BYTES, &mut rng);
        let reference = request.reference();
        let mut machine = build_system(SystemKind::Bit32);
        let mut driver = Driver::new();
        driver.preload_all(&mut machine);
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 3 || (samples.len() < 50 && started.elapsed().as_secs_f64() < 0.3) {
            let retired = machine.cpu.stats.retired;
            let s = spans.enter("ppc.probe", None);
            let t = Instant::now();
            let (_, response) = driver.run_sw(&mut machine, &request);
            let host_s = t.elapsed().as_secs_f64();
            spans.exit(s);
            ok &= response == reference;
            samples.push((machine.cpu.stats.retired - retired) as f64 / host_s);
        }
        rates.insert(kernel_key(kernel), crate::median(&mut samples));
    }
    (rates, ok)
}
