//! The three workloads: their inputs, set-up, passes and result checks.

use crate::probe::{AppCounters, GetLog, TimedApp, TimingStore};
use cb_apps::gen::{GraphSpec, PointMode, PointsSpec};
use cb_apps::kmeans::{Centroids, KMeansApp};
use cb_apps::knn::{KnnApp, KnnQuery};
use cb_apps::pagerank::{PageRankApp, RankParams};
use cb_apps::scenario::{build_hybrid, HybridOpts, CLOUD, LOCAL};
use cb_net::{fingerprint, run_worker, serve_head, NetConfig, RobjCodec, WorkerSpec};
use cb_simnet::DetRng;
use cb_storage::index;
use cb_storage::layout::{ChunkMeta, DatasetLayout, Placement};
use cloudburst_core::api::{run_sequential, GRApp, ReductionObject};
use cloudburst_core::combine::{TopK, VecSum};
use cloudburst_core::deploy::Deployment;
use cloudburst_core::obs::{EventRecord, RecordingSink, SinkHandle};
use cloudburst_core::{RunReport, RuntimeConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dimension of the point workloads.
const DIM: usize = 8;

/// Relative tolerance when comparing `VecSum` results: f64 sums depend on
/// merge order, so a distributed run may differ from the sequential
/// oracle in the last bits.
const VECSUM_REL_TOL: f64 = 1e-9;

/// How a workload reaches its head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// `runtime::run` in this process.
    InProcess,
    /// `serve_head` plus one `run_worker` thread per cluster, over
    /// localhost TCP.
    Tcp,
}

/// A generated workload: the app, its fixed params, the layout and the
/// input bytes (one buffer per file).
pub struct Workload<A: GRApp> {
    pub app: A,
    pub params: A::Params,
    layout: DatasetLayout,
    pub input: Vec<Vec<u8>>,
    opts: HybridOpts,
    pub substrate: Substrate,
    app_tag: &'static str,
}

/// Dataset shape of one workload at one size.
struct Shape {
    files: usize,
    units_per_file: usize,
    units_per_chunk: usize,
}

/// Fill one buffer per file of `layout` with `fill` (generation: not timed).
fn generate(layout: &DatasetLayout, mut fill: impl FnMut(&ChunkMeta, &mut [u8])) -> Vec<Vec<u8>> {
    layout
        .files
        .iter()
        .map(|f| {
            let mut buf = vec![0u8; f.size as usize];
            for c in layout.chunks_of_file(f.id) {
                fill(c, &mut buf[c.offset as usize..(c.offset + c.len) as usize]);
            }
            buf
        })
        .collect()
}

fn points_spec(shape: &Shape, seed: u64, mode: PointMode) -> PointsSpec {
    PointsSpec {
        n_files: shape.files,
        points_per_file: shape.units_per_file,
        points_per_chunk: shape.units_per_chunk,
        dim: DIM,
        seed,
        mode,
    }
}

fn one_plus_one(frac_local: f64) -> HybridOpts {
    HybridOpts {
        frac_local,
        local_cores: 1,
        cloud_cores: 1,
        throttle: None,
    }
}

/// knn-steal: knn (dim 8, k 10) on the 17/83 placement, 1 + 1 cores.
pub fn knn_steal(seed: u64, smoke: bool) -> Workload<KnnApp> {
    let shape = if smoke {
        Shape {
            files: 6,
            units_per_file: 8192,
            units_per_chunk: 2048,
        }
    } else {
        Shape {
            files: 32,
            units_per_file: 250_000,
            units_per_chunk: 8192,
        }
    };
    let spec = points_spec(&shape, seed, PointMode::Uniform);
    let layout = spec.layout();
    let input = generate(&layout, spec.fill());
    let mut rng = DetRng::new(seed ^ 0x00DE_7A11);
    let query = (0..DIM).map(|_| rng.uniform() as f32).collect();
    Workload {
        app: KnnApp::new(DIM, 10),
        params: KnnQuery { query },
        layout,
        input,
        opts: one_plus_one(0.17),
        substrate: Substrate::InProcess,
        app_tag: "knn",
    }
}

/// kmeans-fold: k-means (dim 8, k 16) with fixed centroids on the 50/50
/// placement, 1 + 1 cores.
pub fn kmeans_fold(seed: u64, smoke: bool) -> Workload<KMeansApp> {
    const K: usize = 16;
    let shape = if smoke {
        Shape {
            files: 4,
            units_per_file: 8192,
            units_per_chunk: 2048,
        }
    } else {
        Shape {
            files: 16,
            units_per_file: 250_000,
            units_per_chunk: 8192,
        }
    };
    let spec = points_spec(
        &shape,
        seed,
        PointMode::Blobs {
            centers: K,
            spread: 0.5,
        },
    );
    let layout = spec.layout();
    let input = generate(&layout, spec.fill());
    let mut rng = DetRng::new(seed ^ 0x0CE7_701D);
    let flat = (0..K * DIM).map(|_| rng.uniform() * 10.0).collect();
    Workload {
        app: KMeansApp::new(DIM, K),
        params: Centroids::new(DIM, flat),
        layout,
        input,
        opts: one_plus_one(0.5),
        substrate: Substrate::InProcess,
        app_tag: "kmeans",
    }
}

/// pagerank-tcp: pagerank over 2M pages with fixed (uniform) ranks on the
/// 50/50 placement; one head and two single-core workers over TCP.
pub fn pagerank_tcp(seed: u64, smoke: bool) -> Workload<PageRankApp> {
    let (pages, shape) = if smoke {
        (
            10_000,
            Shape {
                files: 4,
                units_per_file: 16_384,
                units_per_chunk: 4096,
            },
        )
    } else {
        (
            2_000_000,
            Shape {
                files: 16,
                units_per_file: 1_000_000,
                units_per_chunk: 32_768,
            },
        )
    };
    let spec = GraphSpec {
        n_pages: pages,
        n_files: shape.files,
        edges_per_file: shape.units_per_file,
        edges_per_chunk: shape.units_per_chunk,
        seed,
    };
    let layout = spec.layout();
    let input = generate(&layout, spec.fill());
    let mut out_degree = vec![0u32; pages as usize];
    for file in &input {
        for edge in file.chunks_exact(GraphSpec::UNIT_BYTES as usize) {
            let src = u32::from_le_bytes(edge[..4].try_into().expect("4-byte source"));
            out_degree[src as usize] += 1;
        }
    }
    Workload {
        app: PageRankApp::new(pages),
        params: RankParams::uniform(Arc::new(out_degree)),
        layout,
        input,
        opts: one_plus_one(0.5),
        substrate: Substrate::Tcp,
        app_tag: "pagerank",
    }
}

impl<A: GRApp> Workload<A> {
    /// Dataset size in bytes.
    pub fn bytes(&self) -> u64 {
        self.layout.total_bytes()
    }

    fn chunk_bytes(&self, c: &ChunkMeta) -> &[u8] {
        &self.input[c.file.0 as usize][c.offset as usize..(c.offset + c.len) as usize]
    }

    /// The single-threaded reference result.
    pub fn oracle(&self) -> A::RObj {
        let chunks = self
            .layout
            .chunks
            .iter()
            .map(|c| (*c, self.chunk_bytes(c).to_vec()));
        run_sequential(&self.app, &self.params, chunks)
    }

    /// One set-up: the index file round trip, materialising the stores and
    /// building the deployment (plus, over TCP, binding the head's
    /// listener).
    pub fn setup(&self) -> Result<(Env, SetupTimes), String> {
        let t0 = Instant::now();
        let encoded = index::encode(&self.layout);
        let layout = index::decode(&encoded).map_err(|e| format!("index round trip: {e}"))?;
        let index_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let hybrid = build_hybrid(
            layout,
            |c, buf| buf.copy_from_slice(self.chunk_bytes(c)),
            self.opts,
        )
        .map_err(|e| format!("materialize: {e}"))?;
        let materialize_s = t1.elapsed().as_secs_f64();
        let tcp = match self.substrate {
            Substrate::InProcess => None,
            Substrate::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| format!("binding the head listener: {e}"))?;
                Some(TcpHead {
                    listener,
                    fingerprint: fingerprint(&hybrid.layout, &hybrid.placement, self.app_tag),
                    app_tag: self.app_tag.to_owned(),
                })
            }
        };
        let env = Env {
            layout: hybrid.layout,
            placement: hybrid.placement,
            deployment: hybrid.deployment,
            tcp,
        };
        let times = SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            index_s,
            materialize_s,
        };
        Ok((env, times))
    }
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub index_s: f64,
    pub materialize_s: f64,
}

/// What set-up built: everything a pass runs against.
pub struct Env {
    pub layout: DatasetLayout,
    pub placement: Placement,
    pub deployment: Deployment,
    /// TCP only: the head's side of the wire.
    pub tcp: Option<TcpHead>,
}

/// The head's listener, bound at set-up so workers never wait to dial,
/// and what the handshake checks.
pub struct TcpHead {
    listener: TcpListener,
    fingerprint: u64,
    app_tag: String,
}

/// Result check against the oracle, plus a way to break a result on
/// purpose (the benchmark's own tests use it).
pub trait Checked: ReductionObject + RobjCodec + Clone {
    fn check(&self, oracle: &Self) -> Result<(), String>;
    fn corrupt(&mut self);
}

impl Checked for TopK {
    /// Byte for byte: the canonical encoding is independent of merge order.
    fn check(&self, oracle: &Self) -> Result<(), String> {
        if self.encode_robj() == oracle.encode_robj() {
            Ok(())
        } else {
            Err("top-k differs from the oracle".into())
        }
    }

    fn corrupt(&mut self) {
        self.offer(-1.0, u64::MAX);
    }
}

impl Checked for VecSum {
    fn check(&self, oracle: &Self) -> Result<(), String> {
        if self.len() != oracle.len() {
            return Err(format!("length {} != oracle {}", self.len(), oracle.len()));
        }
        for (i, (a, b)) in self.values().iter().zip(oracle.values()).enumerate() {
            let scale = a.abs().max(b.abs());
            if (a - b).abs() > VECSUM_REL_TOL * scale || !a.is_finite() {
                return Err(format!("slot {i}: {a} != oracle {b}"));
            }
        }
        Ok(())
    }

    fn corrupt(&mut self) {
        let first = self.values()[0];
        self.add_at(0, 1.0 + first.abs());
    }
}

/// Network settings for the TCP workload. A 100 ms heartbeat (workers beat
/// every 50 ms) keeps a worker's exit short between passes; twenty missed
/// beats (2 s) before a peer counts as lost keep a busy two-core host from
/// losing one by accident.
fn net_config() -> NetConfig {
    NetConfig {
        heartbeat: Duration::from_millis(100),
        heartbeat_misses: 20,
        ..NetConfig::default()
    }
}

/// One finished pass.
pub struct Pass<R> {
    /// From the start of the pass until `run` / `serve_head` returned.
    pub wall: Duration,
    /// TCP only: from `serve_head` returning until both workers joined.
    pub worker_exit: Duration,
    pub result: Result<Ran<R>, String>,
}

/// A pass's products.
pub struct Ran<R> {
    pub robj: R,
    pub report: RunReport,
    /// TCP only: each worker's copy of the robj it shipped, by cluster.
    pub shipped: Vec<R>,
}

/// Run one pass of `app` against `env`.
pub fn pass<B>(app: &B, params: &B::Params, env: &Env, cfg: &RuntimeConfig) -> Pass<B::RObj>
where
    B: GRApp,
    B::RObj: RobjCodec,
{
    let t0 = Instant::now();
    let Some(head) = &env.tcp else {
        let out = cloudburst_core::run(
            app,
            params,
            &env.layout,
            &env.placement,
            &env.deployment,
            cfg,
        );
        return Pass {
            wall: t0.elapsed(),
            worker_exit: Duration::ZERO,
            result: out
                .map(|o| Ran {
                    robj: o.result,
                    report: o.report,
                    shipped: Vec::new(),
                })
                .map_err(|e| e.to_string()),
        };
    };
    let net = net_config();
    let addr = match head.listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            return Pass {
                wall: t0.elapsed(),
                worker_exit: Duration::ZERO,
                result: Err(format!("listener address: {e}")),
            }
        }
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = env
            .deployment
            .clusters
            .iter()
            .enumerate()
            .map(|(ci, cluster)| {
                let spec = WorkerSpec {
                    cluster: ci as u32,
                    name: cluster.name.clone(),
                    app_tag: head.app_tag.clone(),
                    fingerprint: head.fingerprint,
                };
                let net = &net;
                s.spawn(move || {
                    run_worker(
                        app,
                        params,
                        &env.layout,
                        &env.placement,
                        &env.deployment.fabric,
                        cluster,
                        &spec,
                        cfg,
                        net,
                        addr,
                    )
                })
            })
            .collect();
        let served = serve_head::<B::RObj>(
            &head.listener,
            workers.len(),
            &env.layout,
            &env.placement,
            cfg,
            &net,
            head.fingerprint,
            &head.app_tag,
        );
        let wall = t0.elapsed();
        let mut shipped = Vec::with_capacity(workers.len());
        let mut worker_error = None;
        for w in workers {
            match w.join() {
                Ok(Ok(out)) => shipped.extend(out.outcome.robj.map(|r| *r)),
                Ok(Err(e)) => worker_error = Some(format!("worker: {e}")),
                Err(_) => worker_error = Some("worker thread panicked".into()),
            }
        }
        let worker_exit = t0.elapsed() - wall;
        let result = match (served, worker_error) {
            (Err(e), _) => Err(format!("head: {e}")),
            (Ok(_), Some(e)) => Err(e),
            (Ok(o), None) => Ok(Ran {
                robj: o.result,
                report: o.report,
                shipped,
            }),
        };
        Pass {
            wall,
            worker_exit,
            result,
        }
    })
}

/// Everything a traced pass recorded besides its products.
pub struct Traced<R> {
    pub pass: Pass<R>,
    pub events: Vec<EventRecord>,
    pub gets: Vec<crate::probe::GetRecord>,
    pub counters: Arc<AppCounters>,
}

/// One pass with every probe in place: a recording sink, the timing store
/// on every fabric path and the timing app wrapper.
pub fn traced_pass<A>(
    app: &A,
    params: &A::Params,
    env: &Env,
    cfg: &RuntimeConfig,
) -> Result<Traced<A::RObj>, String>
where
    A: GRApp + Clone,
    A::RObj: RobjCodec,
{
    let log = GetLog::new();
    let mut deployment = env.deployment.clone();
    for site in [LOCAL, CLOUD] {
        deployment
            .fabric
            .wrap_paths_to(site, |s| TimingStore::wrap(s, Arc::clone(&log)));
    }
    let tcp = match &env.tcp {
        None => None,
        Some(head) => Some(TcpHead {
            listener: head
                .listener
                .try_clone()
                .map_err(|e| format!("sharing the head listener: {e}"))?,
            fingerprint: head.fingerprint,
            app_tag: head.app_tag.clone(),
        }),
    };
    let probed = Env {
        layout: env.layout.clone(),
        placement: env.placement.clone(),
        deployment,
        tcp,
    };
    let counters = AppCounters::new(env.layout.chunks.len());
    let timed = TimedApp::new(app.clone(), Arc::clone(&counters));
    let sink = RecordingSink::new();
    let cfg = RuntimeConfig {
        sink: SinkHandle::new(sink.clone()),
        ..cfg.clone()
    };
    let pass = pass(&timed, params, &probed, &cfg);
    Ok(Traced {
        pass,
        events: sink.take(),
        gets: log.take(),
        counters,
    })
}
