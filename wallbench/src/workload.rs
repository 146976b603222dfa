//! The three workloads: seeded input generation and cluster assembly.
//!
//! Inputs (file placement, sizes, every client's script) are generated
//! here from `--seed` before any node exists; nodes only ever receive the
//! generated paths and sizes.

use crate::probe::{Board, Probe};
use scalla_cache::CacheStats;
use scalla_client::{ClientConfig, ClientOp, Directory};
use scalla_lcache::{LcacheConfig, LcacheStats, LocationCache};
use scalla_node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla_pcache::{BlockStore, PcacheConfig, ProxyConfig, ProxyNode};
use scalla_proto::Addr;
use scalla_sim::TcpNet;
use scalla_simnet::Node;
use std::collections::VecDeque;
use std::sync::Arc;

/// Closed-loop client count (the box has two cores).
pub const CLIENTS: usize = 2;
const SERVERS: usize = 4;

/// Files in `open_hot`'s fixed set.
const HOT_FILES: usize = 256;
/// Warm-up opens per client in `open_miss_tree` (each a fresh path).
const MISS_WARMUP: usize = 256;
/// Files in `read_pcache`'s working set and their size range in blocks.
const READ_FILES: usize = 64;
const READ_BLOCKS: (u64, u64) = (2, 4);
/// Zipf exponent of `read_pcache` popularity.
const READ_ZIPF: f64 = 1.0;

/// Script capacity per client and per second of the timed window. A
/// client that runs out of script before the window closes fails the run
/// (sized at several times the measured rate on a 2-core box).
const HOT_OPS_PER_S: usize = 25_000;
const MISS_OPS_PER_S: usize = 8_000;
const READ_OPS_PER_S: usize = 4_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    OpenHot,
    OpenMissTree,
    ReadPcache,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "open_hot" => Some(Workload::OpenHot),
            "open_miss_tree" => Some(Workload::OpenMissTree),
            "read_pcache" => Some(Workload::ReadPcache),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenHot => "open_hot",
            Workload::OpenMissTree => "open_miss_tree",
            Workload::ReadPcache => "read_pcache",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Client,
    Manager,
    Supervisor,
    Server,
    Proxy,
}

/// SplitMix64: the benchmark's own generator, so inputs for a seed never
/// change with the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5CA1_1A00_BE4C_0000)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One seeded file: where it lives and how big it is.
pub struct File {
    pub path: String,
    pub server: usize,
    pub size: u64,
}

/// Everything generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub files: Vec<File>,
    /// Per client: the script (warm-up first) and, per op, the index of
    /// the file it names.
    pub scripts: Vec<Vec<ClientOp>>,
    pub targets: Vec<Vec<usize>>,
    /// Per client: how many leading ops are warm-up.
    pub warmup: Vec<usize>,
    /// `read_pcache`: the proxy's block-store capacity.
    pub proxy_capacity: u64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let secs = seconds as usize;
        let mut files = Vec::new();
        let mut scripts = Vec::new();
        let mut targets = Vec::new();
        let mut warmup = Vec::new();
        let mut proxy_capacity = 0;
        match workload {
            Workload::OpenHot => {
                for i in 0..HOT_FILES {
                    let server = rng.below(SERVERS as u64) as usize;
                    files.push(File { path: format!("/hot/{i:04}"), server, size: 0 });
                }
                let mut order: Vec<usize> = (0..HOT_FILES).collect();
                rng.shuffle(&mut order);
                for c in 0..CLIENTS {
                    // Warm-up: this client's share of the set, each once.
                    let mut t: Vec<usize> =
                        order.iter().copied().skip(c).step_by(CLIENTS).collect();
                    warmup.push(t.len());
                    for _ in 0..HOT_OPS_PER_S * secs {
                        t.push(rng.below(HOT_FILES as u64) as usize);
                    }
                    targets.push(t);
                }
            }
            Workload::OpenMissTree => {
                let per_client = MISS_WARMUP + MISS_OPS_PER_S * secs;
                for c in 0..CLIENTS {
                    let mut t = Vec::with_capacity(per_client);
                    for k in 0..per_client {
                        let server = rng.below(SERVERS as u64) as usize;
                        t.push(files.len());
                        files.push(File { path: format!("/miss/{c}/{k}"), server, size: 0 });
                    }
                    warmup.push(MISS_WARMUP);
                    targets.push(t);
                }
            }
            Workload::ReadPcache => {
                // File `i` has popularity rank `i`. Sizes and servers cycle
                // by rank, so every seed has the same working set and the
                // same size and origin mix at every popularity level. The
                // seed orders the warm-up and draws the reads.
                let block = PcacheConfig::default().block_size as u64;
                let span = READ_BLOCKS.1 - READ_BLOCKS.0 + 1;
                let mut total = 0;
                for i in 0..READ_FILES {
                    let server = i % SERVERS;
                    let size = (READ_BLOCKS.0 + i as u64 % span) * block;
                    total += size;
                    files.push(File { path: format!("/data/{i:03}"), server, size });
                }
                // The working set is twice what the proxy can hold.
                proxy_capacity = total / 2;
                let mut cdf = Vec::with_capacity(READ_FILES);
                let mut acc = 0.0;
                for k in 0..READ_FILES {
                    acc += 1.0 / ((k + 1) as f64).powf(READ_ZIPF);
                    cdf.push(acc);
                }
                let mut order: Vec<usize> = (0..READ_FILES).collect();
                rng.shuffle(&mut order);
                for c in 0..CLIENTS {
                    // Warm-up: every file once across the clients, so the
                    // store is full and has started evicting.
                    let mut t: Vec<usize> =
                        order.iter().copied().skip(c).step_by(CLIENTS).collect();
                    warmup.push(t.len());
                    for _ in 0..READ_OPS_PER_S * secs {
                        let u = rng.unit() * acc;
                        t.push(cdf.partition_point(|&x| x < u).min(READ_FILES - 1));
                    }
                    targets.push(t);
                }
            }
        }
        for t in &targets {
            scripts.push(
                t.iter()
                    .map(|&f| match workload {
                        Workload::ReadPcache => ClientOp::OpenRead {
                            path: files[f].path.clone(),
                            len: files[f].size as u32,
                        },
                        _ => ClientOp::Open { path: files[f].path.clone(), write: false },
                    })
                    .collect(),
            );
        }
        Inputs { workload, files, scripts, targets, warmup, proxy_capacity }
    }
}

/// A started-but-gated cluster and the handles the harness reads.
pub struct Cluster {
    pub net: TcpNet,
    pub board: Arc<Board>,
    pub roles: Vec<Role>,
    pub clients: Vec<Addr>,
    pub cmsds: Vec<Addr>,
    pub cache_stats: Vec<Arc<CacheStats>>,
    pub store: Option<Arc<BlockStore>>,
    pub lcache: Option<Arc<LcacheStats>>,
    /// `LoginOk`s that mark the tree as assembled.
    pub expected_logins: usize,
}

impl Cluster {
    /// Binds every node (seeding the servers) and starts the net. Clients
    /// stay gated until `board.go` is set; `scripts` holds each client's
    /// script as [`Probe::chunks`].
    pub fn build(inputs: &Inputs, scripts: Vec<VecDeque<Vec<ClientOp>>>, traced: bool) -> Cluster {
        let w = inputs.workload;
        let n_sups = if w == Workload::OpenMissTree { 2 } else { 0 };
        let n_nodes = 1 + n_sups + SERVERS + usize::from(w == Workload::ReadPcache) + CLIENTS;
        let board = Arc::new(Board::new(CLIENTS, traced.then_some(n_nodes)));
        let mut net = TcpNet::new().expect("bind localhost");
        let clock = net.clock();
        let directory = Arc::new(Directory::new());
        // Clients talk to the manager, or to the proxy (added right after
        // the servers) in `read_pcache`.
        let head = Addr(if w == Workload::ReadPcache { (1 + n_sups + SERVERS) as u64 } else { 0 });
        let mut roles = Vec::new();
        let mut add = |probe: Probe, role, name: &str| {
            let addr = net.add_node(Box::new(probe)).expect("bind");
            assert_eq!(addr, Addr(roles.len() as u64), "dense addresses");
            roles.push(role);
            directory.register(name, addr);
            addr
        };
        let probe = |node: Box<dyn Node>| Probe::new(node, board.clone());
        let (mut cmsds, mut cache_stats, mut clients) = (Vec::new(), Vec::new(), Vec::new());
        let (mut store, mut lcache, mut expected_logins) = (None, None, 0);

        let mut mgr_cfg = CmsdConfig::manager("mgr");
        if w == Workload::ReadPcache {
            mgr_cfg = mgr_cfg.enable_leases();
        }
        let mgr = CmsdNode::new(mgr_cfg, clock.clone());
        cache_stats.push(mgr.cache().stats_arc());
        let manager = add(probe(Box::new(mgr)), Role::Manager, "mgr");
        cmsds.push(manager);

        let mut parents = [manager; SERVERS];
        for s in 0..n_sups {
            let name = format!("sup-{s}");
            let sup = CmsdNode::new(CmsdConfig::supervisor(&name, manager), clock.clone());
            cache_stats.push(sup.cache().stats_arc());
            let addr = add(probe(Box::new(sup)), Role::Supervisor, &name);
            cmsds.push(addr);
            expected_logins += 1;
            for (i, p) in parents.iter_mut().enumerate() {
                if i * n_sups / SERVERS == s {
                    *p = addr;
                }
            }
        }

        let mut servers: Vec<ServerNode> = (0..SERVERS)
            .map(|i| ServerNode::new(ServerConfig::new(format!("srv-{i}"), parents[i])))
            .collect();
        for f in &inputs.files {
            servers[f.server].fs_mut().put_online(&f.path, f.size);
        }
        for (i, srv) in servers.into_iter().enumerate() {
            add(probe(Box::new(srv)), Role::Server, &format!("srv-{i}"));
            expected_logins += 1;
        }

        if w == Workload::ReadPcache {
            let mut pcfg = ProxyConfig::new("pxy-0", manager, directory.clone());
            pcfg.cache =
                PcacheConfig { capacity: inputs.proxy_capacity, ..PcacheConfig::default() };
            pcfg.lcache = Some(LocationCache::shared(LcacheConfig::default()));
            lcache = pcfg.lcache.as_ref().map(|l| l.stats_arc());
            let pxy = ProxyNode::new(pcfg);
            store = Some(pxy.store().clone());
            assert_eq!(add(probe(Box::new(pxy)), Role::Proxy, "pxy-0"), head);
            expected_logins += 1;
        }

        for (slot, chunks) in scripts.into_iter().enumerate() {
            let template = ClientConfig::new(head, directory.clone(), Vec::new());
            let client = Probe::client(template, chunks, slot, board.clone());
            clients.push(add(client, Role::Client, &format!("client-{slot}")));
        }
        assert_eq!(roles.len(), n_nodes);
        net.start();
        Cluster { net, board, roles, clients, cmsds, cache_stats, store, lcache, expected_logins }
    }
}
