//! Full cluster over real TCP sockets: logins, locate floods, redirects,
//! and file I/O all cross the wire through the binary codec.

mod common;

use bytes::Bytes;
use common::Watched;
use scalla::cache::CacheConfig;
use scalla::client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::{assert_poll, TcpNet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn tcp_cluster_end_to_end() {
    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache = CacheConfig { full_delay: Nanos::from_millis(500), ..CacheConfig::default() };
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let manager = net.add_node(Box::new(CmsdNode::new(mgr_cfg, clock))).unwrap();
    directory.register("mgr", manager);

    for i in 0..3 {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        if i == 1 {
            node.fs_mut().put_online("/tcp/hello", 256);
        }
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
    }

    let ops = vec![
        ClientOp::OpenRead { path: "/tcp/hello".into(), len: 64 },
        ClientOp::OpenRead { path: "/tcp/hello".into(), len: 64 },
        ClientOp::Open { path: "/tcp/ghost".into(), write: false },
    ];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(800);
    ccfg.request_timeout = Nanos::from_secs(5);
    let (watched, done) = Watched::new(ClientNode::new(ccfg));
    let client = net.add_node(Box::new(watched)).unwrap();

    net.start();
    assert_poll(Duration::from_secs(4), "client finished its script", || {
        done.load(Ordering::SeqCst)
    });
    let mut nodes = net.shutdown();
    let results = nodes[client.0 as usize]
        .as_any_mut()
        .unwrap()
        .downcast_ref::<ClientNode>()
        .unwrap()
        .results()
        .to_vec();
    assert_eq!(results.len(), 3, "all ops must terminate: {results:?}");
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_eq!(results[0].server.as_deref(), Some("srv-1"));
    assert_eq!(results[1].outcome, OpOutcome::Ok);
    assert!(
        results[1].latency() <= results[0].latency(),
        "warm open can't be slower than cold: {results:?}"
    );
    assert_eq!(results[2].outcome, OpOutcome::NotFound);
    assert!(results[2].latency() >= Nanos::from_millis(500), "full delay over TCP");
}

/// Replies to every `Open` with `OpenOk`.
struct EchoNode;
impl Node for EchoNode {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if matches!(msg, Msg::Client(ClientMsg::Open { .. })) {
            ctx.send(from, ServerMsg::OpenOk { handle: 7 }.into());
        }
    }
}

fn open_msg() -> Msg {
    ClientMsg::Open { path: "/stress".into(), write: false, refresh: false, avoid: None }.into()
}

/// Keeps `window` requests in flight to each echo peer until `per_peer`
/// replies have come back from every one of them.
struct Pinger {
    echoes: Vec<Addr>,
    window: u64,
    per_peer: u64,
    sent: HashMap<Addr, u64>,
    replies: Arc<AtomicU64>,
}

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        for &echo in &self.echoes.clone() {
            let burst = self.window.min(self.per_peer);
            for _ in 0..burst {
                ctx.send(echo, open_msg());
            }
            self.sent.insert(echo, burst);
        }
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if !matches!(msg, Msg::Server(ServerMsg::OpenOk { handle: 7 })) {
            return;
        }
        self.replies.fetch_add(1, Ordering::SeqCst);
        let sent = self.sent.entry(from).or_insert(0);
        if *sent < self.per_peer {
            *sent += 1;
            ctx.send(from, open_msg());
        }
    }
}

/// Hundreds of concurrent round-trips across several nodes: below queue
/// and mailbox capacity the egress pipeline must lose nothing.
#[test]
fn tcp_stress_zero_loss_below_capacity() {
    const ECHOES: usize = 3;
    const PINGERS: usize = 3;
    const PER_PEER: u64 = 100;

    let mut net = TcpNet::new().expect("bind localhost");
    let mut echoes = Vec::new();
    for _ in 0..ECHOES {
        echoes.push(net.add_node(Box::new(EchoNode)).unwrap());
    }
    let replies = Arc::new(AtomicU64::new(0));
    for _ in 0..PINGERS {
        net.add_node(Box::new(Pinger {
            echoes: echoes.clone(),
            window: 8,
            per_peer: PER_PEER,
            sent: HashMap::new(),
            replies: replies.clone(),
        }))
        .unwrap();
    }
    net.start();

    let expect = (ECHOES * PINGERS) as u64 * PER_PEER;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while replies.load(Ordering::SeqCst) < expect && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(replies.load(Ordering::SeqCst), expect, "every round-trip must complete");

    let counters = net.counters();
    assert_eq!(counters.total_mailbox_drops(), 0, "{}", counters.row());
    assert_eq!(counters.egress.queue_drops, 0, "{}", counters.row());
    assert_eq!(counters.egress.conn_drops, 0, "{}", counters.row());
    // 2 wire frames per round-trip, plus nothing else on this net.
    assert_eq!(counters.egress.frames, 2 * expect, "{}", counters.row());
    net.shutdown();
}

/// Floods a black-hole peer (accepts, never reads) with large frames while
/// running echo round-trips with a healthy peer. The kernel socket to the
/// black hole wedges almost immediately; with the old inline-write design
/// the protocol thread would block in `write_all` and the echo traffic
/// would stall. With queued egress the echo traffic must keep flowing.
#[test]
fn stalled_peer_does_not_block_protocol_thread() {
    const FLOOD_FRAMES: u64 = 256; // 256 × 64 KiB ≫ kernel socket buffers
    const ECHO_GOAL: u64 = 200;
    const TOK_FLOOD: u64 = 1;

    // The black hole: accepts connections, holds them open, reads nothing.
    let hole_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let hole_addr = hole_listener.local_addr().unwrap();
    let held = Arc::new(std::sync::Mutex::new(Vec::new()));
    {
        let held = held.clone();
        // Detached on purpose: it blocks in accept for the process
        // lifetime; the test only needs the sockets kept open (unread).
        std::thread::spawn(move || {
            while let Ok((stream, _)) = hole_listener.accept() {
                held.lock().unwrap().push(stream);
            }
        });
    }

    struct Flooder {
        hole: Addr,
        echo: Addr,
        to_flood: u64,
        replies: Arc<AtomicU64>,
    }
    impl Node for Flooder {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            for _ in 0..4 {
                ctx.send(self.echo, open_msg());
            }
            ctx.set_timer(Nanos::from_millis(1), TOK_FLOOD);
        }
        fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
            if token != TOK_FLOOD || self.to_flood == 0 {
                return;
            }
            self.to_flood -= 1;
            // A 64 KiB write frame: a handful of these wedge the socket.
            let data = Bytes::from(vec![0xABu8; 64 * 1024]);
            ctx.send(self.hole, ClientMsg::Write { handle: 1, offset: 0, data }.into());
            ctx.set_timer(Nanos::from_millis(1), TOK_FLOOD);
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if matches!(msg, Msg::Server(ServerMsg::OpenOk { .. })) {
                let n = self.replies.fetch_add(1, Ordering::SeqCst) + 1;
                if n < ECHO_GOAL + 4 {
                    ctx.send(from, open_msg());
                }
            }
        }
    }

    let mut net = TcpNet::new().expect("bind localhost");
    let echo = net.add_node(Box::new(EchoNode)).unwrap();
    let hole = net.add_external(hole_addr);
    let replies = Arc::new(AtomicU64::new(0));
    net.add_node(Box::new(Flooder {
        hole,
        echo,
        to_flood: FLOOD_FRAMES,
        replies: replies.clone(),
    }))
    .unwrap();
    net.start();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while replies.load(Ordering::SeqCst) < ECHO_GOAL && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        replies.load(Ordering::SeqCst) >= ECHO_GOAL,
        "echo traffic starved while a peer was stalled: {} < {ECHO_GOAL} ({})",
        replies.load(Ordering::SeqCst),
        net.counters().row()
    );
    let t0 = std::time::Instant::now();
    net.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "teardown with a wedged peer must still be bounded, took {:?}",
        t0.elapsed()
    );
    drop(held.lock().unwrap().drain(..).collect::<Vec<_>>());
}
