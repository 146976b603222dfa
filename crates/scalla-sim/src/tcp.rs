//! Real-socket runtime: the cluster over TCP on localhost.
//!
//! The third runtime tier. The simulator proves protocol shapes, the
//! threaded runtime proves the locking, and this one proves the *wire*:
//! every message crosses a real `TcpStream` through the binary codec and
//! [`FrameDecoder`], with all the fragmentation and interleaving a kernel
//! socket provides. The very same [`Node`] state machines run unmodified.
//!
//! Each node owns a listener on `127.0.0.1` and one thread running an
//! `epoll` reactor over its sockets and timers (Linux only; DESIGN.md,
//! "Runtime tiers"). Sends never block, a hop costs one thread wake-up,
//! and a dead peer shows up as a failed connect or write whose frames are
//! dropped and counted — the loss semantics of the other runtimes.

use crate::admin::AdminServer;
use crate::chaos::{FaultGates, GateVerdict};
use crate::egress::{Egress, EgressShared, EgressStats, EgressTuning, Io, LINK_TOKEN};
use crate::metrics::{EgressCounters, NetCounters};
use crate::sys::{Epoll, Event, EPOLLIN};
use bytes::BytesMut;
use scalla_obs::Obs;
use scalla_proto::{encode_frame, encode_frame_traced_pooled, Addr, FrameDecoder, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Clock, Nanos, SplitMix64, SystemClock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll tokens: the waker, the listener, then inbound connection ids
/// (outbound connections carry [`LINK_TOKEN`]).
const WAKER: u64 = 0;
const LISTENER: u64 = 1;
/// Frames one socket may deliver per loop iteration (fairness).
const FRAMES_PER_TURN: usize = 64;

/// Restart and stop requests for one node, raised from outside its thread
/// and seen by its loop after a byte on the waker socket.
struct Control {
    restart: AtomicBool,
    stop: AtomicBool,
    waker: UnixStream,
}

impl Control {
    fn raise(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
        // A full waker already holds an unread wake-up.
        let _ = (&self.waker).write(&[1]);
    }
}

/// Placeholder that [`TcpNet::shutdown`] returns for an external slot.
struct ExternalPeer;
impl Node for ExternalPeer {
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
}

/// Everything a node callback may touch.
struct Core {
    clock: Arc<SystemClock>,
    gates: FaultGates,
    timers: BinaryHeap<Reverse<(Nanos, u64)>>,
    rng: SplitMix64,
    /// Ambient trace id: taken from the inbound frame and stamped onto every
    /// frame sent from the callback, so a trace follows the request across
    /// hops without touching the `Node` trait.
    trace: u64,
    out: Egress,
}

impl NetCtx for Core {
    fn now(&self) -> Nanos {
        self.clock.now()
    }
    fn me(&self) -> Addr {
        self.out.io.me
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        // Chaos gate first: a crashed sender, crashed target, partitioned
        // pair, or loss roll silently eats the message before encoding.
        let copies = match self.gates.verdict(self.out.io.me, to) {
            GateVerdict::Drop => return,
            GateVerdict::Deliver => 1,
            GateVerdict::Duplicate => 2,
        };
        for _ in 0..copies {
            let frame = encode_frame_traced_pooled(&msg, self.trace, &self.out.io.stats.pool);
            self.out.send(to, frame);
        }
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.timers.push(Reverse((self.clock.now() + delay, token)));
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }
    fn trace(&self) -> u64 {
        self.trace
    }
}

/// An accepted connection: the sender's 8-byte address, then frames.
struct Inbound {
    stream: TcpStream,
    pre: Vec<u8>,
    dec: FrameDecoder,
}

/// One node's thread: its state machine and every socket it owns.
struct Reactor {
    node: Box<dyn Node>,
    core: Core,
    listener: TcpListener,
    waker: UnixStream,
    control: Arc<Control>,
    inbound: HashMap<u64, Inbound>,
    /// Connections whose last turn ended on the frame budget.
    backlog: Vec<u64>,
    next_id: u64,
    buf: Vec<u8>,
}

impl Reactor {
    /// The loop: flush, wait, fire due timers, handle ready sockets.
    fn run(mut self) -> Box<dyn Node> {
        self.node.on_start(&mut self.core);
        let (mut events, mut due) = ([Event::default(); 64], Vec::new());
        'run: loop {
            self.core.out.flush();
            let deadline = self.core.out.expire();
            let timeout = if self.backlog.is_empty() { self.timeout_ms(deadline) } else { 0 };
            let n = self.core.out.io.ep.wait(&mut events, timeout);
            // Collected first, so a zero-delay re-arm waits a turn.
            let now = self.core.clock.now();
            while let Some(&Reverse((_, token))) =
                self.core.timers.peek().filter(|Reverse((at, _))| *at <= now)
            {
                self.core.timers.pop();
                due.push(token);
            }
            for token in due.drain(..) {
                if !self.core.gates.is_down(self.core.out.io.me) {
                    self.core.trace = 0;
                    self.node.on_timer(&mut self.core, token);
                }
            }
            let backlog = std::mem::take(&mut self.backlog);
            for &Event { token, events: ready } in &events[..n] {
                match token {
                    WAKER if self.control() => break 'run,
                    WAKER => {}
                    LISTENER => self.accept(),
                    t if t & LINK_TOKEN != 0 => self.core.out.on_ready(t, ready),
                    id => self.pump(id),
                }
            }
            for id in backlog {
                self.pump(id);
            }
        }
        self.core.out.discard();
        self.node
    }

    /// Milliseconds (rounded up) to the next timer or link deadline.
    fn timeout_ms(&self, deadline: Option<Instant>) -> i32 {
        let now = self.core.clock.now();
        let timer =
            self.core.timers.peek().map(|Reverse((at, _))| Duration::from_nanos(at.since(now).0));
        let link = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        let wait = timer.into_iter().chain(link).min();
        wait.map_or(-1, |d| i32::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX))
    }

    /// Handles a wake-up; returns true when the node must stop.
    fn control(&mut self) -> bool {
        while matches!((&self.waker).read(&mut [0u8; 64]), Ok(n) if n > 0) {}
        if self.control.stop.load(Ordering::SeqCst) {
            return true;
        }
        if self.control.restart.swap(false, Ordering::SeqCst) {
            // A revive: the node re-arms its schedule like a new process.
            self.core.timers.clear();
            self.core.trace = 0;
            self.node.on_start(&mut self.core);
        }
        false
    }

    fn accept(&mut self) {
        // Ends when the accept queue is drained (or on a transient error).
        while let Ok((stream, _)) = self.listener.accept() {
            self.next_id += 1;
            let (ep, id) = (&self.core.out.io.ep, self.next_id);
            if stream.set_nonblocking(true).is_ok()
                && ep.add(stream.as_raw_fd(), EPOLLIN, id).is_ok()
            {
                self.inbound
                    .insert(id, Inbound { stream, pre: Vec::new(), dec: FrameDecoder::new() });
            }
        }
    }

    /// Reads and delivers up to [`FRAMES_PER_TURN`] frames from one
    /// connection; one that used its whole budget goes on the backlog.
    fn pump(&mut self, id: u64) {
        let Reactor { node, core, inbound, backlog, buf, .. } = self;
        let Some(conn) = inbound.get_mut(&id) else { return };
        let (mut budget, mut drained) = (FRAMES_PER_TURN, false);
        let open = 'pump: loop {
            while let (Ok(pre), true) = (<[u8; 8]>::try_from(&conn.pre[..]), budget > 0) {
                match conn.dec.next_traced() {
                    Ok(Some((trace, msg))) => {
                        budget -= 1;
                        if !core.gates.is_down(core.out.io.me) {
                            core.trace = trace;
                            node.on_message(core, Addr(u64::from_le_bytes(pre)), msg);
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break 'pump false, // garbage stream
                }
            }
            if budget == 0 {
                if !backlog.contains(&id) {
                    backlog.push(id);
                }
                break true;
            }
            if drained {
                break true; // a short read emptied the socket
            }
            let data = match (&conn.stream).read(buf) {
                Ok(0) => break false,
                Ok(n) => &buf[..n],
                Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break false,
            };
            drained = data.len() < buf.len();
            let take = (8 - conn.pre.len()).min(data.len());
            conn.pre.extend_from_slice(&data[..take]);
            conn.dec.feed(&data[take..]);
        };
        if !open {
            inbound.remove(&id);
        }
    }
}

enum Slot {
    Pending(Box<dyn Node>, TcpListener, Epoll, UnixStream, Arc<Control>),
    Running(JoinHandle<Box<dyn Node>>, Arc<Control>),
    External,
}

fn net_counters(stats: &[Arc<EgressStats>]) -> NetCounters {
    let sum = |f: fn(&EgressStats) -> u64| stats.iter().map(|s| f(s)).sum();
    NetCounters {
        // Frames are decoded straight into the node: there is no mailbox.
        mailbox_drops: vec![0; stats.len()],
        egress: EgressCounters {
            frames: sum(|s| s.frames.load(Ordering::Relaxed)),
            writes: sum(|s| s.writes.load(Ordering::Relaxed)),
            queue_drops: sum(|s| s.queue_drops.load(Ordering::Relaxed)),
            conn_drops: sum(|s| s.conn_drops.load(Ordering::Relaxed)),
            pool_hits: sum(|s| s.pool.hits()),
            pool_misses: sum(|s| s.pool.misses()),
            peer_deaths: sum(|s| s.peer_deaths.load(Ordering::Relaxed)),
            peer_reconnects: sum(|s| s.peer_reconnects.load(Ordering::Relaxed)),
        },
    }
}

/// The TCP runtime.
#[derive(Default)]
pub struct TcpNet {
    clock: Arc<SystemClock>,
    peers: Vec<SocketAddr>,
    slots: Vec<Slot>,
    /// Per-node egress counters, indexed by address.
    stats: Vec<Arc<EgressStats>>,
    shared: Arc<EgressShared>,
    started: bool,
    admin: Option<AdminServer>,
    gates: FaultGates,
}

impl TcpNet {
    /// Creates an empty TCP network.
    pub fn new() -> std::io::Result<TcpNet> {
        Ok(TcpNet::default())
    }

    /// The chaos gates governing this net's message flow. Cloning shares
    /// state, so a harness can drive faults while the net runs.
    pub fn gates(&self) -> FaultGates {
        self.gates.clone()
    }

    /// Replaces the chaos gates (call before [`TcpNet::start`] to pick a
    /// fault seed).
    pub fn set_gates(&mut self, gates: FaultGates) {
        assert!(!self.started, "set_gates before start");
        self.gates = gates;
    }

    /// Overrides the connect and write budgets and the dead-peer probe
    /// schedule.
    pub fn set_egress_tuning(&self, tuning: EgressTuning) {
        *self.shared.tuning.write() = tuning;
    }

    /// Attaches an observability handle: nodes report `peer_dead` /
    /// `peer_reconnected` recovery events through it.
    /// ([`TcpNet::serve_admin`] attaches its handle automatically.)
    pub fn set_obs(&self, obs: Obs) {
        *self.shared.obs.write() = obs;
    }

    /// Gates a node down: its inbound and outbound messages drop until
    /// [`TcpNet::revive`]. The OS process and threads stay up — this
    /// models the *peer-visible* effect of a crash.
    pub fn kill(&self, addr: Addr) {
        self.gates.kill(addr);
    }

    /// Clears the down gate and restarts the node's state machine
    /// (`on_start` re-runs on its thread; pending timers are discarded
    /// first).
    pub fn revive(&self, addr: Addr) {
        self.gates.revive(addr);
        if let Some(Slot::Pending(.., ctl) | Slot::Running(_, ctl)) =
            self.slots.get(addr.0 as usize)
        {
            ctl.raise(&ctl.restart);
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> Arc<SystemClock> {
        self.clock.clone()
    }

    /// Registers a node; it gets a listener on an ephemeral localhost port.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> std::io::Result<Addr> {
        assert!(!self.started, "add_node before start");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let (waker, wake_tx) = UnixStream::pair()?;
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
        ep.add(waker.as_raw_fd(), EPOLLIN, WAKER)?;
        listener.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let ctl = Control { restart: false.into(), stop: false.into(), waker: wake_tx };
        self.peers.push(listener.local_addr()?);
        self.stats.push(Arc::default());
        self.slots.push(Slot::Pending(node, listener, ep, waker, Arc::new(ctl)));
        Ok(Addr(self.peers.len() as u64 - 1))
    }

    /// Registers an address slot served by an *external* IPv4 socket the
    /// net does not manage (fault injection: a black-hole listener, a server
    /// speaking garbage, …). Frames sent to it leave as usual; nothing is
    /// read back. [`TcpNet::shutdown`] returns a placeholder for it.
    pub fn add_external(&mut self, peer: SocketAddr) -> Addr {
        assert!(!self.started, "add_external before start");
        self.peers.push(peer);
        self.stats.push(Arc::default());
        self.slots.push(Slot::External);
        Addr(self.peers.len() as u64 - 1)
    }

    /// The socket address a node listens on (diagnostics).
    pub fn socket_of(&self, addr: Addr) -> SocketAddr {
        self.peers[addr.0 as usize]
    }

    /// Starts the admin endpoint for this net: one listener thread serving
    /// `/metrics`, `/stats` and `/flight` from `obs` (see [`crate::admin`]),
    /// with the net's wire counters mirrored in at every scrape. Call it
    /// after the last [`TcpNet::add_node`]. Returns the endpoint address.
    pub fn serve_admin(&mut self, obs: Obs) -> std::io::Result<SocketAddr> {
        self.serve_admin_with(obs, None)
    }

    /// Like [`TcpNet::serve_admin`], but additionally serves `/cluster`
    /// and `/cluster.json` from a monitoring collector's merged view.
    pub fn serve_admin_with(
        &mut self,
        obs: Obs,
        view: Option<Arc<scalla_monitor::ClusterView>>,
    ) -> std::io::Result<SocketAddr> {
        assert!(obs.is_enabled(), "serve_admin needs an enabled Obs handle");
        assert!(self.admin.is_none(), "serve_admin once per net");
        self.set_obs(obs.clone());
        let stats = self.stats.clone();
        obs.registry().add_collector(Box::new(move |reg| net_counters(&stats).export_into(reg)));
        let server = AdminServer::spawn_with(obs, view)?;
        let addr = server.addr();
        self.admin = Some(server);
        Ok(addr)
    }

    /// Wire and queue counters accumulated so far (callable any time).
    pub fn counters(&self) -> NetCounters {
        net_counters(&self.stats)
    }

    /// Spawns one reactor thread per node; each runs `on_start` first.
    pub fn start(&mut self) {
        assert!(!self.started, "start once");
        self.started = true;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Pending(node, listener, ep, waker, control) =
                std::mem::replace(slot, Slot::External)
            else {
                continue; // external slot: nothing to run
            };
            let me = Addr(i as u64);
            let io = Io { me, ep, stats: self.stats[i].clone(), shared: self.shared.clone() };
            let core = Core {
                clock: self.clock.clone(),
                gates: self.gates.clone(),
                timers: BinaryHeap::new(),
                rng: SplitMix64::new(0x7C9_0000 ^ me.0),
                trace: 0,
                out: Egress::new(io, &self.peers),
            };
            let reactor = Reactor {
                node,
                core,
                listener,
                waker,
                control: control.clone(),
                inbound: HashMap::new(),
                backlog: Vec::new(),
                next_id: LISTENER,
                buf: vec![0; 64 * 1024],
            };
            let thread = std::thread::Builder::new()
                .name(format!("scalla-tcp-node-{i}"))
                .spawn(move || reactor.run())
                .expect("spawn node thread");
            *slot = Slot::Running(thread, control);
        }
    }

    /// Stops every node and returns them in address order (placeholders
    /// for [`TcpNet::add_external`] slots). The admin endpoint stops
    /// first; each node then leaves its loop at its stop wake-up, counting
    /// still-buffered output as `conn_drops`.
    pub fn shutdown(mut self) -> Vec<Box<dyn Node>> {
        if let Some(admin) = self.admin.take() {
            admin.shutdown();
        }
        for slot in &self.slots {
            if let Slot::Running(_, ctl) = slot {
                ctl.raise(&ctl.stop);
            }
        }
        let node = |slot| match slot {
            Slot::Running(thread, _) => thread.join().expect("node thread panicked"),
            Slot::Pending(node, ..) => node,
            Slot::External => Box::new(ExternalPeer) as Box<dyn Node>,
        };
        self.slots.into_iter().map(node).collect()
    }

    /// Injects a message from a synthetic external address over a real
    /// socket (opens a short-lived connection). Connect and writes are
    /// bounded so a hung target cannot wedge the caller.
    pub fn inject(&self, from: Addr, to: Addr, msg: Msg) -> std::io::Result<()> {
        let peer = self.peers[to.0 as usize];
        let mut stream = TcpStream::connect_timeout(&peer, Duration::from_secs(1))?;
        stream.set_write_timeout(Some(Duration::from_secs(1)))?;
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&from.0.to_le_bytes());
        encode_frame(&msg, &mut buf);
        stream.write_all(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::assert_poll;
    use scalla_proto::{ClientMsg, ServerMsg};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    struct Echo;
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if matches!(msg, Msg::Client(ClientMsg::Open { .. })) {
                ctx.send(from, ServerMsg::OpenOk { handle: 42 }.into());
            }
        }
    }

    struct Counter(Arc<AtomicU64>);
    impl Node for Counter {
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
            if matches!(msg, Msg::Server(ServerMsg::OpenOk { handle: 42 })) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            // Kick the exchange from inside the net: ask the echo node.
            ctx.send(
                Addr(0),
                ClientMsg::Open { path: "/t".into(), write: false, refresh: false, avoid: None }
                    .into(),
            );
        }
    }

    #[test]
    fn frames_cross_real_sockets() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let _counter = net.add_node(Box::new(Counter(count.clone()))).unwrap();
        net.start();
        assert_poll(Duration::from_secs(10), "echo round trip over TCP", || {
            count.load(Ordering::SeqCst) == 1
        });
        let counters = net.counters();
        assert!(counters.egress.frames >= 2, "request + reply crossed the wire");
        assert_eq!(counters.total_mailbox_drops(), 0);
        net.shutdown();
    }

    #[test]
    fn inject_reaches_node_over_socket() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        struct Sink(Arc<AtomicU64>);
        impl Node for Sink {
            fn on_message(&mut self, _: &mut dyn NetCtx, from: Addr, _: Msg) {
                assert_eq!(from, Addr(9999));
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let sink = net.add_node(Box::new(Sink(count.clone()))).unwrap();
        net.start();
        net.inject(Addr(9999), sink, ServerMsg::CloseOk.into()).unwrap();
        assert_poll(Duration::from_secs(10), "injected frame reaches node", || {
            count.load(Ordering::SeqCst) == 1
        });
        net.shutdown();
    }

    #[test]
    fn shutdown_is_prompt() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let _counter = net.add_node(Box::new(Counter(count.clone()))).unwrap();
        net.start();
        assert_poll(Duration::from_secs(10), "round trip before shutdown", || {
            count.load(Ordering::SeqCst) == 1
        });
        let t0 = std::time::Instant::now();
        net.shutdown();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "deterministic wake protocol must tear down quickly, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn preamble_and_frames_fed_one_byte_per_write_decode_intact() {
        struct Record(Arc<std::sync::Mutex<Vec<(Addr, Msg)>>>);
        impl Node for Record {
            fn on_message(&mut self, _: &mut dyn NetCtx, from: Addr, msg: Msg) {
                self.0.lock().expect("recorder lock").push((from, msg));
            }
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut net = TcpNet::new().unwrap();
        let sink = net.add_node(Box::new(Record(seen.clone()))).unwrap();
        net.start();
        let msgs: Vec<Msg> = vec![
            ClientMsg::Open { path: "/one/byte".into(), write: false, refresh: false, avoid: None }
                .into(),
            ServerMsg::OpenOk { handle: 7 }.into(),
            ServerMsg::CloseOk.into(),
        ];
        let mut wire = BytesMut::new();
        wire.extend_from_slice(&4242u64.to_le_bytes());
        for m in &msgs {
            encode_frame(m, &mut wire);
        }
        let mut s = TcpStream::connect(net.socket_of(sink)).unwrap();
        s.set_nodelay(true).unwrap();
        for b in wire.iter() {
            s.write_all(std::slice::from_ref(b)).unwrap();
        }
        assert_poll(Duration::from_secs(10), "all frames decoded", || {
            seen.lock().expect("recorder lock").len() == msgs.len()
        });
        let got = seen.lock().expect("recorder lock").clone();
        assert!(got.iter().all(|(from, _)| *from == Addr(4242)), "{got:?}");
        let got: Vec<String> = got.iter().map(|(_, m)| format!("{m:?}")).collect();
        let want: Vec<String> = msgs.iter().map(|m| format!("{m:?}")).collect();
        assert_eq!(got, want);
        net.shutdown();
    }

    #[test]
    fn external_slot_keeps_address_alignment() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let hole = net.add_external(peer);
        let counter = net.add_node(Box::new(Counter(count.clone()))).unwrap();
        assert_eq!(hole, Addr(1));
        assert_eq!(counter, Addr(2));
        net.start();
        assert_poll(Duration::from_secs(10), "round trip past the external slot", || {
            count.load(Ordering::SeqCst) == 1
        });
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 3, "external slot yields a placeholder");
    }
}
