//! Live threaded runtime: real threads, real channels, real time.
//!
//! The discrete-event simulator proves the protocol shapes; this runtime
//! proves the *code* under genuine concurrency. Each node runs on its own
//! OS thread with a crossbeam channel as its mailbox and a local timer
//! heap; `NetCtx::now` reads the monotonic system clock. The same
//! [`Node`] implementations run unmodified.
//!
//! Message latency is whatever the channel costs (microseconds), which is
//! exactly the regime the paper's cmsd operates in on a LAN.

use crate::admin::AdminServer;
use crate::chaos::{FaultGates, GateVerdict};
use crate::metrics::NetCounters;
use crossbeam::channel::{bounded, Receiver, Sender};
use scalla_obs::Obs;
use scalla_proto::{Addr, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Clock, Nanos, SystemClock};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Envelope {
    Deliver {
        from: Addr,
        msg: Msg,
        trace: u64,
    },
    /// Wakes the loop so it sees a raised restart flag.
    Wake,
    Stop,
}

/// A node waiting to be spawned, with its mailbox receiver.
type PendingNode = (Box<dyn Node>, Receiver<Envelope>);

struct LiveCtx<'a> {
    me: Addr,
    clock: &'a Arc<SystemClock>,
    senders: &'a [Sender<Envelope>],
    drops: &'a [Arc<AtomicU64>],
    timers: &'a mut BinaryHeap<std::cmp::Reverse<(Nanos, u64)>>,
    rng_state: &'a mut u64,
    gates: &'a FaultGates,
    /// Trace id of the request being handled; sends inherit it, so a
    /// trace follows the causal chain across hops without any node
    /// knowing about tracing.
    trace: u64,
}

impl NetCtx for LiveCtx<'_> {
    fn now(&self) -> Nanos {
        self.clock.now()
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        // Chaos gate: crashed endpoints, partitioned pairs, and loss rolls
        // eat the message; a dup roll delivers it twice.
        let copies = match self.gates.verdict(self.me, to) {
            GateVerdict::Drop => return,
            GateVerdict::Deliver => 1,
            GateVerdict::Duplicate => 2,
        };
        if let Some(tx) = self.senders.get(to.0 as usize) {
            for _ in 0..copies {
                // A full or disconnected mailbox models a dead peer: drop,
                // but keep the books.
                let env = Envelope::Deliver { from: self.me, msg: msg.clone(), trace: self.trace };
                if tx.try_send(env).is_err() {
                    self.drops[to.0 as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.timers.push(std::cmp::Reverse((self.clock.now() + delay, token)));
    }
    fn rand_u64(&mut self) -> u64 {
        // Inline SplitMix64 step over thread-local state.
        *self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }
    fn trace(&self) -> u64 {
        self.trace
    }
}

/// A running live network.
pub struct LiveNet {
    clock: Arc<SystemClock>,
    senders: Vec<Sender<Envelope>>,
    drops: Vec<Arc<AtomicU64>>,
    /// Per-node restart requests, checked by the node loop every turn so
    /// a revive cannot be lost to a full mailbox.
    restarts: Vec<Arc<AtomicBool>>,
    pending: Vec<Option<PendingNode>>,
    handles: Vec<Option<JoinHandle<Box<dyn Node>>>>,
    started: bool,
    admin: Option<AdminServer>,
    gates: FaultGates,
}

impl LiveNet {
    /// Creates an empty live network.
    pub fn new() -> LiveNet {
        LiveNet {
            clock: Arc::new(SystemClock::new()),
            senders: Vec::new(),
            drops: Vec::new(),
            restarts: Vec::new(),
            pending: Vec::new(),
            handles: Vec::new(),
            started: false,
            admin: None,
            gates: FaultGates::new(0),
        }
    }

    /// The chaos gates governing this net's mailboxes (cloning shares
    /// state, so a harness can drive faults while the net runs).
    pub fn gates(&self) -> FaultGates {
        self.gates.clone()
    }

    /// Replaces the chaos gates (call before [`LiveNet::start`] to pick a
    /// fault seed).
    pub fn set_gates(&mut self, gates: FaultGates) {
        assert!(!self.started, "set_gates before start");
        self.gates = gates;
    }

    /// Gates a node down: its messages (both directions) drop and its
    /// timers stop firing until [`LiveNet::revive`].
    pub fn kill(&self, addr: Addr) {
        self.gates.kill(addr);
    }

    /// Clears the down gate and restarts the node's state machine
    /// (`on_start` re-runs on its own thread, timers cleared first).
    pub fn revive(&self, addr: Addr) {
        self.gates.revive(addr);
        if let Some(flag) = self.restarts.get(addr.0 as usize) {
            flag.store(true, Ordering::SeqCst);
            // Only a wake-up: a full mailbox means the loop is busy and
            // will see the flag on its next turn anyway.
            let _ = self.senders[addr.0 as usize].try_send(Envelope::Wake);
        }
    }

    /// Starts the admin endpoint for this net, mirroring the runtime's
    /// delivery counters into the registry at every scrape. Returns the
    /// endpoint address. Call at most once, after all nodes are added
    /// (the counter mirror snapshots the node set).
    pub fn serve_admin(&mut self, obs: Obs) -> std::io::Result<std::net::SocketAddr> {
        self.serve_admin_with(obs, None)
    }

    /// Like [`LiveNet::serve_admin`], but additionally serves `/cluster`
    /// and `/cluster.json` from a monitoring collector's merged view.
    pub fn serve_admin_with(
        &mut self,
        obs: Obs,
        view: Option<Arc<scalla_monitor::ClusterView>>,
    ) -> std::io::Result<std::net::SocketAddr> {
        assert!(obs.is_enabled(), "serve_admin needs an enabled Obs");
        assert!(self.admin.is_none(), "serve_admin once per net");
        let drops: Vec<Arc<AtomicU64>> = self.drops.clone();
        obs.registry().add_collector(Box::new(move |reg| {
            let counters = NetCounters {
                mailbox_drops: drops.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                egress: Default::default(),
            };
            counters.export_into(reg);
        }));
        let server = AdminServer::spawn_with(obs, view)?;
        let addr = server.addr();
        self.admin = Some(server);
        Ok(addr)
    }

    /// The shared clock (hand it to `NameCache` etc.).
    pub fn clock(&self) -> Arc<SystemClock> {
        self.clock.clone()
    }

    /// Registers a node before [`LiveNet::start`].
    pub fn add_node(&mut self, node: Box<dyn Node>) -> Addr {
        assert!(!self.started, "add_node before start");
        let (tx, rx) = bounded::<Envelope>(65_536);
        let addr = Addr(self.senders.len() as u64);
        self.senders.push(tx);
        self.drops.push(Arc::new(AtomicU64::new(0)));
        self.restarts.push(Arc::new(AtomicBool::new(false)));
        self.pending.push(Some((node, rx)));
        self.handles.push(None);
        addr
    }

    /// Spawns every node thread and runs `on_start` on each.
    pub fn start(&mut self) {
        assert!(!self.started, "start once");
        self.started = true;
        let senders = self.senders.clone();
        let all_drops = self.drops.clone();
        for (i, slot) in self.pending.iter_mut().enumerate() {
            let (mut node, rx) = slot.take().expect("un-started node");
            let me = Addr(i as u64);
            let clock = self.clock.clone();
            let senders = senders.clone();
            let drops = all_drops.clone();
            let gates = self.gates.clone();
            let restart = self.restarts[i].clone();
            let handle = std::thread::Builder::new()
                .name(format!("scalla-node-{i}"))
                .spawn(move || {
                    let mut timers: BinaryHeap<std::cmp::Reverse<(Nanos, u64)>> = BinaryHeap::new();
                    let mut rng_state = 0x5EED_0000 ^ me.0;
                    {
                        let mut ctx = LiveCtx {
                            me,
                            clock: &clock,
                            senders: &senders,
                            drops: &drops,
                            timers: &mut timers,
                            rng_state: &mut rng_state,
                            gates: &gates,
                            trace: 0,
                        };
                        node.on_start(&mut ctx);
                    }
                    loop {
                        if restart.swap(false, Ordering::SeqCst) {
                            // A revive: the node re-arms its own schedule.
                            timers.clear();
                            let mut ctx = LiveCtx {
                                me,
                                clock: &clock,
                                senders: &senders,
                                drops: &drops,
                                timers: &mut timers,
                                rng_state: &mut rng_state,
                                gates: &gates,
                                trace: 0,
                            };
                            node.on_start(&mut ctx);
                        }
                        // Fire due timers.
                        let now = clock.now();
                        let mut due = Vec::new();
                        while let Some(&std::cmp::Reverse((at, token))) = timers.peek() {
                            if at <= now {
                                timers.pop();
                                due.push(token);
                            } else {
                                break;
                            }
                        }
                        for token in due {
                            if gates.is_down(me) {
                                continue; // a crashed node's timers don't fire
                            }
                            let mut ctx = LiveCtx {
                                me,
                                clock: &clock,
                                senders: &senders,
                                drops: &drops,
                                timers: &mut timers,
                                rng_state: &mut rng_state,
                                gates: &gates,
                                trace: 0,
                            };
                            node.on_timer(&mut ctx, token);
                        }
                        // Wait for the next message or timer deadline.
                        let wait = timers
                            .peek()
                            .map(|&std::cmp::Reverse((at, _))| {
                                std::time::Duration::from_nanos(at.since(clock.now()).0)
                            })
                            .unwrap_or(std::time::Duration::from_millis(50));
                        match rx.recv_timeout(wait) {
                            Ok(Envelope::Deliver { from, msg, trace }) => {
                                if gates.is_down(me) {
                                    continue; // a crashed node hears nothing
                                }
                                let mut ctx = LiveCtx {
                                    me,
                                    clock: &clock,
                                    senders: &senders,
                                    drops: &drops,
                                    timers: &mut timers,
                                    rng_state: &mut rng_state,
                                    gates: &gates,
                                    trace,
                                };
                                node.on_message(&mut ctx, from, msg);
                            }
                            Ok(Envelope::Wake) => {}
                            Ok(Envelope::Stop) => break,
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    node
                })
                .expect("spawn node thread");
            self.handles[i] = Some(handle);
        }
    }

    /// Stops every node and returns them (for result harvesting), in
    /// address order.
    pub fn shutdown(mut self) -> Vec<Box<dyn Node>> {
        if let Some(admin) = self.admin.take() {
            admin.shutdown();
        }
        for tx in &self.senders {
            let _ = tx.send(Envelope::Stop);
        }
        self.handles
            .iter_mut()
            .map(|h| h.take().expect("started").join().expect("node thread panicked"))
            .collect()
    }

    /// Sends a message into the network from a synthetic external address.
    pub fn inject(&self, from: Addr, to: Addr, msg: Msg) {
        if let Some(tx) = self.senders.get(to.0 as usize) {
            if tx.try_send(Envelope::Deliver { from, msg, trace: 0 }).is_err() {
                self.drops[to.0 as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Delivery counters (mailbox overflow drops per node; this runtime
    /// has no wire, so the egress section stays zero).
    pub fn counters(&self) -> NetCounters {
        NetCounters {
            mailbox_drops: self.drops.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            egress: Default::default(),
        }
    }
}

impl Default for LiveNet {
    fn default() -> LiveNet {
        LiveNet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::assert_poll;
    use scalla_proto::{ClientMsg, ServerMsg};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    struct Echo;
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if matches!(msg, Msg::Client(ClientMsg::Open { .. })) {
                ctx.send(from, ServerMsg::OpenOk { handle: 1 }.into());
            }
        }
    }

    struct Counter(Arc<AtomicU64>);
    impl Node for Counter {
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct TimerOnce(Arc<AtomicU64>);
    impl Node for TimerOnce {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            ctx.set_timer(Nanos::from_millis(20), 7);
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
        fn on_timer(&mut self, _: &mut dyn NetCtx, token: u64) {
            assert_eq!(token, 7);
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn threads_exchange_messages() {
        let mut net = LiveNet::new();
        let count = Arc::new(AtomicU64::new(0));
        let echo = net.add_node(Box::new(Echo));
        let sink = net.add_node(Box::new(Counter(count.clone())));
        net.start();
        for _ in 0..100 {
            net.inject(
                sink,
                echo,
                ClientMsg::Open { path: "/f".into(), write: false, refresh: false, avoid: None }
                    .into(),
            );
        }
        assert_poll(Duration::from_secs(5), "all 100 replies land", || {
            count.load(Ordering::SeqCst) == 100
        });
        net.shutdown();
    }

    #[test]
    fn timers_fire_in_real_time() {
        let mut net = LiveNet::new();
        let fired = Arc::new(AtomicU64::new(0));
        net.add_node(Box::new(TimerOnce(fired.clone())));
        net.start();
        assert_poll(Duration::from_secs(5), "timer fires", || fired.load(Ordering::SeqCst) == 1);
        net.shutdown();
    }

    #[test]
    fn mailbox_overflow_is_counted() {
        let mut net = LiveNet::new();
        let a = net.add_node(Box::new(Echo));
        // Not started: nothing drains the mailbox, so the bound is reached
        // and the overflow past it is counted, not silently discarded.
        for _ in 0..65_537 {
            net.inject(Addr(99), a, ServerMsg::CloseOk.into());
        }
        assert_eq!(net.counters().mailbox_drops[a.0 as usize], 1);
        assert_eq!(net.counters().total_mailbox_drops(), 1);
        net.start();
        net.shutdown();
    }

    #[test]
    fn shutdown_returns_nodes() {
        let mut net = LiveNet::new();
        net.add_node(Box::new(Echo));
        net.add_node(Box::new(Counter(Arc::new(AtomicU64::new(0)))));
        net.start();
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 2);
    }

    /// Mints a trace, opens against a peer, and records the trace id the
    /// reply arrives under.
    struct TraceMinter {
        peer: Addr,
        reply_trace: Arc<AtomicU64>,
    }
    impl Node for TraceMinter {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            ctx.set_trace(0xABCD);
            ctx.send(
                self.peer,
                ClientMsg::Open { path: "/f".into(), write: false, refresh: false, avoid: None }
                    .into(),
            );
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
            self.reply_trace.store(ctx.trace(), Ordering::SeqCst);
        }
    }

    #[test]
    fn traces_propagate_across_hops() {
        // Echo never touches set_trace, yet its reply carries the minted
        // id: sends inherit the handling context's trace, so the id rides
        // the causal chain minter -> echo -> minter untouched.
        let mut net = LiveNet::new();
        let seen = Arc::new(AtomicU64::new(0));
        let echo = net.add_node(Box::new(Echo));
        net.add_node(Box::new(TraceMinter { peer: echo, reply_trace: seen.clone() }));
        net.start();
        assert_poll(Duration::from_secs(5), "minted trace rides the reply", || {
            seen.load(Ordering::SeqCst) == 0xABCD
        });
        net.shutdown();
    }

    #[test]
    fn killed_node_is_deaf_until_revive_restarts_it() {
        // A started node that replies to everything; kill gates it off,
        // revive re-runs on_start (observable as a fresh timer arming).
        let mut net = LiveNet::new();
        let count = Arc::new(AtomicU64::new(0));
        let starts = Arc::new(AtomicU64::new(0));
        struct Startful(Arc<AtomicU64>, Arc<AtomicU64>);
        impl Node for Startful {
            fn on_start(&mut self, _: &mut dyn NetCtx) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let a = net.add_node(Box::new(Startful(count.clone(), starts.clone())));
        net.start();
        assert_poll(Duration::from_secs(5), "initial on_start ran", || {
            starts.load(Ordering::SeqCst) == 1
        });
        net.kill(a);
        net.inject(Addr(99), a, ServerMsg::CloseOk.into());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(count.load(Ordering::SeqCst), 0, "down node hears nothing");
        net.revive(a);
        assert_poll(Duration::from_secs(5), "revive re-runs on_start", || {
            starts.load(Ordering::SeqCst) == 2
        });
        net.inject(Addr(99), a, ServerMsg::CloseOk.into());
        assert_poll(Duration::from_secs(5), "revived node hears again", || {
            count.load(Ordering::SeqCst) == 1
        });
        net.shutdown();
    }

    #[test]
    fn revive_with_a_full_mailbox_still_restarts_the_node() {
        // The node blocks inside its first message until released, so the
        // mailbox behind it fills up before the revive.
        struct Blocker {
            blocked: bool,
            starts: Arc<AtomicU64>,
            entered: Sender<()>,
            release: Receiver<()>,
        }
        impl Node for Blocker {
            fn on_start(&mut self, _: &mut dyn NetCtx) {
                self.starts.fetch_add(1, Ordering::SeqCst);
            }
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
                if !self.blocked {
                    self.blocked = true;
                    self.entered.send(()).expect("test waits for the node");
                    self.release.recv().expect("test releases the node");
                }
            }
        }
        let starts = Arc::new(AtomicU64::new(0));
        let (entered_tx, entered_rx) = bounded(1);
        let (release_tx, release_rx) = bounded(1);
        let mut net = LiveNet::new();
        let a = net.add_node(Box::new(Blocker {
            blocked: false,
            starts: starts.clone(),
            entered: entered_tx,
            release: release_rx,
        }));
        net.start();
        net.inject(Addr(99), a, ServerMsg::CloseOk.into());
        entered_rx.recv().expect("node took the first message");
        while net.counters().mailbox_drops[a.0 as usize] == 0 {
            net.inject(Addr(99), a, ServerMsg::CloseOk.into());
        }
        net.kill(a);
        net.revive(a);
        release_tx.send(()).unwrap();
        assert_poll(Duration::from_secs(10), "revive re-runs on_start past a full mailbox", || {
            starts.load(Ordering::SeqCst) == 2
        });
        net.shutdown();
    }

    #[test]
    fn admin_endpoint_serves_runtime_counters() {
        let mut net = LiveNet::new();
        net.add_node(Box::new(Echo));
        let obs = Obs::enabled();
        let addr = net.serve_admin(obs).unwrap();
        net.start();
        let metrics = crate::admin::scrape(addr, "/metrics").unwrap();
        assert!(metrics.contains("scalla_mailbox_drops_total 0"), "{metrics}");
        net.shutdown();
        assert!(crate::admin::scrape(addr, "/metrics").is_err(), "admin stops with the net");
    }
}
