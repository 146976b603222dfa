//! Outbound connections of one TCP reactor node (DESIGN.md, "Runtime
//! tiers"). A send appends an encoded frame to the peer's buffer; the
//! reactor flushes each connection that got output with one `writev` per
//! loop iteration (up to [`MAX_IOV`] frames), resuming partial writes
//! mid-frame. Nothing blocks: a full buffer ([`QUEUE_CAP`] frames) drops
//! as `queue_drops`; a connect missing `connect_timeout`, or a connection
//! without write progress for `write_timeout × max_write_stalls`, fails
//! and loses its buffered frames as `conn_drops`. A failure marks the
//! peer dead, not forever (the paper's clusters treat restart as steady
//! state, §II-A): frames to it drop at once while a capped, doubling
//! backoff with ±25 % jitter runs down, then the next frame spends one
//! connect as a probe. The first failure fires `peer_dead`, a successful
//! probe `peer_reconnected`; both count in `scalla_recovery_events_total`.

use crate::sys::{self, Epoll, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLOUT};
use bytes::BytesMut;
use parking_lot::RwLock;
use scalla_obs::Obs;
use scalla_proto::{Addr, BufferPool};
use scalla_util::SplitMix64;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames one connection can buffer before overflow drops begin.
pub(crate) const QUEUE_CAP: usize = 4096;
/// Most frames one `writev` carries.
const MAX_IOV: usize = 128;
/// Epoll token bit marking an outbound connection (the rest is the peer).
pub(crate) const LINK_TOKEN: u64 = 1 << 63;

/// Connect and write budgets, and the dead-peer probing schedule.
///
/// The defaults match production-ish settings; tests shrink them to make
/// death detection and reconnection fast.
#[derive(Clone, Copy, Debug)]
pub struct EgressTuning {
    /// Connect budget; a peer that cannot accept in this window counts as
    /// dead for the frames buffered meanwhile.
    pub connect_timeout: Duration,
    /// Stall unit: with `max_write_stalls` it bounds how long a
    /// connection may make no write progress before the peer is dead.
    pub write_timeout: Duration,
    /// Stall units without progress before the peer is declared dead.
    pub max_write_stalls: u32,
    /// First probe delay after a peer dies.
    pub probe_backoff_min: Duration,
    /// Probe delay ceiling (backoff doubles per failed probe up to this).
    pub probe_backoff_max: Duration,
}

impl Default for EgressTuning {
    fn default() -> EgressTuning {
        EgressTuning {
            connect_timeout: Duration::from_secs(1),
            write_timeout: Duration::from_millis(100),
            max_write_stalls: 50,
            probe_backoff_min: Duration::from_millis(50),
            probe_backoff_max: Duration::from_secs(2),
        }
    }
}

/// Cumulative egress counters of one node, and its frame-buffer pool
/// (steady-state sends allocate nothing).
pub(crate) struct EgressStats {
    /// Frames fully written to a socket.
    pub frames: AtomicU64,
    /// `writev` calls that moved bytes (frames / writes = coalescing).
    pub writes: AtomicU64,
    pub queue_drops: AtomicU64,
    pub conn_drops: AtomicU64,
    pub peer_deaths: AtomicU64,
    pub peer_reconnects: AtomicU64,
    pub pool: BufferPool,
}

impl Default for EgressStats {
    fn default() -> EgressStats {
        EgressStats {
            frames: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            queue_drops: AtomicU64::new(0),
            conn_drops: AtomicU64::new(0),
            peer_deaths: AtomicU64::new(0),
            peer_reconnects: AtomicU64::new(0),
            pool: BufferPool::new(512),
        }
    }
}

/// Net-wide settings every node reads, adjustable while the net runs.
#[derive(Default)]
pub(crate) struct EgressShared {
    pub tuning: RwLock<EgressTuning>,
    /// Recovery-incident sink (`peer_dead` / `peer_reconnected`).
    pub obs: RwLock<Obs>,
}

impl EgressShared {
    fn recovery_event(&self, event: &'static str) {
        let obs = self.obs.read().clone();
        obs.incident(event);
        obs.count("scalla_recovery_events_total", &[("event", event)], 1);
    }
}

/// Dead-peer state: the current (capped, doubling) backoff and the
/// earliest instant the next connect probe may fire.
struct DeadPeer {
    backoff: Duration,
    next_probe: Instant,
}

/// Applies ±25 % jitter so a restarted hub isn't hit by every node in the
/// same instant.
fn jittered(backoff: Duration, rng: &mut SplitMix64) -> Duration {
    backoff.mul_f64(0.75 + rng.next_f64() * 0.5)
}

/// Records a failed connect or write: the first failure marks the peer
/// dead (returns `true`), later ones double the probe backoff.
fn mark_dead(dead: &mut Option<DeadPeer>, tuning: &EgressTuning, rng: &mut SplitMix64) -> bool {
    let max = tuning.probe_backoff_max;
    let backoff = dead.as_ref().map_or(tuning.probe_backoff_min, |d| (d.backoff * 2).min(max));
    let first = dead.is_none();
    *dead = Some(DeadPeer { backoff, next_probe: Instant::now() + jittered(backoff, rng) });
    first
}

/// What link operations read: the node's address, poller and counters.
pub(crate) struct Io {
    pub me: Addr,
    pub ep: Epoll,
    pub stats: Arc<EgressStats>,
    pub shared: Arc<EgressShared>,
}

/// One peer's connection and output buffer.
struct Link {
    peer: SocketAddr,
    token: u64,
    conn: Option<TcpStream>,
    /// The connect has completed.
    up: bool,
    /// Connect deadline, or stall deadline while output is stuck.
    deadline: Option<Instant>,
    queue: VecDeque<BytesMut>,
    /// Preamble bytes still to write on this connection.
    pre: usize,
    /// Bytes of `queue[0]` already written.
    off: usize,
    dead: Option<DeadPeer>,
    rng: SplitMix64,
}

impl Link {
    fn connect(&mut self, io: &Io) {
        let registered = sys::connect_nonblocking(self.peer).and_then(|s| {
            // Edge-triggered: one report when the connect completes and one
            // each time a full socket regains room.
            io.ep.add(s.as_raw_fd(), EPOLLOUT | EPOLLET, self.token).map(|()| s)
        });
        let Ok(conn) = registered else { return self.fail(io) };
        self.deadline = Some(Instant::now() + io.shared.tuning.read().connect_timeout);
        (self.conn, self.pre) = (Some(conn), 8);
    }

    /// Readiness: a finished connect, room to write, or an error.
    fn on_ready(&mut self, events: u32, io: &Io) {
        let Some(conn) = &self.conn else { return };
        if events & (EPOLLERR | EPOLLHUP) != 0 || !matches!(conn.take_error(), Ok(None)) {
            return self.fail(io);
        }
        if !self.up {
            conn.set_nodelay(true).ok();
            (self.up, self.deadline) = (true, None);
            if self.dead.take().is_some() {
                io.stats.peer_reconnects.fetch_add(1, Relaxed);
                io.shared.recovery_event("peer_reconnected");
            }
        }
        self.write(io);
    }

    /// Writes as much buffered output as the socket takes.
    fn write(&mut self, io: &Io) {
        let Some(conn) = self.conn.take() else { return };
        let preamble = io.me.0.to_le_bytes();
        while self.pre > 0 || !self.queue.is_empty() {
            let pre = std::iter::once(&preamble[8 - self.pre..]).filter(|p| !p.is_empty());
            let frames =
                self.queue.iter().enumerate().map(|(i, f)| &f[if i == 0 { self.off } else { 0 }..]);
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let n =
                iov.iter_mut().zip(pre.chain(frames)).map(|(v, p)| *v = IoSlice::new(p)).count();
            match (&conn).write_vectored(&iov[..n]) {
                Ok(written) if written > 0 => {
                    io.stats.writes.fetch_add(1, Relaxed);
                    self.deadline = None;
                    self.consume(written, &io.stats);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let t = *io.shared.tuning.read();
                    self.deadline
                        .get_or_insert(Instant::now() + t.write_timeout * t.max_write_stalls);
                    break;
                }
                _ => return self.fail(io),
            }
        }
        self.conn = Some(conn);
    }

    /// Retires `n` written bytes: the preamble first, then whole frames.
    fn consume(&mut self, mut n: usize, stats: &EgressStats) {
        let pre = n.min(self.pre);
        (self.pre, n) = (self.pre - pre, n - pre);
        while let Some(left) = self.queue.front().map(|f| f.len() - self.off).filter(|&l| l <= n) {
            (n, self.off) = (n - left, 0);
            stats.pool.put(self.queue.pop_front().expect("front frame exists"));
            stats.frames.fetch_add(1, Relaxed);
        }
        self.off += n;
    }

    /// A connect or connection failed: buffered frames are lost and the
    /// peer is (still) dead.
    fn fail(&mut self, io: &Io) {
        (self.conn, self.up, self.deadline, self.pre, self.off) = (None, false, None, 0, 0);
        io.stats.conn_drops.fetch_add(self.queue.len() as u64, Relaxed);
        for frame in self.queue.drain(..) {
            io.stats.pool.put(frame);
        }
        if mark_dead(&mut self.dead, &io.shared.tuning.read(), &mut self.rng) {
            io.stats.peer_deaths.fetch_add(1, Relaxed);
            io.shared.recovery_event("peer_dead");
        }
    }
}

/// The outbound side of one node: a link per peer of the net.
pub(crate) struct Egress {
    links: Vec<Link>,
    /// Links whose buffer was empty before the last flush.
    dirty: Vec<usize>,
    pub io: Io,
}

impl Egress {
    pub fn new(io: Io, peers: &[SocketAddr]) -> Egress {
        let link = |(i, &peer): (usize, &SocketAddr)| Link {
            peer,
            token: LINK_TOKEN | i as u64,
            conn: None,
            up: false,
            deadline: None,
            queue: VecDeque::new(),
            pre: 0,
            off: 0,
            dead: None,
            rng: SplitMix64::new(io.me.0 ^ (u64::from(peer.port()) << 32)),
        };
        Egress { links: peers.iter().enumerate().map(link).collect(), dirty: Vec::new(), io }
    }

    /// Appends one encoded frame for `to`; never blocks.
    pub fn send(&mut self, to: Addr, frame: BytesMut) {
        let stats = &self.io.stats;
        let dropped = match self.links.get_mut(to.0 as usize) {
            // Address outside the net: same silent loss as a dead peer.
            None => &stats.conn_drops,
            Some(link) if link.queue.len() >= QUEUE_CAP => &stats.queue_drops,
            // Dead and not yet due for a probe: drop at once.
            Some(link)
                if link.conn.is_none()
                    && link.dead.as_ref().is_some_and(|d| Instant::now() < d.next_probe) =>
            {
                &stats.conn_drops
            }
            Some(link) => {
                link.queue.push_back(frame);
                // A longer buffer is already connecting or waiting for room.
                if link.queue.len() == 1 {
                    self.dirty.push(to.0 as usize);
                }
                return;
            }
        };
        dropped.fetch_add(1, Relaxed);
        stats.pool.put(frame);
    }

    /// Connects or writes every link that got output.
    pub fn flush(&mut self) {
        for idx in self.dirty.drain(..) {
            let link = &mut self.links[idx];
            match (&link.conn, link.up) {
                (None, _) if !link.queue.is_empty() => link.connect(&self.io),
                (Some(_), true) => link.write(&self.io),
                _ => {}
            }
        }
    }

    /// Handles readiness reported for the link with `token`.
    pub fn on_ready(&mut self, token: u64, events: u32) {
        if let Some(link) = self.links.get_mut((token & !LINK_TOKEN) as usize) {
            link.on_ready(events, &self.io);
        }
    }

    /// Fails every link whose connect or stall deadline has passed and
    /// returns the earliest deadline still pending.
    pub fn expire(&mut self) -> Option<Instant> {
        let now = Instant::now();
        for link in self.links.iter_mut().filter(|l| l.deadline.is_some_and(|at| at <= now)) {
            link.fail(&self.io);
        }
        self.links.iter().filter_map(|l| l.deadline).min()
    }

    /// Tears the links down; frames still buffered count as `conn_drops`.
    pub fn discard(self) {
        let buffered = self.links.iter().map(|l| l.queue.len() as u64).sum();
        self.io.stats.conn_drops.fetch_add(buffered, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{assert_poll, poll_until};
    use crate::tcp::TcpNet;
    use bytes::Bytes;
    use scalla_proto::{ClientMsg, FrameDecoder, Msg};
    use scalla_simnet::{NetCtx, Node};
    use scalla_util::Nanos;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;

    fn write_msg(tag: u64, len: usize) -> Msg {
        ClientMsg::Write { handle: tag, offset: 0, data: Bytes::from(vec![tag as u8; len]) }.into()
    }

    /// Sends `msgs` to `to` from `on_start`, then one more every timer
    /// tick while `ticks` lasts.
    struct Sender {
        to: Addr,
        msgs: Vec<Msg>,
        ticks: u64,
        send_us: Arc<AtomicU64>,
    }
    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            let t0 = Instant::now();
            for m in self.msgs.drain(..) {
                ctx.send(self.to, m);
            }
            self.send_us.store(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
            if self.ticks > 0 {
                ctx.set_timer(Nanos::from_millis(5), 0);
            }
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut dyn NetCtx, _: u64) {
            ctx.send(self.to, write_msg(5, 5));
            self.ticks -= 1;
            if self.ticks > 0 {
                ctx.set_timer(Nanos::from_millis(5), 0);
            }
        }
    }

    /// A net of one `Sender` aimed at an external slot at `peer`.
    fn sender_net(peer: SocketAddr, msgs: Vec<Msg>, ticks: u64) -> (TcpNet, Arc<AtomicU64>) {
        let mut net = TcpNet::new().unwrap();
        let to = net.add_external(peer);
        let send_us = Arc::new(AtomicU64::new(u64::MAX));
        net.add_node(Box::new(Sender { to, msgs, ticks, send_us: send_us.clone() })).unwrap();
        (net, send_us)
    }

    /// Accepts one connection and decodes everything after the preamble
    /// until EOF, reading at most `chunk` bytes at a time.
    fn read_peer(listener: TcpListener, chunk: usize, pause: Duration) -> Vec<Msg> {
        let (mut s, _) = listener.accept().unwrap();
        let mut pre = [0u8; 8];
        s.read_exact(&mut pre).unwrap();
        let (mut dec, mut buf, mut out) = (FrameDecoder::new(), vec![0u8; chunk], Vec::new());
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                return out;
            }
            dec.feed(&buf[..n]);
            while let Some(m) = dec.next().unwrap() {
                out.push(m);
            }
            std::thread::sleep(pause);
        }
    }

    fn spawn_reader(
        chunk: usize,
        pause: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<Msg>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        (peer, std::thread::spawn(move || read_peer(listener, chunk, pause)))
    }

    fn handles(msgs: &[Msg]) -> Vec<(u64, usize)> {
        msgs.iter()
            .map(|m| match m {
                Msg::Client(ClientMsg::Write { handle, data, .. }) => {
                    assert!(data.iter().all(|&b| b == *handle as u8), "payload intact");
                    (*handle, data.len())
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn frames_arrive_in_order_with_preamble() {
        let (peer, reader) = spawn_reader(16 * 1024, Duration::ZERO);
        let msgs = vec![write_msg(1, 4), write_msg(2, 2), write_msg(3, 6)];
        let (mut net, _) = sender_net(peer, msgs, 0);
        net.start();
        assert_poll(Duration::from_secs(5), "three frames written", || {
            net.counters().egress.frames == 3
        });
        let c = net.counters();
        net.shutdown();
        assert_eq!(handles(&reader.join().unwrap()), [(1, 4), (2, 2), (3, 6)]);
        assert_eq!(c.egress.queue_drops, 0);
    }

    #[test]
    fn unreachable_peer_counts_conn_drops_without_blocking_sender() {
        // A bound-then-dropped listener: connects are refused instantly.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let (mut net, send_us) = sender_net(peer, (0..10).map(|i| write_msg(i, 1)).collect(), 0);
        net.start();
        assert_poll(Duration::from_secs(5), "all ten frames accounted", || {
            net.counters().egress.total_drops() == 10
        });
        assert!(send_us.load(Ordering::SeqCst) < 100_000, "send must not block");
        let c = net.counters().egress;
        net.shutdown();
        assert_eq!(c.frames, 0);
        assert_eq!(c.peer_deaths, 1, "one death transition");
        assert_eq!(c.peer_reconnects, 0);
    }

    #[test]
    fn bursts_coalesce_into_fewer_syscalls() {
        let (peer, reader) = spawn_reader(16 * 1024, Duration::ZERO);
        let n = 512u64;
        let (mut net, _) = sender_net(peer, (0..n).map(|i| write_msg(i, 10)).collect(), 0);
        net.start();
        assert_poll(Duration::from_secs(5), "burst written", || net.counters().egress.frames == n);
        let c = net.counters().egress;
        net.shutdown();
        assert_eq!(reader.join().unwrap().len(), n as usize, "no frame lost below capacity");
        assert_eq!(c.total_drops(), 0);
        assert!(c.writes <= c.frames, "coalescing can never need more syscalls than frames");
    }

    #[test]
    fn dead_peer_is_rejoined_by_backoff_probing() {
        // Reserve a port, then free it: connects are refused (the peer is
        // "down") until the listener is rebound on the same port.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let (mut net, _) = sender_net(peer, vec![write_msg(9, 4)], 1000);
        net.set_egress_tuning(EgressTuning {
            probe_backoff_min: Duration::from_millis(10),
            probe_backoff_max: Duration::from_millis(40),
            ..EgressTuning::default()
        });
        let obs = Obs::enabled();
        net.set_obs(obs.clone());
        net.start();
        assert!(
            poll_until(Duration::from_secs(5), || net.counters().egress.peer_deaths == 1),
            "refused connect must mark the peer dead"
        );
        // "Restart" the peer on the very same port; the sender's ticks keep
        // frames coming, so a probe fires once the backoff expires.
        let listener = TcpListener::bind(peer).unwrap();
        let reader = std::thread::spawn(move || read_peer(listener, 16 * 1024, Duration::ZERO));
        assert!(
            poll_until(Duration::from_secs(5), || net.counters().egress.peer_reconnects == 1),
            "probe must rejoin the restarted peer"
        );
        assert_poll(Duration::from_secs(5), "traffic resumes", || net.counters().egress.frames > 0);
        let c = net.counters().egress;
        net.shutdown();
        assert!(handles(&reader.join().unwrap()).contains(&(5, 5)), "traffic resumed after rejoin");
        assert_eq!(c.peer_deaths, 1);
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_recovery_events_total{event=\"peer_dead\"} 1"), "{text}");
        assert!(
            text.contains("scalla_recovery_events_total{event=\"peer_reconnected\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn backoff_doubles_and_caps_with_jitter_bounds() {
        let tuning = EgressTuning {
            probe_backoff_min: Duration::from_millis(10),
            probe_backoff_max: Duration::from_millis(35),
            ..EgressTuning::default()
        };
        let mut rng = SplitMix64::new(9);
        let mut dead = None;
        assert!(mark_dead(&mut dead, &tuning, &mut rng), "first failure is the death");
        assert_eq!(dead.as_ref().unwrap().backoff, Duration::from_millis(10));
        assert!(!mark_dead(&mut dead, &tuning, &mut rng), "death counted once");
        assert_eq!(dead.as_ref().unwrap().backoff, Duration::from_millis(20));
        assert!(!mark_dead(&mut dead, &tuning, &mut rng));
        assert_eq!(dead.as_ref().unwrap().backoff, Duration::from_millis(35), "capped");
        for _ in 0..100 {
            let j = jittered(Duration::from_millis(100), &mut rng);
            assert!(j >= Duration::from_millis(75) && j < Duration::from_millis(125), "{j:?}");
        }
    }

    #[test]
    fn megabyte_frames_to_slow_reader_arrive_whole_and_in_order() {
        // 1 MiB frames between small ones, 8 MiB in all: more than the
        // loopback socket buffers hold while the reader takes 16 KiB per
        // millisecond, so writes stop mid-frame and resume, across frame
        // boundaries.
        let (peer, reader) = spawn_reader(16 * 1024, Duration::from_millis(1));
        let sizes: Vec<(u64, usize)> =
            (0..17u64).map(|i| (i, if i % 2 == 1 { 1 << 20 } else { 3 + i as usize })).collect();
        let msgs = sizes.iter().map(|&(tag, len)| write_msg(tag, len)).collect();
        let (mut net, _) = sender_net(peer, msgs, 0);
        net.start();
        assert_poll(Duration::from_secs(30), "all frames written", || {
            net.counters().egress.frames == sizes.len() as u64
        });
        let writes = net.counters().egress.writes;
        net.shutdown();
        assert_eq!(handles(&reader.join().unwrap()), sizes);
        assert!(writes > 1, "the socket filled and the write resumed ({writes} writes)");
    }
}
