//! The benchmark's wrapper around every node.
//!
//! [`Probe`] sits between `TcpNet` and an unmodified node state machine.
//! In every mode it counts login acknowledgements (the readiness
//! predicate for "the tree is assembled"), holds clients back until the
//! harness opens the gate, and publishes each client's completed-op count
//! (the readiness predicate for "warm-up done").
//!
//! A client's script runs in chunks, each driven by a fresh `ClientNode`
//! started in the callback where the previous one finished, so the closed
//! loop never pauses. A `ClientNode` keeps every result with its payload;
//! retiring it per chunk (keeping only the payload length) bounds memory.
//! Timers carry the chunk's epoch so a retired node's pending request
//! timeouts never reach its successor.
//!
//! In traced mode it also records one [`Span`] per `on_start` /
//! `on_message` / `on_timer` call, and wraps the node's `NetCtx` so that
//! each `send` is linked as the parent ([`Cause::Send`]) of the delivery
//! it causes and each `set_timer` as the parent ([`Cause::Timer`]) of the
//! callback it arms. Links ride a FIFO per ordered node pair: a pair
//! shares one TCP connection, one reader and one mailbox, so deliveries
//! arrive in send order (drops are checked to be zero). Spans stay in the
//! wrapper and are collected after shutdown.

use scalla_client::{ClientConfig, ClientNode, ClientOp, OpResult};
use scalla_proto::{Addr, ClientMsg, CmsMsg, Msg, ServerMsg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::Nanos;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Timer token the gate re-arms while a client waits for the start
/// signal (no node uses bit 63).
const GATE_TOKEN: u64 = 1 << 63;
const GATE_POLL: Nanos = Nanos(200_000);
/// Client timer tokens carry the chunk epoch in bits 40..56 (the client's
/// own tokens stay far below 2^40).
const EPOCH_SHIFT: u32 = 40;
const EPOCH_MASK: u64 = 0xFFFF;
/// Ops per client chunk.
const CHUNK_OPS: usize = 256;
/// Per-node bound on what the codec replay keeps: a prefix of the
/// window's sends, so bulk payloads cannot exhaust memory.
const CAPTURE_MSGS: usize = 50_000;
const CAPTURE_BYTES: u64 = 32 << 20;

/// A receiver's pending sends, by sender: (sending span, send instant).
type Fifos = HashMap<u64, VecDeque<(u64, Nanos)>>;

/// State shared between the harness thread and every wrapped node.
pub struct Board {
    /// Clients start their scripts once this is set.
    pub go: AtomicBool,
    /// `LoginOk` messages delivered so far.
    pub logins: AtomicUsize,
    /// Completed operations per client slot, and when the latest ended.
    pub finished: Vec<AtomicUsize>,
    last_end: Vec<AtomicU64>,
    /// Traced mode: sends are captured for the codec replay while set.
    pub recording: AtomicBool,
    /// Traced mode: send→delivery links, one FIFO map per receiver.
    links: Option<Vec<Mutex<Fifos>>>,
}

impl Board {
    pub fn new(clients: usize, traced_nodes: Option<usize>) -> Board {
        Board {
            go: AtomicBool::new(false),
            logins: AtomicUsize::new(0),
            finished: (0..clients).map(|_| AtomicUsize::new(0)).collect(),
            last_end: (0..clients).map(|_| AtomicU64::new(0)).collect(),
            recording: AtomicBool::new(false),
            links: traced_nodes.map(|n| (0..n).map(|_| Mutex::new(HashMap::new())).collect()),
        }
    }

    pub fn finished(&self, client: usize) -> usize {
        self.finished[client].load(Ordering::Acquire)
    }

    /// When the client's latest op ended: once this is at or past an
    /// instant, every op the closed loop began before it has finished.
    pub fn last_end(&self, client: usize) -> Nanos {
        Nanos(self.last_end[client].load(Ordering::Acquire))
    }
}

/// What caused a callback.
#[derive(Clone, Copy, Debug)]
pub enum Cause {
    /// Nothing traceable (node start, heartbeat timers armed at start…).
    None,
    /// A delivery: the sending span and the instant `send` was called.
    Send { span: u64, at: Nanos },
    /// A timer: the arming span and the instant it was armed.
    Timer { span: u64, at: Nanos },
}

/// One callback on one node. Its id (the key [`Cause`] links use) is
/// `node << 40 | index in the node's span list`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub node: u32,
    /// The ambient trace id when the callback started (0 for timers).
    pub trace: u64,
    pub start: Nanos,
    pub end: Nanos,
    pub cause: Cause,
}

impl Span {
    pub fn node_of(id: u64) -> usize {
        (id >> 40) as usize
    }
    pub fn seq_of(id: u64) -> usize {
        (id & ((1 << 40) - 1)) as usize
    }
}

/// Per-node trace record, owned by the node's own thread.
#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    timers: HashMap<u64, Cause>,
    /// A prefix of the messages sent while the board was recording
    /// (codec replay input), and the payload bytes it holds.
    pub captured: Vec<Msg>,
    captured_bytes: u64,
    /// Sends while recording, by kind.
    pub sent: u64,
    pub locates: u64,
    pub reads: u64,
}

impl Recorder {
    fn capture(&mut self, msg: &Msg) {
        self.sent += 1;
        match msg {
            Msg::Cms(CmsMsg::Locate { .. }) => self.locates += 1,
            Msg::Client(ClientMsg::Read { .. }) => self.reads += 1,
            _ => {}
        }
        let payload = match msg {
            Msg::Server(ServerMsg::Data { data }) | Msg::Client(ClientMsg::Write { data, .. }) => {
                data.len() as u64
            }
            _ => 0,
        };
        if self.captured.len() < CAPTURE_MSGS && self.captured_bytes + payload <= CAPTURE_BYTES {
            self.captured_bytes += payload;
            self.captured.push(msg.clone());
        }
    }
}

/// A client's script, run one chunk per `ClientNode`.
pub struct Slot {
    index: usize,
    template: ClientConfig,
    chunks: VecDeque<Vec<ClientOp>>,
    epoch: u64,
    /// Results of retired chunks: payload dropped (its length kept), op
    /// index rebased onto the whole script.
    retired: Vec<(OpResult, u64)>,
}

impl Slot {
    fn tag(&self) -> u64 {
        (self.epoch & EPOCH_MASK) << EPOCH_SHIFT
    }

    fn client(inner: &mut Box<dyn Node>) -> &ClientNode {
        inner.as_any_mut().and_then(|a| a.downcast_ref::<ClientNode>()).expect("client node")
    }

    fn keep(&mut self, results: &[OpResult]) {
        let base = self.retired.len();
        for r in results {
            let mut r = r.clone();
            let bytes = r.data.take().map_or(0, |d| d.len() as u64);
            r.op_index += base;
            self.retired.push((r, bytes));
        }
    }

    /// Replaces a finished client with the next chunk's; returns whether
    /// it did (the caller starts the new node).
    fn retire_if_done(&mut self, inner: &mut Box<dyn Node>) -> bool {
        let client = Slot::client(inner);
        if !client.is_done() {
            return false;
        }
        let Some(ops) = self.chunks.pop_front() else { return false };
        let results = client.results().to_vec();
        self.keep(&results);
        *inner = Box::new(ClientNode::new(ClientConfig { ops, ..self.template.clone() }));
        self.epoch += 1;
        true
    }

    /// Publishes the completed-op count and the latest op's end.
    fn publish(&self, inner: &mut Box<dyn Node>, board: &Board) {
        let results = Slot::client(inner).results();
        let last = results.last().map(|r| r.end).or(self.retired.last().map(|(r, _)| r.end));
        board.last_end[self.index].store(last.unwrap_or(Nanos::ZERO).0, Ordering::Release);
        board.finished[self.index].store(self.retired.len() + results.len(), Ordering::Release);
    }
}

/// Operations a client has begun, counted apart from its results: the
/// client mints a fresh trace id per op and reuses it for every leg.
#[derive(Default)]
struct Begun {
    last: u64,
    count: usize,
}

pub struct Probe {
    inner: Box<dyn Node>,
    slot: Option<Slot>,
    begun: Begun,
    board: Arc<Board>,
    rec: Option<Recorder>,
}

impl Probe {
    pub fn new(inner: Box<dyn Node>, board: Arc<Board>) -> Probe {
        let rec = board.links.as_ref().map(|_| Recorder::default());
        Probe { inner, slot: None, begun: Begun::default(), board, rec }
    }

    /// Splits a script into the chunks [`Probe::client`] runs.
    pub fn chunks(script: &[ClientOp]) -> VecDeque<Vec<ClientOp>> {
        script.chunks(CHUNK_OPS).map(<[ClientOp]>::to_vec).collect()
    }

    /// A closed-loop client running its script `chunks` in turn;
    /// `template` gives everything but the ops.
    pub fn client(
        template: ClientConfig,
        mut chunks: VecDeque<Vec<ClientOp>>,
        index: usize,
        board: Arc<Board>,
    ) -> Probe {
        let first = chunks.pop_front().unwrap_or_default();
        let node = ClientNode::new(ClientConfig { ops: first, ..template.clone() });
        let mut probe = Probe::new(Box::new(node), board);
        probe.slot = Some(Slot { index, template, chunks, epoch: 0, retired: Vec::new() });
        probe
    }

    pub fn inner_mut(&mut self) -> &mut dyn Node {
        self.inner.as_mut()
    }

    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.rec.take()
    }

    /// Every result of a client so far, in script order, payloads replaced
    /// by their lengths, and the number of ops it has begun.
    pub fn client_results(&mut self) -> (Vec<(OpResult, u64)>, usize) {
        let slot = self.slot.as_mut().expect("client probe");
        let results = Slot::client(&mut self.inner).results().to_vec();
        slot.keep(&results);
        (std::mem::take(&mut slot.retired), self.begun.count)
    }

    /// Runs one callback (traced when a recorder is attached), then rolls
    /// a finished client over to its next chunk.
    fn call(
        &mut self,
        ctx: &mut dyn NetCtx,
        cause: Cause,
        f: impl FnOnce(&mut dyn Node, &mut dyn NetCtx),
    ) {
        let Probe { inner, slot, begun, board, rec } = self;
        let me = ctx.me().0;
        let stamp = rec.as_ref().map(|_| (ctx.trace(), ctx.now()));
        let span = rec.as_ref().map_or(0, |r| (me << 40) | r.spans.len() as u64);
        {
            let mut pctx = ProbeCtx {
                inner: &mut *ctx,
                tag: slot.as_ref().map_or(0, Slot::tag),
                begun,
                rec: rec.as_mut().map(|r| (&**board, r, span)),
            };
            f(inner.as_mut(), &mut pctx);
            if let Some(slot) = slot {
                if slot.retire_if_done(inner) {
                    pctx.tag = slot.tag();
                    inner.on_start(&mut pctx);
                }
                slot.publish(inner, board);
            }
        }
        if let (Some(rec), Some((trace, start))) = (rec, stamp) {
            rec.spans.push(Span { node: me as u32, trace, start, end: ctx.now(), cause });
        }
    }
}

impl Node for Probe {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        if self.slot.is_some() && !self.board.go.load(Ordering::Acquire) {
            ctx.set_timer(GATE_POLL, GATE_TOKEN);
            return;
        }
        self.call(ctx, Cause::None, |n, c| n.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if matches!(msg, Msg::Cms(CmsMsg::LoginOk { .. })) {
            self.board.logins.fetch_add(1, Ordering::AcqRel);
        }
        let cause = match &self.board.links {
            Some(links) => {
                let mut fifo = links[ctx.me().0 as usize].lock().expect("link fifo");
                match fifo.get_mut(&from.0).and_then(VecDeque::pop_front) {
                    Some((span, at)) => Cause::Send { span, at },
                    None => Cause::None,
                }
            }
            None => Cause::None,
        };
        self.call(ctx, cause, |n, c| n.on_message(c, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if token == GATE_TOKEN {
            return self.on_start(ctx);
        }
        let cause = self.rec.as_mut().and_then(|r| r.timers.remove(&token)).unwrap_or(Cause::None);
        let token = match &self.slot {
            // A retired chunk's timer: its node is gone.
            Some(slot) if token & (EPOCH_MASK << EPOCH_SHIFT) != slot.tag() => return,
            Some(_) => token & ((1 << EPOCH_SHIFT) - 1),
            None => token,
        };
        self.call(ctx, cause, |n, c| n.on_timer(c, token));
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The `NetCtx` a wrapped callback sees: forwards everything, tagging a
/// client's timers with its chunk epoch and, when tracing, recording the
/// send and timer links on the way.
struct ProbeCtx<'a> {
    inner: &'a mut dyn NetCtx,
    tag: u64,
    begun: &'a mut Begun,
    rec: Option<(&'a Board, &'a mut Recorder, u64)>,
}

impl NetCtx for ProbeCtx<'_> {
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn me(&self) -> Addr {
        self.inner.me()
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        if let Some((board, rec, span)) = &mut self.rec {
            let at = self.inner.now();
            if let Some(fifo) = board.links.as_ref().and_then(|l| l.get(to.0 as usize)) {
                let from = self.inner.me().0;
                fifo.lock().expect("link fifo").entry(from).or_default().push_back((*span, at));
            }
            if board.recording.load(Ordering::Relaxed) {
                rec.capture(&msg);
            }
        }
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        let token = token | self.tag;
        if let Some((_, rec, span)) = &mut self.rec {
            rec.timers.insert(token, Cause::Timer { span: *span, at: self.inner.now() });
        }
        self.inner.set_timer(delay, token);
    }
    fn rand_u64(&mut self) -> u64 {
        self.inner.rand_u64()
    }
    fn set_trace(&mut self, trace: u64) {
        if trace != self.begun.last {
            self.begun.last = trace;
            self.begun.count += 1;
        }
        self.inner.set_trace(trace);
    }
    fn trace(&self) -> u64 {
        self.inner.trace()
    }
}
