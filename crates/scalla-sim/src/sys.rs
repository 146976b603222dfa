//! The Linux calls the TCP reactor needs that std does not offer: `epoll`
//! and a non-blocking IPv4 `connect`, declared `extern "C"` against the
//! libc that std already links. Constants are the Linux values shared by
//! x86_64 and aarch64.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

pub(crate) const EPOLLIN: u32 = 0x1;
pub(crate) const EPOLLOUT: u32 = 0x4;
pub(crate) const EPOLLERR: u32 = 0x8;
pub(crate) const EPOLLHUP: u32 = 0x10;
pub(crate) const EPOLLET: u32 = 1 << 31;
const EPOLL_CTL_ADD: i32 = 1;
const O_CLOEXEC: i32 = 0o2_000_000;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4_000;
const EINPROGRESS: i32 = 115;

/// The kernel's `struct epoll_event`, which is packed on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    pub events: u32,
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    (ret >= 0).then_some(ret).ok_or_else(io::Error::last_os_error)
}

/// An owned epoll instance (level-triggered registrations).
pub(crate) struct Epoll(OwnedFd);

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer arguments.
        let fd = cvt(unsafe { epoll_create1(O_CLOEXEC) })?;
        // SAFETY: `fd` was just returned by epoll_create1 and nothing else
        // owns it.
        Ok(Epoll(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    /// Registers `fd` for `events`; its readiness reports carry `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = Event { events, token };
        // SAFETY: `ev` is a valid epoll_event that outlives the call.
        cvt(unsafe { epoll_ctl(self.0.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
    }

    /// Waits up to `timeout_ms` (-1: no limit) and returns how many
    /// entries of `out` were filled; an interrupted wait fills none.
    pub fn wait(&self, out: &mut [Event], timeout_ms: i32) -> usize {
        let cap = i32::try_from(out.len()).unwrap_or(i32::MAX);
        // SAFETY: `out` is writable for `cap` events for the whole call.
        let n = unsafe { epoll_wait(self.0.as_raw_fd(), out.as_mut_ptr(), cap, timeout_ms) };
        usize::try_from(n).unwrap_or(0)
    }
}

/// Opens a non-blocking socket and starts connecting it to `peer`. The
/// connect completes in the background: the socket turns writable, and
/// `take_error` then tells success from failure.
pub(crate) fn connect_nonblocking(peer: SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(v4) = peer else {
        return Err(io::ErrorKind::Unsupported.into());
    };
    // `struct sockaddr_in`: family, then port and address in network byte
    // order, then zero padding.
    let mut addr = [0u8; 16];
    addr[..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
    addr[2..4].copy_from_slice(&v4.port().to_be_bytes());
    addr[4..8].copy_from_slice(&v4.ip().octets());
    // SAFETY: no pointer arguments.
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | O_CLOEXEC, 0) })?;
    // SAFETY: `fd` is a just-created socket; the stream takes sole
    // ownership and closes it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `addr` is a live 16-byte sockaddr_in (the kernel copies it
    // byte-wise, so alignment does not matter).
    match cvt(unsafe { connect(fd, addr.as_ptr(), 16) }) {
        Err(e) if e.raw_os_error() != Some(EINPROGRESS) => Err(e),
        _ => Ok(stream),
    }
}
