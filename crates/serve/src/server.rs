//! The std-only TCP front end: a readiness-driven loop pumping protocol
//! lines through a [`ServeHandle`] while the fair scheduler keeps every
//! tenant's simulation moving between requests.
//!
//! One OS thread owns the whole service (sessions are not shared), so the
//! server needs no locks: the loop alternates between socket I/O and
//! [`Service::run_round`](crate::Service::run_round). Each pass makes one
//! `poll(2)` call over the listener and every client, then accepts only
//! when the listener is readable, reads only readable clients and writes
//! only clients with pending output. A pass that finds no work polls
//! again at once, yielding the CPU in between, while the loop did work
//! within the last 2 ms; after that the poll blocks until a socket is
//! ready, for at most 10 ms at a time so that a shutdown request is seen.
//! A paced client is answered in tens of microseconds, an idle server
//! wakes on the next byte, and under steady traffic the serving thread
//! holds one core.
//!
//! Every client is bounded: an unterminated request line longer than
//! 1 MiB gets one `ok:false` response and is discarded through its
//! newline, and while a client has more than 4 MiB of unsent responses
//! its further input is left unread. A client that sends EOF still gets
//! the answer to every complete line it sent. The 513th concurrent client
//! is sent one `ok:false` line and closed, and counted in the scrape's
//! `serve.connections_refused`. A failed `accept` (EMFILE, ...) leaves
//! the listener out of the poll set for 500 µs. The loop never polls for
//! readiness it will not act on, so none of these states makes it spin.
//!
//! Shutdown is graceful by construction — on a `shutdown` request (the
//! SIGTERM-equivalent) or [`ServerHandle::shutdown`], the listener
//! closes, responses still buffered are flushed for at most one second
//! (what a client has not taken by then is dropped), in-flight steps
//! finish ([`Service::run_until_idle`](crate::Service::run_until_idle))
//! and every journal is flushed before the thread exits.
//!
//! The front end needs `poll(2)`, so it is built on unix targets only;
//! elsewhere [`serve`] and [`serve_on`] return
//! [`ErrorKind::Unsupported`].
#![cfg_attr(not(unix), allow(dead_code))]

use crate::proto::{Response, ServeHandle};
use crate::service::ServeConfig;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long after its last work the loop keeps polling without blocking,
/// yielding the CPU between passes. 2 ms is ten inter-request gaps at
/// 5,000 requests/s, so a paced client never waits for the loop to wake.
/// On a shared 2-vCPU host, 1 ms and 2 ms measured alike on serve-wire's
/// traced ladder (server wait p50 38 and 36 µs, submit p90 58 and 52 µs,
/// four runs each). A loop that blocked whenever a pass found no work
/// waited for a wake-up on every request: its serve-wire `op_p90_us` was
/// higher in 6 of 6 rounds (37–42 µs against 28–40 µs).
const SPIN_WINDOW: Duration = Duration::from_millis(2);

/// The longest blocking poll once [`SPIN_WINDOW`] has passed: an idle
/// server sees [`ServerHandle::shutdown`]'s flag within this.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// How long the listener stays out of the poll set after a failed
/// `accept`. The failure (EMFILE, ...) leaves the connection queued and
/// the listener readable, so polling it at once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_micros(500);

/// The most clients served at once; the next connection is sent one
/// `ok:false` line and closed. 512 keeps the server under the common
/// 1,024 soft descriptor limit, with room for the journal and checkpoint
/// files it writes.
const MAX_CLIENTS: usize = 512;

/// The longest request line held while its newline has not arrived. A
/// 15-dependence submit is under 1 KiB, so 1 MiB is far above any valid
/// request and still bounds what one client can make the server hold.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Unsent output above which a client's further input is neither read nor
/// run, so the kernel's socket buffers push back on that client alone.
/// 4 MiB is tens of thousands of responses, far more than a pipelining
/// client that reads keeps outstanding.
const MAX_PENDING_OUTPUT: usize = 4 << 20;

/// How long shutdown waits in total for clients to take their buffered
/// responses. What a client has not read by then is dropped, so a client
/// that never reads cannot hang shutdown.
const SHUTDOWN_FLUSH: Duration = Duration::from_secs(1);

/// One connected client: the stream plus its line-framing buffers.
#[derive(Debug)]
struct Client {
    stream: TcpStream,
    /// Received bytes not yet consumed as complete lines.
    inbuf: Vec<u8>,
    /// How much of `inbuf` has been searched for a newline.
    scanned: usize,
    /// The rest of an over-long line is being discarded, through its
    /// newline.
    discarding: bool,
    /// Responses the socket has not taken yet.
    outbuf: Vec<u8>,
    /// The peer has sent EOF: it gets the answers to its complete lines,
    /// then the connection closes.
    eof: bool,
    /// The connection failed: drop it at once.
    closed: bool,
}

impl Client {
    /// Whether the loop reads this client: not after EOF, not while its
    /// output is over [`MAX_PENDING_OUTPUT`] and not while it holds more
    /// than [`MAX_LINE_BYTES`] of input.
    fn wants_input(&self) -> bool {
        !self.eof && self.outbuf.len() <= MAX_PENDING_OUTPUT && self.inbuf.len() <= MAX_LINE_BYTES
    }

    /// Whether the connection can go: it failed, or it sent EOF and every
    /// complete line it sent has been answered and taken.
    fn finished(&self) -> bool {
        self.closed || self.eof && self.outbuf.is_empty() && self.scanned == self.inbuf.len()
    }
}

/// A running server: the bound address, the shutdown flag and the serving
/// thread's handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The address the listener is bound to (resolve port 0 through
    /// this).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown and waits for the serving thread:
    /// listener closed, buffered responses flushed, in-flight steps
    /// finished, journals flushed.
    ///
    /// # Errors
    ///
    /// Propagates the serving thread's I/O error, if any.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("serve thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves on a background thread. Returns once the
/// listener is bound, so [`ServerHandle::addr`] is immediately
/// connectable.
///
/// # Errors
///
/// Propagates bind failures; [`ErrorKind::Unsupported`] on a target
/// without `poll(2)`.
pub fn serve(cfg: ServeConfig, addr: &str) -> std::io::Result<ServerHandle> {
    if cfg!(not(unix)) {
        return Err(unsupported());
    }
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("picos-serve".into())
        .spawn(move || serve_on(cfg, listener, &flag))?;
    Ok(ServerHandle {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

fn unsupported() -> std::io::Error {
    std::io::Error::new(
        ErrorKind::Unsupported,
        "picos serve needs poll(2), which this target lacks",
    )
}

/// Serves on an already-bound listener until a `shutdown` request arrives
/// or `stop` is raised, then shuts down gracefully. This is the CLI's
/// foreground entry point; [`serve`] wraps it in a thread.
///
/// # Errors
///
/// Propagates listener configuration and journal flush failures, and a
/// failed `poll(2)`, which first shuts the server down gracefully; a
/// failed accept only delays admissions, and per-client I/O errors only
/// drop that client. [`ErrorKind::Unsupported`] on a target without
/// `poll(2)`.
pub fn serve_on(cfg: ServeConfig, listener: TcpListener, stop: &AtomicBool) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        poll_loop(cfg, listener, stop)
    }
    #[cfg(not(unix))]
    {
        let _ = (cfg, listener, stop);
        Err(unsupported())
    }
}

/// [`serve_on`]'s loop: one `poll(2)` per pass, then the I/O it reported
/// and one scheduler round.
#[cfg(unix)]
fn poll_loop(cfg: ServeConfig, listener: TcpListener, stop: &AtomicBool) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    use sys::{PollFd, POLLIN, POLLOUT};

    listener.set_nonblocking(true)?;
    let mut handle =
        ServeHandle::new(cfg).map_err(|e| std::io::Error::other(format!("service init: {e}")))?;
    let mut clients: Vec<Client> = Vec::new();
    // Entry 0 is the listener, entry `i + 1` is `clients[i]`.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut last_work = Instant::now();
    let mut accept_at = last_work;
    let mut outcome = Ok(());
    while !stop.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        let now = Instant::now();
        let listening = now >= accept_at;
        let wait = if now - last_work < SPIN_WINDOW {
            Duration::ZERO
        } else if listening {
            IDLE_WAIT
        } else {
            IDLE_WAIT.min(accept_at - now)
        };
        fds.clear();
        fds.push(PollFd::new(listening.then(|| listener.as_raw_fd()), POLLIN));
        fds.extend(clients.iter().map(|c| {
            let mut events = 0;
            if c.wants_input() {
                events |= POLLIN;
            }
            if !c.outbuf.is_empty() {
                events |= POLLOUT;
            }
            PollFd::new(Some(c.stream.as_raw_fd()), events)
        }));
        if let Err(e) = sys::poll(&mut fds, wait) {
            // Leave through the graceful shutdown: the journals still
            // reach disk.
            outcome = Err(e);
            break;
        }
        let mut busy = false;
        for (c, fd) in clients.iter_mut().zip(&fds[1..]) {
            busy |= pump(c, fd, &mut handle, &mut chunk);
        }
        clients.retain(|c| !c.finished());
        if fds[0].ready() {
            match accept(&listener, &mut clients, handle.service_mut()) {
                Ok(arrived) => busy |= arrived,
                Err(_) => accept_at = Instant::now() + ACCEPT_BACKOFF,
            }
        }
        // Advance the tenants between I/O bursts.
        busy |= handle.service_mut().run_round() > 0;
        if busy {
            last_work = Instant::now();
        } else if wait.is_zero() {
            std::thread::yield_now();
        }
    }
    // Graceful shutdown: stop accepting, flush buffered responses until
    // the deadline, finish in-flight steps, flush every journal.
    drop(listener);
    let deadline = Instant::now() + SHUTDOWN_FLUSH;
    loop {
        fds.clear();
        fds.extend(clients.iter().map(|c| {
            let pending = !c.closed && !c.outbuf.is_empty();
            PollFd::new(pending.then(|| c.stream.as_raw_fd()), POLLOUT)
        }));
        let now = Instant::now();
        if now >= deadline || fds.iter().all(|fd| !fd.polled()) {
            break;
        }
        if sys::poll(&mut fds, deadline - now).is_err() {
            break;
        }
        for (c, fd) in clients.iter_mut().zip(&fds) {
            if fd.ready() {
                flush(c);
            }
        }
    }
    handle.service_mut().run_until_idle();
    handle
        .service_mut()
        .flush_journals()
        .map_err(|e| std::io::Error::other(format!("journal flush: {e}")))?;
    outcome
}

/// Admits every pending connection; returns whether one arrived. Past
/// [`MAX_CLIENTS`] a connection is sent one `ok:false` line, closed and
/// counted in the service's scrape. Any accept error but "none pending"
/// (EMFILE, ECONNABORTED, ...) is returned: the connection stays queued
/// for a later pass.
fn accept(
    listener: &TcpListener,
    clients: &mut Vec<Client>,
    service: &mut crate::Service,
) -> std::io::Result<bool> {
    let mut arrived = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                arrived = true;
                if clients.len() >= MAX_CLIENTS {
                    // A fresh socket takes one short line without
                    // blocking; whatever it does not take is lost with
                    // the connection.
                    let refusal = Response::Err(format!(
                        "connection refused: the server is at its limit of {MAX_CLIENTS} clients"
                    ));
                    let line = format!("{}\n", refusal.to_line());
                    let _ = stream
                        .set_nonblocking(true)
                        .and_then(|()| (&stream).write_all(line.as_bytes()));
                    service.count_refused_connection();
                    continue;
                }
                // A blocking stream would stall every client: drop it.
                if stream.set_nonblocking(true).is_ok() {
                    clients.push(Client {
                        stream,
                        inbuf: Vec::new(),
                        scanned: 0,
                        discarding: false,
                        outbuf: Vec::new(),
                        eof: false,
                        closed: false,
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(arrived),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One I/O turn for one client, on what `poll` reported for its socket;
/// returns whether anything happened. Input is read only while the client
/// [wants it](Client::wants_input), and lines are run while the output
/// stays under [`MAX_PENDING_OUTPUT`]; each flush that makes room lets
/// more lines run.
#[cfg(unix)]
fn pump(c: &mut Client, fd: &sys::PollFd, handle: &mut ServeHandle, chunk: &mut [u8]) -> bool {
    if !fd.ready() {
        return false;
    }
    let mut busy = false;
    if c.wants_input() && fd.readable() {
        busy |= read(c, chunk);
    }
    if fd.writable() {
        busy |= flush(c);
    }
    while !c.closed && c.outbuf.len() <= MAX_PENDING_OUTPUT && run_lines(c, handle) {
        busy = true;
        flush(c);
    }
    busy
}

/// Reads what the socket holds while the client wants input; returns
/// whether anything happened. EOF stops reading, and an error marks the
/// client closed.
fn read(c: &mut Client, chunk: &mut [u8]) -> bool {
    let mut got = false;
    while c.wants_input() {
        match c.stream.read(chunk) {
            Ok(0) => {
                c.eof = true;
                return true;
            }
            Ok(n) => {
                c.inbuf.extend_from_slice(&chunk[..n]);
                got = true;
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.closed = true;
                return true;
            }
        }
    }
    got
}

/// Executes the complete lines in the client's input, examining each byte
/// once and draining the consumed prefix once, until the output passes
/// [`MAX_PENDING_OUTPUT`]. An unterminated line longer than
/// [`MAX_LINE_BYTES`] is answered with one error, and its bytes through
/// the next newline are discarded. Returns whether a line was answered.
fn run_lines(c: &mut Client, handle: &mut ServeHandle) -> bool {
    let mut answered = false;
    let mut start = 0;
    while c.outbuf.len() <= MAX_PENDING_OUTPUT {
        let Some(off) = c.inbuf[c.scanned..].iter().position(|&b| b == b'\n') else {
            c.scanned = c.inbuf.len();
            if !c.discarding && c.inbuf.len() - start > MAX_LINE_BYTES {
                let err = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                c.outbuf
                    .extend_from_slice(Response::Err(err).to_line().as_bytes());
                c.outbuf.push(b'\n');
                c.discarding = true;
                answered = true;
            }
            if c.discarding {
                start = c.inbuf.len();
            }
            break;
        };
        let end = c.scanned + off;
        let line = &c.inbuf[start..end];
        c.scanned = end + 1;
        start = end + 1;
        if std::mem::take(&mut c.discarding) {
            continue;
        }
        let line = String::from_utf8_lossy(line);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = handle.handle_line(trimmed);
        c.outbuf.extend_from_slice(response.as_bytes());
        c.outbuf.push(b'\n');
        answered = true;
    }
    c.inbuf.drain(..start);
    c.scanned -= start;
    answered
}

/// Writes as much of the client's output as its socket takes; returns
/// whether anything happened.
fn flush(c: &mut Client) -> bool {
    let mut sent = 0;
    while sent < c.outbuf.len() {
        match c.stream.write(&c.outbuf[sent..]) {
            Ok(n) if n > 0 => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // A zero-length write or any other error: the peer is gone.
            _ => {
                c.closed = true;
                return true;
            }
        }
    }
    c.outbuf.drain(..sent);
    sent > 0
}

/// `poll(2)`, the one foreign call of the front end.
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// `nfds_t`.
    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    type NfdsT = std::os::raw::c_uint;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    /// `struct pollfd`: one socket and the readiness the loop asks about.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        /// An entry for `fd`, or one that `poll` skips when `fd` is
        /// `None`. Errors and hang-ups are reported whatever `events`
        /// asks for.
        pub fn new(fd: Option<RawFd>, events: c_short) -> PollFd {
            PollFd {
                fd: fd.unwrap_or(-1),
                events,
                revents: 0,
            }
        }

        /// Whether `poll` looks at this entry.
        pub fn polled(&self) -> bool {
            self.fd >= 0
        }

        /// Whether the last `poll` reported anything.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }

        /// Whether a read would not block: input, EOF, an error or a
        /// hang-up.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP) != 0
        }

        /// Whether a write would not block, or would report an error.
        pub fn writable(&self) -> bool {
            self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
        }
    }

    /// Waits until an entry of `fds` is ready or `timeout` (rounded up to
    /// whole milliseconds) has passed, and records each entry's readiness.
    /// An interrupted wait (EINTR) reads as nothing ready.
    ///
    /// # Errors
    ///
    /// Any other `poll(2)` failure.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        }
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        let n = NfdsT::try_from(fds.len()).map_err(std::io::Error::other)?;
        // SAFETY: `fds` is a live, exclusively borrowed slice of `n`
        // `#[repr(C)]` `struct pollfd` records for the whole call, and
        // `poll` writes nothing but their `revents` fields.
        let rc = unsafe { poll(fds.as_mut_ptr(), n, ms) };
        if rc >= 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
        for fd in fds {
            fd.revents = 0;
        }
        Ok(())
    }
}
