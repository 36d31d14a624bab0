//! The std-only TCP front end: a nonblocking poll loop pumping protocol
//! lines through a [`ServeHandle`] while the fair scheduler keeps every
//! tenant's simulation moving between requests.
//!
//! One OS thread owns the whole service (sessions are not shared), so the
//! server needs no locks: the loop alternates between socket I/O and
//! [`Service::run_round`](crate::Service::run_round). A pass that finds
//! no work yields the CPU while the loop did work within the last 2 ms,
//! and only then sleeps 500 µs: a paced client is answered in tens of
//! microseconds, and under steady traffic the serving thread holds one
//! core.
//!
//! Every client is bounded: an unterminated request line longer than
//! 1 MiB gets one `ok:false` response and is discarded through its
//! newline, and while a client has more than 4 MiB of unsent responses
//! its further input is left unread. A failed `accept` (EMFILE, ...)
//! only ends that pass's admissions.
//!
//! Shutdown is graceful by construction — on a `shutdown` request (the
//! SIGTERM-equivalent) or [`ServerHandle::shutdown`], the listener
//! closes, responses still buffered are flushed for at most one second
//! (what a client has not taken by then is dropped), in-flight steps
//! finish ([`Service::run_until_idle`](crate::Service::run_until_idle))
//! and every journal is flushed before the thread exits.

use crate::proto::{Response, ServeHandle};
use crate::service::ServeConfig;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long after its last work the loop keeps polling, yielding the CPU
/// between passes, before it sleeps. 2 ms is ten inter-request gaps at
/// 5,000 requests/s, so a paced client never meets the sleep. On a shared
/// 2-vCPU host, 1 ms and 2 ms measured alike on serve-wire's traced ladder
/// (server wait p50 38 and 36 µs, submit p90 58 and 52 µs, four runs
/// each); the longer window also keeps a client that stalls for a
/// millisecond off the sleep, for at most 1 ms more yielding after the
/// last request.
const SPIN_WINDOW: Duration = Duration::from_millis(2);

/// What a pass that finds no work sleeps once [`SPIN_WINDOW`] has passed:
/// an idle server wakes 2,000 times a second and uses almost no CPU. It is
/// also the back-off between failed accepts, which do not count as work.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

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
    closed: bool,
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
/// Propagates bind failures.
pub fn serve(cfg: ServeConfig, addr: &str) -> std::io::Result<ServerHandle> {
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

/// Serves on an already-bound listener until a `shutdown` request arrives
/// or `stop` is raised, then shuts down gracefully. This is the CLI's
/// foreground entry point; [`serve`] wraps it in a thread.
///
/// # Errors
///
/// Propagates listener configuration and journal flush failures; a failed
/// accept only delays admissions, and per-client I/O errors only drop that
/// client.
pub fn serve_on(cfg: ServeConfig, listener: TcpListener, stop: &AtomicBool) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut handle =
        ServeHandle::new(cfg).map_err(|e| std::io::Error::other(format!("service init: {e}")))?;
    let mut clients: Vec<Client> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut last_work = Instant::now();
    while !stop.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        let mut busy = accept(&listener, &mut clients);
        // Pump every client: read available bytes, execute complete
        // lines, flush what the socket will take.
        for c in &mut clients {
            busy |= pump(c, &mut handle, &mut chunk);
        }
        clients.retain(|c| !c.closed);
        // Advance the tenants between I/O bursts.
        busy |= handle.service_mut().run_round() > 0;
        if busy {
            last_work = Instant::now();
        } else if last_work.elapsed() < SPIN_WINDOW {
            std::thread::yield_now();
        } else {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    // Graceful shutdown: stop accepting, flush buffered responses until
    // the deadline, finish in-flight steps, flush every journal.
    drop(listener);
    let deadline = Instant::now() + SHUTDOWN_FLUSH;
    while Instant::now() < deadline && clients.iter().any(|c| !c.closed && !c.outbuf.is_empty()) {
        let mut wrote = false;
        for c in clients.iter_mut().filter(|c| !c.closed) {
            wrote |= flush(c);
        }
        if !wrote {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    handle.service_mut().run_until_idle();
    handle
        .service_mut()
        .flush_journals()
        .map_err(|e| std::io::Error::other(format!("journal flush: {e}")))?;
    Ok(())
}

/// Admits every pending connection; returns whether one arrived. Any
/// accept error but "none pending" (EMFILE, ECONNABORTED, ...) ends this
/// pass's admissions and leaves the server running: the connection stays
/// queued for a later pass, and an otherwise idle loop sleeps in between.
fn accept(listener: &TcpListener, clients: &mut Vec<Client>) -> bool {
    let mut arrived = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                arrived = true;
                // A blocking stream would stall every client: drop it.
                if stream.set_nonblocking(true).is_ok() {
                    clients.push(Client {
                        stream,
                        inbuf: Vec::new(),
                        scanned: 0,
                        discarding: false,
                        outbuf: Vec::new(),
                        closed: false,
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return arrived,
        }
    }
}

/// One I/O turn for one client; returns whether anything happened. While
/// the client's unsent output is above [`MAX_PENDING_OUTPUT`] its input is
/// left unread and its lines are not run, so only the flush happens.
fn pump(c: &mut Client, handle: &mut ServeHandle, chunk: &mut [u8]) -> bool {
    let mut busy = false;
    if c.outbuf.len() <= MAX_PENDING_OUTPUT {
        // Past MAX_LINE_BYTES the buffer holds a complete line or an
        // over-long one, so reading stops there.
        while c.inbuf.len() <= MAX_LINE_BYTES {
            match c.stream.read(chunk) {
                Ok(0) => {
                    c.closed = true;
                    return true;
                }
                Ok(n) => {
                    c.inbuf.extend_from_slice(&chunk[..n]);
                    busy = true;
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
        busy |= run_lines(c, handle);
    }
    busy |= flush(c);
    busy
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
