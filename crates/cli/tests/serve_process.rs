//! `picos serve` as a process: a failed `accept` (here EMFILE, under a low
//! open-file limit) delays new clients but never stops the server or makes
//! it spin, and a connection past the client cap is refused and counted.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a served request may take to be answered.
const ANSWER: Duration = Duration::from_secs(10);

/// The server process, killed if the test ends early.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads one response line; `None` if none arrives within `wait` or the
/// connection is gone.
fn answer(stream: &TcpStream, wait: Duration) -> Option<String> {
    stream.set_read_timeout(Some(wait)).ok()?;
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(n) if n > 0 => Some(line),
        _ => None,
    }
}

/// Sends one request line and reads its answer.
fn call(stream: &TcpStream, request: &str, wait: Duration) -> Option<String> {
    let mut writer = stream;
    writer.write_all(format!("{request}\n").as_bytes()).ok()?;
    answer(stream, wait)
}

/// Starts `picos serve` on an ephemeral port through `sh -c`, running
/// `setup` in the shell first; returns the server and its address.
fn spawn_server(setup: &str) -> (Server, SocketAddr) {
    let child = Command::new("sh")
        .args([
            "-c",
            &format!("{setup}exec \"$0\" serve --addr 127.0.0.1:0"),
            env!("CARGO_BIN_EXE_picos"),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    let mut server = Server(child);
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read the listening address");
    let addr: SocketAddr = banner
        .split_whitespace()
        .last()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    (server, addr)
}

/// Asks the server to shut down over `client` and checks that it exits
/// cleanly.
fn shut_down(mut server: Server, client: &TcpStream) {
    assert!(call(client, r#"{"cmd":"shutdown"}"#, ANSWER).is_some());
    let deadline = Instant::now() + ANSWER;
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("wait for the server") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "the server did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "server exited with {status}");
}

/// CPU seconds (user + system) process `pid` has used: fields 14 and 15
/// of `/proc/<pid>/stat`, in ticks of 1/100 s (`USER_HZ`).
#[cfg(target_os = "linux")]
fn cpu_seconds(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read the stat file");
    // Field 2, the command name, is parenthesised and may hold spaces.
    let fields: Vec<&str> = text[text.rfind(')').expect("a command name") + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}

#[test]
fn accept_errors_do_not_stop_the_server() {
    let (server, addr) = spawn_server("ulimit -n 32; ");

    // 32 descriptors hold fewer than 32 clients, so connecting until one
    // goes unanswered makes an accept fail with EMFILE.
    let scrape = r#"{"cmd":"scrape"}"#;
    let mut served = Vec::new();
    let waiting = loop {
        assert!(served.len() < 64, "the open-file limit never applied");
        let stream = TcpStream::connect(addr).expect("connect");
        match call(&stream, scrape, Duration::from_secs(2)) {
            Some(_) => served.push(stream),
            None => break stream,
        }
    };
    assert!(
        call(&served[0], scrape, ANSWER).is_some(),
        "an earlier client lost the server after {} accepts",
        served.len()
    );
    // The failed accept leaves the listener readable; the server must not
    // spin on it while the connection waits.
    #[cfg(target_os = "linux")]
    {
        let before = cpu_seconds(server.0.id());
        std::thread::sleep(Duration::from_secs(1));
        let spent = cpu_seconds(server.0.id()) - before;
        assert!(
            spent < 0.5,
            "the server used {spent:.2} s of CPU in 1 s while an accept kept failing"
        );
    }

    // Once clients close, the waiting connection is admitted and answered,
    // and new clients are served.
    served.truncate(served.len() - 4);
    assert!(
        answer(&waiting, ANSWER).is_some(),
        "the waiting client was never admitted"
    );
    let fresh = TcpStream::connect(addr).expect("connect");
    assert!(
        call(&fresh, scrape, ANSWER).is_some(),
        "a new client was not served"
    );

    shut_down(server, &served[0]);
}

/// The server's client cap (512): the 513th concurrent connection gets one
/// `ok:false` line naming the cap and is closed, an earlier client is
/// still served, and the scrape counts the refusal.
#[test]
fn a_connection_past_the_client_cap_is_refused_and_counted() {
    const CAP: usize = 512;
    // The server holds the cap's descriptors, whatever this process's
    // limit is.
    let (server, addr) = spawn_server("ulimit -n 1024; ");
    let scrape = r#"{"cmd":"scrape"}"#;
    // One answer per connection before the next, so the server holds
    // every earlier client when the next arrives.
    let served: Vec<TcpStream> = (0..CAP)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("connect");
            assert!(
                call(&stream, scrape, ANSWER).is_some(),
                "client {i} was not served"
            );
            stream
        })
        .collect();

    let refused = TcpStream::connect(addr).expect("connect");
    let line = answer(&refused, ANSWER).expect("the refused connection got no line");
    assert!(
        line.starts_with(r#"{"ok":false"#) && line.contains("512"),
        "{line}"
    );
    let mut rest = Vec::new();
    assert_eq!(
        (&refused).read_to_end(&mut rest).ok(),
        Some(0),
        "the refused connection was not closed after its line"
    );

    let scraped = call(&served[0], scrape, ANSWER).expect("an earlier client lost the server");
    assert!(
        scraped.contains(r#""serve.connections_refused":1"#),
        "{scraped}"
    );
    shut_down(server, &served[CAP - 1]);
}
