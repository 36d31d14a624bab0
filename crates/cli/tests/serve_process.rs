//! `picos serve` as a process: a failed `accept` (here EMFILE, under a low
//! open-file limit) delays new clients but never stops the server.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
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

#[test]
fn accept_errors_do_not_stop_the_server() {
    let child = Command::new("sh")
        .args([
            "-c",
            "ulimit -n 32; exec \"$0\" serve --addr 127.0.0.1:0",
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

    assert!(call(&served[0], r#"{"cmd":"shutdown"}"#, ANSWER).is_some());
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
