//! Driving one `spi-explored` process over its ndjson pipe.
//!
//! A response's timer stops when the read that delivered the line's last
//! byte returns; the line is parsed only afterwards, by the caller.

use std::io::{Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::stats;

pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: ChildStdout,
    buffer: Vec<u8>,
    /// Complete lines received but not yet handed out, with the instant the
    /// read carrying their last byte returned.
    ready: std::collections::VecDeque<(String, Instant)>,
}

impl Daemon {
    /// Starts the daemon; returns it with the instant just before the spawn.
    pub fn spawn(binary: &Path, args: &[String]) -> std::io::Result<(Daemon, Instant)> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok((
            Daemon {
                child,
                stdin,
                stdout,
                buffer: Vec::with_capacity(1 << 16),
                ready: std::collections::VecDeque::new(),
            },
            started,
        ))
    }

    /// Writes one request line; returns the instant the write completed.
    pub fn send(&mut self, line: &str) -> std::io::Result<Instant> {
        let stdin = self.stdin.as_mut().ok_or(std::io::ErrorKind::BrokenPipe)?;
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        stdin.write_all(framed.as_bytes())?;
        Ok(Instant::now())
    }

    /// Writes several request lines with one write; returns the instant it
    /// completed.
    pub fn send_many(&mut self, lines: &[String]) -> std::io::Result<Instant> {
        let stdin = self.stdin.as_mut().ok_or(std::io::ErrorKind::BrokenPipe)?;
        let mut framed = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            framed.push_str(line);
            framed.push('\n');
        }
        stdin.write_all(framed.as_bytes())?;
        Ok(Instant::now())
    }

    /// The next response line and the instant its last byte arrived.
    pub fn recv(&mut self) -> std::io::Result<(String, Instant)> {
        loop {
            if let Some(line) = self.ready.pop_front() {
                return Ok(line);
            }
            let mut chunk = [0u8; 1 << 16];
            let read = self.stdout.read(&mut chunk)?;
            let arrived = Instant::now();
            if read == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let mut start = self.buffer.len();
            self.buffer.extend_from_slice(&chunk[..read]);
            let mut consumed = 0;
            while let Some(offset) = self.buffer[start..].iter().position(|&b| b == b'\n') {
                let end = start + offset;
                let line = String::from_utf8_lossy(&self.buffer[consumed..end]).into_owned();
                self.ready.push_back((line, arrived));
                consumed = end + 1;
                start = consumed;
            }
            self.buffer.drain(..consumed);
        }
    }

    /// One request/response round trip: `(line, written, answered)`.
    pub fn call(&mut self, line: &str) -> std::io::Result<(String, Instant, Instant)> {
        let written = self.send(line)?;
        let (answer, answered) = self.recv()?;
        Ok((answer, written, answered))
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        stats::vmhwm_mb(&status)
    }

    /// Closes stdin (a clean shutdown: in-flight shards commit) and waits.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        // Drain whatever is still in flight so the daemon never blocks on a
        // full pipe while quiescing.
        let mut sink = Vec::new();
        self.stdout.read_to_end(&mut sink)?;
        self.child.wait().map(|_| ())
    }

    /// `kill -9` and wait.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Error paths must not leave daemons behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
