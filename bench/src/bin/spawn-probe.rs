//! The reference process for `setup_s`: answers one request line with
//! `{"ok":true}` and exits. It runs no repository code, so its spawn →
//! answer time is the host's own cost of starting a process and a pipe
//! round trip, which the daemon's start-up time is divided by (see
//! `src/host.rs`).

use std::io::{BufRead, Write};

fn main() {
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_ok() {
        let mut out = std::io::stdout().lock();
        let _ = out.write_all(b"{\"ok\":true}\n");
        let _ = out.flush();
    }
}
