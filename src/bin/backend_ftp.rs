//! The application half of `xwafeftp` — the distribution's FTP frontend.
//!
//! The "server" is canned (no 1993 FTP site answers anymore), but the
//! mechanism is the full Figure 4 architecture: the file listing flows
//! over the command channel, and file *retrieval* flows over the
//! mass-transfer data channel — the backend announces the byte count
//! with `setCommunicationVariable`, then streams the payload into the
//! inherited channel fd, exactly as the paper describes for bulk data.

use std::io::{BufRead, Write};
use std::os::unix::io::FromRawFd;

/// The fd at which the frontend's mass channel is inherited
/// (`wafe_serve::supervisor::MASS_CHANNEL_CHILD_FD`).
const MASS_FD: i32 = 5;

fn files() -> Vec<(&'static str, String)> {
    vec![
        (
            "README",
            "Wafe - a widget frontend.\nSee the USENIX 1993 paper.\n".into(),
        ),
        ("wafe-0.93.tar", "tar-archive-bytes ".repeat(500)),
        (
            "CHANGES",
            "0.93: Motif version under development.\n0.92: first announce.\n".into(),
        ),
    ]
}

fn main() {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let listing: Vec<String> = files()
        .iter()
        .map(|(name, body)| format!("{name} ({} bytes)", body.len()))
        .collect();
    let tree = format!(
        "%form top topLevel\n\
         %label site top label {{ftp.wu-wien.ac.at:pub/src/X11/wafe}} borderWidth 0\n\
         %list remote top fromVert site list {{{}}}\n\
         %label status top fromVert remote label {{connected}} borderWidth 0 width 280\n\
         %asciiText content top fromVert status editType read width 280 height 100\n\
         %command quitb top fromVert content label Quit callback quit\n\
         %sV remote callback {{echo get %i}}\n\
         %realize\n",
        listing.join(",")
    );
    let _ = out.write_all(tree.as_bytes());
    let _ = out.flush();

    // SAFETY: fd 5 is the mass-transfer pipe the frontend dup2()ed into
    // this process before exec; we take ownership exactly once.
    let mut mass = unsafe { std::fs::File::from_raw_fd(MASS_FD) };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if let Some(ix) = line.strip_prefix("get ") {
            let ix: usize = match ix.trim().parse() {
                Ok(i) => i,
                Err(_) => continue,
            };
            let files = files();
            let (name, body) = match files.get(ix) {
                Some(f) => f,
                None => continue,
            };
            let _ = writeln!(out, "%sV status label {{RETR {name} ...}}");
            // Announce the transfer, then stream the payload over the
            // data channel — "no parsing or interpretation is performed".
            let _ = writeln!(
                out,
                "%setCommunicationVariable C {} {{sV content string $C; sV status label {{{name}: transfer complete}}}}",
                body.len()
            );
            let _ = out.flush();
            let _ = mass.write_all(body.as_bytes());
            let _ = mass.flush();
        }
    }
}
