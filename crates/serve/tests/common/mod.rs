//! Shared by the test binaries that render Prometheus text or speak raw
//! wire frames; each binary uses a subset.
#![allow(dead_code)]

use std::collections::HashSet;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use teal_serve::{wire, SubmitRequest};

/// Open a raw connection to a `TealServer` and complete HELLO/HELLO_OK: a
/// peer with no client-side reader thread behind it.
pub fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut buf = Vec::new();
    wire::encode_hello(&mut buf);
    wire::write_frame(&mut stream, &buf).expect("hello");
    assert!(wire::read_frame(&mut stream, &mut buf).expect("hello ok"));
    wire::decode_hello_ok(&buf).expect("handshake");
    stream
}

/// Open a raw connection to a `TealServer`, handshake, and send `req` with
/// its last demand overwritten by `hostile` (demands are the REQUEST
/// frame's tail) — a value `TrafficMatrix::new` would assert on, which the
/// client API therefore cannot produce. Returns how many bytes the server
/// sent back before hanging up.
pub fn send_hostile_demand(addr: SocketAddr, req: &SubmitRequest, hostile: f64) -> usize {
    let mut stream = raw_handshake(addr);
    let mut buf = Vec::new();
    wire::encode_request(&mut buf, 1, req);
    let at = buf.len() - 8;
    buf[at..].copy_from_slice(&hostile.to_le_bytes());
    wire::write_frame(&mut stream, &buf).expect("send hostile request");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap_or(0)
}

/// Check `text` against the Prometheus text exposition format as far as
/// `TelemetrySnapshot::to_prometheus` uses it: every family opens with
/// exactly one `# HELP` then one `# TYPE` line, all of its samples follow
/// contiguously, each sample is `name[{key="value",...}] number`, and label
/// values contain `\`, `"` and newline only as `\\`, `\"` and `\n`.
pub fn prom_well_formed(text: &str) -> Result<(), String> {
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("text does not end with a newline".into());
    }
    let mut opened: HashSet<&str> = HashSet::new();
    // The family whose block we are inside, and whether its TYPE was seen.
    let mut current: Option<(&str, bool)> = None;
    for (at, line) in text.lines().enumerate() {
        let fail = |why: &str| Err(format!("line {}: {why}: `{line}`", at + 1));
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !is_name(name) {
                return fail("HELP without a metric name");
            }
            if matches!(current, Some((_, false))) {
                return fail("previous family has no TYPE");
            }
            if !opened.insert(name) {
                return fail("family opened twice (samples not contiguous)");
            }
            current = Some((name, false));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split(' ');
            let (name, kind) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
            if current != Some((name, false)) {
                return fail("TYPE does not follow its family's HELP");
            }
            if !matches!(kind, "counter" | "gauge") || words.next().is_some() {
                return fail("bad TYPE");
            }
            current = Some((name, true));
        } else {
            let Some((family, true)) = current else {
                return fail("sample before any HELP/TYPE header");
            };
            match sample_name(line) {
                Ok(name) if name == family => {}
                Ok(_) => return fail("sample outside its family's block"),
                Err(why) => return fail(why),
            }
        }
    }
    match current {
        Some((name, false)) => Err(format!("family {name} has no TYPE")),
        _ => Ok(()),
    }
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one sample line, returning its metric name.
fn sample_name(line: &str) -> Result<&str, &'static str> {
    let end = line.find(['{', ' ']).ok_or("sample without a value")?;
    let (name, mut rest) = line.split_at(end);
    if !is_name(name) {
        return Err("bad metric name");
    }
    if let Some(labels) = rest.strip_prefix('{') {
        rest = labels;
        loop {
            let eq = rest.find("=\"").ok_or("label without =\"")?;
            if !is_name(&rest[..eq]) || rest[..eq].contains(':') {
                return Err("bad label name");
            }
            rest = &rest[eq + 2..];
            let mut chars = rest.char_indices();
            let close = loop {
                match chars.next().ok_or("unterminated label value")? {
                    (_, '\\') => match chars.next() {
                        Some((_, '\\' | '"' | 'n')) => {}
                        _ => return Err("bad escape in label value"),
                    },
                    (i, '"') => break i,
                    _ => {}
                }
            };
            rest = &rest[close + 1..];
            if let Some(after) = rest.strip_prefix("} ") {
                rest = after;
                break;
            }
            rest = rest.strip_prefix(',').ok_or("junk after label value")?;
        }
    } else {
        rest = &rest[1..];
    }
    rest.parse::<f64>().map_err(|_| "value is not a number")?;
    Ok(name)
}
