//! Length-prefixed binary wire codec for the TCP front end.
//!
//! Every message on a connection is a *frame*: a little-endian `u32`
//! payload length followed by the payload, whose first byte is the message
//! kind. A connection opens with a versioned handshake (client sends
//! [`encode_hello`], server answers [`encode_hello_ok`] or closes), after
//! which the client pipelines [`encode_request`] frames and the server
//! answers with [`encode_reply`] frames **in any order** — replies are
//! matched to requests by the caller-chosen `u64` request id, never by
//! position, which is what lets the server drain tickets as they complete.
//!
//! The payload encodings are fixed-layout little-endian (no
//! self-description): the version field in the handshake is the only
//! compatibility gate, and it is bumped whenever any layout below changes.
//! Round-trip identity for every message type (including every
//! [`ServeError`] variant) is property-tested, and every frame's bytes are
//! pinned, in `crates/serve/tests/wire_roundtrip.rs`.
//!
//! Two decoding/encoding shapes share the layouts above:
//!
//! * the **blocking** pair ([`read_frame`]/[`write_frame`]), used by the
//!   client, and
//! * the **incremental** pair ([`FrameDecoder`]/[`WriteQueue`]), used by
//!   the epoll event loop: the decoder resumes across arbitrary partial
//!   reads (a frame split anywhere — even mid-length-prefix — decodes
//!   identically to the one-shot path; see
//!   `crates/serve/tests/decoder_resume.rs`), and the write queue encodes
//!   replies *appended* into one pooled per-connection buffer so a
//!   steady-state flush path allocates nothing once warm
//!   (`crates/serve/tests/write_path_alloc.rs`).
//!
//! Layouts. Every payload is `kind u8 · body`, written by one `put_frame`
//! and read by one `decode`, which refuses any other kind and any byte
//! after the body. Each line below is one type's `Wire` impl:
//!
//! ```text
//! HELLO          MAGIC b"TEAL" as u32 · version u16
//! HELLO_OK       version u16
//! REQUEST        id u64 · SubmitRequest
//! REPLY          id u64 · Result<ServeReply, ServeError>
//! STATS          id u64                    (telemetry scrape request)
//! STATS_OK       id u64 · TelemetrySnapshot
//!
//! SubmitRequest  topology Id · deadline Option<Duration>
//!                · tenant Option<Id> (absent = "default" tenant)
//!                · failed links Vec<(usize, usize)> · TrafficMatrix
//! TrafficMatrix  u32 count · f64 demand each, finite and non-negative
//! ServeReply     Allocation · latency Duration
//!                · stages StageTimings (queue_wait, solve, write)
//!                · batch_size usize
//! Allocation     k u16 ≥ 1 · num_demands u32 · f64 split × (nd·k)
//! ServeError     code u8 · message String (empty without one)
//! TelemetrySnapshot and the structs in it
//!                their rows of the metric table in `telemetry.rs`, in
//!                table order — that table is the layout's single source
//! Result<T, E>   tag u8 · T if 0, E if 1
//! Option<T>      flag u8 · T if 1
//! Vec<T>         u32 count · T each
//! (A, B)         A · B
//! Id             String of at most MAX_ID_BYTES
//! String         u32 byte length · UTF-8 bytes
//! Duration       u64 ns, saturating
//! usize          u32
//! u8 … u64, f64  little-endian
//! ```
//!
//! # Guarantee
//!
//! *Guarantees:* decoding any byte string — through any `decode_*`,
//! [`peek_kind`], or a [`FrameDecoder`] fed in any pieces — returns a
//! value or a [`WireError`] without panicking, and one decode holds at
//! most 4× the payload's length in live heap bytes, plus its error message.
//! *Assuming:* the payload came through [`read_frame`] or a
//! [`FrameDecoder`], so it is at most [`MAX_FRAME`] bytes (`frame_len` is
//! the one place a length prefix meets that cap); every `Wire` type takes
//! at least one byte (`Reader::fits` asserts `MIN_BYTES > 0` at compile
//! time), so a claimed element count is held against the bytes left in the
//! frame before anything is allocated for it; and no type is more than 3×
//! wider in memory than its `MIN_BYTES` (`TopoSnapshot`, 352 against 117,
//! is the widest), with one more payload's worth for what its elements own.
//! *Enforced by:* `crates/serve/tests/wire_fuzz.rs` — mutations of every
//! frame kind and arbitrary bytes through every decoder under a metering
//! allocator, with a mutant twin (no count check) that fails it.

use std::io::{self, Read, Write};
use std::time::Duration;
use teal_lp::Allocation;
use teal_traffic::TrafficMatrix;

use crate::request::{ServeError, ServeReply, SubmitRequest};
use crate::telemetry::TelemetrySnapshot;

/// Handshake magic: the first bytes any teal-serve peer sends.
pub const MAGIC: &[u8; 4] = b"TEAL";
/// [`MAGIC`] as the `u32` a HELLO body starts with.
const MAGIC_LE: u32 = u32::from_le_bytes(*MAGIC);
/// Wire protocol version; bump on any layout change.
/// v2: REPLY gained per-stage spans; STATS/STATS_OK scrape frames added.
/// v3: REQUEST gained the flag-gated tenant tag; STATS_OK gained per-budget
/// window counts / budget downgrades, the deadline-inversion counter, and
/// the per-tenant section.
/// v4: STATS_OK gained the unmatched-replies counter.
/// v5: STATS_OK dropped the budgeted-iteration total and the per-budget
/// window counts.
pub const VERSION: u16 = 5;
/// Upper bound on a single frame (guards the length prefix against a
/// corrupt or hostile peer asking us to allocate gigabytes).
pub const MAX_FRAME: u32 = 64 << 20;
/// Longest topology or tenant id a REQUEST may carry. Ids are peer input
/// that outlives the frame (telemetry rows), so they are bounded where
/// they enter.
pub const MAX_ID_BYTES: usize = 256;

/// Message kinds (first payload byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Hello = 1,
    HelloOk = 2,
    Request = 3,
    Reply = 4,
    /// Telemetry scrape request (client → server).
    Stats = 5,
    /// Telemetry snapshot reply (server → client).
    StatsOk = 6,
}

/// A malformed or incompatible frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer sent bytes that do not decode (message named in the text).
    Protocol(String),
    /// Handshake version mismatch.
    Version { got: u16, want: u16 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Protocol(m) => write!(f, "wire protocol error: {m}"),
            WireError::Version { got, want } => {
                write!(
                    f,
                    "wire version mismatch: peer speaks v{got}, we speak v{want}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------- frames

/// A frame's payload length from its little-endian prefix: the one place
/// a length prefix meets [`MAX_FRAME`].
fn frame_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(WireError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    Ok(len as usize)
}

/// Write one frame (length prefix + payload) to `w`. The payload buffer is
/// caller-owned so steady-state senders reuse one encode buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload into `buf` (cleared and reused). Returns
/// `Ok(false)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, WireError> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(WireError::Io(e)),
    }
    let len = frame_len(prefix)?;
    // Grow with the bytes that arrive, not with what the prefix claims:
    // four bytes from a peer must not buy a `MAX_FRAME` zero-fill.
    buf.clear();
    if r.take(len as u64).read_to_end(buf)? < len {
        return Err(WireError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(true)
}

// -------------------------------------------------------------- payloads

/// What a payload body is written from: one borrowed [`Wire`] value, or a
/// pair of them in order (`(&id, reply)`), so no frame copies its body.
trait Body {
    fn put_body(self, buf: &mut Vec<u8>);
}

impl<T: Wire> Body for &T {
    fn put_body(self, buf: &mut Vec<u8>) {
        self.put(buf);
    }
}

impl<A: Body, B: Body> Body for (A, B) {
    fn put_body(self, buf: &mut Vec<u8>) {
        self.0.put_body(buf);
        self.1.put_body(buf);
    }
}

/// Append one payload, `kind · body`, to `buf`.
fn put_frame(buf: &mut Vec<u8>, kind: Kind, body: impl Body) {
    buf.push(kind as u8);
    body.put_body(buf);
}

/// Read a `kind` payload whose body is one `T`, refusing any other kind
/// and any byte after the body.
fn decode<T: Wire>(payload: &[u8], kind: Kind) -> Result<T, WireError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    if u8::get(&mut r)? != kind as u8 {
        return Err(WireError::Protocol(format!("expected {kind:?}")));
    }
    let body = T::get(&mut r)?;
    match payload.len() - r.pos {
        0 => Ok(body),
        n => Err(WireError::Protocol(format!(
            "{n} trailing bytes after message"
        ))),
    }
}

/// The version gate both halves of the handshake pass.
fn gate(version: u16) -> Result<u16, WireError> {
    match version {
        VERSION => Ok(version),
        got => Err(WireError::Version { got, want: VERSION }),
    }
}

/// Encode the client half of the handshake.
pub fn encode_hello(buf: &mut Vec<u8>) {
    buf.clear();
    put_frame(buf, Kind::Hello, &(MAGIC_LE, VERSION));
}

/// Encode the server half of the handshake.
pub fn encode_hello_ok(buf: &mut Vec<u8>) {
    buf.clear();
    put_frame(buf, Kind::HelloOk, &VERSION);
}

/// Encode one request under the caller-chosen pipelining id.
pub fn encode_request(buf: &mut Vec<u8>, id: u64, req: &SubmitRequest) {
    buf.clear();
    put_frame(buf, Kind::Request, (&id, req));
}

/// Encode one reply (success or typed error) under its request id.
pub fn encode_reply(buf: &mut Vec<u8>, id: u64, reply: &Result<ServeReply, ServeError>) {
    buf.clear();
    put_frame(buf, Kind::Reply, (&id, reply));
}

/// Encode a telemetry scrape request under the caller-chosen pipelining id
/// (STATS frames share the reply id space with REQUEST frames).
pub fn encode_stats_request(buf: &mut Vec<u8>, id: u64) {
    buf.clear();
    put_frame(buf, Kind::Stats, &id);
}

/// Encode a full telemetry snapshot as the reply to scrape `id`.
pub fn encode_stats_reply(buf: &mut Vec<u8>, id: u64, snap: &TelemetrySnapshot) {
    buf.clear();
    put_frame(buf, Kind::StatsOk, (&id, snap));
}

/// The message kind of a payload (its first byte).
pub fn peek_kind(payload: &[u8]) -> Result<Kind, WireError> {
    use Kind::*;
    let &byte = payload
        .first()
        .ok_or_else(|| WireError::Protocol("empty frame".into()))?;
    [Hello, HelloOk, Request, Reply, Stats, StatsOk]
        .into_iter()
        .find(|&kind| kind as u8 == byte)
        .ok_or_else(|| WireError::Protocol(format!("unknown message kind {byte}")))
}

/// Validate a HELLO payload, returning the peer's version.
pub fn decode_hello(payload: &[u8]) -> Result<u16, WireError> {
    let (magic, version) = decode::<(u32, u16)>(payload, Kind::Hello)?;
    if magic != MAGIC_LE {
        return Err(WireError::Protocol("bad handshake magic".into()));
    }
    gate(version)
}

/// Validate a HELLO_OK payload, returning the server's version.
pub fn decode_hello_ok(payload: &[u8]) -> Result<u16, WireError> {
    gate(decode(payload, Kind::HelloOk)?)
}

/// Decode a REQUEST payload into `(id, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, SubmitRequest), WireError> {
    decode(payload, Kind::Request)
}

/// Decode a REPLY payload into `(id, result)`.
#[allow(clippy::type_complexity)]
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Result<ServeReply, ServeError>), WireError> {
    decode(payload, Kind::Reply)
}

/// Decode a STATS payload into the scrape id.
pub fn decode_stats_request(payload: &[u8]) -> Result<u64, WireError> {
    decode(payload, Kind::Stats)
}

/// Decode a STATS_OK payload into `(id, snapshot)`.
pub fn decode_stats_reply(payload: &[u8]) -> Result<(u64, TelemetrySnapshot), WireError> {
    decode(payload, Kind::StatsOk)
}

// ----------------------------------------------------------------- codec

/// Cursor over a frame payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WireError::Protocol(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// A [`String`] refused past `max` bytes before any of it is copied.
    fn str_up_to(&mut self, max: usize) -> Result<String, WireError> {
        let n = u32::get(self)? as usize;
        if n > max {
            return Err(WireError::Protocol(format!(
                "string of {n} bytes exceeds the {max}-byte limit"
            )));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| WireError::Protocol("string is not UTF-8".into()))
    }

    /// `n` values of `T`. The count is held against the bytes actually
    /// left in the frame *before* `Vec::with_capacity` — a hostile count
    /// field must be a protocol error, never a multi-gigabyte allocation
    /// request (which would abort the process on failure). A `collect()`
    /// over the fallible reads would lose the size hint.
    fn items<T: Wire>(&mut self, n: usize) -> Result<Vec<T>, WireError> {
        self.fits::<T>(n)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(self)?);
        }
        Ok(out)
    }

    /// Refuse a count of `T`s that the bytes left in the frame cannot hold.
    fn fits<T: Wire>(&self, n: usize) -> Result<(), WireError> {
        const { assert!(T::MIN_BYTES > 0, "a zero-byte type admits any count") };
        let have = self.buf.len() - self.pos;
        if n.checked_mul(T::MIN_BYTES).is_none_or(|need| need > have) {
            return Err(WireError::Protocol(format!(
                "{} count {n} exceeds the {have} bytes remaining in the frame",
                std::any::type_name::<T>()
            )));
        }
        Ok(())
    }
}

/// Fixed-layout encoding of one value inside a frame: every payload body
/// is one of these. A table struct's impl (`telemetry.rs`) is generated
/// from its rows.
pub(crate) trait Wire: Sized {
    /// Fewest bytes one value can occupy — what `Reader::fits` holds a
    /// claimed element count against before allocating for it. Never 0.
    const MIN_BYTES: usize;
    /// Append the encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Decode one value at the cursor.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Little-endian scalars, as-is.
macro_rules! wire_le {
    ($($t:ident)*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let mut bytes = [0u8; std::mem::size_of::<$t>()];
                bytes.copy_from_slice(r.take(Self::MIN_BYTES)?);
                Ok($t::from_le_bytes(bytes))
            }
        }
    )*};
}
wire_le!(u8 u16 u32 u64 f64);

/// Counts (batch sizes, node ids) travel as `u32`; a table row widens
/// with `as u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u32).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u32::get(r)? as usize)
    }
}

/// `u64` nanoseconds, saturating.
impl Wire for Duration {
    const MIN_BYTES: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.as_nanos().min(u128::from(u64::MAX)) as u64).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Duration::from_nanos(u64::get(r)?))
    }
}

/// `u32` byte length, then UTF-8 (bounded by the bytes left in the frame).
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str_up_to(usize::MAX)
    }
}

/// A topology or tenant id: a [`String`] of at most [`MAX_ID_BYTES`].
struct Id(String);

impl Wire for Id {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str_up_to(MAX_ID_BYTES).map(Id)
    }
}

/// Both halves in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// `u8` flag, then the value if the flag is 1.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(self.is_some()).put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            f => Err(WireError::Protocol(format!("bad option flag {f}"))),
        }
    }
}

/// `u8` tag, then the `Ok` value if the tag is 0 or the `Err` if it is 1.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(self.is_err()).put(buf);
        match self {
            Ok(v) => v.put(buf),
            Err(e) => e.put(buf),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(Ok(T::get(r)?)),
            1 => Ok(Err(E::get(r)?)),
            t => Err(WireError::Protocol(format!("bad result tag {t}"))),
        }
    }
}

/// `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        r.items(n)
    }
}

/// The demands as a `Vec<f64>`, every one finite and non-negative.
impl Wire for TrafficMatrix {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self.demands() {
            v.put(buf);
        }
    }
    /// Checks the frame's own words, then decodes them once, straight into
    /// the matrix's shared buffer.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        r.fits::<f64>(n)?;
        let words: &[[u8; 8]] = r.take(8 * n)?.as_chunks().0;
        let demands = || words.iter().map(|w| f64::from_le_bytes(*w));
        // The matrix asserts this; a peer's bytes must fail the frame, not
        // unwind the event loop every connection shares.
        match demands().find(|d| !(d.is_finite() && *d >= 0.0)) {
            Some(d) => Err(WireError::Protocol(format!(
                "demand {d} is not finite and non-negative"
            ))),
            None => Ok(demands().collect()),
        }
    }
}

/// `k u16 · num_demands u32`, then the `nd·k` splits; `k = 0` and an
/// `nd·k` that overflows are refused.
impl Wire for Allocation {
    const MIN_BYTES: usize = 6;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.k() as u16).put(buf);
        (self.num_demands() as u32).put(buf);
        for v in self.splits() {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (k, nd) = <(u16, u32)>::get(r)?;
        if k == 0 {
            return Err(WireError::Protocol("reply with k = 0 paths".into()));
        }
        let n = (nd as usize)
            .checked_mul(usize::from(k))
            .ok_or_else(|| WireError::Protocol("split count overflow".into()))?;
        Ok(Allocation::from_splits(usize::from(k), r.items(n)?))
    }
}

/// Topology id, deadline, tenant id, failed links, matrix.
impl Wire for SubmitRequest {
    const MIN_BYTES: usize = Id::MIN_BYTES + 1 + 1 + 4 + TrafficMatrix::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        // The ids write as the `Id`s they decode into.
        self.topology.put(buf);
        self.deadline.put(buf);
        self.tenant.put(buf);
        self.failed_links.put(buf);
        self.tm.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SubmitRequest {
            topology: Id::get(r)?.0,
            deadline: Wire::get(r)?,
            tenant: Option::<Id>::get(r)?.map(|id| id.0),
            failed_links: Wire::get(r)?,
            tm: Wire::get(r)?,
        })
    }
}

/// Allocation, latency, stage spans, batch size.
impl Wire for ServeReply {
    const MIN_BYTES: usize = Allocation::MIN_BYTES + 8 + 3 * 8 + 4;
    fn put(&self, buf: &mut Vec<u8>) {
        self.allocation.put(buf);
        self.latency.put(buf);
        self.stages.put(buf);
        self.batch_size.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ServeReply {
            allocation: Wire::get(r)?,
            latency: Wire::get(r)?,
            stages: Wire::get(r)?,
            batch_size: Wire::get(r)?,
        })
    }
}

/// `u8` code, then the message (empty for a variant without one): one
/// code table for both directions.
macro_rules! error_codes {
    ($($code:literal => $variant:ident $(($msg:ident))?,)*) => {
        impl Wire for ServeError {
            const MIN_BYTES: usize = 1 + String::MIN_BYTES;
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(ServeError::$variant $(($msg))? => {
                        u8::put(&$code, buf);
                        error_codes!(@message buf $($msg)?);
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let (code, message) = <(u8, String)>::get(r)?;
                Ok(match code {
                    $($code => {
                        $(let $msg = message;)?
                        ServeError::$variant $(($msg))?
                    })*
                    c => return Err(WireError::Protocol(format!("unknown error code {c}"))),
                })
            }
        }
    };
    (@message $buf:ident $msg:ident) => { $msg.put($buf) };
    (@message $buf:ident) => { String::new().put($buf) };
}

error_codes! {
    0 => UnknownTopology(m),
    1 => ShuttingDown,
    2 => Checkpoint(m),
    3 => BadRequest(m),
    4 => Internal(m),
    5 => DeadlineExceeded,
    6 => Overloaded(m),
}

// ---------------------------------------------- incremental (event loop)

/// Incremental frame decoder for nonblocking readers: feed whatever bytes
/// the socket produced, then pull complete frame payloads as they
/// materialize. A frame split at *any* byte boundary — including inside
/// the 4-byte length prefix — decodes identically to [`read_frame`]'s
/// one-shot path.
///
/// The [`MAX_FRAME`] guard fires as soon as a hostile length prefix
/// becomes visible, **before** any buffer growth driven by it: the decoder
/// only ever buffers bytes the peer actually sent, never
/// `with_capacity(attacker_len)`.
#[derive(Default)]
pub struct FrameDecoder {
    /// Raw received bytes not yet returned as frames: `pending[pos..]` is
    /// live, `pending[..pos]` is consumed and reclaimed by compaction.
    pending: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// The payload length of the frame at the parse cursor once its whole
    /// prefix is visible — an error as soon as that prefix is hostile.
    fn peek_len(&self) -> Result<Option<usize>, WireError> {
        let prefix = self.pending.get(self.pos..self.pos + 4);
        prefix
            .and_then(|p| p.try_into().ok())
            .map(frame_len)
            .transpose()
    }

    /// Buffer `bytes` as received from the socket. Errors as soon as the
    /// current frame's length prefix is visible and exceeds [`MAX_FRAME`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.peek_len()?;
        // Compact before growing: once the consumed prefix dominates the
        // buffer (or everything is consumed), reclaim it in place so a
        // long-lived connection's buffer stays at its high-water mark
        // instead of growing without bound.
        if self.pos == self.pending.len() {
            self.pending.clear();
            self.pos = 0;
        } else if self.pos >= (64 << 10) && self.pos * 2 >= self.pending.len() {
            self.pending.drain(..self.pos);
            self.pos = 0;
        }
        self.pending.extend_from_slice(bytes);
        self.peek_len().map(drop)
    }

    /// The next complete frame payload, or `None` until more bytes arrive.
    /// The returned slice is valid until the next `feed`/`next_frame`
    /// call.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(len) = self.peek_len()? else {
            return Ok(None);
        };
        let start = self.pos + 4;
        if self.pending.len() < start + len {
            return Ok(None);
        }
        self.pos = start + len;
        Ok(Some(&self.pending[start..start + len]))
    }

    /// Bytes buffered but not yet returned as a complete frame (a clean
    /// EOF with `residue() > 0` means the peer died mid-frame).
    pub fn residue(&self) -> usize {
        self.pending.len() - self.pos
    }
}

/// Per-connection pooled write queue for the event loop: replies are
/// encoded **appended** onto one persistent buffer (each frame's length
/// prefix is reserved up front and patched after the body lands), and
/// [`WriteQueue::flush`] pushes as much backlog as the socket will take in
/// one `writev`-style burst, tracking a head cursor across
/// `EWOULDBLOCK` partial writes so frames are never corrupted, reordered
/// or resent.
///
/// Fully-drained flushes rewind the buffer (`clear` keeps capacity), and a
/// persistent backlog is compacted in place, so the steady-state
/// encode/flush path performs **zero heap allocations** once the buffer
/// has grown to its high-water mark (`tests/write_path_alloc.rs` proves
/// this under a counting allocator).
#[derive(Default)]
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    head: usize,
}

impl WriteQueue {
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// No bytes are waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Queue one frame: reserve its length prefix, append the payload,
    /// then patch the prefix with the payload's length.
    fn push(&mut self, kind: Kind, body: impl Body) {
        if self.head >= (64 << 10) && self.head * 2 >= self.buf.len() {
            // A slow reader left a persistent backlog (a drained queue
            // was already rewound by `flush`): compact in place (memmove,
            // no allocation) once the dead prefix dominates.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        put_frame(&mut self.buf, kind, body);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Queue the server half of the handshake.
    pub fn push_hello_ok(&mut self) {
        self.push(Kind::HelloOk, &VERSION);
    }

    /// Queue one REPLY frame.
    pub fn push_reply(&mut self, id: u64, reply: &Result<ServeReply, ServeError>) {
        self.push(Kind::Reply, (&id, reply));
    }

    /// Queue one STATS_OK frame.
    pub fn push_stats_reply(&mut self, id: u64, snap: &TelemetrySnapshot) {
        self.push(Kind::StatsOk, (&id, snap));
    }

    /// Write backlog through `write` (typically `|b| stream.write(b)`)
    /// until drained or the socket pushes back. Returns `Ok(true)` once
    /// the queue is empty, `Ok(false)` on `EWOULDBLOCK` (re-arm `EPOLLOUT`
    /// and retry on writability). The head cursor means a partial write
    /// resumes mid-frame exactly where the socket stopped.
    pub fn flush(&mut self, mut write: impl FnMut(&[u8]) -> io::Result<usize>) -> io::Result<bool> {
        while self.head < self.buf.len() {
            match write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.head = 0;
        Ok(true)
    }

    /// Drop all queued bytes (dead socket: stop encoding for it).
    pub fn abandon(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}
