//! The wire protocol: length-prefixed binary frames.
//!
//! ```text
//! request  = [len: u32 BE] [id: u64 BE] [verb: u8]   [payload: len-9 bytes]
//! response = [len: u32 BE] [id: u64 BE] [status: u8] [payload: len-9 bytes]
//! ```
//!
//! `len` counts everything after the length word (so the minimum legal
//! value is [`HEADER_LEN`] and the maximum [`MAX_FRAME`]). Payloads are
//! UTF-8 text. There are five verbs:
//!
//! * `QUERY <db> \n <query>` — the local answer only (level 0)
//! * `AUGMENT <db> \n <level> \n <query>` — full augmented search
//! * `COMMAND <line>` — one line of the command surface ([`crate::cli`]:
//!   `SEARCH … :: <filter>`, `EXPLAIN`, `EXPLORE` / `PICK`, `STATS`, …),
//!   answered with the text the shell would print
//! * `METRICS [JSON]` and `CHECKPOINT` — aliases, kept byte-compatible,
//!   of the `COMMAND` lines of the same name
//!
//! `QUERY` / `AUGMENT` answer payloads are the [`AnswerNormalForm`]
//! rendering — deterministic and order-independent, so a response can be
//! compared bit-for-bit against an in-process run of the same query —
//! and may be pipelined; `COMMAND` frames of one connection run in
//! arrival order.
//!
//! Framing errors split into two classes the server handles differently:
//! a frame whose *length word* is out of range leaves the stream
//! unsynchronized (nothing after it can be trusted), while a frame that
//! decodes far enough to carry a request id can be answered with a
//! structured `ERROR` and the connection kept.
//!
//! [`AnswerNormalForm`]: quepa_core::AnswerNormalForm

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Bytes of `[id][verb-or-status]` — the fixed part counted by `len`.
pub const HEADER_LEN: usize = 9;

/// Upper bound on `len`, in both directions: a reader rejects a longer
/// frame as unsynchronisable, so the server answers a request whose
/// response would not fit with a structured `ERROR` instead.
pub const MAX_FRAME: usize = 1 << 20;

/// Request verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// Local answer only (augmentation level 0).
    Query = 1,
    /// Full augmented search at an explicit level.
    Augment = 2,
    /// Alias of `COMMAND METRICS <payload>` (`""` → Prometheus text,
    /// `"JSON"` → JSON).
    Metrics = 3,
    /// Alias of `COMMAND CHECKPOINT`: force a durable checkpoint cut.
    Checkpoint = 4,
    /// One command line (see [`crate::cli::HELP`]), answered as text.
    Command = 5,
}

impl Verb {
    /// Decodes a verb byte.
    pub fn from_byte(byte: u8) -> Option<Verb> {
        match byte {
            1 => Some(Verb::Query),
            2 => Some(Verb::Augment),
            3 => Some(Verb::Metrics),
            4 => Some(Verb::Checkpoint),
            5 => Some(Verb::Command),
            _ => None,
        }
    }
}

/// Response statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Full answer.
    Ok = 0,
    /// Admission control clamped the request to a partial (level-0)
    /// answer — exact but unaugmented, the `DegradeMode::Partial` shape.
    Degraded = 1,
    /// The request was understood but failed (or could not be decoded
    /// far enough to execute); payload is the error text.
    Error = 2,
    /// Admission control shed the request without executing it.
    Overload = 3,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_byte(byte: u8) -> Option<Status> {
        match byte {
            0 => Some(Status::Ok),
            1 => Some(Status::Degraded),
            2 => Some(Status::Error),
            3 => Some(Status::Overload),
            _ => None,
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// What to do.
    pub verb: Verb,
    /// UTF-8 payload (shape depends on the verb).
    pub payload: String,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers (0 for errors on undecodable frames).
    pub id: u64,
    /// Outcome class.
    pub status: Status,
    /// UTF-8 payload (answer text, metrics export, or error message).
    pub payload: String,
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length word is below [`HEADER_LEN`] or above [`MAX_FRAME`];
    /// the stream is unsynchronized and must be closed.
    BadLength(usize),
    /// The body decoded far enough to carry `id`, but the verb byte is
    /// unknown — answerable with a structured error.
    UnknownVerb { id: u64, byte: u8 },
    /// The body decoded far enough to carry `id`, but the payload is not
    /// UTF-8 — answerable with a structured error.
    BadPayload { id: u64 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadLength(len) => {
                write!(f, "frame length {len} outside [{HEADER_LEN}, {MAX_FRAME}]")
            }
            FrameError::UnknownVerb { byte, .. } => write!(f, "unknown verb byte {byte}"),
            FrameError::BadPayload { .. } => write!(f, "payload is not UTF-8"),
        }
    }
}

impl FrameError {
    /// The request id to answer with, when the frame decoded that far.
    /// `None` means the stream is unsynchronized.
    pub fn answerable_id(&self) -> Option<u64> {
        match self {
            FrameError::BadLength(_) => None,
            FrameError::UnknownVerb { id, .. } | FrameError::BadPayload { id } => Some(*id),
        }
    }
}

fn encode_frame(id: u64, tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(HEADER_LEN + payload.len())
        .expect("a frame's length word is a u32; the server bounds responses by MAX_FRAME");
    let mut out = Vec::with_capacity(4 + HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&id.to_be_bytes());
    out.push(tag);
    out.extend_from_slice(payload);
    out
}

/// Encodes a request frame (length word included).
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode_frame(request.id, request.verb as u8, request.payload.as_bytes())
}

/// Encodes a response frame (length word included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    encode_frame(response.id, response.status as u8, response.payload.as_bytes())
}

/// Decodes a request body (the bytes *after* the length word).
pub fn decode_request(body: &[u8]) -> Result<Request, FrameError> {
    if body.len() < HEADER_LEN {
        return Err(FrameError::BadLength(body.len()));
    }
    let id = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
    let verb = Verb::from_byte(body[8]).ok_or(FrameError::UnknownVerb { id, byte: body[8] })?;
    let payload = std::str::from_utf8(&body[HEADER_LEN..])
        .map_err(|_| FrameError::BadPayload { id })?
        .to_owned();
    Ok(Request { id, verb, payload })
}

/// Decodes a response body (the bytes *after* the length word).
pub fn decode_response(body: &[u8]) -> Result<Response, FrameError> {
    if body.len() < HEADER_LEN {
        return Err(FrameError::BadLength(body.len()));
    }
    let id = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
    let status = Status::from_byte(body[8]).ok_or(FrameError::UnknownVerb { id, byte: body[8] })?;
    let payload = std::str::from_utf8(&body[HEADER_LEN..])
        .map_err(|_| FrameError::BadPayload { id })?
        .to_owned();
    Ok(Response { id, status, payload })
}

/// Reads one frame body from `reader`. `Ok(None)` is a clean EOF at a
/// frame boundary; EOF *inside* a frame is an error (truncated frame).
/// A length word outside `[HEADER_LEN, MAX_FRAME]` is reported without
/// consuming the body — the stream is unsynchronized past that point.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if !(HEADER_LEN..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::BadLength(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one already-encoded frame.
pub fn write_frame(writer: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

/// Sets the socket options of a stream that carries frames — the one
/// place they are set, for the accept loop, [`Client::connect`] and the
/// load generators alike. A frame is written whole and is complete the
/// moment it is written, so nothing is gained by letting the kernel hold
/// it back to coalesce it with a later write: under Nagle's algorithm a
/// frame smaller than one segment waits for the peer's ACK of the frame
/// before it, and on a pipelined connection that ACK rides on the peer's
/// *next* frame — a response is then delayed by the client's
/// inter-arrival time and a request by the server's service time.
/// `TCP_NODELAY` turns that off.
///
/// [`Client::connect`]: crate::client::Client::connect
pub fn configure_stream(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Builds an `AUGMENT` payload: `database \n level \n query`.
pub fn augment_payload(database: &str, level: usize, query: &str) -> String {
    format!("{database}\n{level}\n{query}")
}

/// Builds a `QUERY` payload: `database \n query`.
pub fn query_payload(database: &str, query: &str) -> String {
    format!("{database}\n{query}")
}

/// Parses an `AUGMENT` payload back into `(database, level, query)`.
pub fn parse_augment_payload(payload: &str) -> Result<(&str, usize, &str), String> {
    let (database, rest) =
        payload.split_once('\n').ok_or("AUGMENT payload needs database\\nlevel\\nquery")?;
    let (level, query) =
        rest.split_once('\n').ok_or("AUGMENT payload needs database\\nlevel\\nquery")?;
    let level: usize = level.trim().parse().map_err(|e| format!("bad level: {e}"))?;
    Ok((database, level, query))
}

/// Parses a `QUERY` payload back into `(database, query)`.
pub fn parse_query_payload(payload: &str) -> Result<(&str, &str), String> {
    payload.split_once('\n').ok_or_else(|| "QUERY payload needs database\\nquery".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for verb in [Verb::Query, Verb::Augment, Verb::Metrics, Verb::Checkpoint, Verb::Command] {
            let request = Request {
                id: 0xdead_beef_cafe,
                verb,
                payload: augment_payload("transactions", 1, "SELECT * FROM x"),
            };
            let frame = encode_request(&request);
            let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - 4);
            assert_eq!(decode_request(&frame[4..]).unwrap(), request);
        }
    }

    #[test]
    fn response_round_trips() {
        for status in [Status::Ok, Status::Degraded, Status::Error, Status::Overload] {
            let response = Response { id: 7, status, payload: "answer text".to_owned() };
            let frame = encode_response(&response);
            assert_eq!(decode_response(&frame[4..]).unwrap(), response);
        }
    }

    #[test]
    fn read_frame_enforces_bounds_and_eof() {
        // Clean EOF at a boundary.
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).unwrap(), None);
        // Truncated length word → clean EOF is *not* reported.
        let mut short: &[u8] = &[0, 0];
        assert_eq!(read_frame(&mut short).unwrap(), None);
        // Truncated body.
        let mut torn: &[u8] = &[0, 0, 0, 9, 1, 2];
        assert_eq!(read_frame(&mut torn).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // Oversized length word.
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut bad: &[u8] = &huge;
        assert_eq!(read_frame(&mut bad).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // Undersized length word (below the fixed header).
        let tiny = [0u8, 0, 0, 4, 9, 9, 9, 9];
        let mut bad: &[u8] = &tiny;
        assert_eq!(read_frame(&mut bad).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A well-formed frame reads back exactly.
        let frame = encode_request(&Request { id: 1, verb: Verb::Metrics, payload: "".into() });
        let mut cursor: &[u8] = &frame;
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), frame[4..].to_vec());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn decode_classifies_answerable_errors() {
        // Unknown verb: carries the id, answerable.
        let mut body = 42u64.to_be_bytes().to_vec();
        body.push(99);
        let err = decode_request(&body).unwrap_err();
        assert_eq!(err, FrameError::UnknownVerb { id: 42, byte: 99 });
        assert_eq!(err.answerable_id(), Some(42));
        // Bad UTF-8: carries the id, answerable.
        let mut body = 43u64.to_be_bytes().to_vec();
        body.push(Verb::Query as u8);
        body.extend_from_slice(&[0xff, 0xfe]);
        let err = decode_request(&body).unwrap_err();
        assert_eq!(err, FrameError::BadPayload { id: 43 });
        assert_eq!(err.answerable_id(), Some(43));
        // Too short for a header: unsynchronized.
        assert_eq!(decode_request(&[1, 2, 3]).unwrap_err().answerable_id(), None);
    }

    #[test]
    fn payload_builders_round_trip() {
        let p = augment_payload("transactions", 2, "SELECT *\nFROM t");
        // The query may itself contain newlines; only the first two split.
        assert_eq!(parse_augment_payload(&p).unwrap(), ("transactions", 2, "SELECT *\nFROM t"));
        let p = query_payload("catalogue", "q");
        assert_eq!(parse_query_payload(&p).unwrap(), ("catalogue", "q"));
        assert!(parse_augment_payload("no-newlines").is_err());
        assert!(parse_augment_payload("db\nnot-a-number\nq").is_err());
        assert!(parse_query_payload("no-newlines").is_err());
    }
}
