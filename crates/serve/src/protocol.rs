//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message — request or response — is one *frame*: a big-endian
//! `u32` byte count followed by exactly that many bytes of UTF-8 JSON,
//! laid out by [`Json::pretty`]. Length-prefixing keeps the reader
//! trivial (no streaming JSON tokenizer, no delimiter escaping) and lets
//! the server reject an oversized request *before* buffering it.
//!
//! A frame goes out in a single write, and both ends set `TCP_NODELAY`.
//! Sending the prefix and the payload as two small writes would leave the
//! payload queued behind Nagle's algorithm until the peer's delayed ACK
//! (~40 ms) — on every message, in each direction.
//!
//! Requests are JSON objects with an `"op"` field (`ping`, `stats`,
//! `compile`, `cycles`, `explore`); responses are envelopes:
//!
//! ```text
//! {"ok": true,  "result": { ... op-specific payload ... }}
//! {"ok": false, "error": {"kind": "...", "message": "...", "stage": "..."}}
//! ```
//!
//! Error kinds are closed-set strings: `protocol` (malformed frame or
//! request), `budget` (a per-request limit was exceeded), `compile`
//! (any pipeline stage failed; `stage` names it), `sim` (the simulator
//! trapped or ran out of fuel; `stage` carries the structured
//! [`matic::SimErrorKind`]).

use matic_isa::json::{parse, Json};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's payload, independent of any server budget:
/// a length prefix above this is treated as a protocol error rather than
/// an allocation request.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Reads one frame and parses its JSON payload.
///
/// # Errors
///
/// Returns an error for I/O failures (including EOF mid-frame), a length
/// prefix above `limit` or [`MAX_FRAME_BYTES`], or a payload that is not
/// valid JSON. A clean EOF *before* any prefix byte surfaces as
/// [`io::ErrorKind::UnexpectedEof`] — connection loops treat that as the
/// peer hanging up.
pub fn read_frame(r: &mut impl Read, limit: u32) -> io::Result<Json> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix);
    if len > limit.min(MAX_FRAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {limit}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON: {e}")))
}

/// Writes one frame (length prefix, then [`Json::pretty`] text) with a
/// single `write_all` and flushes.
///
/// # Errors
///
/// Propagates I/O failures; refuses to write a frame above
/// [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    let text = doc.pretty();
    let len = u32::try_from(text.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large to send"))?;
    let mut frame = Vec::with_capacity(4 + text.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(text.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Builds an object value from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A `{"ok": true, "result": ...}` success envelope.
pub fn ok(result: Json) -> Json {
    obj(vec![("ok", Json::Bool(true)), ("result", result)])
}

/// A `{"ok": false, "error": ...}` failure envelope. `stage` is the
/// pipeline stage for `compile` errors and the structured error kind for
/// `sim` errors; pass `None` when there is no finer classification.
pub fn err(kind: &str, message: &str, stage: Option<&str>) -> Json {
    let mut e = vec![
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("message".to_string(), Json::Str(message.to_string())),
    ];
    if let Some(s) = stage {
        e.push(("stage".to_string(), Json::Str(s.to_string())));
    }
    obj(vec![("ok", Json::Bool(false)), ("error", Json::Obj(e))])
}

/// Extracts a required string field from a request object.
///
/// # Errors
///
/// Returns a protocol-error message naming the field.
pub fn need_str<'a>(req: &'a Json, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request is missing string field `{key}`"))
}

/// Extracts an optional string field (`None` when absent or null).
///
/// # Errors
///
/// Returns a protocol-error message when present with a non-string type.
pub fn opt_str<'a>(req: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

/// Extracts an optional unsigned integer field.
///
/// # Errors
///
/// Returns a protocol-error message when present with a non-integer type.
pub fn opt_u64(req: &Json, key: &str) -> Result<Option<u64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

/// Extracts an optional boolean field.
///
/// # Errors
///
/// Returns a protocol-error message when present with a non-boolean type.
pub fn opt_bool(req: &Json, key: &str) -> Result<Option<bool>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let doc = obj(vec![
            ("op", Json::Str("ping".into())),
            ("n", Json::Num(3.0)),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).expect("write");
        let back = read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES).expect("read");
        assert_eq!(back, doc);
    }

    /// Counts `write` calls and keeps what they wrote.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_prefix_and_pretty_payload() {
        let doc = obj(vec![
            ("op", Json::Str("compile".into())),
            ("source", Json::Str("x".repeat(100_000))),
        ]);
        let mut w = CountingWriter::default();
        write_frame(&mut w, &doc).expect("write");
        assert_eq!(w.writes, 1);
        let text = doc.pretty();
        assert_eq!(w.bytes[..4], (text.len() as u32).to_be_bytes());
        assert_eq!(&w.bytes[4..], text.as_bytes());
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let e = read_frame(&mut buf.as_slice(), 1024).expect_err("must reject");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_eof_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"{\"a\"");
        let e = read_frame(&mut buf.as_slice(), 1024).expect_err("must reject");
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn invalid_json_payload_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        let e = read_frame(&mut buf.as_slice(), 1024).expect_err("must reject");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }
}
