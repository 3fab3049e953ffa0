//! The JSONL request protocol.
//!
//! One request per line, one JSON object per request. Every request
//! carries a client-supplied `id` (echoed on every response and event it
//! causes) and a virtual timestamp `at` (seconds; replay mode executes all
//! scheduling rounds due strictly before it). The command set:
//!
//! ```text
//! {"id":"r1","cmd":"submit","at":0,"tenant":"acme","gpu_hours":40,"job":{...}}
//! {"id":"r2","cmd":"cancel","at":120,"job":3}
//! {"id":"r3","cmd":"query","at":120,"job":3}      // or no "job": service stats
//! {"id":"r4","cmd":"snapshot","at":300,"path":"state.snap"}
//! {"id":"r5","cmd":"shutdown"}
//! ```
//!
//! The `job` object of `submit` is a full [`JobSpec`] in the same JSON
//! shape the workload tools emit (`sia-cli trace-to-stream` converts a
//! static trace file into such a stream). `gpu_hours` is the quota charge
//! the tenant pays on admission (refunded in full on cancellation);
//! omitted, it defaults to zero.
//!
//! Lines are read as bytes: a line longer than [`MAX_LINE_BYTES`] is
//! answered with a `line-too-long` error and one that is not UTF-8 with a
//! `bad-utf8` error, both shaped like the error for malformed JSON, and
//! the daemon reads on.

use std::io::{BufRead, Read};

use serde_json::{FromJson, Value};
use sia_workloads::JobSpec;

/// The longest request line the daemon reads, in bytes, up to but
/// excluding its `\n`.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One line read off the request stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RequestLine {
    /// A UTF-8 line, its `\n` or `\r\n` terminator removed.
    Text(String),
    /// A line refused before parsing, with the typed reason to answer it
    /// with (`line-too-long: …` or `bad-utf8: …`).
    Refused(String),
}

/// Splits a byte stream into [`RequestLine`]s. It holds at most
/// [`MAX_LINE_BYTES`] (plus one) bytes of a line in memory: the rest of an
/// over-long line is consumed and discarded as it arrives.
#[derive(Debug)]
pub(crate) struct RequestLines<R> {
    input: R,
    buf: Vec<u8>,
}

impl<R: BufRead> RequestLines<R> {
    /// Reads request lines from `input`.
    pub(crate) fn new(input: R) -> Self {
        RequestLines {
            input,
            buf: Vec::new(),
        }
    }

    /// The next line, `None` at end of input.
    fn read_line(&mut self) -> std::io::Result<Option<RequestLine>> {
        self.buf.clear();
        // One byte past the cap: room for the newline, or proof of excess.
        let limit = MAX_LINE_BYTES as u64 + 1;
        let read = (&mut self.input)
            .take(limit)
            .read_until(b'\n', &mut self.buf)?;
        if read == 0 {
            return Ok(None);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        } else if self.buf.len() > MAX_LINE_BYTES {
            self.input.skip_until(b'\n')?;
            return Ok(Some(RequestLine::Refused(format!(
                "line-too-long: request line exceeds {MAX_LINE_BYTES} bytes"
            ))));
        }
        Ok(Some(match std::str::from_utf8(&self.buf) {
            Ok(text) => RequestLine::Text(text.to_string()),
            Err(e) => RequestLine::Refused(format!("bad-utf8: request line is not UTF-8: {e}")),
        }))
    }
}

impl<R: BufRead> Iterator for RequestLines<R> {
    type Item = std::io::Result<RequestLine>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_line().transpose()
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-supplied request id, echoed on responses and caused events.
    pub id: String,
    /// Virtual timestamp, seconds. Defaults to 0 (i.e. "now" — the daemon
    /// never rewinds time).
    pub at: f64,
    /// The command to execute.
    pub cmd: Command,
}

/// The command carried by a [`Request`].
#[derive(Debug, Clone)]
pub enum Command {
    /// Submit a job for admission on behalf of `tenant`, charging
    /// `gpu_hours` against its quota.
    Submit {
        /// Tenant the job belongs to (quota accounting key).
        tenant: String,
        /// GPU-hours charged against the tenant's quota on admission.
        gpu_hours: f64,
        /// The job to admit.
        job: Box<JobSpec>,
    },
    /// Cancel a job by id (pending or running).
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Query one job's status, or overall service stats when `job` is
    /// `None`.
    Query {
        /// Job id to query, if any.
        job: Option<u64>,
    },
    /// Write a snapshot of the full daemon state to `path`.
    Snapshot {
        /// Destination file path.
        path: String,
    },
    /// Drain the cluster (run every admitted job to completion) and exit
    /// cleanly.
    Shutdown,
    /// Render the metrics registry in Prometheus text exposition format.
    /// Read-only: executes no scheduling rounds and ignores `at`.
    Metrics,
    /// Report ready/live health. Read-only, like [`Command::Metrics`].
    Health,
}

impl Command {
    /// Stable lowercase label of the command kind.
    pub fn label(&self) -> &'static str {
        match self {
            Command::Submit { .. } => "submit",
            Command::Cancel { .. } => "cancel",
            Command::Query { .. } => "query",
            Command::Snapshot { .. } => "snapshot",
            Command::Shutdown => "shutdown",
            Command::Metrics => "metrics",
            Command::Health => "health",
        }
    }
}

/// Parses one request line. Returns `(request id if recoverable, error)`
/// on malformed input so the server can still address its error response.
pub fn parse_request(line: &str) -> Result<Request, (Option<String>, String)> {
    let v: Value = serde_json::from_str(line).map_err(|e| (None, format!("bad JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or((None, "missing request id".to_string()))?;
    let fail = |msg: String| (Some(id.clone()), msg);
    let cmd_name = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("missing cmd".to_string()))?;
    let at = match v.get("at") {
        None => 0.0,
        Some(t) => t
            .as_f64()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| fail("bad at: must be a finite non-negative number".to_string()))?,
    };
    let cmd = match cmd_name {
        "submit" => {
            let job = v
                .get("job")
                .ok_or_else(|| fail("submit: missing job".to_string()))?;
            let job = JobSpec::from_json(job).map_err(|e| fail(format!("submit: bad job: {e}")))?;
            let gpu_hours = match v.get("gpu_hours") {
                None => 0.0,
                Some(h) => h
                    .as_f64()
                    .filter(|h| h.is_finite() && *h >= 0.0)
                    .ok_or_else(|| {
                        fail("submit: bad gpu_hours: must be finite and >= 0".to_string())
                    })?,
            };
            Command::Submit {
                tenant: v
                    .get("tenant")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_string(),
                gpu_hours,
                job: Box::new(job),
            }
        }
        "cancel" => Command::Cancel {
            job: v
                .get("job")
                .and_then(Value::as_u64)
                .ok_or_else(|| fail("cancel: missing job id".to_string()))?,
        },
        "query" => Command::Query {
            job: v.get("job").and_then(Value::as_u64),
        },
        "snapshot" => Command::Snapshot {
            path: v
                .get("path")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("snapshot: missing path".to_string()))?
                .to_string(),
        },
        "shutdown" => Command::Shutdown,
        "metrics" => Command::Metrics,
        "health" => Command::Health,
        other => return Err(fail(format!("unknown cmd {other:?}"))),
    };
    Ok(Request { id, at, cmd })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_command() {
        let r = parse_request(r#"{"id":"a","cmd":"cancel","at":12.5,"job":7}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.at, 12.5);
        assert!(matches!(r.cmd, Command::Cancel { job: 7 }));

        let r = parse_request(r#"{"id":"b","cmd":"query"}"#).unwrap();
        assert_eq!(r.at, 0.0);
        assert!(matches!(r.cmd, Command::Query { job: None }));

        let r = parse_request(r#"{"id":"c","cmd":"snapshot","path":"x.snap"}"#).unwrap();
        assert!(matches!(r.cmd, Command::Snapshot { path } if path == "x.snap"));

        let r = parse_request(r#"{"id":"d","cmd":"shutdown"}"#).unwrap();
        assert!(matches!(r.cmd, Command::Shutdown));

        let r = parse_request(r#"{"id":"e","cmd":"metrics"}"#).unwrap();
        assert!(matches!(r.cmd, Command::Metrics));
        assert_eq!(r.cmd.label(), "metrics");
        let r = parse_request(r#"{"id":"f","cmd":"health","at":99}"#).unwrap();
        assert!(matches!(r.cmd, Command::Health));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("not json").unwrap_err().0.is_none());
        assert!(parse_request(r#"{"cmd":"shutdown"}"#)
            .unwrap_err()
            .0
            .is_none());
        let (id, msg) = parse_request(r#"{"id":"x","cmd":"warp"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("x"));
        assert!(msg.contains("unknown cmd"));
        let (id, _) = parse_request(r#"{"id":"y","cmd":"submit"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("y"));
        let (_, msg) = parse_request(r#"{"id":"z","cmd":"cancel","at":-5,"job":1}"#).unwrap_err();
        assert!(msg.contains("bad at"));
    }

    fn read_all(input: &[u8], chunk: usize) -> Vec<RequestLine> {
        let reader = std::io::BufReader::with_capacity(chunk, input);
        RequestLines::new(reader).map(Result::unwrap).collect()
    }

    fn text(s: &str) -> RequestLine {
        RequestLine::Text(s.to_string())
    }

    #[test]
    fn request_lines_split_like_bufread_lines() {
        let input = b"a\r\n\nbc\nlast";
        for chunk in [1, 2, 3, 64] {
            assert_eq!(
                read_all(input, chunk),
                vec![text("a"), text(""), text("bc"), text("last")]
            );
        }
        assert!(read_all(b"", 8).is_empty());
    }

    #[test]
    fn request_lines_refuse_long_and_non_utf8_lines_and_read_on() {
        let mut input = vec![b'x'; MAX_LINE_BYTES];
        input.push(b'\n');
        input.resize(input.len() + MAX_LINE_BYTES + 1, b'y');
        input.extend_from_slice(b"\n\xff\xfe\nok\n");
        let lines = read_all(&input, 4096);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], text(&"x".repeat(MAX_LINE_BYTES)));
        assert!(matches!(&lines[1], RequestLine::Refused(r) if r.starts_with("line-too-long")));
        assert!(matches!(&lines[2], RequestLine::Refused(r) if r.starts_with("bad-utf8")));
        assert_eq!(lines[3], text("ok"));
    }
}
