//! A small blocking client for the wire protocol — used by the load
//! harness, the protocol tests, and `skinner-load`'s admin paths.

use crate::frame::{read_frame, write_frame, PROTOCOL_VERSION};
use crate::proto::{BatchSummary, BusyScope, ErrorCode, Message, WireStats, BATCH_LAST};
use skinner_storage::Value;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures, separating transport problems from in-band
/// refusals and remote errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Admission refused with a typed `Busy` frame.
    Busy {
        /// What was refused.
        scope: BusyScope,
        /// Server's explanation.
        message: String,
    },
    /// The server (or this client) observed a protocol violation.
    Protocol(String),
    /// The query failed server-side (`Error` frame).
    Remote {
        /// Error class.
        code: ErrorCode,
        /// Server's explanation.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Busy { scope, message } => write!(f, "busy ({scope:?}): {message}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A complete query result as received over the wire.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Output column names.
    pub columns: Vec<String>,
    /// All rows, in delivery order (which follows the learned join
    /// orders and so differs between cold and warm runs — compare
    /// sorted, see [`encode_row`](crate::proto::encode_row)).
    pub rows: Vec<Vec<Value>>,
    /// The server's execution summary.
    pub summary: BatchSummary,
}

/// One connected protocol client.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Connect, handshake, and return a ready client. A server at its
    /// connection cap yields [`ClientError::Busy`].
    pub fn connect(addr: impl ToSocketAddrs, client_name: &str) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // Generous read timeout: queries can queue behind admission.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut client = NetClient { stream, next_id: 1 };
        client.send(&Message::Hello {
            version: PROTOCOL_VERSION,
            client: client_name.to_string(),
        })?;
        match client.recv()? {
            Message::Welcome { version, .. } if version == PROTOCOL_VERSION => Ok(client),
            Message::Welcome { version, .. } => Err(ClientError::Protocol(format!(
                "server speaks protocol {version}, client speaks {PROTOCOL_VERSION}"
            ))),
            Message::Busy { scope, message } => Err(ClientError::Busy { scope, message }),
            Message::Error { message, .. } => Err(ClientError::Protocol(message)),
            other => Err(ClientError::Protocol(format!(
                "expected Welcome, got {:?}",
                other.frame_type()
            ))),
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), ClientError> {
        write_frame(&mut self.stream, msg.frame_type(), &msg.encode())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, ClientError> {
        loop {
            match read_frame(&mut self.stream) {
                Ok(Some((ty, payload))) => {
                    return Message::decode(ty, &payload).ok_or_else(|| {
                        ClientError::Protocol(format!("undecodable {ty:?} payload"))
                    });
                }
                Ok(None) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    return Err(ClientError::Protocol(e.to_string()))
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Execute `sql`, collecting all row batches. `timeout_ms == 0`
    /// uses the server default.
    pub fn query(&mut self, sql: &str, timeout_ms: u64) -> Result<QueryOutcome, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Message::Query {
            id,
            sql: sql.to_string(),
            timeout_ms,
        })?;
        let mut columns = Vec::new();
        let mut rows = Vec::new();
        loop {
            match self.recv()? {
                Message::RowBatch {
                    id: got,
                    flags,
                    columns: cols,
                    rows: mut batch,
                    summary,
                } => {
                    if got != id {
                        return Err(ClientError::Protocol(format!(
                            "row batch for query {got}, expected {id}"
                        )));
                    }
                    if !cols.is_empty() {
                        columns = cols;
                    }
                    rows.append(&mut batch);
                    if flags & BATCH_LAST != 0 {
                        return Ok(QueryOutcome {
                            columns,
                            rows,
                            summary: summary.unwrap_or_default(),
                        });
                    }
                }
                Message::Error { code, message, .. } => {
                    return Err(ClientError::Remote { code, message })
                }
                Message::Busy { scope, message } => {
                    return Err(ClientError::Busy { scope, message })
                }
                Message::Goodbye { reason } => {
                    return Err(ClientError::Protocol(format!(
                        "server said goodbye mid-query: {reason}"
                    )))
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {:?} during query",
                        other.frame_type()
                    )))
                }
            }
        }
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        self.send(&Message::StatsRequest)?;
        match self.recv()? {
            Message::Stats(stats) => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "expected Stats, got {:?}",
                other.frame_type()
            ))),
        }
    }

    /// Orderly close: send `Goodbye`, await the server's, drop the
    /// connection.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(&Message::Goodbye {
            reason: "client done".to_string(),
        })?;
        loop {
            match self.recv() {
                Ok(Message::Goodbye { .. }) | Err(ClientError::Io(_)) => break,
                Ok(_) => continue, // drain any straggler frames
                Err(e) => return Err(e),
            }
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        Ok(())
    }

    /// Ask the server to drain and shut down; awaits its `Goodbye`.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.send(&Message::Shutdown)?;
        loop {
            match self.recv() {
                Ok(Message::Goodbye { .. }) | Err(ClientError::Io(_)) => break,
                Ok(_) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}
