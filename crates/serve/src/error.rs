use std::error::Error;
use std::fmt;

use wlc_model::ModelError;

/// Error type for the prediction server and its client.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Binding the listening socket failed.
    Bind {
        /// Address that could not be bound.
        addr: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A socket read/write failed mid-conversation.
    Io(std::io::Error),
    /// The peer closed or reset the connection before the first byte of
    /// the next message. A server closes an idle kept-alive connection
    /// only before it starts on the next request, so a request that
    /// meets this on a reused connection was never processed.
    ConnectionClosed,
    /// The peer sent something that is not valid HTTP/JSON for this
    /// protocol (malformed request line, missing body, bad JSON, ...).
    Protocol(String),
    /// A server or client configuration parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint that was violated.
        reason: &'static str,
    },
    /// A model operation (load, validate, predict) failed.
    Model(ModelError),
    /// The server rejected a request with an HTTP error status.
    Rejected {
        /// HTTP status code (400 validation, 503 shed, 504 deadline, ...).
        status: u16,
        /// Server-provided diagnostic.
        message: String,
        /// Whether the server marked the rejection as retriable.
        retriable: bool,
    },
    /// The client exhausted its retry budget against retriable failures.
    RetriesExhausted {
        /// Number of attempts made.
        attempts: usize,
        /// Description of the last failure.
        last: String,
    },
    /// A request body exceeded the server's size cap (HTTP 413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        length: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The peer failed to deliver the request head before the read
    /// deadline (HTTP 408) — a slow-writer defence.
    HeaderTimeout {
        /// The deadline that elapsed, in milliseconds.
        deadline_ms: u64,
    },
    /// Durable storage failed at a fault-injection site (e.g. the model
    /// file could not be read during a reload). Carries the per-site
    /// retriability pinned by `wlc_fault::SITE_POLICY`.
    Durable {
        /// The failpoint site (`serve.model.load`, ...).
        site: &'static str,
        /// The path the operation touched.
        path: String,
        /// The underlying failure.
        reason: String,
        /// Whether retrying later can reasonably succeed.
        retriable: bool,
    },
}

impl ServeError {
    /// Whether retrying the same request later could reasonably succeed.
    ///
    /// Load shedding (503) and deadline timeouts (504) are transient;
    /// validation errors (4xx) and protocol errors are not.
    pub fn is_retriable(&self) -> bool {
        match self {
            ServeError::Io(_) | ServeError::ConnectionClosed => true,
            ServeError::Rejected { retriable, .. } => *retriable,
            ServeError::Durable { retriable, .. } => *retriable,
            _ => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => {
                write!(f, "failed to bind `{addr}`: {source}")
            }
            ServeError::Io(e) => write!(f, "server io error: {e}"),
            ServeError::ConnectionClosed => {
                write!(f, "connection closed by the peer before a message began")
            }
            ServeError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ServeError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Rejected {
                status,
                message,
                retriable,
            } => {
                let kind = if *retriable {
                    "retriable"
                } else {
                    "non-retriable"
                };
                write!(f, "server rejected request ({status}, {kind}): {message}")
            }
            ServeError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "request failed after {attempts} attempts; last error: {last}"
                )
            }
            ServeError::BodyTooLarge { length, limit } => {
                write!(f, "body of {length} bytes exceeds the {limit}-byte limit")
            }
            ServeError::HeaderTimeout { deadline_ms } => {
                write!(f, "request head not received within {deadline_ms} ms")
            }
            ServeError::Durable {
                site,
                path,
                reason,
                retriable,
            } => {
                let kind = if *retriable { "retriable" } else { "fatal" };
                write!(
                    f,
                    "durable storage failure at {site} ({kind}) on `{path}`: {reason}"
                )
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_retriability() {
        let shed = ServeError::Rejected {
            status: 503,
            message: "queue full".into(),
            retriable: true,
        };
        assert!(shed.is_retriable());
        assert!(shed.to_string().contains("503"));
        assert!(shed.to_string().contains("retriable"));

        let bad = ServeError::Rejected {
            status: 400,
            message: "width mismatch".into(),
            retriable: false,
        };
        assert!(!bad.is_retriable());
        assert!(bad.to_string().contains("non-retriable"));

        let proto = ServeError::Protocol("bad request line".into());
        assert!(!proto.is_retriable());
        assert!(proto.to_string().contains("bad request line"));
    }

    #[test]
    fn sources_and_conversions() {
        let io: ServeError = std::io::Error::other("x").into();
        assert!(io.is_retriable());
        assert!(Error::source(&io).is_some());

        let m: ServeError = ModelError::InvalidParameter {
            name: "n",
            reason: "r",
        }
        .into();
        assert!(Error::source(&m).is_some());
        assert!(!m.is_retriable());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ServeError>();
    }
}
