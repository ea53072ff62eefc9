//! Error type shared across the networking stack, and the retryability
//! taxonomy the resilient fetch path consults.

use std::fmt;
use std::io;

/// Errors produced by the HTTP codec, transports, client and crawler.
#[derive(Debug)]
pub enum NetError {
    /// Underlying transport I/O failure (includes injected faults).
    Io(io::Error),
    /// The peer's bytes do not form a valid HTTP/1.1 message.
    Malformed(&'static str),
    /// A protocol limit was exceeded (header block or body too large).
    TooLarge(&'static str),
    /// Connection closed before a complete message was received.
    UnexpectedEof,
    /// The requested host is not reachable through this connector.
    HostUnreachable(String),
    /// The operation did not finish within its deadline.
    Timeout,
}

/// Coarse classification of a [`NetError`] for failure attribution and
/// retry decisions.
///
/// The paper's crawl (§4.1) hit refused connections, stalled reads, and
/// responses cut mid-body; those failure modes have different causes and
/// different recovery behavior, so the crawler records which one it saw
/// instead of flattening them all into one error string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ErrorClass {
    /// The peer refused the connection.
    Refused,
    /// The exchange exceeded its deadline (stall or slow network).
    Timeout,
    /// The connection died mid-message: the response was truncated.
    Truncated,
    /// The peer spoke invalid or oversized HTTP — retrying will not help.
    Protocol,
    /// The connector cannot reach this host at all.
    Unreachable,
    /// Any other transport-level I/O failure.
    Io,
}

impl ErrorClass {
    /// Short lowercase label (`refused`, `timeout`, …) used in rendered
    /// error strings and reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ErrorClass::Refused => "refused",
            ErrorClass::Timeout => "timeout",
            ErrorClass::Truncated => "truncated",
            ErrorClass::Protocol => "protocol",
            ErrorClass::Unreachable => "unreachable",
            ErrorClass::Io => "io",
        }
    }

    /// Whether a failure of this class is plausibly transient.
    pub(crate) fn is_retryable(&self) -> bool {
        match self {
            ErrorClass::Refused | ErrorClass::Timeout | ErrorClass::Truncated | ErrorClass::Io => {
                true
            }
            ErrorClass::Protocol | ErrorClass::Unreachable => false,
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl NetError {
    /// Classifies the error for attribution and retry decisions.
    pub(crate) fn class(&self) -> ErrorClass {
        match self {
            NetError::Io(e) if e.kind() == io::ErrorKind::ConnectionRefused => ErrorClass::Refused,
            NetError::Io(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                ErrorClass::Timeout
            }
            NetError::Io(_) => ErrorClass::Io,
            NetError::Malformed(_) | NetError::TooLarge(_) => ErrorClass::Protocol,
            NetError::UnexpectedEof => ErrorClass::Truncated,
            NetError::HostUnreachable(_) => ErrorClass::Unreachable,
            NetError::Timeout => ErrorClass::Timeout,
        }
    }

    /// Whether retrying the operation could plausibly succeed.
    ///
    /// Refusals, timeouts, truncations and generic I/O failures are
    /// transient in the wild (a server restarting, a path flapping, a
    /// proxy cutting a stream); malformed or oversized messages and
    /// unreachable hosts are properties of the peer that a retry cannot
    /// change.
    pub(crate) fn is_retryable(&self) -> bool {
        self.class().is_retryable()
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Malformed(what) => write!(f, "malformed message: {what}"),
            NetError::TooLarge(what) => write!(f, "message too large: {what}"),
            NetError::UnexpectedEof => write!(f, "connection closed mid-message"),
            NetError::HostUnreachable(host) => write!(f, "host unreachable: {host}"),
            NetError::Timeout => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => NetError::UnexpectedEof,
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout,
            _ => NetError::Io(e),
        }
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn io_err(kind: io::ErrorKind) -> NetError {
        NetError::Io(io::Error::new(kind, "test"))
    }

    #[test]
    fn connect_refused_is_its_own_class() {
        let e = io_err(io::ErrorKind::ConnectionRefused);
        assert_eq!(e.class(), ErrorClass::Refused);
        assert!(e.is_retryable());
    }

    #[test]
    fn stalls_and_timeouts_classify_as_timeout() {
        assert_eq!(NetError::Timeout.class(), ErrorClass::Timeout);
        assert_eq!(io_err(io::ErrorKind::TimedOut).class(), ErrorClass::Timeout);
        assert_eq!(
            io_err(io::ErrorKind::WouldBlock).class(),
            ErrorClass::Timeout
        );
        assert!(NetError::Timeout.is_retryable());
    }

    #[test]
    fn truncation_is_distinguishable_from_refusal() {
        // The bug this taxonomy fixes: a response cut mid-body and a
        // refused connection used to be indistinguishable downstream.
        let truncated = NetError::UnexpectedEof;
        let refused = io_err(io::ErrorKind::ConnectionRefused);
        assert_eq!(truncated.class(), ErrorClass::Truncated);
        assert_ne!(truncated.class(), refused.class());
        assert!(truncated.is_retryable());
    }

    #[test]
    fn protocol_errors_are_permanent() {
        assert_eq!(NetError::Malformed("bad").class(), ErrorClass::Protocol);
        assert_eq!(NetError::TooLarge("big").class(), ErrorClass::Protocol);
        assert!(!NetError::Malformed("bad").is_retryable());
        assert!(!NetError::TooLarge("big").is_retryable());
        assert!(!NetError::HostUnreachable("h".into()).is_retryable());
        assert_eq!(
            NetError::HostUnreachable("h".into()).class(),
            ErrorClass::Unreachable
        );
    }

    #[test]
    fn generic_io_failures_are_retryable() {
        let e = io_err(io::ErrorKind::BrokenPipe);
        assert_eq!(e.class(), ErrorClass::Io);
        assert!(e.is_retryable());
    }

    #[test]
    fn io_conversion_promotes_timeout_kinds() {
        let e: NetError = io::Error::new(io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(e, NetError::Timeout));
        let e: NetError = io::Error::new(io::ErrorKind::WouldBlock, "slow").into();
        assert!(matches!(e, NetError::Timeout));
        let e: NetError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, NetError::UnexpectedEof));
        let e: NetError = io::Error::new(io::ErrorKind::ConnectionRefused, "no").into();
        assert!(matches!(e, NetError::Io(_)));
    }

    #[test]
    fn class_names_render() {
        assert_eq!(ErrorClass::Refused.to_string(), "refused");
        assert_eq!(ErrorClass::Truncated.to_string(), "truncated");
        assert_eq!(ErrorClass::Protocol.name(), "protocol");
    }
}
