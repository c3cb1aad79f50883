//! Wire messages and their binary encoding.
//!
//! Encoding conventions (all integers big-endian):
//!
//! * strings: `u16` length followed by UTF-8 bytes;
//! * click lists: `u16` count followed by `(f64, f64)` coordinate pairs
//!   encoded as IEEE-754 bit patterns;
//! * every message starts with a one-byte tag.
//!
//! The encoding is hand-rolled on top of [`bytes`] (no serde formats in the
//! dependency budget) and exercised by round-trip and corruption tests.

use crate::error::NetAuthError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gp_geometry::Point;

/// Maximum number of clicks accepted in a single message (defensive bound).
pub const MAX_CLICKS: usize = 64;

/// Maximum username length in bytes.  The replication codec lists and
/// pulls accounts under the same bound, so every name a client can enroll
/// can also be repaired.
pub const MAX_USERNAME_LEN: usize = 256;

/// Maximum length in bytes of the other strings on the wire (the config
/// scheme header and error reasons).
const MAX_STRING_LEN: usize = 1024;

/// Requests sent from client to server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Create an account with the given original click-points.
    Enroll {
        /// Account name.
        username: String,
        /// Original click-points, in order.
        clicks: Vec<Point>,
    },
    /// Attempt a login.
    Login {
        /// Account name.
        username: String,
        /// Attempted click-points, in order.
        clicks: Vec<Point>,
    },
    /// Ask the server for its discretization configuration (so a client can
    /// render the right grid/tolerance hints).
    GetConfig,
    /// Close the session.
    Quit,
}

/// The server's decision on a login attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoginDecision {
    /// The attempt matched the stored password.
    Accepted,
    /// The attempt did not match.
    Rejected,
    /// The account is locked due to too many consecutive failures.
    LockedOut,
}

/// Responses sent from server to client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// Enrollment succeeded.
    EnrollOk,
    /// Login decision.
    LoginResult {
        /// The decision.
        decision: LoginDecision,
        /// Consecutive failures recorded for the account after this attempt.
        failures: u32,
    },
    /// The server's discretization configuration header (see
    /// [`gp_passwords::DiscretizationConfig::to_header`]) and click count.
    Config {
        /// Scheme header string.
        scheme: String,
        /// Required number of clicks per password.
        clicks: u32,
    },
    /// The request failed; a human-readable reason is attached.
    Error {
        /// Reason for the failure.
        reason: String,
    },
    /// Acknowledgement of [`ClientMessage::Quit`].
    Goodbye,
}

const TAG_ENROLL: u8 = 0x01;
const TAG_LOGIN: u8 = 0x02;
const TAG_GET_CONFIG: u8 = 0x03;
const TAG_QUIT: u8 = 0x04;

const TAG_ENROLL_OK: u8 = 0x81;
const TAG_LOGIN_RESULT: u8 = 0x82;
const TAG_CONFIG: u8 = 0x83;
const TAG_ERROR: u8 = 0x84;
const TAG_GOODBYE: u8 = 0x85;

fn put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    buf.put_u16(bytes.len() as u16);
    buf.put_slice(bytes);
}

fn get_string(buf: &mut Bytes) -> Result<String, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated string length"));
    }
    let len = buf.get_u16() as usize;
    if len > MAX_STRING_LEN {
        return Err(malformed("string too long"));
    }
    if buf.remaining() < len {
        return Err(malformed("truncated string body"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8 in string"))
}

fn get_username(buf: &mut Bytes) -> Result<String, NetAuthError> {
    let username = get_string(buf)?;
    if username.len() > MAX_USERNAME_LEN {
        return Err(malformed("username too long"));
    }
    Ok(username)
}

fn put_clicks(buf: &mut BytesMut, clicks: &[Point]) {
    buf.put_u16(clicks.len() as u16);
    for c in clicks {
        buf.put_u64(c.x.to_bits());
        buf.put_u64(c.y.to_bits());
    }
}

fn get_clicks(buf: &mut Bytes) -> Result<Vec<Point>, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated click count"));
    }
    let count = buf.get_u16() as usize;
    if count > MAX_CLICKS {
        return Err(malformed("too many clicks"));
    }
    if buf.remaining() < count * 16 {
        return Err(malformed("truncated click list"));
    }
    let mut clicks = Vec::with_capacity(count);
    for _ in 0..count {
        let x = f64::from_bits(buf.get_u64());
        let y = f64::from_bits(buf.get_u64());
        if !x.is_finite() || !y.is_finite() {
            return Err(malformed("non-finite click coordinate"));
        }
        clicks.push(Point::new(x, y));
    }
    Ok(clicks)
}

fn malformed(reason: &str) -> NetAuthError {
    NetAuthError::Malformed {
        reason: reason.to_string(),
    }
}

impl ClientMessage {
    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ClientMessage::Enroll { username, clicks } => {
                buf.put_u8(TAG_ENROLL);
                put_string(&mut buf, username);
                put_clicks(&mut buf, clicks);
            }
            ClientMessage::Login { username, clicks } => {
                buf.put_u8(TAG_LOGIN);
                put_string(&mut buf, username);
                put_clicks(&mut buf, clicks);
            }
            ClientMessage::GetConfig => buf.put_u8(TAG_GET_CONFIG),
            ClientMessage::Quit => buf.put_u8(TAG_QUIT),
        }
        buf.freeze()
    }

    /// Decode from bytes.
    pub fn decode(mut buf: Bytes) -> Result<Self, NetAuthError> {
        if buf.is_empty() {
            return Err(malformed("empty message"));
        }
        let tag = buf.get_u8();
        let msg = match tag {
            TAG_ENROLL => {
                let username = get_username(&mut buf)?;
                let clicks = get_clicks(&mut buf)?;
                ClientMessage::Enroll { username, clicks }
            }
            TAG_LOGIN => {
                let username = get_username(&mut buf)?;
                let clicks = get_clicks(&mut buf)?;
                ClientMessage::Login { username, clicks }
            }
            TAG_GET_CONFIG => ClientMessage::GetConfig,
            TAG_QUIT => ClientMessage::Quit,
            other => return Err(malformed(&format!("unknown client tag {other:#04x}"))),
        };
        if buf.has_remaining() {
            return Err(malformed("trailing bytes after message"));
        }
        Ok(msg)
    }
}

impl LoginDecision {
    fn to_byte(self) -> u8 {
        match self {
            LoginDecision::Accepted => 0,
            LoginDecision::Rejected => 1,
            LoginDecision::LockedOut => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, NetAuthError> {
        match b {
            0 => Ok(LoginDecision::Accepted),
            1 => Ok(LoginDecision::Rejected),
            2 => Ok(LoginDecision::LockedOut),
            other => Err(malformed(&format!("unknown login decision {other}"))),
        }
    }
}

impl ServerMessage {
    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ServerMessage::EnrollOk => buf.put_u8(TAG_ENROLL_OK),
            ServerMessage::LoginResult { decision, failures } => {
                buf.put_u8(TAG_LOGIN_RESULT);
                buf.put_u8(decision.to_byte());
                buf.put_u32(*failures);
            }
            ServerMessage::Config { scheme, clicks } => {
                buf.put_u8(TAG_CONFIG);
                put_string(&mut buf, scheme);
                buf.put_u32(*clicks);
            }
            ServerMessage::Error { reason } => {
                buf.put_u8(TAG_ERROR);
                put_string(&mut buf, reason);
            }
            ServerMessage::Goodbye => buf.put_u8(TAG_GOODBYE),
        }
        buf.freeze()
    }

    /// Decode from bytes.
    pub fn decode(mut buf: Bytes) -> Result<Self, NetAuthError> {
        if buf.is_empty() {
            return Err(malformed("empty message"));
        }
        let tag = buf.get_u8();
        let msg = match tag {
            TAG_ENROLL_OK => ServerMessage::EnrollOk,
            TAG_LOGIN_RESULT => {
                if buf.remaining() < 5 {
                    return Err(malformed("truncated login result"));
                }
                let decision = LoginDecision::from_byte(buf.get_u8())?;
                let failures = buf.get_u32();
                ServerMessage::LoginResult { decision, failures }
            }
            TAG_CONFIG => {
                let scheme = get_string(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(malformed("truncated config"));
                }
                let clicks = buf.get_u32();
                ServerMessage::Config { scheme, clicks }
            }
            TAG_ERROR => ServerMessage::Error {
                reason: get_string(&mut buf)?,
            },
            TAG_GOODBYE => ServerMessage::Goodbye,
            other => return Err(malformed(&format!("unknown server tag {other:#04x}"))),
        };
        if buf.has_remaining() {
            return Err(malformed("trailing bytes after message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(1.5, 2.0),
            Point::new(450.0, 330.0),
            Point::new(0.0, 0.0),
        ]
    }

    #[test]
    fn client_messages_round_trip() {
        let messages = vec![
            ClientMessage::Enroll {
                username: "alice".into(),
                clicks: clicks(),
            },
            ClientMessage::Login {
                username: "ユーザー".into(),
                clicks: vec![],
            },
            ClientMessage::Enroll {
                username: "u".repeat(MAX_USERNAME_LEN),
                clicks: clicks(),
            },
            ClientMessage::GetConfig,
            ClientMessage::Quit,
        ];
        for m in messages {
            let decoded = ClientMessage::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = vec![
            ServerMessage::EnrollOk,
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0,
            },
            ServerMessage::LoginResult {
                decision: LoginDecision::LockedOut,
                failures: 3,
            },
            ServerMessage::Config {
                scheme: "centered:9".into(),
                clicks: 5,
            },
            ServerMessage::Error {
                reason: "unknown account".into(),
            },
            ServerMessage::Error {
                reason: "r".repeat(MAX_STRING_LEN),
            },
            ServerMessage::Goodbye,
        ];
        for m in messages {
            let decoded = ServerMessage::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn usernames_longer_than_the_bound_are_malformed() {
        let username = "u".repeat(MAX_USERNAME_LEN + 1);
        for m in [
            ClientMessage::Enroll {
                username: username.clone(),
                clicks: clicks(),
            },
            ClientMessage::Login {
                username,
                clicks: clicks(),
            },
        ] {
            let decoded = ClientMessage::decode(m.encode());
            assert!(
                matches!(decoded, Err(NetAuthError::Malformed { .. })),
                "{decoded:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ClientMessage::Quit.encode().to_vec();
        bytes.push(0xff);
        assert!(ClientMessage::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(ClientMessage::decode(Bytes::from_static(&[0x7f])).is_err());
        assert!(ServerMessage::decode(Bytes::from_static(&[0x7f])).is_err());
        assert!(ClientMessage::decode(Bytes::new()).is_err());
    }

    #[test]
    fn truncated_messages_rejected() {
        let full = ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        }
        .encode();
        // Every proper prefix must fail to decode rather than panic.
        for len in 0..full.len() {
            let prefix = full.slice(0..len);
            assert!(
                ClientMessage::decode(prefix).is_err(),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_LOGIN);
        put_string(&mut buf, "alice");
        buf.put_u16(1);
        buf.put_u64(f64::NAN.to_bits());
        buf.put_u64(1.0f64.to_bits());
        assert!(ClientMessage::decode(buf.freeze()).is_err());
    }

    #[test]
    fn excessive_click_count_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_LOGIN);
        put_string(&mut buf, "alice");
        buf.put_u16(u16::MAX);
        assert!(ClientMessage::decode(buf.freeze()).is_err());
    }
}
