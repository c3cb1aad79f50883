//! Blocking TCP client for the authentication protocol.

use crate::error::NetAuthError;
use crate::framing::{FrameReader, FrameWriter};
use crate::protocol::{ClientMessage, LoginDecision, ServerMessage};
use gp_geometry::Point;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected client session.
///
/// I/O is buffered on both directions, so a pipelined request burst
/// ([`AuthClient::request_pipelined`]) costs one write syscall for the
/// whole burst.
#[derive(Debug)]
pub struct AuthClient {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: FrameWriter<BufWriter<TcpStream>>,
}

impl AuthClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> Result<Self, NetAuthError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let reader_stream = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(BufReader::new(reader_stream)),
            writer: FrameWriter::new(BufWriter::new(stream)),
        })
    }

    /// Send one request and read one response.  A transport failure is
    /// returned as is, never resent: the server may already have applied
    /// the request.
    pub fn request(&mut self, message: &ClientMessage) -> Result<ServerMessage, NetAuthError> {
        self.writer.write_frame(&message.encode())?;
        let frame = self.reader.read_frame()?;
        ServerMessage::decode(frame)
    }

    /// Send every request in one pipelined burst, then read the matching
    /// responses in order.  This is the client half of the server's
    /// pipelined framing: no request waits for the previous response's
    /// round trip, and the server batches the burst's login hashes into
    /// multi-lane runs.
    pub fn request_pipelined(
        &mut self,
        messages: &[ClientMessage],
    ) -> Result<Vec<ServerMessage>, NetAuthError> {
        for message in messages {
            self.writer.write_frame_buffered(&message.encode())?;
        }
        self.writer.flush()?;
        let mut responses = Vec::with_capacity(messages.len());
        for _ in messages {
            responses.push(ServerMessage::decode(self.reader.read_frame()?)?);
        }
        Ok(responses)
    }

    /// Enroll an account.
    pub fn enroll(&mut self, username: &str, clicks: &[Point]) -> Result<(), NetAuthError> {
        match self.request(&ClientMessage::Enroll {
            username: username.to_string(),
            clicks: clicks.to_vec(),
        })? {
            ServerMessage::EnrollOk => Ok(()),
            ServerMessage::Error { reason } => Err(NetAuthError::Malformed { reason }),
            other => Err(NetAuthError::Malformed {
                reason: format!("unexpected response to enroll: {other:?}"),
            }),
        }
    }

    /// Attempt a login; returns the server's decision and the recorded
    /// failure count.
    pub fn login(
        &mut self,
        username: &str,
        clicks: &[Point],
    ) -> Result<(LoginDecision, u32), NetAuthError> {
        match self.request(&ClientMessage::Login {
            username: username.to_string(),
            clicks: clicks.to_vec(),
        })? {
            ServerMessage::LoginResult { decision, failures } => Ok((decision, failures)),
            ServerMessage::Error { reason } => Err(NetAuthError::Malformed { reason }),
            other => Err(NetAuthError::Malformed {
                reason: format!("unexpected response to login: {other:?}"),
            }),
        }
    }

    /// Fetch the server's scheme header and click count.
    pub fn get_config(&mut self) -> Result<(String, u32), NetAuthError> {
        match self.request(&ClientMessage::GetConfig)? {
            ServerMessage::Config { scheme, clicks } => Ok((scheme, clicks)),
            other => Err(NetAuthError::Malformed {
                reason: format!("unexpected response to get_config: {other:?}"),
            }),
        }
    }

    /// Politely close the session.
    pub fn quit(mut self) -> Result<(), NetAuthError> {
        match self.request(&ClientMessage::Quit)? {
            ServerMessage::Goodbye => Ok(()),
            other => Err(NetAuthError::Malformed {
                reason: format!("unexpected response to quit: {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{AuthServer, ServerConfig};

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(45.0, 52.0),
            Point::new(133.0, 208.0),
            Point::new(300.0, 72.0),
            Point::new(405.0, 295.0),
            Point::new(225.0, 142.0),
        ]
    }

    #[test]
    fn end_to_end_enroll_login_lockout_over_tcp() {
        let handle = AuthServer::new(ServerConfig::fast_for_tests())
            .spawn()
            .expect("spawn server");

        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        let (scheme, n) = client.get_config().unwrap();
        assert_eq!(scheme, "centered:9");
        assert_eq!(n, 5);

        client.enroll("alice", &clicks()).unwrap();

        // Accurate login succeeds.
        let wobbly: Vec<Point> = clicks().iter().map(|p| p.offset(6.0, -6.0)).collect();
        let (decision, failures) = client.login("alice", &wobbly).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        assert_eq!(failures, 0);

        // Three bad attempts lock the account.
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-40.0, -40.0)).collect();
        for i in 1..=3u32 {
            let (decision, failures) = client.login("alice", &wrong).unwrap();
            assert_eq!(decision, LoginDecision::Rejected);
            assert_eq!(failures, i);
        }
        let (decision, _) = client.login("alice", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::LockedOut);

        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn multiple_clients_share_the_account_store() {
        let handle = AuthServer::new(ServerConfig::fast_for_tests())
            .spawn()
            .expect("spawn server");

        let mut enroller = AuthClient::connect(handle.addr()).unwrap();
        enroller.enroll("bob", &clicks()).unwrap();
        enroller.quit().unwrap();

        let mut login_client = AuthClient::connect(handle.addr()).unwrap();
        let (decision, _) = login_client.login("bob", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        // Unknown accounts surface as protocol errors.
        assert!(login_client.login("nobody", &clicks()).is_err());
        login_client.quit().unwrap();

        handle.shutdown();
    }

    #[test]
    fn pipelined_burst_round_trips_in_order() {
        let handle = AuthServer::new(ServerConfig::fast_for_tests())
            .spawn()
            .expect("spawn server");
        let mut client = AuthClient::connect(handle.addr()).unwrap();
        client.enroll("dana", &clicks()).unwrap();

        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-40.0, -40.0)).collect();
        let burst = vec![
            ClientMessage::Login {
                username: "dana".into(),
                clicks: clicks(),
            },
            ClientMessage::Login {
                username: "dana".into(),
                clicks: wrong,
            },
            ClientMessage::Login {
                username: "dana".into(),
                clicks: clicks(),
            },
            ClientMessage::GetConfig,
        ];
        let responses = client.request_pipelined(&burst).unwrap();
        assert_eq!(responses.len(), 4);
        assert_eq!(
            responses[0],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert_eq!(
            responses[1],
            ServerMessage::LoginResult {
                decision: LoginDecision::Rejected,
                failures: 1
            }
        );
        assert_eq!(
            responses[2],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert!(matches!(responses[3], ServerMessage::Config { .. }));

        client.quit().unwrap();
        let stats = handle.stats();
        assert!(stats.workers.iter().map(|w| w.requests).sum::<u64>() >= 6);
        handle.shutdown();
    }

    #[test]
    fn server_survives_abruptly_dropped_connections() {
        let handle = AuthServer::new(ServerConfig::fast_for_tests())
            .spawn()
            .expect("spawn server");
        {
            // Connect and drop without sending anything.
            let _client = AuthClient::connect(handle.addr()).unwrap();
        }
        // The server still serves subsequent clients.
        let mut client = AuthClient::connect(handle.addr()).unwrap();
        client.enroll("carol", &clicks()).unwrap();
        let (decision, _) = client.login("carol", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn a_dropped_connection_is_an_error_not_a_resend() {
        // A bare listener that accepts and drops the connection unserved:
        // the client sees a reset or EOF, which `ClusterClient` treats as
        // a transport error and fails over on.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let dropper = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let mut client = AuthClient::connect(addr).unwrap();
        dropper.join().unwrap();
        let err = client
            .enroll("erin", &clicks())
            .expect_err("nothing served the request");
        assert!(
            matches!(err, NetAuthError::UnexpectedEof | NetAuthError::Io(_)),
            "a dropped connection surfaces as a transport error: {err}"
        );
    }
}
