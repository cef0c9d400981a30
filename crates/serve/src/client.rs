//! A minimal blocking client over the wire protocol.
//!
//! [`Client`] is the one-request-at-a-time convenience used by the CLI's
//! `--connect` mode and the crate tests: it assigns ids, writes a frame,
//! and blocks for the matching response. Open-loop load generation needs
//! pipelining instead — for that, split the stream with
//! [`TcpStream::try_clone`] and drive [`send_request`] /
//! [`read_response`] from separate writer and reader threads; responses
//! arrive in completion order and carry the request id for matching.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    augment_payload, configure_stream, decode_response, encode_request, query_payload, read_frame,
    write_frame, Request, Response, Verb,
};

/// Writes one request frame to `stream`.
pub fn send_request(stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    write_frame(stream, &encode_request(request))
}

/// Reads one response frame; `Ok(None)` is a clean EOF.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Response>> {
    let Some(body) = read_frame(reader)? else { return Ok(None) };
    decode_response(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A blocking request/response client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = configure_stream(TcpStream::connect(addr)?)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader, next_id: 1 })
    }

    /// Sends `verb` with `payload` and blocks for the response.
    pub fn call(&mut self, verb: Verb, payload: String) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        send_request(&mut self.writer, &Request { id, verb, payload })?;
        let response = read_response(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        if response.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} does not match request id {id}", response.id),
            ));
        }
        Ok(response)
    }

    /// `QUERY`: the local answer only.
    pub fn query(&mut self, database: &str, query: &str) -> io::Result<Response> {
        self.call(Verb::Query, query_payload(database, query))
    }

    /// `AUGMENT`: full augmented search at `level`.
    pub fn augment(&mut self, database: &str, level: usize, query: &str) -> io::Result<Response> {
        self.call(Verb::Augment, augment_payload(database, level, query))
    }

    /// `COMMAND`: one line of the command surface, answered with the
    /// text the shell would print for it.
    pub fn command(&mut self, line: &str) -> io::Result<Response> {
        self.call(Verb::Command, line.to_owned())
    }

    /// `METRICS`: Prometheus text (`json = false`) or JSON.
    pub fn metrics(&mut self, json: bool) -> io::Result<Response> {
        self.call(Verb::Metrics, if json { "JSON".into() } else { String::new() })
    }

    /// `CHECKPOINT`: force a durable checkpoint cut.
    pub fn checkpoint(&mut self) -> io::Result<Response> {
        self.call(Verb::Checkpoint, String::new())
    }
}
