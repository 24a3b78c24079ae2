//! A split wire connection: one thread writes requests, another reads
//! responses. Built on the protocol's public codec
//! ([`Request::encode_frame`], [`Response::decode`]) rather than the
//! call-style `Client`, because an open-loop sender must never wait for a
//! reply before sending the next request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_server::{Request, Response};

/// The sending half.
#[derive(Debug)]
pub struct Writer {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes put on the wire.
    pub bytes: u64,
}

/// The receiving half.
#[derive(Debug)]
pub struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// Bytes read off the wire.
    pub bytes: u64,
}

/// What one read from the socket produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Fill {
    /// Some bytes arrived.
    Data,
    /// The peer closed the connection.
    Closed,
}

/// Connect and split into halves (Nagle off, as the protocol batches).
pub fn connect(addr: SocketAddr) -> io::Result<(Writer, Reader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read = stream.try_clone()?;
    Ok((
        Writer {
            stream,
            buf: Vec::new(),
            bytes: 0,
        },
        Reader {
            stream: read,
            buf: Vec::new(),
            pos: 0,
            bytes: 0,
        },
    ))
}

impl Writer {
    /// Encode `request` into the pending buffer.
    pub fn queue(&mut self, request: &Request) {
        request.encode_frame(&mut self.buf);
    }

    /// Write every pending byte (blocking).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.stream.write_all(&self.buf)?;
            self.bytes += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }
}

impl Reader {
    /// The socket to register with a poller.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// One `read` call into the buffer. Blocks unless the socket is known
    /// readable.
    pub fn fill(&mut self) -> io::Result<Fill> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Fill::Closed);
        }
        self.bytes += n as u64;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(Fill::Data)
    }

    /// The next complete frame's payload, if one is buffered. `Err` means
    /// the stream is corrupt and cannot be resynchronized.
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, String> {
        match split_frame(&self.buf[self.pos..]) {
            FrameSplit::Frame { frame_len } => {
                let start = self.pos + FRAME_HEADER_LEN;
                let end = self.pos + frame_len;
                self.pos = end;
                Ok(Some(&self.buf[start..end]))
            }
            FrameSplit::Incomplete => Ok(None),
            FrameSplit::Corrupt => Err("corrupt response frame".to_string()),
        }
    }

    /// Block until the next response arrives.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            match self.next_payload() {
                Ok(Some(payload)) => {
                    return Response::decode(payload)
                        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))
                }
                Ok(None) => {}
                Err(err) => return Err(io::Error::new(io::ErrorKind::InvalidData, err)),
            }
            if self.fill()? == Fill::Closed {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }
}

/// One blocking round trip on a split connection.
pub fn call(w: &mut Writer, r: &mut Reader, request: &Request) -> io::Result<Response> {
    w.queue(request);
    w.flush()?;
    r.recv()
}
