//! Byte-stream transports.
//!
//! The whole HTTP stack is written against [`ByteStream`] (blocking
//! `Read + Write`): `std::net::TcpStream` through the blanket impl, and
//! in tests an in-memory duplex pipe that runs the server loop without
//! sockets.
//!
//! The crawler's in-process "virtual internet" uses a third, thread-free
//! transport defined in `virtual_net`.

use std::io::{Read, Write};

/// A blocking, bidirectional byte stream.
pub trait ByteStream: Read + Write + Send {}

impl<T: Read + Write + Send> ByteStream for T {}

#[cfg(test)]
pub(crate) mod pipe {
    //! An in-memory duplex stream over `std::sync::mpsc` channels.

    use std::io::{self, Read, Write};
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// One end of an in-memory duplex pipe.
    pub(crate) struct MemStream {
        tx: Sender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
        /// The chunk currently being read; `pending[offset..]` is unconsumed.
        pending: Vec<u8>,
        offset: usize,
        /// Set once the write side has been shut down.
        closed: bool,
    }

    /// Creates a connected pair of in-memory streams. Bytes written to one end
    /// become readable at the other; dropping an end signals EOF.
    pub(crate) fn mem_pipe() -> (MemStream, MemStream) {
        let (atx, brx) = channel();
        let (btx, arx) = channel();
        (
            MemStream {
                tx: atx,
                rx: arx,
                pending: Vec::new(),
                offset: 0,
                closed: false,
            },
            MemStream {
                tx: btx,
                rx: brx,
                pending: Vec::new(),
                offset: 0,
                closed: false,
            },
        )
    }

    impl MemStream {
        /// Shuts down the write half: the peer will observe EOF after draining
        /// buffered chunks. Reading remains possible.
        pub(crate) fn shutdown_write(&mut self) {
            // Replacing the sender with a dropped one closes the channel.
            let (dead_tx, _) = channel();
            self.tx = dead_tx;
            self.closed = true;
        }
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.offset == self.pending.len() {
                match self.rx.recv() {
                    Ok(chunk) => {
                        self.pending = chunk;
                        self.offset = 0;
                    }
                    Err(_) => return Ok(0), // peer dropped: EOF
                }
            }
            let rest = &self.pending[self.offset..];
            let n = rest.len().min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.offset += n;
            Ok(n)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "write end shut down",
                ));
            }
            self.tx
                .send(buf.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::pipe::*;
    use std::io::{Read, Write};
    use std::thread;

    #[test]
    fn bytes_cross_the_pipe() {
        let (mut a, mut b) = mem_pipe();
        a.write_all(b"hello").expect("write");
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn short_reads_consume_chunks_incrementally() {
        let (mut a, mut b) = mem_pipe();
        a.write_all(b"abcdef").expect("write");
        let mut buf = [0u8; 2];
        for expected in [b"ab", b"cd", b"ef"] {
            b.read_exact(&mut buf).expect("read");
            assert_eq!(&buf, expected);
        }
    }

    #[test]
    fn drop_signals_eof() {
        let (a, mut b) = mem_pipe();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).expect("read"), 0);
    }

    #[test]
    fn shutdown_write_signals_eof_but_allows_reading() {
        let (mut a, mut b) = mem_pipe();
        a.write_all(b"last").expect("write");
        a.shutdown_write();
        assert!(a.write_all(b"more").is_err());

        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).expect("read buffered");
        assert_eq!(&buf, b"last");
        assert_eq!(b.read(&mut buf).expect("eof"), 0);

        // The a-side can still read what b writes.
        b.write_all(b"resp").expect("write back");
        a.read_exact(&mut buf).expect("read back");
        assert_eq!(&buf, b"resp");
    }

    #[test]
    fn works_across_threads() {
        let (mut a, mut b) = mem_pipe();
        let t = thread::spawn(move || {
            let mut buf = Vec::new();
            b.read_to_end(&mut buf).expect("read all");
            buf
        });
        for _ in 0..100 {
            a.write_all(&[7u8; 1000]).expect("write");
        }
        drop(a);
        let got = t.join().expect("join");
        assert_eq!(got.len(), 100_000);
        assert!(got.iter().all(|&b| b == 7));
    }
}
