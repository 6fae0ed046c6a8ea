package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// The wire frames envelopes by length instead of running one stream
// decoder per connection: every envelope travels as a 4-byte big-endian
// length followed by that many payload bytes in the negotiated codec. The
// frame boundary is what makes multiplexing safe — the demux loop can hand
// whole envelopes to per-session inboxes without any session's decoder
// reading past its own bytes — and the explicit boundary lets both ends
// keep one persistent encoder and decoder per connection (gob's type
// dictionary is transmitted once, not per session) writing through reused
// buffers, which is where the allocation win comes from.

// maxFrameSize bounds a single frame so a corrupt or hostile length prefix
// fails the connection instead of provoking a giant allocation. Listings
// are the largest envelopes and sit far below this.
const maxFrameSize = 16 << 20

// ErrBadFrame tags frame-layer violations — a zero or oversized length
// prefix. Fuzzing and chaos tests match on it to prove a corrupted stream
// fails the connection with a typed error rather than a panic or a giant
// allocation.
var ErrBadFrame = errors.New("wire: invalid frame")

// connBufSize sizes the pooled bufio readers and writers on both ends of a
// framed connection.
const connBufSize = 32 << 10

// Pooled bufio state for framed connections. Connections are long-lived
// (clients pool them warm), so the win is mostly on churny accept paths,
// but recycling keeps even those allocation-flat.
var (
	frameReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}
	frameWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, connBufSize) }}
)

// envelopePool recycles envelopes on the send paths of the framed wire: the
// encoder does not retain its argument, so an envelope can go back to the
// pool as soon as Send returns.
var envelopePool = sync.Pool{New: func() any { return new(Envelope) }}

// getEnvelope returns a zeroed envelope from the pool.
func getEnvelope() *Envelope { return envelopePool.Get().(*Envelope) }

// putEnvelope zeroes and recycles an envelope obtained from getEnvelope.
// Callers must not retain any pointer reachable from it afterwards.
func putEnvelope(e *Envelope) {
	*e = Envelope{}
	envelopePool.Put(e)
}

// frameReader presents the payload bytes of successive frames as one
// continuous logical stream: Read and ReadByte serve the current frame and
// transparently open the next when it is exhausted. Implementing
// io.ByteReader matters — without it gob wraps the reader in its own
// bufio.Reader, which reads ahead past frame boundaries it knows nothing
// about.
type frameReader struct {
	br   *bufio.Reader
	n    int // payload bytes remaining in the current frame
	head [4]byte
}

func (f *frameReader) next() error {
	if _, err := io.ReadFull(f.br, f.head[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(f.head[:])
	if n == 0 || n > maxFrameSize {
		return fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
	}
	f.n = int(n)
	return nil
}

func (f *frameReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for f.n == 0 {
		if err := f.next(); err != nil {
			return 0, err
		}
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.br.Read(p)
	f.n -= n
	return n, err
}

func (f *frameReader) ReadByte() (byte, error) {
	for f.n == 0 {
		if err := f.next(); err != nil {
			return 0, err
		}
	}
	c, err := f.br.ReadByte()
	if err == nil {
		f.n--
	}
	return c, err
}

// encoder and decoder are the common surface of gob and JSON codec state.
type encoder interface{ Encode(e any) error }
type decoder interface{ Decode(e any) error }

// framedCodec is the wire format: persistent codec state on both sides
// of a length-prefixed frame stream. Send encodes into a reused scratch
// buffer and appends length+payload to a buffered writer WITHOUT flushing —
// callers batch envelopes and flush before blocking on a read (see Flush),
// which is what coalesces a pipelined Settle+Quote into a single segment.
// Not safe for concurrent use; the mux layer serializes access.
type framedCodec struct {
	name string

	// send path
	buf  bytes.Buffer
	enc  encoder
	bw   *bufio.Writer
	head [4]byte

	// receive path
	fr  frameReader
	dec decoder
}

// newFramedCodec builds the framed codec over a connection whose preamble
// has already been consumed from br (which must wrap the same stream w
// writes to).
func newFramedCodec(name string, br *bufio.Reader, w io.Writer) (*framedCodec, error) {
	f := &framedCodec{name: name}
	f.fr.br = br
	f.bw = frameWriterPool.Get().(*bufio.Writer)
	f.bw.Reset(w)
	switch name {
	case CodecGob:
		f.enc = gob.NewEncoder(&f.buf)
		f.dec = gob.NewDecoder(&f.fr)
	case CodecJSON:
		f.enc = json.NewEncoder(&f.buf)
		f.dec = json.NewDecoder(&f.fr)
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (have %s)", name, strings.Join(CodecNames(), ", "))
	}
	return f, nil
}

func (f *framedCodec) Name() string { return f.name }

func (f *framedCodec) Send(e *Envelope) error {
	f.buf.Reset()
	if err := f.enc.Encode(e); err != nil {
		// A failed encode may leave half a payload in the scratch buffer but
		// nothing on the wire; the connection is still framed correctly. gob
		// stream state could be inconsistent though, so callers treat this
		// as fatal for the connection.
		return err
	}
	binary.BigEndian.PutUint32(f.head[:], uint32(f.buf.Len()))
	if _, err := f.bw.Write(f.head[:]); err != nil {
		return err
	}
	_, err := f.bw.Write(f.buf.Bytes())
	return err
}

func (f *framedCodec) Recv() (*Envelope, error) {
	var e Envelope
	if err := f.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// Flush pushes buffered frames to the connection. The framed wire's flush
// discipline is "flush before blocking on a read": it is always correct
// (no envelope a peer is waiting for can sit in the buffer while we wait
// for the peer), and it is what lets consecutive sends coalesce into one
// write when the next inbound envelope has already arrived.
func (f *framedCodec) Flush() error { return f.bw.Flush() }

// eofReader parks recycled bufio.Readers on a harmless source.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// release returns the pooled bufio state. Call once, after the connection
// is done; the codec must not be used afterwards.
func (f *framedCodec) release() {
	if f.bw != nil {
		f.bw.Reset(io.Discard)
		frameWriterPool.Put(f.bw)
		f.bw = nil
	}
	if f.fr.br != nil {
		f.fr.br.Reset(eofReader{})
		frameReaderPool.Put(f.fr.br)
		f.fr.br = nil
	}
}
