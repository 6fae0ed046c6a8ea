package wire

import (
	"bufio"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"syscall"
)

// Codec names accepted in the handshake preamble.
const (
	CodecGob  = "gob"  // Go-native, compact (the default)
	CodecJSON = "json" // newline-delimited JSON, for non-Go task parties
)

// ErrPeerTimeout marks a session that died because the peer stalled past
// the connection's IO deadline: errors.Is(err, ErrPeerTimeout) on any
// session error distinguishes a vanished or wedged peer from a protocol
// violation.
var ErrPeerTimeout = errors.New("wire: peer timed out")

// ErrRejected marks a session the peer refused with an error envelope
// (unknown market, invalid parameters, no resumable checkpoint). Retrying
// the same session will fail the same way.
var ErrRejected = errors.New("wire: peer rejected the session")

// ErrServerBusy marks a session the server refused with a KindBusy
// envelope: the connection's session cap is reached, or the market is
// migrating. Unlike ErrRejected, retrying after a backoff is reasonable.
var ErrServerBusy = errors.New("wire: server busy")

// ErrRedirected marks a connection the server answered with a KindRedirect
// envelope: it does not own the requested market and named the shard that
// does. Match the concrete *RedirectError with errors.As to learn the
// owner's address; errors.Is(err, ErrRedirected) also reports true.
var ErrRedirected = errors.New("wire: session redirected")

// RedirectError is the typed surface of a KindRedirect answer: the market
// asked for, the owning shard's address, and the shard-map epoch the
// answer was derived from. It matches ErrRedirected under errors.Is.
type RedirectError struct {
	Market string
	Addr   string
	Epoch  uint64
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("wire: market %q is served at %s (shard-map epoch %d)", e.Market, e.Addr, e.Epoch)
}

// Is matches the ErrRedirected sentinel, so callers without the concrete
// type can still classify the failure.
func (e *RedirectError) Is(target error) bool { return target == ErrRedirected }

// Codec frames protocol envelopes on a connection. Implementations are not
// safe for concurrent use; the protocol is strictly half-duplex per
// session.
type Codec interface {
	// Name returns the handshake name of the codec ("gob", "json").
	Name() string
	Send(e *Envelope) error
	Recv() (*Envelope, error)
}

// NewCodec builds the named unframed codec over a reader/writer pair: one
// encoder and one decoder over the whole stream, writing through. Servers
// answer a retired preamble in it; tests play sessions over it on
// net.Pipe.
func NewCodec(name string, r io.Reader, w io.Writer) (Codec, error) {
	switch name {
	case CodecGob:
		return &gobCodec{enc: gob.NewEncoder(w), dec: gob.NewDecoder(r)}, nil
	case CodecJSON:
		return &jsonCodec{enc: json.NewEncoder(w), dec: json.NewDecoder(r)}, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (have %s)", name, strings.Join(CodecNames(), ", "))
	}
}

// CodecNames lists the supported codec names.
func CodecNames() []string { return []string{CodecGob, CodecJSON} }

type gobCodec struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

func (c *gobCodec) Name() string { return CodecGob }

func (c *gobCodec) Send(e *Envelope) error { return c.enc.Encode(e) }

func (c *gobCodec) Recv() (*Envelope, error) {
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

type jsonCodec struct {
	enc *json.Encoder
	dec *json.Decoder
}

func (c *jsonCodec) Name() string { return CodecJSON }

func (c *jsonCodec) Send(e *Envelope) error { return c.enc.Encode(e) }

func (c *jsonCodec) Recv() (*Envelope, error) {
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// link wraps a Codec with the session-level framing rules: kind checking,
// peer-error unwrapping, and timeout classification.
type link struct {
	c Codec
}

func (l link) send(e *Envelope) error {
	if err := l.c.Send(e); err != nil {
		return classify(fmt.Errorf("wire: send %v: %w", e.Kind, err))
	}
	return nil
}

func (l link) recv(want Kind) (*Envelope, error) { return l.recvAny(want) }

// recvAny receives the next envelope and checks it is one of the wanted
// kinds. A KindError envelope surfaces as an error regardless of wants.
func (l link) recvAny(wants ...Kind) (*Envelope, error) {
	e, err := l.c.Recv()
	if err != nil {
		return nil, classify(fmt.Errorf("wire: recv: %w", err))
	}
	if e.Kind == KindError || e.Kind == KindBusy {
		msg := "unspecified"
		if e.Err != nil {
			msg = e.Err.Msg
		}
		if e.Kind == KindBusy {
			return nil, fmt.Errorf("%w: %s", ErrServerBusy, msg)
		}
		return nil, fmt.Errorf("%w: %s", ErrRejected, msg)
	}
	if e.Kind == KindRedirect {
		if e.Redirect == nil {
			return nil, fmt.Errorf("wire: redirect envelope without payload")
		}
		return nil, &RedirectError{Market: e.Redirect.Market, Addr: e.Redirect.Addr, Epoch: e.Redirect.Epoch}
	}
	for _, w := range wants {
		if e.Kind == w {
			if payloadMissing(e) {
				return nil, fmt.Errorf("wire: %v envelope without payload", e.Kind)
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("wire: got message kind %v, want %v", e.Kind, wants)
}

// payloadMissing reports a well-framed envelope whose kind-matching payload
// pointer is nil — a malformed peer that must fail the session cleanly
// rather than panic it on dereference.
func payloadMissing(e *Envelope) bool {
	switch e.Kind {
	case KindHello:
		return e.Hello == nil
	case KindQuote:
		return e.Quote == nil
	case KindOffer:
		return e.Offer == nil
	case KindSettle:
		return e.Settle == nil
	case KindClientHello:
		return e.Client == nil
	case KindAck:
		return e.Ack == nil
	case KindStats:
		return e.Stats == nil
	case KindOpen:
		return e.Client == nil
	default:
		return false
	}
}

// classify tags IO timeouts with ErrPeerTimeout so callers can tell a
// stalled peer from a protocol violation.
func classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrPeerTimeout, err)
	}
	return err
}

// IsTransportError reports whether err is a transport-layer failure — the
// peer vanished, stalled, reset, or walked away — as opposed to a protocol
// violation (malformed envelopes, bad frames, decode garbage). The server
// uses the distinction to count chaos-class session deaths as Dropped
// rather than Failed: a client that crashes mid-session did nothing wrong
// at the protocol level, and a fleet assertion of Failed==0 should survive
// any amount of connection churn.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrPeerTimeout),
		errors.Is(err, ErrMuxClosed),
		errors.Is(err, ErrSessionCancelled),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// handshakeMagic and muxToken spell the one preamble every connection opens
// with, "VFLM/6 <codec> mux\n": after it, every envelope travels in a
// length-prefixed frame and carries a session ID. The framing choice lives
// in the preamble — not in the ClientHello — because both gob and JSON
// decoders read ahead of the envelope they decode, so it must be settled
// before any codec touches the stream.
const (
	handshakeMagic = "VFLM/6"
	muxToken       = "mux"
)

// maxHandshakeLen bounds the preamble line so garbage connections fail
// fast.
const maxHandshakeLen = 64

// WriteMuxHandshake sends the preamble naming the codec the client will
// speak.
func WriteMuxHandshake(w io.Writer, codecName string) error {
	if _, err := fmt.Fprintf(w, "%s %s %s\n", handshakeMagic, codecName, muxToken); err != nil {
		return classify(fmt.Errorf("wire: handshake: %w", err))
	}
	return nil
}

// readHandshake consumes the preamble and returns the codec it names. Only
// "VFLM/6 gob mux" and "VFLM/6 json mux" are accepted. A retired spelling —
// "VFLM/N <codec>" without the mux token, as serial clients of earlier
// protocol versions wrote it — fails with refuse naming the codec its
// client reads, so the refusal can be answered in it; any other line fails
// with refuse empty.
func readHandshake(br *bufio.Reader) (codecName, refuse string, err error) {
	line, err := readLine(br, maxHandshakeLen)
	if err != nil {
		return "", "", classify(fmt.Errorf("wire: handshake: %w", err))
	}
	switch line {
	case handshakeMagic + " " + CodecGob + " " + muxToken:
		return CodecGob, "", nil
	case handshakeMagic + " " + CodecJSON + " " + muxToken:
		return CodecJSON, "", nil
	}
	err = fmt.Errorf("wire: handshake: bad preamble %q (this server speaks only %q)",
		line, handshakeMagic+" <codec> "+muxToken)
	if f := strings.Fields(line); len(f) == 2 && isVersionMagic(f[0]) && slices.Contains(CodecNames(), f[1]) {
		return "", f[1], err
	}
	return "", "", err
}

// isVersionMagic reports whether s spells "VFLM/N" for a decimal N.
func isVersionMagic(s string) bool {
	n, ok := strings.CutPrefix(s, "VFLM/")
	if !ok || n == "" {
		return false
	}
	for i := 0; i < len(n); i++ {
		if n[i] < '0' || n[i] > '9' {
			return false
		}
	}
	return true
}

func readLine(br *bufio.Reader, max int) (string, error) {
	var b strings.Builder
	for b.Len() <= max {
		c, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if c == '\n' {
			return b.String(), nil
		}
		b.WriteByte(c)
	}
	return "", fmt.Errorf("preamble exceeds %d bytes", max)
}

// flusher is satisfied by codecs that buffer writes (the framed codec and
// its mux sessions). NewCodec's stream codecs write through and need no
// flushing.
type flusher interface{ Flush() error }

// Flush pushes any buffered frames of c to the connection. A no-op for
// codecs that write through.
func Flush(c Codec) error {
	if f, ok := c.(flusher); ok {
		return f.Flush()
	}
	return nil
}

// SendError sends a rejection envelope (best effort; the caller closes the
// connection or session afterwards).
func SendError(c Codec, format string, args ...any) {
	_ = c.Send(&Envelope{Kind: KindError, Err: &ErrorMsg{Msg: fmt.Sprintf(format, args...)}})
	_ = Flush(c)
}

// SendBusy sends the retryable refusal: the session was turned away for
// load (the connection's session cap) or because its market is migrating.
// Clients see ErrServerBusy and may retry with backoff. Best effort, like
// SendError.
func SendBusy(c Codec, format string, args ...any) {
	_ = c.Send(&Envelope{Kind: KindBusy, Err: &ErrorMsg{Msg: fmt.Sprintf(format, args...)}})
	_ = Flush(c)
}

// SendRedirect sends the shard-routing answer in place of the Hello: the
// server does not own the market, and the client should redial Addr. The
// connection (or, for a stream hello, the session) closes after it. Best
// effort, like SendError.
func SendRedirect(c Codec, r *Redirect) {
	_ = c.Send(&Envelope{Kind: KindRedirect, Redirect: r})
	_ = Flush(c)
}
