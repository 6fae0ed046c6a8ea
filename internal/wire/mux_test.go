package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startMuxServer accepts one loopback connection, completes the opening
// with AcceptMux and a connection-level Hello for market "echo", and serves
// the connection's streams with handler. It returns the client's end and a
// shutdown func that tears both ends down.
func startMuxServer(t *testing.T, ioTimeout time.Duration, maxSessions int, handler func(st *MuxStream, ch *ClientHello)) (*MuxConn, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc, _, err := AcceptMux(conn, ioTimeout, 0, maxSessions)
		if err != nil {
			t.Errorf("mux handshake: %v", err)
			return
		}
		if err := sc.SendHello(&Hello{Version: ProtocolVersion, Market: "echo"}); err != nil {
			t.Error(err)
			return
		}
		_ = sc.Serve(handler, nil)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mc, hello, err := OpenMux(conn, CodecGob, ClientHello{Market: "echo", ListOnly: true}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Market != "echo" {
		t.Fatalf("probe hello market = %q", hello.Market)
	}
	return mc, func() {
		mc.Close()
		ln.Close()
		<-done
	}
}

// startMuxEcho runs a mux server whose per-stream handler answers every
// received envelope with an echo of its round stamped KindAck — enough
// protocol to measure liveness per stream without a full market.
func startMuxEcho(t *testing.T, ioTimeout time.Duration) (*MuxConn, func()) {
	return startMuxServer(t, ioTimeout, 0, func(st *MuxStream, ch *ClientHello) {
		if err := st.Send(&Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: "echo"}}); err != nil {
			return
		}
		for {
			e, err := st.Recv()
			if err != nil {
				return
			}
			if err := st.Send(&Envelope{Kind: KindAck, Ack: &Ack{Round: e.Quote.Round}}); err != nil {
				return
			}
		}
	})
}

// TestMuxStalledStreamDoesNotBlockSiblings is the head-of-line-blocking
// guarantee: one stream goes silent after opening — its server handler is
// parked in Recv — while a sibling stream on the same connection keeps
// doing round trips. The sibling must stay at full liveness the whole
// time, the stalled stream must fail on ITS OWN per-stream timer (not a
// connection deadline), and its death must leave the sibling and the
// connection intact.
func TestMuxStalledStreamDoesNotBlockSiblings(t *testing.T) {
	const ioTimeout = 300 * time.Millisecond
	mc, shutdown := startMuxEcho(t, ioTimeout)
	defer shutdown()

	// Stream 1 opens and then never sends: the server handler sits in Recv
	// on its per-stream timer.
	s1, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled stream's receive runs concurrently with the sibling's
	// traffic: it must fail on ITS OWN per-stream timer while the sibling
	// is mid-conversation on the same connection.
	s1Err := make(chan error, 1)
	go func() {
		_, err := (link{s1}).recv(KindAck)
		s1Err <- err
	}()

	// Stream 2 does continuous round trips for several multiples of the IO
	// timeout — long enough that any connection-level deadline or demux
	// blockage caused by the stalled sibling would surface.
	s2, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var rounds atomic.Int64
	deadline := time.Now().Add(4 * ioTimeout)
	l2 := link{s2}
	for round := 1; time.Now().Before(deadline); round++ {
		if err := l2.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: round}}); err != nil {
			t.Fatalf("sibling send at round %d: %v", round, err)
		}
		e, err := l2.recv(KindAck)
		if err != nil {
			t.Fatalf("sibling recv at round %d: %v", round, err)
		}
		if e.Ack.Round != round {
			t.Fatalf("sibling echo got round %d, want %d", e.Ack.Round, round)
		}
		rounds.Add(1)
	}
	if rounds.Load() < 100 {
		t.Fatalf("sibling managed only %d round trips alongside a stalled stream", rounds.Load())
	}

	// The stalled stream timed out on its own per-stream timer mid-loop —
	// not on any connection deadline — and its death must have left the
	// sibling's conversation and the connection intact.
	select {
	case err := <-s1Err:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("stalled stream recv = %v, want ErrPeerTimeout", err)
		}
	default:
		t.Fatal("stalled stream still blocked after 4x its receive timeout")
	}
	s1.Close()
	if err := mc.Err(); err != nil {
		t.Fatalf("stalled stream killed the shared connection: %v", err)
	}

	// And the sibling still works right after the stalled stream died.
	if err := l2.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: 9999}}); err != nil {
		t.Fatal(err)
	}
	if e, err := l2.recv(KindAck); err != nil || e.Ack.Round != 9999 {
		t.Fatalf("sibling after stalled-stream death: e=%+v err=%v", e, err)
	}
	s2.Close()
}

// TestMuxSessionCapAnswersBusy pins the per-connection stream cap: opens
// beyond maxSessions are answered KindBusy on their own SID without
// disturbing admitted streams.
func TestMuxSessionCapAnswersBusy(t *testing.T) {
	const ioTimeout = 2 * time.Second
	mc, shutdown := startMuxServer(t, ioTimeout, 1, func(st *MuxStream, ch *ClientHello) { // one stream only
		if st.Send(&Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: "echo"}}) != nil {
			return
		}
		for {
			if _, err := st.Recv(); err != nil {
				return
			}
		}
	})
	defer shutdown()

	s1, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap open = %v, want ErrServerBusy", err)
	}
	if err := mc.Err(); err != nil {
		t.Fatalf("cap refusal killed the connection: %v", err)
	}
	s1.Close()
}
