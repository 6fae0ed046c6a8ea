package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindClientHello, Client: &ClientHello{Version: 2, Market: "titanic", ListOnly: true}},
		{Kind: KindHello, Hello: &Hello{
			Version: 2, Market: "credit", Markets: []string{"titanic", "credit"},
			Bundles: []BundleInfo{{ID: 0, Features: []int{0, 2}}},
			Secure:  true, PubN: []byte{1, 2, 3},
		}},
		{Kind: KindQuote, Quote: &Quote{Round: 3, Rate: 1.25, Base: 0.5, High: 2.75, U: 1000, Target: 0.125}},
		{Kind: KindOffer, Offer: &Offer{BundleID: 4, Features: []int{1, 3}, Accept: true, TargetBundleID: 7}},
		{Kind: KindOffer, Offer: &Offer{BundleID: -1, Fail: true, Reason: "Case 1", TargetBundleID: 2}},
		{Kind: KindSettle, Settle: &Settle{Round: 3, Decision: DecisionAccept, Gain: 0.1119}},
		{Kind: KindError, Err: &ErrorMsg{Msg: "unknown market"}},
	}
}

// TestCodecsRoundTripEnvelopes: every envelope shape must survive both
// codecs bit-exactly (floats included — both gob and Go's JSON encoder
// round-trip float64 exactly).
func TestCodecsRoundTripEnvelopes(t *testing.T) {
	for _, name := range CodecNames() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			c, err := NewCodec(name, &buf, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sampleEnvelopes() {
				if err := c.Send(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range sampleEnvelopes() {
				got, err := c.Recv()
				if err != nil {
					t.Fatalf("recv %v: %v", want.Kind, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
				}
			}
		})
	}
	if _, err := NewCodec("xml", nil, nil); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	for _, codec := range CodecNames() {
		var buf bytes.Buffer
		if err := WriteMuxHandshake(&buf, codec); err != nil {
			t.Fatal(err)
		}
		name, refuse, err := readHandshake(bufio.NewReader(&buf))
		if err != nil || name != codec || refuse != "" {
			t.Fatalf("%s preamble read back as codec=%q refuse=%q err=%v", codec, name, refuse, err)
		}
	}

	for _, bad := range []string{"", "HTTP/1.1 GET /\n", "VFLM/1 gob\n", "VFLM/2 gob json extra\n",
		"VFLM/6 xml mux\n", "VFLM/5 gob mux\n", "VFLM/6  gob mux\n",
		"VFLM/2 " + string(bytes.Repeat([]byte("x"), 100)) + "\n"} {
		if _, _, err := readHandshake(bufio.NewReader(bytes.NewBufferString(bad))); err == nil {
			t.Fatalf("bad preamble %q accepted", bad)
		}
	}
	// The retired serial spellings are refused in the codec they named.
	for _, retired := range []string{"VFLM/2 json\n", "VFLM/5 gob\n", "VFLM/6 json\n", "VFLM/7 gob\n"} {
		_, refuse, err := readHandshake(bufio.NewReader(bytes.NewBufferString(retired)))
		if err == nil || refuse != strings.Fields(retired)[1] {
			t.Fatalf("retired preamble %q: refuse=%q err=%v", retired, refuse, err)
		}
	}
}

// TestServeCodecTimesOutOnStalledClient is the deadline fix: a client that
// opens a session and then goes silent must fail the server's session loop
// with an ErrPeerTimeout-classified error — the stream's own receive timer
// — instead of hanging ServeCodec forever.
func TestServeCodecTimesOutOnStalledClient(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 61)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	hello := mustHello(t, srv)
	errCh := make(chan error, 1)
	mc, shutdown := startMuxServer(t, 50*time.Millisecond, 0, func(st *MuxStream, _ *ClientHello) {
		_, err := srv.ServeCodec(st, hello)
		errCh <- err
	})
	defer shutdown()
	// Take the Hello, then stall without ever quoting.
	s, _, err := mc.Open(context.Background(), ClientHello{}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("err = %v, want ErrPeerTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on a stalled client despite its IO timeout")
	}
}

// TestClientTimesOutOnStalledServer is the client-side mirror: a server
// that never answers the first quote must not hang BargainCodec.
func TestClientTimesOutOnStalledServer(t *testing.T) {
	_, cfg, gains := buildMarket(t, 67)
	mc, shutdown := startMuxServer(t, time.Minute, 0, func(st *MuxStream, _ *ClientHello) {
		// Say hello, then go silent (swallow the client's quote).
		l := link{st}
		l.send(&Envelope{Kind: KindHello, Hello: &Hello{}}) //nolint:errcheck
		l.recv(KindQuote)                                   //nolint:errcheck
	})
	defer shutdown()
	s, hello, err := mc.Open(context.Background(), ClientHello{}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := &TaskClient{Session: cfg, Gains: gains}
	done := make(chan error, 1)
	go func() {
		_, err := client.BargainCodec(context.Background(), s, hello)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("err = %v, want ErrPeerTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on a stalled server despite its IO timeout")
	}
}
