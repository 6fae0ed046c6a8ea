package wire

import (
	"context"
	"net"
	"testing"
	"time"
)

// Failure injection: the protocol endpoints must fail cleanly — returning
// errors, never hanging or panicking — when the peer disappears or
// misbehaves mid-session.

func TestServerSurvivesClientDisconnectAfterHello(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 41)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, clientConn, errCh := servePipe(t, srv)
	if _, err := c.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	clientConn.Close() // vanish before quoting
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server treated a dropped client as a clean session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on client disconnect")
	}
}

func TestServerSurvivesClientDisconnectMidRound(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 43)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, clientConn, errCh := servePipe(t, srv)
	if _, err := c.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	// Quote, take the offer, then vanish before settling.
	if err := c.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: 10, Base: 2, High: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(KindOffer); err != nil {
		t.Fatal(err)
	}
	clientConn.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server treated a mid-round drop as clean")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on mid-round disconnect")
	}
}

func TestClientSurvivesServerDisconnect(t *testing.T) {
	_, cfg, gains := buildMarket(t, 47)
	clientConn, serverConn := net.Pipe()
	go func() {
		// A "server" that sends Hello and dies.
		c, _ := NewCodec(CodecGob, serverConn, serverConn)
		c.Send(&Envelope{Kind: KindHello, Hello: &Hello{}}) //nolint:errcheck
		serverConn.Close()
	}()
	client := &TaskClient{Session: cfg, Gains: gains}
	done := make(chan error, 1)
	go func() {
		c, _ := NewCodec(CodecGob, clientConn, clientConn)
		he, err := link{c}.recv(KindHello)
		if err == nil {
			_, err = client.BargainCodec(context.Background(), c, he.Hello)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("client treated a dead server as a clean session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on server disconnect")
	}
	clientConn.Close()
}

// TestClientRejectsMalformedHello: a server that answers a session open
// with anything but a Hello fails the open cleanly.
func TestClientRejectsMalformedHello(t *testing.T) {
	mc, shutdown := startMuxServer(t, 5*time.Second, 0, func(st *MuxStream, _ *ClientHello) {
		// Wrong kind first.
		st.Send(&Envelope{Kind: KindOffer, Offer: &Offer{}}) //nolint:errcheck
	})
	defer shutdown()
	done := make(chan error, 1)
	go func() {
		_, _, err := mc.Open(context.Background(), ClientHello{}, 5*time.Second)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("client accepted a non-Hello opener")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on malformed hello")
	}
}

func TestServerRoundCapEndsRunawaySession(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 59)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxRounds = 3
	c, clientConn, errCh := servePipe(t, srv)
	if _, err := c.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	// A client that quotes forever without ever accepting.
	for i := 0; i < 4; i++ {
		if err := c.send(&Envelope{Kind: KindQuote,
			Quote: &Quote{Rate: 10, Base: 2, High: 4 + float64(i)*0.01}}); err != nil {
			break // server already gave up — also acceptable
		}
		oe, err := c.recv(KindOffer)
		if err != nil {
			break
		}
		if oe.Offer.Fail {
			t.Fatal("unexpected Case 1")
		}
		if err := c.send(&Envelope{Kind: KindSettle,
			Settle: &Settle{Gain: 0.01, Decision: DecisionContinue}}); err != nil {
			break
		}
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server allowed a runaway session past its round cap")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung past its round cap")
	}
	clientConn.Close()
}
