package wire

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// mustHello resolves the server's announcement, failing the test on a key
// error (only possible on secure servers whose generation failed).
func mustHello(tb testing.TB, s *DataServer) *Hello {
	tb.Helper()
	h, err := s.Hello()
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// buildMarket constructs a deterministic synthetic market shared by the
// tests.
func buildMarket(t testing.TB, seed uint64) (*core.Catalog, core.SessionConfig, core.GainProvider) {
	t.Helper()
	gains := core.NewSyntheticGains(6, 0.2, 0, rng.New(seed))
	cat := core.NewCatalog(6, core.CatalogConfig{Size: 20}, rng.New(seed), gains)
	target, _ := cat.MaxGain()
	rate, base := cat.SuggestInitialPrice()
	cfg := core.SessionConfig{
		U: 1000, Budget: 8, TargetGain: target,
		InitRate: rate, InitBase: base,
		EpsTask: 1e-3, EpsData: 1e-3,
		MaxRounds: 400, Seed: seed,
	}
	return cat, cfg, gains
}

// servePipe runs srv's perfect-regime session loop over an unframed gob
// codec on one end of a net.Pipe. It returns the client's link on the
// other end (the server's Hello is the first envelope waiting there), the
// client's conn for the caller to close, and the channel the server's
// session error lands on.
func servePipe(t testing.TB, srv *DataServer) (link, net.Conn, <-chan error) {
	t.Helper()
	hello := mustHello(t, srv)
	clientConn, serverConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		c, _ := NewCodec(CodecGob, serverConn, serverConn)
		_, err := srv.ServeCodec(c, hello)
		errCh <- err
	}()
	c, _ := NewCodec(CodecGob, clientConn, clientConn)
	return link{c}, clientConn, errCh
}

// bargainPipe plays TaskClient against srv over an unframed gob codec on
// net.Pipe and returns both sides' views.
func bargainPipe(t *testing.T, srv *DataServer, client *TaskClient) (*core.Result, *SessionSummary, error, error) {
	t.Helper()
	hello := mustHello(t, srv)
	clientConn, serverConn := net.Pipe()
	var (
		sum    *SessionSummary
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer serverConn.Close()
		c, _ := NewCodec(CodecGob, serverConn, serverConn)
		sum, srvErr = srv.ServeCodec(c, hello)
	}()
	c, _ := NewCodec(CodecGob, clientConn, clientConn)
	var res *core.Result
	he, err := link{c}.recv(KindHello)
	if err == nil {
		res, err = client.BargainCodec(context.Background(), c, he.Hello)
	}
	clientConn.Close()
	wg.Wait()
	return res, sum, err, srvErr
}

// runSession wires a client and server over net.Pipe and returns both
// sides' views.
func runSession(t *testing.T, secureMode bool, seed uint64) (*core.Result, *SessionSummary) {
	t.Helper()
	cat, cfg, gains := buildMarket(t, seed)
	srv, err := NewDataServer(cat, cfg.EpsData, secureMode, 128)
	if err != nil {
		t.Fatal(err)
	}
	res, sum, err, srvErr := bargainPipe(t, srv, &TaskClient{Session: cfg, Gains: gains})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return res, sum
}

func TestWireSessionReachesEquilibrium(t *testing.T) {
	res, sum := runSession(t, false, 7)
	if res.Outcome != core.Success {
		t.Fatalf("outcome = %v after %d rounds", res.Outcome, len(res.Rounds))
	}
	if !sum.Closed {
		t.Fatal("server did not record the close")
	}
	if sum.Rounds != len(res.Rounds) {
		t.Fatalf("round mismatch: server %d vs client %d", sum.Rounds, len(res.Rounds))
	}
	if sum.BundleID != res.Final.BundleID {
		t.Fatalf("bundle mismatch: %d vs %d", sum.BundleID, res.Final.BundleID)
	}
	// The settled payment must match Eq. 2 exactly in clear mode.
	if math.Abs(sum.Payment-res.Final.Payment) > 1e-12 {
		t.Fatalf("payment mismatch: %v vs %v", sum.Payment, res.Final.Payment)
	}
}

func TestWireMatchesInProcessEngine(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 9)
	want, err := core.RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runSession(t, false, 9)
	if res.Outcome != want.Outcome {
		t.Fatalf("outcomes differ: wire %v vs engine %v", res.Outcome, want.Outcome)
	}
	if res.Final.BundleID != want.Final.BundleID {
		t.Fatalf("bundles differ: wire %d vs engine %d", res.Final.BundleID, want.Final.BundleID)
	}
	if math.Abs(res.Final.Payment-want.Final.Payment) > 1e-9 {
		t.Fatalf("payments differ: wire %v vs engine %v", res.Final.Payment, want.Final.Payment)
	}
}

func TestWireSecureSettlement(t *testing.T) {
	res, sum := runSession(t, true, 11)
	if res.Outcome != core.Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Paillier settlement reproduces the Eq. 2 payment within fixed-point
	// precision; the gain itself never crossed the wire.
	if math.Abs(sum.Payment-res.Final.Payment) > 1e-5 {
		t.Fatalf("secure payment %v vs expected %v", sum.Payment, res.Final.Payment)
	}
}

func TestWireFailDataWhenBudgetTooSmall(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 13)
	cfg.InitRate, cfg.InitBase = 0.2, 0.01
	cfg.Budget = 0.3
	cfg.U = 10
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err, _ := bargainPipe(t, srv, &TaskClient{Session: cfg, Gains: gains})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.FailData {
		t.Fatalf("outcome = %v, want FailData", res.Outcome)
	}
}

// TestWireOverTCP plays a session the production way: loopback TCP, the
// mux opening, and the session loop on one stream of the connection.
func TestWireOverTCP(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 17)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	hello := mustHello(t, srv)
	done := make(chan *SessionSummary, 1)
	mc, shutdown := startMuxServer(t, 5*time.Second, 0, func(st *MuxStream, _ *ClientHello) {
		sum, _ := srv.ServeCodec(st, hello)
		done <- sum
	})
	defer shutdown()
	s, h, err := mc.Open(context.Background(), ClientHello{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := &TaskClient{Session: cfg, Gains: gains}
	res, err := client.BargainCodec(context.Background(), s, h)
	s.CloseClean()
	if err != nil {
		t.Fatal(err)
	}
	sum := <-done
	if sum == nil {
		t.Fatal("server saw no session")
	}
	if res.Outcome != core.Success || !sum.Closed {
		t.Fatalf("TCP session: client %v, server closed=%v", res.Outcome, sum.Closed)
	}
}

func TestServerRejectsInvalidQuote(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 19)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, clientConn, errCh := servePipe(t, srv)
	if _, err := c.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: -1, Base: 1, High: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted an invalid quote")
	}
	clientConn.Close()
}

func TestServerRejectsWrongMessageKind(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 23)
	srv, err := NewDataServer(cat, cfg.EpsData, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, clientConn, errCh := servePipe(t, srv)
	if _, err := c.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: KindSettle, Settle: &Settle{}}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted an out-of-order message")
	}
	clientConn.Close()
}

func TestSecureSessionRequiresCiphertext(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 29)
	srv, err := NewDataServer(cat, cfg.EpsData, true, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, clientConn, errCh := servePipe(t, srv)
	if _, err := c.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: 10, Base: 2, High: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(KindOffer); err != nil {
		t.Fatal(err)
	}
	// Settle in clear on a secure session: the server must refuse.
	if err := c.send(&Envelope{Kind: KindSettle, Settle: &Settle{Gain: 0.1, Decision: DecisionAccept}}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("secure server accepted a cleartext settlement")
	}
	clientConn.Close()
}

func TestClientValidatesConfig(t *testing.T) {
	_, cfg, gains := buildMarket(t, 31)
	cfg.U = 0.001
	client := &TaskClient{Session: cfg, Gains: gains}
	clientConn, _ := net.Pipe()
	defer clientConn.Close()
	c, _ := NewCodec(CodecGob, clientConn, clientConn)
	if _, err := client.BargainCodec(context.Background(), c, &Hello{}); err == nil {
		t.Fatal("client accepted invalid config")
	}
}
