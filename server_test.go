package vflmarket

// End-to-end tests of the public market service: one multi-market Server
// process, concurrent clients over both codecs, cancellation, malformed
// peers, and the bit-identical-to-in-process contract. All of it runs
// under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// testEngines builds the two synthetic market engines every service test
// shares (small scale keeps construction fast).
func testEngines(t testing.TB) map[string]*Engine {
	t.Helper()
	engines := map[string]*Engine{}
	for _, name := range []string{"titanic", "credit"} {
		e, err := NewEngine(name, WithSynthetic(true), WithScale(0.25), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = e
	}
	return engines
}

// startServer serves the engines on a loopback listener and returns the
// address plus a shutdown function that stops the server and waits for
// Serve to return.
func startServer(t testing.TB, engines map[string]*Engine, opts ...ServerOption) (*Server, string, func()) {
	t.Helper()
	srv := NewServer(opts...)
	for _, name := range []string{"titanic", "credit"} {
		if e, ok := engines[name]; ok {
			if err := srv.Register(name, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	shutdown := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	}
	return srv, ln.Addr().String(), shutdown
}

// TestServiceMultiMarketConcurrentClients is the acceptance scenario: one
// server, two named markets, eight concurrent clients split across markets
// and codecs, every result bit-identical to the in-process engine run with
// the same seed.
func TestServiceMultiMarketConcurrentClients(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		market := "titanic"
		if i%2 == 1 {
			market = "credit"
		}
		codec := CodecGob
		if i%4 >= 2 {
			codec = CodecJSON
		}
		seed := uint64(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine := engines[market]
			client, err := Dial(context.Background(), addr,
				WithMarket(market),
				WithCodec(codec),
				WithSession(engine.Session()),
				WithGains(engine.CatalogGains()),
			)
			if err != nil {
				errs <- err
				return
			}
			got, err := client.Bargain(context.Background(), BargainOptions{Seed: seed})
			if err != nil {
				errs <- fmt.Errorf("%s/%s: %w", market, codec, err)
				return
			}
			want, err := engine.Bargain(context.Background(), BargainOptions{Seed: seed})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("%s/%s seed %d: networked result diverges from in-process:\nwire:   %+v\nengine: %+v",
					market, codec, seed, got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.Sessions != clients || m.Failed != 0 {
		t.Fatalf("metrics = %+v, want %d clean sessions", m, clients)
	}
}

// TestServiceSecureSettlementMatchesClearPayment runs the Paillier
// passthrough end to end: the decrypted server-side payment must match the
// client's cleartext expectation.
func TestServiceSecureSettlementMatchesClearPayment(t *testing.T) {
	engines := testEngines(t)
	events := make(chan SessionEvent, 4)
	_, addr, shutdown := startServer(t, engines,
		WithSecureSettlement(128),
		WithSessionHook(func(ev SessionEvent) { events <- ev }),
	)
	defer shutdown()

	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	if !client.Secure() {
		t.Fatal("server did not announce secure settlement")
	}
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	var ev SessionEvent
	for ev.Summary == nil { // skip the Dial probe's listing event
		select {
		case ev = <-events:
		case <-time.After(5 * time.Second):
			t.Fatal("no session event")
		}
	}
	if !ev.Summary.Closed {
		t.Fatal("server did not record the close")
	}
	if diff := ev.Summary.Payment - res.Final.Payment; diff > 1e-5 || diff < -1e-5 {
		t.Fatalf("decrypted payment %v vs client expectation %v", ev.Summary.Payment, res.Final.Payment)
	}
}

// TestServiceCancellationMidSession cancels the context from a round
// observer: the session must stop between rounds with the context's error,
// and the server must survive to serve the next client.
func TestServiceCancellationMidSession(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	obs := ObserverFuncs{Round: func(RoundRecord) {
		rounds++
		if rounds == 1 {
			cancel()
		}
	}}
	_, err = client.Bargain(ctx, BargainOptions{Seed: 7, Observers: []RoundObserver{obs}})
	if err == nil {
		t.Fatal("cancelled session returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The server keeps serving after the aborted session.
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("follow-up session outcome = %v", res.Outcome)
	}
}

// TestServiceMalformedClient feeds the server a valid handshake followed by
// a malformed envelope, then raw preamble garbage: both must fail their own
// session cleanly and leave the server serving.
func TestServiceMalformedClient(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	// A JSON client that opens correctly and then sends a well-framed Quote
	// envelope with no payload — the session must fail cleanly, not panic
	// the server on a nil dereference.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := wire.OpenMux(conn, CodecJSON, wire.ClientHello{Market: "titanic", ListOnly: true}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, hello, err := mc.Open(context.Background(), wire.ClientHello{Market: "titanic"}, 5*time.Second)
	if err != nil { // the Hello
		t.Fatalf("no hello: %v", err)
	}
	if hello.Market != "titanic" {
		t.Fatalf("hello market = %q", hello.Market)
	}
	if err := st.Send(&wire.Envelope{Kind: wire.KindQuote}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// Raw garbage instead of a preamble.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn2.Close()

	// A healthy client still gets served.
	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := srv.Metrics()
		if m.Failed >= 1 && m.Rejected >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %+v, want >= 1 failed and >= 1 rejected", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mc.Close()
}

// TestServiceUnknownMarketAndCodec verifies the fail-fast paths of Dial.
func TestServiceUnknownMarketAndCodec(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	if _, err := Dial(context.Background(), addr, WithMarket("nasdaq")); err == nil {
		t.Fatal("dial to unknown market succeeded")
	} else if !strings.Contains(err.Error(), "nasdaq") {
		t.Fatalf("unknown-market error does not name the market: %v", err)
	}
	if _, err := Dial(context.Background(), addr, WithCodec("xml")); err == nil {
		t.Fatal("dial with unknown codec succeeded")
	}

	client, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := client.Markets(); len(got) != 2 {
		t.Fatalf("markets = %v", got)
	}
	if client.Market() != "titanic" {
		t.Fatalf("default market = %q", client.Market())
	}
	if len(client.Listing()) == 0 {
		t.Fatal("empty listing")
	}
	if _, err := client.Bargain(context.Background(), BargainOptions{}); err == nil {
		t.Fatal("Bargain without a session template succeeded")
	}
}

// TestServiceGracefulShutdown: cancelling the serve context must close the
// listener and return promptly when idle.
func TestServiceGracefulShutdown(t *testing.T) {
	engines := testEngines(t)
	srv := NewServer()
	if err := srv.Register("titanic", engines["titanic"]); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after cancellation")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServiceShutdownRacesHandshake pins the shutdown race of a
// connection's opening: Serve's ctx is cancelled while the opening is
// parked (through the server's connHook) at each end of the window — after
// its Hello went out, so the client's Dial has returned, and before the
// connection registered for draining at all. Either way Serve must drain
// the connection and return promptly instead of waiting out its idle
// timeout.
func TestServiceShutdownRacesHandshake(t *testing.T) {
	engines := testEngines(t)
	for _, stage := range []string{"hello", "accepted"} {
		t.Run(stage, func(t *testing.T) {
			srv := NewServer(WithIdleTimeout(time.Hour))
			if err := srv.Register("titanic", engines["titanic"]); err != nil {
				t.Fatal(err)
			}
			parked, release := make(chan struct{}), make(chan struct{})
			srv.connHook = func(at string) {
				if at == stage {
					close(parked)
					<-release
				}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ctx, ln) }()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			dialed := make(chan error, 1)
			go func() {
				_, _, err := wire.OpenMux(conn, CodecGob, wire.ClientHello{ListOnly: true}, 5*time.Second)
				dialed <- err
			}()
			select {
			case <-parked:
			case <-time.After(5 * time.Second):
				t.Fatal("the opening never reached the hook")
			}
			if stage == "hello" {
				if err := <-dialed; err != nil {
					t.Fatalf("dial in the window: %v", err)
				}
			}

			// Cancel, and release the opening only once Serve's drain pass has
			// run: it must either have found the connection or leave the
			// connection to drain itself.
			cancel()
			for deadline := time.Now().Add(5 * time.Second); ; {
				srv.muxMu.Lock()
				draining := srv.draining
				srv.muxMu.Unlock()
				if draining {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("Serve never started draining")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("server did not shut down")
			}
			if stage == "accepted" {
				if err := <-dialed; err == nil {
					t.Fatal("a connection opened during the drain was served a Hello")
				}
			}
		})
	}
}

// TestServiceBatchOverWire drives many sessions through one Client from a
// worker pool — the Client is safe for concurrent use because every
// Bargain dials its own connection.
func TestServiceBatchOverWire(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	engine := engines["credit"]
	client, err := Dial(context.Background(), addr,
		WithMarket("credit"), WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := client.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = res.Outcome
		}()
	}
	wg.Wait()
	for i, o := range outcomes {
		want, err := engine.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if o != want.Outcome {
			t.Fatalf("seed %d: wire outcome %v vs engine %v", i+1, o, want.Outcome)
		}
	}
}
