package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanSession      = "session"       // one traced production-path session
	spanReplay       = "replay"        // one in-process replay session
	spanSend         = "wire.send"     // Codec.Send on the session stream
	spanRecv         = "wire.recv"     // Codec.Recv: waiting for the server's answer
	spanFlush        = "wire.flush"    // explicit flush of the stream
	spanGain         = "vfl.gain"      // GainProvider.Gain
	spanSellerOffer  = "seller.offer"  // EstimatorSeller.Offer
	spanSellerSettle = "seller.settle" // EstimatorSeller.Settle
	spanSeal         = "secure.seal"   // SettlementCipher.Seal
	spanOpen         = "secure.open"   // SettlementCipher.Open
	spanAnswer       = "core.answer"   // Seller.Offer through core.AnswerQuote
)

// span is one timed call: name, start and end (ns since the tracer's
// epoch), the index of its parent span (-1 for a root) and its session.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	SID    int64
}

// tracer keeps every span in memory; write dumps them at exit.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// roundGapsUS are the intervals between consecutive RoundObserver
	// calls of a session: one pipelined round trip each.
	roundGapsUS []float64
	sessions    int // production-path sessions kept
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// sessionTrace collects one session's spans without locking; end moves
// them into the tracer. Spans other than the root are children of it.
type sessionTrace struct {
	t      *tracer
	sid    int64
	root   string
	start  int64
	spans  []span
	rounds []int64 // RoundObserver call times
}

func (t *tracer) begin(sid int64, root string) *sessionTrace {
	return &sessionTrace{t: t, sid: sid, root: root, start: t.now()}
}

func (s *sessionTrace) add(name string, start int64) {
	s.spans = append(s.spans, span{Name: name, Start: start, End: s.t.now(), SID: s.sid})
}

// keptSessions bounds how many production-path sessions keep their spans,
// so a traced run's memory and span file stay small on fast workloads.
// Later sessions still run through the same wrappers.
const keptSessions = 1000

// end closes the root span and hands the session's spans to the tracer.
func (s *sessionTrace) end() {
	root := span{Name: s.root, Start: s.start, End: s.t.now(), Parent: -1, SID: s.sid}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.root == spanSession {
		if s.t.sessions >= keptSessions {
			return
		}
		s.t.sessions++
	}
	ri := len(s.t.spans)
	s.t.spans = append(s.t.spans, root)
	for _, sp := range s.spans {
		sp.Parent = ri
		s.t.spans = append(s.t.spans, sp)
	}
	for i := 1; i < len(s.rounds); i++ {
		s.t.roundGapsUS = append(s.t.roundGapsUS, float64(s.rounds[i]-s.rounds[i-1])/1e3)
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, sp := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"sid\":%d}\n",
			sp.Name, sp.Start, sp.End, sp.Parent, sp.SID)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats aggregates the spans of sessions with the given root name:
// per child name the call count and total time, and the roots' own count,
// total and self time (duration minus what their children cover; children
// of one session never overlap, the protocol being half-duplex).
type spanStats struct {
	sessions int
	total    time.Duration
	self     time.Duration
	calls    map[string]int
	time     map[string]time.Duration
}

func (t *tracer) stats(root string) spanStats {
	st := spanStats{calls: map[string]int{}, time: map[string]time.Duration{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := map[int]time.Duration{}
	for _, sp := range t.spans {
		if sp.Parent >= 0 && t.spans[sp.Parent].Name == root {
			d := time.Duration(sp.End - sp.Start)
			st.calls[sp.Name]++
			st.time[sp.Name] += d
			childTime[sp.Parent] += d
		}
	}
	for i, sp := range t.spans {
		if sp.Parent == -1 && sp.Name == root {
			d := time.Duration(sp.End - sp.Start)
			st.sessions++
			st.total += d
			st.self += d - childTime[i]
		}
	}
	return st
}

// perCallUS is the mean time of one call of the named span, in µs.
func (s spanStats) perCallUS(name string) float64 {
	if s.calls[name] == 0 {
		return 0
	}
	return float64(s.time[name]) / float64(s.calls[name]) / 1e3
}

// perSession is the mean number of calls of the named span per session.
func (s spanStats) perSession(name string) float64 {
	if s.sessions == 0 {
		return 0
	}
	return float64(s.calls[name]) / float64(s.sessions)
}

// usPerSession is the mean time per session spent in the named span.
func (s spanStats) usPerSession(name string) float64 {
	if s.sessions == 0 {
		return 0
	}
	return float64(s.time[name]) / float64(s.sessions) / 1e3
}

// timedCodec times the session stream TaskClient plays on.
type timedCodec struct {
	inner wire.Codec
	st    *sessionTrace
}

func (s *sessionTrace) codec(c wire.Codec) wire.Codec { return &timedCodec{inner: c, st: s} }

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) Send(e *wire.Envelope) error {
	t0 := c.st.t.now()
	err := c.inner.Send(e)
	c.st.add(spanSend, t0)
	return err
}

func (c *timedCodec) Recv() (*wire.Envelope, error) {
	t0 := c.st.t.now()
	e, err := c.inner.Recv()
	c.st.add(spanRecv, t0)
	return e, err
}

// Flush keeps the stream's buffered-write behaviour visible through the
// wrapper (wire.Flush looks for this method).
func (c *timedCodec) Flush() error {
	t0 := c.st.t.now()
	err := wire.Flush(c.inner)
	c.st.add(spanFlush, t0)
	return err
}

// gains times the task party's gain provider.
func (s *sessionTrace) gains(g core.GainProvider) core.GainProvider {
	return core.GainFunc(func(features []int) float64 {
		t0 := s.t.now()
		v := g.Gain(features)
		s.add(spanGain, t0)
		return v
	})
}

// observer records when each realized round reaches the task party.
func (s *sessionTrace) observer() core.RoundObserver {
	return core.ObserverFuncs{Round: func(core.RoundRecord) { s.rounds = append(s.rounds, s.t.now()) }}
}

// timedSeller times a seller's Offer and Settle under the given names and
// keeps the quotes it was asked, with their rounds, for replay.
type timedSeller struct {
	inner         core.Seller
	st            *sessionTrace
	offer, settle string
	quotes        []quoteAt
}

type quoteAt struct {
	round int
	q     core.QuotedPrice
}

func (s *timedSeller) Offer(round int, q core.QuotedPrice) (core.SellerOffer, error) {
	s.quotes = append(s.quotes, quoteAt{round, q})
	t0 := s.st.t.now()
	o, err := s.inner.Offer(round, q)
	s.st.add(s.offer, t0)
	return o, err
}

func (s *timedSeller) Settle(round int, rec core.RoundRecord, d core.SettleDecision) error {
	t0 := s.st.t.now()
	err := s.inner.Settle(round, rec, d)
	if s.settle != "" {
		s.st.add(s.settle, t0)
	}
	return err
}

func (s *timedSeller) Abandon(round int) error { return s.inner.Abandon(round) }

// DataMSE forwards the estimator seller's learning curve, so the replayed
// ImperfectResult is complete.
func (s *timedSeller) DataMSE() []float64 {
	if r, ok := s.inner.(core.MSEReporter); ok {
		return r.DataMSE()
	}
	return nil
}

// timedCipher times a settlement cipher. It is shared by one replay
// session at a time.
type timedCipher struct {
	inner core.SettlementCipher
	st    *sessionTrace
}

func (c *timedCipher) Seal(p float64) ([]byte, error) {
	t0 := c.st.t.now()
	ct, err := c.inner.Seal(p)
	c.st.add(spanSeal, t0)
	return ct, err
}

func (c *timedCipher) Open(ct []byte) (float64, error) {
	t0 := c.st.t.now()
	p, err := c.inner.Open(ct)
	c.st.add(spanOpen, t0)
	return p, err
}

// ioCounts counts reads, writes and bytes on connections.
type ioCounts struct {
	reads, writes, readBytes, writeBytes atomic.Int64
}

// ioSnap is a point-in-time copy of ioCounts.
type ioSnap struct{ reads, writes, readBytes, writeBytes int64 }

func (c *ioCounts) snapshot() ioSnap {
	return ioSnap{c.reads.Load(), c.writes.Load(), c.readBytes.Load(), c.writeBytes.Load()}
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{a.reads - b.reads, a.writes - b.writes, a.readBytes - b.readBytes, a.writeBytes - b.writeBytes}
}

// countingConn counts the calls and bytes crossing one connection.
type countingConn struct {
	net.Conn
	n *ioCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.reads.Add(1)
	c.n.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.writes.Add(1)
	c.n.writeBytes.Add(int64(n))
	return n, err
}

// countingListener counts the server side of every accepted connection.
type countingListener struct {
	net.Listener
	n ioCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.n}, nil
}
