package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	vflmarket "repro"
	"repro/internal/core"
)

// spanSecureReplay roots the in-process secure replays.
const spanSecureReplay = "replay.secure"

// secureReplaySeeds is how many seeds the secure replay plays, and
// keygens how many key pairs it generates to time key generation.
const (
	secureReplaySeeds = 16
	keygens           = 5
)

// replaySeeds is how many of the run's session seeds the in-process
// replays play; counts taken from them depend on the seed alone.
func replaySeeds(wl *workload) int {
	switch wl.mode {
	case muxImperfect, muxSecure:
		return 16
	default:
		return 64
	}
}

// layerRun is what the traced run adds up to.
type layerRun struct {
	phases            []*phase
	attempted, failed int // replays and calibration sessions
}

// traced plays half the window untraced, for counters and the untraced
// latency, and half through the tracing wrappers, then replays a fixed
// seed list in-process with each layer wrapped, and derives every
// per-layer metric.
func traced(ctx context.Context, r *rig, seq *seedSeq, dur time.Duration, setups []setupTimes, o options, m map[string]metric) (*layerRun, error) {
	wl := r.wl
	half := dur / 2

	srv0 := r.serverMetrics()
	var io0 ioSnap
	if r.ln != nil {
		io0 = r.ln.n.snapshot()
	}
	rt0 := readRuntime()
	a := runPhase(ctx, wl, seq, half, r.play, r)
	rt1 := readRuntime()
	var ioA ioSnap
	if r.ln != nil {
		ioA = r.ln.n.snapshot().sub(io0)
	}

	if err := r.prepareTrace(ctx); err != nil {
		return nil, fmt.Errorf("traced path: %w", err)
	}
	tr := newTracer()
	c0 := r.clientIO.snapshot()
	b := runPhase(ctx, wl, seq, half, func(ctx context.Context, caller int, idx int64, seed uint64) (any, error) {
		st := tr.begin(idx, spanSession)
		res, err := r.playTraced(ctx, caller, seed, st)
		st.end()
		return res, err
	}, r)
	cB := r.clientIO.snapshot().sub(c0)
	lr := &layerRun{phases: []*phase{a, b}}

	rp, err := replay(ctx, r, tr, seq.seeds[:min(len(seq.seeds), replaySeeds(wl))])
	if err != nil {
		return nil, err
	}
	lr.attempted += rp.attempted
	lr.failed += rp.failed

	var flushMS float64
	var ckClients int
	if wl.mode == muxImperfect {
		t0 := time.Now()
		if err := r.srv.FlushState(); err != nil {
			return nil, fmt.Errorf("flush state: %w", err)
		}
		flushMS = secs(time.Since(t0)) * 1e3
		ckClients = r.srv.MarketMetrics()[dataset].CheckpointedClients
	}

	if wl.mode == muxPerfect {
		cal, err := calibrate(ctx, r, seq.seeds)
		if err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		lr.attempted += cal.attempted
		lr.failed += cal.failed
		if !cal.ok {
			lr.failed++
		}
	}

	srv1 := r.serverMetrics()
	var dials uint64
	for _, c := range r.clients {
		for _, ps := range c.PoolStats() {
			dials += ps.Dials
		}
	}

	// Per-session denominators: phase A ran the production path, phase B
	// the traced one.
	na := float64(max(a.attempted, 1))
	nb := float64(max(b.attempted, 1))
	sb := tr.stats(spanSession)

	col := func(f func(setupTimes) time.Duration) []float64 {
		var xs []float64
		for _, s := range setups {
			xs = append(xs, secs(f(s)))
		}
		return xs
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("core.rounds_per_session", "count", rp.rounds)
	set("core.answer_quote_us", "us", rp.answerUS)
	set("core.answer_quote_calls_per_session", "count", rp.answerCalls)
	set("core.allocs_per_session", "count", float64(rt1.allocObjects-rt0.allocObjects)/na)
	set("core.alloc_bytes_per_session", "B", float64(rt1.allocBytes-rt0.allocBytes)/na)

	set("nn.seller_offer_us", "us", rp.offerUS)
	set("nn.seller_settle_us", "us", rp.settleUS)
	set("nn.buyer_round_us", "us", rp.buyerRoundUS)

	set("wire.send_us", "us", sb.perCallUS(spanSend))
	set("wire.recv_wait_us", "us", sb.perCallUS(spanRecv))
	set("wire.flushes_per_session", "count", float64(cB.writes)/nb)
	set("wire.server_writes_per_session", "count", float64(ioA.writes)/na)
	set("wire.server_reads_per_session", "count", float64(ioA.reads)/na)
	set("wire.bytes_per_session", "B", float64(ioA.readBytes+ioA.writeBytes)/na)
	set("wire.round_trip_p50_us", "us", median(tr.roundGapsUS))

	set("secure.seal_us", "us", rp.sealUS)
	set("secure.open_us", "us", rp.openUS)
	set("secure.seals_per_session", "count", rp.seals)
	set("secure.noise_inline_ratio", "ratio", rp.inlineRatio)
	set("secure.keygen_s", "s", rp.keygenS)

	set("vfl.engine_build_s", "s", median(col(func(s setupTimes) time.Duration { return s.engine })))
	set("vfl.trainings", "count", float64(r.e.OracleMetrics().Trainings))
	set("vfl.gain_calls_per_session", "count", rp.gainCalls)
	gainUS := rp.gainUS
	if wl.mode != inProcess {
		gainUS = sb.perCallUS(spanGain)
	}
	set("vfl.gain_us", "us", gainUS)

	set("store.flush_ms", "ms", flushMS)
	set("store.checkpointed_clients", "count", float64(ckClients))

	set("server.setup_s", "s", median(col(func(s setupTimes) time.Duration { return s.server })))
	set("client.dial_ms", "ms", 1e3*median(col(func(s setupTimes) time.Duration { return s.dial })))
	set("server.failed", "count", float64(srv1.Failed-srv0.Failed))
	set("server.dropped", "count", float64(srv1.Dropped-srv0.Dropped))
	set("server.busy", "count", float64(srv1.Busy-srv0.Busy))
	set("client.dials", "count", float64(dials))

	set("runtime.gc_cycles_per_ksession", "count", 1e3*float64(rt1.gcCycles-rt0.gcCycles)/na)
	gcShare := 0.0
	if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
		gcShare = (rt1.gcCPU - rt0.gcCPU) / d
	}
	set("runtime.gc_cpu_share", "ratio", gcShare)
	set("runtime.sched_wait_p90_us", "us", 1e6*histQuantile(rt0.sched, rt1.sched, 0.9))

	// Self time per layer on the traced production path.
	wireUS := sb.usPerSession(spanSend) + sb.usPerSession(spanRecv) + sb.usPerSession(spanFlush)
	set("self.session_us", "us", float64(sb.self)/float64(max(sb.sessions, 1))/1e3)
	set("self.wire_us", "us", wireUS)
	set("self.gain_us", "us", sb.usPerSession(spanGain))

	untracedP50 := a.quietLatency(0.5)
	tracedP50 := b.quietLatency(0.5)
	set("trace.overhead_ms", "ms", tracedP50-untracedP50)

	// Layer accounting: per-call time × calls per session, against the
	// traced median session. The parts are disjoint on the session's
	// blocking path: the server's work (AnswerQuote, the estimator seller,
	// Paillier open) is inside wire.recv. The client's Paillier seal is not
	// a part: the in-process replay that times it drains its randomizer
	// pool faster than a wire client does, so its per-seal time does not
	// carry over.
	parts := map[string]float64{}
	switch wl.mode {
	case inProcess:
		parts["core.answer_quote"] = rp.answerUS * rp.answerCalls
	default:
		parts["wire"] = wireUS
		parts["vfl.gain"] = sb.usPerSession(spanGain)
		if wl.mode == muxImperfect {
			parts["nn.buyer_round"] = rp.buyerRoundUS * rp.rounds
		}
	}
	var explained float64
	var names []string
	for n, v := range parts {
		explained += v
		names = append(names, n)
	}
	sort.Strings(names)
	residual := 1 - explained/(tracedP50*1e3)
	set("accounting.residual_share", "ratio", residual)
	fmt.Printf("accounting session_p50=%.1fus (traced; untraced %.1fus, n=%d/%d)", tracedP50*1e3, untracedP50*1e3, b.attempted, a.attempted)
	for _, n := range names {
		fmt.Printf(" %s=%.1fus", n, parts[n])
	}
	fmt.Printf(" residual_share=%.3f\n", residual)
	if residual > 0.2 {
		fmt.Printf("finding: %.0f%% of the median %s session is outside the measured layers\n", 100*residual, wl.name)
	}
	for _, root := range []string{spanSession, spanReplay, spanSecureReplay} {
		printSelf(tr, root)
	}

	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, o.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
		}
	}
	return lr, nil
}

// printSelf prints each layer's self time per session under one root.
func printSelf(tr *tracer, root string) {
	st := tr.stats(root)
	if st.sessions == 0 {
		return
	}
	n := float64(st.sessions)
	fmt.Printf("self root=%s sessions=%d total=%.1fus self=%.1fus", root, st.sessions,
		float64(st.total)/n/1e3, float64(st.self)/n/1e3)
	var names []string
	for name := range st.calls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf(" %s=%.1fus/%.1fcalls", name, st.usPerSession(name), st.perSession(name))
	}
	fmt.Println()
}

func (r *rig) serverMetrics() vflmarket.ServerMetrics {
	if r.srv == nil {
		return vflmarket.ServerMetrics{}
	}
	return r.srv.Metrics()
}

// replayOut are the per-layer figures of the in-process replays.
type replayOut struct {
	rounds                          float64
	answerUS, answerCalls           float64
	gainCalls, gainUS               float64
	offerUS, settleUS, buyerRoundUS float64
	sealUS, openUS, seals           float64
	inlineRatio, keygenS            float64
	attempted, failed               int
}

// answerSeller is the strategic data party as the wire server plays it:
// every quote answered by core.AnswerQuote over the catalog.
type answerSeller struct {
	cat *core.Catalog
	cfg core.SessionConfig
}

func (s answerSeller) Offer(round int, q core.QuotedPrice) (core.SellerOffer, error) {
	return core.AnswerQuote(s.cat, q, s.cfg.U, s.cfg.EpsData, s.cfg.DataCost, round, s.cfg.EpsDataC), nil
}

func (answerSeller) Settle(int, core.RoundRecord, core.SettleDecision) error { return nil }
func (answerSeller) Abandon(int) error                                       { return nil }

// replay plays the seeds in-process through core sessions whose seller,
// gain provider and settlement cipher are wrapped, and holds each result
// to the Engine's. The perfect replay also times core.AnswerQuote over the
// quotes it was asked, in a loop long enough for the timer not to matter.
func replay(ctx context.Context, r *rig, tr *tracer, seeds []uint64) (*replayOut, error) {
	cat := r.e.Catalog()
	gains := r.e.CatalogGains()
	out := &replayOut{attempted: len(seeds)}
	var quotes []quoteAt
	var rounds int
	fail := func(seed uint64, err error) {
		out.failed++
		fmt.Fprintf(os.Stderr, "perfbench: replay seed %d: %v\n", seed, err)
	}
	for i, seed := range seeds {
		cfg := r.session(seed)
		st := tr.begin(-int64(i)-1, spanReplay)
		if r.wl.mode == muxImperfect {
			seller := &timedSeller{
				inner: core.NewEstimatorSeller(cat, core.EstimatorSellerConfig{
					Seed: seed, Target: cfg.TargetGain, EpsData: cfg.EpsData, Params: imperfectParams.WithDefaults(),
				}),
				st: st, offer: spanSellerOffer, settle: spanSellerSettle,
			}
			res, err := core.NewSession(cat, cfg).RunImperfectWith(ctx, imperfectParams, seller, st.gains(gains))
			st.end()
			if err == nil {
				var ref *vflmarket.ImperfectResult
				if ref, err = r.imperfectRef(ctx, seed); err == nil && !reflect.DeepEqual(res, ref) {
					err = fmt.Errorf("replayed imperfect session differs from the Engine's")
				}
			}
			if err != nil {
				fail(seed, err)
				continue
			}
			rounds += len(res.Rounds)
			continue
		}
		seller := &timedSeller{inner: answerSeller{cat, cfg}, st: st, offer: spanAnswer}
		res, err := core.NewSession(cat, cfg).RunPerfectWith(ctx, seller, st.gains(gains))
		st.end()
		if err == nil {
			// The in-process engine fills the target bundle from its
			// catalog; a remote-style seller leaves it to offer hints.
			res.TargetBundleID = cat.TargetBundle(cfg.TargetGain)
			var ref *vflmarket.Result
			if ref, err = r.perfectRef(ctx, seed); err == nil && !reflect.DeepEqual(res, ref) {
				err = fmt.Errorf("replayed session differs from the Engine's")
			}
		}
		if err != nil {
			fail(seed, err)
			continue
		}
		rounds += len(res.Rounds)
		quotes = append(quotes, seller.quotes...)
	}
	n := float64(max(len(seeds), 1))
	out.rounds = float64(rounds) / n
	rs := tr.stats(spanReplay)
	out.gainCalls = rs.perSession(spanGain)
	out.gainUS = rs.perCallUS(spanGain)
	out.offerUS = rs.perCallUS(spanSellerOffer)
	out.settleUS = rs.perCallUS(spanSellerSettle)
	if r.wl.mode == muxImperfect && rounds > 0 {
		out.buyerRoundUS = float64(rs.self) / float64(rounds) / 1e3
	}
	if len(quotes) > 0 {
		out.answerCalls = float64(len(quotes)) / n
		out.answerUS = timeAnswerQuote(cat, r.session(seeds[0]), quotes)
	}
	// The secure layer is split on mux-perfect too, whose sessions are the
	// ones mux-secure settles under Paillier.
	if r.wl.mode == muxSecure || r.wl.mode == muxPerfect {
		if err := secureReplay(ctx, r, tr, seeds[:min(len(seeds), secureReplaySeeds)], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// answerSink keeps the AnswerQuote loop from being optimised away.
var answerSink int

// timeAnswerQuote replays the quotes through core.AnswerQuote until at
// least 200 ms have passed and returns the time of one call in µs.
func timeAnswerQuote(cat *core.Catalog, cfg core.SessionConfig, quotes []quoteAt) float64 {
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < 200*time.Millisecond {
		for _, qa := range quotes {
			o := core.AnswerQuote(cat, qa.q, cfg.U, cfg.EpsData, cfg.DataCost, qa.round, cfg.EpsDataC)
			answerSink += o.BundleID
		}
		calls += len(quotes)
	}
	return float64(time.Since(t0)) / float64(calls) / 1e3
}

// secureReplay plays the seeds through Session.RunPerfectSecure with a
// timed cipher around a Settlement of the server's key size.
func secureReplay(ctx context.Context, r *rig, tr *tracer, seeds []uint64, out *replayOut) error {
	// Key generation is a random prime search: time several.
	var keygen []float64
	var stl *vflmarket.Settlement
	for i := 0; i < keygens; i++ {
		t0 := time.Now()
		s, err := vflmarket.NewSettlement(secureBits, 0)
		if err != nil {
			return err
		}
		keygen = append(keygen, secs(time.Since(t0)))
		if stl != nil {
			stl.Close()
		}
		stl = s
	}
	out.keygenS = median(keygen)
	defer stl.Close()
	if err := stl.Prime(ctx); err != nil {
		return err
	}
	ns0 := stl.NoiseStats()
	out.attempted += len(seeds)
	cat := r.e.Catalog()
	for i, seed := range seeds {
		cfg := r.session(seed)
		st := tr.begin(-int64(i)-1, spanSecureReplay)
		res, err := core.NewSession(cat, cfg).RunPerfectSecure(ctx, &timedCipher{inner: stl, st: st})
		st.end()
		if err == nil {
			var ref *vflmarket.Result
			if ref, err = r.perfectRef(ctx, seed); err == nil {
				err = sameSecure(res, ref, cfg.U)
			}
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: secure replay seed %d: %v\n", seed, err)
		}
	}
	ns1 := stl.NoiseStats()
	ss := tr.stats(spanSecureReplay)
	out.sealUS = ss.perCallUS(spanSeal)
	out.openUS = ss.perCallUS(spanOpen)
	out.seals = ss.perSession(spanSeal)
	inline := float64(ns1.Inline - ns0.Inline)
	if all := inline + float64(ns1.Pooled-ns0.Pooled); all > 0 {
		out.inlineRatio = inline / all
	}
	return nil
}
