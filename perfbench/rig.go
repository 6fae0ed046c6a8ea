package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	vflmarket "repro"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/secure"
	"repro/internal/wire"
)

// Every workload bargains in one market: titanic, the forest model, paper
// scale, engine defaults. The market is fixed; the run seed varies the
// buyers' sessions.
const (
	dataset    = "titanic"
	marketSeed = 1
	secureBits = 256
	ioTimeout  = 30 * time.Second
)

// imperfectParams are the mux-imperfect regime knobs.
var imperfectParams = vflmarket.ImperfectParams{ExplorationRounds: 40, PricePool: 100}

// workload is one closed-loop traffic mix.
type workload struct {
	name    string
	callers int
	// pool is the number of distinct session seeds the run cycles through.
	pool int
	// slice is the length of one timed slice; rates and CPU per session
	// are medians over slices.
	slice time.Duration
	mode  mode
}

type mode int

const (
	inProcess mode = iota
	muxPerfect
	muxImperfect
	muxSecure
)

var workloads = map[string]*workload{
	"engine-perfect": {name: "engine-perfect", callers: 1, pool: 1024, slice: 200 * time.Millisecond, mode: inProcess},
	"mux-perfect":    {name: "mux-perfect", callers: 2, pool: 512, slice: 500 * time.Millisecond, mode: muxPerfect},
	"mux-imperfect":  {name: "mux-imperfect", callers: 2, pool: 256, slice: time.Second, mode: muxImperfect},
	"mux-secure":     {name: "mux-secure", callers: 2, pool: 256, slice: 1250 * time.Millisecond, mode: muxSecure},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sessionSeed derives session i's seed from the run seed; 0 is avoided
// because the API reads a zero seed as "inherit".
func sessionSeed(runSeed, i uint64) uint64 {
	if s := rng.DeriveSeed(runSeed, i); s != 0 {
		return s
	}
	return 1
}

// setupTimes splits one cold set-up into its parts.
type setupTimes struct {
	engine, server, keygen, dial, total time.Duration
}

// rig is one set-up workload: the engine, and for wire workloads the
// server and its clients.
type rig struct {
	wl *workload
	e  *vflmarket.Engine

	// Wire workloads.
	srv     *vflmarket.Server
	addr    string
	stop    context.CancelFunc
	served  chan error
	ln      *countingListener
	clients []*vflmarket.Client

	// Traced wire path, opened by prepareTrace.
	muxes    []*wire.MuxConn
	clientIO ioCounts
	noise    *secure.NoiseSource

	// Output references, computed outside the timed window.
	perfectRefs   map[uint64]*vflmarket.Result
	imperfectRefs map[uint64]*vflmarket.ImperfectResult
	secureOK      map[uint64]error
	settlement    *vflmarket.Settlement
}

// build makes one cold set-up of the workload: engine build, and on wire
// workloads server register, listen and Dial.
func build(ctx context.Context, wl *workload, stateDir string, counting bool) (*rig, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	e, err := vflmarket.NewEngine(dataset, vflmarket.WithModel("forest"), vflmarket.WithSeed(marketSeed))
	if err != nil {
		return nil, st, fmt.Errorf("engine build: %w", err)
	}
	st.engine = time.Since(t0)
	r := &rig{
		wl:            wl,
		e:             e,
		perfectRefs:   make(map[uint64]*vflmarket.Result),
		imperfectRefs: make(map[uint64]*vflmarket.ImperfectResult),
		secureOK:      make(map[uint64]error),
	}
	if wl.mode == inProcess {
		return r, st, nil
	}

	t1 := time.Now()
	var opts []vflmarket.ServerOption
	switch wl.mode {
	case muxSecure:
		opts = append(opts, vflmarket.WithSecureSettlement(secureBits), vflmarket.WithEagerSecureKeys())
	case muxImperfect:
		opts = append(opts, vflmarket.WithStateDir(stateDir))
	}
	r.srv = vflmarket.NewServer(opts...)
	tr := time.Now()
	if err := r.srv.Register(dataset, e); err != nil {
		return nil, st, fmt.Errorf("register: %w", err)
	}
	if wl.mode == muxSecure {
		st.keygen = time.Since(tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, st, err
	}
	r.addr = ln.Addr().String()
	if counting {
		r.ln = &countingListener{Listener: ln}
		ln = r.ln
	}
	sctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(sctx, ln) }()
	st.server = time.Since(t1)

	t2 := time.Now()
	tmpl := e.Session()
	if wl.mode == muxImperfect {
		tmpl = e.SessionImperfect()
	}
	n := 1
	if wl.mode == muxImperfect {
		// Each caller bargains under its own identity, so the server keeps
		// one checkpoint book entry per concurrent session.
		n = wl.callers
	}
	for i := 0; i < n; i++ {
		dopts := []vflmarket.DialOption{vflmarket.WithSession(tmpl), vflmarket.WithGains(e.CatalogGains())}
		if wl.mode == muxImperfect {
			dopts = append(dopts, vflmarket.WithImperfect(imperfectParams), vflmarket.WithIdentity(fmt.Sprintf("bench-%d", i)))
		}
		c, err := vflmarket.Dial(ctx, r.addr, dopts...)
		if err != nil {
			r.close()
			return nil, st, fmt.Errorf("dial: %w", err)
		}
		r.clients = append(r.clients, c)
	}
	st.dial = time.Since(t2) / time.Duration(n)
	return r, st, nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, m := range r.muxes {
		m.Close()
	}
	if r.noise != nil {
		r.noise.Close()
	}
	if r.settlement != nil {
		r.settlement.Close()
	}
	if r.stop != nil {
		r.stop()
		<-r.served
	}
}

// session returns the session configuration a seed plays.
func (r *rig) session(seed uint64) vflmarket.SessionConfig {
	cfg := r.e.Session()
	if r.wl.mode == muxImperfect {
		cfg = r.e.SessionImperfect()
	}
	cfg.Seed = seed
	return cfg
}

// play runs one session through the workload's production entry point.
func (r *rig) play(ctx context.Context, caller int, _ int64, seed uint64) (any, error) {
	switch r.wl.mode {
	case inProcess:
		return r.e.Bargain(ctx, vflmarket.BargainOptions{Seed: seed})
	case muxImperfect:
		return r.clients[caller].BargainImperfect(ctx, vflmarket.BargainOptions{Seed: seed})
	default:
		return r.clients[0].Bargain(ctx, vflmarket.BargainOptions{Seed: seed})
	}
}

// prepareTrace opens the traced wire path: one multiplexed connection per
// production client, through counting connections, plus the client's
// randomizer pool against a secure server.
func (r *rig) prepareTrace(ctx context.Context) error {
	if r.wl.mode == inProcess {
		return nil
	}
	for range r.clients {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", r.addr)
		if err != nil {
			return err
		}
		mc, hello, err := wire.OpenMux(&countingConn{Conn: conn, n: &r.clientIO}, wire.CodecGob, wire.ClientHello{}, ioTimeout)
		if err != nil {
			conn.Close()
			return err
		}
		r.muxes = append(r.muxes, mc)
		if hello.Secure && r.noise == nil {
			pk := secure.NewPublicKey(new(big.Int).SetBytes(hello.PubN))
			r.noise = secure.NewNoiseSource(pk, 0, 0, rand.Reader)
		}
	}
	return nil
}

// playTraced runs the same session as play with the benchmark's wrappers
// around each layer boundary. In-process sessions carry only a session
// span; their layers are split by the replays.
func (r *rig) playTraced(ctx context.Context, caller int, seed uint64, st *sessionTrace) (any, error) {
	if r.wl.mode == inProcess {
		return r.e.Bargain(ctx, vflmarket.BargainOptions{Seed: seed})
	}
	return r.playOn(ctx, r.muxes[caller%len(r.muxes)], caller, seed, st)
}

// playOn plays one traced wire session on the given connection: the
// stream Client would open, with TaskClient playing on a timed codec.
func (r *rig) playOn(ctx context.Context, mc *wire.MuxConn, caller int, seed uint64, st *sessionTrace) (any, error) {
	tc := &wire.TaskClient{
		Session:   r.session(seed),
		Gains:     st.gains(r.e.CatalogGains()),
		Observers: []core.RoundObserver{st.observer()},
		Noise:     r.noise,
	}
	hs := wire.ClientHello{}
	if r.wl.mode == muxImperfect {
		p := imperfectParams.WithDefaults()
		hs = wire.ClientHello{Mode: wire.ModeImperfect, Imperfect: &wire.ImperfectHello{
			Seed: seed, Target: tc.Session.TargetGain,
			ExplorationRounds: p.ExplorationRounds, ReplaySteps: p.ReplaySteps,
			ClientID: fmt.Sprintf("bench-%d", caller),
		}}
		// As the production client: an identified session checkpoints
		// every settled round.
		tc.Checkpoint = func(*core.ImperfectCheckpoint) {}
	}
	s, hello, err := mc.Open(ctx, hs, ioTimeout)
	if err != nil {
		return nil, err
	}
	codec := st.codec(s)
	var res any
	if r.wl.mode == muxImperfect {
		res, err = tc.BargainImperfectCodec(ctx, codec, hello, imperfectParams.WithDefaults())
	} else {
		res, err = tc.BargainCodec(ctx, codec, hello)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.CloseClean()
	return res, nil
}

// check verifies one session's output, outside the timed window: every
// round's payment is recomputed through Eq. 2, wire sessions must equal
// the in-process Engine result for the seed, and secure sessions must
// also match Engine.BargainBatchSecure under the secure-equality contract
// (identical trace, payments quantized to the fixed-point grid).
func (r *rig) check(ctx context.Context, seed uint64, out any) error {
	switch res := out.(type) {
	case *vflmarket.Result:
		if err := checkEq2(r.e.Catalog(), r.session(seed), res); err != nil {
			return err
		}
		ref, err := r.perfectRef(ctx, seed)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, ref) {
			return fmt.Errorf("result differs from the in-process Engine result")
		}
		if r.wl.mode == muxSecure {
			return r.secureCheck(ctx, seed)
		}
		return nil
	case *vflmarket.ImperfectResult:
		if err := checkEq2(r.e.Catalog(), r.session(seed), &res.Result); err != nil {
			return err
		}
		ref, err := r.imperfectRef(ctx, seed)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, ref) {
			return fmt.Errorf("imperfect result differs from the in-process Engine result")
		}
		return nil
	default:
		return fmt.Errorf("unexpected session output %T", out)
	}
}

func (r *rig) perfectRef(ctx context.Context, seed uint64) (*vflmarket.Result, error) {
	if ref, ok := r.perfectRefs[seed]; ok {
		return ref, nil
	}
	ref, err := r.e.Bargain(ctx, vflmarket.BargainOptions{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	if err := checkEq2(r.e.Catalog(), r.session(seed), ref); err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	r.perfectRefs[seed] = ref
	return ref, nil
}

// prefetch computes, two sessions at a time, the references of the seeds
// that have none yet: Engine.BargainImperfectBatch for imperfect sessions
// and Engine.BargainBatchSecure for secure ones.
func (r *rig) prefetch(ctx context.Context, seeds []uint64) error {
	if r.wl.mode != muxImperfect && r.wl.mode != muxSecure {
		return nil
	}
	var specs []vflmarket.BatchSpec
	seen := map[uint64]bool{}
	for _, s := range seeds {
		_, imp := r.imperfectRefs[s]
		_, sec := r.secureOK[s]
		if !seen[s] && !imp && !sec {
			seen[s] = true
			specs = append(specs, vflmarket.BatchSpec{Seed: s})
		}
	}
	if len(specs) == 0 {
		return nil
	}
	opts := vflmarket.BatchOptions{Workers: 2}
	if r.wl.mode == muxImperfect {
		refs, err := r.e.BargainImperfectBatch(ctx, specs, imperfectParams, opts)
		if err != nil {
			return fmt.Errorf("in-process references: %w", err)
		}
		for i, sp := range specs {
			r.imperfectRefs[sp.Seed] = refs[i]
		}
		return nil
	}
	if r.settlement == nil {
		st, err := vflmarket.NewSettlement(secureBits, 0)
		if err != nil {
			return err
		}
		r.settlement = st
	}
	secs, err := r.e.BargainBatchSecure(ctx, specs, opts, r.settlement)
	if err != nil {
		return fmt.Errorf("secure references: %w", err)
	}
	for i, sp := range specs {
		clear, err := r.perfectRef(ctx, sp.Seed)
		if err == nil {
			err = sameSecure(secs[i], clear, r.session(sp.Seed).U)
		}
		if err != nil {
			err = fmt.Errorf("secure path: %w", err)
		}
		r.secureOK[sp.Seed] = err
	}
	return nil
}

func (r *rig) imperfectRef(ctx context.Context, seed uint64) (*vflmarket.ImperfectResult, error) {
	if ref, ok := r.imperfectRefs[seed]; ok {
		return ref, nil
	}
	ref, err := r.e.BargainImperfectWith(ctx, r.session(seed), imperfectParams)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	r.imperfectRefs[seed] = ref
	return ref, nil
}

// secureCheck returns the verdict prefetch reached for the seed: the
// seed played once through Engine.BargainBatchSecure and held to the clear
// reference (same rounds, payments quantized).
func (r *rig) secureCheck(ctx context.Context, seed uint64) error {
	if _, ok := r.secureOK[seed]; !ok {
		if err := r.prefetch(ctx, []uint64{seed}); err != nil {
			return err
		}
	}
	return r.secureOK[seed]
}

// quantize is the fixed-point grid secure settlement pays on.
func quantize(p float64) float64 { return math.Round(p*secure.GainScale) / secure.GainScale }

// sameSecure holds a secure result to its clear twin: every field equal
// except the payment, which must be the clear payment quantized, and the
// net profit, recomputed against it.
func sameSecure(sec, clear *vflmarket.Result, u float64) error {
	if sec.Outcome != clear.Outcome || len(sec.Rounds) != len(clear.Rounds) || sec.TargetBundleID != clear.TargetBundleID {
		return fmt.Errorf("outcome or round count differs from the clear session")
	}
	want := func(rec vflmarket.RoundRecord) vflmarket.RoundRecord {
		rec.Payment = quantize(rec.Payment)
		rec.NetProfit = u*rec.Gain - rec.Payment
		return rec
	}
	for i, rec := range clear.Rounds {
		if sec.Rounds[i] != want(rec) {
			return fmt.Errorf("round %d: secure %+v, clear %+v", i+1, sec.Rounds[i], rec)
		}
	}
	if len(clear.Rounds) > 0 && sec.Final != want(clear.Final) {
		return fmt.Errorf("final record differs")
	}
	return nil
}

// checkEq2 recomputes every round of a session: the realized gain is the
// catalog's, the payment is Eq. 2 through QuotedPrice.Payment, the net
// profit is u·ΔG minus it, and the final record is the last round.
func checkEq2(cat *vflmarket.Catalog, cfg vflmarket.SessionConfig, res *vflmarket.Result) error {
	for i, rec := range res.Rounds {
		if rec.BundleID < 0 || rec.BundleID >= cat.Len() {
			return fmt.Errorf("round %d: bundle %d outside the catalog", i+1, rec.BundleID)
		}
		if g := cat.Gain(rec.BundleID); rec.Gain != g {
			return fmt.Errorf("round %d: gain %v, catalog says %v", i+1, rec.Gain, g)
		}
		if p := rec.Price.Payment(rec.Gain); rec.Payment != p {
			return fmt.Errorf("round %d: payment %v, Eq. 2 gives %v", i+1, rec.Payment, p)
		}
		if np := cfg.U*rec.Gain - rec.Payment; rec.NetProfit != np {
			return fmt.Errorf("round %d: net profit %v, want %v", i+1, rec.NetProfit, np)
		}
		if i > 0 && rec.Round <= res.Rounds[i-1].Round {
			return fmt.Errorf("round numbers not increasing at %d", i+1)
		}
	}
	if n := len(res.Rounds); n > 0 && res.Final != res.Rounds[n-1] {
		return fmt.Errorf("final record is not the last round")
	}
	return nil
}

// newStateRoot makes the run's temporary state directory inside the build
// directory; the caller removes it on exit.
func newStateRoot() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "state-")
}

func stateDirFor(root string, i int) string { return filepath.Join(root, fmt.Sprintf("setup-%d", i)) }
