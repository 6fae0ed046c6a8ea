package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/wire"
)

// The calibration injects one known delay into the mux-perfect stream and
// requires the harness to find it where it was put.
const (
	calibWait     = 60 * time.Millisecond
	calibSessions = 31
	// calibTol is the accepted error of the attributed shift, as a share
	// of calibWait.
	calibTol = 0.15
)

type calibration struct {
	ok                bool
	attempted, failed int
}

// seqSession is one session of a sequential calibration run: its span of
// the client→server byte stream, its latency and its time in wire.recv.
type seqSession struct {
	from, to  int64
	lat, recv time.Duration
}

// calibrate plays the first calibSessions of the run's seeds one after
// another over a direct connection to learn each session's client→server
// byte range, then replays them through a chaos proxy whose plan holds one
// Latency fault of calibWait at a byte inside the middle session. The
// harness passes when that session, and only that one, is late by
// calibWait within calibTol — both end to end and in its wire.recv spans.
func calibrate(ctx context.Context, r *rig, seeds []uint64) (*calibration, error) {
	seeds = seeds[:min(len(seeds), calibSessions)]
	cal := &calibration{attempted: 2 * len(seeds)}
	pilot, failed, err := r.sequence(ctx, r.addr, seeds)
	if err != nil {
		return nil, err
	}
	cal.failed += failed
	k := len(seeds) / 2
	onset := (pilot[k].from + pilot[k].to) / 2
	px, err := chaos.NewProxy(r.addr, &chaos.Plan{Faults: []chaos.Fault{{
		Kind: chaos.Latency, Conn: 0, Dir: chaos.ClientToServer, Onset: onset, Wait: calibWait,
	}}})
	if err != nil {
		return nil, err
	}
	defer px.Close()
	runs, failed, err := r.sequence(ctx, px.Addr(), seeds)
	if err != nil {
		return nil, err
	}
	cal.failed += failed

	crossing := -1
	var lat, recv []float64
	for i, s := range runs {
		if s.from <= onset && onset < s.to {
			crossing = i
			continue
		}
		lat = append(lat, float64(s.lat))
		recv = append(recv, float64(s.recv))
	}
	if crossing < 0 {
		fmt.Printf("calibration onset=%d: no session crossed the onset ok=false\n", onset)
		return cal, nil
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	base := median(lat)
	shift := float64(runs[crossing].lat) - base
	recvShift := float64(runs[crossing].recv) - median(recv)
	othersDev := quantile(lat, 1) - base
	tol := calibTol * float64(calibWait)
	cal.ok = px.Triggered() == 1 &&
		math.Abs(shift-float64(calibWait)) <= tol &&
		math.Abs(recvShift-float64(calibWait)) <= tol &&
		othersDev < float64(calibWait)/2
	fmt.Printf("calibration wait=%.0fms onset=%d crossing=%d (expected %d) shift=%.2fms recv_shift=%.2fms others_p50=%.3fms others_max_dev=%.2fms tol=±%.1fms triggered=%d ok=%v\n",
		ms(float64(calibWait)), onset, crossing, k, ms(shift), ms(recvShift), ms(base), ms(othersDev), ms(tol), px.Triggered(), cal.ok)
	return cal, nil
}

// sequence plays the seeds one after another on a fresh multiplexed
// connection to addr through the traced path, checking every result.
func (r *rig) sequence(ctx context.Context, addr string, seeds []uint64) ([]seqSession, int, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	var n ioCounts
	mc, _, err := wire.OpenMux(&countingConn{Conn: conn, n: &n}, wire.CodecGob, wire.ClientHello{}, ioTimeout)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	defer mc.Close()
	tr := newTracer()
	out := make([]seqSession, len(seeds))
	failed := 0
	for i, seed := range seeds {
		out[i].from = n.writeBytes.Load()
		st := tr.begin(int64(i), spanSession)
		t0 := time.Now()
		res, err := r.playOn(ctx, mc, 0, seed, st)
		out[i].lat = time.Since(t0)
		out[i].to = n.writeBytes.Load()
		for _, sp := range st.spans {
			if sp.Name == spanRecv {
				out[i].recv += time.Duration(sp.End - sp.Start)
			}
		}
		st.end()
		if err == nil {
			err = r.check(ctx, seed, res)
		}
		if err != nil {
			failed++
			fmt.Printf("calibration session %d: %v\n", i, err)
		}
	}
	return out, failed, nil
}
