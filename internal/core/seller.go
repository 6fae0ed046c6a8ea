package core

import (
	"fmt"

	"repro/internal/rng"
)

// SettleDecision is the task party's verdict on a realized round, announced
// to the seller in the settlement step (Cases 4–6 of Algorithm 1).
type SettleDecision int

// Task-party settlement decisions.
const (
	// SettleContinue escalates to the next round (Case 6).
	SettleContinue SettleDecision = iota
	// SettleAccept pays and closes the transaction (Cases 2/3/5, or Case 6
	// under bargaining cost).
	SettleAccept
	// SettleFail walks away without paying (Case 4).
	SettleFail
)

// String implements fmt.Stringer.
func (d SettleDecision) String() string {
	switch d {
	case SettleContinue:
		return "continue"
	case SettleAccept:
		return "accept"
	case SettleFail:
		return "fail"
	default:
		return fmt.Sprintf("SettleDecision(%d)", int(d))
	}
}

// SellerOffer is the data party's answer to one quoted price: either a
// bundle (possibly with a Case 2/3 commitment attached) or a Case 1 refusal.
type SellerOffer struct {
	BundleID int
	Features []int
	// Accept is the data party's close: it commits to this bundle at the
	// quoted price (Case 2, or Case 3 under bargaining cost).
	Accept bool
	// Fail means nothing satisfies the quote (Case 1 territory).
	Fail   bool
	Reason string
	// TargetBundleID, when >= 0, is the seller's hint at the catalog bundle
	// closest to the buyer's target gain (used by remote sellers to fill
	// Result.TargetBundleID; local runs compute it from the catalog).
	TargetBundleID int
}

// Seller is the data party's side of one perfect-information bargaining
// session, as seen by the task party's game loop. Session.RunPerfect plays
// against the in-process catalog seller; protocol frontends (the wire
// client) implement Seller over a network connection and reuse the exact
// same loop through Session.RunPerfectWith — which is what makes networked
// results bit-identical to in-process ones for the same seed.
//
// A Seller is used from a single goroutine; calls arrive strictly in game
// order (Offer, then for realized rounds Settle, repeated).
type Seller interface {
	// Offer answers the round's quoted price.
	Offer(round int, q QuotedPrice) (SellerOffer, error)
	// Settle reports the task party's decision on a realized round. rec is
	// the round's full record (gain, payment) as the task party computed it.
	Settle(round int, rec RoundRecord, d SettleDecision) error
	// Abandon tells the seller the buyer is leaving without a settlement
	// (a Case 1 walk-away or pool/round exhaustion). It is best-effort: the
	// runner ignores its error, since the local outcome already stands.
	Abandon(round int) error
}

// AnswerQuote applies the strategic data party's policy to one quote: the
// reserved-price filter, the Case 4 viability filter (u is mutually known,
// §3.3), the closest-below-knee bundle selection, and the Case 2 (and, with
// a cost model, Case 3 / Eq. 6) acceptance decision. It is shared by the
// in-process seller and the wire server so both endpoints answer
// identically.
//
// The filters and the selection run as one scan in id order with no
// intermediate slices; on equal gains the lowest id wins.
//
// round is the 1-based bargaining round (used by the cost model); pass
// NoCostModel and 0 tolerances to disable cost-aware acceptance.
func AnswerQuote(cat *Catalog, q QuotedPrice, u, epsData float64,
	dataCost CostModel, round int, epsDataC float64) SellerOffer {
	// The strategic data party never offers a bundle whose gain sits below
	// the Case 4 break-even — such an offer could only end the game with
	// zero payment (the deterrence role §3.4.3 ascribes to Case 4). The
	// guard protects against irrational quotes from untrusted peers; under
	// the market's own validation u > p always holds.
	guard := u > q.Rate
	breakEven := 0.0
	if guard {
		breakEven = BreakEvenGain(u, q)
	}
	target := q.TargetGain()
	affordable := false
	below, above := -1, -1
	for i := range cat.Bundles {
		if !cat.Bundles[i].Reserved.Admits(q) {
			continue
		}
		affordable = true
		g := cat.gains[i]
		if guard && !(g >= breakEven) { // a NaN gain is never viable
			continue
		}
		if g > target {
			if above < 0 || g < cat.gains[above] {
				above = i
			}
		} else if below < 0 || g > cat.gains[below] {
			below = i
		}
	}
	id := below
	if id < 0 {
		// Every viable gain exceeds the knee: the cheapest overshooting
		// bundle still earns the full ceiling.
		id = above
	}
	if id < 0 {
		reason := "no bundle satisfies the quoted price (Case 1)"
		if affordable {
			reason = "no affordable bundle clears the break-even (Case 1)"
		}
		return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: -1, Reason: reason}
	}
	offer := SellerOffer{BundleID: id, Features: cat.Bundles[id].Features, TargetBundleID: -1}
	gain := cat.gains[id]
	switch {
	case target-gain <= epsData:
		offer.Accept = true // Case 2: the offer sits at the knee
	case dataAcceptsUnderCost(cat, q, gain, dataCost, round, epsDataC):
		offer.Accept = true // Case 3 with cost: holding out will not pay
	}
	return offer
}

// catalogSeller is the in-process data party: it answers quotes directly
// from the session's catalog, sharing the session's random stream for the
// DataRandomBundle baseline (the stream interleaving with the task party's
// draws is part of a seed's deterministic replay).
type catalogSeller struct {
	cat *Catalog
	cfg SessionConfig
	src *rng.Source
	// affordable is the DataRandomBundle filter's scratch, reused across
	// rounds.
	affordable []int
}

func (s *catalogSeller) Offer(round int, q QuotedPrice) (SellerOffer, error) {
	if s.cfg.DataStrategy == DataRandomBundle {
		s.affordable = s.cat.AffordableInto(s.affordable, q)
		if len(s.affordable) == 0 {
			return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: -1}, nil
		}
		id := s.affordable[s.src.IntN(len(s.affordable))]
		// The random baseline never reasons about the knee, so it never
		// commits (no Case 2/3).
		return SellerOffer{BundleID: id, Features: s.cat.Bundles[id].Features, TargetBundleID: -1}, nil
	}
	return AnswerQuote(s.cat, q, s.cfg.U, s.cfg.EpsData, s.cfg.DataCost, round, s.cfg.EpsDataC), nil
}

func (s *catalogSeller) Settle(round int, rec RoundRecord, d SettleDecision) error { return nil }

func (s *catalogSeller) Abandon(round int) error { return nil }
