package core

// Golden bit-identity suite for the vectorized imperfect-information hot
// path. The batched scan kernels (PriceEstimator.PredictPool,
// BundleEstimator.PredictAll, and the rewritten nextImperfectQuote /
// caseTwoChoice) must be bit-for-bit equal to the per-sample loops they
// replaced: the goldens below were captured by running RunImperfect on the
// pre-rewrite per-sample implementation, and the reference functions here
// preserve that implementation verbatim for direct comparison. The same
// holds for the allocation-free perfect-information game (the typed pool
// sort, one-pass AnswerQuote and direct Eq. 6 scan): perfect goldens
// captured on the slice-based code, plus that code kept as references.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// imperfectGolden pins one full RunImperfect trajectory: outcome, round
// count, the first/last/sum of both Figure 4 MSE series, and the final
// settled record — all as exact float64 bit patterns. Captured on the
// pre-rewrite per-sample scan implementation.
type imperfectGolden struct {
	feats, explore    int
	catSeed, sessSeed uint64
	outcome           Outcome
	rounds            int
	taskMSEFirst      uint64
	taskMSELast       uint64
	dataMSEFirst      uint64
	dataMSELast       uint64
	taskMSESum        uint64
	dataMSESum        uint64
	finalGain         uint64
	finalPayment      uint64
	finalNet          uint64
	finalBundle       int
	targetBundle      int
}

var imperfectGoldens = []imperfectGolden{
	{feats: 6, catSeed: 61, sessSeed: 61, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f620de1f6e438a6, taskMSELast: 0x3ead53c6ccb8c80b,
		dataMSEFirst: 0x3f560dcd40df4dd2, dataMSELast: 0x3e9a7084f3d41c5e,
		taskMSESum: 0x3fa50ae590bd9a00, dataMSESum: 0x3fad3327a5fe1a67,
		finalGain: 0x3fbaac53c61b11fa, finalPayment: 0x40190ee7d135eb6a,
		finalNet: 0x40587b5b526310d7, finalBundle: 15, targetBundle: 6},
	{feats: 6, catSeed: 65, sessSeed: 9, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f71ea73702cb211, taskMSELast: 0x3f366dc436bc2d97,
		dataMSEFirst: 0x3f282f393f38e6ee, dataMSELast: 0x3f2873e5b117eaea,
		taskMSESum: 0x3fbb2122e27c9cd8, dataMSESum: 0x3fa5d94914b8ebbc,
		finalGain: 0x3fb6f386d9f45bc8, finalPayment: 0x4015d352150164a5,
		finalNet: 0x40550c9c8f888b57, finalBundle: 16, targetBundle: 6},
	{feats: 8, catSeed: 67, sessSeed: 67, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f86b76ade8b9e38, taskMSELast: 0x3f7b203557922550,
		dataMSEFirst: 0x3f8d44bc106aad74, dataMSELast: 0x3ef11e814b0f2156,
		taskMSESum: 0x3fcd33144c1c7cf0, dataMSESum: 0x3fbf6278fe06f641,
		finalGain: 0x3fc5700cfd205f25, finalPayment: 0x401f7ffd9f1942d0,
		finalNet: 0x4063f36cc238d2d4, finalBundle: 10, targetBundle: 8},
	{feats: 7, catSeed: 91, sessSeed: 17, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f9322f94b4e8c4c, taskMSELast: 0x3e86685c34deb8f0,
		dataMSEFirst: 0x3f571c353d3e38a7, dataMSELast: 0x3ee8ed91e1558377,
		taskMSESum: 0x3fd0d272ceabdd63, dataMSESum: 0x3fbe7b72a6232717,
		finalGain: 0x3fc67994dd7e3c64, finalPayment: 0x401f7e53a1e11db0,
		finalNet: 0x4064f6c8c33e3e0c, finalBundle: 13, targetBundle: 7},
	// Short exploration phases leave the estimators noisy, exercising the
	// post-exploration batched scans over many rounds (the third case runs
	// the full 500-round horizon).
	{feats: 6, catSeed: 61, sessSeed: 5, explore: 8, outcome: Success, rounds: 9,
		taskMSEFirst: 0x3f8b55e32711a370, taskMSELast: 0x3f2151be060f9de1,
		dataMSEFirst: 0x3f60d8f0a6ad24a5, dataMSELast: 0x3f7bc8f0d38d0791,
		taskMSESum: 0x3fd5e7c31445583f, dataMSESum: 0x3f9538d1ed75576c,
		finalGain: 0x3f85c3f486efdcc0, finalPayment: 0x3ff42a9830256121,
		finalNet: 0x4022bc09c5c19170, finalBundle: 5, targetBundle: 6},
	{feats: 8, catSeed: 67, sessSeed: 23, explore: 8, outcome: FailMaxRounds, rounds: 500,
		taskMSEFirst: 0x3f156534ce6ecc6a, taskMSELast: 0x3f070c04365f5f5f,
		dataMSEFirst: 0x3f4f7f9b48e09202, dataMSELast: 0x3e3fc6dfd68816fd,
		taskMSESum: 0x3fcb3cf43d2f0b43, dataMSESum: 0x3faae71fabe90f9b,
		finalGain: 0x3fc22c2e37a482b8, finalPayment: 0x4008aadac65e1b00,
		finalNet: 0x40615c79b73d2f3c, finalBundle: 12, targetBundle: 8},
	{feats: 7, catSeed: 91, sessSeed: 3, explore: 8, outcome: Success, rounds: 9,
		taskMSEFirst: 0x3f052233ed2e0ce6, taskMSELast: 0x3f6c8d6f0ea8491e,
		dataMSEFirst: 0x3f72f808a34d2481, dataMSELast: 0x3f8b6adf8316ddad,
		taskMSESum: 0x3f8d796b3dd91238, dataMSESum: 0x3fb1b25c9052997a,
		finalGain: 0x3f979d2673a8e13a, finalPayment: 0x4001c4ae4d0bd436,
		finalNet: 0x4034d6e1c351716c, finalBundle: 6, targetBundle: 7},
}

func bitsOf(v float64) uint64 { return math.Float64bits(v) }

func sumBits(s []float64) uint64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return bitsOf(sum)
}

// TestRunImperfectMatchesPreRewriteGoldens replays every golden trajectory
// through the vectorized implementation and demands exact bit equality with
// the per-sample captures — end-to-end proof that batching the estimator
// scans changed no float anywhere in the game.
func TestRunImperfectMatchesPreRewriteGoldens(t *testing.T) {
	for _, g := range imperfectGoldens {
		cat := testCatalog(t, g.feats, g.catSeed)
		cfg := sessionFor(cat, g.sessSeed)
		params := ImperfectParams{ExplorationRounds: g.explore, PricePool: 120}
		res, err := RunImperfect(cat, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Rounds)
		if res.Outcome != g.outcome || n != g.rounds {
			t.Fatalf("cat %d/%d: outcome %v after %d rounds, golden %v after %d",
				g.catSeed, g.sessSeed, res.Outcome, n, g.outcome, g.rounds)
		}
		if len(res.TaskMSE) != n || len(res.DataMSE) != n {
			t.Fatalf("cat %d/%d: MSE series %d/%d entries over %d rounds",
				g.catSeed, g.sessSeed, len(res.TaskMSE), len(res.DataMSE), n)
		}
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"taskMSE[0]", bitsOf(res.TaskMSE[0]), g.taskMSEFirst},
			{"taskMSE[n-1]", bitsOf(res.TaskMSE[n-1]), g.taskMSELast},
			{"dataMSE[0]", bitsOf(res.DataMSE[0]), g.dataMSEFirst},
			{"dataMSE[n-1]", bitsOf(res.DataMSE[n-1]), g.dataMSELast},
			{"sum(taskMSE)", sumBits(res.TaskMSE), g.taskMSESum},
			{"sum(dataMSE)", sumBits(res.DataMSE), g.dataMSESum},
			{"final gain", bitsOf(res.Final.Gain), g.finalGain},
			{"final payment", bitsOf(res.Final.Payment), g.finalPayment},
			{"final net profit", bitsOf(res.Final.NetProfit), g.finalNet},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("cat %d/%d: %s = %#x, golden %#x", g.catSeed, g.sessSeed, c.name, c.got, c.want)
			}
		}
		if res.Final.BundleID != g.finalBundle || res.TargetBundleID != g.targetBundle {
			t.Errorf("cat %d/%d: final bundle %d (target %d), golden %d (%d)",
				g.catSeed, g.sessSeed, res.Final.BundleID, res.TargetBundleID, g.finalBundle, g.targetBundle)
		}
	}
}

// perfectGolden pins one full RunPerfect trajectory: outcome, round count,
// the final record's payment and net profit as exact float64 bit patterns,
// and a SHA-256 over the whole trace (traceDigest). Captured before the
// perfect game's sort, bundle selection and Eq. 6 scan were rewritten
// allocation-free; the table covers every TaskStrategy × DataStrategy pair,
// with and without a bargaining cost, on each golden catalog.
type perfectGolden struct {
	cat          int // perfectGoldenCatalog index
	sessSeed     uint64
	task         TaskStrategy
	data         DataStrategy
	cost         bool // goldenCost on both parties
	outcome      Outcome
	rounds       int
	finalPayment uint64
	finalNet     uint64
	trace        string
}

// goldenCost is steep enough that the Case 3 (Eq. 6) and Case 6 (Eq. 7)
// closes fire in most cost sessions, yet leaves several rounds to play.
var goldenCost = CostModel{Kind: LinearCost, Factor: 0.05}

// perfectGoldenCatalog returns golden catalog which: 0 a small exact-gain
// catalog, 1 a larger noisy one, 2 one whose gains are quantized to 0.02 so
// that many bundles tie — pinning the first-id-wins tie-break of the
// data party's bundle selection.
func perfectGoldenCatalog(t testing.TB, which int) *Catalog {
	t.Helper()
	switch which {
	case 0:
		return testCatalog(t, 6, 61)
	case 1:
		return NewCatalog(10, CatalogConfig{Size: 96}, rng.New(67), NewSyntheticGains(10, 0.2, 0.1, rng.New(67)))
	default:
		syn := testGains(8, 91)
		quantized := GainFunc(func(f []int) float64 { return math.Round(syn.Gain(f)*50) / 50 })
		return NewCatalog(8, CatalogConfig{Size: 48}, rng.New(91), quantized)
	}
}

// perfectGoldenSession is the session configuration of golden g.
func perfectGoldenSession(cat *Catalog, g perfectGolden) SessionConfig {
	cfg := sessionFor(cat, g.sessSeed)
	cfg.TaskStrategy, cfg.DataStrategy = g.task, g.data
	if g.cost {
		cfg.TaskCost, cfg.DataCost = goldenCost, goldenCost
	}
	return cfg
}

// traceDigest is the hex SHA-256 of a Result's outcome, target bundle, and
// every field of every round record plus Final, floats as bit patterns.
func traceDigest(res *Result) string {
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	record := func(r RoundRecord) {
		u64(uint64(int64(r.Round)))
		f64(r.Price.Rate)
		f64(r.Price.Base)
		f64(r.Price.High)
		u64(uint64(int64(r.BundleID)))
		f64(r.Gain)
		f64(r.Payment)
		f64(r.NetProfit)
		f64(r.TaskCost)
		f64(r.DataCost)
	}
	u64(uint64(res.Outcome))
	u64(uint64(int64(res.TargetBundleID)))
	for _, r := range res.Rounds {
		record(r)
	}
	record(res.Final)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

var perfectGoldens = []perfectGolden{
	{cat: 0, sessSeed: 61, task: TaskStrategic, data: DataStrategic, cost: false,
		outcome: Success, rounds: 71, finalPayment: 0x40062f1d2e5748df, finalNet: 0x4059c24f7c27da33,
		trace: "87f746f3700e9832be5e7841572df06ab6d0d8cd7897a749ce7283622d42e776"},
	{cat: 0, sessSeed: 61, task: TaskStrategic, data: DataStrategic, cost: true,
		outcome: Success, rounds: 12, finalPayment: 0x3ff03e990a553bfc, finalNet: 0x4036e3b35666801f,
		trace: "6cf9c5f17f6f925dbe9b68e8828edff21869f711e653b371a8e02c282e37a2d9"},
	{cat: 0, sessSeed: 61, task: TaskStrategic, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 92, finalPayment: 0x400aa2688a6013c2, finalNet: 0x40599eb5214793dc,
		trace: "feb6f0788838b4615dbadc4d69e9885e64f575556ae54952171e1fa11c81eb74"},
	{cat: 0, sessSeed: 61, task: TaskStrategic, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 92, finalPayment: 0x400aa2688a6013c2, finalNet: 0x40599eb5214793dc,
		trace: "66cfcfe7547d63c713f5da546110ffbc0359b9ee19043b4c9d188c4c5212e7b6"},
	{cat: 0, sessSeed: 61, task: TaskBisection, data: DataStrategic, cost: false,
		outcome: Success, rounds: 5, finalPayment: 0x401e7a3223cd141c, finalNet: 0x40588c25435dc338,
		trace: "1db174e131295f2f56f86f61afd734158ef5d0b607fe2b5f51bcfafbecd3656a"},
	{cat: 0, sessSeed: 61, task: TaskBisection, data: DataStrategic, cost: true,
		outcome: Success, rounds: 2, finalPayment: 0x40123f125fbc9a8a, finalNet: 0x4058e858a97aa5e5,
		trace: "16238c8f3c6f404a96fedbc67bc2fe811502cb26f9137ea518856fe23648f967"},
	{cat: 0, sessSeed: 61, task: TaskBisection, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 4, finalPayment: 0x401cc536e5d4b535, finalNet: 0x4058a774f73d4927,
		trace: "42b566cacd995231f5c14b7863850a0310c466fa7116dc3ab0ef8bc02522ae8b"},
	{cat: 0, sessSeed: 61, task: TaskBisection, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 4, finalPayment: 0x401cc536e5d4b535, finalNet: 0x4058a774f73d4927,
		trace: "0ee5e5abe4fc0f4b9660d501538534161f45305d65a6ed71286bcea4155b640d"},
	{cat: 0, sessSeed: 61, task: TaskIncreasePrice, data: DataStrategic, cost: false,
		outcome: Success, rounds: 60, finalPayment: 0x401fe0eeb5d28248, finalNet: 0x4057236b12961a80,
		trace: "dc96044e4aa83be958b21ef596a9d939c9df3e2325867d8e9f146e09fc1d04f1"},
	{cat: 0, sessSeed: 61, task: TaskIncreasePrice, data: DataStrategic, cost: true,
		outcome: Success, rounds: 4, finalPayment: 0x3ff03b58f2150288, finalNet: 0x404792e1388bcd25,
		trace: "696c00e9d364b37010102869dabeb95e0b755f6b1c408ffe77a1fc6f20db1845"},
	{cat: 0, sessSeed: 61, task: TaskIncreasePrice, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 66, finalPayment: 0x4020000000000000, finalNet: 0x405873c8659a947a,
		trace: "aff5c3f630c446d9f2558f9bb0437fa5fd6ecb8b695cc40b22112b1c6c5a70a8"},
	{cat: 0, sessSeed: 61, task: TaskIncreasePrice, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 66, finalPayment: 0x4020000000000000, finalNet: 0x405873c8659a947a,
		trace: "73e3f5f0a63312909923b20102cef5d8c411c268f83b0f7b027efd523aad4448"},
	{cat: 0, sessSeed: 5, task: TaskStrategic, data: DataStrategic, cost: false,
		outcome: Success, rounds: 66, finalPayment: 0x4006794712d52b17, finalNet: 0x4059bffe2d03eb21,
		trace: "16b646456d7fe8fe4c1e66c84f535e1a070cb9112df322eef76f6c1fde68618c"},
	{cat: 0, sessSeed: 5, task: TaskStrategic, data: DataStrategic, cost: true,
		outcome: Success, rounds: 7, finalPayment: 0x3fee639d69fb1cbf, finalNet: 0x4036f47ffbbbfaf9,
		trace: "5f0d39fece86a9db38d4e35d92595bbfc18441976c9209a9d4228cde8c07fe94"},
	{cat: 0, sessSeed: 5, task: TaskStrategic, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 112, finalPayment: 0x400c9fc185038d26, finalNet: 0x40598eca59727811,
		trace: "e58c56548ae6b5f0f01b9f9c1ce98e963c351e7fa30a7b514e2b4845d8f27b82"},
	{cat: 0, sessSeed: 5, task: TaskStrategic, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 112, finalPayment: 0x400c9fc185038d26, finalNet: 0x40598eca59727811,
		trace: "4fb633b34d8d4c76791db15c69722aaa96ed4bdc33635ac85e9a07f0df334229"},
	{cat: 0, sessSeed: 5, task: TaskBisection, data: DataStrategic, cost: false,
		outcome: Success, rounds: 2, finalPayment: 0x4011be3282c35c28, finalNet: 0x405957e53d6e5eb8,
		trace: "1856864e46f014d3c91f1ff0cf4ff9ef86500e4c0c55b1653d34b97a09b0647a"},
	{cat: 0, sessSeed: 5, task: TaskBisection, data: DataStrategic, cost: true,
		outcome: Success, rounds: 2, finalPayment: 0x4011be3282c35c28, finalNet: 0x405957e53d6e5eb8,
		trace: "a1264e871f4f5a5b4b4e897bc6847545b70854fa8edc4c95925766e83e336905"},
	{cat: 0, sessSeed: 5, task: TaskBisection, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 2, finalPayment: 0x4011be3282c35c28, finalNet: 0x405957e53d6e5eb8,
		trace: "1856864e46f014d3c91f1ff0cf4ff9ef86500e4c0c55b1653d34b97a09b0647a"},
	{cat: 0, sessSeed: 5, task: TaskBisection, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 2, finalPayment: 0x4011be3282c35c28, finalNet: 0x405957e53d6e5eb8,
		trace: "a1264e871f4f5a5b4b4e897bc6847545b70854fa8edc4c95925766e83e336905"},
	{cat: 0, sessSeed: 5, task: TaskIncreasePrice, data: DataStrategic, cost: false,
		outcome: Success, rounds: 60, finalPayment: 0x401fd95e295cd314, finalNet: 0x40580eb3ece0a25d,
		trace: "b927045346a07c530ad5fc4469552b4fc8de5150c8952bed54d49f16e982d50f"},
	{cat: 0, sessSeed: 5, task: TaskIncreasePrice, data: DataStrategic, cost: true,
		outcome: Success, rounds: 25, finalPayment: 0x40059ac3f5ce6fd2, finalNet: 0x40595f73afc7fc0f,
		trace: "524af869207f237d15a9f6e647d8c39de57a25d53487dadcae6e7f88136d9bdf"},
	{cat: 0, sessSeed: 5, task: TaskIncreasePrice, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 62, finalPayment: 0x4020000000000000, finalNet: 0x405873c8659a947a,
		trace: "b33f62d6d0adbb49294145bf7fa3b259c3dbb585b74f86fe767bda8fa9cbd32d"},
	{cat: 0, sessSeed: 5, task: TaskIncreasePrice, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 62, finalPayment: 0x4020000000000000, finalNet: 0x405873c8659a947a,
		trace: "26a7c3c5a623f3894008f53a9533fc503dbbe671f9dc9dd337aa86d62fc784d1"},
	{cat: 1, sessSeed: 23, task: TaskStrategic, data: DataStrategic, cost: false,
		outcome: Success, rounds: 117, finalPayment: 0x400fe5f4cad1ef4a, finalNet: 0x4067c661e829c528,
		trace: "f391e2aaf4e0ec54e48bc83b4a31590524a9eb6fb448464d8bae77612ba9a79d"},
	{cat: 1, sessSeed: 23, task: TaskStrategic, data: DataStrategic, cost: true,
		outcome: Success, rounds: 8, finalPayment: 0x3ff3ee5195e8ddbd, finalNet: 0x40582cbc3bec698c,
		trace: "6c4004e06aea1bc21f1ee673c2bc5aef920ec1484466be24fd3e4795620ad3bd"},
	{cat: 1, sessSeed: 23, task: TaskStrategic, data: DataRandomBundle, cost: false,
		outcome: FailTask, rounds: 29, finalPayment: 0x3ff0f34aa99b4710, finalNet: 0xbff0f34aa99b4710,
		trace: "c9ca46830562aabf660921e278105ce989b075f63ba0dd30cc2e41b71123aa36"},
	{cat: 1, sessSeed: 23, task: TaskStrategic, data: DataRandomBundle, cost: true,
		outcome: FailTask, rounds: 29, finalPayment: 0x3ff0f34aa99b4710, finalNet: 0xbff0f34aa99b4710,
		trace: "ba4900877b9e93b909a3c55cc41d25f7359c8d2ce7b8a0dabd1497b49cada6f2"},
	{cat: 1, sessSeed: 23, task: TaskBisection, data: DataStrategic, cost: false,
		outcome: Success, rounds: 2, finalPayment: 0x40126d9f9adbeee4, finalNet: 0x4067b28cbe7e2d6e,
		trace: "39c84d08371dd4b4bf03bdb46b3ccb9fedb0d3895904a1e7dd2dcbb5ae349cba"},
	{cat: 1, sessSeed: 23, task: TaskBisection, data: DataStrategic, cost: true,
		outcome: Success, rounds: 2, finalPayment: 0x40126d9f9adbeee4, finalNet: 0x4067b28cbe7e2d6e,
		trace: "57061478f01002a8cb4cb96ea24f50a2dbfe060d5c78414b1589fe5531619a43"},
	{cat: 1, sessSeed: 23, task: TaskBisection, data: DataRandomBundle, cost: false,
		outcome: FailMaxRounds, rounds: 11, finalPayment: 0x401f164d28b7f082, finalNet: 0x40655fa8156704f3,
		trace: "562b542adfbf8aad9171269387f8f1763233e6fb08ee4e42949c8a0512ca9d36"},
	{cat: 1, sessSeed: 23, task: TaskBisection, data: DataRandomBundle, cost: true,
		outcome: FailMaxRounds, rounds: 11, finalPayment: 0x401f164d28b7f082, finalNet: 0x40655fa8156704f3,
		trace: "b79b7dd5bffa7434158973f5bfdd5f2ebbda5c3ba43312d41ac653389a2d6bfd"},
	{cat: 1, sessSeed: 23, task: TaskIncreasePrice, data: DataStrategic, cost: false,
		outcome: Success, rounds: 53, finalPayment: 0x401ff7c96288b318, finalNet: 0x4067463b7040c74c,
		trace: "6e3ec77249c5b62243c3c535e6b89c3470216d5c36eadf655c9aaf803c1cb21c"},
	{cat: 1, sessSeed: 23, task: TaskIncreasePrice, data: DataStrategic, cost: true,
		outcome: Success, rounds: 5, finalPayment: 0x3ff3b87fddb00954, finalNet: 0x40582d9382cd4cde,
		trace: "af0236dd2b9206f7d964f43ef14f3be780d34cece62c67616ecd3193e13b1585"},
	{cat: 1, sessSeed: 23, task: TaskIncreasePrice, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 52, finalPayment: 0x4020000000000000, finalNet: 0x4062e9413764215b,
		trace: "ccf2af8273e954d1228660a9cc7b7a237ab15271870b90a59d48a24f5a48f419"},
	{cat: 1, sessSeed: 23, task: TaskIncreasePrice, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 52, finalPayment: 0x4020000000000000, finalNet: 0x4062e9413764215b,
		trace: "a3a1a759015bb268326fa9f8c4d2c8789ce4ebbf52a3728b80efabbf7ca15d3f"},
	{cat: 2, sessSeed: 17, task: TaskStrategic, data: DataStrategic, cost: false,
		outcome: Success, rounds: 96, finalPayment: 0x400ab8948421ae10, finalNet: 0x4066151dadef7948,
		trace: "281accaabf53884db3084e488bad326121924c8cdde656ca62ceeddbd82f57ae"},
	{cat: 2, sessSeed: 17, task: TaskStrategic, data: DataStrategic, cost: true,
		outcome: Success, rounds: 96, finalPayment: 0x400ab8948421ae10, finalNet: 0x4066151dadef7948,
		trace: "b38bf6a2c312b87af24e44aecda884c79b9cf0d3e2f3c258236ebb66ae9c4d60"},
	{cat: 2, sessSeed: 17, task: TaskStrategic, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 143, finalPayment: 0x4011c6e74acf9814, finalNet: 0x4065f1c8c5a9833f,
		trace: "5bcee2d74a872f48c7a469f164cc70219b35c3475f405283223d0be5853e4efa"},
	{cat: 2, sessSeed: 17, task: TaskStrategic, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 143, finalPayment: 0x4011c6e74acf9814, finalNet: 0x4065f1c8c5a9833f,
		trace: "a3a282f83045cc5f8b5142e2ebb97ef4ae0c566f316b328d29f1425a61440bcf"},
	{cat: 2, sessSeed: 17, task: TaskBisection, data: DataStrategic, cost: false,
		outcome: Success, rounds: 2, finalPayment: 0x40128fa062fbafb3, finalNet: 0x4065eb82fce82282,
		trace: "eeeca52a6cc3dea0e24461588ee68abb6302afb3f26cc4e399acb90fb70922f2"},
	{cat: 2, sessSeed: 17, task: TaskBisection, data: DataStrategic, cost: true,
		outcome: Success, rounds: 2, finalPayment: 0x40128fa062fbafb3, finalNet: 0x4065eb82fce82282,
		trace: "e3b89937ea2cac1c6a7f6559c210ac9feff39e0f99fca76b8dbe9f3049a65aa4"},
	{cat: 2, sessSeed: 17, task: TaskBisection, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 7, finalPayment: 0x401f91684c4bfd5b, finalNet: 0x40658374bd9da015,
		trace: "4ad9a7839fab354072360f8725e0fb955ea75d4aaa743d6dc85da44a963de5c9"},
	{cat: 2, sessSeed: 17, task: TaskBisection, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 7, finalPayment: 0x401f91684c4bfd5b, finalNet: 0x40658374bd9da015,
		trace: "bc93476112e28e88b40ae2609d768fe9d5b439f0d0b31f80bd5d89a4dedae6ba"},
	{cat: 2, sessSeed: 17, task: TaskIncreasePrice, data: DataStrategic, cost: false,
		outcome: Success, rounds: 61, finalPayment: 0x401ff7960225d449, finalNet: 0x405700869fdda2bb,
		trace: "888378182c69c4d57a399813de51c610fe20873d38422c0ebeafbbb5d561cd47"},
	{cat: 2, sessSeed: 17, task: TaskIncreasePrice, data: DataStrategic, cost: true,
		outcome: Success, rounds: 22, finalPayment: 0x4009bad2a244df21, finalNet: 0x40661914b576ec83,
		trace: "86340b16854d8983f41a33feabe8172111b3499ea1811fb37f66ad696d354140"},
	{cat: 2, sessSeed: 17, task: TaskIncreasePrice, data: DataRandomBundle, cost: false,
		outcome: Success, rounds: 56, finalPayment: 0x4020000000000000, finalNet: 0x4063000000000000,
		trace: "0a7efe861f4c5120dcf53189cb191c38e31ae38db90648a30a6b800fd373881a"},
	{cat: 2, sessSeed: 17, task: TaskIncreasePrice, data: DataRandomBundle, cost: true,
		outcome: Success, rounds: 56, finalPayment: 0x4020000000000000, finalNet: 0x4063000000000000,
		trace: "ec2d830586f1a77b572ee6f892d707d933ddd221c283aa03f45ce152307932a5"},
}

// TestRunPerfectMatchesGoldens replays every perfect golden and demands the
// identical trajectory, so a reordering of the candidate pool, a changed
// tie-break in bundle selection or a drifted float anywhere in the game
// fails here even though both sides of engine≡wire would move together.
func TestRunPerfectMatchesGoldens(t *testing.T) {
	type combo struct {
		task TaskStrategy
		data DataStrategy
		cost bool
	}
	covered := map[combo]bool{}
	cats := map[int]*Catalog{}
	for _, g := range perfectGoldens {
		cat, ok := cats[g.cat]
		if !ok {
			cat = perfectGoldenCatalog(t, g.cat)
			cats[g.cat] = cat
		}
		res, err := RunPerfect(cat, perfectGoldenSession(cat, g))
		if err != nil {
			t.Fatal(err)
		}
		name := []any{g.cat, g.sessSeed, g.task, g.data, g.cost}
		if res.Outcome != g.outcome || len(res.Rounds) != g.rounds {
			t.Errorf("%v: outcome %v after %d rounds, golden %v after %d",
				name, res.Outcome, len(res.Rounds), g.outcome, g.rounds)
			continue
		}
		if got := bitsOf(res.Final.Payment); got != g.finalPayment {
			t.Errorf("%v: final payment %#x, golden %#x", name, got, g.finalPayment)
		}
		if got := bitsOf(res.Final.NetProfit); got != g.finalNet {
			t.Errorf("%v: final net profit %#x, golden %#x", name, got, g.finalNet)
		}
		if got := traceDigest(res); got != g.trace {
			t.Errorf("%v: trace digest %s, golden %s", name, got, g.trace)
		}
		covered[combo{g.task, g.data, g.cost}] = true
	}
	if len(covered) != 12 {
		t.Fatalf("goldens cover %d of the 12 strategy × cost combinations", len(covered))
	}
}

// answerQuoteReference is the pre-rewrite strategic data party, preserved
// verbatim: materialize the affordable set, filter it by the Case 4
// break-even into a second slice, then ClosestBelow / ClosestAbove.
func answerQuoteReference(cat *Catalog, q QuotedPrice, u, epsData float64,
	dataCost CostModel, round int, epsDataC float64) SellerOffer {
	affordable := cat.AffordableInto(nil, q)
	if len(affordable) == 0 {
		return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: -1,
			Reason: "no bundle satisfies the quoted price (Case 1)"}
	}
	if u > q.Rate {
		breakEven := BreakEvenGain(u, q)
		viable := affordable[:0:0]
		for _, id := range affordable {
			if cat.Gain(id) >= breakEven {
				viable = append(viable, id)
			}
		}
		if len(viable) == 0 {
			return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: -1,
				Reason: "no affordable bundle clears the break-even (Case 1)"}
		}
		affordable = viable
	}
	target := q.TargetGain()
	id, ok := cat.ClosestBelow(affordable, target)
	if !ok {
		id, _ = cat.ClosestAbove(affordable, target)
	}
	offer := SellerOffer{BundleID: id, Features: cat.Bundles[id].Features, TargetBundleID: -1}
	gain := cat.Gain(id)
	switch {
	case target-gain <= epsData:
		offer.Accept = true
	case dataAcceptsUnderCostReference(cat, q, gain, dataCost, round, epsDataC):
		offer.Accept = true
	}
	return offer
}

// dataAcceptsUnderCostReference is the pre-rewrite Eq. 6 check, preserved
// verbatim: it builds the all-ids slice and asks ClosestAbove.
func dataAcceptsUnderCostReference(cat *Catalog, q QuotedPrice, offeredGain float64,
	cost CostModel, T int, epsDC float64) bool {
	if cost.Kind == NoCost {
		return false
	}
	target := q.TargetGain()
	all := make([]int, cat.Len())
	for i := range all {
		all[i] = i
	}
	j, ok := cat.ClosestAbove(all, offeredGain)
	if !ok {
		return true
	}
	gainJ := cat.Gain(j)
	if gainJ > target {
		gainJ = target
	}
	res := cat.Bundles[j].Reserved
	lhs := q.Base + q.Rate*offeredGain - cost.At(T)
	rhs := math.Max(res.Base, q.Base) + math.Max(res.Rate, q.Rate)*gainJ - cost.At(T+1) - epsDC
	return lhs >= rhs
}

// referenceQuotes returns the session's Eq. 5 candidate pool plus quotes
// drawn well outside it — unaffordable ones, knees below every gain, and
// ceilings far above the top bundle — so every branch of the data party's
// policy is reached.
func referenceQuotes(cfg SessionConfig, src *rng.Source) []QuotedPrice {
	quotes := samplePricePool(cfg.withDefaults(), 200, src.Split(1))
	for k := 0; k < 400; k++ {
		rate := cfg.InitRate * (0.05 + 3*src.Float64())
		base := cfg.InitBase * 2 * src.Float64()
		quotes = append(quotes, QuotedPrice{Rate: rate, Base: base,
			High: base + rate*cfg.TargetGain*(0.05+2*src.Float64())})
	}
	return quotes
}

// TestAnswerQuoteMatchesReference compares the one-pass AnswerQuote with
// the preserved slice-based policy on every golden catalog (including the
// tie-heavy quantized one, also with NaN gains), for rational and
// irrational utility rates, with and without cost, and checks that every
// branch was exercised.
func TestAnswerQuoteMatchesReference(t *testing.T) {
	branches := map[string]int{}
	for which := 0; which < 4; which++ {
		cat := perfectGoldenCatalog(t, min(which, 2))
		cfg := sessionFor(cat, uint64(40+which))
		if which == 3 {
			// A peer-supplied gain can be NaN: it must be filtered and
			// ranked exactly as before.
			cat.gains[3], cat.gains[10] = math.NaN(), math.NaN()
		}
		for _, q := range referenceQuotes(cfg, rng.New(uint64(90+which))) {
			// u far above the rate, barely above it (a break-even above
			// every gain), and at or below it (no Case 4 filter at all).
			for _, u := range []float64{cfg.U, q.Rate * 1.0001, q.Rate, q.Rate / 2} {
				for _, cost := range []CostModel{NoCostModel, goldenCost} {
					for _, round := range []int{1, 7} {
						want := answerQuoteReference(cat, q, u, cfg.EpsData, cost, round, 0.01)
						got := AnswerQuote(cat, q, u, cfg.EpsData, cost, round, 0.01)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("catalog %d quote %+v u %v cost %v round %d: got %+v, reference %+v",
								which, q, u, cost, round, got, want)
						}
						switch {
						case want.Fail:
							branches[want.Reason]++
						case cat.Gain(want.BundleID) > q.TargetGain():
							branches["above the knee"]++
						case want.Accept:
							branches["accept"]++
						default:
							branches["below the knee"]++
						}
					}
				}
			}
		}
	}
	for _, b := range []string{"no bundle satisfies the quoted price (Case 1)",
		"no affordable bundle clears the break-even (Case 1)",
		"above the knee", "accept", "below the knee"} {
		if branches[b] == 0 {
			t.Errorf("branch %q never reached: %v", b, branches)
		}
	}
}

// TestDataAcceptsUnderCostMatchesReference compares the direct gains scan
// of Eq. 6 with the preserved all-ids ClosestAbove form, at every catalog
// gain (ties included) and between them.
func TestDataAcceptsUnderCostMatchesReference(t *testing.T) {
	for which := 0; which < 4; which++ {
		cat := perfectGoldenCatalog(t, min(which, 2))
		cfg := sessionFor(cat, uint64(50+which))
		if which == 3 {
			cat.gains[3], cat.gains[10] = math.NaN(), math.NaN()
		}
		offered := append([]float64{-1, 0}, cat.gains...)
		for _, g := range cat.gains {
			offered = append(offered, g+1e-4, math.Nextafter(g, math.Inf(-1)))
		}
		for _, q := range referenceQuotes(cfg, rng.New(uint64(70+which)))[:120] {
			for _, gain := range offered {
				for _, cost := range []CostModel{NoCostModel, goldenCost, {Kind: ExpCost, Factor: 1.2}} {
					for _, T := range []int{1, 9} {
						want := dataAcceptsUnderCostReference(cat, q, gain, cost, T, 0.01)
						if got := dataAcceptsUnderCost(cat, q, gain, cost, T, 0.01); got != want {
							t.Fatalf("catalog %d quote %+v gain %v cost %v T %d: got %v, reference %v",
								which, q, gain, cost, T, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRunImperfectDeterministicDeepEqual replays one configuration twice
// and demands the full ImperfectResult — every round record and both MSE
// series — be DeepEqual: the scan buffers reused across rounds must never
// leak state between runs.
func TestRunImperfectDeterministicDeepEqual(t *testing.T) {
	for _, g := range imperfectGoldens[:3] {
		cat := testCatalog(t, g.feats, g.catSeed)
		cfg := sessionFor(cat, g.sessSeed)
		params := ImperfectParams{ExplorationRounds: g.explore, PricePool: 120}
		a, err := RunImperfect(cat, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunImperfect(cat, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cat %d/%d: identical configurations played different games", g.catSeed, g.sessSeed)
		}
	}
}

// trainedPriceEstimator builds f and trains it on a deterministic stream of
// (quote, gain) pairs so the scan comparisons run against non-trivial
// weights.
func trainedPriceEstimator(cfg SessionConfig, pool []QuotedPrice, steps int) *PriceEstimator {
	src := rng.New(cfg.Seed)
	gainScale := gainScaleFor(cfg.TargetGain)
	maxRate := math.Min(cfg.U, (cfg.Budget-cfg.InitBase)/cfg.TargetGain)
	f := NewPriceEstimator(maxRate, cfg.Budget, gainScale, src.Split(1).Uint64())
	train := src.Split(9)
	for k := 0; k < steps; k++ {
		q := pool[train.IntN(len(pool))]
		f.Update(q, train.Float64()*cfg.TargetGain)
	}
	return f
}

// nextImperfectQuoteReference is the pre-rewrite per-sample scan, preserved
// verbatim: one f.Predict per pool member.
func nextImperfectQuoteReference(s SessionConfig, f *PriceEstimator, pool []QuotedPrice) QuotedPrice {
	bestFiltered, bestAny := -1, -1
	var bestFilteredProfit, bestAnyProfit float64
	for i, q := range pool {
		pred := f.Predict(q)
		profit := s.U*pred - q.Payment(pred)
		if bestAny < 0 || profit > bestAnyProfit {
			bestAny, bestAnyProfit = i, profit
		}
		if pred >= q.TargetGain()-s.EpsTask {
			atKnee := s.U*q.TargetGain() - q.High
			if bestFiltered < 0 || atKnee > bestFilteredProfit {
				bestFiltered, bestFilteredProfit = i, atKnee
			}
		}
	}
	if bestFiltered >= 0 {
		return pool[bestFiltered]
	}
	return pool[bestAny]
}

func TestPredictPoolBitIdenticalToPerSample(t *testing.T) {
	cat := testCatalog(t, 7, 31)
	cfg := sessionFor(cat, 31).withDefaults()
	pool := samplePricePool(cfg, 150, rng.New(cfg.Seed).Split(3))
	f := trainedPriceEstimator(cfg, pool, 60)
	batched := f.PredictPool(pool)
	if len(batched) != len(pool) {
		t.Fatalf("PredictPool returned %d predictions for %d quotes", len(batched), len(pool))
	}
	// f.Predict reuses f's input scratch, and PredictPool reuses its output
	// slice — snapshot the batch before the per-sample walk.
	snap := append([]float64(nil), batched...)
	for i, q := range pool {
		if got, want := bitsOf(snap[i]), bitsOf(f.Predict(q)); got != want {
			t.Fatalf("quote %d: batched %#x, per-sample %#x", i, got, want)
		}
	}
}

func TestNextImperfectQuoteMatchesReference(t *testing.T) {
	for _, seed := range []uint64{3, 17, 52} {
		cat := testCatalog(t, 6, seed)
		cfg := sessionFor(cat, seed).withDefaults()
		pool := samplePricePool(cfg, 120, rng.New(cfg.Seed).Split(3))
		for _, steps := range []int{0, 25, 120} {
			f := trainedPriceEstimator(cfg, pool, steps)
			want := nextImperfectQuoteReference(cfg, f, pool)
			got := nextImperfectQuote(cfg, f, pool, false, nil)
			if got != want {
				t.Fatalf("seed %d steps %d: batched scan chose %+v, reference %+v", seed, steps, got, want)
			}
		}
	}
}

// caseTwoChoiceReference is the pre-rewrite per-sample Case II policy,
// preserved verbatim: a whole-inventory g.Predict scan, a second scan over
// the affordable set, and a third Predict for the accept check.
func caseTwoChoiceReference(s *EstimatorSeller, q QuotedPrice, affordable []int) (bundleID int, accept bool) {
	knee := q.TargetGain()
	minAll, maxAll := math.Inf(1), math.Inf(-1)
	for i := range s.cat.Bundles {
		pred := s.g.Predict(s.cat.Bundles[i].Features)
		minAll = math.Min(minAll, pred)
		maxAll = math.Max(maxAll, pred)
	}
	bestBelow, bestAbove := -1, -1
	var bestBelowPred, bestAbovePred float64
	maxID, minID := affordable[0], affordable[0]
	maxPred, minPred := math.Inf(-1), math.Inf(1)
	for _, id := range affordable {
		pred := s.g.Predict(s.cat.Bundles[id].Features)
		if pred > maxPred {
			maxPred, maxID = pred, id
		}
		if pred < minPred {
			minPred, minID = pred, id
		}
		if pred <= knee {
			if bestBelow < 0 || pred > bestBelowPred {
				bestBelow, bestBelowPred = id, pred
			}
		} else if bestAbove < 0 || pred < bestAbovePred {
			bestAbove, bestAbovePred = id, pred
		}
	}
	switch {
	case knee-maxAll > s.cfg.EpsData:
		return maxID, true
	case minAll-knee > s.cfg.EpsData:
		return minID, true
	default:
		if bestBelow >= 0 {
			bundleID = bestBelow
		} else {
			bundleID = bestAbove
		}
		accept = knee-s.g.Predict(s.cat.Bundles[bundleID].Features) <= s.cfg.EpsData
		return bundleID, accept
	}
}

// trainedEstimatorSeller builds the data party and trains g on a
// deterministic stream of (bundle, gain) settlements.
func trainedEstimatorSeller(cat *Catalog, cfg SessionConfig, steps int) *EstimatorSeller {
	s := NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed: cfg.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData,
		Params: ImperfectParams{ExplorationRounds: 10},
	})
	train := rng.New(cfg.Seed).Split(11)
	for k := 0; k < steps; k++ {
		id := train.IntN(cat.Len())
		s.g.Update(cat.Bundles[id].Features, cat.Gain(id))
	}
	return s
}

func TestPredictAllBitIdenticalToPerSample(t *testing.T) {
	cat := testCatalog(t, 8, 43)
	cfg := sessionFor(cat, 43)
	s := trainedEstimatorSeller(cat, cfg, 80)
	batched := s.g.PredictAll(s.featureSets)
	if len(batched) != cat.Len() {
		t.Fatalf("PredictAll returned %d predictions for %d bundles", len(batched), cat.Len())
	}
	snap := append([]float64(nil), batched...)
	for i := range cat.Bundles {
		if got, want := bitsOf(snap[i]), bitsOf(s.g.Predict(cat.Bundles[i].Features)); got != want {
			t.Fatalf("bundle %d: batched %#x, per-sample %#x", i, got, want)
		}
	}
}

func TestCaseTwoChoiceMatchesReference(t *testing.T) {
	for _, seed := range []uint64{7, 29, 83} {
		cat := testCatalog(t, 7, seed)
		cfg := sessionFor(cat, seed).withDefaults()
		pool := samplePricePool(cfg, 80, rng.New(cfg.Seed).Split(3))
		for _, steps := range []int{0, 40, 150} {
			s := trainedEstimatorSeller(cat, cfg, steps)
			compared := 0
			for _, q := range pool {
				affordable := cat.AffordableInto(nil, q)
				if len(affordable) == 0 {
					continue
				}
				wantID, wantAccept := caseTwoChoiceReference(s, q, affordable)
				gotID, gotAccept := s.caseTwoChoice(q, affordable)
				if gotID != wantID || gotAccept != wantAccept {
					t.Fatalf("seed %d steps %d: batched (%d, %v), reference (%d, %v)",
						seed, steps, gotID, gotAccept, wantID, wantAccept)
				}
				compared++
			}
			if compared == 0 {
				t.Fatalf("seed %d: no quote in the pool admitted any bundle", seed)
			}
		}
	}
}

// TestRunBatchImperfectMatchesStandaloneSessions pins the core runner to
// the single-session path: every slot of a batch must be DeepEqual to a
// standalone RunImperfect with the same configuration, regardless of the
// worker count.
func TestRunBatchImperfectMatchesStandaloneSessions(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	params := ImperfectParams{ExplorationRounds: 12, PricePool: 60}
	jobs := make([]ImperfectBatchJob, 6)
	for i := range jobs {
		cfg := sessionFor(cat, uint64(100+i))
		jobs[i] = ImperfectBatchJob{Config: cfg, Params: params}
	}
	ref := make([]*ImperfectResult, len(jobs))
	for i := range jobs {
		res, err := RunImperfect(cat, jobs[i].Config, params)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res
	}
	for _, workers := range []int{1, 3, 0} {
		got, err := RunBatchImperfect(t.Context(), cat, jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers %d: batch slot %d differs from the standalone session", workers, i)
			}
		}
	}
}
