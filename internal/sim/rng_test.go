package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The RNG stream contract is the property every coreda-vet analyzer
// ultimately protects: the same (seed, stream) pair must reproduce the
// same sequence bit-for-bit, while distinct stream labels — or distinct
// seeds — must yield decorrelated sequences, so adding a new consumer of
// randomness never perturbs existing ones.

const rngDraws = 4096

func drawFloats(seed int64, stream string, n int) []float64 {
	r := RNG(seed, stream)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// pearson returns the sample correlation coefficient of x and y.
func pearson(x, y []float64) float64 {
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(len(x)), sy/float64(len(y))
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	return cov / math.Sqrt(vx*vy)
}

func TestRNGReproducible(t *testing.T) {
	t.Parallel()
	cases := []struct {
		seed   int64
		stream string
	}{
		{1, "persona"},
		{1, "signal"},
		{7, "ablation/reward/paper 100:50"},
		{-3, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.stream, func(t *testing.T) {
			t.Parallel()
			a := drawFloats(tc.seed, tc.stream, rngDraws)
			b := drawFloats(tc.seed, tc.stream, rngDraws)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d stream %q: draw %d differs between runs: %v vs %v",
						tc.seed, tc.stream, i, a[i], b[i])
				}
			}
		})
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name           string
		seedA, seedB   int64
		streamA, strmB string
	}{
		{"different streams", 1, 1, "persona", "signal"},
		{"prefix streams", 1, 1, "rest", "rest-1"},
		{"label vs suffixed label", 42, 42, "medium", "medium/noise"},
		{"different seeds same stream", 1, 2, "persona", "persona"},
		{"seed/stream boundary ambiguity", 1, 12, "2/x", "/x"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a := drawFloats(tc.seedA, tc.streamA, rngDraws)
			b := drawFloats(tc.seedB, tc.strmB, rngDraws)

			same := 0
			for i := range a {
				if a[i] == b[i] {
					same++
				}
			}
			if same > rngDraws/100 {
				t.Errorf("streams share %d/%d draws: sequences are not independent", same, rngDraws)
			}
			if r := pearson(a, b); math.Abs(r) > 0.05 {
				t.Errorf("correlation %.4f between streams, want |r| <= 0.05", r)
			}
		})
	}
}

// TestStreamSeedPinned pins the derived seed of a (seed, stream) pair:
// the FNV-1a hash of "<seed>/<stream>". The table was captured with
// fmt.Fprintf(h, "%d/%s", seed, stream); a change to the hash input would
// shift every stream in the repo, and fails here first. The last row
// overflows streamSeed's stack buffer.
func TestStreamSeedPinned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		seed   int64
		stream string
		want   int64
	}{
		{0, "", 575327188912237952},
		{1, "system", -8579658014746967064},
		{1, "planner", 380116828501388767},
		{7, "persona", 8374150204491149493},
		{-3, "chaos", -266457173506328910},
		{42, "fleet/ctl/worker/7", 7666078956342414179},
		{math.MinInt64, "x", 6661679808740798958},
		{math.MaxInt64, "fleet/soak/household-0001", 2664780368313100715},
		{123456789, "perfbench/gateway/1", -4566733901726540399},
		{5, "a very long stream name that does not fit in any small stack buffer at all, not even close to it", -8001207855085168056},
	}
	for _, tc := range cases {
		if got := streamSeed(tc.seed, tc.stream); got != tc.want {
			t.Errorf("streamSeed(%d, %q) = %d, want %d", tc.seed, tc.stream, got, tc.want)
		}
	}
}

// TestRNGMatchesEagerSource holds the stream to the one it stands in
// for: rand.New(rand.NewSource(s)) on the FNV-1a seed of
// "<seed>/<stream>", through every rand.Rand method the repo draws with,
// across Seed calls before the first draw, mid-stream and after the
// generator state is built, after draw counts on both sides of every
// boundary of the generator (the closed form's alfgTap draws, the feed
// index wrapping at alfgFeed, the state cycling at alfgLen and twice
// that), and for seeds on every branch of the seed reduction.
func TestRNGMatchesEagerSource(t *testing.T) {
	t.Parallel()
	eager := func(seed int64, stream string) *rand.Rand {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", seed, stream)
		return rand.New(rand.NewSource(int64(h.Sum64())))
	}
	// draws runs one round of every method on r and returns the results.
	draws := func(r *rand.Rand) []any {
		out := []any{r.Int63(), r.Uint64(), r.Float64(), r.Intn(7), r.Intn(1 << 40),
			r.Int31n(1000), r.Perm(9), r.NormFloat64()}
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return append(out, s)
	}
	same := func(t *testing.T, what string, got, want *rand.Rand) {
		t.Helper()
		for round := 0; round < 50; round++ {
			g, w := fmt.Sprint(draws(got)), fmt.Sprint(draws(want))
			if g != w {
				t.Fatalf("%s: round %d differs:\n got %s\nwant %s", what, round, g, w)
			}
		}
	}
	for _, seed := range []int64{0, 1, -3, 42, math.MaxInt64} {
		for _, stream := range []string{"", "planner", "fleet/ctl/worker/3", "signals"} {
			t.Run(fmt.Sprintf("%d/%s", seed, stream), func(t *testing.T) {
				same(t, "fresh", RNG(seed, stream), eager(seed, stream))

				got, want := RNG(seed, stream), eager(seed, stream)
				got.Seed(seed + 99)
				want.Seed(seed + 99)
				same(t, "seeded before first draw", got, want)
				got.Seed(seed - 5)
				want.Seed(seed - 5)
				same(t, "re-seeded mid-stream", got, want)
			})
		}
	}
	// skip draws n values from both streams and fails on the first
	// that differs.
	skip := func(t *testing.T, n int, got, want *rand.Rand) {
		t.Helper()
		for i := 0; i < n; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d = %#x, want %#x", i, g, w)
			}
		}
	}
	for _, n := range []int{0, 1, 272, 273, 274, 275, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215} {
		t.Run(fmt.Sprintf("after %d draws", n), func(t *testing.T) {
			got, want := RNG(7, "planner"), eager(7, "planner")
			skip(t, n, got, want)
			same(t, "drawn on", got, want)

			got.Seed(int64(n))
			want.Seed(int64(n))
			same(t, "re-seeded", got, want)
		})
	}
	for _, seed := range []int64{0, 1, -1, -2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		lehmerMod, -lehmerMod, 2 * lehmerMod, 89482311 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
		-(lehmerMod - 1), 89482311, (math.MaxInt64 / lehmerMod) * lehmerMod} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			got, want := rand.New(&lazySource{x0: lehmerSeed(seed)}), rand.New(rand.NewSource(seed))
			skip(t, 2*alfgLen+1, got, want)
			same(t, "direct", got, want)

			got, want = RNG(seed, "x"), eager(seed, "x")
			got.Seed(seed)
			want.Seed(seed)
			same(t, "through Seed", got, want)
		})
	}
}

// FuzzRNGMatchesStdlib checks n draws of a stream seeded with seed
// against math/rand's own source. Plain go test runs the f.Add seeds and
// the committed corpus in testdata/fuzz/FuzzRNGMatchesStdlib.
func FuzzRNGMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(alfgTap))
	f.Add(int64(1), uint16(alfgTap+1))
	f.Add(int64(-1), uint16(alfgFeed+1))
	f.Add(int64(lehmerMod), uint16(alfgLen+1))
	f.Add(int64(math.MinInt64), uint16(2*alfgLen+1))
	f.Add(int64(math.MaxInt64), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := rand.New(&lazySource{x0: lehmerSeed(seed)}), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(n); i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 after %d draws = %d, want %d", seed, n, g, w)
		}
	})
}
