package corpus

import (
	"math/rand"
	"sync"
)

// math/rand's source is an additive lagged Fibonacci generator: draw k
// is y_k = y_{k−607} + y_{k−273} mod 2⁶⁴, kept in a register of the last
// rngLen draws. Only the low 63 bits of a draw are ever used (Int63),
// and a sum's low bits depend only on its terms' low bits, so a source
// keeps those alone.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // 334: where math/rand's feed cursor starts
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding generator's modulus, a prime

	// rngRun is how many draws a source computes at a time once its
	// register is seeded; the history holds rngLen words before them.
	rngRun = rngLen
	// freshChunk is how many draws a freshly seeded source computes, and
	// seeds register words for, at a time. HTML re-seeds its paragraph
	// source for ≈ 58 draws.
	freshChunk = 16

	// sentinel sits in the history just past the last computed draw. It
	// is a possible draw (2⁶³−1), but one every fast path sends to its
	// slow path: Int63 tests for it, it is an Int31 of 2³¹−1, which
	// Intn never takes without checking, and its Float64 rounds to 1.
	sentinel = rngMask
)

// source replays rand.New(rand.NewSource(seed)) draw for draw: Int63,
// Int31, Intn, Float64 and Read return what *rand.Rand's methods of the
// same name return, in the same order, with the same arithmetic
// (Int31n's rejection loop, Float64's resample, Read's seven bytes per
// draw). It differs from math/rand in how it gets there:
//
//   - Seeding. math/rand fills its register with 1 841 serial steps of
//     Schrage's method (x ← 48271·x mod 2³¹−1), three per word after 20
//     warm-up steps, each word XORed with rngCooked. Step j is
//     seed·48271ʲ mod 2³¹−1, so a word here is three multiplies by
//     precomputed powers and needs none of the words before it.
//   - Lazily. A word is seeded when a draw first reads it: until the
//     register is full, draws are computed freshChunk at a time and seed
//     just the words those draws read.
//   - Ahead. Draws are computed in runs into hist, a linear history,
//     and handed out in order until the sentinel after the run: a draw
//     is a load, a compare and an increment, and Int63, Intn and Float64
//     inline.
//
// A source is not safe for concurrent use.
type source struct {
	// hist[i−rngLen:i] are the rngLen draws before hist[i]; hist[end]
	// is the sentinel. Before the first run, hist[:rngLen] is the seeded
	// register in the order draws read it (hist[j] is math/rand's
	// vec[(333−j) mod 607]).
	hist   [rngLen + rngRun + 1]int64
	i, end int
	fresh  bool   // hist[:rngLen] is not yet all seeded
	x0     uint64 // the normalised seed

	readVal int64
	readPos int8
}

// The seeding tables, in history order, built by buildTables at the
// first Seed.
var (
	tablesOnce sync.Once
	// seedPow[j] are the three steps of the seeding generator that make
	// history word j: 48271^(21+3w+k) mod 2³¹−1 for k = 0, 1, 2, where w
	// is the word's register index.
	seedPow [rngLen][3]uint64
	// cooked[j] is math/rand's rngCooked[w], low 63 bits.
	cooked [rngLen]uint64
)

// buildTables computes seedPow, then recovers rngCooked from math/rand
// rather than copying it. Let v be the register a source seeded with 1
// starts with and y₁…y₆₀₇ its first draws (Uint64). In register order
//
//	k = 1…273:    y_k = v[334−k] + v[607−k]
//	k = 274…334:  y_k = v[334−k] + y_{k−273}
//	k = 335…606:  y_k = v[941−k] + y_{k−273}
//	k = 607:      y_k = v[334]   + y_{334}
//
// which in history order, h[j] = v[(333−j) mod 607], is y_k = h[k−1] +
// h[k+333] with h[607+m] = y_{m+1}. The draws from 274 on give
// h[273…606]; the first 273 then give h[0…272]. Seed 1's seeding words
// are seedPow itself (x₀ = 1), so XORing them off leaves rngCooked.
func buildTables() {
	x := uint64(1)
	for j := 0; j < 20; j++ {
		x = x * 48271 % int32max
	}
	for w := range rngLen {
		j := (rngLen + rngFeed - 1 - w) % rngLen
		for k := range seedPow[j] {
			x = x * 48271 % int32max
			seedPow[j][k] = x
		}
	}

	src := rand.NewSource(1).(rand.Source64)
	var h [2 * rngLen]uint64
	for k := rngLen; k < len(h); k++ {
		h[k] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- { // h[k] from draw k+1
		h[k] = h[k+rngLen] - h[k+rngFeed]
	}
	for j, p := range seedPow {
		cooked[j] = (h[j] ^ p[0]<<40 ^ p[1]<<20 ^ p[2]) & rngMask
	}
}

// seedWords sets hist[lo:hi] to the words s's seed puts there: the
// seeding generator's three steps, packed as math/rand packs them, XOR
// rngCooked.
func (s *source) seedWords(lo, hi int) {
	h := s.hist[lo:hi]
	pow, ck := seedPow[lo:hi], cooked[lo:hi]
	for j := range h {
		p := &pow[j]
		w := mulMod(s.x0, p[0])<<40 ^ mulMod(s.x0, p[1])<<20 ^ mulMod(s.x0, p[2])
		h[j] = int64(w&rngMask ^ ck[j])
	}
}

// mulMod returns a·b mod 2³¹−1 for 0 < a, b < 2³¹−1. As 2³¹ ≡ 1, the
// product's high and low 31 bits add up to it, less than twice over;
// when they are under the modulus, subtracting it wraps to the larger.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	return min(r, r-int32max)
}

// rng returns a source seeded with seed.
func rng(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state rand.NewSource(seed) starts in, as
// (*rand.Rand).Seed does. It seeds no register word: draws do that.
func (s *source) Seed(seed int64) {
	tablesOnce.Do(buildTables)
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.i, s.end = rngLen, rngLen
	s.hist[rngLen] = sentinel
	s.fresh = true
	s.readPos = 0
}

// run computes the next run of draws after the last one taken.
func (s *source) run() {
	k := s.end
	if k == len(s.hist)-1 {
		copy(s.hist[:rngLen], s.hist[k-rngLen:k])
		k = rngLen
	}
	n := len(s.hist) - 1 - k
	if s.fresh {
		// Draw d+1 reads the words d and d+334 of the seeded register.
		// Up to draw 334 the first is new, up to draw 273 the second; the
		// second of a later draw is the draw 273 before it.
		n = min(n, freshChunk)
		d := k - rngLen
		if d < rngFeed {
			s.seedWords(d, min(d+n, rngFeed))
		}
		if d < rngTap {
			s.seedWords(d+rngFeed, min(d+rngFeed+n, rngLen))
		}
		s.fresh = d+n < rngFeed
	}
	// out[j] = back[j] + tap[j]: the draws rngLen and rngTap before it.
	// tap runs into out once n > rngTap, and the loop's order then reads
	// each draw after writing it, as it must.
	out := s.hist[k : k+n]
	back, tap := s.hist[k-rngLen:k-rngLen+len(out)], s.hist[k-rngTap:k-rngTap+len(out)]
	for j := range out {
		out[j] = (back[j] + tap[j]) & rngMask
	}
	s.i, s.end = k, k+n
	s.hist[s.end] = sentinel
}

// Int63 is rand.Rand.Int63. (Its named result, like Float64's, keeps it
// within the inlining budget.)
func (s *source) Int63() (w int64) {
	if w = s.hist[s.i]; w == sentinel {
		return s.int63Slow()
	}
	s.i++
	return w
}

// int63Slow is Int63 at the sentinel, or at a draw equal to it. It is
// kept out of line so that Int63 inlines.
//
//go:noinline
func (s *source) int63Slow() int64 {
	if s.i == s.end {
		s.run()
	}
	s.i++
	return s.hist[s.i-1]
}

// Int31 is rand.Rand.Int31.
func (s *source) Int31() int32 { return int32(s.Int63() >> 32) }

// Intn is rand.Rand.Intn. It inlines whole, so a division by a
// constant n compiles to a multiply.
func (s *source) Intn(n int) int { return int(intnDraw(s, n, (*source).intnSlow) % uint64(n)) }

// intnDraw returns the draw Intn reduces mod n. For 0 < n < 2³¹
// math/rand takes an Int31 v and draws again while v > 2³¹−1 − 2³¹ mod n
// (a power of two masks, which is the same as mod). A v ≤ 2³¹−1 − n is
// never rejected, so one compare keeps every other v, every other n and
// the sentinel for slow. slow is always intnSlow: the inliner charges a
// call through a parameter 17, a direct call 57, and only the first
// keeps Intn within its budget of 80.
func intnDraw(s *source, n int, slow func(*source, int) uint64) uint64 {
	v := uint64(s.hist[s.i] >> 32)
	if uint64(n-1) < int32max-v {
		s.i++
		return v
	}
	return slow(s, n)
}

// intnSlow is intnDraw from scratch: Int31n's rejection loop. No
// generator draws over n ≥ 2³¹, which math/rand serves from Int63n, so
// such an n panics here, as an n ≤ 0 does.
func (s *source) intnSlow(n int) uint64 {
	if n <= 0 || n > int32max {
		panic("corpus: invalid argument to Intn")
	}
	max := int32(int32max - (1<<31)%uint32(n))
	v := s.Int31()
	for v > max {
		v = s.Int31()
	}
	return uint64(v)
}

// Float64 is rand.Rand.Float64: Int63/2⁶³, drawn again in the rare case
// that rounds to 1 (as the sentinel's does).
func (s *source) Float64() (f float64) {
	if f = float64(s.hist[s.i]) / (1 << 63); f == 1 {
		return s.float64Slow()
	}
	s.i++
	return f
}

// float64Slow is Float64 from scratch, kept out of line so that Float64
// inlines.
//
//go:noinline
func (s *source) float64Slow() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Read fills p as rand.Rand.Read does: seven bytes of each Int63, low
// byte first, a partly used draw carried to the next call (Seed drops
// it).
func (s *source) Read(p []byte) {
	pos, val := s.readPos, s.readVal
	for i := range p {
		if pos == 0 {
			val, pos = s.Int63(), 7
		}
		p[i] = byte(val)
		val >>= 8
		pos--
	}
	s.readPos, s.readVal = pos, val
}
