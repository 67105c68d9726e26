package corpus

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds the source is held to math/rand at: zero
// (which math/rand replaces), the edges of the seeding modulus 2³¹−1
// and seeds past it in both directions.
var sourceSeeds = []int64{0, 1, -5, 7, 42, 1 << 40, 1<<31 - 1, -(1<<31 - 1)}

// sourceLengths cross every point where the source changes how it draws:
// each freshChunk of a new seed, the end of lazy seeding at draw 334 (the
// tap side's at 273), the first history shift at 607 and many runs.
var sourceLengths = []int{1, 15, 16, 17, 273, 274, 334, 335, 607, 608, 5000}

// intnBounds are the n Intn is held to math/rand at: powers of two,
// small and word-list sizes, and n near 2³¹ where Int31n rejects up to
// half its draws.
var intnBounds = []int{1, 2, 4, 10, 64, 100, 116, 10000, 1 << 30, 1<<30 + 1, 3 << 29, 1<<31 - 1}

func TestSourceMatchesMathRand(t *testing.T) {
	methods := []struct {
		name string
		draw func(s *source, r *rand.Rand, k int) (got, want int64)
	}{
		{"Int63", func(s *source, r *rand.Rand, _ int) (int64, int64) { return s.Int63(), r.Int63() }},
		{"Int31", func(s *source, r *rand.Rand, _ int) (int64, int64) { return int64(s.Int31()), int64(r.Int31()) }},
		{"Float64", func(s *source, r *rand.Rand, _ int) (int64, int64) {
			return int64(math.Float64bits(s.Float64())), int64(math.Float64bits(r.Float64()))
		}},
		{"Intn", func(s *source, r *rand.Rand, k int) (int64, int64) {
			n := intnBounds[k%len(intnBounds)]
			return int64(s.Intn(n)), int64(r.Intn(n))
		}},
		{"Read", func(s *source, r *rand.Rand, k int) (int64, int64) {
			// Odd lengths, so reads start and end inside a draw.
			got, want := make([]byte, 1+k%13), make([]byte, 1+k%13)
			s.Read(got)
			r.Read(want)
			return int64(bytes.Compare(got, want)), 0
		}},
	}
	for _, seed := range sourceSeeds {
		for _, n := range sourceLengths {
			for _, m := range methods {
				s, r := rng(seed), rand.New(rand.NewSource(seed))
				for k := 0; k < n; k++ {
					if got, want := m.draw(s, r, k); got != want {
						t.Fatalf("seed %d, %s draw %d: got %d, want %d", seed, m.name, k, got, want)
					}
				}
				// The stream goes on the same after the method switches.
				if got, want := s.Int63(), r.Int63(); got != want {
					t.Fatalf("seed %d, Int63 after %d %s draws: got %d, want %d", seed, n, m.name, got, want)
				}
			}
		}
	}
}

// TestSourceReseedMatchesMathRand re-seeds one source mid-stream, mid-Read
// and mid-history, as HTML re-seeds its paragraph source, and holds the
// new stream to a re-seeded rand.Rand's.
func TestSourceReseedMatchesMathRand(t *testing.T) {
	s, r := rng(3), rand.New(rand.NewSource(3))
	for i, seed := range sourceSeeds {
		n := sourceLengths[i%len(sourceLengths)]
		var got, want [5]byte
		s.Read(got[:])
		r.Read(want[:])
		for k := 0; k < n; k++ {
			s.Int63()
			r.Int63()
		}
		s.Seed(seed)
		r.Seed(seed)
		s.Read(got[:])
		r.Read(want[:])
		if got != want {
			t.Fatalf("re-seeded with %d after %d draws: Read %x, want %x", seed, n, got, want)
		}
		for k := 0; k < n; k++ {
			if g, w := s.Float64(), r.Float64(); g != w {
				t.Fatalf("re-seeded with %d: Float64 draw %d = %v, want %v", seed, k, g, w)
			}
		}
	}
}

// TestSourceIntnPanics: an n ≤ 0 panics, as it does in math/rand, and
// so does an n ≥ 2³¹, which no generator draws over.
func TestSourceIntnPanics(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt, 1 << 31, math.MaxInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			rng(1).Intn(n)
		}()
	}
}

// FuzzSourceMatchesMathRand decodes ops into a stream of calls — Int63,
// Intn over powers of two, small n and n near 2³¹, Float64,
// Read of odd lengths and a re-Seed — and requires every result to equal
// math/rand's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-5), bytes.Repeat([]byte{1, 0xff, 3, 4, 0x21}, 200))
	f.Add(int64(1<<31-1), bytes.Repeat([]byte{2, 0x80, 5, 7, 1, 2}, 300))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		s, r := rng(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < len(ops); i++ {
			op, arg := ops[i], byte(0) // arg is the op's one-byte argument, if it takes one
			if i+1 < len(ops) {
				arg = ops[i+1]
			}
			if op%6 == 1 || op%6 == 2 || op%6 == 4 {
				i++
			}
			switch op % 6 {
			case 0:
				if got, want := s.Int63(), r.Int63(); got != want {
					t.Fatalf("op %d: Int63 = %d, want %d", i, got, want)
				}
			case 1: // a power of two, 1 to 2³⁰
				n := 1 << (arg % 31)
				if got, want := s.Intn(n), r.Intn(n); got != want {
					t.Fatalf("op %d: Intn(%d) = %d, want %d", i, n, got, want)
				}
			case 2: // small n, or n near 2³¹ (heavy rejection)
				n := 1 + int(arg)
				switch arg % 3 {
				case 1:
					n = 1<<30 + int(arg)
				case 2:
					n = 1<<31 - int(arg)
				}
				if got, want := s.Intn(n), r.Intn(n); got != want {
					t.Fatalf("op %d: Intn(%d) = %d, want %d", i, n, got, want)
				}
			case 3:
				if got, want := s.Float64(), r.Float64(); got != want {
					t.Fatalf("op %d: Float64 = %v, want %v", i, got, want)
				}
			case 4:
				got, want := make([]byte, 2*int(arg%32)+1), make([]byte, 2*int(arg%32)+1)
				s.Read(got)
				r.Read(want)
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: Read %x, want %x", i, got, want)
				}
			case 5:
				if i+9 > len(ops) {
					return
				}
				reseed := int64(binary.LittleEndian.Uint64(ops[i+1:]))
				s.Seed(reseed)
				r.Seed(reseed)
				i += 8
			}
		}
	})
}
