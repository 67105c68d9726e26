package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// testPage builds a compressible pseudo-random page: runs of repeated
// tokens so every codec finds matches.
func testPage(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, 0, n)
	for len(p) < n {
		tok := byte('a' + rng.Intn(8))
		run := 4 + rng.Intn(24)
		for i := 0; i < run && len(p) < n; i++ {
			p = append(p, tok)
		}
	}
	return p
}

func TestScratchRoundTrip(t *testing.T) {
	codecs := []Codec{NewLZFast(), NewXDeflate()}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			s := GetScratch()
			defer s.Release()
			for trial := 0; trial < 4; trial++ {
				src := testPage(int64(trial), 4096)
				comp := s.Compress(c, src)
				got, err := s.Decompress(c, comp)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("trial %d: round trip corrupted page", trial)
				}
			}
		})
	}
}

// TestScratchInterleaved checks that two scratches in flight at once
// never share buffers: compressing on one must not invalidate bytes
// held by the other.
func TestScratchInterleaved(t *testing.T) {
	c := NewXDeflate()
	s1, s2 := GetScratch(), GetScratch()
	defer s1.Release()
	defer s2.Release()
	src1, src2 := testPage(1, 4096), testPage(2, 4096)
	comp1 := s1.Compress(c, src1)
	comp2 := s2.Compress(c, src2)
	got1, err := s1.Decompress(c, comp1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s2.Decompress(c, comp2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, src1) || !bytes.Equal(got2, src2) {
		t.Fatal("interleaved scratches corrupted data")
	}
}

func TestScratchParts(t *testing.T) {
	s := GetScratch()
	defer s.Release()
	parts := s.Parts(3)
	if len(parts) != 3 {
		t.Fatalf("Parts(3) returned %d parts", len(parts))
	}
	for i := range parts {
		parts[i] = append(parts[i], byte(i), byte(i))
	}
	// A second request must reset lengths but may keep capacity.
	parts = s.Parts(2)
	if len(parts) != 2 {
		t.Fatalf("Parts(2) returned %d parts", len(parts))
	}
	for i, p := range parts {
		if len(p) != 0 {
			t.Errorf("part %d not reset: len %d", i, len(p))
		}
	}
}

func TestGrow(t *testing.T) {
	buf := make([]byte, 2, 16)
	buf[0], buf[1] = 7, 8
	grown := Grow(buf, 4)
	if len(grown) != 6 {
		t.Fatalf("len = %d, want 6", len(grown))
	}
	if &grown[0] != &buf[0] {
		t.Error("Grow reallocated despite sufficient capacity")
	}
	if grown[0] != 7 || grown[1] != 8 {
		t.Error("Grow lost prefix bytes")
	}
	grown2 := Grow(grown, 100)
	if len(grown2) != 106 {
		t.Fatalf("len = %d, want 106", len(grown2))
	}
	if grown2[0] != 7 || grown2[1] != 8 {
		t.Error("reallocating Grow lost prefix bytes")
	}
}

// TestCompressHotPathAllocs pins the zero-allocation property of the
// compress hot path: with a warmed Scratch (and warmed codec pools),
// compressing a page must not allocate.
func TestCompressHotPathAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	src := testPage(3, 4096)
	for _, c := range []Codec{NewLZFast(), NewXDeflate()} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			s := GetScratch()
			defer s.Release()
			// Warm the scratch and any codec-internal pools.
			for i := 0; i < 4; i++ {
				s.Compress(c, src)
			}
			allocs := testing.AllocsPerRun(50, func() {
				s.Compress(c, src)
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op on warmed compress path, want 0", c.Name(), allocs)
			}
		})
	}
}

// TestDecompressHotPathAllocs does the same for the decompress paths.
func TestDecompressHotPathAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	src := testPage(4, 4096)
	for _, c := range []Codec{NewLZFast(), NewXDeflate()} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			s := GetScratch()
			defer s.Release()
			comp := append([]byte(nil), s.Compress(c, src)...)
			for i := 0; i < 4; i++ {
				if _, err := s.Decompress(c, comp); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := s.Decompress(c, comp); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op on warmed decompress path, want 0", c.Name(), allocs)
			}
		})
	}
}
