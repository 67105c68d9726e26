package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"time"

	"xfm/internal/dram"
	"xfm/internal/nma"
)

// streamDigest drains next (at most limit requests when limit > 0) and
// returns the request count, the last Arrive and a digest of every
// field of every request, in order.
func streamDigest(next func() (nma.Request, bool), limit int) (n int, last dram.Ps, digest string) {
	h := sha256.New()
	var buf [40]byte
	for limit <= 0 || n < limit {
		r, ok := next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Kind))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.SrcGroup))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.DstGroup))
		binary.LittleEndian.PutUint64(buf[32:], uint64(r.Arrive))
		h.Write(buf[:])
		n++
		last = r.Arrive
	}
	return n, last, hex.EncodeToString(h.Sum(nil))
}

// TestPromotionStreamPinned pins the request stream of every traffic
// shape the experiments and the nma_saturated benchmark feed the NMA
// simulator: its length, its last arrival and a digest of every field
// of every request, plus a prefix. The digests were recorded on the
// serial generator, so a change that moves one changes what every
// Fig. 12, ablation and energy run simulates.
func TestPromotionStreamPinned(t *testing.T) {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	groups := cfg.Device.RefreshGroups()
	trefi := cfg.Timings.TREFI
	// The nma_saturated benchmark's traffic; the Fig. 12 grid uses the
	// same shape over three walks at 50 % and 100 % promotion.
	fig12 := func(promotion float64, seed int64) PromotionTraffic {
		return PromotionTraffic{
			SFMCapacityGB: 512, PromotionRate: promotion,
			Ranks: 10, PageBytes: cfg.PageBytes, Groups: groups, Seed: seed,
			PagesPerGroup: 2, RestartProb: 1.0 / 256,
			DstAheadGroups: 5000, TREFI: trefi,
		}
	}
	walks := func(n int) dram.Ps { return dram.Ps(n*groups) * trefi }
	with := func(p PromotionTraffic, edit func(*PromotionTraffic)) PromotionTraffic {
		edit(&p)
		return p
	}
	cases := []struct {
		name   string
		p      PromotionTraffic
		dur    dram.Ps
		limit  int // 0 drains the stream
		n      int
		last   dram.Ps
		digest string
	}{
		{name: "nma_saturated/1-walk", p: fig12(1, 1), dur: walks(1),
			n: 13377, last: 31993935728, digest: "ac0d59a060f0c7184b75189bd3ece9327baf72d2a7e82777b6793d23620bfdc9"},
		{name: "nma_saturated/100-walks", p: fig12(1, 1), dur: walks(100),
			n: 1332322, last: 3199999047029, digest: "e1c6dc0a58b4b9b056c7168d8b26c6a17c71a707f2ac769f2d6bd91c636dcb4b"},
		{name: "nma_saturated/prefix-1500", p: fig12(1, 1), dur: walks(100), limit: 1500,
			n: 1500, last: 3614725832, digest: "98927a704b4d13d052e276c6dfc35151abff2d2aeb91647f465ce663337a01c7"},
		{name: "fig12/promotion-0.5", p: fig12(0.5, 101), dur: walks(3),
			n: 19774, last: 95992977474, digest: "d5d86c67fbabf6b627ece4bf80748f9cc5aa34cd4ed34e5e32a50393a81a24d5"},
		{name: "fig12/promotion-1.0", p: fig12(1, 803), dur: walks(3),
			n: 40157, last: 95999778883, digest: "ce115536af0d7101f673fe6c9a98846d88581be224d1fe81c0040826b5bdc780"},
		{name: "dst-ahead-1024", p: with(fig12(0.5, 2), func(p *PromotionTraffic) { p.DstAheadGroups = 1024 }), dur: walks(2),
			n: 13304, last: 63986245070, digest: "549a4d7f2f31de390b7c1e01611a6edcf6647367dd3c0e8c983c7b7cea55ef0b"},
		{name: "dst-ahead-8192", p: with(fig12(0.5, 2), func(p *PromotionTraffic) { p.DstAheadGroups = 8192 }), dur: walks(2),
			n: 13304, last: 63986245070, digest: "b362500319f8f4a3bbf15324b82f637464a72cb5ac387001c2b36acf2882e1b3"},
		{name: "dst-ahead-0", p: with(fig12(0.5, 2), func(p *PromotionTraffic) { p.DstAheadGroups = 0 }), dur: walks(2),
			n: 13276, last: 63995542467, digest: "fb74a650612c44e0fd1e91243d60ed7b84ad3a45275f8c43c8190c94533a5731"},
		{name: "uniform-groups", p: with(fig12(0.4, 5), func(p *PromotionTraffic) { p.PagesPerGroup = 0; p.DstAheadGroups = 0 }), dur: walks(1),
			n: 5420, last: 31990099146, digest: "89322c140c1c91ff66097e4a917a6621576233a92ca8b4d1a9beb9872acc9f1c"},
		{name: "promotion-0", p: fig12(0, 1), dur: walks(1),
			n: 0, last: 0, digest: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	}
	for _, c := range cases {
		n, last, digest := streamDigest(c.p.Stream(c.dur), c.limit)
		if n != c.n || last != c.last || digest != c.digest {
			t.Errorf("%s: stream moved: got n=%d last=%d digest=%s, want n=%d last=%d digest=%s",
				c.name, n, last, digest, c.n, c.last, c.digest)
		}
	}
}

// TestStreamEndsAtExtremeRates drains streams whose gaps run past what
// a dram.Ps holds. Each must end, with arrivals nondecreasing and
// within [0, dur].
func TestStreamEndsAtExtremeRates(t *testing.T) {
	base := PromotionTraffic{Ranks: 1, PageBytes: 4096, Groups: 8192, Seed: 1}
	for _, c := range []struct {
		name           string
		capacity, rate float64
		dur            dram.Ps
	}{
		// The gap overflows int64 picoseconds, where converting it is
		// undefined (amd64 yields −2^63).
		{"gap-past-int64", 1e-9, 1e-9, dram.Second},
		{"gap-past-int64/longest-dur", 1e-9, 1e-9, math.MaxInt64},
		// The gap overflows float64 seconds: +Inf.
		{"gap-infinite", 1e-300, 1e-300, dram.Second},
		// The first gaps fit and later ones need not.
		{"gaps-near-dur", 1e-3, 1e-3, 400 * dram.Second},
	} {
		p := base
		p.SFMCapacityGB, p.PromotionRate = c.capacity, c.rate
		next := p.Stream(c.dur)
		var prev dram.Ps
		for n := 0; ; n++ {
			r, ok := next()
			if !ok {
				break
			}
			if r.Arrive < prev || r.Arrive > c.dur {
				t.Fatalf("%s: request %d arrives at %d after %d, outside [0, %d]", c.name, n, r.Arrive, prev, c.dur)
			}
			if n == 1000 {
				t.Fatalf("%s: stream still running after %d requests", c.name, n)
			}
			prev = r.Arrive
		}
	}
}

// TestAbandonedStreamsStop drops streams before their end, as RunWindows
// does with the last window's arrivals, and checks that every producer
// goroutine exits once the garbage collector finds its stream dropped.
func TestAbandonedStreamsStop(t *testing.T) {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	p := PromotionTraffic{
		SFMCapacityGB: 512, PromotionRate: 1,
		Ranks: 10, PageBytes: cfg.PageBytes, Groups: cfg.Device.RefreshGroups(), Seed: 1,
	}
	// Streams dropped by earlier tests stop first, so they cannot hide
	// these.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	baseline := runtime.NumGoroutine()
	func() {
		for i := 0; i < 32; i++ {
			next := p.Stream(dram.Second)
			for j := 0; j < []int{0, 1, 1500}[i%3]; j++ {
				if _, ok := next(); !ok {
					t.Fatalf("stream %d ended after %d requests", i, j)
				}
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after dropping 32 streams, %d before building them", n, baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
