// Package workload provides the traffic generators behind the paper's
// evaluation: promotion-rate-driven swap request streams (Fig. 12),
// SPEC-like memory-intensive antagonist profiles (Fig. 11, §3.2), and
// the synthetic DataFrame web front-end that exercises the AIFM-style
// far-memory heap (§7).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"xfm/internal/dram"
	"xfm/internal/nma"
)

// PromotionTraffic converts an SFM deployment's promotion rate into a
// per-rank offload request stream. In a stable state the compression
// and decompression rates are equal (§3.2), so each promoted page
// produces one decompress and one compress request.
type PromotionTraffic struct {
	// SFMCapacityGB is the far-memory capacity (512 in the paper's
	// sensitivity studies).
	SFMCapacityGB float64
	// PromotionRate is the fraction of far memory accessed per minute.
	PromotionRate float64
	// Ranks is the number of DRAM ranks the SFM region spreads over;
	// traffic divides evenly among them.
	Ranks int
	// PageBytes is the offload granularity.
	PageBytes int
	// Groups is the refresh group modulus (8192).
	Groups int
	// Seed makes the stream deterministic.
	Seed int64

	// PagesPerGroup controls scan locality: cold-page selection walks
	// application memory in address order (Google's kreclaimd scans;
	// §2.1) and zsmalloc fills region slabs sequentially, so
	// consecutive requests target consecutive DRAM rows — several
	// pages land in each refresh group before the scan moves to the
	// next. 0 disables clustering (uniform random groups).
	PagesPerGroup int
	// RestartProb is the per-request probability that a scan jumps to
	// a fresh random position (a new reclaim pass or allocation
	// region).
	RestartProb float64

	// DstAheadGroups enables refresh-aware destination placement: the
	// backend's allocator picks a free slot whose DRAM row will be
	// refreshed within the next DstAheadGroups windows after the
	// request arrives, bounding how long a completed page waits in the
	// SPM for its conditional write-back (design decision D4 in
	// DESIGN.md). Requires TREFI. 0 keeps destinations on an
	// independent scan (or uniform when PagesPerGroup is 0).
	DstAheadGroups int
	// TREFI is the refresh interval, needed to convert arrival times
	// into window indexes for DstAheadGroups.
	TREFI dram.Ps
}

// Validate checks the parameters. Stream generates on a goroutine of
// its own, where a panic could not be recovered, so every config Stream
// cannot run is rejected here.
func (p PromotionTraffic) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SFMCapacityGB", p.SFMCapacityGB}, {"PromotionRate", p.PromotionRate},
		{"RestartProb", p.RestartProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s %v is not finite", f.name, f.v)
		}
	}
	if p.SFMCapacityGB <= 0 || p.PageBytes <= 0 || p.Ranks <= 0 || p.Groups <= 0 {
		return fmt.Errorf("workload: non-positive parameter in %+v", p)
	}
	if p.PromotionRate < 0 || p.PromotionRate > 1 {
		return fmt.Errorf("workload: promotion rate %v outside [0,1]", p.PromotionRate)
	}
	if r := p.PagesPerSecondPerRank(); math.IsInf(r, 0) {
		return fmt.Errorf("workload: request rate overflows in %+v", p)
	}
	if p.DstAheadGroups > 0 && p.TREFI <= 0 {
		return fmt.Errorf("workload: DstAheadGroups requires a positive TREFI")
	}
	return nil
}

// PagesPerSecondPerRank returns the offload request rate one rank
// sees: promoted pages plus the matching compressions.
func (p PromotionTraffic) PagesPerSecondPerRank() float64 {
	bytesPerSec := p.SFMCapacityGB * 1e9 * p.PromotionRate / 60
	pagesPerSec := bytesPerSec / float64(p.PageBytes)
	return 2 * pagesPerSec / float64(p.Ranks) // compress + decompress
}

// streamBlock is how many requests the generator goroutine hands over
// at a time, enough that a channel hand-off per block costs nothing
// beside the random draws. streamDepth is how many filled blocks may
// wait for the consumer: with more than one, a consumer that catches
// up does not stall while the producer fills the next block.
const (
	streamBlock = 1024
	streamDepth = 2
)

// Stream returns an iterator producing Poisson arrivals for `dur` of
// simulated time, in nondecreasing Arrive order, alternating compress
// and decompress requests with uniformly distributed refresh groups.
// It panics on a config Validate rejects.
//
// The requests are generated a block ahead on a goroutine of its own,
// so the caller (the simulator) does not wait on the random draws. The
// producer fills blocks of streamBlock requests and sends them on a
// channel; the iterator hands consumed blocks back on a second channel
// for reuse. The sequence is the serial generator's whatever the
// scheduling. A stream ends the producer when it runs out; one dropped
// before that stops it when the garbage collector finalizes the
// iterator's state, which closes the producer's done channel.
func (p PromotionTraffic) Stream(dur dram.Ps) func() (nma.Request, bool) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	full := make(chan []nma.Request, streamDepth)
	// At most streamDepth+2 blocks exist (the queued ones, the one the
	// producer fills and the one the iterator reads), so handing one
	// back never finds free full.
	free := make(chan []nma.Request, streamDepth+2)
	done := make(chan struct{})
	go produce(p.generate(dur), full, free, done)
	r := &streamReader{full: full, free: free}
	runtime.SetFinalizer(r, func(*streamReader) { close(done) })
	return r.next
}

// produce runs gen to its end, sending its requests on full in blocks,
// and stops early once done is closed. It holds no reference to the
// streamReader, so a dropped stream can be finalized.
func produce(gen func() (nma.Request, bool), full chan<- []nma.Request, free <-chan []nma.Request, done <-chan struct{}) {
	defer close(full)
	for more := true; more; {
		var blk []nma.Request
		select {
		case blk = <-free:
			blk = blk[:0]
		default:
			blk = make([]nma.Request, 0, streamBlock)
		}
		for len(blk) < streamBlock {
			var r nma.Request
			if r, more = gen(); !more {
				break
			}
			blk = append(blk, r)
		}
		if len(blk) == 0 {
			return
		}
		select {
		case full <- blk:
		case <-done:
			return
		}
	}
}

// streamReader is the consumer side of a Stream: the block being read
// and the producer's channels.
type streamReader struct {
	blk  []nma.Request
	i    int
	full <-chan []nma.Request
	free chan<- []nma.Request
}

func (s *streamReader) next() (nma.Request, bool) {
	if s.i == len(s.blk) {
		if s.blk != nil {
			select {
			case s.free <- s.blk:
			default:
			}
		}
		blk, ok := <-s.full
		s.blk, s.i = blk, 0
		if !ok {
			return nma.Request{}, false
		}
	}
	r := s.blk[s.i]
	s.i++
	return r, true
}

// generate is the serial request generator behind Stream.
func (p PromotionTraffic) generate(dur dram.Ps) func() (nma.Request, bool) {
	rng := rand.New(rand.NewSource(p.Seed))
	rate := p.PagesPerSecondPerRank() // events per second
	var now dram.Ps
	var id int64

	// Independent scan cursors for the two address spaces: cold pages
	// in local memory (compress sources / decompress destinations) and
	// slots in the SFM region (compress destinations / decompress
	// sources).
	srcScan := newScan(rng, p.Groups, p.PagesPerGroup, p.RestartProb)
	dstScan := newScan(rng, p.Groups, p.PagesPerGroup, p.RestartProb)

	return func() (nma.Request, bool) {
		if rate <= 0 {
			return nma.Request{}, false
		}
		// Exponential inter-arrival gap. At a tiny rate the gap in ps
		// can pass math.MaxInt64, where the conversion is undefined;
		// such a gap carries now past every dur, so the stream ends.
		gap := rng.ExpFloat64() / rate * float64(dram.Second)
		if gap >= math.MaxInt64 || dram.Ps(gap) > dur-now {
			return nma.Request{}, false
		}
		now += dram.Ps(gap)
		id++
		kind := nma.CompressOp
		if id%2 == 0 {
			kind = nma.DecompressOp
		}
		dst := dstScan()
		if p.DstAheadGroups > 0 {
			window := int(now / p.TREFI)
			dst = (window + 1 + rng.Intn(p.DstAheadGroups)) % p.Groups
		}
		return nma.Request{
			ID:       id,
			Kind:     kind,
			SrcGroup: srcScan(),
			DstGroup: dst,
			Arrive:   now,
		}, true
	}
}

// newScan returns a refresh-group generator: uniform random when
// pagesPerGroup == 0, otherwise a sequential scan emitting
// pagesPerGroup values per group with random restarts.
func newScan(rng *rand.Rand, groups, pagesPerGroup int, restart float64) func() int {
	if pagesPerGroup <= 0 {
		return func() int { return rng.Intn(groups) }
	}
	group := rng.Intn(groups)
	emitted := 0
	return func() int {
		if restart > 0 && rng.Float64() < restart {
			group = rng.Intn(groups)
			emitted = 0
		}
		if emitted >= pagesPerGroup {
			group = (group + 1) % groups
			emitted = 0
		}
		emitted++
		return group
	}
}

// AntagonistProfile characterizes one memory-intensive co-running
// workload for the contention model (Fig. 11 co-runs SPEC with SFM
// antagonists). The numbers are behavioral profiles, not measurements
// of the licensed SPEC binaries.
type AntagonistProfile struct {
	Name string
	// BWDemandGBps is the workload's standalone memory bandwidth
	// demand.
	BWDemandGBps float64
	// MemBoundShare is the fraction of runtime stalled on memory.
	MemBoundShare float64
	// LLCSensitivity is how strongly runtime reacts to last-level
	// cache pollution (0..1).
	LLCSensitivity float64
}

// SPECLikeProfiles returns eight memory- and LLC-sensitive workload
// profiles in the spirit of the paper's SPEC job mixes (§8). Values
// are representative of published SPEC CPU 2017 memory behavior.
func SPECLikeProfiles() []AntagonistProfile {
	return []AntagonistProfile{
		{Name: "mcf-like", BWDemandGBps: 8.0, MemBoundShare: 0.55, LLCSensitivity: 0.80},
		{Name: "lbm-like", BWDemandGBps: 12.0, MemBoundShare: 0.65, LLCSensitivity: 0.35},
		{Name: "omnetpp-like", BWDemandGBps: 5.0, MemBoundShare: 0.45, LLCSensitivity: 0.75},
		{Name: "gcc-like", BWDemandGBps: 3.5, MemBoundShare: 0.30, LLCSensitivity: 0.50},
		{Name: "xalancbmk-like", BWDemandGBps: 4.5, MemBoundShare: 0.40, LLCSensitivity: 0.70},
		{Name: "cactuBSSN-like", BWDemandGBps: 9.0, MemBoundShare: 0.50, LLCSensitivity: 0.30},
		{Name: "fotonik3d-like", BWDemandGBps: 11.0, MemBoundShare: 0.60, LLCSensitivity: 0.25},
		{Name: "roms-like", BWDemandGBps: 10.0, MemBoundShare: 0.55, LLCSensitivity: 0.30},
	}
}

// ZipfAccess generates a Zipf-distributed page access sequence over n
// pages with skew s > 1, the access-locality pattern of the web
// front-end workload.
type ZipfAccess struct {
	z *rand.Zipf
}

// NewZipfAccess builds a generator over pages [0, n) with exponent s
// (s must be > 1; larger = more skewed).
func NewZipfAccess(seed int64, n int, s float64) *ZipfAccess {
	if s <= 1 {
		s = 1.01
	}
	r := rand.New(rand.NewSource(seed))
	return &ZipfAccess{z: rand.NewZipf(r, s, 1, uint64(n-1))}
}

// Next returns the next page index.
func (z *ZipfAccess) Next() int { return int(z.z.Uint64()) }

// PromotionRateOfTrace computes the observed promotion rate of a far
// memory trace: the fraction of the far-memory footprint that was
// promoted (accessed) during the observation window — §2.1's
// promotion-rate definition, the same quantity costmodel.Params'
// PromotionRate parameterizes and validates to [0, 1]. Both arguments
// count distinct bytes: promotedBytes is the far bytes promoted at
// least once, farBytes the bytes that resided in far memory at any
// point in the window, so promoted ⊆ far and the result is bounded
// [0, 1]. (An earlier readout divided raw promoted bytes — counting
// every re-promotion of the same page — by the instantaneous final
// far footprint and linearly extrapolated a seconds-long window to a
// per-minute figure, reporting rates in the thousands of percent.)
func PromotionRateOfTrace(promotedBytes, farBytes int64) float64 {
	if farBytes == 0 {
		return 0
	}
	return float64(promotedBytes) / float64(farBytes)
}
