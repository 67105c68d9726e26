// Package fault is the deterministic fault-injection plane for the XFM
// emulator: a seeded Plan schedules spurious queue-full rejections,
// ECC bit flips on stored pages and refresh-storm windows (the
// RogueRFM shape) at sim-time points, and an Injector answers "does
// this event fire here?" with a pure function of (plan seed, injection
// site, event key).
//
// Determinism is the load-bearing property. Every draw is a splitmix64
// hash of a per-site sub-seed (derived once from the plan seed via
// rand.New(rand.NewSource(seed))) and a caller-chosen event key — a
// submission sequence number, a page ID, a window index. Because the
// draw depends only on (site, key), concurrent callers can present
// keys in any order and still see the same per-event decisions, so a
// chaos run records bit-identical telemetry across repeats (CI diffs
// two same-seed runs with telemetryck -diff).
//
// All Injector methods are safe on a nil receiver and return "no
// fault", so production code threads an injector through
// unconditionally and pays one nil check when chaos is off.
package fault

import (
	"math/rand"
	"sync/atomic"

	"xfm/internal/telemetry"
)

// Site identifies one injection point in the stack.
type Site int

const (
	// SiteQueueFull makes Driver.Submit report a spuriously full
	// Compress_Request_Queue even though the simulator has room.
	SiteQueueFull Site = iota
	// SiteECCSingle flips one bit in a page image read back from far
	// memory, before side-band ECC verification (correctable).
	SiteECCSingle
	// SiteECCMulti flips two bits in one 64-bit word of a page image
	// read back from far memory (uncorrectable under SECDED).
	SiteECCMulti
	// SiteRefreshStorm marks whole refresh windows in which refresh
	// management owns the DRAM and the NMA is offered zero slots.
	SiteRefreshStorm
	// NumSites is the number of injection sites.
	NumSites
)

// String returns the spec-grammar name of the site.
func (s Site) String() string {
	switch s {
	case SiteQueueFull:
		return "queue-full"
	case SiteECCSingle:
		return "ecc-single"
	case SiteECCMulti:
		return "ecc-multi"
	case SiteRefreshStorm:
		return "refresh-storm"
	}
	return "unknown"
}

// Injector evaluates a Plan. One injector serves one chaos run; its
// methods are concurrency-safe and deterministic in the sense described
// in the package comment.
type Injector struct {
	plan     Plan
	seeds    [NumSites]uint64
	injected [NumSites]atomic.Int64 // faults fired per site
}

// NewInjector builds an injector for the plan. Per-site sub-seeds are
// drawn here, once, from rand.New(rand.NewSource(plan.Seed)); after
// construction no injector state depends on call order.
func NewInjector(p Plan) *Injector {
	p.normalize()
	in := &Injector{plan: p}
	rng := rand.New(rand.NewSource(p.Seed))
	for i := Site(0); i < NumSites; i++ {
		in.seeds[i] = rng.Uint64()
	}
	return in
}

// Hit reports whether the fault at site fires for the event identified
// by key, and records the injection when it does. The decision is a
// pure function of (plan, site, key).
func (in *Injector) Hit(site Site, key uint64) bool {
	if in == nil {
		return false
	}
	// The seeded coin: site's probability against a hash of key.
	p := in.plan.Probs[site]
	if fire := p >= 1 || p > 0 && unit(splitmix64(in.seeds[site]^key)) < p; !fire {
		return false
	}
	in.injected[site].Add(1)
	telemetry.FaultInjected.Inc()
	return true
}

// Injected returns how many faults have fired at site so far.
func (in *Injector) Injected(site Site) int64 {
	if in == nil {
		return 0
	}
	return in.injected[site].Load()
}

// StormWindow reports whether refresh window w falls inside a scheduled
// refresh storm. Storm windows are counted by the NMA sim (which owns
// the window clock), not here, so stepped and fast-forwarded runs
// account them identically.
func (in *Injector) StormWindow(w int64) bool {
	if in == nil {
		return false
	}
	return in.plan.Storm.active(w)
}

// StormWindowsIn counts storm windows in [lo, hi) arithmetically, so
// the NMA's idle fast-forward can account for skipped storms without
// stepping them (the FF ≡ stepped CI invariant).
func (in *Injector) StormWindowsIn(lo, hi int64) int64 {
	if in == nil {
		return 0
	}
	return in.plan.Storm.countIn(lo, hi)
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche over
// uint64, the standard cheap stateless hash for seeded draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a 64-bit hash onto [0, 1) with 53-bit resolution.
func unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}
