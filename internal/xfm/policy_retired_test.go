// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with policy_test.go.

package xfm

import "fmt"

// Offload decision policy (§3.2). Offloading decompression to memory
// is NOT beneficial when (1) near-memory decompression latency exceeds
// on-CPU decompression, or (2) the page's decompressed bytes are used
// by the application before being written back — i.e. the I/O
// amplification of letting the CPU read the compressed copy is small.
//
// "We define the I/O amplification ratio for accessing SFM as the
// ratio of compressed bytes accessed over the memory channel to the
// total number of decompressed bytes used by the application."

// OffloadPolicy holds the platform parameters for the decision.
type OffloadPolicy struct {
	// NMADecompressLatencyPs is the end-to-end near-memory
	// decompression latency for one page (≥ 2×tREFI, Fig. 10).
	NMADecompressLatencyPs int64
	// CPUDecompressLatencyPs is the on-CPU decompression latency for
	// one page.
	CPUDecompressLatencyPs int64
	// PageBytes is the page size; CompressedBytes the typical
	// compressed size.
	PageBytes       int
	CompressedBytes int
}

// Validate checks the policy parameters.
func (p OffloadPolicy) Validate() error {
	if p.NMADecompressLatencyPs <= 0 || p.CPUDecompressLatencyPs <= 0 {
		return fmt.Errorf("xfm: non-positive latency in policy")
	}
	if p.PageBytes <= 0 || p.CompressedBytes <= 0 || p.CompressedBytes > p.PageBytes {
		return fmt.Errorf("xfm: bad sizes in policy")
	}
	return nil
}

// IOAmplification returns the §3.2 ratio for an access that will use
// usedBytes of the decompressed page, assuming the CPU path moves the
// compressed copy over the channel once and the used bytes once
// (writeback of unused bytes is what drives the ratio above the
// compressed share when LLC contention forces eviction; the
// evictedShare parameter models that: 0 = decompressed page stays
// cached, 1 = the whole page round-trips to DRAM before use).
func (p OffloadPolicy) IOAmplification(usedBytes int, evictedShare float64) float64 {
	if usedBytes <= 0 {
		return 1
	}
	channelBytes := float64(p.CompressedBytes) +
		evictedShare*2*float64(p.PageBytes) // write back + re-read
	return channelBytes / float64(usedBytes)
}

// ShouldOffload reports whether near-memory decompression pays off for
// an access that is not latency-critical (prefetch). Both §3.2
// conditions must hold: the NMA must not be slower than the CPU when
// latency matters (latencyCritical), and the saved channel traffic —
// amplification above 1 — must be positive.
func (p OffloadPolicy) ShouldOffload(usedBytes int, evictedShare float64, latencyCritical bool) bool {
	if latencyCritical && p.NMADecompressLatencyPs > p.CPUDecompressLatencyPs {
		return false // condition (1): near-memory latency too high
	}
	// Condition (2): the extra bytes the CPU path would move must
	// exceed the bytes the application actually uses.
	return p.IOAmplification(usedBytes, evictedShare) > 1
}
