// Graceful degradation for the XFM backend: a sliding-window circuit
// breaker over offload submission outcomes. §6's protocol already
// degrades every *individual* rejection to CPU_Fallback; this layer
// adds the policy above it — when the NMA is persistently failing,
// stop paying the MMIO round trip per op, run everything on the CPU,
// and periodically re-probe the hardware with canary ops before
// trusting it again. Only op-deadline timeouts count as window
// failures; queue rejections are the protocol's designed backpressure
// (fallback per op, breaker closed), though a rejected *canary* does
// re-open the breaker — an NMA that cannot even accept a probe is not
// yet trustworthy.
//
//	HEALTHY ──(failures ≥ DegradeFailures in window)──▶ DEGRADED
//	HEALTHY/DEGRADED ──(failures ≥ TripFailures)──────▶ CPU_ONLY
//	CPU_ONLY ──(ReprobeAfter CPU ops)─────────────────▶ RECOVERING
//	RECOVERING ──(CanarySuccesses in a row)───────────▶ HEALTHY
//	RECOVERING ──(any canary failure)─────────────────▶ CPU_ONLY
//	DEGRADED ──(window drains below DegradeFailures)──▶ HEALTHY
//
// The machinery is armed only by EnableDegradation — the default
// backend keeps §6's stateless per-op fallback and pays nothing.

package xfm

import (
	"sync/atomic"

	"xfm/internal/dram"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
)

// Mode is the backend's degradation state. The zero value is healthy;
// values order by severity so a gauge of the mode thresholds cleanly
// (health rules fire DEGRADED above 0.5 and CRITICAL above 2.5).
type Mode int32

// Degradation ladder states.
const (
	ModeHealthy    Mode = 0
	ModeDegraded   Mode = 1
	ModeRecovering Mode = 2
	ModeCPUOnly    Mode = 3
)

// String returns the mode's telemetry name.
func (m Mode) String() string {
	switch m {
	case ModeHealthy:
		return "HEALTHY"
	case ModeDegraded:
		return "DEGRADED"
	case ModeRecovering:
		return "RECOVERING"
	case ModeCPUOnly:
		return "CPU_ONLY"
	}
	return "UNKNOWN"
}

// DegradePolicy parameterizes the circuit breaker.
type DegradePolicy struct {
	// Window is the sliding window length W, in submission outcomes.
	Window int
	// TripFailures is N: failures within the window that trip the
	// breaker to CPU_ONLY.
	TripFailures int
	// DegradeFailures marks the earlier DEGRADED threshold (the
	// backend still submits, but the health monitor sees the mode).
	DegradeFailures int
	// ReprobeAfter is how many CPU-only ops to absorb before probing
	// the NMA again with canaries.
	ReprobeAfter int
	// CanarySuccesses is how many consecutive canary ops must succeed
	// to close the breaker; one canary failure re-opens it.
	CanarySuccesses int
	// RetryOnce retries a submission once after an op-deadline timeout
	// (ErrOpTimeout) before counting it as a failure.
	RetryOnce bool
}

// normalize clamps a policy into its valid domain.
func (p *DegradePolicy) normalize() {
	if p.Window < 1 {
		p.Window = 1
	}
	if p.TripFailures < 1 {
		p.TripFailures = 1
	}
	if p.TripFailures > p.Window {
		p.TripFailures = p.Window
	}
	if p.DegradeFailures < 1 {
		p.DegradeFailures = 1
	}
	if p.DegradeFailures > p.TripFailures {
		p.DegradeFailures = p.TripFailures
	}
	if p.ReprobeAfter < 1 {
		p.ReprobeAfter = 1
	}
	if p.CanarySuccesses < 1 {
		p.CanarySuccesses = 1
	}
}

// degrader is the circuit breaker state. Like Backend.nextReq, all
// fields except mode mutate only on the serial submission path; mode
// is atomic because Mode()/health snapshots read it from other
// goroutines while a batch is in flight.
type degrader struct {
	policy DegradePolicy
	mode   atomic.Int32

	// Sliding outcome ring: outcomes[i] is true for a failed
	// submission; failures counts trues currently in the ring.
	outcomes []bool
	head     int
	filled   int
	failures int

	cpuOps   int // CPU_ONLY ops absorbed since the trip
	canaryOK int // consecutive canary successes while RECOVERING

	trips      telemetry.Counter
	recoveries telemetry.Counter

	track int // lazily allocated tracer track, -1 until first event
}

// recordOutcome pushes one submission outcome into the sliding window.
func (d *degrader) recordOutcome(fail bool) {
	if d.filled == len(d.outcomes) {
		if d.outcomes[d.head] {
			d.failures--
		}
	} else {
		d.filled++
	}
	d.outcomes[d.head] = fail
	if fail {
		d.failures++
	}
	d.head++
	if d.head == len(d.outcomes) {
		d.head = 0
	}
}

// resetWindow clears the sliding window (used when closing the breaker
// so stale pre-trip failures cannot immediately re-trip it).
func (d *degrader) resetWindow() {
	for i := range d.outcomes {
		d.outcomes[i] = false
	}
	d.head, d.filled, d.failures = 0, 0, 0
}

// EnableDegradation arms the circuit breaker and the ECC staging
// copies that back quarantine re-serves. It is not part of the default
// configuration: an un-armed backend behaves exactly like §6's
// stateless per-op fallback (and allocates nothing extra).
func (b *Backend) EnableDegradation(p DegradePolicy) {
	p.normalize()
	b.deg = &degrader{
		policy:   p,
		outcomes: make([]bool, p.Window),
		track:    -1,
	}
	if b.integ.staging == nil {
		b.integ.staging = map[sfm.PageID][]byte{}
	}
	telemetry.XFMDegradedMode.SetInt(int64(ModeHealthy))
}

// Mode returns the backend's degradation state; ModeHealthy when
// degradation is not armed. Safe from any goroutine.
func (b *Backend) Mode() Mode {
	if b.deg == nil {
		return ModeHealthy
	}
	return Mode(b.deg.mode.Load())
}

// BreakerStats returns (trips to CPU_ONLY, recoveries to HEALTHY).
func (b *Backend) BreakerStats() (trips, recoveries int64) {
	if b.deg == nil {
		return 0, 0
	}
	return b.deg.trips.Value(), b.deg.recoveries.Value()
}

// transition moves the breaker to mode `to`, publishing the gauge, the
// transition counters, and a trace instant on the backend's track.
func (b *Backend) transition(to Mode, now dram.Ps) {
	d := b.deg
	from := Mode(d.mode.Swap(int32(to)))
	if from == to {
		return
	}
	telemetry.XFMDegradedMode.SetInt(int64(to))
	telemetry.XFMModeTransitions.Inc()
	switch to {
	case ModeCPUOnly:
		d.trips.Inc()
		telemetry.XFMBreakerTrips.Inc()
		d.cpuOps = 0
	case ModeRecovering:
		d.canaryOK = 0
	case ModeHealthy:
		if from == ModeRecovering {
			d.recoveries.Inc()
			telemetry.XFMBreakerRecoveries.Inc()
			d.resetWindow()
		}
	}
	if tr := telemetry.DefaultTracer(); tr != nil && tr.Enabled() {
		if d.track < 0 {
			d.track = tr.NewTrack("xfm-breaker")
		}
		tr.Instant(d.track, to.String(), "xfm", int64(now), map[string]int64{
			"from": int64(from),
			"to":   int64(to),
		})
	}
}
