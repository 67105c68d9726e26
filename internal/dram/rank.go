package dram

import (
	"fmt"

	"xfm/internal/telemetry"
)

// Rank models one DRAM rank: a set of banks acting in lockstep across
// the chips of the rank, plus the all-bank auto-refresh state machine
// (refresh counter, tREFI scheduling, tRFC lockout).
type Rank struct {
	cfg DeviceConfig
	t   Timings

	banks []Bank

	refCounter  int // number of REF commands issued so far
	nextREFAt   Ps
	lockedUntil Ps // end of the current tRFC window, 0 when unlocked

	stats RankStats

	tracer   *telemetry.Tracer
	telTrack int
}

// RankStats aggregates rank-level counters.
type RankStats struct {
	REFs        int64
	RowHits     int64
	RowMisses   int64
	ReadBursts  int64
	WriteBursts int64
}

// NewRank builds a rank of cfg-shaped banks with timing set t. The
// refresh schedule starts at one tREFI after time zero.
func NewRank(cfg DeviceConfig, t Timings) *Rank {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Rank{
		cfg:       cfg,
		t:         t,
		banks:     make([]Bank, cfg.BanksPerChip),
		nextREFAt: t.TREFI,
		tracer:    telemetry.DefaultTracer(),
		telTrack:  -1,
	}
}

// Config returns the rank's device configuration.
func (r *Rank) Config() DeviceConfig { return r.cfg }

// Bank returns bank i for inspection.
func (r *Rank) Bank(i int) *Bank { return &r.banks[i] }

// Stats returns a snapshot of rank counters.
func (r *Rank) Stats() RankStats { return r.stats }

// RefreshWindow describes one all-bank refresh (one tRFC): during
// [Start, End) the rank is inaccessible to the CPU and the NMA may use
// the conditional/random side channel (§4.3).
type RefreshWindow struct {
	Ref        int // REF command index
	Start, End Ps
	// RowLo, RowHi bound the rows refreshed in every bank: [RowLo, RowHi).
	RowLo, RowHi int
}

// Contains reports whether row is refreshed during this window, and is
// therefore reachable by a conditional access.
func (w RefreshWindow) Contains(row int) bool {
	return row >= w.RowLo && row < w.RowHi
}

// MaybeRefresh issues a REF if its scheduled time has arrived by now,
// returning the window and true, or a zero window and false. The
// caller (memory controller) drives this before issuing CPU commands.
func (r *Rank) MaybeRefresh(now Ps) (RefreshWindow, bool) {
	if now < r.nextREFAt {
		return RefreshWindow{}, false
	}
	start := r.nextREFAt
	// If a bank is mid-operation the REF waits; model by starting at
	// the latest bank-ready instant.
	for i := range r.banks {
		b := &r.banks[i]
		if b.state == BankActive {
			// Refresh implies precharge-all first.
			done := b.Precharge(start, r.t)
			if done > start {
				start = done
			}
		}
	}
	w := r.refreshAt(start)
	return w, true
}

func (r *Rank) refreshAt(start Ps) RefreshWindow {
	lo, hi := r.cfg.RefreshedRows(r.refCounter)
	end := start + r.t.TRFC
	for i := range r.banks {
		r.banks[i].forceClose()
		r.banks[i].blockUntil(end)
	}
	w := RefreshWindow{Ref: r.refCounter, Start: start, End: end, RowLo: lo, RowHi: hi}
	r.refCounter++
	r.nextREFAt += r.t.TREFI
	if r.nextREFAt < end {
		r.nextREFAt = end
	}
	r.lockedUntil = end
	r.stats.REFs++
	if r.tracer != nil && r.tracer.Enabled() {
		if r.telTrack < 0 {
			r.telTrack = r.tracer.NewTrack("dram-rank")
		}
		r.tracer.Span(r.telTrack, "refresh", "dram", int64(start), int64(end), map[string]int64{
			"ref":    int64(w.Ref),
			"row_lo": int64(lo),
			"row_hi": int64(hi),
		})
	}
	return w
}

// AccessKind distinguishes reads from writes.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Read {
		return "RD"
	}
	return "WR"
}

// Access performs one burst access (BurstBytes) to (bank, row) at the
// earliest legal time ≥ now, handling row-buffer management (PRE+ACT
// on a conflict, ACT on an empty buffer). It returns the time the data
// transfer completes on the bus. Refresh lockout is respected because
// REF blocks all bank commands until the window ends.
func (r *Rank) Access(now Ps, bank, row int, kind AccessKind) (done Ps, rowHit bool) {
	if bank < 0 || bank >= len(r.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, len(r.banks)))
	}
	if row < 0 || row >= r.cfg.RowsPerBank {
		panic(fmt.Sprintf("dram: row %d out of range [0,%d)", row, r.cfg.RowsPerBank))
	}
	// Serve any due refresh first: the controller must not delay REF
	// past its deadline in this model.
	for {
		if _, ok := r.MaybeRefresh(now); !ok {
			break
		}
	}
	b := &r.banks[bank]
	switch {
	case b.state == BankActive && b.openRow == row:
		rowHit = true
		b.rowHits++
		r.stats.RowHits++
	case b.state == BankActive:
		b.rowMisses++
		r.stats.RowMisses++
		done := b.Precharge(now, r.t)
		b.Activate(done, row, r.t)
	default:
		b.rowMisses++
		r.stats.RowMisses++
		b.Activate(now, row, r.t)
	}
	if kind == Read {
		_, done = b.Read(now, r.t)
		r.stats.ReadBursts++
	} else {
		_, done = b.Write(now, r.t)
		r.stats.WriteBursts++
	}
	return done, rowHit
}
