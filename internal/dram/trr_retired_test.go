// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with trr_test.go.

package dram

// Target Row Refresh (TRR) modeling (§2.2, §5). DRAM vendors reserve
// capacity within each REF command to additionally refresh the
// neighbors ("victims") of rows that have been activated with high
// frequency, mitigating Rowhammer. The paper observes (citing
// TRRespass) that "TRR cycles are only utilized if the number of
// accesses to neighbouring rows surpass a threshold which is not
// frequently seen in real scenarios. These unused refreshes can be
// utilized by XFM to perform random accesses."
//
// TRRTracker implements a sampling aggressor detector in the style of
// in-DRAM TRR: a small table of row-activation counters; rows whose
// counts cross the threshold get their neighbors refreshed in the
// next REF's TRR slots, consuming slots XFM could otherwise use.

// TRRConfig parameterizes the tracker.
type TRRConfig struct {
	// SlotsPerREF is how many victim rows one REF command can
	// additionally refresh (commodity DDR4 parts implement 1–4).
	SlotsPerREF int
	// Threshold is the activation count that flags an aggressor
	// within one retention window (real parts: tens of thousands).
	Threshold int
	// TableSize is the number of aggressor counters the sampler keeps.
	TableSize int
}

// DefaultTRRConfig returns a commodity-like configuration.
func DefaultTRRConfig() TRRConfig {
	return TRRConfig{SlotsPerREF: 2, Threshold: 32000, TableSize: 16}
}

// TRRTracker watches row activations in one bank group and decides how
// many TRR slots each REF actually needs.
type TRRTracker struct {
	cfg      TRRConfig
	counters map[int]int // row → activations this retention window
	pending  []int       // victim rows awaiting refresh
	stats    TRRStats
}

// TRRStats counts tracker activity.
type TRRStats struct {
	Activations     int64
	Aggressors      int64
	VictimRefreshes int64
	SlotsGranted    int64 // slots handed to the NMA (unused by TRR)
	SlotsUsed       int64 // slots consumed by victim refreshes
}

// NewTRRTracker builds a tracker; it panics on non-positive
// configuration, which indicates a programming error.
func NewTRRTracker(cfg TRRConfig) *TRRTracker {
	if cfg.SlotsPerREF <= 0 || cfg.Threshold <= 0 || cfg.TableSize <= 0 {
		panic("dram: invalid TRR config")
	}
	return &TRRTracker{cfg: cfg, counters: map[int]int{}}
}

// RecordActivation notes an ACT to row. When the row's count crosses
// the threshold its neighbors are scheduled for victim refresh.
func (t *TRRTracker) RecordActivation(row int) {
	t.stats.Activations++
	// Sampling table: evict the coldest entry when full (simplified
	// in-DRAM sampler).
	if _, tracked := t.counters[row]; !tracked && len(t.counters) >= t.cfg.TableSize {
		// Tie-break equal counts on the lower row index: picking the
		// first minimum the map handed out made the eviction — and with
		// it every downstream aggressor detection — depend on map
		// iteration order.
		coldest, min := -1, int(^uint(0)>>1)
		for r, c := range t.counters {
			if c < min || (c == min && r < coldest) {
				coldest, min = r, c
			}
		}
		delete(t.counters, coldest)
	}
	t.counters[row]++
	if t.counters[row] == t.cfg.Threshold {
		t.stats.Aggressors++
		t.pending = append(t.pending, row-1, row+1)
		t.counters[row] = 0
	}
}

// OnREF is called at each REF command: it performs pending victim
// refreshes up to the slot budget and returns how many TRR slots
// remain free for the NMA's random accesses (§5).
func (t *TRRTracker) OnREF() (freeSlots int) {
	slots := t.cfg.SlotsPerREF
	for slots > 0 && len(t.pending) > 0 {
		t.pending = t.pending[1:]
		t.stats.VictimRefreshes++
		t.stats.SlotsUsed++
		slots--
	}
	t.stats.SlotsGranted += int64(slots)
	return slots
}

// OnRetentionBoundary clears the activation window (counters reset
// every retention period).
func (t *TRRTracker) OnRetentionBoundary() {
	clear(t.counters)
}

// Stats returns a snapshot.
func (t *TRRTracker) Stats() TRRStats { return t.stats }

// PendingVictims returns how many victim refreshes are queued.
func (t *TRRTracker) PendingVictims() int { return len(t.pending) }
