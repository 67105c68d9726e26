package experiments

import (
	"fmt"
	"sort"

	"xfm/internal/dram"
	"xfm/internal/nma"
	"xfm/internal/stats"
	"xfm/internal/workload"
)

// Fig12Cell is one grid point of the sensitivity study.
type Fig12Cell struct {
	PromotionRate   float64
	SPMBytes        int
	AccessesPerTRFC int

	FallbackRate        float64
	ConditionalFraction float64
	RandomFraction      float64
}

// Fig12Result is the full sweep.
type Fig12Result struct {
	Cells []Fig12Cell
}

// fig12Config builds the NMA configuration for one grid point of the
// sensitivity studies (32 Gb DDR5 devices, §7/§8). The request queue
// is driver-side and deep: queue entries are page descriptors, not
// data, so waiting for a conditional window is cheap.
func fig12Config(spmBytes, accesses int) nma.Config {
	cfg := nma.DefaultConfig(dram.Device32Gb)
	cfg.SPMBytes = spmBytes
	cfg.AccessesPerTRFC = accesses
	cfg.QueueDepth = 16384
	return cfg
}

// fig12Traffic builds the promotion traffic for the sensitivity
// studies: scan-clustered sources (cold pages are selected by
// address-order scans, so consecutive requests land in consecutive
// refresh groups) and refresh-aware destinations (the allocator picks
// free slots whose rows refresh within the next ~20 ms).
func fig12Traffic(capGB, promotion float64, ranks int, cfg nma.Config, seed int64) workload.PromotionTraffic {
	return workload.PromotionTraffic{
		SFMCapacityGB:  capGB,
		PromotionRate:  promotion,
		Ranks:          ranks,
		PageBytes:      cfg.PageBytes,
		Groups:         cfg.Device.RefreshGroups(),
		Seed:           seed,
		PagesPerGroup:  2,
		RestartProb:    1.0 / 256,
		DstAheadGroups: 5000,
		TREFI:          cfg.Timings.TREFI,
	}
}

// Fig12 reproduces the CPU-fallback sensitivity study: SPM size ∈
// {1, 2, 4, 8} MB × accesses/tRFC ∈ {1, 2, 3} × promotion ∈
// {50%, 100%} for a 512 GB SFM. The paper's headline: "regardless of
// the promotion rate, an 8MB SPM can eliminate all CPU fall backs for
// an XFM implementation that accommodates 3 NMA accesses per REF
// command", with the random-access share scaling with promotion rate.
func Fig12(quick bool) *Fig12Result {
	const ranks = 10
	windows := 3 * 8192 // three full retention walks
	if quick {
		windows = 2 * 8192
	}
	res := &Fig12Result{}
	for _, promotion := range []float64{0.5, 1.0} {
		for _, spmMB := range []int{1, 2, 4, 8} {
			for _, acc := range []int{1, 2, 3} {
				cfg := fig12Config(spmMB<<20, acc)
				sim := nma.NewSim(cfg)
				traffic := fig12Traffic(512, promotion, ranks, cfg, int64(spmMB*100+acc))
				dur := dram.Ps(windows) * cfg.Timings.TREFI
				sim.RunWindows(windows, traffic.Stream(dur))
				st := sim.Stats()
				res.Cells = append(res.Cells, Fig12Cell{
					PromotionRate:       promotion,
					SPMBytes:            spmMB << 20,
					AccessesPerTRFC:     acc,
					FallbackRate:        st.FallbackRate(),
					ConditionalFraction: st.ConditionalFraction(),
					RandomFraction:      1 - st.ConditionalFraction(),
				})
			}
		}
	}
	return res
}

// Table renders the figure.
func (r *Fig12Result) Table() *stats.Table {
	t := stats.NewTable(
		"Fig. 12 — CPU fallbacks, 512 GB SFM over 10 ranks (fallback rate | conditional share)",
		"promotion", "SPM", "1 acc/tRFC", "2 acc/tRFC", "3 acc/tRFC")
	cells := append([]Fig12Cell(nil), r.Cells...)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].PromotionRate != cells[j].PromotionRate {
			return cells[i].PromotionRate < cells[j].PromotionRate
		}
		return cells[i].SPMBytes < cells[j].SPMBytes
	})
	type key struct {
		prom float64
		spm  int
	}
	rows := map[key]map[int]Fig12Cell{}
	var order []key
	for _, c := range cells {
		k := key{c.PromotionRate, c.SPMBytes}
		if rows[k] == nil {
			rows[k] = map[int]Fig12Cell{}
			order = append(order, k)
		}
		rows[k][c.AccessesPerTRFC] = c
	}
	for _, k := range order {
		cellStr := func(acc int) string {
			c := rows[k][acc]
			return fmt.Sprintf("%5.1f%% | %4.1f%%", c.FallbackRate*100, c.ConditionalFraction*100)
		}
		t.AddRow(pct(k.prom), fmt.Sprintf("%dMB", k.spm>>20),
			cellStr(1), cellStr(2), cellStr(3))
	}
	return t
}
