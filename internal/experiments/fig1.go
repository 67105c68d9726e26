package experiments

import (
	"fmt"

	"xfm/internal/dram"
	"xfm/internal/energy"
	"xfm/internal/stats"
)

// Fig1Row is one point of the Fig. 1 comparison: a server with a given
// number of DRAM ranks hosting a proportionally sized SFM.
type Fig1Row struct {
	Ranks         int
	SFMCapacityGB float64
	PromotionRate float64

	// CPUSFMChannelGBps is the DDR channel bandwidth the CPU-centric
	// SFM implementation consumes (read cold + write compressed +
	// read compressed + write decompressed).
	CPUSFMChannelGBps float64
	// ChannelUtilization is that bandwidth as a share of the host's
	// channel peak.
	ChannelUtilization float64
	// XFMChannelGBps is the channel bandwidth XFM consumes (zero: NMA
	// accesses ride refresh windows).
	XFMChannelGBps float64
	// PerRankNMADemandMBps is the per-rank NMA bandwidth the SFM
	// needs under XFM.
	PerRankNMADemandMBps float64
	// PerRankNMASupplyMBps is the guaranteed per-rank bandwidth the
	// refresh side-channel provides.
	PerRankNMASupplyMBps float64
}

// Fig1Result is the full sweep.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 reproduces the Fig. 1 comparison: CPU-centric SFM channel
// bandwidth grows with rank count (memory capacity), while XFM's
// rank-parallel side channel keeps host channel utilization at zero.
// The sweep holds the paper's shape: 64 GB of SFM per rank at a 20%
// promotion rate (§4.3's 4-channel, 2-DIMM example needs 426 MB/s of
// NMA bandwidth for a 512 GB SFM), with a 100% promotion column for
// the worst case (§1's 34 GB/s for 512 GB).
func Fig1() *Fig1Result {
	tm := dram.DDR5_3200()
	const (
		gbPerRank = 64.0
		promotion = 0.20
		channels  = 4
		ratio     = 2.0
	)
	res := &Fig1Result{}
	for _, ranks := range []int{2, 4, 8, 16, 32} {
		capGB := gbPerRank * float64(ranks)
		swap := capGB * promotion / 60 // GB/s each direction (EQ1)
		// CPU path moves each swapped byte twice uncompressed and
		// twice compressed (§3.3 footnote).
		cpuBW := swap * (2 + 2/ratio)
		peak := float64(channels) * tm.PeakBandwidthGBps()
		// NMA traffic per rank: read + write of every swapped page,
		// compressed side shrunk by the ratio.
		nmaDemand := swap * (1 + 1/ratio) * 1000 / float64(ranks) // MB/s
		nmaSupply := energy.NMABandwidthGBps(1, 4096, tm.TREFI) * 1000
		res.Rows = append(res.Rows, Fig1Row{
			Ranks:                ranks,
			SFMCapacityGB:        capGB,
			PromotionRate:        promotion,
			CPUSFMChannelGBps:    cpuBW,
			ChannelUtilization:   cpuBW / peak,
			XFMChannelGBps:       0,
			PerRankNMADemandMBps: nmaDemand,
			PerRankNMASupplyMBps: nmaSupply,
		})
	}
	return res
}

// Table renders the figure.
func (r *Fig1Result) Table() *stats.Table {
	t := stats.NewTable(
		"Fig. 1 — SFM bandwidth vs DRAM ranks (20% promotion, 64 GB/rank)",
		"ranks", "SFM GB", "CPU-SFM chan BW", "chan util", "XFM chan BW",
		"NMA demand/rank", "NMA supply/rank")
	for _, row := range r.Rows {
		t.AddRowf(row.Ranks, row.SFMCapacityGB,
			gbps(row.CPUSFMChannelGBps), pct(row.ChannelUtilization),
			gbps(row.XFMChannelGBps),
			fmtMBps(row.PerRankNMADemandMBps),
			fmtMBps(row.PerRankNMASupplyMBps))
	}
	return t
}

func fmtMBps(v float64) string { return fmt.Sprintf("%.0f MB/s", v) }
