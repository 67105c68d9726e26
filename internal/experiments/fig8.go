package experiments

import (
	"fmt"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/stats"
	"xfm/internal/xfm"
)

// Fig8Row reports one corpus's compression under the three DIMM
// configurations.
type Fig8Row struct {
	Corpus string
	Pages  int
	// Ratio[d] is the compression ratio (original/reserved, including
	// same-offset fragmentation) for the d-DIMM configuration, keyed
	// 1, 2, 4.
	Ratio map[int]float64
}

// Fig8Result is the full corpus sweep.
type Fig8Result struct {
	Rows []Fig8Row
	// MeanSavingsRetention[d] is the mean fraction of 1-DIMM space
	// savings the d-DIMM configuration preserves (paper: 86.2% of the
	// compression ratio retained for 4 DIMMs; savings drop ~5% for
	// 2 DIMMs and ~14% for 4).
	MeanSavingsRetention map[int]float64
	// MeanRatioRetention[d] is the mean ratio_d / ratio_1.
	MeanRatioRetention map[int]float64
}

// Fig8 compresses the 16 page-divided corpora at memory-channel
// interleave granularity using XFM's out-of-order compressed data
// layout (§6, Fig. 8): each DIMM compresses the 256 B chunks it holds
// with a window shrunk to its share of the page, and compressed
// pieces are placed at the same offset on every DIMM. quick reduces
// the corpus size.
func Fig8(quick bool) *Fig8Result {
	corpusBytes := 512 << 10
	if quick {
		corpusBytes = 64 << 10
	}
	dimmConfigs := []int{1, 2, 4}
	newCodec := func(w int) compress.Codec { return compress.NewXDeflateWindow(w) }

	var rows []Fig8Row
	for _, name := range corpus.Names() {
		gen, err := corpus.Get(name)
		if err != nil {
			panic(err)
		}
		pages := corpus.Pages(gen(1, corpusBytes), 4096)
		row := Fig8Row{Corpus: name, Pages: len(pages), Ratio: map[int]float64{}}
		for _, d := range dimmConfigs {
			layout := xfm.DefaultLayout(d)
			var orig, reserved int
			for _, pg := range pages {
				cl := layout.CompressPage(pg, newCodec)
				orig += len(pg)
				reserved += cl.TotalReserved()
			}
			row.Ratio[d] = float64(orig) / float64(reserved)
		}
		rows = append(rows, row)
	}

	res := &Fig8Result{
		Rows:                 rows,
		MeanSavingsRetention: map[int]float64{},
		MeanRatioRetention:   map[int]float64{},
	}
	sums := map[int]float64{} // savings sums
	ratioSums := map[int]float64{}
	n := 0
	for _, row := range rows {
		s1 := 1 - 1/row.Ratio[1]
		if s1 > 0 {
			n++
			for _, d := range dimmConfigs {
				sums[d] += (1 - 1/row.Ratio[d]) / s1
				ratioSums[d] += row.Ratio[d] / row.Ratio[1]
			}
		}
	}
	for _, d := range dimmConfigs {
		if n > 0 {
			res.MeanSavingsRetention[d] = sums[d] / float64(n)
			res.MeanRatioRetention[d] = ratioSums[d] / float64(n)
		}
	}
	return res
}

// Table renders the figure.
func (r *Fig8Result) Table() *stats.Table {
	t := stats.NewTable(
		"Fig. 8 — compression ratio of page-divided corpora (xdeflate, out-of-order layout)",
		"corpus", "pages", "1-DIMM", "2-DIMM", "4-DIMM")
	for _, row := range r.Rows {
		t.AddRow(row.Corpus, fmt.Sprintf("%d", row.Pages),
			fmt.Sprintf("%.2f", row.Ratio[1]),
			fmt.Sprintf("%.2f", row.Ratio[2]),
			fmt.Sprintf("%.2f", row.Ratio[4]))
	}
	t.AddRow("", "", "", "", "")
	t.AddRow("mean savings retention", "",
		"1.000",
		fmt.Sprintf("%.3f (paper ≈0.95)", r.MeanSavingsRetention[2]),
		fmt.Sprintf("%.3f (paper ≈0.86)", r.MeanSavingsRetention[4]))
	return t
}
