package telemetry

import (
	"fmt"
	"math"
)

// Cross-run recording diff: sim-time recordings are bit-deterministic,
// so any behavioral divergence between two runs of the same workload —
// a regression, a nondeterministic code path, a fast-forward bug —
// shows up as a first divergent window in some series. DiffDumps turns
// "the recordings differ" into "series X diverges at t=...", which is
// a pinpointed simulated timestamp instead of a byte offset.

// SeriesDiff describes the first divergence found in one series (or a
// structural mismatch between the dumps when Series is empty). T is
// the timestamp of the first divergent point, or -1 for structural
// findings with no single timestamp.
type SeriesDiff struct {
	Series string
	T      int64
	Reason string
}

func (d SeriesDiff) String() string {
	if d.Series == "" {
		return d.Reason
	}
	if d.T < 0 {
		return fmt.Sprintf("%s: %s", d.Series, d.Reason)
	}
	return fmt.Sprintf("%s: first divergence at t=%d: %s", d.Series, d.T, d.Reason)
}

// DiffDumps compares two recordings and returns one entry per
// divergent series (the first divergent point of each), plus
// structural mismatches (header fields, series count or order, series
// present on only one side). It finds a difference exactly when the
// two dumps' JSON would differ: the determinism contract is
// bit-identity, so values compare by their bits (-0 is not 0) and
// series compare in order.
func DiffDumps(a, b *Dump) []SeriesDiff {
	var out []SeriesDiff
	structural := func(format string, args ...any) {
		out = append(out, SeriesDiff{T: -1, Reason: fmt.Sprintf(format, args...)})
	}
	if a.Schema != b.Schema {
		structural("schema differs: %d vs %d", a.Schema, b.Schema)
	}
	if a.Clock != b.Clock {
		structural("clock domain differs: %s vs %s", a.Clock, b.Clock)
	}
	if a.SimEvery != b.SimEvery {
		structural("sampling period differs: every %d vs %d windows", a.SimEvery, b.SimEvery)
	}
	if a.Samples != b.Samples {
		structural("sample count differs: %d vs %d", a.Samples, b.Samples)
	}
	if a.Ticks != b.Ticks {
		structural("tick count differs: %d vs %d", a.Ticks, b.Ticks)
	}
	if len(a.Series) != len(b.Series) {
		structural("series count differs: %d vs %d", len(a.Series), len(b.Series))
	} else if (a.Series == nil) != (b.Series == nil) {
		structural("series list is null on one side only")
	}

	n := min(len(a.Series), len(b.Series))
	for i := 0; i < n; i++ {
		if a.Series[i].Name != b.Series[i].Name {
			return append(out, diffByName(a.Series, b.Series, i)...)
		}
	}
	for i := 0; i < n; i++ {
		if d, found := diffSeries(a.Series[i], b.Series[i]); found {
			out = append(out, d)
		}
	}
	for _, s := range a.Series[n:] {
		out = append(out, SeriesDiff{Series: s.Name, T: -1, Reason: "missing from second dump"})
	}
	for _, s := range b.Series[n:] {
		out = append(out, SeriesDiff{Series: s.Name, T: -1, Reason: "missing from first dump"})
	}
	return out
}

// diffByName explains series that do not line up (their names first
// differ at position at): series present on one side only, and each
// shared one's first divergence. When every name is on both sides the
// order is what differs.
func diffByName(as, bs []SeriesDump, at int) []SeriesDiff {
	var out []SeriesDiff
	missing := false
	bByName := make(map[string]SeriesDump, len(bs))
	for _, s := range bs {
		bByName[s.Name] = s
	}
	seen := make(map[string]bool, len(as))
	for _, sa := range as {
		seen[sa.Name] = true
		sb, ok := bByName[sa.Name]
		if !ok {
			out = append(out, SeriesDiff{Series: sa.Name, T: -1, Reason: "missing from second dump"})
			missing = true
			continue
		}
		if d, found := diffSeries(sa, sb); found {
			out = append(out, d)
		}
	}
	for _, sb := range bs {
		if !seen[sb.Name] {
			out = append(out, SeriesDiff{Series: sb.Name, T: -1, Reason: "missing from first dump"})
			missing = true
		}
	}
	if !missing {
		out = append(out, SeriesDiff{T: -1, Reason: fmt.Sprintf(
			"series order differs at position %d: %s vs %s", at, as[at].Name, bs[at].Name)})
	}
	return out
}

// diffSeries returns the first divergence of one series pair.
func diffSeries(a, b SeriesDump) (SeriesDiff, bool) {
	structural := func(format string, args ...any) (SeriesDiff, bool) {
		return SeriesDiff{Series: a.Name, T: -1, Reason: fmt.Sprintf(format, args...)}, true
	}
	switch {
	case a.Kind != b.Kind:
		return structural("kind differs: %s vs %s", a.Kind, b.Kind)
	case a.Metric != b.Metric:
		return structural("metric differs: %s vs %s", a.Metric, b.Metric)
	case a.Dropped != b.Dropped:
		return structural("dropped count differs: %d vs %d", a.Dropped, b.Dropped)
	case len(a.Points) == 0 && len(b.Points) == 0 && (a.Points == nil) != (b.Points == nil):
		return structural("points are null on one side only")
	}
	n := min(len(a.Points), len(b.Points))
	for i := 0; i < n; i++ {
		pa, pb := a.Points[i], b.Points[i]
		if pa.T != pb.T {
			return SeriesDiff{Series: a.Name, T: pa.T,
				Reason: fmt.Sprintf("point %d timestamp differs: %d vs %d", i, pa.T, pb.T)}, true
		}
		if math.Float64bits(pa.V) != math.Float64bits(pb.V) {
			return SeriesDiff{Series: a.Name, T: pa.T,
				Reason: fmt.Sprintf("value differs: %v vs %v", pa.V, pb.V)}, true
		}
	}
	if len(a.Points) != len(b.Points) {
		longer := a.Points
		if len(b.Points) > len(a.Points) {
			longer = b.Points
		}
		return SeriesDiff{Series: a.Name, T: longer[n].T,
			Reason: fmt.Sprintf("point count differs: %d vs %d", len(a.Points), len(b.Points))}, true
	}
	return SeriesDiff{}, false
}
