// Package dataframe implements a small column-store DataFrame whose
// column data lives in a far-memory heap — the paper's motivating
// application (§7 runs "a synthetic web front-end application"
// built on the DataFrame library over AIFM). Columns are paged into
// 4 KiB far-memory pages; scans and point lookups touch pages through
// the heap, so cold columns compress into the SFM region and queries
// fault or prefetch them back.
package dataframe

import (
	"encoding/binary"
	"fmt"
	"math"

	"xfm/internal/dram"
	"xfm/internal/sfm"
)

// valuesPerPage is how many 8-byte values fit in one far-memory page.
const valuesPerPage = sfm.PageSize / 8

// Frame is a collection of equally sized columns over one heap.
type Frame struct {
	heap *sfm.Heap
	cols map[string]*Column
	rows int
}

// New creates an empty frame over the heap.
func New(heap *sfm.Heap) *Frame {
	return &Frame{heap: heap, cols: map[string]*Column{}}
}

// Rows returns the number of rows.
func (f *Frame) Rows() int { return f.rows }

// Columns returns the column names in insertion-independent map order
// is avoided: names are returned sorted by the caller if needed.
func (f *Frame) Columns() []string {
	out := make([]string, 0, len(f.cols))
	for n := range f.cols {
		out = append(out, n)
	}
	return out
}

// Column returns the named column.
func (f *Frame) Column(name string) (*Column, error) {
	c, ok := f.cols[name]
	if !ok {
		return nil, fmt.Errorf("dataframe: no column %q", name)
	}
	return c, nil
}

// AddInt64 adds an int64 column. All columns must have equal length.
func (f *Frame) AddInt64(now dram.Ps, name string, values []int64) (*Column, error) {
	raw := make([]uint64, len(values))
	for i, v := range values {
		raw[i] = uint64(v)
	}
	return f.add(now, name, KindInt64, raw)
}

// AddFloat64 adds a float64 column.
func (f *Frame) AddFloat64(now dram.Ps, name string, values []float64) (*Column, error) {
	raw := make([]uint64, len(values))
	for i, v := range values {
		raw[i] = math.Float64bits(v)
	}
	return f.add(now, name, KindFloat64, raw)
}

func (f *Frame) add(now dram.Ps, name string, kind Kind, raw []uint64) (*Column, error) {
	if _, dup := f.cols[name]; dup {
		return nil, fmt.Errorf("dataframe: column %q already exists", name)
	}
	if len(f.cols) > 0 && len(raw) != f.rows {
		return nil, fmt.Errorf("dataframe: column %q has %d rows, frame has %d", name, len(raw), f.rows)
	}
	col := &Column{frame: f, name: name, kind: kind, rows: len(raw)}
	buf := make([]byte, sfm.PageSize)
	for off := 0; off < len(raw); off += valuesPerPage {
		end := off + valuesPerPage
		if end > len(raw) {
			end = len(raw)
		}
		for i := range buf {
			buf[i] = 0
		}
		for i, v := range raw[off:end] {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		col.pages = append(col.pages, f.heap.Alloc(now, buf))
	}
	f.cols[name] = col
	f.rows = len(raw)
	return col, nil
}

// Kind is a column's element type.
type Kind int

// Column kinds.
const (
	KindInt64 Kind = iota
	KindFloat64
)

func (k Kind) String() string {
	if k == KindInt64 {
		return "int64"
	}
	return "float64"
}

// Column is one far-memory-backed column.
type Column struct {
	frame *Frame
	name  string
	kind  Kind
	rows  int
	pages []sfm.PageID
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Rows returns the column length.
func (c *Column) Rows() int { return c.rows }

// scan iterates the column's pages in order, calling fn for every
// value. Scans are the far-memory-friendly access pattern: page-
// sequential, so the controller can prefetch ahead.
func (c *Column) scan(now dram.Ps, fn func(row int, word uint64)) error {
	row := 0
	for _, id := range c.pages {
		page, err := c.frame.heap.Touch(now, id)
		if err != nil {
			return err
		}
		n := valuesPerPage
		if rem := c.rows - row; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			fn(row, binary.LittleEndian.Uint64(page[i*8:]))
			row++
		}
	}
	return nil
}

// MeanFloat64 scans and averages a float64 column.
func (c *Column) MeanFloat64(now dram.Ps) (float64, error) {
	if c.kind != KindFloat64 {
		return 0, fmt.Errorf("dataframe: column %q is %v", c.name, c.kind)
	}
	if c.rows == 0 {
		return 0, nil
	}
	var sum float64
	err := c.scan(now, func(_ int, w uint64) { sum += math.Float64frombits(w) })
	return sum / float64(c.rows), err
}

// GroupSumInt64 groups the key column's values and sums the value
// column per group — the analytics kernel of the web front-end.
func (f *Frame) GroupSumInt64(now dram.Ps, keyCol, valCol string) (map[int64]int64, error) {
	kc, err := f.Column(keyCol)
	if err != nil {
		return nil, err
	}
	vc, err := f.Column(valCol)
	if err != nil {
		return nil, err
	}
	if kc.kind != KindInt64 || vc.kind != KindInt64 {
		return nil, fmt.Errorf("dataframe: GroupSumInt64 needs int64 columns")
	}
	out := map[int64]int64{}
	// Gather keys first (page-sequential), then values; both scans are
	// prefetch-friendly.
	keys := make([]int64, 0, kc.rows)
	if err := kc.scan(now, func(_ int, w uint64) { keys = append(keys, int64(w)) }); err != nil {
		return nil, err
	}
	if err := vc.scan(now, func(row int, w uint64) { out[keys[row]] += int64(w) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Demote pushes every page of the named column to far memory (the
// controller would normally do this by coldness; the explicit call
// models a "query finished, table now cold" hint).
func (f *Frame) Demote(now dram.Ps, name string) (int, error) {
	c, err := f.Column(name)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range c.pages {
		if f.heap.Resident(id) {
			if err := f.heap.SwapOut(now, id); err == nil {
				n++
			}
		}
	}
	return n, nil
}

// PrefetchColumn promotes a column's pages ahead of a scan with the
// offload hint set (predictable access pattern, §3.2: XFM lets the
// control plane "aggressively compress and decompress").
func (f *Frame) PrefetchColumn(now dram.Ps, name string) (int, error) {
	c, err := f.Column(name)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range c.pages {
		if !f.heap.Resident(id) {
			if err := f.heap.Prefetch(now, id); err == nil {
				n++
			}
		}
	}
	return n, nil
}
